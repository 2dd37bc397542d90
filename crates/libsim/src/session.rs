//! Session files: the "XML files saved from the VisIt GUI" that Libsim
//! uses to set up complex visualizations without code changes (§2.2.3).
//! This stand-in uses a line-oriented format:
//!
//! ```text
//! image 1600 1600
//! frequency 5
//! plot pseudocolor vorticity axis=z index=512
//! plot isosurface vorticity levels=0.2,0.5,0.8
//! ```

/// One plot in a session.
#[derive(Clone, Debug, PartialEq)]
pub enum Plot {
    /// Pseudocolor slice of a point array.
    Pseudocolor {
        /// Array name.
        array: String,
        /// Sliced axis.
        axis: usize,
        /// Global point index of the plane.
        index: i64,
    },
    /// Isosurfaces of a point array at relative levels (fractions of the
    /// data range in `(0, 1)`).
    Isosurface {
        /// Array name.
        array: String,
        /// Relative isovalue levels.
        levels: Vec<f64>,
    },
}

impl Plot {
    /// The array the plot draws.
    pub(crate) fn array(&self) -> &str {
        let (Plot::Pseudocolor { array, .. } | Plot::Isosurface { array, .. }) = self;
        array
    }
}

/// A parsed session.
#[derive(Clone, Debug, PartialEq)]
pub struct Session {
    /// Output image size.
    pub image: (usize, usize),
    /// Render every Nth step.
    pub frequency: u64,
    /// Plots, in order; `LibsimAnalysis` draws the first plot's array.
    pub plots: Vec<Plot>,
}

impl Default for Session {
    fn default() -> Self {
        Session {
            image: crate::DEFAULT_IMAGE,
            frequency: 1,
            plots: Vec::new(),
        }
    }
}

/// Session parse errors.
#[derive(Debug, PartialEq)]
pub enum SessionError {
    /// Unknown directive.
    UnknownDirective { line: usize, word: String },
    /// A directive had malformed arguments.
    BadArguments { line: usize, detail: String },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownDirective { line, word } => {
                write!(f, "line {line}: unknown directive '{word}'")
            }
            SessionError::BadArguments { line, detail } => {
                write!(f, "line {line}: {detail}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl Session {
    /// Parse session text.
    pub fn parse(text: &str) -> Result<Session, SessionError> {
        let mut s = Session::default();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            let bad = |detail: &str| SessionError::BadArguments {
                line: lineno,
                detail: detail.to_string(),
            };
            match words[0] {
                "image" => {
                    if words.len() != 3 {
                        return Err(bad("image takes width and height"));
                    }
                    let w = words[1].parse().map_err(|_| bad("bad width"))?;
                    let h = words[2].parse().map_err(|_| bad("bad height"))?;
                    if w == 0 || h == 0 {
                        return Err(bad("image must be non-degenerate"));
                    }
                    s.image = (w, h);
                }
                "frequency" => {
                    if words.len() != 2 {
                        return Err(bad("frequency takes one integer"));
                    }
                    s.frequency = words[1].parse().map_err(|_| bad("bad frequency"))?;
                    if s.frequency == 0 {
                        return Err(bad("frequency must be >= 1"));
                    }
                }
                "plot" => {
                    if words.len() < 3 {
                        return Err(bad("plot takes a kind and an array"));
                    }
                    let array = words[2].to_string();
                    let kv = |key: &str| -> Option<&str> {
                        words[3..]
                            .iter()
                            .find_map(|w| w.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
                    };
                    match words[1] {
                        "pseudocolor" => {
                            let axis = match kv("axis").unwrap_or("z") {
                                "x" => 0,
                                "y" => 1,
                                "z" => 2,
                                other => {
                                    return Err(bad(&format!("bad axis '{other}'")));
                                }
                            };
                            let index = kv("index")
                                .unwrap_or("0")
                                .parse()
                                .map_err(|_| bad("bad index"))?;
                            s.plots.push(Plot::Pseudocolor { array, axis, index });
                        }
                        "isosurface" => {
                            let levels_str = kv("levels").ok_or_else(|| bad("needs levels="))?;
                            let mut levels = Vec::new();
                            for part in levels_str.split(',') {
                                let v: f64 = part.parse().map_err(|_| bad("bad level value"))?;
                                if !(0.0..=1.0).contains(&v) {
                                    return Err(bad("levels are fractions in [0,1]"));
                                }
                                levels.push(v);
                            }
                            if levels.is_empty() {
                                return Err(bad("needs at least one level"));
                            }
                            s.plots.push(Plot::Isosurface { array, levels });
                        }
                        other => {
                            return Err(SessionError::UnknownDirective {
                                line: lineno,
                                word: format!("plot {other}"),
                            })
                        }
                    }
                }
                other => {
                    return Err(SessionError::UnknownDirective {
                        line: lineno,
                        word: other.to_string(),
                    })
                }
            }
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_session() {
        let s = Session::parse(
            "# comment\nimage 800 600\nfrequency 5\nplot pseudocolor data axis=y index=12\nplot isosurface vort levels=0.2,0.8\n",
        )
        .unwrap();
        assert_eq!(s.image, (800, 600));
        assert_eq!(s.frequency, 5);
        assert_eq!(s.plots.len(), 2);
        assert_eq!(
            s.plots[0],
            Plot::Pseudocolor {
                array: "data".into(),
                axis: 1,
                index: 12
            }
        );
        assert_eq!(
            s.plots[1],
            Plot::Isosurface {
                array: "vort".into(),
                levels: vec![0.2, 0.8]
            }
        );
    }

    #[test]
    fn defaults_apply() {
        let s = Session::parse("plot pseudocolor data\n").unwrap();
        assert_eq!(s.image, crate::DEFAULT_IMAGE);
        assert_eq!(s.frequency, 1);
        assert_eq!(
            s.plots[0],
            Plot::Pseudocolor {
                array: "data".into(),
                axis: 2,
                index: 0
            }
        );
    }

    #[test]
    fn errors_name_the_line() {
        let e = Session::parse("image 0 100\n").unwrap_err();
        assert!(matches!(e, SessionError::BadArguments { line: 1, .. }));
        let e = Session::parse("image 4 4\nwibble\n").unwrap_err();
        assert!(matches!(e, SessionError::UnknownDirective { line: 2, .. }));
        let e = Session::parse("plot isosurface v levels=1.5\n").unwrap_err();
        assert!(matches!(e, SessionError::BadArguments { .. }));
        let e = Session::parse("frequency 0\n").unwrap_err();
        assert!(matches!(e, SessionError::BadArguments { .. }));
    }
}
