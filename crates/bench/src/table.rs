//! Plain-text/CSV tables for experiment output.

/// A titled table of string cells.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// Title (e.g. "Fig. 3 — time to solution").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header count {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Column index by header name.
    pub fn column(&self, header: &str) -> Option<usize> {
        self.headers.iter().position(|h| h == header)
    }

    /// Numeric value at `(row, header)`, if parseable.
    pub fn value(&self, row: usize, header: &str) -> Option<f64> {
        let c = self.column(header)?;
        self.rows.get(row)?.get(c)?.parse().ok()
    }

    /// Render aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = format!("== {} ==\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render CSV.
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = self
            .headers
            .iter()
            .map(|h| esc(h))
            .collect::<Vec<_>>()
            .join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format seconds with sensible precision.
pub(crate) fn secs(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Format bytes as a human unit.
pub fn bytes(v: f64) -> String {
    if v >= 1e12 {
        format!("{:.2} TB", v / 1e12)
    } else if v >= 1e9 {
        format!("{:.1} GB", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.1} MB", v / 1e6)
    } else {
        format!("{v:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_render() {
        let mut t = Table::new("Demo", &["cores", "time (s)"]);
        t.row(vec!["812".into(), "0.12".into()]);
        t.row(vec!["6496".into(), "0.67".into()]);
        let text = t.to_text();
        assert!(text.contains("Demo"));
        assert!(text.contains("812"));
        let csv = t.to_csv();
        assert!(csv.starts_with("cores,time (s)\n"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn value_lookup() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into(), "2.5".into()]);
        assert_eq!(t.value(0, "b"), Some(2.5));
        assert_eq!(t.value(0, "c"), None);
        assert_eq!(t.value(9, "a"), None);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["hello, world".into()]);
        assert!(t.to_csv().contains("\"hello, world\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(0.1234), "0.1234");
        assert_eq!(secs(5.251), "5.25");
        assert_eq!(secs(523.0), "523");
        assert_eq!(bytes(2e9), "2.0 GB");
        assert_eq!(bytes(1.23e13), "12.30 TB");
    }
}
