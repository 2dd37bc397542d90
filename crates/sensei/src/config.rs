//! Minimal configuration format for selecting analyses at run time,
//! playing the role of SENSEI's XML configuration files (which choose
//! between Catalyst, Libsim, ADIOS, … without recompiling).
//!
//! The format is INI-like:
//!
//! ```text
//! [histogram]
//! array = data
//! bins = 64
//!
//! [autocorrelation]
//! array = data
//! window = 10
//! k = 16
//! ```
//!
//! Sections this crate knows (`histogram`, `autocorrelation`,
//! `descriptive-stats`) construct built-in analyses via
//! [`build_builtin_analyses`], which returns the names of the other
//! sections, such as `[catalyst-slice]`. No infrastructure crate parses
//! a section: a caller constructs a Catalyst or Libsim adaptor itself
//! and registers it beside the built-in analyses.

use std::collections::BTreeMap;

use crate::analysis::autocorrelation::Autocorrelation;
use crate::analysis::descriptive::DescriptiveStats;
use crate::analysis::histogram::HistogramAnalysis;
use crate::analysis::AnalysisAdaptor;

/// A parsed configuration: ordered sections of key→value maps.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Config {
    sections: Vec<(String, BTreeMap<String, String>)>,
}

/// Configuration parse errors.
#[derive(Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A `key = value` line appeared before any `[section]`.
    KeyOutsideSection { line: usize },
    /// A line was neither a section, a comment, a blank, nor `key = value`.
    Malformed { line: usize, text: String },
    /// A numeric option failed to parse.
    BadNumber {
        section: String,
        key: String,
        value: String,
    },
    /// A zero window, `k` or bin count, or more bins than an `i32` indexes.
    OutOfRange {
        section: String,
        key: String,
        value: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::KeyOutsideSection { line } => {
                write!(f, "line {line}: key/value outside any [section]")
            }
            ConfigError::Malformed { line, text } => {
                write!(f, "line {line}: malformed line '{text}'")
            }
            ConfigError::BadNumber {
                section,
                key,
                value,
            } => {
                write!(f, "[{section}] {key} = '{value}' is not a number")
            }
            ConfigError::OutOfRange {
                section,
                key,
                value,
            } => {
                write!(f, "[{section}] {key} = {value} is out of range")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parse the INI-like text.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with(';') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                cfg.sections
                    .push((name.trim().to_string(), BTreeMap::new()));
            } else if let Some((k, v)) = line.split_once('=') {
                let Some(last) = cfg.sections.last_mut() else {
                    return Err(ConfigError::KeyOutsideSection { line: lineno + 1 });
                };
                last.1.insert(k.trim().to_string(), v.trim().to_string());
            } else {
                return Err(ConfigError::Malformed {
                    line: lineno + 1,
                    text: line.to_string(),
                });
            }
        }
        Ok(cfg)
    }

    /// Iterate sections in file order.
    pub(crate) fn sections(&self) -> impl Iterator<Item = (&str, &BTreeMap<String, String>)> {
        self.sections.iter().map(|(n, m)| (n.as_str(), m))
    }

    /// String option with default.
    pub(crate) fn get_str<'a>(
        map: &'a BTreeMap<String, String>,
        key: &str,
        default: &'a str,
    ) -> &'a str {
        map.get(key).map(String::as_str).unwrap_or(default)
    }

    /// Numeric option with default.
    pub(crate) fn get_usize(
        section: &str,
        map: &BTreeMap<String, String>,
        key: &str,
        default: usize,
    ) -> Result<usize, ConfigError> {
        match map.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ConfigError::BadNumber {
                section: section.to_string(),
                key: key.to_string(),
                value: v.clone(),
            }),
        }
    }
}

/// The analyses a config names, plus the section names nobody claimed.
pub(crate) type BuiltinAnalyses = (Vec<Box<dyn AnalysisAdaptor>>, Vec<String>);

/// Construct the built-in analyses named by `cfg`. Unknown sections are
/// returned so an infrastructure layer can claim them.
pub fn build_builtin_analyses(cfg: &Config) -> Result<BuiltinAnalyses, ConfigError> {
    let mut analyses: Vec<Box<dyn AnalysisAdaptor>> = Vec::new();
    let mut unknown = Vec::new();
    for (name, map) in cfg.sections() {
        // A count outside `1..=max` is one no analysis can serve.
        let count = |key: &str, default, max: usize| -> Result<usize, ConfigError> {
            let value = Config::get_usize(name, map, key, default)?;
            if (1..=max).contains(&value) {
                return Ok(value);
            }
            let (section, key) = (name.to_string(), key.to_string());
            Err(ConfigError::OutOfRange {
                section,
                key,
                value,
            })
        };
        match name {
            "histogram" => {
                let array = Config::get_str(map, "array", "data").to_string();
                let bins = count("bins", 64, i32::MAX as usize)?;
                analyses.push(Box::new(HistogramAnalysis::new(array, bins)));
            }
            "autocorrelation" => {
                let array = Config::get_str(map, "array", "data").to_string();
                let window = count("window", 10, usize::MAX)?;
                let k = count("k", 16, usize::MAX)?;
                analyses.push(Box::new(Autocorrelation::new(array, window, k)));
            }
            "descriptive-stats" => {
                let array = Config::get_str(map, "array", "data").to_string();
                analyses.push(Box::new(DescriptiveStats::new(array)));
            }
            other => unknown.push(other.to_string()),
        }
    }
    Ok((analyses, unknown))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sections_and_keys() {
        let cfg = Config::parse(
            "# comment\n[histogram]\narray = rho\nbins = 32\n\n[catalyst-slice]\nimage = 1920x1080\n",
        )
        .unwrap();
        assert_eq!(cfg.sections().count(), 2);
        let (_, h) = cfg.sections().find(|(n, _)| *n == "histogram").unwrap();
        assert_eq!(h.get("array").unwrap(), "rho");
        assert_eq!(Config::get_usize("histogram", h, "bins", 64).unwrap(), 32);
        assert_eq!(
            Config::get_usize("histogram", h, "missing", 64).unwrap(),
            64
        );
    }

    #[test]
    fn builtin_construction_and_unknown_passthrough() {
        let cfg = Config::parse(
            "[histogram]\nbins=8\n[autocorrelation]\nwindow=4\n[catalyst-slice]\n[descriptive-stats]\n",
        )
        .unwrap();
        let (analyses, unknown) = build_builtin_analyses(&cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(analyses.len(), 3);
        assert_eq!(unknown, vec!["catalyst-slice".to_string()]);
    }

    #[test]
    fn error_on_key_outside_section() {
        let err = Config::parse("array = x\n").unwrap_err();
        assert_eq!(err, ConfigError::KeyOutsideSection { line: 1 });
    }

    #[test]
    fn error_on_malformed_line() {
        let err = Config::parse("[s]\nnot a kv line\n").unwrap_err();
        assert!(matches!(err, ConfigError::Malformed { line: 2, .. }));
    }

    #[test]
    fn error_on_bad_number() {
        let cfg = Config::parse("[histogram]\nbins = many\n").unwrap();
        let err = match build_builtin_analyses(&cfg) {
            Err(e) => e,
            Ok(_) => panic!("expected BadNumber error"),
        };
        assert!(matches!(err, ConfigError::BadNumber { .. }));
        assert!(format!("{err}").contains("bins"));
    }

    /// The error `text`'s analyses are refused with.
    fn refused(text: &str) -> ConfigError {
        match build_builtin_analyses(&Config::parse(text).unwrap()) {
            Err(e) => e,
            Ok(_) => panic!("expected an error for {text:?}"),
        }
    }

    fn out_of_range(section: &str, key: &str, value: usize) -> ConfigError {
        ConfigError::OutOfRange {
            section: section.to_string(),
            key: key.to_string(),
            value,
        }
    }

    #[test]
    fn zero_window_is_an_error() {
        let err = refused("[autocorrelation]\nwindow = 0\n");
        assert_eq!(err, out_of_range("autocorrelation", "window", 0));
        assert_eq!(
            err.to_string(),
            "[autocorrelation] window = 0 is out of range"
        );
    }

    #[test]
    fn zero_k_is_an_error() {
        let err = refused("[autocorrelation]\nk = 0\n");
        assert_eq!(err, out_of_range("autocorrelation", "k", 0));
    }

    #[test]
    fn zero_bins_is_an_error() {
        let err = refused("[histogram]\nbins = 0\n");
        assert_eq!(err, out_of_range("histogram", "bins", 0));
    }

    #[test]
    fn bins_past_i32_is_an_error() {
        let bins = i32::MAX as usize + 1;
        let err = refused(&format!("[histogram]\nbins = {bins}\n"));
        assert_eq!(err, out_of_range("histogram", "bins", bins));
        assert!(err.to_string().contains("bins = 2147483648"), "{err}");
    }

    #[test]
    fn semicolon_comments_and_whitespace() {
        let cfg = Config::parse("; c\n  [ s ]  \n  a  =  1 2 3  \n").unwrap();
        let (name, s) = cfg.sections().next().unwrap();
        assert_eq!(name, "s");
        assert_eq!(s.get("a").unwrap(), "1 2 3");
    }
}
