//! Minimal flag parser (no external dependencies).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A parsed command line: positionals plus `--flag value` / `--flag`
/// options.
#[derive(Debug, Default, Clone)]
pub struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
    /// Every flag name a command has asked for, given or not, so a
    /// command can refuse the flags it never reads.
    asked: RefCell<HashSet<String>>,
}

/// CLI-level errors with user-facing messages.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError(format!("I/O error: {e}"))
    }
}

impl From<seer_trace::TraceError> for CliError {
    fn from(e: seer_trace::TraceError) -> CliError {
        CliError(e.to_string())
    }
}

impl From<seer_core::PersistError> for CliError {
    fn from(e: seer_core::PersistError) -> CliError {
        CliError(e.to_string())
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> CliError {
        CliError(format!("JSON error: {e}"))
    }
}

impl Args {
    /// Parses raw arguments. A token starting with `--` becomes a flag; if
    /// the following token does not start with `--` it is the flag's
    /// value, otherwise the flag is boolean.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, CliError> {
        let mut out = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if name.is_empty() {
                    return Err(CliError("empty flag name '--'".into()));
                }
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next().expect("peeked"),
                    _ => String::from("true"),
                };
                out.flags.insert(name.to_owned(), value);
            } else {
                out.positional.push(tok);
            }
        }
        Ok(out)
    }

    /// The `i`-th positional argument.
    #[must_use]
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// A required positional argument.
    pub fn require_positional(&self, i: usize, what: &str) -> Result<&str, CliError> {
        self.positional(i)
            .ok_or_else(|| CliError(format!("missing required argument: {what}")))
    }

    /// A string flag.
    #[must_use]
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.asked.borrow_mut().insert(name.to_owned());
        self.flags.get(name).map(String::as_str)
    }

    /// A required string flag.
    pub fn require_flag(&self, name: &str) -> Result<&str, CliError> {
        self.flag(name)
            .ok_or_else(|| CliError(format!("missing required flag: --{name}")))
    }

    /// A parsed numeric flag with a default.
    pub fn num_flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("invalid value for --{name}: {v}"))),
        }
    }

    /// Whether a boolean flag is present.
    #[must_use]
    pub fn bool_flag(&self, name: &str) -> bool {
        self.flag(name).is_some()
    }

    /// Refuses, naming them, the given flags no call so far has asked
    /// for: a mistyped or retired flag would otherwise be ignored.
    pub fn refuse_unread_flags(&self) -> Result<(), CliError> {
        let asked = self.asked.borrow();
        let mut unread: Vec<String> = (self.flags.keys())
            .filter(|name| !asked.contains(*name))
            .map(|name| format!("--{name}"))
            .collect();
        if unread.is_empty() {
            return Ok(());
        }
        unread.sort_unstable();
        Err(CliError(format!("unknown flag: {}", unread.join(", "))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_owned)).expect("parse")
    }

    #[test]
    fn positionals_and_flags() {
        let a = parse("observe trace.jsonl --state out.json --days 30 --verbose");
        assert_eq!(a.positional(0), Some("observe"));
        assert_eq!(a.positional(1), Some("trace.jsonl"));
        assert_eq!(a.flag("state"), Some("out.json"));
        assert_eq!(a.num_flag("days", 0u32).expect("num"), 30);
        assert!(a.bool_flag("verbose"));
        assert!(!a.bool_flag("quiet"));
    }

    #[test]
    fn missing_requirements_error() {
        let a = parse("hoard");
        assert!(a.require_positional(1, "state file").is_err());
        assert!(a.require_flag("budget").is_err());
    }

    #[test]
    fn bad_numbers_error() {
        let a = parse("x --days twelve");
        assert!(a.num_flag("days", 0u32).is_err());
    }

    #[test]
    fn boolean_flag_before_another_flag() {
        let a = parse("x --investigators --period weekly");
        assert!(a.bool_flag("investigators"));
        assert_eq!(a.flag("period"), Some("weekly"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("x");
        assert_eq!(a.num_flag("seed", 7u64).expect("default"), 7);
    }
}
