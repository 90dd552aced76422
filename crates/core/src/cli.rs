//! A dependency-free, lenient `--flag value` parser for the example and
//! figure-harness binaries.
//!
//! Every experiment binary takes a handful of numeric knobs
//! (`--seed 42 --cascades 3000 …`); this keeps them uniform without
//! pulling an argument-parsing crate into the offline dependency set.
//! Unknown flags are accepted and malformed values panic — the
//! `viralcast` binary has its own strict, table-driven parser (unknown
//! flag → exit 2).

use std::collections::HashMap;

/// Parsed command-line flags.
#[derive(Clone, Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
    /// Bare (non-flag) arguments, in order.
    pub positional: Vec<String>,
}

impl Flags {
    /// Parses `--key value` pairs (and bare `--key` as `"true"`) from an
    /// iterator of arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut values = HashMap::new();
        let mut positional = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next().unwrap(),
                    _ => "true".to_string(),
                };
                values.insert(key.to_string(), value);
            } else {
                positional.push(arg);
            }
        }
        Flags { values, positional }
    }

    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Raw string value of a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Whether a flag was given (with any value).
    pub fn has(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    /// A `usize` flag with a default.
    ///
    /// # Panics
    /// Panics with a readable message if the value does not parse.
    pub fn usize(&self, key: &str, default: usize) -> usize {
        self.parsed(key).unwrap_or(default)
    }

    /// A `u64` flag with a default.
    pub fn u64(&self, key: &str, default: u64) -> u64 {
        self.parsed(key).unwrap_or(default)
    }

    /// An `f64` flag with a default.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.parsed(key).unwrap_or(default)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.values.get(key).map(|v| {
            v.parse().unwrap_or_else(|_| {
                panic!(
                    "flag --{key} expects a {}, got {v:?}",
                    std::any::type_name::<T>()
                )
            })
        })
    }
}
