//! A dependency-free `--flag value` parser for the example and
//! figure-harness binaries.
//!
//! Every experiment binary takes a handful of numeric knobs
//! (`--seed 42 --cascades 3000 …`); this keeps them uniform without
//! pulling an argument-parsing crate into the offline dependency set.
//! A binary reads its flags through the getters and then calls
//! [`Flags::finish`], which panics on a flag no getter read; a malformed
//! value panics at its getter. The `viralcast` binary has its own
//! strict, table-driven parser (unknown flag → exit 2).

use std::cell::RefCell;
use std::collections::HashSet;

/// Parsed command-line flags.
#[derive(Clone, Debug, Default)]
pub struct Flags {
    /// `(name, value)` in command-line order; a repeated flag's last
    /// value wins.
    values: Vec<(String, String)>,
    /// The names a getter has asked for.
    read: RefCell<HashSet<String>>,
    /// Bare (non-flag) arguments, in order.
    pub positional: Vec<String>,
}

impl Flags {
    /// Parses `--key value` pairs (and bare `--key` as `"true"`) from an
    /// iterator of arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut flags = Flags::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next().unwrap(),
                    _ => "true".to_string(),
                };
                flags.values.push((key.to_string(), value));
            } else {
                flags.positional.push(arg);
            }
        }
        flags
    }

    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Raw string value of a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.read.borrow_mut().insert(key.to_string());
        self.values
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether a flag was given (with any value).
    pub fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
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

    /// Ends the reads: call once after the binary has read every flag it
    /// takes, so that a misspelt flag (`--max-core 64`) stops the run
    /// instead of leaving the default in place.
    ///
    /// # Panics
    /// Panics naming the first flag on the command line that no getter
    /// read.
    pub fn finish(&self) {
        let read = self.read.borrow();
        if let Some((key, _)) = self.values.iter().find(|(k, _)| !read.contains(k)) {
            panic!("unknown flag --{key}: this binary never reads it");
        }
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.get(key).map(|v| {
            v.parse().unwrap_or_else(|_| {
                panic!(
                    "flag --{key} expects a {}, got {v:?}",
                    std::any::type_name::<T>()
                )
            })
        })
    }
}
