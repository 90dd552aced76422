//! The lenient `--flag value` parser the examples share. The one
//! implementation is [`viralcast::cli::Flags`]; its tests live here so
//! the root suite (tier-1) runs them.

pub use viralcast::cli::Flags;

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_key_value_pairs() {
        let f = flags(&["--seed", "42", "--cascades", "100"]);
        assert_eq!(f.u64("seed", 0), 42);
        assert_eq!(f.usize("cascades", 0), 100);
    }

    #[test]
    fn defaults_apply_when_missing() {
        let f = flags(&[]);
        assert_eq!(f.usize("cores", 8), 8);
        assert_eq!(f.f64("window", 1.5), 1.5);
    }

    #[test]
    fn bare_flags_are_true() {
        let f = flags(&["--verbose", "--seed", "7"]);
        assert!(f.has("verbose"));
        assert_eq!(f.get("verbose"), Some("true"));
        assert_eq!(f.u64("seed", 0), 7);
    }

    #[test]
    fn positional_arguments_kept() {
        let f = flags(&["run", "--seed", "1", "fast"]);
        assert_eq!(f.positional, vec!["run", "fast"]);
    }

    #[test]
    fn floats_parse() {
        let f = flags(&["--alpha", "0.25"]);
        assert!((f.f64("alpha", 0.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "expects a")]
    fn bad_value_panics_with_message() {
        flags(&["--seed", "notanumber"]).u64("seed", 0);
    }

    #[test]
    fn adjacent_flags_do_not_consume_each_other() {
        let f = flags(&["--fast", "--seed", "3"]);
        assert_eq!(f.get("fast"), Some("true"));
        assert_eq!(f.u64("seed", 0), 3);
    }
}
