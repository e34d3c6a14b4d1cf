//! Tiny dependency-free argument parsing for the `swifi` CLI.

use std::collections::HashMap;

/// Parsed command line: a subcommand, positional operands, and
/// `--key value` / `--flag` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedArgs {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Positional operands after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options; bare `--flag`s map to an empty string.
    pub options: HashMap<String, Vec<String>>,
}

impl ParsedArgs {
    /// Parse an argument list (without the program name).
    ///
    /// Every `--key` consumes the next argument as its value unless that
    /// argument also starts with `--` (then it is a bare flag). Repeated
    /// keys accumulate.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> ParsedArgs {
        let mut out = ParsedArgs::default();
        let mut it = args.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let takes_value = it.peek().is_some_and(|n| !n.starts_with("--"));
                let value = if takes_value {
                    it.next().unwrap_or_default()
                } else {
                    // Bare flag (`--asm`, or `--seed` at the end of the
                    // line): recorded with an empty value. Accessors that
                    // *need* a value turn this into a usage error naming
                    // the flag instead of parsing the empty string.
                    String::new()
                };
                out.options.entry(key.to_string()).or_default().push(value);
            } else if out.command.is_empty() {
                out.command = a;
            } else {
                out.positional.push(a);
            }
        }
        out
    }

    /// Last value of an option, if present.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.options
            .get(key)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// Whether a bare flag (or option) was given.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// All values of a repeatable option.
    pub fn all(&self, key: &str) -> Vec<&str> {
        self.options
            .get(key)
            .map(|v| v.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// Last value of an option, as a usage error when the option was given
    /// without one (e.g. `swifi campaign --seed` with nothing after).
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when it was given bare.
    pub fn value_opt(&self, key: &str) -> Result<Option<&str>, String> {
        match self.opt(key) {
            None => Ok(None),
            Some("") => Err(format!("--{key} requires a value (e.g. `--{key} VALUE`)")),
            Some(v) => Ok(Some(v)),
        }
    }

    /// Parse an option as an integer with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the option was given without a value or the
    /// value is not an integer.
    pub fn int_opt(&self, key: &str, default: i64) -> Result<i64, String> {
        match self.value_opt(key)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got `{v}`")),
        }
    }

    /// Refuse any option not in `known`, the space-separated flags the
    /// subcommand reads, so a mistyped flag is not silently ignored.
    ///
    /// # Errors
    ///
    /// Names the first unknown flag in sorted order.
    pub fn check_flags(&self, known: &str) -> Result<(), String> {
        let mut unknown: Vec<&str> = (self.options.keys())
            .map(String::as_str)
            .filter(|key| !known.split_whitespace().any(|k| k == *key))
            .collect();
        unknown.sort_unstable();
        match unknown.first() {
            None => Ok(()),
            Some(key) => Err(format!(
                "unknown flag `--{key}` for `swifi {}` (see `swifi help`)",
                self.command
            )),
        }
    }

    /// Parse an option that must be a *strictly positive* integer
    /// (`--watchdog-ms`, `--shards`, `--pool`, ... — zero or negative values would panic or spin downstream).
    /// `None` when the option is absent.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when the option was given bare,
    /// is not an integer, or is not positive.
    pub fn positive_int_opt(&self, key: &str) -> Result<Option<i64>, String> {
        match self.value_opt(key)? {
            None => Ok(None),
            Some(v) => {
                let n: i64 = v
                    .parse()
                    .map_err(|_| format!("--{key} expects an integer, got `{v}`"))?;
                if n <= 0 {
                    return Err(format!("--{key} must be a positive integer, got {n}"));
                }
                Ok(Some(n))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{flags_of, COMMAND_FLAGS};

    /// Check `line`'s flags against its subcommand's.
    fn check(line: &str) -> Result<(), String> {
        let p = parse(line);
        p.check_flags(flags_of(&p.command))
    }
    use proptest::prelude::*;

    fn parse(s: &str) -> ParsedArgs {
        ParsedArgs::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn command_and_positionals() {
        let p = parse("run prog.mc extra");
        assert_eq!(p.command, "run");
        assert_eq!(p.positional, vec!["prog.mc", "extra"]);
    }

    #[test]
    fn options_and_flags() {
        let p = parse("inject f.mc --site 3 --asm --int 1 --int 2");
        assert_eq!(p.opt("site"), Some("3"));
        assert!(p.flag("asm"));
        assert_eq!(p.all("int"), vec!["1", "2"]);
        assert_eq!(p.int_opt("site", 0), Ok(3));
    }

    #[test]
    fn flag_before_flag_is_bare() {
        // A `--flag` immediately followed by another `--flag` takes no
        // value; a trailing operand would be consumed as a value, so the
        // documented usage puts flags last.
        let p = parse("compile f.mc --asm --sites");
        assert!(p.flag("asm"));
        assert!(p.flag("sites"));
        assert_eq!(p.positional, vec!["f.mc"]);
    }

    #[test]
    fn int_opt_errors_on_garbage() {
        let p = parse("x --n abc");
        // "abc" does not start with --, so it is the value of --n.
        assert!(p.int_opt("n", 1).is_err());
    }

    #[test]
    fn missing_value_is_a_usage_error_naming_the_flag() {
        // Regression: `swifi campaign --seed` used to silently record an
        // empty value and fail later with a confusing parse error.
        let p = parse("campaign SOR --seed");
        let err = p.int_opt("seed", 7).unwrap_err();
        assert!(err.contains("--seed"), "error must name the flag: {err}");
        assert!(err.contains("requires a value"), "{err}");
        let err = p.value_opt("seed").unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        // Bare boolean flags are still fine through `flag()`.
        assert!(p.flag("seed"));
        // And options that do have values are unaffected.
        let p = parse("campaign SOR --seed 9");
        assert_eq!(p.int_opt("seed", 7), Ok(9));
        assert_eq!(p.value_opt("seed"), Ok(Some("9")));
    }

    #[test]
    fn defaults_apply() {
        let p = parse("campaign SOR");
        assert_eq!(p.int_opt("inputs", 10), Ok(10));
        assert_eq!(p.opt("missing"), None);
        assert!(!p.flag("missing"));
    }

    #[test]
    fn negative_numbers_are_values() {
        // `-5` does not start with `--`, so it is consumed as a value.
        let p = parse("run --int -5");
        assert_eq!(p.all("int"), vec!["-5"]);
    }

    #[test]
    fn positive_int_opt_rejects_zero_and_negative() {
        // Regression: `--watchdog-ms 0` / `--shards -1` / `--pool 0` were
        // silently accepted and panicked or spun downstream; each must be
        // a usage error naming the flag.
        for flag in ["watchdog-ms", "shards", "pool"] {
            for bad in ["0", "-3"] {
                let p = parse(&format!("campaign SOR --{flag} {bad}"));
                let err = p.positive_int_opt(flag).unwrap_err();
                assert!(err.contains(&format!("--{flag}")), "{err}");
                assert!(err.contains("positive"), "{err}");
            }
        }
    }

    #[test]
    fn unknown_flags_are_usage_errors_naming_the_flag() {
        let err = check("campaign JB.team11 --inputs 2 --seed 7 --watchdog-m 1").unwrap_err();
        assert!(err.contains("`--watchdog-m`"), "{err}");
        assert_eq!(
            check("campaign JB.team11 --watchdog-ms 1 --no-prefix-fork"),
            Ok(())
        );
        // Every flag `swifi serve` passes its shard workers, and the ones
        // the benchmark harness passes `serve`.
        let shard = "shard-exec --driver class --target SOR --seed 7 --inputs 3 --mutants 18 \
                     --shard 0 --shards 2 --checkpoint c.jsonl --metrics-out m --trace-out t";
        assert_eq!(check(shard), Ok(()));
        assert_eq!(check("serve --addr 127.0.0.1:0 --workdir /w"), Ok(()));
        assert!(check("list --asm").is_err() && check("warp --asm").is_err());
        assert_eq!(check("warp"), Ok(()), "the command itself is checked later");
    }

    /// One command-line word: a command, a listed flag, a mistyped one, a
    /// number, or arbitrary text with or without the `--` prefix.
    fn arb_word() -> impl Strategy<Value = String> {
        let flags: Vec<&str> = (COMMAND_FLAGS.iter())
            .flat_map(|&(_, flags)| flags.split_whitespace())
            .collect();
        let chars = || proptest::collection::vec(any::<char>(), 0..6);
        prop_oneof![
            (0..COMMAND_FLAGS.len()).prop_map(|i| COMMAND_FLAGS[i].0.to_string()),
            prop_oneof![Just("list"), Just("help"), Just("warp")].prop_map(String::from),
            (0..2 * flags.len()).prop_map(move |i| {
                let typo = if i % 2 == 0 { "" } else { "x" };
                format!("--{}{typo}", flags[i / 2])
            }),
            any::<i32>().prop_map(|n| n.to_string()),
            chars().prop_map(|c| c.into_iter().collect()),
            chars().prop_map(|c| format!("--{}", c.into_iter().collect::<String>())),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Any word list parses, and the flag check never panics: a line
        /// it accepts carries only flags its subcommand reads.
        #[test]
        fn accepted_lines_carry_only_listed_flags(
            words in proptest::collection::vec(arb_word(), 0..8),
        ) {
            let parsed = ParsedArgs::parse(words.clone());
            let known = flags_of(&parsed.command);
            if parsed.check_flags(known).is_ok() {
                for key in parsed.options.keys() {
                    prop_assert!(known.split_whitespace().any(|k| k == key), "{words:?}");
                }
            }
        }
    }

    #[test]
    fn positive_int_opt_accepts_positive_and_absent() {
        let p = parse("campaign SOR --watchdog-ms 250");
        assert_eq!(p.positive_int_opt("watchdog-ms"), Ok(Some(250)));
        assert_eq!(p.positive_int_opt("shards"), Ok(None));
        // Bare and non-integer forms still error, naming the flag.
        let p = parse("campaign SOR --watchdog-ms");
        assert!(p.positive_int_opt("watchdog-ms").is_err());
        let p = parse("campaign SOR --watchdog-ms soon");
        let err = p.positive_int_opt("watchdog-ms").unwrap_err();
        assert!(err.contains("integer"), "{err}");
    }
}
