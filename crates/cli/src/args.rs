//! A small, dependency-free argument parser.
//!
//! The workspace's dependency policy has no CLI crate, and the `ftqc` tool
//! needs only subcommands, `--flag value` options, and positionals — a
//! hundred lines of parser keeps the policy intact and the error messages
//! domain-specific.

use std::fmt;

/// Parsed command line: a subcommand, positional arguments, and options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positionals: Vec<String>,
    /// `--key value` and boolean `--key` options (boolean flags map to
    /// `"true"`), in command-line order. A key may repeat (`--target a
    /// --target b`); single-value accessors take the last occurrence.
    pub options: Vec<(String, String)>,
}

/// An argument-parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// An option was malformed or a value failed to parse.
    Invalid {
        /// The option name.
        option: String,
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no subcommand (try `ftqc help`)"),
            ArgError::Invalid { option, reason } => write!(f, "--{option}: {reason}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Flags that take no value.
const BOOLEAN_FLAGS: &[&str] = &[
    "verify",
    "optimize",
    "semantics",
    "unit-cost",
    "no-lookahead",
    "no-redundant-elim",
    "unbounded-magic",
    "include-factories",
    "parallel",
    "json",
    "explain",
    "trace",
];

/// Parses a raw argument list (without the program name).
///
/// # Errors
///
/// Returns [`ArgError::MissingCommand`] on an empty list.
pub fn parse(args: &[String]) -> Result<ParsedArgs, ArgError> {
    let mut it = args.iter().peekable();
    let command = it.next().cloned().ok_or(ArgError::MissingCommand)?;
    let mut parsed = ParsedArgs {
        command,
        ..Default::default()
    };
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            if BOOLEAN_FLAGS.contains(&key) {
                parsed.options.push((key.to_string(), "true".into()));
            } else {
                let value = it.next().cloned().ok_or_else(|| ArgError::Invalid {
                    option: key.to_string(),
                    reason: "expects a value".into(),
                })?;
                parsed.options.push((key.to_string(), value));
            }
        } else {
            parsed.positionals.push(a.clone());
        }
    }
    Ok(parsed)
}

impl ParsedArgs {
    /// The last `--key` value, when given.
    pub fn get(&self, key: &str) -> Option<&String> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Every `--key` value, in command-line order (for repeatable options
    /// like `--target`).
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        self.options
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Whether `--key` was given at all.
    pub fn contains_key(&self, key: &str) -> bool {
        self.options.iter().any(|(k, _)| k == key)
    }

    /// A `--key` option parsed as `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// [`ArgError::Invalid`] when present but unparsable.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::Invalid {
                option: key.to_string(),
                reason: format!("cannot parse {v:?}"),
            }),
        }
    }

    /// Checks every given option against `known`, the subcommand's
    /// documented option names, so a typo or a retired option fails loudly
    /// instead of being ignored.
    ///
    /// # Errors
    ///
    /// [`ArgError::Invalid`] naming the first option outside `known`.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), ArgError> {
        match self
            .options
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            None => Ok(()),
            Some((key, _)) => Err(ArgError::Invalid {
                option: key.clone(),
                reason: format!("not an option of `ftqc {}` (see `ftqc help`)", self.command),
            }),
        }
    }

    /// Whether a boolean flag was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.get(key).map(String::as_str) == Some("true")
    }

    /// A range option of the form `lo..hi` (inclusive), or a single number
    /// `n` (meaning `n..n`).
    ///
    /// # Errors
    ///
    /// [`ArgError::Invalid`] on malformed input.
    pub fn range_or(&self, key: &str, default: (u32, u32)) -> Result<Vec<u32>, ArgError> {
        let (lo, hi) = match self.get(key) {
            None => default,
            Some(v) => {
                let bad = |reason: &str| ArgError::Invalid {
                    option: key.to_string(),
                    reason: reason.to_string(),
                };
                if let Some((a, b)) = v.split_once("..") {
                    (
                        a.parse().map_err(|_| bad("bad range start"))?,
                        b.parse().map_err(|_| bad("bad range end"))?,
                    )
                } else {
                    let n: u32 = v.parse().map_err(|_| bad("expected N or LO..HI"))?;
                    (n, n)
                }
            }
        };
        if lo > hi {
            return Err(ArgError::Invalid {
                option: key.to_string(),
                reason: format!("empty range {lo}..{hi}"),
            });
        }
        Ok((lo..=hi).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_subcommand_and_positionals() {
        let p = parse(&argv("compile ising")).unwrap();
        assert_eq!(p.command, "compile");
        assert_eq!(p.positionals, vec!["ising"]);
    }

    #[test]
    fn parses_options_and_flags() {
        let p = parse(&argv("compile ising --r 6 --factories 2 --verify")).unwrap();
        assert_eq!(p.get_or("r", 4u32).unwrap(), 6);
        assert_eq!(p.get_or("factories", 1u32).unwrap(), 2);
        assert!(p.flag("verify"));
        assert!(!p.flag("semantics"));
    }

    #[test]
    fn missing_command_rejected() {
        assert_eq!(parse(&[]).unwrap_err(), ArgError::MissingCommand);
    }

    #[test]
    fn missing_value_rejected() {
        let e = parse(&argv("compile --r")).unwrap_err();
        assert!(matches!(e, ArgError::Invalid { .. }));
    }

    #[test]
    fn bad_value_rejected() {
        let p = parse(&argv("compile --r banana")).unwrap();
        assert!(p.get_or("r", 4u32).is_err());
    }

    #[test]
    fn default_used_when_absent() {
        let p = parse(&argv("compile")).unwrap();
        assert_eq!(p.get_or("r", 4u32).unwrap(), 4);
        assert_eq!(p.get_or("eps", 1e-10).unwrap(), 1e-10);
    }

    #[test]
    fn range_forms() {
        let p = parse(&argv("explore --r 2..6 --factories 3")).unwrap();
        assert_eq!(p.range_or("r", (1, 1)).unwrap(), vec![2, 3, 4, 5, 6]);
        assert_eq!(p.range_or("factories", (1, 1)).unwrap(), vec![3]);
        assert_eq!(p.range_or("absent", (1, 2)).unwrap(), vec![1, 2]);
    }

    #[test]
    fn empty_range_rejected() {
        let p = parse(&argv("explore --r 6..2")).unwrap();
        assert!(p.range_or("r", (1, 1)).is_err());
    }

    #[test]
    fn repeated_options_accumulate() {
        let p = parse(&argv("sweep ising --target sparse --target paper --r 2")).unwrap();
        assert_eq!(p.get_all("target"), vec!["sparse", "paper"]);
        assert_eq!(p.get("target"), Some(&"paper".to_string()), "last wins");
        assert!(p.contains_key("target"));
        assert!(!p.contains_key("factories"));
        assert_eq!(p.get_all("factories"), Vec::<&str>::new());
        // Repeated single-value options: the last occurrence is taken.
        let p = parse(&argv("compile ising --r 2 --r 6")).unwrap();
        assert_eq!(p.get_or("r", 4u32).unwrap(), 6);
    }

    #[test]
    fn unknown_options_are_rejected_by_name() {
        let known = ["addr", "json"];
        let p = parse(&argv("serve --addr 127.0.0.1:0 --json")).unwrap();
        assert_eq!(p.reject_unknown(&known), Ok(()));
        for (line, option) in [
            ("serve --addr 127.0.0.1:0 --adr 127.0.0.1:1", "adr"),
            ("serve --json --fleet x", "fleet"),
        ] {
            let e = parse(&argv(line))
                .unwrap()
                .reject_unknown(&known)
                .unwrap_err();
            assert!(
                matches!(&e, ArgError::Invalid { option: o, .. } if o == option),
                "{line}: {e}"
            );
            assert!(e.to_string().starts_with(&format!("--{option}: ")), "{e}");
        }
    }

    #[test]
    fn error_display() {
        assert!(ArgError::MissingCommand.to_string().contains("subcommand"));
        let e = ArgError::Invalid {
            option: "r".into(),
            reason: "x".into(),
        };
        assert!(e.to_string().contains("--r"));
    }
}
