//! Minimal dependency-free argument parsing.
//!
//! Supports `--key value`, `--key=value`, and bare `--flag` arguments
//! after a positional subcommand and an optional positional action
//! (`paba workload generate …`). Typed accessors return descriptive
//! errors naming the offending flag.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand, an optional action, plus
/// `--key value` options.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first positional argument), if any.
    pub command: Option<String>,
    /// The action (second positional argument, e.g. `workload generate`),
    /// if any.
    pub action: Option<String>,
    options: BTreeMap<String, String>,
}

impl Args {
    /// Parse an iterator of argument strings (excluding `argv[0]`).
    ///
    /// Unrecognized positionals after the subcommand and action are an
    /// error, as are dangling `--key`s with no value (unless the next
    /// token is another flag, in which case the key is treated as a
    /// boolean `true`).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, String> {
        let mut out = Args::default();
        let mut iter = argv.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(stripped) = tok.strip_prefix("--") {
                if stripped.is_empty() {
                    return Err("bare '--' is not a valid flag".into());
                }
                if let Some((k, v)) = stripped.split_once('=') {
                    out.options.insert(k.to_string(), v.to_string());
                } else {
                    // Peek: value or next flag?
                    match iter.peek() {
                        Some(next) if !next.starts_with("--") => {
                            let v = iter.next().expect("peeked");
                            out.options.insert(stripped.to_string(), v);
                        }
                        _ => {
                            out.options.insert(stripped.to_string(), "true".into());
                        }
                    }
                }
            } else if out.command.is_none() {
                out.command = Some(tok);
            } else if out.action.is_none() {
                out.action = Some(tok);
            } else {
                return Err(format!("unexpected positional argument '{tok}'"));
            }
        }
        Ok(out)
    }

    /// Raw string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// String option with a default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or(default).to_string()
    }

    /// Typed option with a default; errors name the flag.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.parse_opt(key)?.unwrap_or(default))
    }

    /// [`Self::parse_or`] for a count that must be at least 1, so a zero
    /// fails here ("--KEY must be a positive WHAT") instead of panicking
    /// or averaging an empty sample further down.
    pub fn positive_or<T>(&self, key: &str, default: T, what: &str) -> Result<T, String>
    where
        T: std::str::FromStr + PartialEq + From<u8>,
    {
        let v = self.parse_or(key, default)?;
        if v == T::from(0) {
            return Err(format!("--{key} must be a positive {what}"));
        }
        Ok(v)
    }

    /// Typed option, `None` when absent; errors name the flag.
    pub fn parse_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("--{key}: cannot parse '{v}'"))
            })
            .transpose()
    }

    /// Boolean flag (present without value, or an explicit true/false).
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true") | Some("1") | Some("yes"))
    }

    /// Radius option accepting an integer or `inf`.
    pub fn radius(&self, key: &str) -> Result<Option<u32>, String> {
        match self.get(key) {
            None | Some("inf") | Some("none") => Ok(None),
            Some(v) => v
                .parse::<u32>()
                .map(Some)
                .map_err(|_| format!("--{key}: expected an integer or 'inf', got '{v}'")),
        }
    }

    /// Error naming every option outside `known`.
    pub fn check_keys(&self, known: &[&str]) -> Result<(), String> {
        let unknown = self.unknown_keys(known);
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(format!("unknown option(s): {unknown:?} (see 'paba help')"))
        }
    }

    /// All unknown keys given a set of known ones (for helpful errors).
    pub fn unknown_keys<'a>(&'a self, known: &[&str]) -> Vec<&'a str> {
        self.options
            .keys()
            .map(String::as_str)
            .filter(|k| !known.contains(k))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn subcommand_and_options() {
        let a = parse("simulate --side 45 --files=500 --strategy two-choice");
        assert_eq!(a.command.as_deref(), Some("simulate"));
        assert_eq!(a.get("side"), Some("45"));
        assert_eq!(a.get("files"), Some("500"));
        assert_eq!(a.get("strategy"), Some("two-choice"));
    }

    #[test]
    fn boolean_flags() {
        let a = parse("simulate --csv --side 10");
        assert!(a.flag("csv"));
        assert!(!a.flag("quiet"));
        assert_eq!(a.get("side"), Some("10"));
    }

    #[test]
    fn trailing_flag_is_boolean() {
        let a = parse("queue --verbose");
        assert!(a.flag("verbose"));
    }

    #[test]
    fn typed_access_with_defaults() {
        let a = parse("x --m 7");
        assert_eq!(a.parse_or("m", 1u32).unwrap(), 7);
        assert_eq!(a.parse_or("k", 100u32).unwrap(), 100);
        assert!(a.parse_or("m", 0.0f64).is_ok());
    }

    #[test]
    fn optional_typed_access() {
        let a = parse("x --m 7");
        assert_eq!(a.parse_opt::<u32>("m").unwrap(), Some(7));
        assert_eq!(a.parse_opt::<u32>("k").unwrap(), None);
        assert!(parse("x --m seven").parse_opt::<u32>("m").is_err());
    }

    #[test]
    fn typed_access_errors_name_flag() {
        let a = parse("x --m seven");
        let err = a.parse_or("m", 1u32).unwrap_err();
        assert!(err.contains("--m"), "{err}");
    }

    #[test]
    fn radius_parsing() {
        assert_eq!(parse("x --radius 8").radius("radius").unwrap(), Some(8));
        assert_eq!(parse("x --radius inf").radius("radius").unwrap(), None);
        assert_eq!(parse("x").radius("radius").unwrap(), None);
        assert!(parse("x --radius big").radius("radius").is_err());
    }

    #[test]
    fn second_positional_is_the_action() {
        let a = parse("workload generate --out t.trace");
        assert_eq!(a.command.as_deref(), Some("workload"));
        assert_eq!(a.action.as_deref(), Some("generate"));
        assert_eq!(a.get("out"), Some("t.trace"));
    }

    #[test]
    fn rejects_extra_positionals() {
        assert!(Args::parse(["a".into(), "b".into(), "c".into()]).is_err());
    }

    #[test]
    fn unknown_keys_reported() {
        let a = parse("x --side 4 --typo 9");
        assert_eq!(a.unknown_keys(&["side"]), vec!["typo"]);
    }

    #[test]
    fn equals_syntax() {
        let a = parse("x --gamma=1.5");
        assert_eq!(a.parse_or("gamma", 0.0).unwrap(), 1.5);
    }
}
