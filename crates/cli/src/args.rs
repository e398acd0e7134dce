//! A small `--flag value` argument parser — hand-rolled so the workspace
//! keeps its zero-runtime-dependency policy.

use std::collections::BTreeMap;
use std::fmt;

/// Error from parsing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseArgsError {}

/// A parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    options: BTreeMap<String, String>,
}

impl Args {
    /// Parses `argv` (without the program name).
    ///
    /// A flag followed by another flag (or by the end of the line) is a
    /// valueless *switch* (`--breakdown`), stored with an empty value
    /// and visible through [`Args::has`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] when no subcommand is present or a
    /// positional argument trails the flags.
    pub fn parse<I, S>(argv: I) -> Result<Args, ParseArgsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = argv.into_iter().map(Into::into).peekable();
        let command = iter
            .next()
            .ok_or_else(|| ParseArgsError("missing subcommand; try 'help'".to_string()))?;
        if command.starts_with("--") {
            return Err(ParseArgsError(format!(
                "expected a subcommand before '{command}'"
            )));
        }
        let mut options = BTreeMap::new();
        while let Some(token) = iter.next() {
            let key = token
                .strip_prefix("--")
                .ok_or_else(|| ParseArgsError(format!("unexpected positional argument '{token}'")))?
                .to_string();
            let value = match iter.peek() {
                Some(next) if !next.starts_with("--") => iter.next().expect("just peeked"),
                _ => String::new(),
            };
            options.insert(key, value);
        }
        Ok(Args { command, options })
    }

    /// Fetches a flag's raw value: empty for a switch.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// True if the flag was present at all — with or without a value.
    /// This is how valueless switches (`--breakdown`) are read.
    pub fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// Every flag given, as `(name, raw value)` in name order.
    pub(crate) fn flags(&self) -> impl Iterator<Item = (&str, &str)> {
        self.options.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_subcommand_and_flags() {
        let args = Args::parse(["sweep", "--max-vms", "20", "--seed", "7"]).expect("parses");
        assert_eq!(args.command, "sweep");
        assert_eq!(args.get_str("max-vms"), Some("20"));
        assert_eq!(args.get_str("seed"), Some("7"));
        assert_eq!(args.get_str("missing"), None);
        assert_eq!(
            args.flags().collect::<Vec<_>>(),
            [("max-vms", "20"), ("seed", "7")]
        );
    }

    #[test]
    fn rejects_missing_subcommand() {
        assert!(Args::parse(Vec::<String>::new()).is_err());
        assert!(Args::parse(["--flag", "v"]).is_err());
    }

    #[test]
    fn dangling_flag_is_a_switch_but_not_a_value() {
        let args = Args::parse(["cmd", "--seed"]).expect("parses as switch");
        assert!(args.has("seed"));
        assert_eq!(args.get_str("seed"), Some(""));
    }

    #[test]
    fn switches_mix_with_valued_flags() {
        let args = Args::parse(["analyze", "--breakdown", "--seed", "7", "--csv"]).expect("parses");
        assert!(args.has("breakdown"));
        assert!(args.has("csv"));
        assert!(!args.has("perfetto"));
        assert_eq!(args.get_str("seed"), Some("7"));
        assert_eq!(args.get_str("breakdown"), Some(""));
    }

    #[test]
    fn rejects_positional_after_command() {
        assert!(Args::parse(["cmd", "stray"]).is_err());
    }

    #[test]
    fn get_str_round_trips() {
        let args = Args::parse(["cmd", "--policy", "least-loaded"]).expect("parses");
        assert_eq!(args.get_str("policy"), Some("least-loaded"));
        assert_eq!(args.get_str("other"), None);
    }
}
