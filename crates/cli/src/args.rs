//! Minimal flag parser — `--key value` pairs plus positionals, no
//! external dependencies.

use std::collections::BTreeMap;
use std::fmt;
use vapres_sim::time::{Ps, PS_PER_US};

/// A command-line parsing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed arguments: `--key value` options and bare positionals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    options: BTreeMap<String, String>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses a token list (without the program/subcommand names).
    ///
    /// # Errors
    ///
    /// [`ArgError`] when a `--flag` has no value or is given twice (a
    /// repeated flag would otherwise silently keep its last value).
    pub fn parse<I, S>(tokens: I) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = Args::default();
        let mut iter = tokens.into_iter().map(Into::into);
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let value = iter
                    .next()
                    .ok_or_else(|| ArgError(format!("--{key} needs a value")))?;
                if out.options.insert(key.to_string(), value).is_some() {
                    return Err(ArgError(format!("--{key} given more than once")));
                }
            } else {
                out.positionals.push(tok);
            }
        }
        Ok(out)
    }

    /// An option's raw value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// An option's value or a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A required option.
    ///
    /// # Errors
    ///
    /// [`ArgError`] when absent.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError(format!("missing required --{key}")))
    }

    /// A `yes`/`no` switch, `no` when absent.
    ///
    /// # Errors
    ///
    /// [`ArgError`] naming the flag on any other value, so `--stats true`
    /// fails instead of silently meaning no.
    pub fn flag(&self, key: &str) -> Result<bool, ArgError> {
        match self.get(key) {
            None | Some("no") => Ok(false),
            Some("yes") => Ok(true),
            Some(v) => Err(ArgError(format!("--{key}: expected yes or no, got {v:?}"))),
        }
    }

    /// A numeric option with default.
    ///
    /// # Errors
    ///
    /// [`ArgError`] on unparsable values.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key}: cannot parse {v:?}"))),
        }
    }

    /// A period in µs of simulated time: `None` when absent or 0 (off).
    ///
    /// # Errors
    ///
    /// [`ArgError`] naming the flag when unparsable or past the range of
    /// the picosecond clock.
    pub fn get_us(&self, key: &str) -> Result<Option<Ps>, ArgError> {
        let us = self.get_num(key, 0u64)?;
        let max = u64::MAX / PS_PER_US;
        let ps = us.checked_mul(PS_PER_US).ok_or_else(|| {
            ArgError(format!(
                "--{key}: {us} us overflows the picosecond clock (max {max} us)"
            ))
        })?;
        Ok((ps > 0).then_some(Ps::new(ps)))
    }

    /// The positional arguments.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Every `--key` the user passed, sorted — the subcommand dispatcher
    /// checks these against its known-option table so a typo'd flag is an
    /// error instead of a silent no-op.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.options.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_and_positionals() {
        let a = Args::parse(["--device", "lx25", "file.ucf", "--prrs", "640,640"]).unwrap();
        assert_eq!(a.get("device"), Some("lx25"));
        assert_eq!(a.get("prrs"), Some("640,640"));
        assert_eq!(a.positionals(), ["file.ucf"]);
        assert_eq!(a.get_or("missing", "d"), "d");
    }

    #[test]
    fn missing_value_errors() {
        assert!(Args::parse(["--device"]).is_err());
    }

    #[test]
    fn switches_take_only_yes_or_no_and_flags_only_once() {
        // (tokens, key, expected: Ok(value) or Err(substring naming the flag))
        let cases: &[(&[&str], &str, Result<bool, &str>)] = &[
            (&[], "stats", Ok(false)),
            (&["--stats", "yes"], "stats", Ok(true)),
            (&["--stats", "no"], "stats", Ok(false)),
            (
                &["--stats", "true"],
                "stats",
                Err("--stats: expected yes or no"),
            ),
            (&["--art", "1"], "art", Err("--art: expected yes or no")),
            (
                &["--cold", "YES"],
                "cold",
                Err("--cold: expected yes or no"),
            ),
            (
                &["--samples", "10", "--samples", "20"],
                "samples",
                Err("--samples given more than once"),
            ),
            (
                &["--a", "x", "pos", "--a", "x"],
                "a",
                Err("--a given more than once"),
            ),
        ];
        for (tokens, key, want) in cases {
            let got = Args::parse(tokens.iter().copied()).and_then(|a| a.flag(key));
            match (want, got) {
                (Ok(w), Ok(g)) => assert_eq!(*w, g, "{tokens:?}"),
                (Err(w), Err(e)) => assert!(e.0.contains(w), "{tokens:?}: {e}"),
                (w, g) => panic!("{tokens:?}: wanted {w:?}, got {g:?}"),
            }
        }
    }

    #[test]
    fn microsecond_flags_are_off_at_zero_and_reject_overflow() {
        let max = u64::MAX / PS_PER_US;
        // (value, expected: Ok(picoseconds or off) or Err(substring))
        let cases: Vec<(String, Result<Option<u64>, &str>)> = vec![
            ("0".into(), Ok(None)),
            ("1".into(), Ok(Some(1_000_000))),
            ("100".into(), Ok(Some(100_000_000))),
            (max.to_string(), Ok(Some(max * PS_PER_US))),
            (
                (max + 1).to_string(),
                Err("--sample-every: 18446744073710 us overflows"),
            ),
            (
                "18446744073709552".into(),
                Err("overflows the picosecond clock"),
            ),
            ("-1".into(), Err("--sample-every: cannot parse")),
            ("1.5".into(), Err("--sample-every: cannot parse")),
        ];
        for (value, want) in &cases {
            let got = Args::parse(["--sample-every", value.as_str()])
                .unwrap()
                .get_us("sample-every");
            match (want, got) {
                (Ok(w), Ok(g)) => assert_eq!(*w, g.map(Ps::as_ps), "{value}"),
                (Err(w), Err(e)) => assert!(e.0.contains(w), "{value}: {e}"),
                (w, g) => panic!("{value}: wanted {w:?}, got {g:?}"),
            }
        }
        assert_eq!(Args::default().get_us("sample-every"), Ok(None));
    }

    #[test]
    fn keys_lists_every_option_sorted() {
        let a = Args::parse(["--zeta", "1", "--alpha", "2", "pos"]).unwrap();
        assert_eq!(a.keys().collect::<Vec<_>>(), ["alpha", "zeta"]);
        assert_eq!(Args::default().keys().count(), 0);
    }

    #[test]
    fn require_and_numbers() {
        let a = Args::parse(["--n", "7"]).unwrap();
        assert_eq!(a.require("n").unwrap(), "7");
        assert!(a.require("m").is_err());
        assert_eq!(a.get_num("n", 0usize).unwrap(), 7);
        assert_eq!(a.get_num("m", 3usize).unwrap(), 3);
        let b = Args::parse(["--n", "x"]).unwrap();
        assert!(b.get_num::<usize>("n", 0).is_err());
    }
}
