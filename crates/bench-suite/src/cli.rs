//! The one command-line reader of the experiment binaries.
//!
//! Flags are `--name` switches or `--name VALUE` pairs, in any order. A
//! flag given without a value, or with a value that does not parse,
//! stops the binary with an error naming the flag, rather than falling
//! back to a default the caller did not ask for.

use std::str::FromStr;

/// The process's command-line arguments, program name excluded.
#[derive(Debug, Clone)]
pub struct Args(Vec<String>);

impl Args {
    /// The arguments this process was started with.
    pub fn from_env() -> Self {
        Args(std::env::args().skip(1).collect())
    }

    /// Whether the switch `flag` is present.
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    /// Every value given to the repeatable `flag`, in order; an error
    /// names the flag when an occurrence has no value after it.
    fn try_values(&self, flag: &str) -> Result<Vec<&str>, String> {
        let mut values = Vec::new();
        for (i, a) in self.0.iter().enumerate() {
            if a == flag {
                let v = self
                    .0
                    .get(i + 1)
                    .ok_or_else(|| format!("{flag} needs a value"))?;
                values.push(v.as_str());
            }
        }
        Ok(values)
    }

    /// The value of the first `flag` (`None` when absent); an error names
    /// the flag when no value follows it.
    fn try_value(&self, flag: &str) -> Result<Option<&str>, String> {
        Ok(self.try_values(flag)?.first().copied())
    }

    /// [`try_value`](Args::try_value) parsed as `T`; an error names the
    /// flag and the value that does not parse.
    fn try_parse<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.try_value(flag)?
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value `{v}` for {flag}"))
            })
            .transpose()
    }

    /// Every value of the repeatable `flag`; exits on a missing value.
    pub fn values(&self, flag: &str) -> Vec<&str> {
        self.try_values(flag).unwrap_or_else(|e| exit_with(&e))
    }

    /// The value of `flag`, if given; exits on a missing value.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.try_value(flag).unwrap_or_else(|e| exit_with(&e))
    }

    /// The value of `flag` parsed as `T`, if given; exits on a missing
    /// or malformed value.
    pub fn parse<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.try_parse(flag).unwrap_or_else(|e| exit_with(&e))
    }
}

/// Prints `error: msg` and exits with status 1.
fn exit_with(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Args {
        Args(list.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn values_parse_after_their_flag() {
        let args = argv(&["--sessions", "20", "--paper", "--out", "a", "--out", "b"]);
        assert!(args.has("--paper"));
        assert!(!args.has("--smoke"));
        assert_eq!(args.try_parse::<usize>("--sessions"), Ok(Some(20)));
        assert_eq!(args.try_parse::<usize>("--instances"), Ok(None));
        assert_eq!(args.try_value("--out"), Ok(Some("a")));
        assert_eq!(args.try_values("--out"), Ok(vec!["a", "b"]));
    }

    #[test]
    fn a_malformed_value_is_an_error_naming_the_flag() {
        let args = argv(&["--intensity", "1,0"]);
        assert_eq!(
            args.try_parse::<f64>("--intensity"),
            Err("invalid value `1,0` for --intensity".to_string())
        );
    }

    #[test]
    fn a_missing_value_is_an_error_naming_the_flag() {
        let args = argv(&["--trace-out", "t.jsonl", "--sessions"]);
        assert_eq!(
            args.try_parse::<usize>("--sessions"),
            Err("--sessions needs a value".to_string())
        );
        let args = argv(&["--trace-out"]);
        assert_eq!(
            args.try_values("--trace-out"),
            Err("--trace-out needs a value".to_string())
        );
    }
}
