//! The one command-line parser of the four binaries (`bench`,
//! `perfdiff`, `shufflebench`, `diag`). A binary takes what it knows out
//! of [`Args`] — flags, flag values, positionals — and calls
//! [`Args::finish`]; whatever is left, and every value that does not
//! parse, is an error, which [`or_usage`] turns into the usage line and
//! exit status 2. Nothing falls back to a default silently.

use std::str::FromStr;

use rshuffle::ShuffleAlgorithm;

use crate::workload::{Pattern, Transport};

/// The arguments not yet taken.
pub struct Args(pub(crate) Vec<String>);

impl Args {
    /// The process's arguments, program name dropped.
    pub fn from_env() -> Self {
        Args(std::env::args().skip(1).collect())
    }

    /// Takes `flag` if it is present.
    pub fn flag(&mut self, flag: &str) -> bool {
        let at = self.0.iter().position(|a| a == flag);
        at.map(|i| self.0.remove(i)).is_some()
    }

    /// Takes `flag VALUE` if it is present and parses the value.
    pub fn option<T>(
        &mut self,
        flag: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let Some(i) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if self.0.get(i + 1).is_none_or(|v| v.starts_with("--")) {
            return Err(format!("{flag} needs a value"));
        }
        let value = self.0.remove(i + 1);
        self.0.remove(i);
        parse(&value)
            .map(Some)
            .ok_or_else(|| format!("{flag}: cannot use {value:?}"))
    }

    /// Takes and parses the next positional argument, if there is one.
    /// Call after the flags have been taken: a dash-led word found here is
    /// a flag nobody knew.
    pub fn positional<T>(
        &mut self,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.0.first() {
            None => Ok(None),
            Some(a) if a.starts_with('-') => Err(format!("unknown flag {a:?}")),
            Some(_) => {
                let value = self.0.remove(0);
                parse(&value)
                    .map(Some)
                    .ok_or_else(|| format!("{what}: cannot use {value:?}"))
            }
        }
    }

    /// Everything a binary knows has been taken; anything left is an error.
    pub fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(a) if a.starts_with('-') => Err(format!("unknown flag {a:?}")),
            Some(a) => Err(format!("unexpected argument {a:?}")),
        }
    }
}

/// Any `FromStr` value: numbers, paths.
pub fn value<T: FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

/// One of the eight designs by name, or `mpi` / `ipoib` (the libraries
/// are built on SEMQ/SR).
pub fn transport(s: &str) -> Option<(Transport, ShuffleAlgorithm)> {
    match s.to_ascii_lowercase().as_str() {
        "mpi" => Some((Transport::Mpi, ShuffleAlgorithm::SEMQ_SR)),
        "ipoib" => Some((Transport::Ipoib, ShuffleAlgorithm::SEMQ_SR)),
        other => ShuffleAlgorithm::parse(other).map(|a| (Transport::Rdma, a)),
    }
}

/// `repartition` or `broadcast`.
pub fn pattern(s: &str) -> Option<Pattern> {
    match s {
        "repartition" => Some(Pattern::Repartition),
        "broadcast" => Some(Pattern::Broadcast),
        _ => None,
    }
}

/// Unwraps a parse result, or prints the error and `usage` and exits
/// with status 2.
pub fn or_usage<T>(result: Result<T, String>, usage: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {usage}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Args {
        Args(words.iter().map(|w| w.to_string()).collect())
    }

    #[test]
    fn known_arguments_are_taken_in_any_order() {
        let mut a = args(&["MEMQ_RD", "--emit", "out.json", "4", "--smoke"]);
        assert!(a.flag("--smoke"));
        assert_eq!(
            a.option("--emit", value::<String>),
            Ok(Some("out.json".to_string()))
        );
        assert_eq!(
            a.positional("algorithm", transport),
            Ok(Some((Transport::Rdma, ShuffleAlgorithm::MEMQ_RD)))
        );
        assert_eq!(a.positional("nodes", value::<usize>), Ok(Some(4)));
        assert_eq!(a.positional("nodes", value::<usize>), Ok(None));
        assert_eq!(a.finish(), Ok(()));
    }

    #[test]
    fn unknown_flags_and_bad_values_are_errors() {
        let mut a = args(&["--smok"]);
        assert!(!a.flag("--smoke"));
        assert!(a.finish().unwrap_err().contains("unknown flag"));
        // A misspelt flag is not read as a positional either.
        assert!(args(&["--smok"]).positional("id", value::<String>).is_err());
        assert!(args(&["x"])
            .finish()
            .unwrap_err()
            .contains("unexpected argument"));
        assert!(args(&["--nodes", "many"])
            .option("--nodes", value::<usize>)
            .is_err());
        assert!(args(&["--nodes"])
            .option("--nodes", value::<usize>)
            .is_err());
        assert!(args(&["--emit", "--smoke"])
            .option("--emit", value::<String>)
            .is_err());
        assert!(args(&["NOPE"]).positional("algorithm", transport).is_err());
        assert!(args(&["eight"])
            .positional("nodes", value::<usize>)
            .is_err());
    }
}
