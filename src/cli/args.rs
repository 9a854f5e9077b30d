//! The one argument parser every subcommand shares.
//!
//! Each subcommand declares the flags it accepts; anything else that looks
//! like a flag, a repeated flag, a flag missing its value, or a value that
//! does not parse is an error naming the flag. Nothing falls back silently.

use std::str::FromStr;

/// A subcommand's arguments, split by its declared flags.
#[derive(Debug)]
pub struct Flags {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    /// The arguments that are not flags, in order.
    pub positional: Vec<String>,
}

impl Flags {
    /// Splits `args`: each of `valued` takes the next argument as its value,
    /// each of `switches` stands alone, and any other argument starting
    /// with `--` is rejected.
    pub fn parse(
        args: Vec<String>,
        valued: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Flags, String> {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if let Some(&flag) = valued.iter().find(|f| **f == arg) {
                let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
                if flags.value(flag).is_some() {
                    return Err(format!("{flag} given twice"));
                }
                flags.values.push((flag, value));
            } else if let Some(&flag) = switches.iter().find(|f| **f == arg) {
                if flags.switch(flag) {
                    return Err(format!("{flag} given twice"));
                }
                flags.switches.push(flag);
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag {arg:?}"));
            } else {
                flags.positional.push(arg);
            }
        }
        Ok(flags)
    }

    /// The value of `flag`, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `flag`, which must be given.
    pub fn required(&self, flag: &str) -> Result<&str, String> {
        self.value(flag).ok_or_else(|| format!("missing {flag}"))
    }

    /// The value of `flag` parsed as `T`, if given.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{flag}: invalid value {v:?}"))
            })
            .transpose()
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// Rejects positional arguments, for subcommands that take none.
    pub fn no_positional(&self) -> Result<(), String> {
        match self.positional.first() {
            Some(arg) => Err(format!("unexpected argument {arg:?}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        let args = args.iter().map(|s| s.to_string()).collect();
        Flags::parse(args, &["--out", "--count"], &["--quick"])
    }

    #[test]
    fn splits_values_switches_and_positionals() {
        let flags = parse(&["a.txt", "--out", "x", "--quick", "b.txt"]).unwrap();
        assert_eq!(flags.value("--out"), Some("x"));
        assert!(flags.switch("--quick"));
        assert_eq!(flags.positional, ["a.txt", "b.txt"]);
        assert_eq!(flags.parsed::<usize>("--count"), Ok(None));
        assert!(flags.required("--count").unwrap_err().contains("--count"));
    }

    #[test]
    fn malformed_arguments_are_errors_naming_the_flag() {
        for (args, flag) in [
            (&["--bogus"][..], "--bogus"),
            (&["--out"][..], "--out"),
            (&["--out", "a", "--out", "b"][..], "--out"),
            (&["--quick", "--quick"][..], "--quick"),
        ] {
            assert!(parse(args).unwrap_err().contains(flag), "{args:?}");
        }
        let flags = parse(&["--count", "five"]).unwrap();
        assert!(flags
            .parsed::<usize>("--count")
            .unwrap_err()
            .contains("--count"));
        assert!(parse(&["x"]).unwrap().no_positional().is_err());
    }
}
