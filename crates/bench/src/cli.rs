//! The one command-line parser every binary in the workspace uses.
//!
//! A binary gives [`Args`] its usage text and matches the flags it gets
//! back; the rules live here, once:
//!
//! - `--help` or `-h` prints the usage to stdout and exits 0;
//! - `--flag value` and `--flag=value` mean the same for every valued
//!   flag;
//! - an unknown flag, a missing value, an unparsable or out-of-range
//!   value, or a value given to a switch prints `error: <reason>` and the
//!   usage to stderr and exits 2.
//!
//! # Examples
//!
//! ```
//! use isosceles_bench::cli::Args;
//!
//! let (mut seed, mut smoke) = (0u64, false);
//! let mut args = Args::new("usage: demo [--seed N] [--smoke]", ["--seed=7", "--smoke"]);
//! args.try_each(|args, flag| {
//!     match flag {
//!         "--seed" => seed = args.parse("an integer", |_| true)?,
//!         "--smoke" => smoke = true,
//!         _ => return Ok(false),
//!     }
//!     Ok(true)
//! })
//! .unwrap();
//! assert_eq!((seed, smoke), (7, true));
//! ```

use std::process::exit;
use std::str::FromStr;

/// A binary's usage text and the arguments it has not read yet.
pub struct Args {
    usage: String,
    rest: std::vec::IntoIter<String>,
    /// The flag being handled, as named before any `=`.
    flag: String,
    /// The flag's `=value`, until [`value`](Self::value) takes it.
    inline: Option<String>,
}

impl Args {
    /// The process's arguments, program name skipped.
    pub fn from_env(usage: impl Into<String>) -> Self {
        Self::new(usage, std::env::args().skip(1))
    }

    /// `args` under `usage`.
    pub fn new<S: Into<String>>(
        usage: impl Into<String>,
        args: impl IntoIterator<Item = S>,
    ) -> Self {
        let rest: Vec<String> = args.into_iter().map(Into::into).collect();
        Self {
            usage: usage.into(),
            rest: rest.into_iter(),
            flag: String::new(),
            inline: None,
        }
    }

    /// Hands every argument in order to `handle`, which returns whether
    /// it knew it. A `--flag=value` arrives as `--flag`, its value held
    /// for [`value`](Self::value). `--help` or `-h` prints the usage to
    /// stdout and exits 0.
    ///
    /// # Errors
    ///
    /// The first error `handle` returns, an argument it did not know, or
    /// an `=value` it did not take (a switch given a value).
    pub fn try_each(
        &mut self,
        mut handle: impl FnMut(&mut Self, &str) -> Result<bool, String>,
    ) -> Result<(), String> {
        while let Some(arg) = self.rest.next() {
            if arg == "--help" || arg == "-h" {
                println!("{}", self.usage);
                exit(0);
            }
            (self.flag, self.inline) = match arg.split_once('=') {
                Some((flag, value)) if arg.starts_with("--") => {
                    (flag.to_string(), Some(value.to_string()))
                }
                _ => (arg, None),
            };
            let flag = self.flag.clone();
            if !handle(self, &flag)? {
                return Err(if flag.starts_with('-') {
                    format!("unknown flag {flag}")
                } else {
                    format!("unexpected argument {flag}")
                });
            }
            if self.inline.is_some() {
                return Err(format!("{flag} takes no value"));
            }
        }
        Ok(())
    }

    /// [`try_each`](Self::try_each), [failing](Self::fail) on its error.
    pub fn each(&mut self, handle: impl FnMut(&mut Self, &str) -> Result<bool, String>) {
        if let Err(e) = self.try_each(handle) {
            self.fail(&e);
        }
    }

    /// The value of the flag being handled: its `=value`, else the next
    /// argument.
    ///
    /// # Errors
    ///
    /// No value is left.
    pub fn value(&mut self) -> Result<String, String> {
        self.inline
            .take()
            .or_else(|| self.rest.next())
            .ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The flag's [`value`](Self::value) parsed as a `T` that `ok`
    /// accepts; see [`parse`].
    ///
    /// # Errors
    ///
    /// No value is left, or it does not parse or `ok` rejects it.
    pub fn parse<T: FromStr>(&mut self, needs: &str, ok: impl Fn(&T) -> bool) -> Result<T, String> {
        let text = self.value()?;
        parse(&self.flag, &text, needs, ok)
    }

    /// Prints `error: <error>` and the usage to stderr and exits 2.
    pub fn fail(&self, error: &str) -> ! {
        eprintln!("error: {error}");
        eprintln!("{}", self.usage);
        exit(2);
    }
}

/// Parses `text`, the value of the flag or environment variable `name`,
/// as a `T` that `ok` accepts.
///
/// # Errors
///
/// `"{name} needs {needs}, got {text:?}"` when it does not parse or `ok`
/// rejects it.
pub fn parse<T: FromStr>(
    name: &str,
    text: &str,
    needs: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, String> {
    checked(name, text, needs, text.parse().ok().filter(|v| ok(v)))
}

/// `value`, or the error [`parse`] gives when it is `None`.
///
/// # Errors
///
/// `value` is `None`.
pub fn checked<T>(name: &str, text: &str, needs: &str, value: Option<T>) -> Result<T, String> {
    value.ok_or_else(|| format!("{name} needs {needs}, got {text:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `args` through `try_each`, recording each flag with its value
    /// (`--net`, `--seed`) or none (`--smoke`, positionals).
    fn run(args: &[&str]) -> Result<Vec<(String, String)>, String> {
        let mut seen = Vec::new();
        Args::new("usage: t", args.iter().copied()).try_each(|args, flag| {
            let value = match flag {
                "--net" => args.value()?,
                "--seed" => args.parse::<u64>("an integer", |_| true)?.to_string(),
                "--smoke" => String::new(),
                _ if !flag.starts_with('-') => String::new(),
                _ => return Ok(false),
            };
            seen.push((flag.to_string(), value));
            Ok(true)
        })?;
        Ok(seen)
    }

    #[test]
    fn both_spellings_of_a_value_agree() {
        let pairs = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter().map(|&(f, x)| (f.into(), x.into())).collect()
        };
        let want = pairs(&[
            ("--net", "G58"),
            ("--seed", "3"),
            ("--smoke", ""),
            ("fig14", ""),
        ]);
        assert_eq!(
            run(&["--net", "G58", "--seed", "3", "--smoke", "fig14"]),
            Ok(want.clone())
        );
        assert_eq!(
            run(&["--net=G58", "--seed=3", "--smoke", "fig14"]),
            Ok(want)
        );
        // Only the first `=` splits, and an empty `=value` is a value.
        assert_eq!(run(&["--net=a=b"]), Ok(pairs(&[("--net", "a=b")])));
        assert_eq!(run(&["--net="]), Ok(pairs(&[("--net", "")])));
    }

    #[test]
    fn every_bad_input_is_an_error_naming_its_flag() {
        for (args, error) in [
            (&["--bogus"][..], "unknown flag --bogus"),
            (&["--bogus=1"], "unknown flag --bogus"),
            (&["-x"], "unknown flag -x"),
            (&["--net"], "--net needs a value"),
            (&["--seed", "abc"], "--seed needs an integer, got \"abc\""),
            (&["--seed="], "--seed needs an integer, got \"\""),
            (&["--smoke=1"], "--smoke takes no value"),
            (&["--smoke=", "--net", "G58"], "--smoke takes no value"),
        ] {
            assert_eq!(run(args), Err(error.to_string()), "{args:?}");
        }
    }

    #[test]
    fn parse_checks_the_range_and_names_the_source() {
        assert_eq!(
            parse("ISOS_THREADS", "4", "an integer >= 1", |&n: &usize| n >= 1),
            Ok(4)
        );
        assert_eq!(
            parse("ISOS_THREADS", "0", "an integer >= 1", |&n: &usize| n >= 1),
            Err("ISOS_THREADS needs an integer >= 1, got \"0\"".to_string())
        );
    }
}
