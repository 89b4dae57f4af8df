//! The workspace's one argv parser. A command declares each flag once, in
//! a table of [`Flag`]s; [`Flags::parse`] rejects names missing from it
//! and fills every absent flag with its default, and [`Command::help`]
//! renders it, so the code, the defaults and the help cannot drift apart.
//! [`write_stdout`] is the one way every binary prints.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Write as _};
use std::str::FromStr;

/// One flag a command accepts: its name without the leading `--`, its
/// default (empty for none) and one line of help.
pub type Flag = (&'static str, &'static str, &'static str);

/// A command: its name, a one-line summary and its flag table.
pub struct Command {
    /// The name the command is invoked by.
    pub name: &'static str,
    /// One line saying what the command does.
    pub about: &'static str,
    /// Every flag the command accepts.
    pub flags: &'static [Flag],
}

impl Command {
    /// The command's help: its name and summary, then one line per flag
    /// with its default.
    pub fn help(&self) -> String {
        let mut out = format!("    {:<13} {}\n", self.name, self.about);
        for &(name, default, help) in self.flags {
            let default = if default.is_empty() { "none" } else { default };
            out += &format!("      --{name:<15} {help} (default {default})\n");
        }
        out
    }
}

/// Parsed `--key value` flags: every flag of the command's table, given
/// or defaulted.
#[derive(Debug)]
pub struct Flags {
    values: BTreeMap<&'static str, String>,
}

impl Flags {
    /// Parses `--key value` pairs against `command`'s flag table. Rejects
    /// positional arguments, dangling, repeated and undeclared flags; the
    /// last with the command's help.
    pub fn parse(args: &[String], command: &Command) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let flag = arg
                .strip_prefix("--")
                .and_then(|key| command.flags.iter().find(|f| f.0 == key));
            let Some(&(name, ..)) = flag else {
                return Err(format!(
                    "unexpected `{arg}`; {} takes:\n{}",
                    command.name,
                    command.help()
                ));
            };
            let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
            if values.insert(name, value.clone()).is_some() {
                return Err(format!("{arg} given twice"));
            }
        }
        for &(name, default, _) in command.flags {
            values.entry(name).or_insert_with(|| default.to_string());
        }
        Ok(Flags { values })
    }

    /// A flag's value as given, or its default.
    ///
    /// # Panics
    ///
    /// When `key` is not in the command's table: a bug in the command.
    pub fn str(&self, key: &str) -> &str {
        self.values
            .get(key)
            .unwrap_or_else(|| panic!("flag --{key} is not in the command's table"))
    }

    /// A flag's value parsed as a number.
    pub fn num<T: FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.str(key);
        v.parse()
            .map_err(|_| format!("invalid value for --{key}: `{v}`"))
    }

    /// A rate, size or duration the code divides by or sums: positive and
    /// finite, or an error.
    pub fn positive(&self, key: &str) -> Result<f64, String> {
        positive(key, self.str(key))
    }

    /// A comma list of positive, finite numbers.
    pub fn positive_list(&self, key: &str) -> Result<Vec<f64>, String> {
        self.list(key).map(|v| positive(key, v)).collect()
    }

    /// A comma list, trimmed; empty entries are skipped.
    pub fn list(&self, key: &str) -> impl Iterator<Item = &str> {
        self.str(key)
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
    }
}

/// Writes `text` to stdout. A reader that has closed the pipe early (`|
/// head -1`) is not an error: the text is dropped and the caller carries
/// on. Any other write error is returned.
pub fn write_stdout(text: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("cannot write to stdout: {e}")),
        _ => Ok(()),
    }
}

fn positive(key: &str, v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err(format!("--{key} must be positive and finite, got `{v}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST: Command = Command {
        name: "test",
        about: "a command for the tests",
        flags: &[
            ("algo", "chameleon", "repair algorithm"),
            ("clients", "0", "foreground clients"),
            ("gbps", "10", "link bandwidth in Gb/s"),
            ("throughput", "10,50", "MB/s list"),
            ("faults", "", "scheduled faults"),
        ],
    };

    fn parse(s: &[&str]) -> Result<Flags, String> {
        let args: Vec<String> = s.iter().map(|x| x.to_string()).collect();
        Flags::parse(&args, &TEST)
    }

    #[test]
    fn given_flags_win_and_absent_ones_take_the_table_default() {
        let f = parse(&["--algo", "cr", "--clients", "4"]).unwrap();
        assert_eq!(f.str("algo"), "cr");
        assert_eq!(f.num::<usize>("clients").unwrap(), 4);
        assert_eq!(f.positive("gbps").unwrap(), 10.0);
        assert_eq!(f.str("faults"), "");
        assert_eq!(f.list("faults").count(), 0);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            &["positional"][..],
            &["--algo"],
            &["--algo", "cr", "--algo", "ppr"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        let err = parse(&["--bad", "x"]).unwrap_err();
        assert!(err.contains("`--bad`") && err.contains("--faults"), "{err}");
    }

    #[test]
    fn positive_flags_reject_zero_negative_and_non_finite() {
        for bad in ["0", "-1", "nan", "inf", "x"] {
            let f = parse(&["--gbps", bad, "--throughput", &format!("50,{bad}")]).unwrap();
            assert!(f.positive("gbps").is_err(), "--gbps {bad}");
            assert!(f.positive_list("throughput").is_err(), "--throughput {bad}");
        }
        let f = parse(&["--gbps", "2.5", "--throughput", "50, 100,500"]).unwrap();
        assert_eq!(f.positive("gbps").unwrap(), 2.5);
        assert_eq!(
            f.positive_list("throughput").unwrap(),
            vec![50.0, 100.0, 500.0]
        );
    }
}
