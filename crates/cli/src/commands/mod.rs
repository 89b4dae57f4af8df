//! Subcommand implementations, each with its flag table. A body returns
//! its report; `main` writes it.

use chameleon_bench::flags::{Command, Flags};

pub mod help;
pub mod orchestrate;
pub mod plan;
pub mod reliability;
pub mod repair;
pub mod sweep;
pub mod trace_cmd;
pub mod traces;

/// A subcommand's body: its report, given its parsed flags.
type Body = fn(&Flags) -> Result<String, String>;

/// Every subcommand but `help`, in the order `help` lists them.
pub const ALL: [(&Command, Body); 7] = [
    (&repair::COMMAND, repair::run),
    (&orchestrate::COMMAND, orchestrate::run),
    (&sweep::COMMAND, sweep::run),
    (&plan::COMMAND, plan::run),
    (&trace_cmd::COMMAND, trace_cmd::run),
    (&traces::COMMAND, traces::run),
    (&reliability::COMMAND, reliability::run),
];

/// Parses `args` against the named subcommand's flag table and runs it.
pub fn run(name: &str, args: &[String]) -> Result<String, String> {
    let (command, body) = ALL
        .iter()
        .find(|(command, _)| command.name == name)
        .ok_or_else(|| format!("unknown command `{name}`; try `chameleonec help`"))?;
    body(&Flags::parse(args, command)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flag of every subcommand, given a value no flag takes, is an
    /// error, never a panic or a run. Output paths take any string, so
    /// they are skipped.
    #[test]
    fn no_subcommand_panics_on_a_bad_value() {
        for (command, _) in &ALL {
            for &(name, ..) in command.flags {
                if matches!(name, "trace" | "ledger") {
                    continue;
                }
                for bad in ["nan", "inf", "-1", "x"] {
                    let args = [format!("--{name}"), bad.to_string()];
                    let result = std::panic::catch_unwind(|| run(command.name, &args));
                    let case = format!("{} --{name} {bad}", command.name);
                    assert!(result.expect(&case).is_err(), "{case} ran");
                }
            }
        }
        // Finite, positive, and still too many crashes to draw up front.
        for args in [["--duration", "1e300"], ["--mttf", "1e-300"]] {
            let args = args.map(String::from);
            let err = run("orchestrate", &args).expect_err("a crash stream that never ends");
            assert!(
                err.contains("--duration") && err.contains("--mttf"),
                "{err}"
            );
        }
    }
}
