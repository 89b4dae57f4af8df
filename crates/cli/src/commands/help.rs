//! The `help` subcommand: usage rendered from every subcommand's flag
//! table.

use chameleon_bench::AlgoKind;

/// The usage text.
pub fn text() -> String {
    let commands: String = super::ALL.iter().map(|(c, _)| c.help() + "\n").collect();
    format!(
        "chameleonec — low-interference erasure-coded repair (HPCA 2025 reproduction)\n\n\
         USAGE:\n    chameleonec <COMMAND> [--flag value]...\n\n\
         COMMANDS:\n{commands}    help          This message\n\n\
         ALGORITHMS (--algo, --algos):\n    {}\n",
        AlgoKind::NAMED.map(|(name, _)| name).join(" | ")
    )
}

#[cfg(test)]
mod tests {
    use chameleon_bench::flags::Flags;

    use super::*;

    /// Every flag a subcommand accepts is in its help, with the default
    /// the command reads when the flag is absent.
    #[test]
    fn help_names_every_flag_with_the_default_the_code_uses() {
        let help = text();
        for (command, _) in &super::super::ALL {
            let section = help
                .split("\n\n")
                .find(|s| s.contains(&format!("    {:<13} {}\n", command.name, command.about)))
                .unwrap_or_else(|| panic!("{} missing from\n{help}", command.name));
            let defaults = Flags::parse(&[], command).unwrap();
            for &(name, _, help) in command.flags {
                let default = match defaults.str(name) {
                    "" => "none",
                    d => d,
                };
                let line = format!("--{name:<15} {help} (default {default})");
                assert!(section.contains(&line), "{}: {line}", command.name);
            }
        }
    }
}
