//! The `lab` multiplexed front-end: one binary, one subcommand per
//! experiment.
//!
//! Every former `crates/bench/src/bin/*.rs` binary is now a thin
//! module here — an [`crate::cli::Registry`] declaring its flag
//! surface plus a `run(Cli)` that builds an
//! [`crate::ExperimentSpec`] (or drives the fuzzer / the resident
//! [`serve`] loop) — and [`SUBCOMMANDS`] is the single registry the
//! dispatcher, the generated help and the flag round-trip test all
//! share.
//!
//! ```text
//! lab <command> [picks ...] [--flags ...]
//! lab help | lab --help      # list subcommands
//! lab <command> --help       # per-command flag table
//! ```

pub mod ablation;
pub mod breakdown;
pub mod explain;
pub mod families;
pub mod fig10;
pub mod fig11;
pub mod fig7;
pub mod fig8_9;
pub mod fuzz;
pub mod objdump;
pub mod policy;
pub mod serve;
pub mod table1;
pub mod table2;

use crate::cli::{Cli, Registry};

/// One `lab` subcommand: its flag registry (which also carries the
/// subcommand's name and summary) and its entry point.
pub struct Subcommand {
    /// Constructs the subcommand's flag registry.
    pub registry: fn() -> Registry,
    /// Runs the subcommand with its parsed command line.
    pub run: fn(Cli),
}

/// Every subcommand, in `lab help` display order.
pub const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand { registry: fig7::registry, run: fig7::run },
    Subcommand { registry: fig8_9::registry, run: fig8_9::run },
    Subcommand { registry: fig10::registry, run: fig10::run },
    Subcommand { registry: fig11::registry, run: fig11::run },
    Subcommand { registry: table1::registry, run: table1::run },
    Subcommand { registry: table2::registry, run: table2::run },
    Subcommand { registry: families::registry, run: families::run },
    Subcommand { registry: breakdown::registry, run: breakdown::run },
    Subcommand { registry: ablation::registry, run: ablation::run },
    Subcommand { registry: policy::registry, run: policy::run },
    Subcommand { registry: explain::registry, run: explain::run },
    Subcommand { registry: objdump::registry, run: objdump::run },
    Subcommand { registry: fuzz::registry, run: fuzz::run },
    Subcommand { registry: serve::registry, run: serve::run },
];

/// Looks up a subcommand by name, returning it with its registry.
pub fn find(name: &str) -> Option<(&'static Subcommand, Registry)> {
    SUBCOMMANDS.iter().map(|s| (s, (s.registry)())).find(|(_, r)| r.command() == name)
}

/// The `lab help` text: one row per subcommand.
pub fn overview() -> String {
    let mut out = String::from(
        "lab — ADORE experiment service front-end\n\nusage: lab <command> [picks ...] [--flags ...]\n\ncommands:\n",
    );
    let registries: Vec<Registry> = SUBCOMMANDS.iter().map(|s| (s.registry)()).collect();
    let width = registries.iter().map(|r| r.command().len()).max().unwrap_or(0);
    for r in &registries {
        out.push_str(&format!("  {:<width$}  {}\n", r.command(), r.about()));
    }
    out.push_str("\nrun `lab <command> --help` for a command's flag table\n");
    out
}

/// The `lab` binary entry point: dispatches argv[1] to its subcommand.
pub fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = if args.is_empty() { "help".to_string() } else { args.remove(0) };
    match cmd.as_str() {
        "help" | "--help" | "-h" => print!("{}", overview()),
        name => match find(name) {
            Some((sub, registry)) => (sub.run)(registry.parse(args)),
            None => {
                eprintln!("error: unknown command `{name}`\n\n{}", overview());
                std::process::exit(2);
            }
        },
    }
}

/// `rel` under the workspace root (the directory holding `Cargo.lock`),
/// falling back to a relative path when no root is found.
pub(crate) fn workspace_path(rel: &str) -> std::path::PathBuf {
    if let Ok(mut at) = std::env::current_dir() {
        loop {
            if at.join("Cargo.lock").is_file() {
                return at.join(rel);
            }
            if !at.pop() {
                break;
            }
        }
    }
    std::path::PathBuf::from(rel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subcommand_names_are_unique_and_resolvable() {
        let names: Vec<&str> = SUBCOMMANDS.iter().map(|s| (s.registry)().command()).collect();
        for (i, name) in names.iter().enumerate() {
            assert!(find(name).is_some());
            assert!(!names[..i].contains(name), "duplicate subcommand {name}");
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn overview_lists_every_subcommand() {
        let o = overview();
        for s in SUBCOMMANDS {
            let r = (s.registry)();
            assert!(o.contains(r.command()), "overview must mention {}", r.command());
            assert!(o.contains(r.about()), "overview must show {}'s summary", r.command());
        }
    }

    /// The satellite guarantee: every flag of every subcommand
    /// round-trips through its registry — parse a synthesized
    /// occurrence, read it back, find it recorded.
    #[test]
    fn every_subcommand_flag_round_trips() {
        for s in SUBCOMMANDS {
            crate::cli::tests::assert_registry_round_trips(&(s.registry)());
        }
    }

    /// Generated help must render every registered flag of every
    /// subcommand.
    #[test]
    fn every_subcommand_help_lists_its_flags() {
        for s in SUBCOMMANDS {
            let r = (s.registry)();
            let h = r.help_text();
            for f in r.defs() {
                assert!(
                    h.contains(&format!("--{}", f.name)),
                    "lab {} --help must mention --{}",
                    r.command(),
                    f.name
                );
            }
        }
    }
}
