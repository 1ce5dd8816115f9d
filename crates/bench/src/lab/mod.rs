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

/// One `lab` subcommand: its name, summary, declared flag surface and
/// entry point.
pub struct Subcommand {
    /// Subcommand name (`lab <name>`).
    pub name: &'static str,
    /// One-line summary shown by `lab help`.
    pub about: &'static str,
    /// Constructs the subcommand's flag registry.
    pub registry: fn() -> Registry,
    /// Runs the subcommand with its parsed command line.
    pub run: fn(Cli),
}

/// Every subcommand, in `lab help` display order.
pub const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand { name: "fig7", about: fig7::ABOUT, registry: fig7::registry, run: fig7::run },
    Subcommand {
        name: "fig8_9",
        about: fig8_9::ABOUT,
        registry: fig8_9::registry,
        run: fig8_9::run,
    },
    Subcommand { name: "fig10", about: fig10::ABOUT, registry: fig10::registry, run: fig10::run },
    Subcommand { name: "fig11", about: fig11::ABOUT, registry: fig11::registry, run: fig11::run },
    Subcommand {
        name: "table1",
        about: table1::ABOUT,
        registry: table1::registry,
        run: table1::run,
    },
    Subcommand {
        name: "table2",
        about: table2::ABOUT,
        registry: table2::registry,
        run: table2::run,
    },
    Subcommand {
        name: "families",
        about: families::ABOUT,
        registry: families::registry,
        run: families::run,
    },
    Subcommand {
        name: "breakdown",
        about: breakdown::ABOUT,
        registry: breakdown::registry,
        run: breakdown::run,
    },
    Subcommand {
        name: "ablation",
        about: ablation::ABOUT,
        registry: ablation::registry,
        run: ablation::run,
    },
    Subcommand {
        name: "policy",
        about: policy::ABOUT,
        registry: policy::registry,
        run: policy::run,
    },
    Subcommand {
        name: "explain",
        about: explain::ABOUT,
        registry: explain::registry,
        run: explain::run,
    },
    Subcommand {
        name: "objdump",
        about: objdump::ABOUT,
        registry: objdump::registry,
        run: objdump::run,
    },
    Subcommand { name: "fuzz", about: fuzz::ABOUT, registry: fuzz::registry, run: fuzz::run },
    Subcommand { name: "serve", about: serve::ABOUT, registry: serve::registry, run: serve::run },
];

/// Looks up a subcommand by name.
pub fn find(name: &str) -> Option<&'static Subcommand> {
    SUBCOMMANDS.iter().find(|s| s.name == name)
}

/// The `lab help` text: one row per subcommand.
pub fn overview() -> String {
    let mut out = String::from(
        "lab — ADORE experiment service front-end\n\nusage: lab <command> [picks ...] [--flags ...]\n\ncommands:\n",
    );
    let width = SUBCOMMANDS.iter().map(|s| s.name.len()).max().unwrap_or(0);
    for s in SUBCOMMANDS {
        out.push_str(&format!("  {:<width$}  {}\n", s.name, s.about));
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
            Some(sub) => {
                let cli = (sub.registry)().parse(args);
                (sub.run)(cli);
            }
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
        for (i, s) in SUBCOMMANDS.iter().enumerate() {
            assert!(find(s.name).is_some());
            assert!(
                !SUBCOMMANDS[..i].iter().any(|o| o.name == s.name),
                "duplicate subcommand {}",
                s.name
            );
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn overview_lists_every_subcommand() {
        let o = overview();
        for s in SUBCOMMANDS {
            assert!(o.contains(s.name), "overview must mention {}", s.name);
        }
    }

    /// The satellite guarantee: every flag of every subcommand
    /// round-trips through its registry — parse a synthesized
    /// occurrence, read it back, find it recorded.
    #[test]
    fn every_subcommand_flag_round_trips() {
        for s in SUBCOMMANDS {
            let r = (s.registry)();
            assert_eq!(r.command(), s.name, "registry/command name mismatch");
            crate::cli::tests::assert_registry_round_trips(&r);
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
                    s.name,
                    f.name
                );
            }
        }
    }
}
