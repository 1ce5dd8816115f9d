//! Declarative command-line parsing for every `lab` subcommand.
//!
//! Each subcommand declares its surface as a [`Registry`] — a list of
//! typed [`FlagDef`]s (name, kind, default, help) on top of the shared
//! base flags — and parsing, validation, `--help` generation and
//! report-argument recording all derive from that one declaration.
//! Every subcommand accepts the same base surface:
//!
//! ```text
//! lab <command> [picks ...] [--quick] [--jobs N] [--<flag> ...]
//! ```
//!
//! * positional *picks* select a subset (a part, a workload list);
//! * `--quick` switches to the reduced workload scale;
//! * `--jobs N` (or the `ADORE_JOBS` environment variable) sets the
//!   engine worker count; the default is the machine's available
//!   parallelism. An invalid count is a hard error, never a silent
//!   fallback;
//! * `--help` prints the generated flag table and exits.
//!
//! Unregistered `--flags` are rejected (typo detection — the old
//! stringly parser silently accepted anything). `--jobs` is
//! deliberately stripped from [`Cli::report_args`]: the JSON report
//! must be byte-identical for any worker count, so the recorded
//! argument list cannot mention it.

use crate::{FULL_SCALE, QUICK_SCALE};

/// The type of value a registered flag carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagKind {
    /// Presence-only (`--quick`).
    Bool,
    /// An unsigned integer (`--rounds=40`).
    UInt,
    /// A free-form string (`--pass=trace_select`).
    Str,
}

/// One declared flag: everything the parser, the validator and the
/// generated `--help` need to know about it.
#[derive(Debug, Clone)]
pub struct FlagDef {
    /// Flag name without the leading `--`.
    pub name: &'static str,
    /// Value type.
    pub kind: FlagKind,
    /// Default rendered in `--help` (`None` for "unset").
    pub default: Option<&'static str>,
    /// One-line help text. Owned so registries can interpolate value
    /// lists that live elsewhere (e.g. `sim::ExecPath::VALUE_LIST`)
    /// instead of hand-copying them into string literals that drift.
    pub help: String,
    /// Whether the flag may repeat (`--disable-pass=a --disable-pass=b`).
    pub repeatable: bool,
}

/// A subcommand's declared command-line surface.
#[derive(Debug, Clone)]
pub struct Registry {
    command: &'static str,
    about: &'static str,
    picks_help: Option<&'static str>,
    flags: Vec<FlagDef>,
}

impl Registry {
    /// A registry for `lab <command>` pre-seeded with the shared base
    /// flags (`--quick`, `--jobs`, `--help`).
    pub fn new(command: &'static str, about: &'static str) -> Registry {
        Registry { command, about, picks_help: None, flags: Vec::new() }
            .flag("quick", "use the reduced workload scale")
            .uint("jobs", None, "engine worker count (env ADORE_JOBS; default: available cores)")
            .flag("help", "print this help and exit")
    }

    /// Documents what the positional picks select.
    pub fn picks(mut self, help: &'static str) -> Registry {
        self.picks_help = Some(help);
        self
    }

    /// Registers a presence-only flag.
    pub fn flag(mut self, name: &'static str, help: impl Into<String>) -> Registry {
        self.flags.push(FlagDef {
            name,
            kind: FlagKind::Bool,
            default: None,
            help: help.into(),
            repeatable: false,
        });
        self
    }

    /// Registers an unsigned-integer flag.
    pub fn uint(
        mut self,
        name: &'static str,
        default: Option<&'static str>,
        help: impl Into<String>,
    ) -> Registry {
        self.flags.push(FlagDef {
            name,
            kind: FlagKind::UInt,
            default,
            help: help.into(),
            repeatable: false,
        });
        self
    }

    /// Registers a string-valued flag.
    pub fn value(
        mut self,
        name: &'static str,
        default: Option<&'static str>,
        help: impl Into<String>,
    ) -> Registry {
        self.flags.push(FlagDef {
            name,
            kind: FlagKind::Str,
            default,
            help: help.into(),
            repeatable: false,
        });
        self
    }

    /// Registers a repeatable string-valued flag.
    pub fn repeated(mut self, name: &'static str, help: impl Into<String>) -> Registry {
        self.flags.push(FlagDef {
            name,
            kind: FlagKind::Str,
            default: None,
            help: help.into(),
            repeatable: true,
        });
        self
    }

    /// The declared flags, base flags included.
    pub fn defs(&self) -> &[FlagDef] {
        &self.flags
    }

    /// The subcommand this registry describes.
    pub fn command(&self) -> &'static str {
        self.command
    }

    /// The subcommand's one-line summary (`lab help`, `--help`).
    pub fn about(&self) -> &'static str {
        self.about
    }

    /// Generated help text: usage line, pick description, one row per
    /// registered flag with its default.
    pub fn help_text(&self) -> String {
        let mut out = format!("lab {} — {}\n\n", self.command, self.about);
        out.push_str(&format!("usage: lab {} [picks ...] [--flag ...]\n", self.command));
        if let Some(p) = self.picks_help {
            out.push_str(&format!("\npicks: {p}\n"));
        }
        out.push_str("\nflags:\n");
        let rows: Vec<(String, String)> = self
            .flags
            .iter()
            .map(|f| {
                let lhs = match f.kind {
                    FlagKind::Bool => format!("--{}", f.name),
                    FlagKind::UInt => format!("--{} N", f.name),
                    FlagKind::Str => format!("--{}=V", f.name),
                };
                let mut rhs = f.help.to_string();
                if let Some(d) = f.default {
                    rhs.push_str(&format!(" (default: {d})"));
                }
                if f.repeatable {
                    rhs.push_str(" (repeatable)");
                }
                (lhs, rhs)
            })
            .collect();
        let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        for (lhs, rhs) in rows {
            out.push_str(&format!("  {lhs:<width$}  {rhs}\n"));
        }
        out
    }

    fn def(&self, name: &str) -> Option<&FlagDef> {
        self.flags.iter().find(|f| f.name == name)
    }

    /// Parses `args` (argv with the program and subcommand names
    /// already stripped), handling `--help` (print and exit 0) and
    /// errors (print and exit 2).
    pub fn parse(&self, args: Vec<String>) -> Cli {
        match self.try_parse_from(args, std::env::var("ADORE_JOBS").ok()) {
            Ok(cli) if cli.flag("help") => {
                print!("{}", self.help_text());
                std::process::exit(0);
            }
            Ok(cli) => cli,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("run `lab {} --help` for the flag table", self.command);
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list and `ADORE_JOBS` value.
    ///
    /// Worker-count resolution: `--jobs` wins over `ADORE_JOBS`, which
    /// wins over the machine's available parallelism. An **empty** (or
    /// whitespace-only) `ADORE_JOBS` is treated as unset — the
    /// documented fallback for `ADORE_JOBS= cmd`-style invocations.
    /// Any other value that is not a positive integer is an error, as
    /// is any invalid `--jobs` argument; nothing falls back silently.
    pub fn try_parse_from(
        &self,
        args: Vec<String>,
        env_jobs: Option<String>,
    ) -> Result<Cli, String> {
        let mut jobs: Option<usize> = None;
        let mut picks = Vec::new();
        let mut values: Vec<(String, Option<String>)> = Vec::new();
        let mut report_args = Vec::new();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let Some(body) = a.strip_prefix("--") else {
                picks.push(a.clone());
                report_args.push(a);
                continue;
            };
            let (name, inline) = match body.split_once('=') {
                Some((n, v)) => (n.to_string(), Some(v.to_string())),
                None => (body.to_string(), None),
            };
            let def = self.def(&name).ok_or_else(|| {
                format!("unknown flag --{name} (see `lab {} --help`)", self.command)
            })?;
            let value = match def.kind {
                FlagKind::Bool => {
                    if inline.is_some() {
                        return Err(format!("--{name} does not take a value"));
                    }
                    None
                }
                FlagKind::UInt | FlagKind::Str => {
                    let v = match inline {
                        Some(v) => v,
                        None => it.next().ok_or_else(|| format!("--{name}: missing value"))?,
                    };
                    if def.kind == FlagKind::UInt && name != "jobs" {
                        v.trim().parse::<u64>().map_err(|_| {
                            format!("--{name}: invalid value {v:?} (expected an unsigned integer)")
                        })?;
                    }
                    Some(v)
                }
            };
            if !def.repeatable && values.iter().any(|(n, _)| *n == name) {
                return Err(format!("--{name} given more than once"));
            }
            if name == "jobs" {
                // Validated and resolved here; stripped from the
                // recorded arguments so the report stays byte-identical
                // for any worker count.
                jobs = Some(parse_jobs("--jobs", value.as_deref().unwrap_or(""))?);
                continue;
            }
            match &value {
                Some(v) => report_args.push(format!("--{name}={v}")),
                None => report_args.push(format!("--{name}")),
            }
            values.push((name, value));
        }
        if jobs.is_none() {
            if let Some(env) = env_jobs.filter(|v| !v.trim().is_empty()) {
                jobs = Some(parse_jobs("ADORE_JOBS", &env)?);
            }
        }
        let jobs = jobs
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
        let scale = if values.iter().any(|(n, _)| n == "quick") { QUICK_SCALE } else { FULL_SCALE };
        Ok(Cli { scale, jobs, picks, values, report_args })
    }
}

/// Parsed command line shared by all `lab` subcommands.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Workload scale derived from `--quick`.
    pub scale: f64,
    /// Engine worker count (`--jobs` > `ADORE_JOBS` > available cores).
    pub jobs: usize,
    /// Positional (non-flag) arguments, in order.
    pub picks: Vec<String>,
    /// Parsed flags in argument order: `(name, value)` with the value
    /// `None` for presence-only flags. `--jobs` never appears here.
    pub values: Vec<(String, Option<String>)>,
    /// Arguments as recorded in the report: everything except `--jobs`,
    /// which must not influence report bytes. Valued flags normalize to
    /// `--name=value` regardless of which spelling was typed.
    pub report_args: Vec<String>,
}

/// Strips an optional leading `--` so accessors take either spelling.
fn norm(name: &str) -> &str {
    name.strip_prefix("--").unwrap_or(name)
}

impl Cli {
    /// A `Cli` with explicit scale and jobs and nothing else — the
    /// entry point for tests that drive [`crate::ExperimentSpec`]
    /// directly without a registry.
    pub fn fixed(scale: f64, jobs: usize) -> Cli {
        Cli { scale, jobs, picks: Vec::new(), values: Vec::new(), report_args: Vec::new() }
    }

    /// True when `--<name>` was passed (with or without the dashes).
    pub fn flag(&self, name: &str) -> bool {
        let name = norm(name);
        self.values.iter().any(|(n, _)| n == name)
    }

    /// First positional argument, if any.
    pub fn pick(&self) -> Option<&str> {
        self.picks.first().map(String::as_str)
    }

    /// Values of every `--<name>=VALUE` occurrence, in order.
    pub fn flag_values<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a str> + 'a {
        let name = norm(name).to_string();
        self.values.iter().filter_map(move |(n, v)| if *n == name { v.as_deref() } else { None })
    }

    /// Value of the first `--<name>=VALUE` occurrence, if any.
    pub fn flag_value(&self, name: &str) -> Option<&str> {
        self.flag_values(name).next()
    }

    /// Value of `--<name>` parsed as an unsigned integer (validated at
    /// parse time for registered `UInt` flags).
    pub fn flag_uint(&self, name: &str) -> Option<u64> {
        self.flag_value(name).and_then(|v| v.trim().parse().ok())
    }
}

/// Parses a worker count that has already been determined to be
/// user-supplied: only a positive integer is acceptable.
fn parse_jobs(source: &str, value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        Ok(_) => Err(format!("{source}: worker count must be at least 1, got {value:?}")),
        Err(_) => {
            Err(format!("{source}: invalid worker count {value:?} (expected a positive integer)"))
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn reg() -> Registry {
        Registry::new("test", "unit surface")
            .flag("csv", "emit CSV")
            .value("pass", None, "run one pass")
            .repeated("disable-pass", "drop a pass")
            .uint("rounds", Some("40"), "round count")
    }

    fn parse(args: &[&str]) -> Cli {
        reg().try_parse_from(v(args), None).expect("valid args")
    }

    #[test]
    fn jobs_is_parsed_and_stripped_from_report_args() {
        let c = parse(&["a", "--quick", "--jobs", "4"]);
        assert_eq!(c.jobs, 4);
        assert_eq!(c.scale, QUICK_SCALE);
        assert_eq!(c.picks, vec!["a"]);
        assert_eq!(c.report_args, v(&["a", "--quick"]));

        let c = parse(&["--jobs=2", "mcf"]);
        assert_eq!(c.jobs, 2);
        assert_eq!(c.report_args, v(&["mcf"]));
    }

    #[test]
    fn flag_values_parse_assignments_and_two_token_forms() {
        let c = parse(&[
            "--disable-pass=phase_gate",
            "--disable-pass",
            "reopt_gate",
            "--pass=trace_select",
        ]);
        let d: Vec<&str> = c.flag_values("disable-pass").collect();
        assert_eq!(d, vec!["phase_gate", "reopt_gate"]);
        assert_eq!(c.flag_value("pass"), Some("trace_select"));
        assert_eq!(c.flag_value("--pass"), Some("trace_select"), "accessors take either spelling");
        assert_eq!(c.flag_value("missing"), None);
        // report_args normalizes to --name=value.
        assert!(c.report_args.contains(&"--disable-pass=reopt_gate".to_string()));
    }

    #[test]
    fn unknown_and_malformed_flags_are_rejected() {
        assert!(reg().try_parse_from(v(&["--tyop"]), None).unwrap_err().contains("unknown flag"));
        assert!(reg().try_parse_from(v(&["--csv=1"]), None).unwrap_err().contains("does not take"));
        assert!(reg().try_parse_from(v(&["--pass"]), None).unwrap_err().contains("missing value"));
        assert!(reg().try_parse_from(v(&["--rounds=abc"]), None).unwrap_err().contains("unsigned"));
        assert!(reg()
            .try_parse_from(v(&["--pass=a", "--pass=b"]), None)
            .unwrap_err()
            .contains("more than once"));
    }

    #[test]
    fn invalid_jobs_arguments_are_hard_errors() {
        // Before this was typed, every one of these silently fell back
        // to the machine's core count.
        for bad in [
            v(&["--jobs", "0"]),
            v(&["--jobs=0"]),
            v(&["--jobs", "abc"]),
            v(&["--jobs=abc"]),
            v(&["--jobs="]),
            v(&["--jobs", "-2"]),
            v(&["--jobs"]), // missing value
        ] {
            let err = reg()
                .try_parse_from(bad.clone(), None)
                .expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.starts_with("--jobs"), "error must name the flag: {err}");
        }
    }

    #[test]
    fn adore_jobs_env_is_validated_with_empty_meaning_unset() {
        // A set-but-invalid ADORE_JOBS is a hard error...
        for bad in ["0", "abc", "-1", "1.5"] {
            let err = reg()
                .try_parse_from(v(&[]), Some(bad.to_string()))
                .expect_err(&format!("ADORE_JOBS={bad:?} must be rejected"));
            assert!(err.starts_with("ADORE_JOBS"), "error must name the variable: {err}");
        }
        // ...but empty/whitespace means unset (the `ADORE_JOBS= cmd`
        // idiom), falling back to available parallelism.
        for unset in ["", "   "] {
            let c =
                reg().try_parse_from(v(&[]), Some(unset.to_string())).expect("empty env is unset");
            assert!(c.jobs >= 1);
        }
        // A valid value is used, and --jobs still wins over it.
        let c = reg().try_parse_from(v(&[]), Some("3".to_string())).unwrap();
        assert_eq!(c.jobs, 3);
        let c = reg().try_parse_from(v(&["--jobs", "2"]), Some("3".to_string())).unwrap();
        assert_eq!(c.jobs, 2);
    }

    #[test]
    fn defaults_without_flags() {
        let c = parse(&[]);
        assert_eq!(c.scale, FULL_SCALE);
        assert!(c.jobs >= 1);
        assert!(c.pick().is_none());
        assert!(!c.flag("--csv"));
    }

    #[test]
    fn help_text_lists_every_flag_with_defaults() {
        let h = reg().help_text();
        for f in reg().defs() {
            assert!(h.contains(&format!("--{}", f.name)), "help must mention --{}: \n{h}", f.name);
        }
        assert!(h.contains("(default: 40)"), "uint default rendered: \n{h}");
        assert!(h.contains("(repeatable)"), "repeatable marker rendered: \n{h}");
    }

    /// Every registered flag round-trips through the parser: feed a
    /// synthesized occurrence, read it back through the accessors, and
    /// find it in `report_args` (except `jobs`/`help`, which are
    /// stripped or terminal by design). The `lab` registry test runs
    /// this same check over every real subcommand surface.
    #[test]
    fn every_registered_flag_round_trips() {
        assert_registry_round_trips(&reg());
    }

    /// Shared with the `lab` module's per-subcommand test.
    pub(crate) fn assert_registry_round_trips(r: &Registry) {
        for f in r.defs() {
            if f.name == "help" {
                continue;
            }
            let (token, want): (String, Option<&str>) = match f.kind {
                FlagKind::Bool => (format!("--{}", f.name), None),
                FlagKind::UInt => (format!("--{}=7", f.name), Some("7")),
                FlagKind::Str => (format!("--{}=probe", f.name), Some("probe")),
            };
            let c = r
                .try_parse_from(vec![token.clone()], None)
                .unwrap_or_else(|e| panic!("--{} failed to parse its own synthesis: {e}", f.name));
            if f.name == "jobs" {
                assert_eq!(c.jobs, 7, "--jobs value must be honored");
                assert!(c.report_args.is_empty(), "--jobs must be stripped from report args");
                continue;
            }
            assert!(c.flag(f.name), "--{} must register as present", f.name);
            assert_eq!(c.flag_value(f.name), want, "--{} value must round-trip", f.name);
            assert_eq!(
                c.report_args,
                vec![token],
                "--{} must be recorded in normalized form",
                f.name
            );
        }
    }
}
