//! `lab fuzz` — differential fuzzing driver: proves ADORE preserves
//! program semantics (see `crates/oracle` and DESIGN.md §"Differential
//! oracle").
//!
//! Both modes are one call to [`oracle::run_campaign`] — the three-way
//! oracle (reference interpreter, plain machine, ADORE machine) on
//! snapshot-reset machines — and write one `results/fuzz.json` report:
//!
//! * **classic** (default): a single round of `--cases` freshly
//!   generated seeded programs with no corpus directory, each checked
//!   once;
//! * **campaign** (`--campaign`): the coverage-guided engine over
//!   `--rounds` rounds — corpus scheduling, bundle-level mutation and
//!   a persistent minimized corpus directory.
//!
//! Either way, any architectural divergence fails the run (exit 1);
//! mismatching cases (and mismatching candidates met while minimizing
//! a corpus entry) are shrunk and written to `tests/corpus/`, where
//! the `corpus_replay` test re-checks them on every `cargo test`.
//!
//! `--pass=NAME` restricts the ADORE leg to a pipeline with that single
//! pass active (see `adore::PassKind` for names) — a targeted probe
//! that any pass alone, run against an otherwise empty pipeline, still
//! preserves semantics.
//!
//! The campaign corpus directory resolves from `--campaign-dir=`, then
//! the `ADORE_CAMPAIGN_DIR` environment variable, then
//! `corpus/campaign/` under the workspace root.

use std::path::PathBuf;
use std::time::Instant;

use obs::{Json, Report};
use oracle::{run_campaign, CampaignConfig, DiffConfig};

use crate::cli::{Cli, Registry};
use crate::lab::workspace_path;

pub(crate) fn registry() -> Registry {
    Registry::new("fuzz", "differential fuzzing of ADORE semantics (classic or campaign)")
        .uint("cases", None, "classic mode: case count (default: 512, or 128 with --quick)")
        .uint("seed", Some("1"), "base RNG seed")
        .value(
            "exec-path",
            Some("fast"),
            format!(
                "simulator execution path: {}; campaign mode alternates \
                 fast/threaded per case when unset",
                sim::ExecPath::VALUE_LIST
            ),
        )
        .value("pass", None, "restrict the ADORE leg to this single pipeline pass")
        .value(
            "policy",
            None,
            "force the adaptive policy controller: on | off (default: alternate by seed)",
        )
        .flag("campaign", "run the coverage-guided campaign instead of classic mode")
        .uint("rounds", None, "campaign: mutation rounds")
        .uint("batch", None, "campaign: cases per round")
        .uint("minimize-evals", None, "campaign: minimizer budget per admitted corpus entry")
        .value("campaign-dir", None, "campaign: corpus directory (env ADORE_CAMPAIGN_DIR)")
        .flag("progress", "per-case progress on stderr")
}

/// Simulator execution path selected by `--exec-path=...` (any of
/// [`sim::ExecPath::VALUE_LIST`]). `None` when the flag is absent:
/// classic mode then runs the fast path, campaign mode alternates
/// fast/threaded per case seed.
fn exec_path_flag(cli: &Cli) -> Option<sim::ExecPath> {
    cli.flag_value("exec-path").map(|v| {
        v.parse().unwrap_or_else(|e: String| {
            eprintln!("fuzz: {e}");
            std::process::exit(2);
        })
    })
}

/// `--policy=on|off` controller override for the ADORE leg; absent
/// keeps the oracle's seed-derived alternation.
fn policy_flag(cli: &Cli) -> Option<bool> {
    cli.flag_value("policy").map(|v| match v {
        "on" => true,
        "off" => false,
        other => {
            eprintln!("fuzz: --policy: expected on|off, got {other:?}");
            std::process::exit(2);
        }
    })
}

/// `--pass=NAME` pipeline restriction for the ADORE leg.
fn only_pass_flag(cli: &Cli) -> Option<adore::PassKind> {
    cli.flag_value("pass").map(|name| {
        name.parse().unwrap_or_else(|e: String| {
            eprintln!("fuzz: --pass: {e}");
            std::process::exit(2);
        })
    })
}

/// `tests/corpus/` (mismatch reproducers), overridable with
/// `ADORE_CORPUS_DIR`.
fn corpus_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("ADORE_CORPUS_DIR") {
        return PathBuf::from(dir);
    }
    workspace_path("tests/corpus")
}

/// Writes a shrunk mismatching spec as a reproducer under
/// `tests/corpus/`, returning the file path and shrunk size.
fn write_reproducer(spec: &oracle::ProgSpec, case_seed: u64) -> (PathBuf, usize) {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    let file = dir.join(format!("fuzz_{case_seed:016x}.txt"));
    std::fs::write(&file, oracle::serialize_repro(spec)).expect("write reproducer");
    (file, spec.items.len())
}

/// Builds the campaign both modes run and writes the one report.
pub(crate) fn run(cli: Cli) {
    let campaign = cli.flag("campaign");
    let exec_path = exec_path_flag(&cli);
    let only_pass = only_pass_flag(&cli);
    let policy = policy_flag(&cli);
    let defaults = CampaignConfig::default();
    let diff = DiffConfig {
        exec_path: exec_path.unwrap_or(sim::ExecPath::Fast),
        pipeline: only_pass.map(adore::PipelineConfig::only),
        policy,
        ..DiffConfig::default()
    };
    let cfg = if campaign {
        let campaign_dir = cli
            .flag_value("campaign-dir")
            .map(PathBuf::from)
            .or_else(|| std::env::var_os("ADORE_CAMPAIGN_DIR").map(PathBuf::from))
            .unwrap_or_else(|| workspace_path("corpus/campaign"));
        CampaignConfig {
            rounds: cli.flag_uint("rounds").unwrap_or(defaults.rounds as u64) as usize,
            batch: cli.flag_uint("batch").unwrap_or(defaults.batch as u64) as usize,
            // An explicit --exec-path pins every case to that tier;
            // leaving it unset alternates fast/threaded by case seed so
            // one run exercises both the cycle-exact loop and the
            // compile tier.
            alternate_exec: exec_path.is_none(),
            corpus_dir: Some(campaign_dir),
            minimize_evals: cli
                .flag_uint("minimize-evals")
                .unwrap_or(defaults.minimize_evals as u64) as usize,
            ..defaults
        }
    } else {
        // Classic: with an empty corpus at round start every planned
        // case is freshly generated, so one round is N independent
        // seeded cases.
        let cases = cli.flag_uint("cases").unwrap_or(if cli.flag("quick") { 128 } else { 512 });
        CampaignConfig { rounds: 1, batch: cases as usize, minimize_evals: 0, ..defaults }
    };
    let cfg = CampaignConfig {
        seed: cli.flag_uint("seed").unwrap_or(1),
        jobs: cli.jobs.max(1),
        diff,
        progress: cli.flag("progress"),
        ..cfg
    };
    let mode = if campaign { "campaign" } else { "fuzz" };
    let path_label =
        if cfg.alternate_exec { "alternate".to_string() } else { cfg.diff.exec_path.to_string() };

    let started = Instant::now();
    let stats = run_campaign(&cfg);
    let wall = started.elapsed();

    for (seed, reason) in &stats.non_verdicts {
        eprintln!("[fuzz] seed {seed:#x} {reason}");
    }
    let mut mismatch_rows = Json::array();
    for m in &stats.mismatches {
        let (file, shrunk_items) = write_reproducer(&m.spec, m.case_seed);
        eprintln!(
            "[fuzz] MISMATCH seed {:#x}{} at {}: {} — reproducer {}",
            m.case_seed,
            if m.minimizing { " (minimizer candidate)" } else { "" },
            m.stage,
            m.detail,
            file.display()
        );
        mismatch_rows.push(
            Json::object()
                .with("seed", m.case_seed)
                .with("minimizing", m.minimizing)
                .with("stage", m.stage)
                .with("detail", m.detail.as_str())
                .with("shrunk_items", shrunk_items as u64)
                .with("corpus_file", file.display().to_string()),
        );
    }

    let mut outcome_obj = Json::object();
    for (label, count) in &stats.outcomes {
        outcome_obj.set(label, *count);
    }
    let mut coverage_obj = Json::object();
    for (name, count) in stats.features.fields() {
        coverage_obj.set(name, count);
    }

    let mismatches = stats.mismatches.len() as u64;
    let mut report = Report::new("fuzz");
    report.set("args", cli.report_args.clone());
    report.set("mode", mode);
    report.set("seed", cfg.seed);
    report.set("exec_path", path_label.clone());
    report.set("only_pass", only_pass.map(|k| k.name().to_string()));
    report.set("policy", policy.map(|on| if on { "on" } else { "off" }.to_string()));
    report.set("cases", stats.cases);
    report.set("mismatches", mismatches);
    report.set("inconclusive", stats.inconclusive);
    report.set("undecided", stats.undecided);
    report.set("outcomes", outcome_obj);
    report.set("coverage", coverage_obj);
    if campaign {
        report.set("campaign", campaign_section(&stats, &cfg));
    }
    report.set("cases_with_patches", stats.cases_with_patches);
    report.set("traces_patched_total", stats.traces_patched_total);
    report.set("mismatch_details", mismatch_rows);
    report.save().expect("write results/fuzz.json");

    // Machine build/reset counters are per-worker and therefore
    // jobs-dependent: stderr only, never in the report.
    eprintln!(
        "[fuzz] {mode} wall {:.2}s, machines built {} / reset {}",
        wall.as_secs_f64(),
        stats.machine_builds,
        stats.machine_resets
    );
    println!(
        "fuzz[{path_label}] {mode}: {} cases over {} rounds, {mismatches} mismatches, \
         {} inconclusive, {} undecided, {} cases patched ({} traces), corpus +{} (now {}), \
         {} coverage keys",
        stats.cases,
        stats.rounds,
        stats.inconclusive,
        stats.undecided,
        stats.cases_with_patches,
        stats.traces_patched_total,
        stats.corpus_added,
        stats.corpus.len(),
        stats.coverage.len()
    );
    for (label, count) in &stats.outcomes {
        println!("  {label}: {count}");
    }
    if mismatches > 0 {
        eprintln!("[fuzz] FAIL: {mismatches} semantic mismatches (reproducers in tests/corpus/)");
        std::process::exit(1);
    }
}

/// The report's `campaign` section: corpus, coverage-key and
/// provenance ledgers.
fn campaign_section(stats: &oracle::CampaignStats, cfg: &CampaignConfig) -> Json {
    let mut hits_obj = Json::object();
    for (key, count) in &stats.coverage {
        hits_obj.set(key, *count);
    }
    let mut mutations_obj = Json::object();
    for (op, count) in &stats.mutations {
        mutations_obj.set(op, *count);
    }
    let mut origins_obj = Json::object();
    for (origin, count) in &stats.origins {
        origins_obj.set(origin, *count);
    }
    let l = &stats.minimizer;
    let minimizer = Json::object()
        .with("candidates", l.candidates)
        .with("before_legs", l.before_legs)
        .with("after_reference", l.after_reference)
        .with("after_adore", l.after_adore)
        .with("full_check", l.full_check)
        .with("kept", l.kept);
    Json::object()
        .with("rounds", stats.rounds as u64)
        .with("batch", cfg.batch as u64)
        .with("corpus_imported", stats.corpus_imported)
        .with("corpus_added", stats.corpus_added)
        .with("corpus_len", stats.corpus.len() as u64)
        .with("new_key_events", stats.new_key_events)
        .with("coverage_keys", stats.coverage.len() as u64)
        .with("coverage_hits", hits_obj)
        .with("mutations", mutations_obj)
        .with("origins", origins_obj)
        .with("minimizer", minimizer)
}
