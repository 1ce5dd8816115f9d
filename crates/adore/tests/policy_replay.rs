//! Deterministic decision-replay tier for the adaptive policy
//! controller.
//!
//! Three workloads — one per source family (`server`, `graph`, and the
//! suite kernel `mcf`) — run under the controller on both simulator
//! execution paths. The per-phase decision log and the final committed
//! policies must be identical between [`ExecPath::Fast`] and
//! [`ExecPath::Reference`], and must match a checked-in blessed log:
//! any change to the controller's reward signal, trial protocol or the
//! passes feeding it fails loudly with the first diverging workload.
//!
//! To regenerate after an *intentional* controller change:
//!
//! ```text
//! ADORE_BLESS=1 cargo test --test policy_replay
//! ```

use adore::AdoreConfig;
use compiler::{compile, CompileOptions};
use obs::ToJson;
use sim::{ExecPath, MachineConfig, SamplingConfig};

/// One workload per family: request-serving, graph traversal, and the
/// pointer-chase suite kernel.
const WORKLOADS: [&str; 3] = ["server", "graph", "mcf"];

/// Large enough that phases stabilize, get optimized and re-optimized
/// (each re-optimization trials the next arm), small enough for a
/// debug-mode `cargo test`.
const SCALE: f64 = 0.2;

fn replay_config() -> AdoreConfig {
    let mut c = AdoreConfig::enabled();
    c.sampling = SamplingConfig {
        interval_cycles: 2_000,
        buffer_capacity: 200,
        per_sample_cost: 20,
        jitter: 0.3,
        ..Default::default()
    };
    c.policy.enable = true;
    c.policy.trial_windows = 2;
    c
}

/// The replayable decision surface of one run: every controller
/// decision in order, then the final committed arm per phase.
fn decision_lines(name: &str, path: ExecPath) -> Vec<String> {
    // Policy decisions are driven by sampled timing deltas, so the
    // blessed log is only meaningful on cycle-exact tiers; the
    // threaded tier's compressed cycle counts would skew every trial.
    assert!(path.is_cycle_exact(), "the decision log needs a cycle-exact path, got {path}");
    let w = workloads::by_name(name, SCALE).unwrap_or_else(|| panic!("unknown workload {name}"));
    let bin = compile(&w.kernel, &CompileOptions::o2()).unwrap_or_else(|e| panic!("{name}: {e}"));
    let config = replay_config();
    let mut mcfg = config.machine_config(MachineConfig::default());
    mcfg.exec_path = path;
    let mut m = w.prepare(&bin, mcfg);
    let report = adore::run(&mut m, &config);
    assert!(m.is_halted(), "{name} must halt on {path}");
    let mut lines: Vec<String> =
        report.policy.decisions.iter().map(|d| format!("{name} {}", d.to_json())).collect();
    for (phase, arm) in &report.policy.committed {
        lines.push(format!("{name} committed phase={phase} arm={arm}"));
    }
    lines
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("policy_replay.txt")
}

#[test]
fn decision_logs_replay_identically_and_match_the_blessed_log() {
    let mut observed: Vec<String> = Vec::new();
    for name in WORKLOADS {
        let fast = decision_lines(name, ExecPath::Fast);
        let reference = decision_lines(name, ExecPath::Reference);
        assert_eq!(
            fast, reference,
            "{name}: the decision log must replay identically on both exec paths"
        );
        observed.extend(fast);
    }
    // A log with no decisions pins nothing — the tier must actually
    // exercise trials and end in at least one committed policy.
    assert!(
        observed.iter().any(|l| l.contains("\"trial\"")),
        "no arm was ever trialed; the replay tier is vacuous: {observed:?}"
    );
    assert!(
        observed.iter().any(|l| l.contains(" committed ")),
        "no phase committed a final policy: {observed:?}"
    );

    let path = golden_path();
    if std::env::var_os("ADORE_BLESS").is_some() {
        let mut out = String::from(
            "# Blessed policy-controller decision logs (see tests/policy_replay.rs).\n\
             # Regenerate with: ADORE_BLESS=1 cargo test --test policy_replay\n",
        );
        for line in &observed {
            out.push_str(line);
            out.push('\n');
        }
        std::fs::write(&path, out).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        eprintln!("blessed {} ({} lines)", path.display(), observed.len());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\n(blessed log missing? bless it: ADORE_BLESS=1 \
             cargo test --test policy_replay)",
            path.display()
        )
    });
    let blessed: Vec<&str> =
        text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).collect();
    assert_eq!(
        blessed.len(),
        observed.len(),
        "decision count changed ({} blessed, {} observed); first observed: {:?}",
        blessed.len(),
        observed.len(),
        observed.first()
    );
    for (i, (want, got)) in blessed.iter().zip(&observed).enumerate() {
        assert_eq!(
            want,
            got,
            "decision {i} diverged from {} (re-bless after intentional controller changes)",
            path.display()
        );
    }
}
