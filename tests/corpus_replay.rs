//! Replays every reproducer in `tests/corpus/` through the three-way
//! differential oracle (reference interpreter, plain machine, ADORE
//! machine) as a permanent regression suite.
//!
//! Files land here when the `fuzz` binary finds a semantic mismatch:
//! it shrinks the case and writes it in the `adore-oracle-reproducer`
//! text format. Once the underlying bug is fixed, the reproducer stays
//! behind and must agree forever after. Hand-written cases pinning
//! known optimization shapes (indirect access, pointer chase) also
//! live here. Every file is replayed once per simulator [`ExecPath`],
//! so the corpus guards every execution tier — including the threaded
//! compile tier, whose architectural-state contract is exactly what
//! the three-way comparison checks. An empty (or absent) corpus passes
//! vacuously.
//!
//! Files whose name starts with `expect_inconclusive` pin the harness's
//! budget handling instead: replayed under a deliberately small cycle
//! cap, they must produce the typed [`CaseResult::Inconclusive`]
//! non-verdict — never a mismatch, and never silent agreement. This is
//! the regression fence for the bug where a capped simulator leg was
//! compared as if it had finished, reporting a bogus divergence.

use oracle::{check, check_case, parse_repro, CaseResult, CaseRunner, DiffConfig};
use sim::ExecPath;

#[test]
fn corpus_replays_without_mismatch() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("corpus");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return; // no corpus yet — vacuously green
    };
    let mut replayed = 0u32;
    for entry in entries {
        let path = entry.expect("read corpus dir").path();
        if path.extension().and_then(|e| e.to_str()) != Some("txt") {
            continue;
        }
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let spec = parse_repro(&text).unwrap_or_else(|e| panic!("{}: parse: {e}", path.display()));
        let expect_inconclusive = stem.starts_with("expect_inconclusive");
        // Budget-pinning entries stay on the cycle-exact paths: the
        // threaded tier compresses cycles (that is its purpose), so a
        // cap tuned to stall the timing model may let it finish.
        let exec_paths: &[ExecPath] = if expect_inconclusive {
            &[ExecPath::Fast, ExecPath::Reference]
        } else {
            &ExecPath::ALL
        };
        for &exec_path in exec_paths {
            let cfg = if expect_inconclusive {
                // Small enough that the program cannot finish, large
                // enough that a fault would have surfaced first.
                DiffConfig { exec_path, cycle_limit: 100_000, ..DiffConfig::default() }
            } else {
                DiffConfig { exec_path, ..DiffConfig::default() }
            };
            match check(&spec, &cfg) {
                CaseResult::Agree { outcome, traces_patched, .. } => {
                    if expect_inconclusive {
                        panic!(
                            "{} [{exec_path}]: agreed under the reduced cycle cap — the \
                             reproducer no longer exercises the budget path",
                            path.display()
                        );
                    }
                    eprintln!(
                        "{} [{exec_path}]: agree ({}, {traces_patched} traces patched)",
                        path.display(),
                        outcome.label()
                    );
                }
                CaseResult::Inconclusive { leg, why } => {
                    if !expect_inconclusive {
                        panic!(
                            "{} [{exec_path}]: {leg} leg ran out of budget ({why}) — corpus \
                             entries must finish under the default limits",
                            path.display()
                        );
                    }
                    eprintln!(
                        "{} [{exec_path}]: inconclusive as expected ({leg}: {why})",
                        path.display()
                    );
                }
                CaseResult::Undecided(why) => panic!(
                    "{} [{exec_path}]: no verdict (corpus entries must terminate): {why}",
                    path.display()
                ),
                CaseResult::Mismatch(m) => {
                    panic!(
                        "{} [{exec_path}]: REGRESSION — {} run diverged: {}",
                        path.display(),
                        m.stage,
                        m.detail
                    )
                }
            }
        }
        replayed += 1;
    }
    eprintln!("replayed {replayed} corpus reproducer(s) on every exec path");
}

/// The threaded-deopt reproducer pins the compile tier's
/// patch-boundary deopt protocol end to end: under
/// `ExecPath::Threaded` the hot sweep loop gets compiled to threaded
/// code (`tier:compiled`), ADORE patches it mid-run — which bumps the
/// code-store generation and invalidates the region (`tier:deopt`) —
/// and the final architectural state still agrees with the reference
/// interpreter. On the cycle-exact default path the same case must
/// report no tier compiles at all.
#[test]
fn threaded_deopt_reproducer_compiles_and_deopts() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
        .join("threaded_deopt_hot_loop.txt");
    let text = std::fs::read_to_string(&path).expect("read threaded-deopt reproducer");
    let spec = parse_repro(&text).expect("parse threaded-deopt reproducer");
    let cfg = DiffConfig { exec_path: ExecPath::Threaded, ..DiffConfig::default() };
    let (result, cov) = check_case(&spec, &cfg, &mut CaseRunner::new());
    match result {
        CaseResult::Agree { traces_patched, .. } => {
            assert!(traces_patched >= 1, "the sweep loop was never patched, so nothing can deopt");
            assert!(
                cov.keys.iter().any(|k| k == "tier:compiled"),
                "the hot loop never reached the compile tier; coverage: {:?}",
                cov.keys
            );
            assert!(
                cov.keys.iter().any(|k| k == "tier:deopt"),
                "the live patch never invalidated a compiled region; coverage: {:?}",
                cov.keys
            );
        }
        other => panic!("expected agreement, got {other:?}"),
    }

    let (fast_result, fast_cov) = check_case(&spec, &DiffConfig::default(), &mut CaseRunner::new());
    assert!(matches!(fast_result, CaseResult::Agree { .. }), "got {fast_result:?}");
    assert!(
        fast_cov.keys.iter().all(|k| k != "tier:compiled" && k != "tier:deopt"),
        "cycle-exact paths must never compile: {:?}",
        fast_cov.keys
    );
}

/// The jump-pointer reproducer must not just *agree* — it pins the
/// dependence-based scheduling arm end to end: the chase loop's
/// payload load classifies as `Pattern::JumpPointer`, a jump prefetch
/// is actually planted (the `prefetch:jump` runtime-coverage key), and
/// the patched code stays bit-identical to the reference — on both
/// simulator execution paths.
#[test]
fn jump_pointer_reproducer_plants_a_jump_prefetch() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
        .join("jump_pointer_hot_loop.txt");
    let text = std::fs::read_to_string(&path).expect("read jump-pointer reproducer");
    let spec = parse_repro(&text).expect("parse jump-pointer reproducer");
    assert_ne!(spec.seed % 4, 2, "this seed residue disables jump scheduling in the fuzz config");
    for exec_path in [ExecPath::Fast, ExecPath::Reference] {
        let cfg = DiffConfig { exec_path, ..DiffConfig::default() };
        let (result, cov) = check_case(&spec, &cfg, &mut CaseRunner::new());
        match result {
            CaseResult::Agree { traces_patched, .. } => {
                assert!(traces_patched >= 1, "[{exec_path}] the chase loop was never patched");
                assert!(
                    cov.keys.iter().any(|k| k == "prefetch:jump"),
                    "[{exec_path}] no jump prefetch was scheduled; coverage: {:?}",
                    cov.keys
                );
            }
            other => panic!("[{exec_path}] expected agreement, got {other:?}"),
        }
    }
}

/// The policy-switch reproducer pins the adaptive controller's
/// trial/commit protocol end to end: its seed residue turns the policy
/// controller on in the fuzz ADORE config, the striding hot loop gets
/// patched (which starts an arm trial), and the run must surface the
/// `policy:commit` runtime-coverage key — the committed per-phase
/// policy — on both simulator execution paths.
#[test]
fn policy_switch_reproducer_commits_a_policy() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
        .join("policy_switch_hot_loop.txt");
    let text = std::fs::read_to_string(&path).expect("read policy-switch reproducer");
    let spec = parse_repro(&text).expect("parse policy-switch reproducer");
    assert!(
        spec.seed % 4 < 2,
        "this seed residue is what enables the policy controller in the fuzz config"
    );
    for exec_path in [ExecPath::Fast, ExecPath::Reference] {
        let cfg = DiffConfig { exec_path, ..DiffConfig::default() };
        let (result, cov) = check_case(&spec, &cfg, &mut CaseRunner::new());
        match result {
            CaseResult::Agree { traces_patched, .. } => {
                assert!(
                    traces_patched >= 1,
                    "[{exec_path}] the striding loop was never patched, so no trial started"
                );
                assert!(
                    cov.keys.iter().any(|k| k == "policy:enabled"),
                    "[{exec_path}] the controller should be on for this seed; coverage: {:?}",
                    cov.keys
                );
                assert!(
                    cov.keys.iter().any(|k| k == "policy:commit"),
                    "[{exec_path}] no policy was ever committed; coverage: {:?}",
                    cov.keys
                );
            }
            other => panic!("[{exec_path}] expected agreement, got {other:?}"),
        }
    }
}

/// The fp-conversion reproducer must not just *agree* — it exists to
/// pin the §6 instrumentation-promotion path end to end. Its odd seed
/// switches `instrument_unanalyzable` on in the fuzz ADORE config, the
/// setf/getf round trip defeats the static pattern analyzer, and the
/// constant 128-byte stride lets the recorded address buffer promote
/// the load to a real prefetch stream — on both execution paths.
#[test]
fn fpconv_reproducer_instruments_and_promotes() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
        .join("instr_promotion_fpconv.txt");
    let text = std::fs::read_to_string(&path).expect("read fpconv reproducer");
    let spec = parse_repro(&text).expect("parse fpconv reproducer");
    assert_eq!(spec.seed % 2, 1, "odd seed is what enables instrument_unanalyzable");
    for exec_path in [ExecPath::Fast, ExecPath::Reference] {
        let cfg = DiffConfig { exec_path, ..DiffConfig::default() };
        match check(&spec, &cfg) {
            CaseResult::Agree { instrumented, promoted, .. } => {
                assert!(
                    instrumented >= 1,
                    "[{exec_path}] the fp-converted load should be instrumented"
                );
                assert!(
                    promoted >= 1,
                    "[{exec_path}] the 128-byte stride should be discovered and promoted"
                );
            }
            other => panic!("[{exec_path}] expected agreement, got {other:?}"),
        }
    }
}
