//! Golden campaign transcript: a small fixed coverage-guided campaign
//! (2 rounds × 8 cases, seed 11, corpus minimization on, alternating
//! execution tiers) must reproduce the checked-in corpus and coverage
//! map exactly.
//!
//! The campaign tests in `oracle::campaign` compare runs of the same
//! tree across worker counts; this file pins the output across
//! commits, so a change that claims to leave the campaign's answers
//! alone (a faster harness, a reordered leg, a cache-model shortcut)
//! is checked against what the campaign produced before it.
//!
//! To regenerate after an *intentional* change to the generator,
//! mutator, coverage keys or minimizer:
//!
//! ```text
//! ADORE_BLESS=1 cargo test --test golden_campaign
//! ```

use oracle::{run_campaign, serialize_repro, CampaignConfig};

const GOLDEN: &str = "tests/golden_campaign.txt";

/// The campaign's deterministic output as text: verdict tallies, every
/// corpus entry (novel keys, energy and reproducer) in admission
/// order, then the coverage-hit map.
fn transcript() -> String {
    let cfg = CampaignConfig {
        rounds: 2,
        batch: 8,
        seed: 11,
        jobs: 1,
        minimize_evals: 8,
        alternate_exec: true,
        ..CampaignConfig::default()
    };
    let stats = run_campaign(&cfg);
    let mut out = String::from(
        "# Golden campaign transcript (see tests/golden_campaign.rs).\n\
         # Regenerate with: ADORE_BLESS=1 cargo test --test golden_campaign\n",
    );
    out.push_str(&format!(
        "cases={} mismatches={} inconclusive={} undecided={} corpus_added={}\n",
        stats.cases,
        stats.mismatches.len(),
        stats.inconclusive,
        stats.undecided,
        stats.corpus_added
    ));
    for (label, n) in &stats.outcomes {
        out.push_str(&format!("outcome {label} {n}\n"));
    }
    for (i, entry) in stats.corpus.iter().enumerate() {
        out.push_str(&format!(
            "== entry {i} energy={} novel={}\n",
            entry.energy,
            entry.novel_keys.join(",")
        ));
        out.push_str(&serialize_repro(&entry.spec));
    }
    out.push_str("== coverage\n");
    for (key, n) in &stats.coverage {
        out.push_str(&format!("{key} {n}\n"));
    }
    out
}

#[test]
fn golden_campaign_transcript() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let observed = transcript();
    if std::env::var_os("ADORE_BLESS").is_some() {
        std::fs::write(&path, &observed).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\n(golden file missing? bless it: ADORE_BLESS=1 cargo test --test \
             golden_campaign)",
            path.display()
        )
    });
    if golden == observed {
        return;
    }
    let (line, (want, got)) = golden
        .lines()
        .chain(std::iter::repeat("<end of file>"))
        .zip(observed.lines().chain(std::iter::repeat("<end of output>")))
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .expect("texts differ, so some line does");
    panic!(
        "campaign output diverged from {} at line {}:\n  golden:   {want}\n  observed: {got}\n\
         (if the change is intentional, re-bless with ADORE_BLESS=1)",
        path.display(),
        line + 1
    );
}
