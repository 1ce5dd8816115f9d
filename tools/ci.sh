#!/usr/bin/env bash
# The tier-1 gate, runnable fully offline (the workspace has zero
# external dependencies — see README.md "Zero-dependency policy").
#
#   tools/ci.sh
#
# Steps:
#   1. formatting check (`cargo fmt --all --check`, settings in
#      rustfmt.toml; the standalone perf/ package is not covered),
#      release build of every crate, warnings denied, and the
#      workspace's rustdoc with its warnings (broken or private intra-doc
#      links) denied
#   2. full test suite (unit + integration + doc tests), wall-clock
#      logged, then the tests of the standalone perf/ benchmark package
#      (the workspace build does not cover it)
#   3. release run of the ignored slow tiers: the quick-scale golden
#      cycle-exactness pass and the full-scale (ADORE_FULL_E2E=1)
#      end-to-end tier
#   4. smoke experiments through the pooled service engine: the same
#      `lab fig7 --quick` grid twice against one persistent baseline
#      store — cold at --jobs 1, warm at --jobs 2 — must produce
#      byte-identical reports (modulo the timestamp and the volatile
#      engine.baseline_store subsection); the warm
#      run must hit the store for every baseline (zero recomputes) and
#      beat the cold run's wall-clock (both are logged)
#   4b. resident-service smoke: three spec cells piped into `lab serve`
#      must stream byte-identical responses at --jobs 1 and --jobs 4;
#      the one with an unknown field must be an error row, and each
#      other streamed row must equal the batch engine's row for the
#      same (tool, section, workload) cell, modulo the batch grid's
#      paper_speedup_pct merge extra
#   4c. scenario-family smoke: the `lab families --quick` grid (server /
#      graph / gc) run at --jobs 1 and --jobs 2 must produce
#      byte-identical reports modulo the volatile engine fields, and the
#      gc family must actually plant jump-pointer prefetches
#   4d. adaptive-policy smoke: the `lab policy --quick` grid run at
#      --jobs 1 and --jobs 2 must produce byte-identical reports
#      (including every per-phase decision log and the joined-legs
#      counters, which must show shared windows), the decision-log
#      schema is validated, and the default-off contract is checked:
#      reports from the default-config grids must carry no policy
#      section (the golden tiers of step 3, which run the default
#      config, prove cycle-level identity). ADORE_NIGHTLY=1 adds the
#      full-scale 20-workload grid and requires a controller win on at
#      least one scenario family.
#   5. differential fuzz smoke: 512 fixed-seed cases through the
#      three-way oracle (classic mode: a one-round campaign with no
#      corpus directory), once per simulator execution path
#      (--exec-path=fast, reference, then threaded — the compile tier
#      is held to the same architectural-state bar as the cycle-exact
#      paths); any semantic mismatch, undecided or budget-capped
#      (inconclusive) case fails the gate;
#      then 512 more with the ADORE leg restricted to the
#      pattern_analyze pass alone (the jump-pointer classification
#      probe), and 512 more restricted to prefetch_schedule with the
#      adaptive policy controller forced on
#   5b. coverage-guided campaign smoke: a fixed-seed campaign (mutation
#      and coverage scheduling on) run at --jobs 1 and --jobs 4 must
#      produce byte-identical reports and corpus directories; the
#      campaign report schema (coverage keys, mutation/origin ledgers,
#      inconclusive counter, a minimizer ledger that sums to its
#      candidate count with some decided before the plain leg) is
#      validated, cases must have run on both
#      tiers and through compiled and deopted threaded regions (every
#      case runs on snapshot-reset machines).
#      ADORE_NIGHTLY=1 additionally runs a >=100k-case campaign sweep.
#   6. per-pass ablation smoke: every optimizer pass disabled once on
#      one workload, then schema validation of the per-pass overhead
#      ledger, rejection taxonomy and event stream in the ablation
#      report
#   6b. objdump smoke: `lab objdump daxpy` lists the daxpy loop header
#      and the `main:` label, and an unknown workload exits non-zero
#   6c. explain smoke: `lab explain --quick` over the 17 paper workloads;
#      each workload's top-3 delinquent loads by sampled latency must
#      have a fate read from the decision trace, mcf must deploy a
#      pointer-chase stream and lucas must show an unanalyzable slice
#   7. simulator benchmark + throughput gate: three interleaved rounds,
#      each running every tier once (retired counts asserted equal per
#      round), so the gates compare numbers from the same rounds; the
#      predecoded fast path must stay at least 2x the reference path on
#      the quick suite, and the threaded compile tier at least 4x the
#      reference path (both
#      gates are anchored on the reference tier, the one neither
#      optimized tier changes); the threaded/fast ratio is printed
#      without a gate
#   8. schema validation of the emitted JSON, including the engine's
#      merged sections
#
# Every report and scratch copy goes to a temporary ADORE_RESULTS_DIR,
# never over the committed results/; the last step pins results/
# unchanged.
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="-D warnings"
export CARGO_NET_OFFLINE="true"
ADORE_RESULTS_DIR=$(mktemp -d)
export ADORE_RESULTS_DIR
trap 'rm -rf "$ADORE_RESULTS_DIR"' EXIT
R="$ADORE_RESULTS_DIR"

ms_since() { echo $(( ($(date +%s%N) - $1) / 1000000 )); }

# Runs the Python check read from stdin (arguments passed through) with
# R (the results directory) and same_modulo_volatile(a, b, message)
# defined. The helper zeroes the volatile report fields in both
# reports, in place: the timestamp, plus the engine.baseline_store
# subsection, which describes how (not what) the engine executed. It
# asserts that neither report has an engine.scheduling section (the
# engine no longer writes one), that the rest is byte-identical
# (failing with `message`) and returns the canonical length.
py_report_check() {
    local prelude
    prelude=$(cat <<'EOF'
import json, os, sys
R = os.environ["ADORE_RESULTS_DIR"]
def same_modulo_volatile(a, b, message):
    for doc in (a, b):
        assert "scheduling" not in doc["engine"], "engine.scheduling is gone"
        doc["generated_unix_s"] = 0
        doc["engine"]["baseline_store"] = {}
    sa, sb = (json.dumps(x, indent=1) for x in (a, b))
    assert sa == sb, message
    return len(sa)
EOF
)
    python3 -c "$prelude
$(cat)" "$@"
}

echo "== format check, build (release, -D warnings) and rustdoc (-D warnings) =="
cargo fmt --all --check
cargo build --release --workspace --benches
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== test (default quick tiers) =="
t0=$(date +%s%N)
cargo test -q --workspace
echo "wall-clock: workspace test suite $(ms_since "$t0")ms"

echo "== test (perf/ benchmark package) =="
t0=$(date +%s%N)
cargo test -q --offline --manifest-path perf/Cargo.toml
echo "wall-clock: perf package tests $(ms_since "$t0")ms"

echo "== test (release, ignored tiers: quick-scale golden + full-scale e2e) =="
t0=$(date +%s%N)
ADORE_FULL_E2E=1 cargo test --release -q --test golden_cycles --test end_to_end -- --ignored
echo "wall-clock: release ignored tiers $(ms_since "$t0")ms"

# The golden pass above must *compare*, never rewrite: if a stray
# ADORE_BLESS leaked into the environment the snapshots would have been
# silently regenerated, so pin them byte-identical to the checked-in
# files.
git diff --exit-code -- tests/golden_cycles_tiny.txt tests/golden_cycles_quick.txt \
    tests/golden_cycles_adore_tiny.txt \
    || { echo "golden snapshot files changed during the CI run" >&2; exit 1; }

echo "== smoke: lab fig7 --quick, same grid twice against one baseline store =="
store_dir=$(mktemp -d)
t0=$(date +%s%N)
ADORE_BASELINE_DIR="$store_dir" cargo run --release -q -p adore-bench --bin lab -- \
    fig7 --quick --jobs 1
cold_ms=$(ms_since "$t0")
cp "$R/fig7.json" "$R/fig7.cold.json"
t0=$(date +%s%N)
ADORE_BASELINE_DIR="$store_dir" cargo run --release -q -p adore-bench --bin lab -- \
    fig7 --quick --jobs 2
warm_ms=$(ms_since "$t0")
echo "wall-clock: cold store + jobs=1 ${cold_ms}ms, warm store + jobs=2 ${warm_ms}ms" \
     "(speedup $(python3 -c "print(f'{$cold_ms/max($warm_ms,1):.2f}x')") on $(nproc) cores)"

echo "== determinism + store reuse: reports byte-identical modulo volatile fields =="
py_report_check "$cold_ms" "$warm_ms" <<'EOF'
a = json.load(open(f"{R}/fig7.cold.json"))
b = json.load(open(f"{R}/fig7.json"))
# The warm run must have resolved every baseline from the persistent
# store: zero recomputes, and strictly faster than the cold run.
sa_store, sb_store = a["engine"]["baseline_store"], b["engine"]["baseline_store"]
assert sa_store["enabled"] and sb_store["enabled"], "smoke must exercise the store"
assert sa_store["hits"] == 0 and sa_store["misses"] > 0, "first run must start cold"
assert sb_store["misses"] == 0, "warm run recomputed a baseline the store held"
assert sb_store["hits"] == sa_store["misses"], "warm run must hit every stored baseline"
cold_ms, warm_ms = int(sys.argv[1]), int(sys.argv[2])
assert warm_ms < cold_ms, f"store reuse did not pay off: cold {cold_ms}ms, warm {warm_ms}ms"
# Everything else is byte-identical once the volatile fields are
# zeroed.
n = same_modulo_volatile(a, b, "warm/parallel report differs from cold/serial report")
print(f"  ok: {n} canonical bytes identical across --jobs and store state;"
      f" {sb_store['hits']} baselines served from the store")
EOF
rm -rf "$store_dir"

echo "== smoke: lab serve, three requests streamed at --jobs 1 vs --jobs 4 =="
# The middle request carries an unknown field: its row must be an
# error row (so serve exits 1) and the rows around it unaffected.
serve_req='{"workload":"mcf","tool":"fig7","section":"part_a","opts":"o2","measure":"comparison"}
{"workload":"mcf","tool":"fig7","section":"part_a","opts":"o2","mesure":"guided"}
{"workload":"art","tool":"fig7","section":"part_a","opts":"o2","measure":"comparison"}'
serve_stream() {
    local status=0
    printf '%s\n' "$serve_req" | cargo run --release -q -p adore-bench --bin lab -- \
        serve --quick --jobs "$1" --no-baseline-store > "$R/serve.jobs$1.jsonl" || status=$?
    [ "$status" = 1 ] || { echo "serve must exit 1 for its one error row, got $status" >&2; exit 1; }
}
t0=$(date +%s%N)
serve_stream 1
serve1_ms=$(ms_since "$t0")
t0=$(date +%s%N)
serve_stream 4
serve4_ms=$(ms_since "$t0")
echo "wall-clock: serve jobs=1 ${serve1_ms}ms, jobs=4 ${serve4_ms}ms"
cmp "$R/serve.jobs1.jsonl" "$R/serve.jobs4.jsonl" \
    || { echo "serve streams differ across --jobs" >&2; exit 1; }
echo "  ok: serve stream byte-identical across --jobs ($(wc -c < "$R/serve.jobs1.jsonl") bytes)"

echo "== serve rows match the batch engine's rows =="
python3 - <<'EOF'
import json, os
R = os.environ["ADORE_RESULTS_DIR"]
# fig7.json is the warm engine run above; the serve cells name
# the same (tool=fig7, section=part_a, workload) identities, so their
# rows must be equal except for the grid-only paper_speedup_pct extra.
batch = {r["bench"]: r for r in json.load(open(f"{R}/fig7.json"))["part_a"]}
served = [json.loads(line) for line in open(f"{R}/serve.jobs1.jsonl")]
assert [s["index"] for s in served] == [0, 1, 2], "stream must be in submission order"
bad = served.pop(1)["row"]
assert bad.get("error") == "unknown field `mesure`", f"unknown field not rejected: {bad}"
for s in served:
    assert s["section"] == "part_a"
    row = s["row"]
    want = dict(batch[row["bench"]])
    del want["paper_speedup_pct"]
    assert row == want, f"serve row for {row['bench']} differs from the batch engine row"
print(f"  ok: {len(served)} streamed rows identical to batch engine rows, 1 error row")
EOF

echo "== smoke: lab families --quick, --jobs 1 vs --jobs 2 =="
t0=$(date +%s%N)
cargo run --release -q -p adore-bench --bin lab -- families --quick --jobs 1
fam1_ms=$(ms_since "$t0")
cp "$R/families.json" "$R/families.jobs1.json"
t0=$(date +%s%N)
cargo run --release -q -p adore-bench --bin lab -- families --quick --jobs 2
fam2_ms=$(ms_since "$t0")
echo "wall-clock: families jobs=1 ${fam1_ms}ms, jobs=2 ${fam2_ms}ms"
py_report_check <<'EOF'
a = json.load(open(f"{R}/families.jobs1.json"))
b = json.load(open(f"{R}/families.json"))
n = same_modulo_volatile(a, b, "families report differs between --jobs 1 and --jobs 2")
rows = {r["bench"]: r for r in b["families"]}
assert set(rows) == {"server", "graph", "gc"}, f"family set changed: {sorted(rows)}"
for name, row in rows.items():
    assert "error" not in row, f"{name}: cell failed: {row.get('error')}"
    assert row["traces_patched"] > 0, f"{name}: ADORE never patched a trace"
assert rows["gc"]["streams"]["jump"] > 0, \
    "gc family planted no jump-pointer prefetch: the dependence-based arm is dead"
assert rows["server"]["phases_optimized"] >= 2, \
    "server family's load spikes produced fewer than 2 optimized phases"
print(f"  ok: {n} canonical bytes identical across --jobs;"
      f" gc planted {rows['gc']['streams']['jump']} jump prefetches,"
      f" server optimized {rows['server']['phases_optimized']} phases")
EOF

echo "== smoke: lab policy --quick, --jobs 1 vs --jobs 2 =="
t0=$(date +%s%N)
cargo run --release -q -p adore-bench --bin lab -- policy --quick --jobs 1
pol1_ms=$(ms_since "$t0")
cp "$R/policy.json" "$R/policy.jobs1.json"
t0=$(date +%s%N)
cargo run --release -q -p adore-bench --bin lab -- policy --quick --jobs 2
pol2_ms=$(ms_since "$t0")
echo "wall-clock: policy jobs=1 ${pol1_ms}ms, jobs=2 ${pol2_ms}ms"

echo "== validate policy report: determinism, decision-log schema, default-off contract =="
py_report_check <<'EOF'
a = json.load(open(f"{R}/policy.jobs1.json"))
b = json.load(open(f"{R}/policy.json"))
n = same_modulo_volatile(
    a, b, "policy report (including decision logs) differs between --jobs 1 and --jobs 2")

# Joined legs: each cell runs its static and adaptive legs as one
# simulation until they diverge; the counters are deterministic (the
# diff above covers them) and the legs must actually share windows.
legs = b["engine"]["joined_legs"]
assert legs["cells"] == len(b["grid"]), f"every policy cell runs joined legs: {legs}"
assert legs["shared_windows"] > 0, f"the joined legs shared no window: {legs}"

ACTIONS = {"trial", "score", "commit", "fallback", "redeploy"}
ARMS = {"static", "wide", "near", "lean"}
decisions = commits = 0
for row in b["grid"]:
    name = row["bench"]
    assert "error" not in row, f"{name}: cell failed: {row.get('error')}"
    for key in ("base_cycles", "static_cycles", "adaptive_cycles", "win"):
        assert key in row, f"{name}: row lacks `{key}`"
    assert row["win"] == (row["adaptive_cycles"] < row["static_cycles"]), \
        f"{name}: `win` disagrees with the cycle counts"
    pol = row["policy"]
    assert pol["enabled"] is True, f"{name}: adaptive leg ran with the controller off"
    for c in pol["committed"]:
        assert c["arm"] in ARMS, f"{name}: committed unknown arm {c['arm']!r}"
        commits += 1
    for d in pol["decisions"]:
        for key in ("window", "phase", "action", "arm", "score", "cpi"):
            assert key in d, f"{name}: decision lacks `{key}`: {d}"
        assert d["action"] in ACTIONS, f"{name}: unknown action {d['action']!r}"
        assert d["arm"] in ARMS, f"{name}: decision names unknown arm {d['arm']!r}"
        decisions += 1
assert decisions > 0, "no workload logged a single policy decision: the controller is dead"
assert commits > 0, "no workload committed a policy: every arm walk stalled"

# Default-off contract: grids run with the paper-default config must not
# carry a policy section at all (the golden tiers of step 3 already
# re-proved cycle-level identity on the default path).
fig7 = json.load(open(f"{R}/fig7.json"))
for section in ("part_a", "part_b"):
    for row in fig7[section]:
        assert "policy" not in row, \
            f"fig7 {row['bench']}: default-config row grew a policy section"
print(f"  ok: {n} canonical bytes identical across --jobs;"
      f" {decisions} decisions / {commits} commits schema-valid over"
      f" {len(b['grid'])} workloads; joined legs shared"
      f" {legs['shared_windows']} windows, {legs['split_cells']} cells split;"
      f" fig7 rows stay policy-free")
EOF

for path in fast reference threaded; do
    echo "== smoke: differential fuzz oracle, 512 cases, exec-path=$path =="
    cargo run --release -q -p adore-bench --bin lab -- fuzz \
        --cases=512 --seed=1 "--exec-path=$path"

    echo "== validate fuzz report ($path) =="
    python3 - "$path" <<'EOF'
import json, os, sys
R = os.environ["ADORE_RESULTS_DIR"]
doc = json.load(open(f"{R}/fuzz.json"))
assert doc["schema_version"] == 2, "schema_version must be 2"
assert doc["tool"] == "fuzz", "tool must be fuzz"
assert doc["exec_path"] == sys.argv[1], "report must record the exec path under test"
assert doc["mode"] == "fuzz", "classic smoke must run in classic mode"
assert doc["cases"] >= 512, "CI smoke must run at least 512 cases"
assert doc["mismatches"] == 0, "semantic mismatch: ADORE changed program behavior"
assert doc["undecided"] == 0, "every smoke case must reach a verdict"
assert doc["inconclusive"] == 0, "no smoke case may exhaust a hang-safety budget"
assert doc["cases_with_patches"] > 0, "no case was patched: the oracle tested nothing"
assert sum(doc["outcomes"].values()) == doc["cases"], "outcome counts must cover all cases"
cov = doc["coverage"]
for key in ("ld1", "ld2", "ld4", "ld8", "st1", "st2", "st4", "st8", "ldf", "stf",
            "spec_ld", "lfetch", "predicated", "flushes", "hot_loops", "jump_loops",
            "calls"):
    assert cov.get(key, 0) > 0, f"coverage hole: {key} never generated"
print(f"  ok: {doc['cases']} cases on the {doc['exec_path']} path, 0 mismatches,"
      f" {doc['cases_with_patches']} cases patched"
      f" ({doc['traces_patched_total']} traces)")
EOF
done

echo "== smoke: differential fuzz oracle, 512 cases, ADORE leg = pattern_analyze only =="
cargo run --release -q -p adore-bench --bin lab -- fuzz \
    --cases=512 --seed=1 --exec-path=fast --pass=pattern_analyze

echo "== validate pattern_analyze-only fuzz report =="
python3 - <<'EOF'
import json, os
R = os.environ["ADORE_RESULTS_DIR"]
doc = json.load(open(f"{R}/fuzz.json"))
assert doc["only_pass"] == "pattern_analyze", "report must record the pass restriction"
assert doc["cases"] >= 512, "pass smoke must run at least 512 cases"
assert doc["mismatches"] == 0, \
    "semantic mismatch: pattern_analyze alone changed program behavior"
assert doc["undecided"] == 0 and doc["inconclusive"] == 0
assert doc["coverage"]["jump_loops"] > 0, \
    "no jump-chase segment generated: the pass probe missed its target shape"
print(f"  ok: {doc['cases']} pattern_analyze-only cases, 0 mismatches,"
      f" {doc['coverage']['jump_loops']} jump-chase loops generated")
EOF

echo "== smoke: differential fuzz oracle, 512 cases, --pass=prefetch_schedule --policy=on =="
cargo run --release -q -p adore-bench --bin lab -- fuzz \
    --cases=512 --seed=1 --exec-path=fast --pass=prefetch_schedule --policy=on

echo "== validate policy-on prefetch_schedule fuzz report =="
python3 - <<'EOF'
import json, os
R = os.environ["ADORE_RESULTS_DIR"]
doc = json.load(open(f"{R}/fuzz.json"))
assert doc["only_pass"] == "prefetch_schedule", "report must record the pass restriction"
assert doc["policy"] == "on", "report must record the forced-on controller"
assert doc["cases"] >= 512, "policy smoke must run at least 512 cases"
assert doc["mismatches"] == 0, \
    "semantic mismatch: the adaptive controller changed program behavior"
assert doc["undecided"] == 0 and doc["inconclusive"] == 0
print(f"  ok: {doc['cases']} policy-on schedule-only cases, 0 mismatches")
EOF

echo "== smoke: coverage-guided campaign, --jobs 1 vs --jobs 4 =="
campaign_args=(--campaign --rounds=3 --batch=48 --seed=11 --minimize-evals=8)
cdir1=$(mktemp -d) cdir2=$(mktemp -d)
t0=$(date +%s%N)
ADORE_CAMPAIGN_DIR="$cdir1" cargo run --release -q -p adore-bench --bin lab -- fuzz \
    "${campaign_args[@]}" --jobs 1
campaign1_ms=$(ms_since "$t0")
cp "$R/fuzz.json" "$R/fuzz.campaign.jobs1.json"
t0=$(date +%s%N)
ADORE_CAMPAIGN_DIR="$cdir2" cargo run --release -q -p adore-bench --bin lab -- fuzz \
    "${campaign_args[@]}" --jobs 4
campaign4_ms=$(ms_since "$t0")
echo "wall-clock: campaign jobs=1 ${campaign1_ms}ms, jobs=4 ${campaign4_ms}ms"

echo "== determinism: campaign report byte-identical across --jobs =="
python3 - <<'EOF'
import json, os
R = os.environ["ADORE_RESULTS_DIR"]
a = json.load(open(f"{R}/fuzz.campaign.jobs1.json"))
b = json.load(open(f"{R}/fuzz.json"))
a["generated_unix_s"] = b["generated_unix_s"] = 0
sa, sb = (json.dumps(x, indent=1) for x in (a, b))
assert sa == sb, "campaign report differs between --jobs 1 and --jobs 4"
print(f"  ok: {len(sa)} canonical bytes identical across --jobs")
EOF
diff -r "$cdir1" "$cdir2" \
    || { echo "campaign corpus directories differ across --jobs" >&2; exit 1; }
echo "  ok: corpus directories identical ($(ls "$cdir1" | wc -l) minimized entries)"

echo "== validate campaign report schema =="
python3 - <<'EOF'
import json, os
R = os.environ["ADORE_RESULTS_DIR"]
doc = json.load(open(f"{R}/fuzz.json"))
assert doc["schema_version"] == 2, "schema_version must be 2"
assert doc["tool"] == "fuzz", "tool must be fuzz"
assert doc["mode"] == "campaign", "campaign smoke must record campaign mode"
assert doc["mismatches"] == 0, "semantic mismatch: ADORE changed program behavior"
assert doc["undecided"] == 0, "every campaign case must assemble"
assert doc["inconclusive"] >= 0, "inconclusive counter must be present"
assert sum(doc["outcomes"].values()) + doc["inconclusive"] + doc["undecided"] \
    + doc["mismatches"] == doc["cases"], "verdict counts must cover all cases"
c = doc["campaign"]
for key in ("rounds", "batch", "corpus_imported", "corpus_added",
            "corpus_len", "new_key_events", "coverage_keys", "coverage_hits",
            "mutations", "origins", "minimizer"):
    assert key in c, f"campaign section missing {key!r}"
assert c["rounds"] == 3 and c["batch"] == 48, "campaign geometry must match the flags"
assert c["corpus_added"] > 0, "no case earned corpus admission: coverage is dead"
assert c["corpus_len"] == c["corpus_added"] + c["corpus_imported"]
assert c["coverage_keys"] >= 20, f"coverage key space too small: {c['coverage_keys']}"
assert c["coverage_keys"] == len(c["coverage_hits"])
hits = c["coverage_hits"]
for prefix in ("feat:", "outcome:", "pass:"):
    assert any(k.startswith(prefix) for k in hits), f"no {prefix}* coverage key observed"
# The zero-mismatch verdict above covers the threaded tier's compiled
# code only if cases ran compiled regions and deopted them.
for key in ("tier:fast", "tier:threaded", "tier:compiled", "tier:deopt"):
    assert hits.get(key, 0) > 0, f"campaign never hit {key}"
assert c["origins"].get("gen", 0) > 0, "fresh generation must contribute cases"
assert c["origins"].get("mutate", 0) > 0, "corpus mutation must contribute cases"
assert sum(c["origins"].values()) == doc["cases"]
assert sum(c["mutations"].values()) > 0, "no mutation operator ever applied"
# Minimization runs in the serial merge: every candidate is decided at
# exactly one point, and the gate must stop some before the plain leg.
m = c["minimizer"]
parts = ("before_legs", "after_reference", "after_adore", "full_check", "kept")
assert sum(m[p] for p in parts) == m["candidates"], f"minimizer ledger does not sum: {m}"
assert m["candidates"] > 0, "the campaign smoke minimized nothing"
assert m["before_legs"] + m["after_reference"] + m["after_adore"] > 0, \
    f"no minimizer candidate was decided before the plain leg: {m}"
print(f"  ok: {doc['cases']} campaign cases, corpus +{c['corpus_added']},"
      f" {c['coverage_keys']} coverage keys,"
      f" origins {dict(c['origins'])}, {doc['inconclusive']} inconclusive,"
      f" minimizer {dict(m)}")
EOF
rm -rf "$cdir1" "$cdir2"

if [ "${ADORE_NIGHTLY:-0}" = "1" ]; then
    echo "== nightly: campaign sweep (>=100k cases) =="
    cdirn=$(mktemp -d)
    t0=$(date +%s%N)
    ADORE_CAMPAIGN_DIR="$cdirn" cargo run --release -q -p adore-bench --bin lab -- fuzz \
        --campaign --rounds=128 --batch=800 --seed=1 --minimize-evals=8 --jobs "$(nproc)"
    echo "wall-clock: nightly campaign $(ms_since "$t0")ms"
    python3 - <<'EOF'
import json, os
R = os.environ["ADORE_RESULTS_DIR"]
doc = json.load(open(f"{R}/fuzz.json"))
assert doc["cases"] >= 100_000, f"nightly sweep ran only {doc['cases']} cases"
assert doc["mismatches"] == 0, "semantic mismatch in the nightly sweep"
print(f"  ok: {doc['cases']} nightly cases, 0 mismatches")
EOF
    rm -rf "$cdirn"

    echo "== nightly: scenario families at full scale =="
    t0=$(date +%s%N)
    cargo run --release -q -p adore-bench --bin lab -- families --jobs "$(nproc)"
    echo "wall-clock: full-scale families $(ms_since "$t0")ms"

    echo "== nightly: adaptive policy grid at full scale =="
    t0=$(date +%s%N)
    cargo run --release -q -p adore-bench --bin lab -- policy --jobs "$(nproc)"
    echo "wall-clock: full-scale policy $(ms_since "$t0")ms"
    python3 - <<'EOF'
import json, os
R = os.environ["ADORE_RESULTS_DIR"]
doc = json.load(open(f"{R}/policy.json"))
rows = {r["bench"]: r for r in doc["grid"]}
assert len(rows) == 20, f"full policy grid must cover 20 workloads, got {len(rows)}"
family_wins = [n for n in ("server", "graph", "gc") if rows[n]["win"]]
assert family_wins, \
    "no scenario family beat the static policy at full scale: the controller lost its edge"
wins = sum(r["win"] for r in rows.values())
print(f"  ok: {wins} adaptive wins over 20 workloads; family wins: {family_wins}")
EOF
fi

echo "== smoke: per-pass ablation (each pass disabled once) =="
t0=$(date +%s%N)
cargo run --release -q -p adore-bench --bin lab -- ablation --quick --jobs 2 --pass-smoke
echo "wall-clock: pass-smoke ablation $(ms_since "$t0")ms"

echo "== validate pass-pipeline ledger schema (ablation.json) =="
python3 - <<'EOF'
import json, os
R = os.environ["ADORE_RESULTS_DIR"]
doc = json.load(open(f"{R}/ablation.json"))
assert doc["schema_version"] == 2, "schema_version must be 2"
assert doc["tool"] == "ablation", "tool must be ablation"
ALL_PASSES = ["instr_promote", "phase_gate", "unpatch_monitor", "reopt_gate",
              "trace_select", "delinq_filter", "pattern_analyze",
              "prefetch_schedule", "patch_deploy"]
EVENT_KINDS = {"deploy", "instrument", "promote", "unpatch"}
LEDGER_KEYS = {"name", "invocations", "charged_cycles", "accepted", "rejections"}
for off in ALL_PASSES:
    key = f"pass_off_{off}"
    rows = doc.get(key)
    assert rows, f"missing pass-smoke section: {key}"
    for row in rows:
        assert {"bench", "base_cycles", "adore_cycles", "speedup_pct",
                "pipeline", "sampling_overhead_cycles", "events"} <= row.keys()
        passes = row["pipeline"]["passes"]
        names = [p["name"] for p in passes]
        assert off not in names, f"{key}: disabled pass {off} still in ledger"
        assert len(passes) == len(ALL_PASSES) - 1, f"{key}: ledger must cover the 8 enabled passes"
        assert names == [p for p in ALL_PASSES if p != off], f"{key}: ledger order must match pipeline order"
        for p in passes:
            assert LEDGER_KEYS <= p.keys(), f"{key}: pass entry missing keys: {p.keys()}"
            assert isinstance(p["rejections"], dict), f"{key}: rejections must map label -> count"
        assert row["sampling_overhead_cycles"] >= 0
        for ev in row["events"]:
            assert ev["kind"] in EVENT_KINDS, f"{key}: unknown event kind {ev['kind']!r}"
charged = sum(p["charged_cycles"]
              for off in ALL_PASSES
              for row in doc[f"pass_off_{off}"]
              for p in row["pipeline"]["passes"])
print(f"  ok: 9 single-pass-off sections, ledger schema valid,"
      f" {charged} total charged cycles on the books")
EOF

echo "== smoke: lab objdump =="
listing=$(cargo run --release -q -p adore-bench --bin lab -- objdump daxpy)
grep -q '^; loop `daxpy` ' <<<"$listing" \
    || { echo "objdump daxpy: listing lacks the daxpy loop header" >&2; exit 1; }
grep -qx 'main:' <<<"$listing" \
    || { echo "objdump daxpy: listing lacks the main: label" >&2; exit 1; }
if cargo run --release -q -p adore-bench --bin lab -- objdump nope 2>/dev/null; then
    echo "objdump accepted an unknown workload" >&2
    exit 1
fi
echo "  ok: daxpy listing has its loop header and main: label; unknown workload rejected"

echo "== smoke: lab explain --quick (fate of every delinquent load) =="
cargo run --release -q -p adore-bench --bin lab -- explain --quick --jobs 2 > /dev/null
python3 - <<'EOF'
import json, os
R = os.environ["ADORE_RESULTS_DIR"]
doc = json.load(open(f"{R}/explain.json"))
rows = {r["bench"]: r for r in doc["workloads"]}
assert len(rows) == 17, f"explain must cover the 17 paper workloads, got {len(rows)}"
explained = 0
for name, row in rows.items():
    assert "error" not in row, f"{name}: cell failed: {row.get('error')}"
    latency = {}
    for load in row["loads"]:
        latency[load["pc"]] = latency.get(load["pc"], 0) + load["latency"]
    for pc in sorted(latency, key=lambda pc: -latency[pc])[:3]:
        for load in row["loads"]:
            if load["pc"] == pc:
                assert load["fate"] != "unresolved", \
                    f"{name}: delinquent load {pc} (window {load['window']}) has no fate"
                explained += 1
fates = lambda name: {(l.get("pattern"), l["fate"]) for l in rows[name]["loads"]}
assert ("pointer", "deployed") in fates("mcf"), "mcf deployed no pointer-chase stream"
assert any(f == "unanalyzable_slice" for _, f in fates("lucas")), \
    "lucas shows no unanalyzable slice: the §4.3 failure is not explained"
print(f"  ok: {explained} top-3 delinquent-load selections over {len(rows)} workloads"
      f" have a fate")
EOF

echo "== smoke: bench simulator --quick =="
cargo bench -q -p adore-bench --bench simulator -- --quick

echo "== gate: predecoded fast path throughput vs reference =="
python3 - <<'EOF'
import json, os
R = os.environ["ADORE_RESULTS_DIR"]
doc = json.load(open(f"{R}/bench_simulator.json"))
rows = {b["name"]: b for b in doc["benchmarks"]}
fast = rows["machine/suite_insns_fast"]["ns_per_element"]
ref = rows["machine/suite_insns_reference"]["ns_per_element"]
ratio = ref / fast
assert ratio >= 2.0, (
    f"fast-path throughput regressed: {ratio:.2f}x reference (gate: >= 2x); "
    f"{fast:.2f} vs {ref:.2f} ns per simulated instruction")
print(f"  ok: fast path {ratio:.2f}x reference"
      f" ({fast:.2f} vs {ref:.2f} ns per simulated instruction)")
threaded = rows["machine/suite_insns_threaded"]["ns_per_element"]
tratio = ref / threaded
assert tratio >= 4.0, (
    f"threaded-tier throughput regressed: {tratio:.2f}x reference (gate: >= 4x); "
    f"{threaded:.2f} vs {ref:.2f} ns per simulated instruction")
print(f"  ok: threaded tier {tratio:.2f}x reference"
      f" ({threaded:.2f} vs {ref:.2f} ns per simulated instruction)")
# Not a gate: the threaded tier's lead over the fast tier is the input
# to the keep-or-delete decision on the threaded tier.
print(f"  info: threaded tier {fast / threaded:.2f}x fast"
      f" ({threaded:.2f} vs {fast:.2f} ns per simulated instruction)")
# Not a gate: the compute-tail loop runs almost only register-only
# bundles, the fast tier's short path.
tail = rows["machine/compute_tail_fast"]["ns_per_element"]
print(f"  info: fast tier {tail:.2f} ns per simulated instruction on the compute tail"
      f" ({fast:.2f} on the suite)")
EOF

echo "== validate JSON reports =="
for f in "$R/fig7.json" "$R/families.json" "$R/policy.json" "$R/bench_simulator.json" \
    "$R/explain.json"; do
    [ -f "$f" ] || { echo "missing report: $f" >&2; exit 1; }
    python3 -m json.tool "$f" > /dev/null
    python3 - "$f" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema_version"] == 2, "schema_version must be 2"
assert "tool" in doc and "generated_unix_s" in doc, "missing envelope keys"
if doc["tool"] == "fig7":  # engine-merged report: check grid metadata
    eng = doc["engine"]
    cells = eng["cells"]
    assert cells == len(eng["cell_labels"]), "cell label per cell"
    cache = eng["baseline_cache"]
    assert cache["hits"] == cache["lookups"] - cache["computes"]
    assert eng["errors"] == 0, "no cell may fail in the smoke grid"
    rows = doc["part_a"] + doc["part_b"]
    assert cells == len(rows), "one merged row per cell"
    for row in rows:
        assert {"bench", "base_cycles", "adore_cycles", "speedup_pct"} <= row.keys()
print(f"  ok: {sys.argv[1]} (tool={doc['tool']})")
EOF
done

# Like the golden pin above: no step may have rewritten a committed
# report or left a file under results/.
git diff --exit-code -- results/ && [ -z "$(git status --porcelain -- results/)" ] \
    || { echo "results/ changed during the CI run" >&2; exit 1; }

echo "CI gate passed."
