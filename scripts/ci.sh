#!/usr/bin/env bash
# Offline CI gate for the ziv workspace: formatting, lints, build, and
# the full test suite, with no network access required.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check
# benchmark/ is a package of its own, outside the workspace, so the
# workspace-wide fmt and clippy runs skip it. Its tracked Cargo.lock
# lists the workspace crates it builds. Cargo rewrites that file when
# the workspace's crate graph changes, and --locked does not object, so
# the checksum taken here is compared after the last benchmark build.
BENCH_LOCK_SUM="$(sha256sum benchmark/Cargo.lock)"
cargo fmt --check --manifest-path benchmark/Cargo.toml

echo "== the workspace resolves no registry crate"
# Every crate the workspace builds is a path dependency, so it builds
# offline. A `source =` line in Cargo.lock names a registry or git
# source, which an offline host cannot fetch.
if grep -n '^source = ' Cargo.lock; then
    echo "Cargo.lock resolves a crate from a registry or git source; the workspace must build offline" >&2
    exit 1
fi

echo "== one counting site (no Metrics += in the hierarchy)"
# Every counter moves in Metrics::count, fed by the hierarchy's event
# stream; a counter bumped straight in hierarchy.rs would be a second
# account of the same fact.
if grep -nE 'self\.metrics[^;]*\+=' crates/core/src/hierarchy.rs; then
    echo "hierarchy.rs bumps a Metrics counter; emit an event that Metrics::count counts" >&2
    exit 1
fi

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

echo "== cargo doc (deny warnings)"
# Every intra-doc link must resolve, so deleting or renaming an item
# cannot leave a stale link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== cargo build --release"
cargo build --workspace --release

echo "== cargo test"
cargo test --workspace -q

echo "== benchmark crate tests"
# benchmark/ is a package of its own, outside the workspace, that
# depends on ziv-sim and ziv-harness by path and calls their run entry
# points; a change that breaks those calls must fail here. It builds
# into benchmark/target.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== benchmark pinned digests (full-size results unchanged)"
# The benchmark crate's tests check only that every cell has a pin. This
# stage re-simulates every benchmark cell at full size under both pinned
# seeds and compares the result digests with benchmark/expected/digests.txt.
cargo build -q --release --offline --manifest-path benchmark/Cargo.toml
diff <(./benchmark/target/release/benchmark pin --seed 0x2026
       ./benchmark/target/release/benchmark pin --seed 1) \
     <(grep -v '^#' benchmark/expected/digests.txt)

echo "== benchmark/Cargo.lock unchanged by the builds"
if [ "$(sha256sum benchmark/Cargo.lock)" != "$BENCH_LOCK_SUM" ]; then
    echo "a build rewrote benchmark/Cargo.lock: the workspace's crate graph" \
         "changed, and the benchmark's lockfile must change with it" >&2
    exit 1
fi

echo "== cargo test (release, debug assertions on)"
# The figure campaigns run in release; keep the invariant-heavy paths
# (auditor, ZIV guarantee fallback checks) exercised with
# debug_assert!s compiled in at release optimization levels. This runs
# every integration test once, among them:
# - hotpath_determinism: every LLC mode twice under the every-access
#   auditor, byte-identical campaign ledgers, and the pinned
#   (mode, policy) result digests, with the fused-probe debug_assert!s
#   compiled in;
# - latency_attribution: the observatory's books balance exactly:
#   per-component cycles sum to the aggregate access_latency_cycles for
#   every LLC mode under the every-access auditor, and ZIV modes report
#   exactly zero inclusion-victim refetch cycles;
# - forensics: the blame matrix accounts for every inclusion victim
#   exactly, its refetch cycles agree with the latency observatory, ZIV
#   modes record zero chains, and the blame.csv / trace.json exports are
#   byte-identical across thread counts;
# - tear_out_properties: the tear-out path under seeded interleavings:
#   the sharer fan-out edge cases, plus blame = inclusion_victims =
#   leakage back-invalidations and forensics refetch cycles = latency
#   refetch cycles in every back-invalidating mode (the failing seed is
#   printed on failure);
# - attack_leakage: the ZIV-zero-leakage gate: the observatory's books
#   conserve against Metrics::inclusion_victims, the inclusive baseline
#   leaks, every ZIV mode is exactly silent, and the attack-eval exports
#   are byte-identical across thread counts.
RUSTFLAGS="-C debug-assertions" cargo test --workspace -q --release

echo "== audit-enabled smoke campaign"
# End-to-end through the release binary: every cell of the smallest
# campaign under the sampled invariant auditor, into a throwaway
# results dir. Any audit violation fails the gate with a repro record.
# Single-threaded so the ledger's append order is deterministic — the
# traced re-run below diffs against these bytes.
SMOKE_DIR="$(mktemp -d)"
TRACED_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$TRACED_DIR"' EXIT
ZIV_FAST=1 ./target/release/zivsim campaign smoke \
    --audit sampled --threads 1 --results-dir "$SMOKE_DIR"

echo "== flight-recorder smoke campaign (observability must not touch results)"
# The same campaign with every capture on: epoch-sliced time series,
# full event tracing, and occupancy heatmaps. The result artifacts
# (ledger + grid.csv) must be byte-identical to the untraced run —
# observability that perturbs results is a gate failure.
ZIV_FAST=1 ./target/release/zivsim campaign smoke \
    --audit sampled --threads 1 --results-dir "$TRACED_DIR" \
    --epoch 500 --events all --heatmap
diff "$SMOKE_DIR/ledger.jsonl" "$TRACED_DIR/ledger.jsonl"
diff "$SMOKE_DIR/grid.csv"     "$TRACED_DIR/grid.csv"
test -s "$TRACED_DIR/timeseries.csv"
test -s "$TRACED_DIR/heatmap.csv"

echo "== profiled smoke campaign (latency observatory must not touch results)"
# The same campaign again with the latency observatory and the
# wall-clock self-profiler on. Timing is nondeterministic; results must
# not be: ledger + grid.csv stay byte-identical to the plain run, while
# latency.csv and profile.json appear alongside them.
PROFILED_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$TRACED_DIR" "$PROFILED_DIR"' EXIT
ZIV_FAST=1 ./target/release/zivsim campaign smoke \
    --audit sampled --threads 1 --results-dir "$PROFILED_DIR" \
    --latency --profile
diff "$SMOKE_DIR/ledger.jsonl" "$PROFILED_DIR/ledger.jsonl"
diff "$SMOKE_DIR/grid.csv"     "$PROFILED_DIR/grid.csv"
test -s "$PROFILED_DIR/latency.csv"
test -s "$PROFILED_DIR/profile.json"
# The profiler counts every span and times a sample of the accesses:
# every cell and the total must count and time `hierarchy`, and the
# whole access must hold the replacement, directory and DRAM spans
# nested in it (their estimates share one scale factor per cell).
python3 - "$PROFILED_DIR/profile.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
entries = [(c["config"] + " x " + c["workload"], c["sections"]) for c in doc["cells"]]
if not entries:
    sys.exit("FAIL profile.json has no cells")
entries.append(("total", doc["total"]))
bad = False
for name, s in entries:
    h = s["hierarchy"]
    nested = sum(s[k]["nanos"] for k in ("replacement", "directory", "dram"))
    if h["calls"] <= 0 or h["nanos"] <= 0:
        print(f"FAIL {name}: hierarchy not counted and timed: {h}")
        bad = True
    if h["nanos"] < nested:
        print(f"FAIL {name}: hierarchy {h['nanos']} ns < nested sections {nested} ns")
        bad = True
sys.exit(1 if bad else 0)
PY

echo "== forensics smoke campaign (blame conservation + perfetto validity)"
# The same campaign with the forensics observatory and the Perfetto
# exporter on. Three gates: (1) result artifacts stay byte-identical —
# ledger, grid.csv, AND summary.csv; (2) the blame matrix conserves —
# per campaign cell, the sum of blame.csv victim cells equals the
# grid.csv inclusion_victims column exactly, with every ZIV row
# exactly zero (zeros are emitted explicitly, so the guarantee is
# checked positively); (3) trace.json is one valid JSON document.
FORENSICS_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$TRACED_DIR" "$PROFILED_DIR" "$FORENSICS_DIR"' EXIT
ZIV_FAST=1 ./target/release/zivsim campaign smoke \
    --audit sampled --threads 1 --results-dir "$FORENSICS_DIR" \
    --forensics --perfetto
diff "$SMOKE_DIR/ledger.jsonl" "$FORENSICS_DIR/ledger.jsonl"
diff "$SMOKE_DIR/grid.csv"     "$FORENSICS_DIR/grid.csv"
diff "$SMOKE_DIR/summary.csv"  "$FORENSICS_DIR/summary.csv"
awk -F, '
    FNR == 1 {
        file++
        if (file == 1) { for (i = 1; i <= NF; i++) if ($i == "inclusion_victims") g = i }
        else           { for (i = 1; i <= NF; i++) if ($i == "victims") v = i }
        next
    }
    file == 1 { want[$1 "," $2] = $g + 0 }
    file == 2 {
        got[$1 "," $2] += $v + 0
        seen[$1 "," $2] = 1
        if ($1 ~ /^ZIV/ && $v + 0 != 0) { print "FAIL ZIV blame row nonzero: " $0; bad = 1 }
    }
    END {
        if (!g) { print "FAIL no inclusion_victims column in grid.csv"; exit 1 }
        if (!v) { print "FAIL no victims column in blame.csv"; exit 1 }
        cells = 0
        for (k in want) {
            cells++
            if (!(k in seen)) { print "FAIL cell missing from blame.csv: " k; bad = 1 }
            else if (got[k] != want[k]) {
                print "FAIL blame does not conserve for " k ": grid=" want[k] " blame=" got[k]
                bad = 1
            }
        }
        if (!cells) { print "FAIL empty grid.csv"; exit 1 }
        if (bad) exit 1
    }' "$FORENSICS_DIR/grid.csv" "$FORENSICS_DIR/blame.csv"
python3 -m json.tool "$FORENSICS_DIR/trace.json" > /dev/null

echo "== attack-eval smoke campaign (leakage gate + resume byte-identity)"
# The side-channel acceptance invariant through the release binary:
# every attack scenario under every defense mode, audited. The gate is
# the paper's security claim — inclusive rows must show a nonzero
# attacker-observable signal and every ZIV row must be exactly zero.
ATK_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$TRACED_DIR" "$PROFILED_DIR" "$FORENSICS_DIR" "$ATK_DIR"' EXIT
ZIV_FAST=1 ./target/release/zivsim campaign attack-eval \
    --audit sampled --threads 1 --results-dir "$ATK_DIR"
awk -F, '
    NR == 1 { for (i = 1; i <= NF; i++) if ($i == "signal_evictions") c = i; next }
    $1 ~ /^I-/   { inc++; if ($c + 0 == 0) { print "FAIL inclusive row without signal: " $0; bad = 1 } }
    $1 ~ /^ZIV-/ { ziv++; if ($c + 0 != 0) { print "FAIL ZIV row with signal: " $0; bad = 1 } }
    END {
        if (!c)   { print "FAIL no signal_evictions column"; exit 1 }
        if (!inc) { print "FAIL no inclusive rows in leakage.csv"; exit 1 }
        if (!ziv) { print "FAIL no ZIV rows in leakage.csv"; exit 1 }
        if (bad) exit 1
    }' "$ATK_DIR/leakage.csv"
# Resuming the finished campaign must be a byte-level no-op on the
# result artifacts (cells all cached), and the resumed leakage.csv is
# header-only — cached cells are not re-simulated, so they contribute
# no observations (same rule as timeseries.csv).
cp "$ATK_DIR/ledger.jsonl" "$ATK_DIR/grid.csv" "$ATK_DIR/summary.csv" "$TRACED_DIR/"
ZIV_FAST=1 ./target/release/zivsim campaign attack-eval \
    --audit sampled --threads 1 --resume --results-dir "$ATK_DIR"
diff "$TRACED_DIR/ledger.jsonl" "$ATK_DIR/ledger.jsonl"
diff "$TRACED_DIR/grid.csv"     "$ATK_DIR/grid.csv"
diff "$TRACED_DIR/summary.csv"  "$ATK_DIR/summary.csv"
test "$(wc -l < "$ATK_DIR/leakage.csv")" -eq 1

echo "== sampled smoke campaign (sampling gate: accuracy, speedup, byte-identity)"
# The statistical-sampling acceptance invariant through the release
# binary, at full effort so the traces are several LLC warm horizons
# long (the regime where the auto plan actually skips). The validated
# pass runs every cell twice — full-fidelity and sampled — and the gate
# holds the paper-reproduction bar: every sampled IPC estimate lands
# inside its own reported 95% confidence interval of the full-run
# value, and the sampled pass is at least 3x faster in aggregate.
# Estimates are deterministic; only the wall-clock ratio varies, and a
# cell runs only 30-230 ms, so one slow host phase can sink a single
# pass: the validated campaign runs three times, every row of every
# pass must pass the accuracy checks, and the speedup is taken over all
# rows of all three passes.
SAMP_DIR="$(mktemp -d)"
SAMP_PLAIN="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$TRACED_DIR" "$PROFILED_DIR" "$FORENSICS_DIR" "$ATK_DIR" "$SAMP_DIR" "$SAMP_PLAIN"' EXIT
for pass in 1 2 3; do
    ZIV_FULL=1 ./target/release/zivsim campaign smoke \
        --sampling auto --validate --threads 1 --results-dir "$SAMP_DIR/$pass"
    test -s "$SAMP_DIR/$pass/sampling.csv"
done
awk -F, '
    FNR == 1 {
        for (i = 1; i <= NF; i++) {
            if ($i == "within_ci")  wc = i
            if ($i == "rel_error")  re = i
            if ($i == "full_ms")    fm = i
            if ($i == "sampled_ms") sm = i
        }
        next
    }
    {
        rows++
        full += $fm; sampled += $sm
        if ($wc + 0 != 1) { print "FAIL full-run IPC outside the sampled CI: " FILENAME ": " $0; bad = 1 }
        if ($re + 0 >= 0.10) { print "FAIL sampled estimate off by >=10%: " FILENAME ": " $0; bad = 1 }
    }
    END {
        if (!wc || !re || !fm || !sm) { print "FAIL validation.csv missing gate columns"; exit 1 }
        if (rows < 12) { print "FAIL three validation.csv passes hold only " rows " rows"; exit 1 }
        printf "sampling gate: %d rows over 3 passes, aggregate speedup %.2fx\n", rows, full / sampled
        if (full < 3 * sampled) { print "FAIL sampled passes fewer than 3x faster"; exit 1 }
        if (bad) exit 1
    }' "$SAMP_DIR"/1/validation.csv "$SAMP_DIR"/2/validation.csv "$SAMP_DIR"/3/validation.csv
# Sampling must be a pure rider: the full-fidelity artifacts every
# validated pass produced are byte-identical to a plain campaign's — no
# sampled estimate ever reaches the ledger or the CSVs.
ZIV_FULL=1 ./target/release/zivsim campaign smoke \
    --threads 1 --results-dir "$SAMP_PLAIN"
for pass in 1 2 3; do
    diff "$SAMP_PLAIN/ledger.jsonl" "$SAMP_DIR/$pass/ledger.jsonl"
    diff "$SAMP_PLAIN/grid.csv"     "$SAMP_DIR/$pass/grid.csv"
    diff "$SAMP_PLAIN/summary.csv"  "$SAMP_DIR/$pass/summary.csv"
done

echo "== live-telemetry smoke campaign (watch gate: mid-run snapshot + byte-identity)"
# The live telemetry bus through the release binary: the plain smoke
# campaign again with the seqlock shared-memory segment and JSONL
# progress heartbeats on, tailed the whole way by a concurrent
# `zivsim watch --json` started first (it waits for the segment to
# appear). The gate: the watcher streams at least one consistent
# mid-run snapshot, exits 0 on the finished flag, the campaign's
# stderr carries structured progress lines, a late watcher attaching
# after the fact exits clean immediately, and — observe never steer —
# ledger/grid/summary are byte-identical to the unwatched ZIV_FULL
# run above.
TELEM_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$TRACED_DIR" "$PROFILED_DIR" "$FORENSICS_DIR" "$ATK_DIR" "$SAMP_DIR" "$SAMP_PLAIN" "$TELEM_DIR"' EXIT
./target/release/zivsim watch "$TELEM_DIR/results" \
    --json --refresh 10 --stale-after 30000 > "$TELEM_DIR/watch.jsonl" &
WATCH_PID=$!
ZIV_FULL=1 ./target/release/zivsim campaign smoke \
    --threads 1 --results-dir "$TELEM_DIR/results" \
    --telemetry on --progress jsonl 2> "$TELEM_DIR/progress.jsonl"
# Exit 0 here means the watcher saw the finished flag — not a timeout.
wait "$WATCH_PID"
grep -q '"finished":false' "$TELEM_DIR/watch.jsonl"
grep -q '"finished":true'  "$TELEM_DIR/watch.jsonl"
grep -q '"type":"progress"' "$TELEM_DIR/progress.jsonl"
# A watcher attaching after the campaign reads the persisted final
# state and exits clean at once instead of spinning.
./target/release/zivsim watch "$TELEM_DIR/results" --json --once \
    | grep -q '"finished":true'
diff "$SAMP_PLAIN/ledger.jsonl" "$TELEM_DIR/results/ledger.jsonl"
diff "$SAMP_PLAIN/grid.csv"     "$TELEM_DIR/results/grid.csv"
diff "$SAMP_PLAIN/summary.csv"  "$TELEM_DIR/results/summary.csv"

echo "== chaos-soak drill (supervision gate: every injected fault isolated)"
# The supervised-execution acceptance drill through the release binary:
# a fault-free pass of the soak grid, a chaos pass with four seeded
# injected faults (corrupt-directory, skip-back-invalidation, stall,
# panic), the isolation audit (expected error kinds, repro records,
# surviving cells byte-identical to the fault-free pass), and the
# torn-ledger crash-recovery resume. Exit code 3 is the pass verdict
# per the documented contract — failures present, all isolated.
# 0 would mean the injectors never fired; 4 means a supervision
# guarantee broke.
SOAK_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$TRACED_DIR" "$PROFILED_DIR" "$FORENSICS_DIR" "$ATK_DIR" "$SAMP_DIR" "$SAMP_PLAIN" "$TELEM_DIR" "$SOAK_DIR"' EXIT
set +e
ZIV_FAST=1 ./target/release/zivsim soak \
    --threads 2 --results-dir "$SOAK_DIR/results" > "$SOAK_DIR/soak.out" 2>&1
SOAK_EXIT=$?
set -e
cat "$SOAK_DIR/soak.out"
test "$SOAK_EXIT" -eq 3
grep -q "every guarantee held" "$SOAK_DIR/soak.out"
grep -q "torn tail detected = true" "$SOAK_DIR/soak.out"

echo "== wall-clock budget drill (every cell past --cell-timeout isolated)"
# The per-cell deadline through the release binary. A full-size smoke
# cell issues about 160k accesses and the drivers check the deadline
# every 256, so no cell can finish in 1 ms: the campaign must exit 3,
# every ledgered failure must be a timeout naming the budget, and each
# failed cell must leave exactly one repro record.
DEADLINE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$TRACED_DIR" "$PROFILED_DIR" "$FORENSICS_DIR" "$ATK_DIR" "$SAMP_DIR" "$SAMP_PLAIN" "$TELEM_DIR" "$SOAK_DIR" "$DEADLINE_DIR"' EXIT
set +e
ZIV_FULL=1 ./target/release/zivsim campaign smoke \
    --threads 1 --cell-timeout 1 --results-dir "$DEADLINE_DIR/results" \
    > "$DEADLINE_DIR/campaign.out" 2>&1
DEADLINE_EXIT=$?
set -e
cat "$DEADLINE_DIR/campaign.out"
test "$DEADLINE_EXIT" -eq 3
python3 - "$DEADLINE_DIR/results" <<'PY'
import json, os, sys
results = sys.argv[1]
failed = set()
bad = False
for line in open(os.path.join(results, "ledger.jsonl")):
    entry = json.loads(line)
    error = entry.get("error")
    if error is None:
        continue
    failed.add(entry["digest"])
    if error["kind"] != "timeout" or "wall-clock budget 1ms exceeded" not in error["message"]:
        print(f"FAIL {entry['label']} x {entry['workload']}: not a wall-clock timeout: {error}")
        bad = True
records = {name[: -len(".json")] for name in os.listdir(os.path.join(results, "failures"))}
if not failed:
    sys.exit("FAIL the ledger holds no failed cell")
if records != failed:
    print(f"FAIL repro records {sorted(records)} != failed cells {sorted(failed)}")
    bad = True
print(f"wall-clock drill: {len(failed)} cell(s) timed out, {len(records)} repro record(s)")
sys.exit(1 if bad else 0)
PY

echo "== figures bench (guarantees + cached rerun byte-identity)"
# The figure-regeneration bench target on one registry entry, twice.
# The first run simulates every cell and fails on a broken exact-zero
# guarantee; the rerun must serve every cell from the ledger and leave
# ledger.jsonl and grid.csv byte-identical.
FIG_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$TRACED_DIR" "$PROFILED_DIR" "$FORENSICS_DIR" "$ATK_DIR" "$SAMP_DIR" "$SAMP_PLAIN" "$TELEM_DIR" "$SOAK_DIR" "$DEADLINE_DIR" "$FIG_DIR"' EXIT
FIG=fig18-reloc-intervals
for pass in 1 2; do
    ZIV_FAST=1 ZIV_RESULTS_DIR="$FIG_DIR/results" \
        cargo bench -q -p ziv-bench --bench figures -- "$FIG" > "$FIG_DIR/$pass.out"
    cp "$FIG_DIR/results/$FIG/ledger.jsonl" "$FIG_DIR/ledger.$pass"
    cp "$FIG_DIR/results/$FIG/grid.csv" "$FIG_DIR/grid.$pass"
done
cat "$FIG_DIR/2.out"
grep -q '^\[0 of [0-9]* cells from cache' "$FIG_DIR/1.out"
grep -Eq '^\[([0-9]+) of \1 cells from cache' "$FIG_DIR/2.out"
diff "$FIG_DIR/ledger.1" "$FIG_DIR/ledger.2"
diff "$FIG_DIR/grid.1" "$FIG_DIR/grid.2"

echo "CI OK"
