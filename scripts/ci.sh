#!/usr/bin/env bash
# Tier-1 gate, runnable locally or in CI. The workspace has no network
# dependencies (see Cargo.toml): everything below works fully offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc over the project crates (the vendor/ shim excluded): a broken
# intra-doc link, such as one to an item that was deleted or is private,
# fails the gate.
echo "==> cargo doc (project crates, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --exclude proptest

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo build --examples"
cargo build --release --workspace --examples

echo "==> cargo test (workspace)"
cargo test --workspace -q

# Helper-thread delivery in release: there the kernel outruns a helper
# thread that carries the invariant checker's comparisons, so the relay
# waits on a full channel and reuses the batches (and sweep buffers) the
# helper sends back. The debug run above rarely gets that far ahead.
echo "==> observer delivery and conformance (release)"
cargo test --release -q --test observer_delivery --test observer_conformance

# Deeper differential pass over the kernel's oracles: the timer wheel vs
# the reference heap, the executor's arrival merge vs seeding arrivals
# into the heap, the pools' lane wait queue and its per-core sublists
# (take_fitting) vs an ordered map, the failed-preemption memo vs a
# full scan, and the streaming workers' id clock vs the materialized
# trace's ids at 1-5 shards — 16x the default 64 proptest cases, about
# two seconds in release.
echo "==> differential proptests, 1024 cases (engine, cluster, workload)"
PROPTEST_CASES=1024 cargo test --release -q -p netbatch-sim-engine -p netbatch-cluster \
  -p netbatch-workload

# Proptest persistence discipline: a shrunk failure worth keeping gets
# promoted to an explicit named regression test (see
# regression_single_machine_filling_job_completes), never committed as
# generator state. If the test run above left a *.proptest-regressions
# file behind — or modified one — that is unpinned drift; fail loudly.
echo "==> proptest regression files did not drift"
# Deletions are exempt: removing a regressions file is the remedy, not
# the drift (the guard would otherwise fail the very commit that fixes
# it). Anything untracked, modified, or newly added fails.
drift="$(git status --porcelain -- '*.proptest-regressions' | grep -v '^D' || true)"
if [ -n "$drift" ]; then
  printf '%s\n' "$drift" >&2
  echo "error: proptest regression file drift — promote the shrunk case to a named test and remove the file" >&2
  exit 1
fi

# Quick invariant-checked reproduction: every cell of every table runs
# under the online conservation/lifecycle checker, which panics (failing
# this step) on the first violation. Shape checks are informational at
# this scale (--smoke): they gate at report scale, in the next step.
echo "==> invariant-checked quick repro (scale 0.02)"
cargo run --release -p netbatch-bench --bin repro -- \
  --scale 0.02 --check-invariants --smoke

# The paper's claims gate at the default (report) scale: `repro` with no
# arguments runs `all` and exits 1 if any of the 17 shape checks fails
# (under a second in release). pipefail carries that exit through `tail`,
# which keeps the log to the shape-check summary.
echo "==> shape checks gate at the default scale"
cargo run --release -p netbatch-bench --bin repro | tail -n 21

# Chaos smoke: a small faulty run with the hardened resilience policy,
# under the online invariant checker (which now also enforces the fault
# discipline: down machines host nothing, backoff ordering, blacklist
# cooldowns). Any violation panics and fails this step.
echo "==> invariant-checked chaos smoke (faults on, hardened)"
cargo run --release --bin netbatch -- simulate \
  --scale 0.02 --strategy ResSusWaitUtil --check-invariants \
  --fault-mtbf 24 --fault-mttr 4 --fault-pool-outages 1 \
  --fault-flaky 0.05 --hardened

# Lifecycle smoke: scheduled maintenance drains, a rolling-update wave
# and health cordons with proactive evacuation, layered over stochastic
# faults, under the online invariant checker (which also enforces the
# lifecycle discipline: no dispatch onto draining machines, legal
# drain/undrain alternation, evacuations inside their drain windows).
# Any violation panics and fails this step.
echo "==> invariant-checked lifecycle smoke"
cargo run --release --bin netbatch -- simulate \
  --scale 0.02 --strategy ResSusWaitUtil --check-invariants \
  --lifecycle --health-aware \
  --fault-mtbf 24 --fault-mttr 4 --fault-flaky 0.05

# Degradation gate: under a heavy lifecycle tier the health-aware
# configuration must actually evacuate — a regression that silently
# disables the proactive-evacuation path fails here — and its mean
# completion time must not be worse than the health-blind baseline's.
echo "==> lifecycle degradation gate (health-aware vs health-blind)"
cargo test --release -q --test lifecycle

# Telemetry smoke: a sampled run exporting the Prometheus exposition,
# then the report pipeline rendering markdown + CSVs from the same
# telemetry. The simulate step validates the exposition before writing
# (a malformed file fails the run); the greps assert the headline
# families and the report's paper-figure sections actually rendered.
echo "==> telemetry smoke (exposition + report)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cargo run --release --bin netbatch -- simulate \
  --scale 0.02 --strategy ResSusWaitUtil --sample \
  --metrics-out "$tmpdir/run.prom"
grep -q '^netbatch_run_info{strategy="ResSusWaitUtil"' "$tmpdir/run.prom"
grep -q '^netbatch_span_open 0$' "$tmpdir/run.prom"
grep -q '^netbatch_span_unmatched_total 0$' "$tmpdir/run.prom"
cargo run --release --bin netbatch -- report \
  --scale 0.02 --strategy ResSusWaitUtil \
  --out "$tmpdir/report.md" --csv-prefix "$tmpdir/fig"
grep -q '^## Suspension-time CDF (Figure 2)$' "$tmpdir/report.md"
grep -q '^## Site timeline (Figure 4, 100-minute buckets)$' "$tmpdir/report.md"
test -s "$tmpdir/fig_cdf.csv" && test -s "$tmpdir/fig_timeline.csv" \
  && test -s "$tmpdir/fig_pools.csv"

# Closed-stdout smoke: a reader that quits early closes the pipe, and the
# rest of the output is dropped with exit 0 (pipefail is on, so a panic or
# non-zero exit fails the step). `head -n 1` may still drain a short run's
# output in time; `true` reads nothing and is gone before the summary is
# printed, so the second run always writes into a closed pipe. The third
# does the same with the JSONL event trace on stdout (`--trace-out -`).
echo "==> closed stdout is a clean exit"
cargo run --release --bin netbatch -- simulate --scale 0.02 | head -n 1
cargo run --release --bin netbatch -- simulate --scale 0.05 | true
cargo run --release --bin netbatch -- simulate --scale 0.05 --trace-out - | true

# Orphan tuning flags: a flag whose switch is off is rejected (exit 2),
# naming the switch, instead of being silently ignored.
echo "==> orphan tuning flags are rejected"
if cargo run --release --bin netbatch -- simulate --scale 0.002 --fault-mttr 6 \
  2> "$tmpdir/orphan.err"; then
  echo "error: --fault-mttr without --fault-mtbf was accepted" >&2
  exit 1
fi
grep -q 'needs --fault-mtbf' "$tmpdir/orphan.err"

# Trace CSV round trip: a week generated to a CSV file and read back must
# simulate exactly as the same week generated in memory, line for line
# except the wall-time line.
echo "==> trace CSV round trip (simulate --trace vs --scenario)"
cargo run --release --bin netbatch -- generate \
  --scale 0.02 --seed 7 --out "$tmpdir/week.csv"
cargo run --release --bin netbatch -- simulate \
  --trace "$tmpdir/week.csv" --scale 0.02 --seed 7 --strategy ResSusWaitUtil \
  | grep -v '^simulated ' > "$tmpdir/from_csv.txt"
cargo run --release --bin netbatch -- simulate \
  --scenario normal --scale 0.02 --seed 7 --strategy ResSusWaitUtil \
  | grep -v '^simulated ' > "$tmpdir/in_memory.txt"
diff "$tmpdir/from_csv.txt" "$tmpdir/in_memory.txt"

# Provenance trace smoke: record spans on a chaos run, query one job's
# causal chain (with the --why decision audit) through the trace CLI,
# export and JSON-validate a Perfetto trace, and reconcile the span
# stream against the Telemetry phase histograms and run counters from
# the same event stream (the cargo test at the end does the exact
# arithmetic; the greps here assert the CLI surfaces are live).
echo "==> provenance trace smoke (spans, --why audit, Perfetto)"
cargo run --release --bin netbatch -- simulate \
  --scale 0.02 --strategy ResSusWaitUtil --seed 7 \
  --lifecycle --health-aware --hardened \
  --fault-mtbf 24 --fault-mttr 4 \
  --spans-out "$tmpdir/run.spans.jsonl" --profile-out "$tmpdir/run.folded"
head -n 1 "$tmpdir/run.spans.jsonl" | grep -q '"schema":"netbatch-spans/1"'
grep -q '^netbatch;serial;' "$tmpdir/run.folded"
# The first evacuated job must answer `trace --why` with its decisions.
evac_job="$(grep -m1 '"type":"evac"' "$tmpdir/run.spans.jsonl" \
  | sed 's/.*"job":\([0-9]*\).*/\1/')"
cargo run --release --bin netbatch -- trace \
  --in "$tmpdir/run.spans.jsonl" --why "$evac_job" > "$tmpdir/why.txt"
grep -q "^why job $evac_job:" "$tmpdir/why.txt"
grep -q 'evacuation of job' "$tmpdir/why.txt"
cargo run --release --bin netbatch -- trace \
  --in "$tmpdir/run.spans.jsonl" --perfetto-out "$tmpdir/run.perfetto.json"
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); assert d['traceEvents'], 'empty trace'" \
  "$tmpdir/run.perfetto.json"
echo "==> provenance reconciliation (spans vs telemetry vs counters)"
cargo test --release -q --test provenance

# Streaming pipeline smoke: a year-window run through the CLI front end
# on 2 shards (shard 0 runs on the coordinator thread, shard 1 on a
# worker thread). The workload is generated and numbered shard-locally
# minute by minute (never materialized), so this exercises the full
# pipeline — per-shard generation, coordinator merge, kernel profiler
# lanes — at the paper's full trace span in under a second. The greps pin the
# profiler's lane split: coordinator merge vs per-shard generate.
echo "==> streaming pipeline smoke (year window, 2 shards)"
cargo run --release --bin netbatch -- simulate \
  --stream-workload --pools 8 --horizon year --scale 0.02 --seed 11 \
  --shards 2 --profile-out "$tmpdir/stream.folded"
grep -q '^netbatch;coordinator;merge ' "$tmpdir/stream.folded"
grep -q '^netbatch;shard0;generate ' "$tmpdir/stream.folded"
grep -q '^netbatch;shard1;submit ' "$tmpdir/stream.folded"
# The same run on 1 shard takes the thread-free path: the coordinator
# runs shard 0 inline and spawns no worker, yet both profiler lanes
# must still be there.
echo "==> streaming pipeline smoke (year window, 1 shard, no worker thread)"
cargo run --release --bin netbatch -- simulate \
  --stream-workload --pools 8 --horizon year --scale 0.02 --seed 11 \
  --shards 1 --profile-out "$tmpdir/stream1.folded"
grep -q '^netbatch;coordinator;merge ' "$tmpdir/stream1.folded"
grep -q '^netbatch;shard0;generate ' "$tmpdir/stream1.folded"
# The streaming run's sinks are the materialized run's code: a week on
# 2 shards must write the series CSV under its header and a non-empty
# trace JSONL.
echo "==> streaming sinks smoke (series CSV, trace JSONL, 2 shards)"
cargo run --release --bin netbatch -- simulate \
  --stream-workload --pools 8 --horizon week --scale 0.02 --seed 11 \
  --shards 2 --series-out "$tmpdir/stream.csv" --trace-out "$tmpdir/stream.jsonl"
head -n 1 "$tmpdir/stream.csv" | grep -qx 'minute,suspended,utilization_pct,waiting'
test "$(wc -l < "$tmpdir/stream.csv")" -gt 1
test -s "$tmpdir/stream.jsonl"
echo "==> streaming conformance (golden matrix, materialized parity)"
cargo test --release -q --test streaming_conformance
# The golden fixtures in a release build as well: both kernels run the
# same generic pool step, and release builds wrap on overflow and drop
# every debug_assert, so byte-identity checked only in debug would miss
# what the shipped binary does. The retirement suite rides along: an
# unobserved run (records only while in flight) must report what an
# observed one does, in the shipped binary too.
echo "==> golden fixtures and record retirement (release)"
cargo test --release -q --test golden_trace --test golden_chaos \
  --test golden_lifecycle --test golden_staleness --test golden_matrix \
  --test retirement

# The observer layer in a release build too: there the helper thread
# that feeds the observers reading only events (Telemetry, the span
# recorder, trace recorders with a memory or file sink) really overlaps
# the kernel, batches fill faster than the helper drains them, and a
# race in the hand-off would show. The renderings must stay pinned and
# equal to kernel-thread delivery, and panics must not hang.
echo "==> observer renderings, conformance and helper-thread delivery (release)"
cargo test --release -q --test render_digests --test observer_conformance \
  --test observer_delivery

# Benchmark contract: perfbench's own tests check that the metric names
# it prints match BENCHMARK.json and that instrumentation never changes
# what is simulated; the smoke run then drives every workload at a short
# length and fails on any output-check error (non-zero exit). perfbench
# is a workspace of its own, so it needs its own manifest path.
echo "==> benchmark contract tests (perfbench)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml
# The same contract tests in a debug build: every dispatch then also runs
# the debug-assert cross-checks (indexed first fit vs the reference scan,
# index consistency), so traced_repetitions_simulate_exactly_what_plain_ones_do
# guards every kernel change with the oracles switched on (about 20 s).
echo "==> benchmark contract tests (perfbench, debug assertions)"
cargo test --offline -q --manifest-path perfbench/Cargo.toml
echo "==> benchmark smoke (all workloads, 2 s)"
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
  --workload all --seconds 2 > "$tmpdir/perfbench.out" \
  || { cat "$tmpdir/perfbench.out"; exit 1; }
grep '^digest ' "$tmpdir/perfbench.out"
# Behaviour gate: perfbench's digest lines (counters, Table rows, prom and
# span hashes) at seeds 20101108 and 7 must equal the committed fixture
# byte for byte. A change meant to alter what is simulated regenerates it
# with `UPDATE_GOLDEN=1 scripts/perfbench_digests.sh`.
echo "==> perfbench digests match tests/golden/perfbench_digests.txt"
scripts/perfbench_digests.sh

# Perf budgets that do not depend on timing: allocations per event on
# two normal-load cells at scale 0.02 stay under a fixed ceiling, as do
# allocations per record of generating a week and its specs and per job
# of a streaming run (catching a per-job copy of a pool set), an
# unobserved serial run's peak heap per job stays near its in-flight
# records (catching a record table built up front), a streaming run's
# peak heap per core of the site stays near one slab entry and one
# index bucket per in-flight job (streaming_peak_heap_per_site_core,
# catching records kept by value in hash buckets) and stays flat when
# its horizon quadruples (catching anything that retains per-job state
# past completion) and when the same load spreads over ten times the
# pools (catching per-pool structures that scale with the queue), and
# Telemetry's heap stays flat when a week is sampled every minute
# instead of every hour (catching series that keep their samples).
# Timing is judged by perfbench's paired runs on one host, not gated
# here.
echo "==> perf budgets (allocs per event/record/job, serial memory, streaming_peak_heap_per_site_core and streaming memory flatness, telemetry memory)"
cargo test --release -q -p netbatch-bench --test perf_budgets

echo "ci: all green"
