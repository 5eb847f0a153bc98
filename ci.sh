#!/bin/sh
# Tier-1 verification, fully offline: the workspace has no registry
# dependencies, so everything below must succeed with no network access.
#
# Every gate runs twice — with default features (all tracing hooks are
# no-ops) and with `--features trace` (the live observability layer) —
# so neither configuration can rot.
set -eux

cd "$(dirname "$0")"

# Default features: the production configuration.
cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings

# Unit service smoke test: boot the release unitsd on a throwaway
# socket and drive the wire protocol end to end from a second-parser
# client (scripts/unitsd_client.py speaks the 4-byte-length-prefixed
# JSON frames with python's own json module, so the rust Client cannot
# mask a framing bug): two tenants, load, invoke, a linked plug-in (a
# sealed constituent, a rename pair and hidden cells), a run nested past
# the reader's cap, hot swap, per-version artifacts, per-request budgets,
# admission denial, mistyped and out-of-range fields, stats, shutdown.
# The smoke runs once per compiled backend — the default tree-walker,
# then `--backend bytecode` — since each wires linked plug-ins from the
# same link plans. The richer concurrency/chaos coverage lives in
# crates/units-serve/tests and runs in the cargo test sweeps.
if command -v python3 >/dev/null 2>&1; then
    for backend in compiled bytecode; do
        ./target/release/unitsd --socket .ci-unitsd.sock --level untyped --fuel 1000000 \
            --backend "$backend" &
        UNITSD_PID=$!
        python3 scripts/unitsd_client.py smoke .ci-unitsd.sock
        wait "$UNITSD_PID"
        test ! -e .ci-unitsd.sock
    done
fi

# Reclaim smoke: every run's store (its cells and hash tables) is
# emptied when the run ends, and values drop in bounded stack. Against a
# daemon with no fuel cap — the deep programs need far more than the
# smoke's 1,000,000 steps — on each compiled backend: 2,000 invokes of
# a 32-unit chain plug-in must grow the daemon's VmRSS by under 4 MiB
# (a leaking store grows it by about 64 MiB); five programs that each
# build a structure 1,000,000 deep (a datatype list, tuples, closures,
# recursive closures in cells, hash tables) and drop it must return 42
# while a second tenant's invokes keep being answered; and `stats` must
# report no retained cells.
if command -v python3 >/dev/null 2>&1; then
    for backend in compiled bytecode; do
        ./target/release/unitsd --socket .ci-unitsd.sock --level untyped --backend "$backend" &
        UNITSD_PID=$!
        python3 scripts/unitsd_client.py reclaim .ci-unitsd.sock "$UNITSD_PID"
        wait "$UNITSD_PID"
        test ! -e .ci-unitsd.sock
    done
fi

# Persistent-store gates. (1) Cross-process warm start: a second daemon
# process over the same --cache-dir must answer the same `run` from
# disk — the engine reports zero parses. (2) Corrupt-cache smoke: flip
# one byte of the on-disk entry; the next process must quarantine it,
# recompile, and still answer correctly.
if command -v python3 >/dev/null 2>&1; then
    rm -rf .ci-store-cache
    ./target/release/unitsd --socket .ci-unitsd.sock --level untyped --cache-dir .ci-store-cache &
    UNITSD_PID=$!
    python3 scripts/unitsd_client.py cold .ci-unitsd.sock
    wait "$UNITSD_PID"
    ./target/release/unitsd --socket .ci-unitsd.sock --level untyped --cache-dir .ci-store-cache &
    UNITSD_PID=$!
    python3 scripts/unitsd_client.py warm .ci-unitsd.sock
    wait "$UNITSD_PID"
    python3 scripts/unitsd_client.py flip .ci-store-cache
    ./target/release/unitsd --socket .ci-unitsd.sock --level untyped --cache-dir .ci-store-cache &
    UNITSD_PID=$!
    python3 scripts/unitsd_client.py corrupt .ci-unitsd.sock
    wait "$UNITSD_PID"
    test ! -e .ci-unitsd.sock
    # The bad entry was moved aside, not deleted: the quarantine holds
    # evidence and the recompile rewrote a fresh entry next to it.
    test -n "$(ls .ci-store-cache/corrupt)"
    test -n "$(ls .ci-store-cache/*.unit)"
    rm -rf .ci-store-cache
fi

# With tracing compiled in.
cargo build --release --features trace
cargo test -q --features trace
cargo clippy --workspace --all-targets --features trace -- -D warnings

# Engine determinism: with the worker pool pinned to one thread, batch
# loading must degenerate to sequential in-thread loads and the whole
# suite must still pass (tests/engine.rs compares parallel-vs-sequential
# batches and cold-vs-warm trace streams).
UNITS_ENGINE_THREADS=1 cargo test -q --features trace --test engine

# And pinned wide: with an 8-thread pool, batch workers run the whole
# parse→check→resolve→lower pipeline per job and share artifacts
# through the Send+Sync cache — the full suite must be thread-count
# invariant, and the chaos harness must keep its per-job fault
# schedules deterministic when jobs land on many workers.
UNITS_ENGINE_THREADS=8 cargo test -q --features trace
UNITS_ENGINE_THREADS=8 cargo test -q --features faults --test faults

# The bench tables must emit a machine-readable summary. The binary
# self-validates the document with units_trace::json before writing;
# cross-check with a second parser when one is available. The summary
# must include the engine cache series, the engine's always-on metrics
# snapshot with invoke-latency percentiles, and (with --chrome-trace) a
# valid Chrome/Perfetto span export.
cargo run --release -p bench --bin tables --features trace -- --quick --json --chrome-trace >/dev/null
test -s BENCH_trace.json
grep -q repeat_invoke BENCH_trace.json
# The bytecode backend's B.2c series must be in the summary.
grep -q invoke_bytecode BENCH_trace.json
# The B.9 parallel-scaling series (threads vs. batch load / invoke).
grep -q parallel_scaling BENCH_trace.json
# The B.10 unit-service throughput series (requests/sec, p50/p99).
grep -q unit_service BENCH_trace.json
grep -q '"req_per_s"' BENCH_trace.json
grep -q '"host_parallelism"' BENCH_trace.json
grep -q '"engine_metrics"' BENCH_trace.json
grep -q '"p50_ns"' BENCH_trace.json
grep -q '"p99_ns"' BENCH_trace.json
test -s CHROME_trace.json
grep -q '"traceEvents"' CHROME_trace.json
if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json; json.load(open('BENCH_trace.json'))"
    python3 -c "import json; json.load(open('CHROME_trace.json'))"
fi
mv BENCH_trace.json .ci-bench-trace.tmp
rm -f CHROME_trace.json

# The metrics plane is always on: a default-features build must carry
# the same engine_metrics document (p50/p99 included) — and the trace
# build's hooks must not leak into the default build's dispatch loop.
# The overhead gate compares the bytecode backend's per-point timings:
# the default build must not be slower than a generous multiple of the
# trace build (catches accidentally always-live instrumentation without
# flaking on scheduler noise).
cargo run --release -p bench --bin tables -- --quick --json --chrome-trace >/dev/null
test -s BENCH_trace.json
grep -q '"engine_metrics"' BENCH_trace.json
grep -q '"p50_ns"' BENCH_trace.json
grep -q '"p99_ns"' BENCH_trace.json
test -s CHROME_trace.json
grep -q '"traceEvents"' CHROME_trace.json
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'GATE'
import json
trace = json.load(open('.ci-bench-trace.tmp'))
default = json.load(open('BENCH_trace.json'))
assert trace['trace_compiled'] is True and default['trace_compiled'] is False
def vm_points(doc):
    return {
        (r['series'], r['size']): r['bytecode_us']
        for r in doc['records']
        if r['series'].startswith('invoke_bytecode/')
    }
tp, dp = vm_points(trace), vm_points(default)
assert tp.keys() == dp.keys() and tp, (sorted(tp), sorted(dp))
for key in tp:
    assert dp[key] <= 3.0 * tp[key] + 50.0, (
        f"{key}: default build {dp[key]:.1f}us vs trace build {tp[key]:.1f}us -- "
        "did the default dispatch loop grow live instrumentation?")
print(f"trace-overhead gate: {len(tp)} vm points within tolerance")

# B.9 parallel-scaling gate: the full-pipeline worker pool must turn
# threads into wall-clock batch-load speedup — but only where the
# hardware can express it. On a host with fewer than 4 cores a speedup
# is physically impossible, so the gate degrades to a sanity floor
# (threads must not serialize the pipeline into the ground) and says
# loudly that the scaling assertion was skipped.
b9 = {
    (r['series'], r['size']): r
    for r in default['records']
    if r['experiment'] == 'parallel_scaling'
}
assert ('batch_load', '1') in b9 and ('batch_load', '4') in b9, sorted(b9)
speedup = b9[('batch_load', '1')]['us'] / b9[('batch_load', '4')]['us']
host = default['host_parallelism']
if host >= 4:
    assert speedup >= 1.5, (
        f"B.9: batch load at 4 threads is {speedup:.2f}x vs 1 thread "
        f"(< 1.5x) on a {host}-way host -- the parallel pipeline is not scaling")
    print(f"B.9 scaling gate: {speedup:.2f}x at 4 threads (host parallelism {host})")
else:
    assert speedup >= 0.2, (
        f"B.9: batch load at 4 threads is {speedup:.2f}x vs 1 thread -- "
        "pathological serialization even for a narrow host")
    print(f"B.9 scaling gate: SKIPPED >=1.5x assertion (host parallelism {host} < 4); "
          f"sanity floor held at {speedup:.2f}x")

# B.10 unit-service gate: the requests/sec series must cover 1, 2, and
# 4 concurrent tenants with sane latency percentiles. Absolute
# throughput is host-dependent and tenant scaling is physically
# impossible on a narrow host, so the gate checks shape, not speed:
# every point positive, p50 <= p99, and the 4-tenant point not
# collapsed to a crawl relative to 1 tenant.
b10 = {
    r['size']: r
    for r in default['records']
    if r['experiment'] == 'unit_service' and r['series'] == 'throughput'
}
assert {'1', '2', '4'} <= b10.keys(), sorted(b10)
for size, r in b10.items():
    assert r['req_per_s'] > 0, (size, r)
    assert 0 <= r['p50_us'] <= r['p99_us'], (size, r)
collapse = b10['4']['req_per_s'] / b10['1']['req_per_s']
assert collapse >= 0.2, (
    f"B.10: 4-tenant throughput is {collapse:.2f}x of 1-tenant -- "
    "tenancy bookkeeping is serializing the service into the ground")
print(f"B.10 service gate: {b10['1']['req_per_s']:.0f} req/s at 1 tenant, "
      f"{collapse:.2f}x relative at 4 tenants, p99 {b10['4']['p99_us']:.0f}us")
GATE
fi
rm -f BENCH_trace.json CHROME_trace.json .ci-bench-trace.tmp

# Three-backend agreement: the differential suite runs 600 random
# two-unit link topologies and 400 compounds of 3–5 clauses (rename
# pairs, shuffled ports, nested, sealed and first-class constituents)
# on the reducer, the tree-walker, and the bytecode VM, and
# must hold their observations identical in both feature configurations
# (it also runs inside the full `cargo test` sweeps above; this names
# the gate).
cargo test -q --test differential
cargo test -q --features trace --test differential

# Fault plane: the fixed-seed chaos harness (tests/faults.rs sweeps 240
# seeded schedules, including the bytecode VM's vm/dispatch site and
# its fallback path) must pass with injection compiled in, both with
# and without the tracing layer, and stay clippy-clean. The service
# chaos pass (one tenant under an armed plane, bystanders unaffected)
# rides in the same sweep; name it as its own gate.
cargo test -q --features faults
cargo test -q --features "trace faults"
cargo test -q -p units-serve --features faults --test chaos
cargo clippy --workspace --all-targets --features faults -- -D warnings
cargo clippy --workspace --all-targets --features "trace faults" -- -D warnings

# Faults-off byte-identity: the default build's trip() sites are
# inline no-ops, so a fixed REPL session must be reproducible
# byte-for-byte — and a faults build with no plane armed must produce
# exactly the same bytes as the default build.
cat > .ci-faults-session.tmp <<'SESSION'
(invoke (unit (import) (export) (init (+ (* 6 6) (* 50 2)))))
(define u (unit (import) (export) (init (* 7 3))))
(invoke u)
(invoke (compound (import) (export)
  (link ((unit (import odd) (export even)
           (define even (lambda (n) (if (= n 0) true (odd (- n 1))))))
         (with odd) (provides even))
        ((unit (import even) (export odd)
           (define odd (lambda (n) (if (= n 0) false (even (- n 1)))))
           (init (odd 13)))
         (with even) (provides odd)))))
SESSION
cargo build --release -p units-repl
./target/release/units-repl -i < .ci-faults-session.tmp > .ci-faults-off-a.tmp 2>&1
./target/release/units-repl -i < .ci-faults-session.tmp > .ci-faults-off-b.tmp 2>&1
cmp .ci-faults-off-a.tmp .ci-faults-off-b.tmp
cargo build --release -p units-repl --features faults
./target/release/units-repl -i < .ci-faults-session.tmp > .ci-faults-on.tmp 2>&1
cmp .ci-faults-off-a.tmp .ci-faults-on.tmp
rm -f .ci-faults-session.tmp .ci-faults-off-a.tmp .ci-faults-off-b.tmp .ci-faults-on.tmp
