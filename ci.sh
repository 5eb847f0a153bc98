#!/bin/sh
# Tier-1 verification, fully offline: the workspace has no registry
# dependencies, so everything below must succeed with no network access.
#
# The build, the test suite, clippy, rustdoc, the bench tables and the
# differential suite run twice — with default features (all tracing
# hooks are no-ops) and with `--features trace` (the live observability
# layer) — so neither configuration can rot. The other gates (rustfmt,
# the benchmark workspace, the examples, the `unitsd` smoke, reclaim and
# store gates, the service chaos pass and the REPL reproducibility
# check) run once, on the default build.
set -eux

cd "$(dirname "$0")"

# Default features: the production configuration.
cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
# Layout is pinned by rustfmt.toml; run `cargo fmt --all` to fix.
cargo fmt --all --check
# Only rustdoc reports a doc link to a deleted or private item, so the
# docs build with warnings denied (again below with tracing on).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The benchmark is a workspace of its own that calls the pipeline's
# public entry points (resolve, lower, evaluate, execute, the store
# codec), so a change to one of their signatures must fail here.
CARGO_TARGET_DIR=target/perfbench \
    cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
# Its own tests read `stats` fields and `unitsd --help` defaults, so a
# change to either fails here too (this is `perfbench/run.py --self-test`
# against the unitsd built above).
UNITSD="$PWD/target/release/unitsd" CARGO_TARGET_DIR=target/perfbench \
    cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

# `cargo test` builds the examples but never runs them; run each one.
for example in quickstart starter even_odd phonebook typed_phonebook \
    separate_compilation dynamic_plugins drscheme_shell; do
    cargo run -q --release -p units --example "$example" >/dev/null
done

# Unit service smoke test: boot the release unitsd on a throwaway
# socket and drive the wire protocol end to end from a second-parser
# client (scripts/unitsd_client.py speaks the 4-byte-length-prefixed
# JSON frames with python's own json module, so the rust Client cannot
# mask a framing bug): two tenants, load, invoke, a linked plug-in (a
# sealed constituent, a rename pair and hidden cells), a run nested past
# the reader's cap, hot swap, per-version artifacts, per-request budgets,
# admission denial, mistyped and out-of-range fields, stats, shutdown.
# The smoke runs once per backend — the default tree-walker, then
# `--backend bytecode`, which wire linked plug-ins from the same link
# plans, then `--backend reducer`, the Fig. 11 oracle, which answers the
# same requests by substitution. The richer concurrency/chaos coverage
# lives in crates/units-serve/tests and runs in the cargo test sweeps.
if command -v python3 >/dev/null 2>&1; then
    for backend in compiled bytecode reducer; do
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
# (a leaking store grows it by about 64 MiB) and peak at 225 store
# cells, which shows the daemon runs the chain's compound flattened into
# one unit at resolution (wired from a link plan it takes 449); five
# programs that each build a structure 1,000,000 deep (a datatype list,
# tuples, closures, recursive closures in cells, hash tables) and drop
# it must return 42 while a second tenant's invokes keep being answered;
# and `stats` must report no retained cells.
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
# The B.9 parallel-scaling series (threads vs. concurrent invoke).
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
mv BENCH_trace.json .ci-bench-trace-1.tmp
rm -f CHROME_trace.json
# Four more runs for the trace-overhead gate below, which takes each
# point's minimum over five runs of each build.
for run in 2 3 4 5; do
    cargo run -q --release -p bench --bin tables --features trace -- --quick --json >/dev/null
    mv BENCH_trace.json ".ci-bench-trace-$run.tmp"
done

# The metrics plane is always on: a default-features build must carry
# the same engine_metrics document (p50/p99 included) — and the trace
# build's hooks must not leak into the default build's dispatch loop.
# The overhead gate compares the bytecode backend's invoke_bytecode
# timings, each point the minimum over five runs of each build. Per
# point, the default build must not be slower than a generous multiple
# of the trace build, which only a gross slowdown fails. Accidentally
# always-live instrumentation would make the default build run like the
# trace build, which that multiple cannot catch, so the sum of the
# default build's points must also stay under a fraction of the trace
# build's (the fraction and the runs behind it are in the gate).
cargo run --release -p bench --bin tables -- --quick --json --chrome-trace >/dev/null
test -s BENCH_trace.json
grep -q '"engine_metrics"' BENCH_trace.json
grep -q '"p50_ns"' BENCH_trace.json
grep -q '"p99_ns"' BENCH_trace.json
test -s CHROME_trace.json
grep -q '"traceEvents"' CHROME_trace.json
mv BENCH_trace.json .ci-bench-default-1.tmp
for run in 2 3 4 5; do
    cargo run -q --release -p bench --bin tables -- --quick --json >/dev/null
    mv BENCH_trace.json ".ci-bench-default-$run.tmp"
done
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'GATE'
import json
traces, defaults = (
    [json.load(open(f'.ci-bench-{build}-{run}.tmp')) for run in range(1, 6)]
    for build in ('trace', 'default')
)
assert all(d['trace_compiled'] is True for d in traces)
assert all(d['trace_compiled'] is False for d in defaults)
default = defaults[0]
def vm_points(docs):
    points = {}
    for doc in docs:
        for r in doc['records']:
            if r['series'].startswith('invoke_bytecode/'):
                key = (r['series'], r['size'])
                points[key] = min(points.get(key, r['bytecode_us']), r['bytecode_us'])
    return points
tp, dp = vm_points(traces), vm_points(defaults)
assert tp.keys() == dp.keys() and tp, (sorted(tp), sorted(dp))
for key in tp:
    assert dp[key] <= 3.0 * tp[key] + 50.0, (
        f"{key}: default build {dp[key]:.1f}us vs trace build {tp[key]:.1f}us -- "
        "did the default dispatch loop grow live instrumentation?")
# On the 2-core reference host, 45 evaluations of this gate read sum
# ratios of 0.26-0.55 (0.55 in a full ci.sh run), where 24 single runs
# of each build had read 0.24-0.59: 0.85 is 1.55x the worst, and a
# default build that ran like the trace build would read about 1.
ratio = sum(dp.values()) / sum(tp.values())
assert ratio <= 0.85, (
    f"default build's vm points sum to {ratio:.2f}x the trace build's -- "
    "did the default dispatch loop grow live instrumentation?")
print(f"trace-overhead gate: {len(tp)} vm points within tolerance, "
      f"default/trace {ratio:.2f}")

# B.9 concurrent-invoke gate: one shared engine invoked from 1, 2, 4
# and 8 threads. Speedup depends on the host's cores, so the gate
# checks shape, not speed: every thread count has a positive time.
b9 = {
    r['size']: r
    for r in default['records']
    if r['experiment'] == 'parallel_scaling' and r['series'] == 'concurrent_invoke'
}
assert sorted(b9, key=int) == ['1', '2', '4', '8'], sorted(b9)
assert all(r['us'] > 0 for r in b9.values()), b9
print(f"B.9 concurrent-invoke gate: {b9['1']['us']:.0f}us at 1 thread, "
      f"{b9['8']['us']:.0f}us at 8 threads")

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
rm -f BENCH_trace.json CHROME_trace.json .ci-bench-trace-?.tmp .ci-bench-default-?.tmp

# Three-backend agreement: the differential suite runs 1,000 random
# two-unit link topologies and 600 compounds of 3–5 clauses (rename
# pairs, shuffled ports, nested, sealed and first-class constituents)
# on the reducer, the tree-walker, and the bytecode VM, and
# must hold their observations identical in both feature configurations
# (it also runs inside the full `cargo test` sweeps above; this names
# the gate). The flattening oracle runs 600 compounds of unit literals
# four ways — the reducer on the program and on its resolved, flattened
# form, the tree-walker and the VM — and requires that at least a third
# of them flatten completely.
cargo test -q --test differential
cargo test -q --features trace --test differential

# Fault plane: the fixed-seed chaos harness (tests/faults.rs sweeps 360
# seeded schedules, including the bytecode VM's vm/dispatch site) is
# compiled into every build and runs in both `cargo test` sweeps above.
# The service chaos pass (one tenant under an armed plane, bystanders
# unaffected) rides in the same sweeps; name it as its own gate.
cargo test -q -p units-serve --test chaos
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --features trace

# Reproducibility: with no plane armed every trip() site returns at
# once, so a fixed REPL session must be reproducible byte-for-byte.
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
rm -f .ci-faults-session.tmp .ci-faults-off-a.tmp .ci-faults-off-b.tmp
