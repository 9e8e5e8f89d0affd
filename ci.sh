#!/usr/bin/env bash
# Offline CI gate: formatting, lints, and the full workspace test suite.
# No network access is required — all dependencies are path deps inside
# the repository (see compat/).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (workspace) =="
cargo test --workspace -q

echo "== lock-free reads and gated wake-ups: race tests again, optimized =="
# The arena's readers-vs-writer test, lookups racing a table's
# completion, the 10 000-round signal/wait ping-pong and the
# spin-then-park barrier wait all pass in a debug build, which is too
# slow to open the windows they probe; an optimized build opens them.
# So it is with the worker crew (a thread back on the idle stack before
# its run's caller hears of it), the executor table and its seeded
# differential (one policy under two drivers: a worker that unwinds, a
# retry requeued under a blocked worker, threads {1, 2, 4} against the
# simulator) and the kept-alive shard connections (callers sharing
# streams, a stream the server closed meanwhile, one origin's delta
# batches overtaking each other on the way to a peer).
#
# These tests are picked by name, and a name that matches nothing
# passes silently: each filter runs on its own and must run a test.
race() { # race <cargo test args> [-- <name filter>...]
  local args=() filter log
  while [ $# -gt 0 ] && [ "$1" != "--" ]; do args+=("$1"); shift; done
  [ $# -gt 1 ] && shift || set -- ""
  for filter; do
    log=$(cargo test -q --release "${args[@]}" -- $filter 2>&1) || { printf '%s\n' "$log"; return 1; }
    printf '%s\n' "$log" | awk -v what="${args[*]} $filter" '
      /^test result:/ { ran += $4 }
      END { print what ": " ran + 0 " tests"; exit ran == 0 }' \
      || { echo "no test ran: cargo test --release ${args[*]} -- $filter" >&2; return 1; }
  done
}
race -p ccm2-support -- arena
race -p ccm2-sema -- get_racing_mark_complete
race -p ccm2-sched -- gated_notify barrier_wait_spins charges_from_workers
race -p ccm2-sched --test crew
race -p ccm2-sched --test executors
race -p ccm2-fabric -- overlapping_callers stop_ends_idle a_stream_the_shard_closed batches_of_one_origin
race --test threaded_suite -- work_charges_equal

echo "== benchmark package: builds, lints, tests, exact counters repeat =="
# perf/ is a workspace of its own, so the steps above never compile it:
# check.sh keeps it building (fmt, clippy -D warnings, its tests)
# against the crates' current API, and a short --counts pass runs every
# workload twice and fails if any exact counter (tokens, streams, tasks,
# work units, virtual times) differs between the two.
perf/check.sh
perf/run.sh --counts --seconds 2

echo "== incremental cache: warm/cold equivalence =="
cargo test -q --test incremental
cargo test -q --test properties warm_cache_compiles_are_invisible

echo "== compile service: bounded soak (seeded, zero lost, dedup floor) =="
# The soak drives the seeded many-client load through ccm2-serve with a
# deliberately tight queue and store budget: every request must get a
# response (shed ones via the retry protocol), identical in-flight
# requests must dedupe above a floor, and the shared store must never
# exceed its byte budget. The stress test adds eviction-pressure
# byte-equivalence against direct compiles.
cargo test -q -p ccm2-serve --test soak
cargo test -q -p ccm2-serve --test stress

echo "== fault injection: survival matrix smoke =="
# Every injected fault must degrade exactly one stream: the property
# tests sample the site x strategy x executor matrix, and the golden
# step's `faults` section runs the full 56-cell matrix (zero hangs,
# zero aborts, non-faulted streams byte-identical to the fault-free run).
cargo test -q --test faults

echo "== self-healing recovery: retry, watchdog edges, kill/restart =="
# Supervised stream retry must converge transient faults to the
# fault-free bytes and degrade persistent ones; watchdog edges (exact
# deadline, wedge-release vs late-signal race) must hold on both
# executors; the service must survive kill/restart with its snapshot
# journal (no lost requests, LRU order intact, torn images quarantined).
cargo test -q --test recover
cargo test -q --test watchdog
cargo test -q -p ccm2-serve --test restart

echo "== compile fabric: fleet equivalence, failover, delta restart =="
# The sharded fleet must be observationally identical to one standalone
# service (byte-identical objects, same diagnostics) across every shard
# width AND across a seeded mid-stream shard kill; the golden step's
# `fabric` section additionally pins the failover drill (zero lost
# admitted requests) and the delta restart economics (journal tail <
# full CCM2SNAP image).
cargo test -q -p ccm2-fabric
cargo test -q --test fabric

echo "== chaosnet: seeded network-fault drill matrix =="
# The hardened control plane must survive the full chaos lifecycle on
# three seeds x both transports: partition -> heartbeat eviction ->
# serve through the hole -> heal -> warm rejoin -> cold join (>= 50%
# warm hits on the first post-join batch) -> crash-restart from durable
# CCM2RLOG replica logs -> failover absorb of the restored parked ops.
# Zero lost admitted requests, zero hangs, byte-identity to standalone.
# The split-brain drills add router-loss cells on the same seed x
# transport grid: router kill, router partition, and dueling routers.
# No epoch may ever see two live leaders and the fleet's durable
# membership must converge to one image. The tests run the phases one
# at a time; the golden step's `chaosnet` section runs the matrix, and
# each of those invariants is an assertion inside it.
cargo test -q --test chaosnet

echo "== editor sessions: convergence, coalescing, error-unit determinism =="
# The watch loop must converge every seeded edit session — broken
# intermediates included — to the byte-identical output of a cold
# compile of the final sources, and a syntax error must degrade exactly
# the edited stream. The determinism guard pins the degraded output
# across the sequential compiler, all four DKY strategies, and both
# executors; the golden step's `watch` section gates the seeded
# 100-edit session (warm-hit ratio >= 90%, aggregate check time below
# aggregate cold).
cargo test -q -p ccm2-watch
cargo test -q --test watch
cargo test -q --test watch error_unit_is_byte_identical_across_seq_dky_and_executors

echo "== interprocedural lock-order analysis: static deadlock prediction =="
# Cross-procedure re-LOCK and lock-order-cycle predictions must be
# byte-identical to the sequential reference under every DKY strategy and
# both executors, survive warm re-analysis from the summary cache, and
# the golden step's `locks` section must show zero static false
# negatives against the runtime wait-for-graph drills.
cargo test -q --test lockorder

echo "== golden: every reproduce section but dky, byte for byte =="
# What `reproduce` prints is a pure function of the tree: virtual times,
# counts and drill verdicts, no clock reading. One invocation runs the
# twelve paper sections, the four extension reports and the seven
# drills — each drill asserting its own invariants (0 lost, 0 hangs,
# byte-identity, never two leaders) — and the diff pins every byte of
# the reports, so a figure that moves or a drill that says something
# else fails here. `dky` is left out: its Avoidance line differs from
# itself between two runs of one binary. A section name that is no
# section exits 2, so a typo here cannot pass. To accept an intended
# change, regenerate the file with the same command.
cargo run -q --release -p ccm2-bench --bin reproduce -- \
  table1 table2 table3 fig1 fig2 fig3 fig4 fig5 fig7 \
  overhead headings workcrews earlysplit analyze locks incr \
  serve fabric chaosnet watch faults recover sites \
  | diff -u reproduce_output.txt -

echo "== envelopes: every format is a row of tests/envelopes.rs =="
# A format outside the table has no golden digest (which is what catches
# an encoding change without a version bump) and no damage or forgery rows.
formats=$(grep -rh '^pub const [A-Z_]*: Format = Format {' crates/*/src | wc -l)
rows=$(grep -c '^    Row {' tests/envelopes.rs)
[ "$formats" -eq "$rows" ] || { echo "${formats} formats under crates/*/src, ${rows} rows" >&2; exit 1; }

echo "CI OK"
