#!/usr/bin/env bash
# Offline CI gate: formatting, lints, and the full workspace test suite.
# No network access is required — all dependencies are path deps inside
# the repository (see compat/).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== fences: what a simplification removed stays removed =="
# One row per fence: name; git grep flags; pattern; pathspecs; why a
# match fails the build (the rest of the line). A match prints its lines
# and fails; a fence that cannot run fails too.
fences=$(cat <<'EOF'
incremental seam;-nE;\.(load|store|quarantine)\(|\b(encode|decode)_[a-z_]+|\bEntryDecoder\b|\bfingerprint_streams\b|\bImportGraph\b|\bInterfaceKey\b|\bFORMAT_VERSION\b;crates/core/src/driver.rs;the driver asks crates/core/src/incremental.rs whether a stream splices and never calls the store or names a cache codec or key
lexer and Splitter;-nE;ccm2_incr|\bIncremental\b|\bArtifactStore\b|\.(load|store|quarantine)\(;crates/syntax/src/lexer.rs crates/core/src/splitter.rs;the lexer scans then names and the Splitter routes by the depth rule: neither names the store, the seam or ccm2-incr
no fault plane;-nwE;FaultPlan|Robustness|run_threaded_with|run_sim_with|CompileError|ParseGuard|fault_seeds;crates tests src;a task panic ends its compile: the fault plan, degraded mode and their entry points stay gone
one harness;-nE;\bfn (comparable|normalize|normalize_diags|differs_from_seq|assert_equivalent|check_matrix)\b;tests/*.rs :(exclude)tests/contract;a differential test compares through tests/contract/, never with a comparer or diagnostic normalizer of its own
plain properties;-nE;proptest;*.toml *.rs Cargo.lock;a property is a #[test] looping over seeded cases, never a proptest! block that rustfmt and clippy cannot see into
a replica is a store;-nE;ReplicaLogStore|RLOG_FORMAT|REPLICA_LOG_CAP;*.rs;a peer keeps each origin's store as a budgeted MemStore persisted as a CCM2SNAP image, not as an op log
a replica is a cache;-nwE;resume_delta_seq|deltas_since|truncate_deltas|gapped_reconciliations|gapped_discards|replica_gaps;*.rs;a Sync drains the origin's queue and a replica applies every batch that reaches it: no delta is numbered
no executor timer;-nwE;task_deadline|check_deadline|park_watched|stall_unit|FaultKind::Stall;crates tests src;a worker parks until a task signals, as in the paper's Supervisors: no per-task deadline, stall fault or timed park
no watchdog;-nE;LoseSignal|release_wedge|loses_signal|with_probe_recording|Stalled \{;crates tests src;a wedge ends the run with the wait-for report: no lost-signal fault, wedge release, probe recording or stall error
one transport;-nE;LoopbackTransport|Net::Loopback|start_on\(|transport_name|fn frame_overhead;crates tests src;every fleet runs on TcpTransport: a test that needs more of the wire wraps it or puts a FrameHandler in front of a ShardNode
one single-flight;-nE;\binflight\b|type Flight;crates/fabric/src;routing sends every copy of a request to the shard that owns it, whose flights table is the fleet's one single-flight: the router joins nothing
EOF
)
while IFS=';' read -r name flags pattern paths reason; do
  read -r -a pathspecs <<< "$paths"
  status=0
  git grep "$flags" -e "$pattern" -- "${pathspecs[@]}" || status=$?
  case $status in
    0) echo "fence '$name' failed: $reason (lines above)" >&2; exit 1 ;;
    1) ;;
    *) echo "fence '$name' could not run" >&2; exit 1 ;;
  esac
done <<< "$fences"
# Three fences are not a plain grep. The ccm2-faults package stays empty
# (the benchmark's lock file lists it); ccm2_incr::MemStore is the one
# ArtifactStore under crates/*/src (tests and perf/ wrap it through the
# trait); and a stream's tree is one arena, so Box<Expr> and Vec<Stmt>
# stay out of the node types, everything in ast.rs above `pub struct Ast`.
if grep -nvE '^[[:space:]]*(//.*)?$' crates/faults/src/lib.rs; then
  echo "crates/faults/src/lib.rs holds an item (lines above)" >&2
  exit 1
fi
impls=$(grep -rn 'impl ArtifactStore for' crates/*/src || true)
if [ "$(printf '%s' "$impls" | grep -c .)" -gt 1 ]; then
  printf '%s\n' "$impls" >&2
  echo "more than one ArtifactStore implementation under crates/*/src (lines above)" >&2
  exit 1
fi
if sed -n '1,/^pub struct Ast {/p' crates/syntax/src/ast.rs | grep -nE 'Box<Expr>|Vec<Stmt>'; then
  echo "a per-node allocation is back in the syntax tree (lines above)" >&2
  exit 1
fi

echo "== cargo clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, -D warnings) =="
# A broken or ambiguous intra-doc link is a warning, and so a failure.
RUSTDOCFLAGS=-Dwarnings cargo doc --no-deps --workspace

echo "== cargo test (workspace) =="
# The root package is a workspace member, so this one step runs every
# suite once — the crates' unit tests and the root `tests/`. What the
# subsystem suites among them guard:
#   equivalence, diagnostics, the contract's rows (tests/contract/): the
#   interfaces, threaded_suite suite, the import chain, seeded body and
#                             declaration mutants and hand-written rows
#                             answer on every DKY strategy × executor,
#                             warm, through a service or a fleet with the
#                             sequential compiler's image and diagnostics,
#                             in its order
#   incremental, properties   a warm compile is invisible: same bytes as
#                             cold, only the touched stream recompiles
#   ccm2-serve soak, stress,  every request answered under a tight queue
#   restart                   and store budget (a shed one by the caller's
#                             resubmission in its next wave), dedup
#                             above its floor, eviction-pressure bytes
#                             equal to direct compiles, kill/restart from
#                             the newest snapshot with torn images
#                             quarantined
#   ccm2-fabric, fabric,      the lease table row by row; a fleet answers
#   chaosnet                  with a direct compile's bytes across shard
#                             widths, a seeded shard kill and a seeded
#                             partition cycle over TCP; a stale
#                             answer stands the leader down wherever it is
#                             heard; durable replicas survive a fleet
#                             restart
#   ccm2-watch, watch         edit sessions converge to the cold compile of
#                             the final sources; a syntax error degrades
#                             only the edited stream, identically across
#                             the sequential compiler, every DKY strategy
#                             and every executor
#   lockorder                 re-LOCK and lock-order-cycle predictions
#                             equal the sequential reference everywhere,
#                             and survive warm re-analysis
# The golden step below runs the full matrices of the same subsystems
# (the chaosnet and split-brain grids, the 100-edit session) with their invariants asserted inside.
cargo test --workspace -q

echo "== lock-free reads and gated wake-ups: race tests again, optimized =="
# The arena's readers-vs-writer test, lookups racing a table's
# completion, the 10 000-round signal/wait ping-pong and the barrier
# wait whose producer publishes before the consumer sleeps or after all
# pass in a debug build, which is too slow to open the windows they
# probe; an optimized build opens them. So it is with the worker crew
# (a thread back on the idle stack before its run's caller hears of it,
# and a caller that is worker 0 of its run and of a run one of its
# tasks starts), the executor table and its seeded
# differential (one policy under two drivers: a worker that unwinds, a
# task panic that ends its run, threads {1, 2, 4} against the
# simulator) and the kept-alive shard connections (callers sharing
# streams, a stream the server closed meanwhile, one origin's delta
# batches overtaking each other on the way to a peer, and 2 000 rounds
# of concurrent compiles each followed by a flush, after
# which every origin's queue must be drained and every peer's replica
# must hold exactly its origin's entries: a second shipper's reordered
# batches show as a replica that kept an entry its origin evicted, a
# lost dirty mark as ops left in a queue) and the service's
# flights table (eight threads resubmitting one request across 2 000
# landings: a duplicate that found the flight neither flying nor landed
# would start a second compile). The checksum kernel's tests ride along
# for the build, not for a race: a 1 MiB known answer, 200 000 keys and
# the re-chunking search take seconds unoptimized. So does the lexer's
# differential against its predecessor, which an optimized build runs
# with 200 000 seeded inputs instead of 20 000, the parser's token soups
# (`token_soup`: no panic, no loop, no span outside the input), 100 000
# instead of 2 000, and the two seeded mutation differentials — of
# declaration parts and procedure headings (`mutated_declarations`), and
# of module and procedure bodies (`mutated_bodies`): each mutant on the
# next path of the contract (every strategy on every executor, and one
# service) against the sequential compiler, diagnostics and image —
# 20 000 mutants each instead of 200. So does the pin of what the sequential compiler emits
# for the suite and its body mutants (`output_pin`): 20 000 mutants
# instead of 200, under a digest of their own. And so does the seeded
# interface-edit differential (`interface_edit_differential`: the edited
# definition module and its importers recompile, every other interface
# splices, the output is a cold compile's): 240 edits instead of 12. And
# so does the warm differential of body mutants
# (`mutated_bodies_compile_warm_as_cold`: a mutant compiled against a
# store its unmutated module filled, or by the service, answers as the
# sequential compiler does, whatever the mutation did to the structure
# the Lexor carves before it skips spliced bodies): 20 000 mutants
# instead of 200. And so does the warm compile on two workers
# (`a_warm_threaded_compile_loads_only_on_workers`: the interface cell
# and the placeholders are handed between workers, and every store load
# runs on one of the run's workers, never on the caller before it
# becomes worker 0): 2 000 rounds instead of 20. And so does the skim
# differential (`the_skim_carves_what_the_scan_carves`: the main Lexor's
# carve, which only skims procedure bodies, against the depth rule over
# every token, on the suite and on seeded body and declaration mutants):
# 40 000 mutants instead of 400. And so does the allocation pin
# (`alloc_pin`: allocations and bytes of a cold, a warm and a sequential
# compile of each suite module, counted on the compiling thread), whose
# figures are an optimized build's. And so do the watch
# session's convergence property (`session_replay_converges_to_cold_compile`:
# a seeded edit stream replayed in seeded batch sizes ends on a cold
# compile's image and diagnostics, every check after the first handed
# the interfaces the last one decoded): 60 cases instead of 6, and the
# interface-carry rows (`carry_`: compiles with and without the carry
# answer alike, with the same store traffic and quarantines).
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
race -p ccm2-support -- arena hash::
race -p ccm2-sema -- get_racing_mark_complete
race -p ccm2-sched -- gated_notify barrier_wait_wakes charges_from_workers
race -p ccm2-sched --test crew
race -p ccm2-sched --test executors
race -p ccm2-fabric -- overlapping_callers stop_ends_idle a_stream_the_shard_closed batches_of_one_origin every_delta_reaches_every_peer
race -p ccm2-serve --test stress -- duplicates_racing_a_landing
race --test threaded_suite -- work_charges_equal
race -p ccm2-syntax --test lexer_oracle
race -p ccm2-syntax --test token_soup
race --test diagnostics -- mutated_declarations mutated_bodies output_pin
race --test incremental -- interface_edit_differential mutated_bodies_compile_warm_as_cold a_warm_threaded_compile_loads_only_on_workers the_skim_carves_what_the_scan_carves
race --test alloc_pin
race --test watch -- session_replay_converges_to_cold_compile carry_

echo "== examples, optimized, with README's arguments =="
# Each example asserts its own result (a clean compile, a VM run's
# answer, one image under every DKY strategy), so running one is a
# test: a failed assertion exits non-zero and fails here.
for example in quickstart run_program modules "watchtool 25" "speedup synth" "dky_strategies 28"; do
  # The name and its arguments split on purpose.
  # shellcheck disable=SC2086
  cargo run -q --release --example $example > /dev/null
done

echo "== benchmark package: builds, lints, tests, exact counters repeat =="
# perf/ is a workspace of its own, so the steps above never compile it:
# check.sh keeps it building (fmt, clippy -D warnings, its tests)
# against the crates' current API, and a short --counts pass runs every
# workload twice and fails if any exact counter (tokens, streams, tasks,
# work units, virtual times) differs between the two.
perf/check.sh
# perf/ builds --offline without --locked, so a dependency edge a crate
# gains or loses silently rewrites perf/Cargo.lock — a file only a
# `benchmark` PR may change. Refuse the rewrite here instead.
git diff --exit-code -- perf/Cargo.lock
perf/run.sh --counts --seconds 2

echo "== golden: every reproduce section, byte for byte =="
# What `reproduce` prints is a pure function of the tree: virtual times,
# counts and drill verdicts, no clock reading. One invocation runs the
# thirteen paper sections, the four extension reports and the five
# drills — each drill asserting its own invariants (0 lost, 0 hangs,
# byte-identity, never two leaders) — and the diff pins every byte of
# the reports, so a figure that moves or a drill that says something
# else fails here. A section name that is no section exits 2, so a typo
# here cannot pass. To accept an intended change, regenerate the file
# with the same command. Its stderr must hold no panic: a deadlock the
# simulator reports (the workcrews cells) is caught quietly and ends
# without a parked task thread panicking.
stderr_log=$(mktemp)
trap 'rm -f "$stderr_log"' EXIT
if ! cargo run -q --release -p ccm2-bench --bin reproduce -- \
  table1 table2 table3 fig1 fig2 fig3 fig4 fig5 fig7 \
  overhead dky headings workcrews earlysplit analyze locks incr \
  serve fabric chaosnet watch recover \
  2> "$stderr_log" | diff -u reproduce_output.txt -; then
  cat "$stderr_log" >&2
  exit 1
fi
if grep -q panicked "$stderr_log"; then
  cat "$stderr_log" >&2
  echo "the golden run panicked on stderr" >&2
  exit 1
fi

echo "== envelopes: every format is a row of tests/envelopes.rs =="
# A format outside the table has no golden digest (which is what catches
# an encoding change without a version bump) and no damage or forgery rows.
formats=$(grep -rh '^pub const [A-Z_]*: Format = Format {' crates/*/src | wc -l)
rows=$(grep -c '^    Row {' tests/envelopes.rs)
[ "$formats" -eq "$rows" ] || { echo "${formats} formats under crates/*/src, ${rows} rows" >&2; exit 1; }

echo "CI OK"
