#!/usr/bin/env bash
# The benchmark's one command: builds the perf package (release,
# offline) and runs it.
#
#   perf/run.sh                          every workload, untraced then traced
#   perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                        one run; its last line is the result JSON
#   perf/run.sh --counts                 every exact counter twice; fails if any differs
#
# Run it from the repository root or from anywhere else: paths are
# taken from this file's location.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The driver sets CARGO_TARGET_DIR (relative to its checkout's root);
# otherwise the package builds into its own perf/target.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

CCM2_PERF_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
CCM2_PERF_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export CCM2_PERF_COMMIT CCM2_PERF_RUSTC

exec "$target/release/ccm2-perf" --out "$here/out" "$@"
