#!/usr/bin/env bash
# Format, lint and test the perf package. The repository's ci.sh works
# on the root workspace and cannot reach this package, which is a
# workspace of its own.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest"
