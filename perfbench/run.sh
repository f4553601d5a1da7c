#!/usr/bin/env bash
# Build the release `reecc` server and the `perfbench` binary from this
# checkout, then run one workload:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 15 --trace 0
#
# Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); compiler chatter goes to stderr, so the last line
# on stdout is the result object.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p reecc-cli >&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2
exec "$target/release/perfbench" --reecc "$target/release/reecc" --root "$root" "$@"
