#!/usr/bin/env bash
# Builds the benchmark (offline, one target directory) and runs it.
# Run from the repository root:
#
#   benchmark/run.sh                         every workload, every metric
#   benchmark/run.sh --workload W --seed N   one workload, another seed
#   benchmark/run.sh --check-repeat          the whole set twice, compared
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one JSON object on the last line
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
manifest="$here/Cargo.toml"
# One target directory, whoever calls: the caller's CARGO_TARGET_DIR if set
# (the driver sets it), else benchmark/target.
target="${CARGO_TARGET_DIR:-$here/target}"

# The build's chatter goes to stderr; stdout carries only results.
cargo build --release --offline --locked --manifest-path "$manifest" --target-dir "$target" >&2

exec "$target/release/dex-benchmark" --out "$here/out" "$@"
