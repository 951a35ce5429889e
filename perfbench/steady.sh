#!/usr/bin/env bash
# Runs one workload once per seed and prints each end-to-end metric's
# median, quartiles and spread (interquartile range over median).
#
#   perfbench/steady.sh <workload> <out-dir> [seed...]
#
# Run from the repository root. Seeds default to 1..10. Each run's output is
# kept as <out-dir>/<workload>-<seed>.out.
set -euo pipefail
workload=$1
out=$2
shift 2
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2 3 4 5 6 7 8 9 10)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
mkdir -p "$out"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
files=()
for seed in "${seeds[@]}"; do
    f="$out/$workload-$seed.out"
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 > "$f"
    tail -n 1 "$f"
    files+=("$f")
done
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- spread "${files[@]}"
