#!/usr/bin/env bash
# Regenerates BENCHMARK.json from the metric tables, then runs every
# workload once untraced and once traced and prints each result line.
#
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-18}"
bench() { cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- "$@"; }
bench --benchmark-json > BENCHMARK.json
for workload in paper16 fuzz check; do
    for trace in 0 1; do
        echo "== $workload trace=$trace"
        bench --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1
    done
done
