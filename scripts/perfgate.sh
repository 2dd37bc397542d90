#!/usr/bin/env bash
# Hot-path performance gate: rerun the measured hot paths and compare
# the dimensionless metrics (step and histogram speedups, sanitizer
# overhead, broker fan-out, offload overlap efficiency and transfer
# ratio, query serve fan-out) against the checked-in
# BENCH_hotpath.json, BENCH_broker.json, BENCH_offload.json, and
# BENCH_query.json. Only ratios are gated, so the baseline recorded on
# one machine still gates runs on another.
# Usage: scripts/perfgate.sh [extra perfgate args...]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> perf gate (baseline BENCH_hotpath.json)"
cargo run --release -p bench --features track-alloc --bin perfgate -- "$@"
