#!/usr/bin/env bash
# Performance gate: rerun the measured suite (offload) and hold every
# row of `GATED` in crates/bench/src/perfgate.rs — the table is the list
# of what is gated — against the checked-in BENCH_<suite>.json. Only
# dimensionless timings whose run-to-run spread fits the tolerance are
# gated, so a baseline recorded on one machine still gates runs on
# another. Always writes
# BENCH_<suite>.fresh.json; to regenerate a baseline, copy it over
# BENCH_<suite>.json.
# Usage: scripts/perfgate.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> perf gate (baselines BENCH_*.json)"
cargo run --release -p bench --bin perfgate
