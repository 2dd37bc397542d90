#!/usr/bin/env bash
# Model-check gate: the systematic checker's planted-bug corpus plus a
# DPOR sweep of four clean scenarios at a fixed, deterministic schedule
# budget. Mirrors the CI `model-check` job.
# Usage: scripts/modelcheck.sh  (from the repo root or anywhere inside it)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> checker unit suite (DPOR vs exhaustive, liveness, shrinker)"
cargo test --release -p minimpi --test dpor

echo "==> planted-bug corpus (broker/reply-order/lost-credit/obligation/steering protocols)"
SENSEI_SANITIZER=1 cargo test --release --test modelcheck_planted -- --skip sweep

echo "==> scenario sweeps (collectives/staging/publish at 6 ranks, render at 3 and 6, sanitized)"
SENSEI_SANITIZER=1 cargo test --release --test modelcheck_planted sweep

echo "modelcheck: all green"
