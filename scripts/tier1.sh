#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merge.
# Usage: scripts/tier1.sh  (from the repo root or anywhere inside it)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> no parked predecessors"
# A replacement deletes what it replaces in the same change.
if grep -rnE '#\[deprecated|allow\(deprecated\)' crates tests examples src; then
    echo "tier1: #[deprecated] / allow(deprecated) found" >&2
    exit 1
fi

echo "==> one way to read a structured leaf"
# Consumers read leaves through DataSet::structured / leaf_views; a
# match on the leaf kind is a private walker growing back. Constructors
# (no binding and `=>` after the variant) stay legal.
if grep -rnE 'DataSet::(Rectilinear|Image)\([a-z_][A-Za-z0-9_]*\)[^=]*=>' \
    crates/{catalyst,libsim,glean,adios,query}/src crates/sensei/src/analysis; then
    echo "tier1: match on DataSet::{Image,Rectilinear} in a consumer" >&2
    exit 1
fi

echo "==> in transit payloads move in bulk, in their own type"
# BP payloads are encoded and decoded a slice at a time; outside the
# tests, the per-scalar f64 puts are the step time and the attribute
# values (the decoder reads through its checked `get`), and nothing
# travels widened.
adios_src=$(for f in crates/adios/src/*.rs; do awk '/#\[cfg\(test\)\]/{exit} {print}' "$f"; done)
scalar_calls=$(grep -cE '(put|get)_f64_le' <<<"$adios_src" || true)
if [ "$scalar_calls" -ne 2 ]; then
    echo "tier1: $scalar_calls put_f64_le/get_f64_le calls in crates/adios/src, expected 2" >&2
    exit 1
fi
if grep -n 'widened to f64' <<<"$adios_src"; then
    echo "tier1: crates/adios/src ships a payload widened to f64 again" >&2
    exit 1
fi

echo "==> a rank is one thread"
# Concurrency inside a node comes from ranks; a kernel, analysis or
# bridge that spawns workers, or a thread-count knob, needs a benchmark
# row it wins first (DESIGN §17).
if grep -rnE 'thread::scope|thread::spawn|available_parallelism' \
    crates/oscillator/src crates/sensei/src; then
    echo "tier1: the kernel, an analysis or the bridge spawns intra-rank threads" >&2
    exit 1
fi
if grep -rnE 'with_threads|step_with_threads' crates tests examples src; then
    echo "tier1: a thread-count knob is back" >&2
    exit 1
fi
# Analyses run one way, synchronously inside Bridge::execute; the
# asynchronous offload executor never beat it on a benchmark row.
if grep -rnE 'enable_offload|supports_offload|execute_local|OffloadConfig|overlap_efficiency' \
    crates tests examples src; then
    echo "tier1: a second analysis execution path is back" >&2
    exit 1
fi

echo "==> one render driver"
# Catalyst and Libsim are two configurations of render::scene::Scene,
# which takes the range, draws, composites and encodes collectively; an
# adaptor naming one of those pieces is assembling a frame of its own.
for f in crates/{catalyst,libsim}/src/*.rs; do
    if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$f" |
        grep -E 'PngEncoder|global_range|pseudocolor_slice_bands|shaded_isosurface_bands|encode_framebuffer'; then
        echo "tier1: an adaptor's product code drives the render stack itself" >&2
        exit 1
    fi
done

echo "==> a frame ships what it draws"
# Compositing moves patches, the part of a framebuffer's drawn rectangle
# inside the rows being sent. Outside `gather`, which moves finished
# bands, a send or receive in composite.rs's product code that is not a
# Patch ships a whole Framebuffer again.
if awk '/#\[cfg\(test\)\]/{exit}
        /^pub\(crate\) fn gather\(/{skip=1}
        skip && /^}/{skip=0; next}
        !skip {print FILENAME ":" FNR ": " $0}' crates/render/src/composite.rs |
    grep -E 'comm\.(send|recv)' | grep -vE '\bpatch\)|: Patch = '; then
    echo "tier1: composite.rs sends or receives a whole Framebuffer outside gather" >&2
    exit 1
fi

echo "==> one real-mode timing path"
# Real-mode timings are `benchmark/` and `experiments validate`; a
# micro-benchmark harness beside them times what no document, test or
# gate reads.
if find . \( -name target -o -path './.*' \) -prune -o -name Cargo.toml -print0 |
    xargs -0 grep -nE 'criterion|^\[\[bench\]\]'; then
    echo "tier1: a criterion harness or [[bench]] target is back" >&2
    exit 1
fi

echo "==> one exploration engine"
# minimpi::Checker is the one interleaving search; its verdict depends
# on the schedule count alone.
if grep -rnE 'Explorer|ExploreBudget|ExploreFailure|wall_cap|max_shrink_runs' \
    crates tests examples src; then
    echo "tier1: a second exploration engine or a Checker wall/shrink knob is back" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo test --release -p render -p bench"
# The encoder's byte identities where its arithmetic is optimised, and
# the one assertion about wall time (Table 2's ablation: compressing
# costs more than storing), which only means something in this build
# and is compiled only into it.
cargo test --release -q -p render -p bench

echo "==> cargo test --release -p oscillator, properties culled_kernel"
# The step kernel's bit identity with step_naive in the build the
# benchmark runs (debug builds additionally prove every skipped term).
cargo test --release -q -p oscillator
cargo test --release -q --test properties culled_kernel

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "tier1: all green"
