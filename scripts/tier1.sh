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

echo "==> four endpoints"
# The paper drives four infrastructures from one instrumentation
# (Fig. 2): Catalyst, Libsim, ADIOS/FlexPath and GLEAN. An interactive
# query endpoint beside them, or the multi-tenant broker it rode on
# (subscriptions, evictions), is a fifth endpoint back; the staging
# tee stays inside adios.
if [ -e crates/query ]; then
    echo "tier1: crates/query is back" >&2
    exit 1
fi
if grep -rnE 'QueryServer|QueryHandle|subscribe_labeled|take_evictions' crates tests examples; then
    echo "tier1: a query endpoint or a broker subscription is back" >&2
    exit 1
fi
if grep -rn 'adios::broker' crates tests examples src | grep -v '^crates/adios/'; then
    echo "tier1: a crate other than adios names adios::broker" >&2
    exit 1
fi

echo "==> one way to read a structured leaf"
# Consumers read leaves through DataSet::structured / leaf_views; a
# match on the leaf kind is a private walker growing back. Constructors
# (no binding and `=>` after the variant) stay legal.
if grep -rnE 'DataSet::(Rectilinear|Image)\([a-z_][A-Za-z0-9_]*\)[^=]*=>' \
    crates/{catalyst,libsim,glean,adios}/src crates/sensei/src/analysis; then
    echo "tier1: match on DataSet::{Image,Rectilinear} in a consumer" >&2
    exit 1
fi

echo "==> one way to read a field"
# Analyses and endpoints read a step's field through DataAdaptor::field,
# which Bridge::execute shares among a step's analyses, and blocks that
# arrive materialised (staging, post hoc) are an InMemoryAdaptor; a
# private derivation of the field, or another adaptor over received
# blocks, is a second way back.
if awk '/#\[cfg\(test\)\]/{nextfile} {print FILENAME ":" FNR ": " $0}' \
    $(find crates/*/src src -name '*.rs') |
    grep -E 'with_point_field|populated_mesh|for_each_value|struct (BpAdaptor|PiecesAdaptor)'; then
    echo "tier1: a second way to read a step's field is back" >&2
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

echo "==> in transit payloads are adopted, not copied"
# The staging wire carries the BPL3 framing without its payload
# sections, beside the buffers the writer marshalled the payloads into:
# the reader adopts those blocks (BpStep::adopt) instead of decoding a
# copy (BpStep::decode, or a refill into spare buffers), no payload byte
# is encoded onto the wire (encode_into), and the writer marshals each
# step into the buffers the last step came back in, not into a fresh
# frame.
# The oscillator's ghost flags are a view of the array its simulation
# caches, not a copy a step.
flexpath_src=$(awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' crates/adios/src/flexpath.rs)
if grep -E 'BpStep::(decode|refill)\(' <<<"$flexpath_src"; then
    echo "tier1: the staging reader decodes a copy of the payloads again" >&2
    exit 1
fi
if grep -F 'encode_into(' <<<"$flexpath_src"; then
    echo "tier1: payload bytes travel inline on the staging wire again" >&2
    exit 1
fi
if awk '/fn (write|marshal|ship)\(/{inside=1} inside {print} inside && /:     }$/{inside=0}' <<<"$flexpath_src" |
    grep -F 'Vec::new()'; then
    echo "tier1: FlexpathWriter::write builds a fresh frame again" >&2
    exit 1
fi
oscillator_src=$(for f in crates/oscillator/src/*.rs; do awk '/#\[cfg\(test\)\]/{exit} {print}' "$f"; done)
if tr '\n' ' ' <<<"$oscillator_src" | grep -oE 'DataArray::owned\(\s*(GHOST_ARRAY_NAME|"vtkGhostType")'; then
    echo "tier1: crates/oscillator/src copies the ghost flags into an owned array again" >&2
    exit 1
fi

echo "==> one step format at rest"
# GLEAN's aggregator files and the post hoc pieces are BP-lite steps
# (adios::BpFile), marshalled by adios::staging::marshal and read back
# through adios::staging::round_adaptor. A byte codec in glean or in
# iosim's pieces, or the records such a codec wrote, is a second format.
if awk '/#\[cfg\(test\)\]/{nextfile} {print FILENAME ":" FNR ": " $0}' \
    crates/glean/src/*.rs crates/iosim/src/{vtkio,posthoc}.rs |
    grep -E '(to|from)_le_bytes|BlockRecord|read_blob_file|struct Piece|VtkIoError'; then
    echo "tier1: GLEAN or the post hoc pieces have a step format of their own again" >&2
    exit 1
fi

echo "==> the histogram reads ghosts as kept runs"
# Both local passes walk each leaf's runs of kept values
# (LeafView::kept_runs); a ghost flag tested per value in the product
# code, or the blocked kernels that did so, is a second way back.
if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' \
    crates/sensei/src/analysis/histogram.rs | grep -E 'ghost_at|\.ghosts|blocked_(range|bin)'; then
    echo "tier1: the histogram tests ghost flags per value again" >&2
    exit 1
fi

echo "==> the window is paid as it is reached"
# The autocorrelation reserves its two O(t·N³) buffers at capture and
# appends a row when a step first writes it, and finalize selects an
# unreached delay without reading memory; a fill of the window
# (vec![0.0; …] or a resize) touches pages no step has written.
if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' \
    crates/sensei/src/analysis/autocorrelation.rs | grep -E 'vec!\[0\.0|\.resize\('; then
    echo "tier1: the autocorrelation fills its window before a step writes it again" >&2
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
        grep -E 'PngEncoder|global_range|pseudocolor_slice_bands|shaded_isosurface_bands|draw_slice|draw_isosurface|encode_framebuffer'; then
        echo "tier1: an adaptor's product code drives the render stack itself" >&2
        exit 1
    fi
done

echo "==> one frame buffer per rank"
# Catalyst and Libsim draw into the rank's one spare framebuffer
# (Framebuffer::take from the comm's pool, parked again after the
# encode), and a compositing
# child or folded rank sends a copy of its drawn pixels and keeps its
# buffer. A scene or adaptor keeping a canvas of its own, a recycle of
# a caller-held buffer, or a buffer handed over inside a patch is a
# second frame resident on a rank, or a fresh one faulted in a step.
for f in crates/{render,catalyst,libsim}/src/*.rs; do
    if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$f" |
        grep -E 'keep_frame|KEEP_FRAME|canvas|Framebuffer::recycle|fn recycle\('; then
        echo "tier1: a frame kept beside the rank's spare framebuffer is back" >&2
        exit 1
    fi
done
if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' crates/render/src/composite.rs |
    grep -F 'into_patch('; then
    echo "tier1: composite.rs hands a framebuffer over inside a patch again" >&2
    exit 1
fi

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

echo "==> no image-sized render transient"
# Compositing moves a patch as strips of a fixed pixel budget
# (composite::fill_strip, in buffers that circulate), never the rows a
# rank gives away, or its whole image, as one patch; the collective
# encoder pulls a band's scanlines through its sliding buffer
# (deflate::Input) instead of holding the band's stream. A warm
# render step then holds nothing image-sized beside its frame.
if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' crates/render/src/composite.rs |
    grep -E '\.patch\('; then
    echo "tier1: composite.rs sends a whole patch in one message again" >&2
    exit 1
fi
# A scene's later plot is merged into the frame where it lies
# (Framebuffer::composite_rows_from), not copied into a patch of the
# rows the rank owns — up to a whole image on the tree's root.
if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' crates/render/src/scene.rs |
    grep -E '\.patch\('; then
    echo "tier1: scene.rs copies a later plot into a patch again" >&2
    exit 1
fi
if awk '/#\[cfg\(test\)\]/{exit}
        /^impl PngEncoder/{inside=1}
        inside {print FILENAME ":" FNR ": " $0}
        inside && /^}/{inside=0}' crates/render/src/png.rs |
    grep -E 'vec!\[0; *n\]|let mut raw\b'; then
    echo "tier1: PngEncoder::encode holds a band's scanline stream whole again" >&2
    exit 1
fi

echo "==> coverage is depth"
# A pixel is its RGB and its depth, 7 B; it is covered iff its depth is
# below +inf (framebuffer::covered), and the encoders put the background
# where it is +inf. A 4-byte pixel plane, or a test of a fourth colour
# byte, in render's product code is the alpha byte, and a second
# coverage rule, back.
if awk '/#\[cfg\(test\)\]/{nextfile} {print FILENAME ":" FNR ": " $0}' \
    crates/render/src/{framebuffer,composite,raster,scene,png}.rs |
    grep -E 'Vec<\[u8; *4\]>|\[\[u8; *4\]\]|\[3\] *[!=]= *0'; then
    echo "tier1: render stores an alpha byte or tests one for coverage again" >&2
    exit 1
fi

echo "==> one way to lend a buffer"
# A buffer that goes to a peer and comes back — a compositing strip, a
# staging step — is a minimpi loan (Comm::lend / give_back / reclaim),
# and a rank's spare buffers, the frame among them, wait in its comm's
# pool (Comm::spare / keep). A thread-local pool in render, or a credit
# or ack protocol of a compositor's or FlexPath's own, is a second
# return path the checker and the fault walk do not cover.
if awk '/#\[cfg\(test\)\]/{nextfile} {print FILENAME ":" FNR ": " $0}' \
    crates/render/src/*.rs crates/render/src/*/*.rs |
    grep -F 'thread_local!'; then
    echo "tier1: crates/render/src keeps a thread-local pool again" >&2
    exit 1
fi
if awk '/#\[cfg\(test\)\]/{nextfile} {print FILENAME ":" FNR ": " $0}' \
    crates/render/src/composite.rs crates/adios/src/flexpath.rs |
    grep -E 'TAG_CREDIT|TAG_ACK|type Reply'; then
    echo "tier1: a compositor credit or a FlexPath ack is back beside the loan" >&2
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
