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

echo "==> every pub item has an outside user"
# A crate's pub items are what other code calls. Each pub name that
# scripts/size.sh counts under crates/<c>/src must be named, outside a
# `//` comment, by an outside user: another crate, the crate's own
# tests/, examples/ or src/bin/, the top-level tests/, examples/ and
# src/, or benchmark/src. An item nothing outside names is pub(crate);
# a `pub use` of it is no user. The one exemption is a type that a
# public signature exposes without any outside user naming it: each is
# listed with the item exposing it, and an entry fails once it is no
# longer needed (the type is named outside, is no longer pub, or the
# exposing item no longer mentions it), so the list only shrinks.
exposed="
adios FlexpathReader Role
adios FlexpathWriter Role
datamodel PublishGuard publish_dataset
datamodel SpaceGuard enter_space
iosim PosthocReport posthoc_analysis
libsim SessionError parse
minimpi CheckReport run_with
minimpi CheckStats CheckReport
minimpi CheckFailure CheckReport
minimpi DecisionLog log
oscillator ParseError parse_deck
probe PhaseAgg RunReport
probe CounterAgg RunReport
probe GaugeAgg RunReport
probe RankMemory RunReport
probe VirtualTimeGuard install_virtual
render InflateError inflate
render LocalSlice extract_plane
render PngError decode_rgb
sanitizer CtxGuard install
sensei ConfigError build_builtin_analyses
sensei Field DataAdaptor
sensei Registration register
"
pub_item='^\s*pub (const fn|fn|struct|enum|trait|const|static|type) '
pub_names() {
    { grep -rhE "$pub_item" "$1" || true; } | sed -E "s/$pub_item([A-Za-z0-9_]+).*/\2/" | sort -u
}
# Does a `pub` declaration of $3 under $1 mention the word $2? A fn's
# declaration runs to its first line ending in `{` or `;`; a struct's,
# enum's or trait's to its closing brace.
exposes() {
    awk -v item="$3" -v ty="$2" '
        !open && match($0, "^[ \t]*pub (const fn|fn|struct|enum|trait|type|const|static) " item "([^A-Za-z0-9_]|$)") {
            open = 1; text = ""; indent = $0; sub(/[^ \t].*/, "", indent)
            block = $0 ~ ("pub (struct|enum|trait) " item)
        }
        open {
            text = text " " $0
            if (block ? ($0 == indent "}" || $0 ~ /;[ \t]*$/ && text !~ /\{/) : $0 ~ /[{;][ \t]*$/) {
                open = 0
                if (text ~ ("(^|[^A-Za-z0-9_])" ty "([^A-Za-z0-9_]|$)")) found = 1
            }
        }
        END { exit !found }' $(find "$1" -name '*.rs')
}
surface_ok=1
for dir in crates/*/; do
    c=$(basename "$dir")
    words=$(find crates tests examples src benchmark/src -name '*.rs' \
        \( -not -path "crates/$c/src/*" -o -path "crates/$c/src/bin/*" \) -print0 |
        xargs -0 sed -E 's|//.*||' | grep -ohE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)
    names=$(pub_names "crates/$c/src")
    listed=$(awk -v c="$c" '$1 == c {print $2}' <<<"$exposed" | sort -u)
    for n in $(comm -23 <(echo "$names") <(echo "$words") | comm -23 - <(echo "$listed")); do
        echo "tier1: pub item \`$n\` in crates/$c has no outside user; make it pub(crate) or delete it" >&2
        surface_ok=0
    done
    while read -r _ ty by; do
        if grep -qx "$ty" <<<"$words"; then
            echo "tier1: \`$ty\` (crates/$c) is named outside now; drop its exemption" >&2
            surface_ok=0
        elif ! grep -qx "$ty" <<<"$names"; then
            echo "tier1: \`$ty\` (crates/$c) is no longer pub; drop its exemption" >&2
            surface_ok=0
        elif ! exposes "crates/$c/src" "$ty" "$by"; then
            echo "tier1: no pub \`$by\` in crates/$c exposes \`$ty\`; drop its exemption" >&2
            surface_ok=0
        fi
    done < <(awk -v c="$c" '$1 == c' <<<"$exposed")
done
if [ "$surface_ok" -ne 1 ]; then
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

echo "==> one deadlock rule"
# Every world keeps one rank table and aborts as soon as no live rank
# can run, under every scheduling policy (crates/minimpi/src/sched.rs).
# A wall-clock watchdog with a grace period beside that rule is a second
# deadlock detector, and a rank waiting on a finished one waits out the
# grace.
if [ -e crates/minimpi/src/monitor.rs ]; then
    echo "tier1: crates/minimpi/src/monitor.rs is back" >&2
    exit 1
fi
if grep -rnE 'run_watchdog|rank-watchdog|DEFAULT_WATCHDOG_GRACE|\.watchdog\(' crates tests examples; then
    echo "tier1: a wall-clock deadlock watchdog is back" >&2
    exit 1
fi

echo "==> one decision source"
# Under a deterministic policy every schedule decision (which rank runs,
# which sender an ANY_SOURCE receive matches) is made by the one
# Sched::decide in crates/minimpi/src/sched.rs, from the policy's one
# source: a seeded draw, a replayed choice or a guided prefix. Under
# replay one emit checks every event against the recording. A second
# chooser (guided_choice, a free-running Mode::Os arm that cannot be
# reached), a second RNG draw or a second divergence formatter is a
# second decision source back.
sched_src=$(awk '/#\[cfg\(test\)\]/{exit} {sub(/\/\/.*/, ""); print FILENAME ":" FNR ": " $0}' \
    crates/minimpi/src/sched.rs)
if grep -E 'fn guided_choice\b|Mode::Os\b' <<<"$sched_src" ||
    awk '/enum Mode \{/{on = 1} on && /^[^:]*:[0-9]+: *Os([^A-Za-z0-9_]|$)/ {print; found = 1} on && /: }$/{on = 0}
        END {exit !found}' <<<"$sched_src"; then
    echo "tier1: crates/minimpi/src/sched.rs has guided_choice or a Mode::Os again" >&2
    exit 1
fi
decide_fns=$(grep -cE '\bfn decide\b' <<<"$sched_src" || true)
if [ "$decide_fns" -ne 1 ]; then
    echo "tier1: crates/minimpi/src/sched.rs has $decide_fns fn decide, expected 1" >&2
    exit 1
fi
for what in 'gen_range' 'divergence_message|replay diverged'; do
    if [ "$(grep -cE "$what" <<<"$sched_src" || true)" -gt 1 ]; then
        grep -E "$what" <<<"$sched_src" >&2
        echo "tier1: crates/minimpi/src/sched.rs has \`$what\` more than once" >&2
        exit 1
    fi
done

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

echo "==> ghost flags where a ghost is"
# A block that duplicates no plane has no ghost: duplicate_point_ghosts
# returns no flags for it, so the oscillator lists, attaches and ships
# none, and readers take the absent array as every tuple kept. A step's
# field is derived with its array alone (Derived::derive), and the
# flags are asked for, on a mesh of their own, only when a reader wants
# the kept tuples, so an infrastructure that draws every point never
# builds them.
ghosts_fn=$(awk '/^pub fn duplicate_point_ghosts/,/^}/' crates/datamodel/src/decomp.rs)
if ! grep -qF -- '-> Option<Vec<u8>>' <<<"$ghosts_fn" || ! grep -qF 'return None' <<<"$ghosts_fn"; then
    echo "tier1: duplicate_point_ghosts returns flags for a block with no ghost again" >&2
    exit 1
fi
derive_fn=$(awk '/^impl Derived \{/ {on = 1} on && /fn derive/ {body = 1} body {print} body && /^    \}$/ {exit}' \
    crates/sensei/src/field.rs)
if [ -z "$derive_fn" ] || grep -n 'GHOST_ARRAY_NAME\|vtkGhostType' <<<"$derive_fn"; then
    echo "tier1: the step's field attaches the ghost flags for every reader again" >&2
    exit 1
fi

echo "==> in transit payloads move in bulk, in their own type"
# BP payloads are encoded and decoded a slice at a time; outside the
# tests, the per-scalar f64 reads are the step time and the attribute
# values (each `f64::from_le_bytes` of the decoder's checked `get`), and
# nothing travels widened.
adios_src=$(for f in crates/adios/src/*.rs; do awk '/#\[cfg\(test\)\]/{exit} {print}' "$f"; done)
scalar_calls=$(grep -cF 'f64::from_le_bytes' <<<"$adios_src" || true)
if [ "$scalar_calls" -ne 2 ]; then
    echo "tier1: $scalar_calls f64::from_le_bytes calls in crates/adios/src, expected 2" >&2
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
echo "==> one receive path"
# The rank table holds each rank's mailbox (one per communicator), and
# every receive runs one loop under every scheduling policy: it matches
# in the mailbox and waits on the table until mail, its deadline or the
# world's abort wakes it. A std channel beside the table, a polling
# wake-up, or a second matching engine is a second receive path back.
if grep -rnE 'std::sync::mpsc|recv_timeout|POLL_TICK|block_free|drain_channel' crates/minimpi/src; then
    echo "tier1: crates/minimpi/src has a second receive path (a channel, a poll tick or a drain)" >&2
    exit 1
fi
if [ "$(grep -cE '^\s*(pub(\([a-z]+\))? )?fn match_envelope' crates/minimpi/src/comm.rs)" -gt 1 ]; then
    echo "tier1: crates/minimpi/src/comm.rs defines more than one fn match_envelope*" >&2
    exit 1
fi

if tr '\n' ' ' <<<"$oscillator_src" | grep -oE 'DataArray::owned\(\s*(GHOST_ARRAY_NAME|"vtkGhostType")'; then
    echo "tier1: crates/oscillator/src copies the ghost flags into an owned array again" >&2
    exit 1
fi

echo "==> std over shims"
# Mail is a VecDeque per mailbox in minimpi's rank table, channels
# elsewhere are std::sync::mpsc, and BP-lite writes into a plain Vec<u8>;
# the shims left are rand, proptest and parking_lot. A crossbeam or
# bytes shim, a manifest naming one, or an import of one is a
# re-implementation of std back.
for shim in shims/crossbeam shims/bytes; do
    if [ -e "$shim" ]; then
        echo "tier1: $shim is back" >&2
        exit 1
    fi
done
if find . \( -name target -o -path './.*' -o -path ./benchmark \) -prune -o -name Cargo.toml -print0 |
    xargs -0 grep -nwE 'crossbeam|bytes'; then
    echo "tier1: a Cargo.toml outside benchmark/ names crossbeam or bytes" >&2
    exit 1
fi
if grep -rnE 'crossbeam::|use bytes' crates tests examples src; then
    echo "tier1: a source file uses crossbeam or bytes" >&2
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

echo "==> one way to an image"
# Every in situ picture, the science proxies' among them (PHASTA's cut
# through the wing is render::scene::Plot::Cut), is a Scene::frame:
# range, draw, composite and encode, collectively. Outside render, the
# tests and the benchmark, a product source or an example that names a
# raster, gathered-pipeline, composite or serial-encode piece is drawing
# a frame by hand beside the scene. (The PNG ablation's
# render::png::encode_rgb in bench::realruns times the codec alone.)
if { for f in $(find crates/*/src src -name '*.rs' -not -path 'crates/render/src/*'); do
        awk '/^#\[cfg\(test\)\]/{exit} {sub(/\/\/.*/, ""); print FILENAME ":" FNR ": " $0}' "$f"
    done
    for f in examples/*.rs; do
        awk '{sub(/\/\/.*/, ""); print FILENAME ":" FNR ": " $0}' "$f"
    done; } |
    grep -E '\bfill_triangle\b|composite::(composite\b|\{[^}]*\bcomposite\b)|\bencode_framebuffer\b|Framebuffer::new\b|\bpseudocolor_slice\b|\bshaded_isosurface\b'; then
    echo "tier1: a product source or example outside render draws a frame by hand; make it a render::scene::Scene" >&2
    exit 1
fi

echo "==> one attach classifier"
# Every producer types a failed attach through one function,
# sensei::AdaptorError::classify: a name listed under no association is
# UnknownArray, one listed only under the other WrongAssociation, one
# listed but not attachable to that mesh LayoutUnsupported. Outside
# crates/sensei/src, a product source or an example that builds one of
# those three variants is a second classifier beside it.
if { for f in $(find crates/*/src src -name '*.rs' -not -path 'crates/sensei/src/*'); do
        awk '/^#\[cfg\(test\)\]/{exit} {sub(/\/\/.*/, ""); print FILENAME ":" FNR ": " $0}' "$f"
    done
    for f in examples/*.rs; do
        awk '{sub(/\/\/.*/, ""); print FILENAME ":" FNR ": " $0}' "$f"
    done; } |
    grep -E 'AdaptorError::(UnknownArray|WrongAssociation|LayoutUnsupported)\b'; then
    echo "tier1: a producer types a failed attach itself; return sensei::AdaptorError::classify" >&2
    exit 1
fi

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

echo "==> a frame holds the rows it keeps"
# A rank's frame holds the rows compositing leaves it
# (Compositor::kept_rows: half of binary swap's image after the first
# halving, the tree's image on its root and inner nodes, nothing on a
# leaf), and the rows it gives away are drawn strip by strip as they are
# sent; only `gather`, which hands rank 0 the finished image, builds a
# buffer of the whole image. In scene.rs or composite.rs product code
# outside gather, a frame taken or built at the image's height — a
# Framebuffer::new, a take of (comm, width, height) with no rows, or a
# take or with_rows of the rows 0..height — is the whole frame on every
# rank back.
frames=$(awk '/#\[cfg\(test\)\]/{nextfile}
        /^pub\(crate\) fn gather\(/{skip=1}
        skip && /^}/{skip=0; next}
        !skip {print FILENAME ":" FNR ": " $0}' crates/render/src/{scene,composite}.rs |
    grep -E 'Framebuffer::(new|take|with_rows)\(' || true)
if grep -E 'Framebuffer::new\(|Framebuffer::take\([^,()]*,[^,()]*,[^,()]*\)|0 *\.\. *(height|h)\b' <<<"$frames"; then
    echo "tier1: scene.rs or composite.rs takes a frame of the whole image outside gather" >&2
    exit 1
fi

echo "==> a frame ships what it draws"
# Compositing moves strips, each a buffer of the part of the drawn
# rectangle inside the strip's rows. Outside `gather`, which moves
# finished bands, a send or receive in composite.rs's product code that
# is not a Strip ships a whole Framebuffer again.
if awk '/#\[cfg\(test\)\]/{exit}
        /^pub\(crate\) fn gather\(/{skip=1}
        skip && /^}/{skip=0; next}
        !skip {print FILENAME ":" FNR ": " $0}' crates/render/src/composite.rs |
    grep -E 'comm\.(send|recv)' | grep -vE '\bstrip\)|: Strip = '; then
    echo "tier1: composite.rs sends or receives a whole Framebuffer outside gather" >&2
    exit 1
fi

echo "==> one of each render scratch a rank"
# A rank keeps one encoder in its comm's pool, whichever scene encodes
# (PngEncoder::encode takes and parks it), and draws each strip it gives
# away straight into the buffer that travels. An encoder owned by a
# Scene, a strip buffer drawn into and then copied out of, or a Patch
# that the copy fills is a second copy of the render scratch back.
if awk '/#\[cfg\(test\)\]/{nextfile} {print FILENAME ":" FNR ": " $0}' crates/render/src/*.rs |
    grep -E 'struct Patch\b|StripBuffer|copy_patch'; then
    echo "tier1: a Patch or a strip buffer is back in crates/render/src" >&2
    exit 1
fi
if awk '/#\[cfg\(test\)\]/{exit} /^pub struct Scene/{inside=1} inside {print FILENAME ":" FNR ": " $0} inside && /^}/{inside=0}' \
    crates/render/src/scene.rs | grep -F 'PngEncoder'; then
    echo "tier1: a Scene owns a PngEncoder again" >&2
    exit 1
fi

echo "==> no image-sized render transient"
# Compositing moves a patch as strips of a fixed pixel budget
# (composite::Give::fill, in buffers that circulate), never the rows a
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

echo "==> a slice is coloured once a frame"
# A slice is prepared once a frame: slice::Plane::prepare colours each
# cell and finds the pixel columns and rows of each cell column and
# row. A draw into a frame or a strip only fills memory, the first row
# a row of cells holds span by span and copies of it in the others. A
# colormap lookup or a Color in slice.rs's product code outside
# prepare, the per-cell fill_rect, or a colour taken in the draw arm of
# Layer::Slice recolours the cells for every strip again.
slice_src=$(awk '/^#\[cfg\(test\)\]/{exit}
        {sub(/\/\/.*/, "")}
        !inside && /fn prepare\(/{inside = 1; indent = $0; sub(/[^ \t].*/, "", indent); next}
        inside {if ($0 == indent "}") inside = 0; next}
        {print FILENAME ":" FNR ": " $0}' crates/render/src/slice.rs)
if grep -E 'map_range|Colormap::map|cmap\.map\(|\bColor\b' <<<"$slice_src"; then
    echo "tier1: slice.rs colours a cell outside Plane::prepare" >&2
    exit 1
fi
if awk '/^#\[cfg\(test\)\]/{nextfile} {sub(/\/\/.*/, ""); print FILENAME ":" FNR ": " $0}' \
    crates/render/src/*.rs | grep -E '\bfill_rect\b'; then
    echo "tier1: the per-cell fill_rect is back in crates/render/src" >&2
    exit 1
fi
slice_arm=$(awk '/^#\[cfg\(test\)\]/{exit}
        {sub(/\/\/.*/, "")}
        /^impl RowSource for Layer \{/{in_impl = 1}
        in_impl && /fn draw\(/{in_draw = 1}
        in_draw && /Layer::Slice/{arm = 1}
        in_draw && arm && /Layer::(Empty|Triangles)/{arm = 0}
        arm {print FILENAME ":" FNR ": " $0}
        in_impl && /^}/{in_impl = 0; in_draw = 0; arm = 0}' crates/render/src/pipeline.rs)
if [ -z "$slice_arm" ]; then
    echo "tier1: no Layer::Slice arm in pipeline.rs's RowSource::draw; point this leg at the slice's draw" >&2
    exit 1
fi
if grep -E 'map_range|Colormap|cmap|prepare|render_plane' <<<"$slice_arm"; then
    echo "tier1: Layer::Slice's draw arm colours the slice again" >&2
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

echo "==> one wire-size rule"
# A payload's wire bytes are its size_of plus the heap bytes it ships,
# stated once by its type through minimpi::Wire; minimpi's send path
# charges value.wire_bytes(). A downcast that sizes a payload (a
# downcast_ref in crates/minimpi/src outside downcast_payload, which
# receives one, and panic_text, which reads a panic's message) or a
# shallow size_of::<T>() fallback is a second rule that undercounts
# every type it does not know. Render counts no traffic by hand: its
# strips are minimpi/p2p messages at their wire bytes.
wire_src=$(awk 'FNR == 1 {f = ""} /^#\[cfg\(test\)\]/{nextfile} {sub(/\/\/.*/, "")}
    match($0, /fn [A-Za-z0-9_]+/) {f = substr($0, RSTART + 3, RLENGTH - 3)}
    {print FILENAME ":" FNR ": " f ": " $0}' crates/minimpi/src/*.rs)
if grep -E 'downcast_ref' <<<"$wire_src" | grep -vE '^[^:]+:[0-9]+: (downcast_payload|panic_text): '; then
    echo "tier1: crates/minimpi/src downcasts a payload to size it; implement minimpi::Wire for its type" >&2
    exit 1
fi
if grep -F 'size_of::<T>()' <<<"$wire_src"; then
    echo "tier1: crates/minimpi/src falls back to a payload's shallow size_of" >&2
    exit 1
fi
if awk '/^#\[cfg\(test\)\]/{nextfile} {sub(/\/\/.*/, ""); print FILENAME ":" FNR ": " $0}' \
    $(find crates/render/src -name '*.rs') | grep -F '.message('; then
    echo "tier1: crates/render/src counts messages by hand; its traffic is minimpi's" >&2
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

echo "==> the step kernel keeps libm exp"
# The step kernel is bitwise step_naive: each term is `amp * (-d2 /
# denom).exp()` on libm's f64::exp, added in deck order with no fused
# multiply-add, on the rank's own thread. And the kernel, from
# fill_culled to the tests, reuses the row tables its Simulation keeps,
# so a buffer it builds is a heap call every step.
sim_src=$(awk '/^#\[cfg\(test\)\]/{exit} {sub(/\/\/.*/, ""); print FILENAME ":" FNR ": " $0}' \
    crates/oscillator/src/sim.rs)
if grep -E 'mul_add|\bthread\b|spawn\(|rayon' <<<"$sim_src"; then
    echo "tier1: crates/oscillator/src/sim.rs fuses a multiply-add or starts a thread" >&2
    exit 1
fi
other_exp=$(grep -oE '(\.|([A-Za-z0-9_]+::)+)?[A-Za-z0-9_]*exp[A-Za-z0-9_]*[[:space:]]*\(' <<<"$sim_src" |
    grep -vxE '\.exp\(|f64::exp\(' || true)
if [ -n "$other_exp" ]; then
    echo "$other_exp" >&2
    echo "tier1: crates/oscillator/src/sim.rs calls an exp other than f64::exp" >&2
    exit 1
fi
kernel_src=$(awk '/^#\[cfg\(test\)\]/{exit} /^fn fill_culled[(<]/{on = 1} on {sub(/\/\/.*/, ""); print FILENAME ":" FNR ": " $0}' \
    crates/oscillator/src/sim.rs)
if [ -z "$kernel_src" ]; then
    echo "tier1: fn fill_culled is gone from crates/oscillator/src/sim.rs; point this leg at the kernel" >&2
    exit 1
fi
if grep -E 'Vec::new|with_capacity|vec!|collect|to_vec|Box::new' <<<"$kernel_src"; then
    echo "tier1: the step kernel allocates; keep its buffers in the Simulation" >&2
    exit 1
fi

echo "==> the lint rules have no escape hatch"
# The workspace lint rules (DESIGN §10) are clippy's, checked by the
# clippy leg below: clippy.toml disallows the std clock and lock types
# (R2, R3) and lets tests unwrap, [workspace.lints.clippy] denies those
# types and an unsafe block or impl without a SAFETY comment (R1), and
# each core crate's root denies unwrap and expect (R4). A second lint
# checker, a config entry dropped, a crate leaving the workspace lints,
# or an allow outside the two sanctioned wrappers (probe::time and the
# parking_lot shim) switches a rule off.
lint_ok=1
lint_fail() {
    echo "tier1: $1" >&2
    lint_ok=0
}
if [ -e crates/lint ]; then
    lint_fail "crates/lint is back; the lint rules are clippy's"
fi
for ty in std::time::Instant std::time::SystemTime std::sync::Mutex std::sync::RwLock std::sync::Condvar std::sync::Barrier; do
    grep -qF "{ path = \"$ty\"" clippy.toml 2>/dev/null || lint_fail "clippy.toml no longer disallows $ty"
done
for key in allow-unwrap-in-tests allow-expect-in-tests; do
    grep -qx "$key = true" clippy.toml 2>/dev/null || lint_fail "clippy.toml lost \`$key = true\`"
done
for lint in undocumented_unsafe_blocks disallowed_types; do
    awk -v l="$lint" '/^\[/{in_clippy = ($0 == "[workspace.lints.clippy]")} in_clippy && $0 == l " = \"deny\"" {found = 1}
        END {exit !found}' Cargo.toml || lint_fail "Cargo.toml's [workspace.lints.clippy] no longer denies $lint"
done
for manifest in crates/*/Cargo.toml shims/*/Cargo.toml; do
    awk '/^\[/{in_lints = ($0 == "[lints]")} in_lints && $0 == "workspace = true" {found = 1}
        END {exit !found}' "$manifest" || lint_fail "$manifest does not take the workspace lints"
done
for c in minimpi datamodel sensei science adios glean catalyst libsim perfmodel sanitizer render iosim probe; do
    grep -qxF '#![deny(clippy::unwrap_used, clippy::expect_used)]' "crates/$c/src/lib.rs" ||
        lint_fail "crates/$c/src/lib.rs lost its unwrap/expect deny"
done
escapes=$(grep -rnE '(allow|expect)\([^)]*clippy::(disallowed_types|unwrap_used|expect_used|undocumented_unsafe_blocks|all|style|restriction)\b' \
    crates shims src tests examples | grep -vE '^(crates/probe/src/time\.rs|shims/parking_lot/src/lib\.rs):[0-9]+:#!\[allow\(clippy::disallowed_types\)\]$' || true)
if [ -n "$escapes" ]; then
    echo "$escapes" >&2
    lint_fail "a lint rule is allowed outside probe::time and the parking_lot shim"
fi
if [ "$lint_ok" -ne 1 ]; then
    exit 1
fi

echo "==> one table of exact rows"
# Every exact heap row the top-level tests pin is a row of
# tests/golden/counts.tsv, measured by the one harness in
# tests/table/mod.rs. A
# heap window read anywhere else under tests/ is a second place where
# such a row lives, outside the table and its regeneration.
if grep -rnE 'probe::alloc::(rise_since|allocations)' tests --include='*.rs' |
    grep -v '^tests/table/mod\.rs:'; then
    echo "tier1: a heap window is read outside tests/table/mod.rs; make it a row of the table" >&2
    exit 1
fi

echo "==> each paper number is checked once"
# Every printed number of the paper, fitted or predicted, and every prose
# claim about a figure is a line of tests/golden/figures.tsv, checked by
# tests/figures.rs. A test module beside the figures, or Table's cell
# lookups that such tests read, is a second check of the same numbers
# with tolerances of its own.
if grep -n '#\[cfg(test)\]' crates/bench/src/figures.rs; then
    echo "tier1: crates/bench/src/figures.rs has a test module again; the figures are checked by tests/figures.rs" >&2
    exit 1
fi
if awk '/^#\[cfg\(test\)\]/{nextfile} {sub(/\/\/.*/, ""); print FILENAME ":" FNR ": " $0}' \
    $(find crates/bench/src -name '*.rs') | grep -E 'fn (value|column)\('; then
    echo "tier1: Table::value or Table::column is back in crates/bench/src" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo test --release -p render -p bench, counts"
# The encoder's byte identities where its arithmetic is optimised, and
# the one assertion about wall time (Table 2's ablation: compressing
# costs more than storing), which only means something in this build
# and is compiled only into it; and the table of exact counts, which
# must hold in the build the benchmark runs too.
cargo test --release -q -p render -p bench
cargo test --release -q --test counts

echo "==> cargo test --release -p oscillator, properties culled_kernel"
# The step kernel's bit identity with step_naive in the build the
# benchmark runs (debug builds additionally prove every skipped term).
cargo test --release -q -p oscillator
cargo test --release -q --test properties culled_kernel

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "tier1: all green"
