#!/usr/bin/env bash
# Regenerate the checked-in goldens after an intentional change:
# - tests/golden/render_digests.json: the two framebuffers, the bytes of
#   their Catalyst- and Libsim-style PNG files, and the files the two
#   adaptors write. A change in the *_png entries alone means the
#   encoder's bytes moved, which its byte-identity contract forbids
#   unless the reference encoder (crates/render/src/deflate/reference.rs)
#   moves too.
# - tests/golden/counts.tsv: the table of exact heap, message and work
#   counts (tests/table/mod.rs, checked by tests/counts.rs). A moved row is a cost that moved; name the
#   sites that moved it beside the change.
# - tests/golden/figures.tsv: every numeric cell of the modeled paper
#   tables and figures beside the paper's value, and the paper's prose
#   claims (tests/figures.rs). A moved cell is a figure that moved; list
#   it, old → new, with the constant that moved it.
# Inspect the diff, then commit the new goldens together with the change
# that caused them.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN_REGEN=1 cargo test --test golden_render --test counts --test figures --quiet
git --no-pager diff -- tests/golden/render_digests.json tests/golden/counts.tsv tests/golden/figures.tsv
