#!/usr/bin/env bash
# Regenerate the golden render digests (tests/golden/render_digests.json:
# the two framebuffers, the bytes of their Catalyst- and Libsim-style
# PNG files, and the files the two adaptors write) after an intentional
# rendering or PNG-encoder change.
# Inspect the diff, then commit the new goldens together with the change
# that caused them. A change in the *_png entries alone means the
# encoder's bytes moved, which its byte-identity contract forbids unless
# the reference encoder (crates/render/src/deflate/reference.rs) moves too.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN_REGEN=1 cargo test --test golden_render --quiet
git --no-pager diff -- tests/golden/render_digests.json
