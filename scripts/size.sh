#!/usr/bin/env bash
# The two size figures every deletion PR quotes, computed one way:
# (a) Rust source lines outside lint fixtures, (b) public items.
# Usage: scripts/size.sh
set -euo pipefail
cd "$(dirname "$0")/.."

lines=$(find crates src tests examples -name '*.rs' -not -path '*/fixtures/*' -print0 | xargs -0 cat | wc -l)
items=$(grep -rEh '^\s*pub (fn|struct|enum|trait|const|static|type) ' crates/*/src src | wc -l)
echo "rust lines: $lines"
echo "pub items:  $items"
