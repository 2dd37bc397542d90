#!/usr/bin/env bash
# The three size figures every PR quotes, computed one way:
# (a) product lines — `crates/*/src` and `src`, each file cut at its
#     first top-level `#[cfg(test)]` (as scripts/tier1.sh cuts
#     crates/adios/src), a file that is itself a `#[cfg(test)] mod` of
#     its parent (an oracle such as deflate/reference.rs) not counted;
# (b) test lines — the rest of those files, plus everything else under
#     `crates`, `tests` and `examples`, so that (a) + (b) is the one
#     "rust lines" figure PRs up to 19 quoted;
# (c) public items.
# Usage: scripts/size.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Is $1 (dir/x.rs) declared `#[cfg(test)] mod x;` by its parent module?
test_only() {
    local dir parent
    dir=$(dirname "$1")
    for parent in "$dir.rs" "$dir/mod.rs" "$dir/lib.rs" "$dir/main.rs"; do
        if [ -f "$parent" ] && grep -A1 '^#\[cfg(test)\]$' "$parent" | grep -qx "mod $(basename "$1" .rs);"; then
            return 0
        fi
    done
    return 1
}

product=0
while IFS= read -r -d '' f; do
    test_only "$f" && continue
    n=$(awk '/^#\[cfg\((all\()?test[,)]/{exit} {n++} END{print n+0}' "$f")
    product=$((product + n))
done < <(find crates/*/src src -name '*.rs' -print0)

lines=$(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)
items=$(grep -rEh '^\s*pub (fn|struct|enum|trait|const|static|type) ' crates/*/src src | wc -l)
echo "product lines: $product"
echo "test lines:    $((lines - product))"
echo "pub items:     $items"
