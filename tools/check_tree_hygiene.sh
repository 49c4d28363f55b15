#!/bin/sh
# Fails (exit 1) on either of two tree defects:
#   * an orphan module: a src/**/*.hpp that no file in src, tools, bench,
#     examples, tests or perfbench includes, other than its own .cpp. Nothing
#     can call such a module, so it is dead code.
#   * a build-tree artifact tracked or staged in git: build*/ directories must
#     never enter the index.
# Run it standalone, from a pre-commit hook, or let CMake invoke it at
# configure time (it does, when configuring inside a git checkout).
#
#   tools/check_tree_hygiene.sh [repo-root]
set -u

root="${1:-$(dirname "$0")/..}"
cd "$root" || exit 2

# Headers are included by their path under src/ ("core/ia.hpp").
orphans=$(find src -name '*.hpp' | sed 's|^src/||' | sort |
    while read -r header; do
        if ! grep -rlF "#include \"$header\"" src tools bench examples tests perfbench \
                2>/dev/null | grep -qvxF "src/${header%.hpp}.cpp"; then
            echo "src/$header"
        fi
    done)

if [ -n "$orphans" ]; then
    echo "error: header(s) included by no file other than their own .cpp:" >&2
    printf '%s\n' "$orphans" >&2
    echo "fix: delete the module or include it where it is used" >&2
    exit 1
fi

if ! git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    # Tarball / exported source: nothing to check.
    exit 0
fi

# Tracked files and staged additions, filtered to build trees.
offenders=$( { git ls-files; git diff --cached --name-only --diff-filter=A; } |
    grep -E '^build[^/]*/' | sort -u)

if [ -n "$offenders" ]; then
    count=$(printf '%s\n' "$offenders" | wc -l)
    echo "error: $count build-tree artifact(s) tracked or staged in git:" >&2
    printf '%s\n' "$offenders" | head -20 >&2
    if [ "$count" -gt 20 ]; then
        echo "  ... and $((count - 20)) more" >&2
    fi
    echo "fix: git rm -r --cached 'build*/' (they are covered by .gitignore)" >&2
    exit 1
fi
exit 0
