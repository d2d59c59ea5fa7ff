#!/usr/bin/env bash
# Diff ocdd-lint findings between two revisions.
#
#   scripts/lint_diff.sh             # HEAD vs the working tree
#   scripts/lint_diff.sh OLD         # OLD vs the working tree
#   scripts/lint_diff.sh OLD NEW     # OLD vs NEW (any git revisions)
#
# Each revision's tree is extracted with `git archive` and scanned by the
# *current* linter binary (tool constant, corpus varies), the `--emit json`
# documents are reduced to sorted "rule file:line" triples, and the two
# sides are compared. Exit status: 0 when no finding was introduced, 1 when
# the NEW side has findings absent from OLD — so the script doubles as a
# review gate even while a nonzero baseline exists.
#
# All sorting and comparison run under LC_ALL=C: `comm` silently produces
# garbage when its inputs were sorted under a different collation than its
# own, and a locale-dependent order turns a mere findings reordering into
# spurious "introduced" lines.
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."

old_rev="${1:-HEAD}"
new_rev="${2:-}"

cleanup_paths=()
cleanup() {
    rm -rf "${cleanup_paths[@]}"
}
trap cleanup EXIT

# Scan the workspace at $1 and leave its `--emit json` document at $2.
scan() {
    cargo run -q -p ocdd-lint -- "$1" --emit json >"$2" || true
}

# Reduce a findings document to one "rule file:line" per finding, sorted.
findings() {
    sed -n 's/.*"rule": "\([^"]*\)", "file": "\([^"]*\)", "line": \([0-9]*\),.*/\1 \2:\3/p' \
        "$1" | sort -u
}

# Reduce a findings document to one "rule count" line per rule, sorted.
rule_counts() {
    sed -n 's/^  "rules": {\(.*\)},$/\1/p' "$1" | tr ',' '\n' |
        sed -n 's/^ *"\([a-z-]*\)": \([0-9]*\)$/\1 \2/p' | sort
}

# Extract revision $1 into a temp tree and echo the tree's path.
extract() {
    local rev="$1" dir
    dir="$(mktemp -d)"
    cleanup_paths+=("$dir")
    git archive "$rev" | tar -x -C "$dir"
    echo "$dir"
}

old_json="$(mktemp)"
new_json="$(mktemp)"
old_list="$(mktemp)"
new_list="$(mktemp)"
cleanup_paths+=("$old_json" "$new_json" "$old_list" "$new_list")

scan "$(extract "$old_rev")" "$old_json"
if [[ -n "$new_rev" ]]; then
    scan "$(extract "$new_rev")" "$new_json"
    new_label="$new_rev"
else
    scan "." "$new_json"
    new_label="working tree"
fi
findings "$old_json" >"$old_list"
findings "$new_json" >"$new_list"

# Per-rule count deltas first: the coarse view catches a rule whose total
# moved even when individual findings merely shifted lines.
rule_delta="$(join <(rule_counts "$old_json") <(rule_counts "$new_json") |
    awk '$2 != $3 { printf "  %s %s -> %s\n", $1, $2, $3 }')"
if [[ -n "$rule_delta" ]]; then
    echo "per-rule counts ($old_rev -> $new_label):"
    echo "$rule_delta"
fi

fixed="$(comm -23 "$old_list" "$new_list")"
introduced="$(comm -13 "$old_list" "$new_list")"

if [[ -n "$fixed" ]]; then
    echo "fixed since $old_rev:"
    echo "$fixed" | sed 's/^/  - /'
fi
if [[ -n "$introduced" ]]; then
    echo "introduced in $new_label:"
    echo "$introduced" | sed 's/^/  + /'
    exit 1
fi
echo "lint_diff: no findings introduced ($old_rev -> $new_label)"
