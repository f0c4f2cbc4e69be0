#!/bin/sh
# Count the kernel's code the way ROADMAP.md does: non-blank lines of
# lib/**/*.ml whose first non-blank characters are not "(*".
#
#     sh tools/loc.sh                          # per file, sorted by path, then the total
#     sh tools/loc.sh lib/replication lib/shard # per file and a subtotal per path, then the total
#
# Paths are taken relative to the repository root; each is a directory
# (its *.ml files, recursively) or one .ml file. Without paths the last
# two lines count the "(* lint: allow" pragmas in lib/ (.ml and .mli),
# the escape hatch of phoebe_check's rules (DESIGN.md §4k), and how many
# of them are "hot-path-alloc" pragmas (DESIGN.md §4h).
set -eu
cd "$(dirname "$0")/.."

# per_file PATH: one "<count> <file>" line per .ml file under PATH.
per_file() {
  find "$1" -name '*.ml' | LC_ALL=C sort | while read -r f; do
    printf '%6d %s\n' "$(grep -v '^[[:space:]]*$' "$f" | grep -cv '^[[:space:]]*(\*' || true)" "$f"
  done
}

if [ $# -eq 0 ]; then
  per_file lib | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
  pragmas="$(find lib -name '*.ml' -o -name '*.mli' | xargs cat | grep -o '(\* lint: allow [a-z-]*')"
  printf '%6d lint: allow pragmas in lib/\n' "$(printf '%s\n' "$pragmas" | wc -l)"
  printf '%6d of them hot-path-alloc\n' "$(printf '%s\n' "$pragmas" | grep -c 'allow hot-path-alloc$' || true)"
else
  for p in "$@"; do
    [ -e "$p" ] || { echo "loc.sh: no such path: $p" >&2; exit 1; }
  done
  for p in "$@"; do
    per_file "$p" | awk -v p="$p" '{ print; s += $1 } END { printf "%6d subtotal %s\n", s, p }'
  done | awk '{ print } $2 == "subtotal" { total += $1 } END { printf "%6d total\n", total }'
fi
