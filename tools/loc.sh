#!/bin/sh
# Count the kernel's code the way ROADMAP.md does: non-blank lines of
# lib/**/*.ml whose first non-blank characters are not "(*".
#
#     sh tools/loc.sh          # per file, sorted by path, then the total
#
# The last line counts the "(* lint: allow" pragmas in lib/ (.ml and
# .mli), the escape hatch of phoebe_check's rules (DESIGN.md §4k).
set -eu
cd "$(dirname "$0")/.."

find lib -name '*.ml' | LC_ALL=C sort | while read -r f; do
  printf '%6d %s\n' "$(grep -v '^[[:space:]]*$' "$f" | grep -cv '^[[:space:]]*(\*' || true)" "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'

printf '%6d lint: allow pragmas in lib/\n' \
  "$(find lib -name '*.ml' -o -name '*.mli' | xargs cat | grep -o '(\* lint: allow ' | wc -l)"
