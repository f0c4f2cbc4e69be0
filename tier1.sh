#!/bin/sh
# Tier-1 gate: formatting, build, unit/property tests, static analysis, and a
# 5-virtual-second Exp-1-shaped benchmark smoke whose --json output must
# parse (guards the JSON emitter and the observability registry export).
set -eu
cd "$(dirname "$0")"

tmpdir="$(mktemp -d /tmp/phoebe-tier1-XXXXXX)"
trap 'rm -rf "$tmpdir"' EXIT

echo "== dune build @fmt"
dune build @fmt

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== static analysis (phoebe_check: determinism, idiom and effect rules over the typed ASTs, double-run identical)"
check_a="$tmpdir/check-a.txt"
check_b="$tmpdir/check-b.txt"
dune exec bin/phoebe_check.exe -- --root . _build/default/lib > "$check_a"
dune exec bin/phoebe_check.exe -- --root . _build/default/lib > "$check_b"
cmp "$check_a" "$check_b"
cat "$check_a"

echo "== bench smoke (5 virtual seconds of exp1 at W=2, --json)"
json_tmp="$tmpdir/smoke.json"
dune exec bench/main.exe -- smoke --json "$json_tmp"
dune exec bench/main.exe -- --check-json "$json_tmp"

echo "== allocation regression gate (txn.alloc.minor_words_per_txn)"
# Checked-in budget: the seed-42 smoke measured 7,505 minor words per
# transaction once the per-module cost lookups stopped allocating an
# option per charge and undo GC stopped copying rows for non-key
# updates (EXPERIMENTS.md, down from 9,225); the budget keeps the same
# ~14% headroom. If this trips, something put fresh allocation back on
# the execute path — see DESIGN.md section 4h.
alloc_budget=8600
alloc_measured="$(sed -n 's/.*"txn\.alloc\.minor_words_per_txn": *\([0-9.]*\).*/\1/p' "$json_tmp" | head -n 1)"
if [ -z "$alloc_measured" ]; then
  echo "   FAIL: txn.alloc.minor_words_per_txn missing from smoke --json output" >&2
  exit 1
fi
if awk -v m="$alloc_measured" -v b="$alloc_budget" 'BEGIN { exit !(m > b) }'; then
  echo "   FAIL: $alloc_measured minor words/txn exceeds the checked-in budget of $alloc_budget" >&2
  exit 1
fi
echo "   $alloc_measured minor words/txn (budget $alloc_budget)"

echo "== determinism (fixed-seed double run under --sanitize, byte-identical json + digest)"
det_a="$tmpdir/det-a.json"
det_b="$tmpdir/det-b.json"
dune exec bench/main.exe -- smoke --sanitize --seed 42 --json "$det_a" > /dev/null
dune exec bench/main.exe -- smoke --sanitize --seed 42 --json "$det_b" > /dev/null
cmp "$det_a" "$det_b"
grep -q '"sanitize.replay_digest"' "$det_a"
grep -q '"sanitize.findings": 0' "$det_a"
echo "   double run byte-identical, replay digest present, zero findings"

echo "== overload smoke (offered-load sweep, admission on vs off, --json)"
overload_tmp="$tmpdir/overload.json"
dune exec bench/main.exe -- overload --json "$overload_tmp"
dune exec bench/main.exe -- --check-json "$overload_tmp"

echo "== recovery smoke (fixed-seed crash + replay vs checkpoint cadence, --json)"
recovery_tmp="$tmpdir/recovery.json"
dune exec bench/main.exe -- --experiment recovery --seed 42 --json "$recovery_tmp"
dune exec bench/main.exe -- --check-json "$recovery_tmp"

echo "== sharded smoke (K x offered-load scaling grid with 2PC, --json, double-run identical)"
sharded_a="$tmpdir/sharded-a.json"
sharded_b="$tmpdir/sharded-b.json"
dune exec bench/main.exe -- --experiment sharded --seed 42 --json "$sharded_a"
dune exec bench/main.exe -- --check-json "$sharded_a"
dune exec bench/main.exe -- --experiment sharded --seed 42 --json "$sharded_b" > /dev/null
cmp "$sharded_a" "$sharded_b"
echo "   scaling grid parses, double run byte-identical"

echo "== ha_failover smoke (quorum failover grid, --json, double-run identical)"
ha_a="$tmpdir/ha-a.json"
ha_b="$tmpdir/ha-b.json"
dune exec bench/main.exe -- --experiment ha_failover --seed 42 --json "$ha_a"
dune exec bench/main.exe -- --check-json "$ha_a"
dune exec bench/main.exe -- --experiment ha_failover --seed 42 --json "$ha_b" > /dev/null
cmp "$ha_a" "$ha_b"
echo "   failover grid parses, double run byte-identical"

echo "== tier-1: OK"
