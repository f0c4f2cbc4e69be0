#!/bin/sh
# Tier-1 gate: formatting, build, unit/property tests, the examples, static
# analysis, and a 5-virtual-second Exp-1-shaped benchmark smoke whose
# --json output must parse and hold its section (guards the JSON emitter and the
# observability registry export). A harness check that fails (TPC-C
# consistency, recovered rows) exits the bench non-zero.
set -eu
cd "$(dirname "$0")"

tmpdir="$(mktemp -d /tmp/phoebe-tier1-XXXXXX)"
trap 'rm -rf "$tmpdir"' EXIT

# bench_json NAME KEY BENCH-ARGS...: run the bench with --json output to
# "$tmpdir/NAME.json", check that the output parses and that it holds
# the top-level section KEY (a harness that emits nothing writes {}).
bench_json() {
  name="$1"
  key="$2"
  shift 2
  dune exec bench/main.exe -- "$@" --json "$tmpdir/$name.json"
  dune exec bench/main.exe -- --check-json "$tmpdir/$name.json"
  grep -q "^  \"$key\": " "$tmpdir/$name.json"
}

# double_run NAME KEY BENCH-ARGS...: bench_json, then run the same
# fixed-seed arguments again and require byte-identical output.
double_run() {
  bench_json "$@"
  name="$1"
  shift 2
  dune exec bench/main.exe -- "$@" --json "$tmpdir/$name-b.json" > /dev/null
  cmp "$tmpdir/$name.json" "$tmpdir/$name-b.json"
}

# zero_findings NAME: the sanitized run's "$tmpdir/NAME.json" exports
# sanitize.findings (one per registry it carries) and every one is 0.
zero_findings() {
  out="$tmpdir/$1.json"
  if ! grep -q 'sanitize\.findings": ' "$out"; then
    echo "   FAIL: no sanitize.findings in the sanitized $1 --json output" >&2
    exit 1
  fi
  if grep 'sanitize\.findings": ' "$out" | grep -qv 'sanitize\.findings": 0,\?$'; then
    echo "   FAIL: sanitizer findings in the $1 run:" >&2
    grep 'sanitize\.findings": ' "$out" | grep -v 'sanitize\.findings": 0,\?$' >&2
    exit 1
  fi
}

echo "== dune build @fmt"
dune build @fmt

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== examples (every examples/*.exe exits 0; quickstart restarts through WAL replay)"
for src in examples/*.ml; do
  name="$(basename "$src" .ml)"
  if ! dune exec "examples/$name.exe" > "$tmpdir/example-$name.txt" 2>&1; then
    echo "   FAIL: examples/$name.exe exited non-zero:" >&2
    cat "$tmpdir/example-$name.txt" >&2
    exit 1
  fi
done
echo "   all examples exit 0"

echo "== static analysis (phoebe_check: determinism, idiom and effect rules over the typed ASTs, double-run identical)"
check_a="$tmpdir/check-a.txt"
check_b="$tmpdir/check-b.txt"
dune exec bin/phoebe_check.exe -- --root . _build/default/lib > "$check_a"
dune exec bin/phoebe_check.exe -- --root . _build/default/lib > "$check_b"
cmp "$check_a" "$check_b"
cat "$check_a"

echo "== bench smoke (5 virtual seconds of exp1 at W=2, --json)"
bench_json smoke exp1 smoke

echo "== allocation regression gates (txn.alloc.minor_words_per_txn, process_minor_words_per_txn, StockLevel's)"
# Checked-in budgets, each the seed-42 smoke's figure plus ~14% headroom.
# The bracketed figure counts what transactions allocate while they hold
# a CPU: 1,485 minor words once index entries went in as bytes from the
# table's key scratch (no key string, no closures in the descent) and a
# suspended fiber held its continuation without an option cell (1,683
# before, 1,947 before an index statement took the slot's key probe and
# a charge flush performed a constant effect, 2,667 before int cells were
# shared, a locate returned a slot and a point lookup its rid). The
# process-wide figure counts everything allocated over the measured run,
# engine and scheduler included: 2,091 (2,299 before, 2,565 before
# that). StockLevel's own figure, the read path's heaviest kind, is 209
# (325 before, 2,657 before that, 9,355 when it also kept its distinct
# items in a hash table). If any trips, something put fresh allocation
# back on the execute path or the simulation core — see DESIGN.md
# section 4h.
# alloc_gate KEY BUDGET: the smoke's KEY must be present and <= BUDGET.
alloc_gate() {
  key="$1"
  budget="$2"
  pattern="$(printf '%s' "$key" | sed 's/\./\\./g')"
  measured="$(sed -n "s/.*\"$pattern\": *\([0-9.]*\).*/\1/p" "$tmpdir/smoke.json" | head -n 1)"
  if [ -z "$measured" ]; then
    echo "   FAIL: $key missing from smoke --json output" >&2
    exit 1
  fi
  if awk -v m="$measured" -v b="$budget" 'BEGIN { exit !(m > b) }'; then
    echo "   FAIL: $key = $measured minor words/txn exceeds the checked-in budget of $budget" >&2
    exit 1
  fi
  echo "   $key = $measured minor words/txn (budget $budget)"
}
alloc_gate txn.alloc.minor_words_per_txn 1690
alloc_gate process_minor_words_per_txn 2385
alloc_gate trace.txn.stock_level.alloc.minor_words_per_txn 238

echo "== determinism (fixed-seed double run under --sanitize, json parses, byte-identical + pinned digest and tpmC)"
double_run det exp1 smoke --sanitize --seed 42 > /dev/null
# The simulation is pinned: the seed-42 sanitized smoke replays to this
# digest and reaches this tpmC. A change that moves either must update
# the pin here and say why in CHANGES.md. The buffer manager's one
# residency rule (a frame is resident iff it holds its payload, so a
# stale cooling-queue entry no longer evicts a re-faulted page) moved
# them from 930510504329545913 and 577,765. The page GSN in the page
# image (one more varint per image, so slightly different device
# transfer times) moved the digest from 4183878111771780831; tpmC held.
# One fewer table-tree walk per write (an update or delete re-checks the
# frame it located instead of locating the row again; a delete marks the
# slot it holds) moved them from 21580612038516367 and 578,026.
pin() {
  if ! grep -q "^ *\"$1\": $2,\?\$" "$tmpdir/det.json"; then
    echo "   FAIL: the seed-42 sanitized smoke has no \"$1\": $2 (the pinned value)" >&2
    exit 1
  fi
}
pin sanitize.replay_digest 3497170336752388328
pin tpmc 603056
grep -q '"sanitize.findings": 0' "$tmpdir/det.json"
echo "   double run byte-identical, replay digest and tpmC pinned, zero findings"

# cksum_pin NAME SUM: "$tmpdir/NAME.json" has the cksum output SUM (CRC
# and byte count). The seed-42 recovery and ha_failover runs drive the
# WAL replay applier and the quorum replica applier; the double run
# only shows that a drift there repeats. A change that moves either
# must update the pin here and say why in CHANGES.md.
cksum_pin() {
  got="$(cksum < "$tmpdir/$1.json")"
  if [ "$got" != "$2" ]; then
    echo "   FAIL: the seed-42 $1 --json has cksum \"$got\", not the pinned \"$2\"" >&2
    exit 1
  fi
}

echo "== overload smoke (offered-load sweep, admission on vs off, --json)"
bench_json overload overload overload

echo "== recovery smoke (fixed-seed crash + replay vs checkpoint cadence, --sanitize, --json, double-run identical)"
double_run recovery recovery --experiment recovery --seed 42 --sanitize
cksum_pin recovery "1157204622 916"
echo "   recovery rows parse, double run byte-identical and pinned, no sanitizer violation"

echo "== sharded smoke (K x offered-load scaling grid with 2PC, --sanitize, --json, double-run identical)"
double_run sharded sharded --experiment sharded --seed 42 --sanitize
# every shard of every cell exports its sanitize.findings; all must be 0
zero_findings sharded
echo "   scaling grid parses, double run byte-identical, zero sanitizer findings"

echo "== ha_failover smoke (quorum failover grid, --sanitize, Quorum_check.verify per message, --json, double-run identical)"
double_run ha ha_failover --experiment ha_failover --seed 42 --sanitize
# every node of every cell exports its sanitize.findings; all must be 0.
# Under --sanitize the group also checks Raft's invariants after every
# delivered message and raises Bug (exit non-zero) on a finding.
zero_findings ha
# A failed candidacy no longer enters its proposed view, so the lone
# survivor of a replicas = 1 cell ends at final_view 1, not 5; and the
# primary's pull no longer inserts into a chunk-done hashtable inside
# the committing fiber (about 2 fewer minor words per transaction).
# Together they moved the pin from "414514502 89784". A Ship then grew
# one field (its view's base count), one minor word per Ship the
# committing fiber sends (1, 2 or 4 per transaction, one per replica),
# which moved it from "1703514352 89784". An Ack then carried the
# follower's received count, go-back-N rewound to it, and a peer's
# retransmit clock started with the first ship it had outstanding.
# Every simulated figure held (all 263 retransmits of the grid go to the
# killed primary or follow a real drop), but rewinds toward the killed
# primary fell at other instants, so the re-ship lists the committing
# fiber builds changed length: node 1's minor words per transaction in
# the two lossy cells moved it from "332150003 89784". Shared int cells,
# a locate that returns a slot and a point lookup that returns its rid
# then took about 4 minor words off each transaction on every node that
# ran any (nothing else in the JSON moved), which moved it from
# "3190867785 89784". Go-back-N then doubled a peer's rewind interval
# at each rewind (up to the election timeout; any ack resets it): the
# grid's retransmits fell from 263 to 63 (8 per clean cell, all toward
# the killed primary), and the promoted node 1 stopped rebuilding the
# view's chunk list in its committing fibers every millisecond (about
# 48 fewer minor words per transaction). Only those two figures moved;
# that moved it from "2373530968 89784". A table's per-slot scratch
# then became one statement context per slot (a record in place of four
# parallel arrays, probes with an encode buffer of their own), which
# changed what a slot's first statements on a table allocate: the
# nodes' minor words per transaction moved by at most 0.3, and nothing
# else in the JSON moved; that moved it from "4241972675 89778".
# Cutting a pull's chunks in one pass (no batch list, no second walk to
# place them), keeping the checker's release records as immutable
# values, and the prevLogTerm fields on Ship and Ack changed what the
# nodes allocate per transaction (by at most about 15 minor words; only
# alloc.* fields moved), which moved it from "1953699214 89780".
# Packed index nodes (entries inserted as bytes, descents without
# closures) and a continuation held without an option cell then lowered
# the nodes' minor words per transaction by about 22 (a diff of the
# --json against the parent's shows only txn.alloc and
# trace.txn.other.alloc fields moved), which moved it from
# "1214491708 89784". Every encoded index key then became one key
# buffer type, and each slot context took two entry keys of its own in
# place of the table's pool of spares: a slot's first statement on a
# table allocates those two buffers with the context, which raised the
# nodes' minor words per transaction by 0.3 to 2.3 (a diff of the
# --json against the parent's shows only the txn.alloc and
# trace.txn.other.alloc fields moved), and that moved it from
# "1525628113 89784".
cksum_pin ha "2959025451 89782"
echo "   failover grid parses, double run byte-identical and pinned, zero sanitizer findings"

echo "== tier-1: OK"
