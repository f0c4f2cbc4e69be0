#!/bin/sh
# Builds phoebe_perf from source into .bench_build/ and runs one
# measurement, e.g.
#
#   sh perf/run.sh --workload tpcc_fit --seed 1 --seconds 10 --trace 0
#
# Run from anywhere; paths are taken relative to the repository root.
# Build output goes to stderr, so the last line of stdout is the result.
set -eu
cd "$(dirname "$0")/.."
dune build --root . --build-dir .bench_build --cache disabled --display quiet ./perf/phoebe_perf.exe >&2
exec .bench_build/default/perf/phoebe_perf.exe run "$@"
