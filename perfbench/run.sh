#!/usr/bin/env bash
# Build the benchmark from source and run it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# Settings that would make a run depend on more than its seed.
unset FT_PLAN_CACHE FT_TUNE_DB FT_NUM_DOMAINS FT_SHADOW
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
