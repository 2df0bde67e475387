#!/bin/sh
# Build the benchmark from source in this checkout, then run it:
#
#   sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the benchmark's report, ending in one
# JSON line, to stdout.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a full checkout (dune-project or lib/ missing)" >&2
  exit 2
fi
# dune keeps no cache outside the checkout's build directory.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
