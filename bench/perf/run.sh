#!/bin/sh
# Builds the benchmark from source with dune and runs it.  Every argument
# goes to bench/perf/main.exe (see README.md), e.g.
#
#   sh bench/perf/run.sh --workload cold-suite --seed 1 --seconds 20 --trace 0
#
# Without the tree it builds against (a dune-project at the root), it
# exits 2 and prints no result.
set -eu
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ]; then
  echo "run.sh: no dune-project at $(pwd); the benchmark builds against the full tree" >&2
  exit 2
fi
exec dune exec --root . --cache=disabled --no-print-directory --display=quiet \
  -- ./bench/perf/main.exe "$@"
