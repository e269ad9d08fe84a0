#!/bin/sh
# Repo health check, the tree-must-stay-green gate: build with warnings
# as errors, run the tests (which include the result-digest pins of
# bin/digest_manifest.txt), then every other `bin/smoke.exe` stage (see
# the stage table at the top of bin/smoke.ml), the API docs when odoc is
# installed, and the benchmark's --quick known-answer gate.
#
#   scripts/check.sh
#
# Exit 0 means every stage passed.
set -eu

cd "$(dirname "$0")/.."

stage() {
  echo "== $1 =="
  shift
  "$@"
}

stage build dune build @all
stage tests dune runtest
stage "lint (strict)" dune build @lint
stage "fault + durable kv smoke" dune build @faults @kv
stage "profile JSON smoke" dune build @profile
stage "cache smoke" dune build @cache
stage "certificate smoke" dune build @certify
stage "daemon smoke + protocol docs gate" dune build @daemon
stage "prescreen smoke" dune build @analyze
stage "ladder smoke" dune build @ladder
stage "bench smoke (bench/perf --quick)" dune build @bench-smoke

echo "== api docs =="
if command -v odoc >/dev/null 2>&1; then
  if ! dune build @doc 2>doc-warnings.log || [ -s doc-warnings.log ]; then
    cat doc-warnings.log
    rm -f doc-warnings.log
    exit 1
  fi
  rm -f doc-warnings.log
  echo "docs built warning-clean"
else
  echo "odoc not installed; skipped"
fi

echo "== all checks passed =="
