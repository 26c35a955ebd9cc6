#!/usr/bin/env bash
# Build the benchmark from source and run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Runs from the root of a source checkout (the directory above this
# script). Build output goes to stderr; the last stdout line is the
# result. Inherited MP_* knobs are scrubbed so each workload runs with
# exactly the knobs it sets itself.
set -euo pipefail
# dune writes only under _build: no shared cache outside the checkout
export DUNE_CACHE=disabled
cd "$(dirname "$0")/.."
for v in $(compgen -e); do
  case "$v" in MP_*) unset "$v" ;; esac
done
dune build --root . ./perfbench/perfbench.exe 1>&2
PERFBENCH_NPROC="$(nproc)" \
PERFBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
  exec ./_build/default/perfbench/perfbench.exe "$@"
