#!/usr/bin/env bash
# Builds the end-to-end campaign benchmark from source, then runs one
# workload. Run from the repository root:
#   bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The last line of standard output is the JSON result (see NOTES.md).
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet e2ebench/e2e.exe >&2
exec ./_build/default/e2ebench/e2e.exe "$@"
