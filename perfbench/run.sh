#!/usr/bin/env bash
# Build the ConEx benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of the source tree.  The build goes to _build/
# with dune's shared cache off, so nothing is written outside the tree.
# The last line of standard output is the JSON result; build messages
# go to standard error.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib ]]; then
  echo "perfbench: run from the root of the ConEx source tree" >&2
  exit 2
fi

dune build --root . --cache=disabled ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
