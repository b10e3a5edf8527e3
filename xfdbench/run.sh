#!/usr/bin/env bash
# Build the benchmark from source and measure one workload.
#
#   bash xfdbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Runs from any directory; builds in the _build tree of the source checkout
# that holds this script.  The last line of stdout is the result as one
# JSON object (see xfdbench/README.md).
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: $root is not a full source checkout (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
# Keep the build inside the checkout: no shared dune cache, and the
# compiler's temporary files under _build.
export DUNE_CACHE=disabled
export TMPDIR="$root/_build/tmp"
mkdir -p "$TMPDIR"
dune build --root . --display quiet ./xfdbench/xfd_bench.exe ./xfdbench/core_probe.exe \
  ./bin/xfd_cli.exe >&2
exec ./_build/default/xfdbench/xfd_bench.exe measure "$@"
