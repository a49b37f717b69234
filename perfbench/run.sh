#!/usr/bin/env bash
# Build the testbed from source and run one benchmark workload.
#
#   bash perfbench/run.sh --workload derive|maintain|wire --seed N --seconds S --trace 0|1
#
# Run from the root of a dkb checkout. Build output goes to stderr; the
# last line on stdout is the JSON result. Builds land in .bench_build and
# run files in .bench_run, both inside the checkout.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/dkbd.ml ] || [ ! -f perfbench/dune ]; then
  echo "run.sh: not the root of a dkb checkout: $PWD" >&2
  exit 2
fi

command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"

build=.bench_build
mkdir -p "$build/tmp"
export TMPDIR="$PWD/$build/tmp"
export DUNE_CACHE=disabled
dune build --root . --build-dir "$build" --profile release \
  ./perfbench/dkbbench.exe ./bin/dkbd.exe 1>&2

exec "$build/default/perfbench/dkbbench.exe" --dkbd "$build/default/bin/dkbd.exe" "$@"
