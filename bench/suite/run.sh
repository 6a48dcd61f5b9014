#!/bin/sh
# Builds the benchmark from source in the current directory, which must
# be the root of a checkout, then runs it with the given arguments:
#
#   sh bench/suite/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to standard error; the last line of standard output
# is the run's JSON result.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/suite/dune ]; then
  echo "bench/suite/run.sh: run from the root of a full checkout" >&2
  exit 2
fi

if command -v dune >/dev/null 2>&1; then
  dune=dune
elif command -v opam >/dev/null 2>&1; then
  dune="opam exec -- dune"
else
  echo "bench/suite/run.sh: dune not found" >&2
  exit 2
fi

# --root . keeps dune from adopting an enclosing project; the disabled
# cache keeps every build product inside the checkout.
DUNE_CACHE=disabled $dune build --root . -j 2 --display quiet \
  bench/suite/run.exe 1>&2
exec ./_build/default/bench/suite/run.exe "$@"
