#!/usr/bin/env bash
# One workload of the e2e benchmark, built from source in this checkout:
#
#   bash bench/e2e/bench.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds only the harness and the daemon it drives (incremental, so only
# the first run in a checkout pays for it), with dune's shared cache off
# so that nothing is written outside the checkout. Build output goes to
# stderr; stdout ends with the harness's one-line JSON result.
set -euo pipefail
dune build --root . --cache=disabled --display=quiet \
  bench/e2e/e2e.exe bin/datalogd.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe bench \
  --datalogd ./_build/default/bin/datalogd.exe "$@"
