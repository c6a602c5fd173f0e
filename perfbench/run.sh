#!/usr/bin/env bash
# Build relayd and the benchmark from this checkout's sources, then run
# one workload:
#   bash perfbench/run.sh --workload live-small --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
for f in dune-project bin/relayd.ml lib/relay/relay.ml perfbench/relaybench.ml; do
  if [ ! -f "$f" ]; then
    echo "perfbench: $f is missing; run from a full source checkout" >&2
    exit 2
  fi
done
# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./bin/relayd.exe ./perfbench/relaybench.exe 1>&2
exec ./_build/default/perfbench/relaybench.exe "$@"
