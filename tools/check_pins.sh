#!/usr/bin/env bash
# Check every Console-script pin of the CI workflow against the sources in src/.
#
# Usage: tools/check_pins.sh   (from any directory)
#
# Each `pin <sha256> <args>` line of the workflow's Console-script step runs
# here as `python -m distspec.cli <args>`, with src/ first on PYTHONPATH; a
# `distspec` shell function stands in for the entry point, so arguments such
# as "$(distspec construct --family path --n 70)" work too.  Every mismatch
# is printed; the exit status is 1 if there is any, else 0.
set -u
root=$(cd "$(dirname "$0")/.." && pwd)
workflow="$root/.github/workflows/tests.yml"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"

distspec() { python -m distspec.cli "$@"; }

checked=0
mismatched=0
pin() {
  local want=$1 got
  shift
  got=$(distspec "$@" | sha256sum | cut -d ' ' -f 1)
  checked=$((checked + 1))
  if [ "$got" != "$want" ]; then
    echo "mismatch: distspec $*: got $got, want $want"
    mismatched=$((mismatched + 1))
  fi
}

lines=$(grep -E '^[[:space:]]*pin [0-9a-f]{64} ' "$workflow")
if [ -z "$lines" ]; then
  echo "no pin lines found in $workflow"
  exit 1
fi
eval "$lines"
echo "$checked pins checked, $mismatched mismatched"
[ "$mismatched" -eq 0 ]
