#!/usr/bin/env bash
# Runs every CI job script in CI order, the differential job at 1, 2 and 8
# threads, and goes on past a failed job. Ends with one line per job (name,
# wall seconds, exit status) and exits non-zero if any job failed.
set -uo pipefail
cd "$(dirname "$0")"

summary=()
failed=0
job() {
  local name=$1 start=$SECONDS status=0
  shift
  "$@" || status=$?
  summary+=("$(printf '%-16s %6ds  exit %d' "$name" $((SECONDS - start)) "$status")")
  [ "$status" -eq 0 ] || failed=1
}

job test ./test.sh
for t in 1 2 8; do
  job "differential-$t" env VERIBUG_THREADS="$t" ./differential.sh
done
job serve ./serve.sh
job bench-smoke ./bench-smoke.sh
job perfbench ./perfbench.sh

printf '%s\n' "${summary[@]}"
exit "$failed"
