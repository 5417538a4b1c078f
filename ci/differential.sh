#!/usr/bin/env bash
# CI job `engine-differential`: the compiled simulation engine must stay
# bit-identical to the interpreter oracle (signal snapshots and StmtExec
# records, full traces, verdicts and records-only traces, one stimulus per
# run and as 64-lane batches of any shape, statically cyclic mutants
# included), and the pinned explanation and stimulus digests must hold.
# The worker count comes from VERIBUG_THREADS; CI runs 1, 2 and 8.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release -q -p veribug-bench --test differential --test explain_identity --test stimulus_identity
