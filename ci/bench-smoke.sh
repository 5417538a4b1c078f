#!/usr/bin/env bash
# CI job `bench-smoke`: the pipeline and accuracy smokes with their
# validated reports, then the full accuracy report and the quick Table III
# and Figure 4 outputs against their checked-in copies. Neither smoke
# touches the checked-in BENCH_*.json files.
set -euo pipefail
cd "$(dirname "$0")/.."

# Exits non-zero if any stage differs across thread counts, if the compiled
# engine's traces diverge from the interpreter oracle's, or if the
# observability overhead exceeds 5%.
cargo run --release -p veribug-bench --bin bench_pipeline -- --smoke --obs obs.json
cargo run --release -p veribug-obs --bin obs_validate -- obs.json \
  --require-span bench.simulate \
  --require-counter-nonzero sim.comb_skips \
  --require-counter-nonzero sim.records_elided
# Exits non-zero when precision@5 drops below the floor or any number
# differs across 1/2/8 worker threads.
cargo run --release -p veribug-bench --bin accuracy_bench -- \
  --smoke --out accuracy_smoke.json
cargo run --release -p veribug-obs --bin obs_validate -- \
  --accuracy accuracy_smoke.json --require-counter-nonzero observable
# Neither BENCH_accuracy.json nor the experiment tables may drift from the
# code.
cargo run --release -p veribug-bench --bin accuracy_bench -- \
  --quiet --out fresh_accuracy.json > /dev/null
cmp fresh_accuracy.json BENCH_accuracy.json
cargo build --release -p veribug-bench --bin exp_table3 --bin exp_fig4
target/release/exp_table3 --quick | diff results/table3_quick.txt -
target/release/exp_fig4 --quick | diff results/fig4_quick.txt -
