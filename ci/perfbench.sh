#!/usr/bin/env bash
# CI job `perfbench`: the end-to-end service benchmark (its own workspace,
# building the crates by path). Its unit tests, then closed-loop runs that
# must each end "correct": true: the pinned model weights trained, and
# served answers equal the in-process ones and stay stable across repeats.
# Runs last 25 s, as in BENCHMARK.json: each of the five timing windows
# needs enough answers for ten beyond its p95, which a 10 s localize_hot
# run missed on a two-core host.
set -euo pipefail
cd "$(dirname "$0")/.."

# --locked here and below: a stale perfbench/Cargo.lock fails the job
# instead of being rewritten silently.
cargo test --release --locked --manifest-path perfbench/Cargo.toml
for w in localize_hot localize_fresh; do
  cargo run --release --locked --manifest-path perfbench/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds 25 --trace 0 | tee "perfbench_$w.log"
  tail -n 1 "perfbench_$w.log" | grep -q '"correct": true'
done
# --trace 1 replays every served localize_hot request in process through
# Explainer::{new, explain} and grouped_heatmap, which are adapters over
# localize::rank, and renders it again; "correct": true needs each body
# byte-equal to the served one, so the adapters must agree with the
# serving path, which ranks through the same localize::rank.
cargo run --release --locked --manifest-path perfbench/Cargo.toml -- \
  --workload localize_hot --seed 1 --seconds 25 --trace 1 | tee perfbench_hot_trace.log
tail -n 1 perfbench_hot_trace.log | grep -q '"correct": true'
