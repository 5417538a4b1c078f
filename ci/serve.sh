#!/usr/bin/env bash
# CI job `serve`: the serving layer's suites (the in-process integration,
# telemetry, store-restart and shard suites, and the CLI suite, which boots
# `veribug serve` as a subprocess), obs_retention 20 times in a row, and the
# serve_bench smoke. Latency under concurrent load is measured by the
# perfbench job.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release -q -p veribug-serve
# obs_retention's slow-set export once failed about one run in four; one
# pass above cannot tell a mended flake from a lucky run.
for i in $(seq 1 20); do
  cargo test --release -q -p veribug-serve --test obs_retention || exit 1
done
# One request at a time; exits non-zero on any 5xx, on a warm body
# differing from its pair's cold body, on a failed drain, on cached
# requests not beating cold ones, on live telemetry costing more than 5%
# throughput or p99, or on a restart over a populated store that is not
# warm.
cargo run --release -p veribug-bench --bin serve_bench -- --smoke
