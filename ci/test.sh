#!/usr/bin/env bash
# CI job `test`: release build, the workspace's tests, and the clippy,
# rustfmt and rustdoc gates.
set -euo pipefail
cd "$(dirname "$0")/.."

# --locked: a stale Cargo.lock fails the build instead of being rewritten
# silently.
cargo build --release --workspace --locked
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all --check
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
