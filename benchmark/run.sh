#!/usr/bin/env bash
# The repo's benchmark: builds benchmark/ (a package of its own, release
# profile, offline) and runs it. See benchmark/README.md.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S]
#                    [--trace 0|1 | --traced] [--smoke] [--repeat]
#
# Runs from the repository root wherever it is called from. Build
# output goes to $CARGO_TARGET_DIR if set (relative to the root), else
# to the root's target/; run-time files go to benchmark/out/ only.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

SHARC_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
SHARC_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export SHARC_BENCH_RUSTC SHARC_BENCH_COMMIT

# glibc malloc, pinned: serve every allocation below 32 MiB (the
# largest threshold glibc accepts) from the heap and never give the
# heap back, so a lap reuses the pages the lap before it freed. Left to
# its dynamic thresholds malloc returns a lap's corpus and arena to the
# kernel and faults them in again, and the price of a fresh page on a
# small VM drifts (scan-read's lap read 57, 74 and 94 ms within one
# hour on one build) — the benchmark would time the kernel, not SharC.
export MALLOC_MMAP_THRESHOLD_=33554432
export MALLOC_TRIM_THRESHOLD_=1073741824
export MALLOC_TOP_PAD_=67108864

exec "$CARGO_TARGET_DIR/release/sharc-benchmark" "$@"
