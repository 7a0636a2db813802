#!/usr/bin/env bash
# The offline CI gate: proves the workspace builds and tests, and the
# benchmark's answer keys hold, with zero registry access.
#
# Usage: ci/check.sh   (from anywhere; cds to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== policy: no external dependencies in any manifest =="
if grep -rn 'rand\|proptest\|criterion\|crossbeam\|parking_lot\|serde' \
    Cargo.toml crates/*/Cargo.toml; then
    echo "ERROR: external dependency reference found in a manifest" >&2
    exit 1
fi
echo "ok"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo clippy --offline -D warnings =="
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "== cargo doc --offline, rustdoc warnings denied =="
# A doc link to a deleted or private item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo test -q --offline --workspace =="
cargo test -q --offline --workspace

echo "== property tests at one fixed seed, release =="
# The checker and elision differentials and the sharded stress, in
# release mode at one pinned seed (each property keeps its case floor;
# SHARC_TEST_CASES can only raise it). Every `sharc` exit-code check,
# the native streamed, recorded and .sbt splits included, is
# tests/cli_exit_codes.rs, which tier-1 runs.
SHARC_TEST_SEED=0xC1 \
    cargo test -q --offline --release -p sharc -p sharc-runtime \
    --test checker_differential --test elision_differential --test sharded_stress

echo "== benchmark answer keys: handoff-write, scan-read, minic-pipeline, --smoke =="
# The two workloads that run the runtime's check path end to end, at
# 1/20 scale: every lap's checksum and conflict count is held against
# the generator's answer key, for the unchecked and the checked build.
# minic-pipeline holds every port's and example's programs/*.expected
# against the VM at scheduler seeds 1-4: the gate on seeded schedules.
# The last line of a run is its result object; anything but a fully
# correct one fails the gate (so does a host with one CPU, where the
# workload prints `unmeasured` and no result line at all).
for workload in handoff-write scan-read minic-pipeline; do
    result=$(bash benchmark/run.sh --smoke --workload "$workload" | tail -n 1)
    echo "$workload: ${result%%, \"metrics\"*}}"
    case "$result" in
        '{"correct": true, '*'"failed": 0, '*) ;;
        *)
            echo "ERROR: benchmark workload $workload did not report correct: true, failed: 0" >&2
            exit 1
            ;;
    esac
done

echo "All checks passed."
