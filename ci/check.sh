#!/usr/bin/env bash
# The offline CI gate: proves the workspace builds, tests, and
# prints the Table 1 smoke run with zero registry access.
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

echo "== cargo test -q --offline --workspace =="
cargo test -q --offline --workspace

echo "== table1 --smoke =="
# The Table 1 printer at quick scale: every MiniC port still checks and
# every native workload runs under both builds. Timings are not gated.
cargo run --release --offline -p sharc-bench --bin table1 -- --smoke

echo "== property tests at one fixed seed, release =="
# The differentials and the real-thread stress in release mode, with
# one pinned seed: engine-vs-step (one-word, five-shard and
# adaptive-only, tids past 63), range-vs-fold, clear-vs-fold,
# stream-vs-replay, the elision differential, and the barrier-aligned
# sharded stress. Each property keeps its own case floor
# (SHARC_TEST_CASES can only raise it). The `sharc` exit-code checks
# (the examples, and the native spine's record -> replay, .sbt and
# --online detector splits) are tests/cli_exit_codes.rs, which
# tier-1 runs.
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

echo "== checker bench --smoke (does it run; no gate) =="
# The mechanism rows benchmark/ has not ported (range/*, cast/*,
# sharded/*, stunnel/fleet-*). Timings are printed and written to the
# git-ignored crates/bench/target/; nothing is asserted on them.
cargo bench --offline -p sharc-bench --bench checker -- --smoke

echo "All checks passed."
