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

echo "== policy: every manifest dependency is named by its crate =="
# A [dependencies] or [dev-dependencies] entry whose snake_case name
# appears nowhere in the crate's src/, tests/, benches/ or examples/
# is dead weight in every build.
unused=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    deps=$(awk '/^\[/ { on = ($0 == "[dependencies]" || $0 == "[dev-dependencies]"); next }
        on && /^[A-Za-z0-9_-]+[. =]/ { sub(/[. =].*/, ""); print }' "$manifest")
    for dep in $deps; do
        # Unquoted on purpose: one word per directory that exists.
        if ! (cd "$dir" && grep -rqw "${dep//-/_}" $(ls -d src tests benches examples 2>/dev/null)); then
            echo "ERROR: $manifest lists $dep, which nothing under $dir/ names" >&2
            unused=1
        fi
    done
done
[ "$unused" = 0 ] || exit 1
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
# The checker and elision differentials, the sharing-inference
# properties, the hostile-trace fuzz, the sharded stress and the
# lane-packing races, in release mode at one pinned seed (each
# property keeps its case floor; SHARC_TEST_CASES can only raise it).
# The racing lane-packing tests interleave differently at release
# speed than at debug speed, so they run at both. The shipped `sharc`
# is a release build, where an operand overflow wraps instead of
# panicking, so the trace decoders' admission is fuzzed there too, and
# the exit codes and the memory of the fold `sharc replay` runs are held
# on the release binary (tests/cli_exit_codes.rs, tests/replay_memory.rs;
# tier-1 runs both on the debug one). The checker's own unit tests run
# here too: the streaming sink's concurrent recorders race the fold at
# release speed, as the lane-packing threads do.
SHARC_TEST_SEED=0xC1 \
    cargo test -q --offline --release -p sharc -p sharc-runtime \
    --test checker_differential --test elision_differential --test inference_props \
    --test trace_fuzz --test sharded_stress --test lane_packing \
    --test cli_exit_codes --test replay_memory
SHARC_TEST_SEED=0xC1 cargo test -q --offline --release -p sharc-checker --lib

echo "== checker bench rows, --smoke =="
# Every crates/bench checker row runs once at five samples (about two
# seconds once built); a row that asks a shadow for a tid its geometry
# has no word for panics, and fails the gate. Timings are not gated.
cargo bench -q -p sharc-bench --bench checker --offline -- --smoke

echo "== benchmark package tests, release =="
# benchmark/ is its own package: its tests hold every workload's answer
# keys and metric names at smoke scale. Built into the root target/ so
# the workspace's crates compile once.
root=$PWD
(cd benchmark && CARGO_TARGET_DIR="$root/target" cargo test -q --release --offline)

echo "== benchmark answer keys: handoff-write, scan-read, minic-pipeline, trace-replay, tunnel-online, --smoke =="
# The two workloads that run the runtime's check path end to end, at
# 1/20 scale: every lap's checksum and conflict count is held against
# the generator's answer key, for the unchecked and the checked build.
# minic-pipeline holds every port's and example's programs/*.expected
# against the VM at scheduler seeds 1-4: the gate on seeded schedules.
# trace-replay and tunnel-online are the two that judge through
# apply_event, offline and streamed: trace-replay's key trace holds
# twelve verdict paths (three detectors, four paths each) against the
# conflicts its generator planted.
# The last line of a run is its result object; anything but a fully
# correct one fails the gate (so does a host with one CPU, where the
# workload prints `unmeasured` and no result line at all).
for workload in handoff-write scan-read minic-pipeline trace-replay tunnel-online; do
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
