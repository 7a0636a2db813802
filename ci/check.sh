#!/usr/bin/env bash
# The offline CI gate: proves the workspace builds, tests, and
# regenerates the Table 1 smoke run with zero registry access.
#
# Usage: ci/check.sh   (from anywhere; cds to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs `sharc <args>` and insists on the exact exit code: 0 judged
# clean, 1 judged with conflicts, 2 usage, 3 could not judge. A bare
# "nonzero" would let an unreadable trace pass for the false positive
# a baseline is expected to report.
expect_exit() {
    local want=$1 got=0
    shift
    cargo run --release --offline --bin sharc -- "$@" || got=$?
    if [ "$got" -ne "$want" ]; then
        echo "ERROR: sharc $* exited $got, expected $want" >&2
        exit 1
    fi
}

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
cargo run --release --offline -p sharc-bench --bin table1 -- --smoke

echo "== high-thread smoke: engine-vs-step differential, tids past 63 =="
# One generic body per differential, instantiated per word protocol
# and checked against the pure step functions. The wide
# instantiations (five shards and adaptive-only, tids 1..=256) run
# at least 128 cases (SHARC_TEST_CASES can only raise that); this pins
# a fixed seed so CI exercises the multi-word protocol
# deterministically, next to the one-word instantiation and the
# adaptive-only coarsening contract.
SHARC_TEST_SEED=0xC1 \
    cargo test -q --offline --release --test checker_differential -- \
    all_engines_agree_on_every_verdict \
    sharded_engines_agree_up_to_256_threads \
    adaptive_only_coarsens_exits_soundly \
    cross_shard_ownership_transfer_is_exact

echo "== ranged checks: range-vs-fold differential, fixed seed =="
# A range verdict must equal the pure step's per-granule fold on
# both word protocols (one-word; five-shard and adaptive-only at
# 256 tids), with adversarial mid-range clears, and replay-lowering
# a ranged trace must be bit-identical for SharC, Eraser, and the
# vector-clock detector alike. Fixed seed pins one known exploration.
SHARC_TEST_SEED=0x4A6E \
    cargo test -q --offline --release --test checker_differential -- \
    range_checks_equal_per_granule_fold \
    ranged_sharded_checks_agree_up_to_256_threads \
    range_replay_lowering_is_bit_identical_for_every_backend

echo "== ranged casts & frees: clear-vs-fold differential, fixed seed =="
# The ranged hand-off must be verdict- and word-invisible: a
# clear_range / clear_thread_range (one sweep of word-at-a-time
# stores) leaves the shadow bit-identical to the per-granule clear
# fold on the runtime and on the pure step, on the one-word,
# five-shard and adaptive-only widths. Fixed seed pins one known
# exploration.
SHARC_TEST_SEED=0xCA57 \
    cargo test -q --offline --release --test checker_differential -- \
    ranged_clears_equal_per_granule_clear_fold \
    wide_ranged_clears_equal_per_granule_clear_fold

echo "== streaming detection: stream-vs-replay differential, fixed seed =="
# The streaming pipeline's tentpole invariant: for every ring
# count, ring capacity, and drain interleaving, a StreamingSink's
# conflicts are bit-identical to the serialized replay fold on the
# same backend (SharC bitmap, Eraser, vector clocks), at narrow and
# cross-shard tid widths, with the accounting closed (recorded ==
# drained, peak resident <= ring budget). The fleet-width companion
# streams one >200-thread recorded stunnel execution through tiny
# rings and re-runs it live against the collector. Fixed seed pins
# one known exploration.
SHARC_TEST_SEED=0x51EA \
    cargo test -q --offline --release --test checker_differential -- \
    streaming_verdicts_equal_replay_fold_for_every_backend \
    stunnel_streaming_is_bit_identical_to_replay_at_fleet_width

echo "== check elision: differential + mutation, fixed seed =="
# The elision pass's soundness contract: on program shapes that are
# race-free by construction, the eliding build is bit-identical to
# the fully-checked build on every seed, and every race-inducing
# mutation (second spawn, escaping alias) forces the raced sites
# back to checked. Fixed seed pins one known exploration.
SHARC_TEST_SEED=0xE11DE SHARC_TEST_CASES=48 \
    cargo test -q --offline --release --test elision_differential -- \
    elided_build_is_bit_identical_on_race_free_executions \
    racing_mutations_kill_elision \
    racy_mutant_still_reports_under_elision

echo "== elision exemplar: explanations + racy exit code =="
# The explanation format end to end: the exemplar's spawn-unique
# loop and lock-dominated region are elided with their reasons, and
# the escaping counterexample keeps its checks (the e2e test pins
# exact line numbers; this smokes the CLI surface). The racy
# exemplar must STILL exit nonzero under the default (eliding)
# build — elision may never hide a report.
explain=$(cargo run --release --offline --bin sharc -- \
    run examples/minic/elision.c --explain-elision)
echo "$explain" | grep -q "spawn-unique" || {
    echo "ERROR: --explain-elision lost the spawn-unique explanation" >&2
    exit 1
}
echo "$explain" | grep -q "lock-held" || {
    echo "ERROR: --explain-elision lost the lock-held explanation" >&2
    exit 1
}
racy_caught=0
for seed in 0 1 2 3; do
    code=0
    cargo run --release --offline --bin sharc -- \
        run examples/minic/counter_racy.c --seed "$seed" >/dev/null 2>&1 || code=$?
    case "$code" in
        0) ;;
        1) racy_caught=1 ;;
        *)
            echo "ERROR: counter_racy.c seed $seed exited $code, not a verdict" >&2
            exit 1
            ;;
    esac
done
if [ "$racy_caught" -ne 1 ]; then
    echo "ERROR: counter_racy.c exited 0 on every seed under elision" >&2
    exit 1
fi

echo "== sharded revalidation stress: barrier-aligned real races =="
# Real threads, barrier-aligned into the cross-shard conflict
# window: a racing conflict must be reported by at least one
# participant, on point and on ranged checks, and fenced clears must
# force re-installs without false reports. Fixed seed pins the
# jitter streams.
SHARC_TEST_SEED=0x57E5 \
    cargo test -q --offline --release -p sharc-runtime --test sharded_stress

echo "== native event spine: one execution, two verdicts =="
# SharC accepts the concurrent hand-off (exit 0); the lockset
# baseline must false-positive on the identical recorded execution
# (exactly exit 1). pbzip2 runs the same split through a
# trace file: record once with --trace-out, then re-judge the saved
# trace offline with both engines.
expect_exit 0 native handoff --detector sharc
expect_exit 1 native handoff --detector eraser
trace_file="target/ci-pbzip2.trace"
cargo run --release --offline --bin sharc -- native pbzip2 --trace-out "$trace_file"
expect_exit 0 replay "$trace_file" --detector sharc
expect_exit 1 replay "$trace_file" --detector eraser
# Version-lowering compatibility. The recorded trace must be v3 with
# ONE rcast/rfree line per block hand-off — a per-granule `cast`
# expansion leaking back in would be the O(granules) spine this PR
# removed. Its lowered twin (`trace convert --lower`: every range
# event expanded to per-granule lines, the v1 vocabulary — what the
# old awk hack hand-rolled) must replay to the identical exit code on
# both detectors. tests/trace_parity.rs pins the conflict sets; this
# smokes the CLI surface.
grep -q '^# sharc-trace v3$' "$trace_file" || {
    echo "ERROR: recorded pbzip2 trace is not v3" >&2
    exit 1
}
grep -q '^rcast ' "$trace_file" || {
    echo "ERROR: pbzip2 trace has no ranged casts" >&2
    exit 1
}
if grep -q '^cast ' "$trace_file"; then
    echo "ERROR: per-granule cast lines leaked into the pbzip2 trace" >&2
    exit 1
fi
trace_v1="target/ci-pbzip2-v1.trace"
cargo run --release --offline --bin sharc -- trace convert "$trace_file" "$trace_v1" --lower
if grep -q '^rcast \|^rfree \|^rread \|^rwrite ' "$trace_v1"; then
    echo "ERROR: trace convert --lower left range events behind" >&2
    exit 1
fi
expect_exit 0 replay "$trace_v1" --detector sharc
expect_exit 1 replay "$trace_v1" --detector eraser
# aget on the spine: workers store whole chunks with ranged writes
# and exit before main's ranged verification sweep — clean under
# SharC's lifetime model (exit 0), a false positive under Eraser
# (no lock ever protects the shared buffer; exactly exit 1).
expect_exit 0 native aget --detector sharc
expect_exit 1 native aget --detector eraser

echo "== a failure to judge is exit 3, never a verdict =="
# A trace that cannot be read, or that the decoder refuses because the
# fold could not survive it (tid 0 used to panic the bitmap engine; a
# wrapping range used to print "no conflicts"; two lines naming
# terabytes of shadow used to abort), exits 3 with a one-line reason —
# under every detector, so no expected-false-positive check above can
# be satisfied by a broken input. tests/cli_exit_codes.rs repeats this
# for the .sbt spellings; tests/trace_fuzz.rs fuzzes both decoders.
hostile="target/ci-hostile.trace"
for lines in 'read 0 5' \
    'rwrite 1 18446744073709551615 2' \
    'write 1073741823 0\nwrite 5 100000' \
    'write 1 4000000000000'; do
    printf "# sharc-trace v3\n$lines\n" > "$hostile"
    expect_exit 3 replay "$hostile" --detector sharc
    expect_exit 3 replay "$hostile" --detector eraser
done
expect_exit 3 replay target/ci-no-such-file.trace --detector eraser
expect_exit 3 run target/ci-no-such-file.c
expect_exit 2 replay "$trace_file" --detector helgrind
# The VM bug the benchmark found and could not fix: a recycled thread
# id woken as its dead namesake. Completes, clean, on every seed.
for seed in 0 1 2 3 4 5 6 7; do
    expect_exit 0 run benchmark/programs/known-bug-tid-reuse.c --seed "$seed"
done
expect_exit 1 run examples/minic/fleet.c # 100 live threads, one planted race

echo "== wide-tid stunnel smoke: 100+ threads, record -> replay =="
# The fleet run: 128 real worker threads (tids past the second shard
# boundary) recorded once, then the saved trace re-judged offline.
# SharC must stay clean at the wide geometry (exit 0); Eraser must
# false-positive on the session hand-offs (exactly exit 1).
stunnel_trace="target/ci-stunnel.trace"
cargo run --release --offline --bin sharc -- native stunnel --trace-out "$stunnel_trace"
expect_exit 0 replay "$stunnel_trace" --detector sharc
expect_exit 1 replay "$stunnel_trace" --detector eraser

echo "== binary trace smoke: record .sbt -> info -> parallel replay =="
# The same fleet recorded straight into the v4 binary container
# (--trace-out picks the format from the .sbt extension), summarized
# without judging, then re-judged with the region-sharded parallel
# engine: SharC clean (exit 0), Eraser false-positive (exactly
# exit 1) on the SAME .sbt file — verdicts are format- and
# parallelism-independent.
stunnel_sbt="target/ci-stunnel.sbt"
cargo run --release --offline --bin sharc -- native stunnel --trace-out "$stunnel_sbt"
info=$(cargo run --release --offline --bin sharc -- trace info "$stunnel_sbt")
echo "$info"
echo "$info" | grep -q "binary v4" || {
    echo "ERROR: trace info does not identify the .sbt file as binary v4" >&2
    exit 1
}
expect_exit 0 replay "$stunnel_sbt" --jobs 4 --detector sharc
expect_exit 1 replay "$stunnel_sbt" --jobs 4 --detector eraser
# Convert round trip: .sbt -> text -> .sbt must be byte-identical
# (the binary encoding is deterministic). The size ratio on this
# recorded run is printed, not gated: it follows how the scheduler
# cut the per-thread blocks (3.3-3.9x on 2 CPUs); the <=1/4 bound is
# asserted where it is deterministic, in sharc-checker's btrace tests.
roundtrip_txt="target/ci-stunnel-rt.trace"
roundtrip_sbt="target/ci-stunnel-rt.sbt"
cargo run --release --offline --bin sharc -- trace convert "$stunnel_sbt" "$roundtrip_txt"
cargo run --release --offline --bin sharc -- trace convert "$roundtrip_txt" "$roundtrip_sbt"
cmp "$stunnel_sbt" "$roundtrip_sbt" || {
    echo "ERROR: .sbt -> text -> .sbt convert round trip is not byte-identical" >&2
    exit 1
}
sbt_bytes=$(wc -c < "$stunnel_sbt")
txt_bytes=$(wc -c < "$roundtrip_txt")
echo "recorded stunnel trace: binary $sbt_bytes B, text $txt_bytes B"

echo "== parallel replay: region-sharded differential, fixed seed =="
# The --jobs engine's acceptance differential: merged conflicts
# bit-identical to the sequential fold for SharC, Eraser, and vector
# clocks at 256 tids over every worker count 1-5, plus the
# cross-version parity suite (text/binary archives, v1 lowering).
# Fixed seed pins one known exploration.
SHARC_TEST_SEED=0x9A12 \
    cargo test -q --offline --release --test checker_differential -- \
    parallel_replay_is_bit_identical_to_sequential_for_every_backend
cargo test -q --offline --release --test trace_parity

echo "== streaming online smoke: same verdicts, bounded memory =="
# The same fleet judged while it runs: the epoch-flip collector
# drains per-thread rings concurrently with the workload, so the
# exit code must match the record->replay path above on every
# detector — SharC clean (exit 0), Eraser false-positive (exactly
# exit 1) — with peak resident events held inside the --ring-cap
# budget instead of the full recorded trace.
expect_exit 0 native stunnel --detector sharc --online --ring-cap 256
expect_exit 1 native stunnel --detector eraser --online --ring-cap 256
expect_exit 0 native handoff --detector sharc --online
expect_exit 1 native handoff --detector eraser --online

echo "== benchmark answer keys: handoff-write and scan-read, --smoke =="
# The two workloads that run the runtime's check path end to end, at
# 1/20 scale: every lap's checksum and conflict count is held against
# the generator's answer key, for the unchecked and the checked build.
# The last line of a run is its result object; anything but a fully
# correct one fails the gate (so does a host with one CPU, where the
# workload prints `unmeasured` and no result line at all).
for workload in handoff-write scan-read; do
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

echo "== checker bench --smoke (ranged-cast, elision, trace gates) =="
# Runs every checker row once in --smoke mode and asserts the gates
# that compare two rows of the same run: the elided VM loop beats the
# checked one, the one-operation block cast beats the per-granule
# loop, the binary trace beats text on bytes and codec time, and the
# streaming rows stay inside their ring budget. The rows (range/*,
# cast/*, sharded/*, stunnel/*, online/*, trace/*) land in the
# repo-root BENCH_checker.json, the single canonical location (also
# written by table1 --smoke above).
cargo bench --offline -p sharc-bench --bench checker -- --smoke
test -f BENCH_checker.json || {
    echo "ERROR: BENCH_checker.json missing at the repo root" >&2
    exit 1
}
# The stunnel fleet must be in the record: the headline timing rows
# (throughput pair + contention sweep, p50/p95 with every other row)
# and the derived messages-per-second figures.
for row in "stunnel/fleet-sharc" "stunnel/fleet-orig" "stunnel/sweep-c64-w16"; do
    grep -q "$row" BENCH_checker.json || {
        echo "ERROR: BENCH_checker.json is missing the $row row" >&2
        exit 1
    }
done
grep -q "msgs_per_sec" BENCH_checker.json || {
    echo "ERROR: BENCH_checker.json has no stunnel throughput records" >&2
    exit 1
}
# The streaming pipeline must be in the record too: timing rows for
# the streamed-vs-untraced pairs and the memory accounting (peak
# resident vs ring budget) the bench gate asserts.
for row in "online/stunnel-stream" "online/stunnel-orig" "online/pbzip2-stream"; do
    grep -q "$row" BENCH_checker.json || {
        echo "ERROR: BENCH_checker.json is missing the $row row" >&2
        exit 1
    }
done
grep -q "ring_budget" BENCH_checker.json || {
    echo "ERROR: BENCH_checker.json has no streaming memory accounting" >&2
    exit 1
}
# The ranged-cast rows: one-operation block hand-off vs the
# per-granule cast+clear loop at both block sizes (the >=4x win is
# asserted inside the bench by assert_ranged_cast_wins; this pins
# the rows into the machine-readable record).
for row in "cast/block-4k-ranged" "cast/block-4k-granule" \
    "cast/block-64k-ranged" "cast/block-64k-granule"; do
    grep -q "$row" BENCH_checker.json || {
        echo "ERROR: BENCH_checker.json is missing the $row row" >&2
        exit 1
    }
done
# The elision record: the two vm/private-loop rows (the bench exits 0
# only if elided beat checked — assert_elision_wins), plus per-workload
# static percentages with nonzero elision on the private-heavy ports.
for row in "vm/private-loop/elided" "vm/private-loop/checked"; do
    grep -q "$row" BENCH_checker.json || {
        echo "ERROR: BENCH_checker.json is missing the $row row" >&2
        exit 1
    }
done
grep -q "elided_pct" BENCH_checker.json || {
    echo "ERROR: BENCH_checker.json has no per-workload elision records" >&2
    exit 1
}
for w in pfscan stunnel dillo; do
    slots=$(grep -A2 "\"name\": \"$w\"," BENCH_checker.json \
        | grep '"elided_slots"' | grep -o '[0-9]\+' || true)
    if [ -z "$slots" ] || [ "$slots" -eq 0 ]; then
        echo "ERROR: $w must show nonzero static elision (got '${slots:-missing}')" >&2
        exit 1
    fi
done
# The binary-trace + parallel-replay record: codec rows for both
# formats (their byte and speed gates are asserted inside the bench
# by assert_trace_wins) and the seq/par replay pair, which is
# reported, not gated — a >=2x parallel win cannot bind on a 2-CPU
# host. This pins the rows into the machine-readable record, plus
# the size comparison itself.
for row in "trace/encode-text" "trace/encode-binary" \
    "trace/decode-text" "trace/decode-binary" \
    "replay/seq" "replay/par-4"; do
    grep -q "$row" BENCH_checker.json || {
        echo "ERROR: BENCH_checker.json is missing the $row row" >&2
        exit 1
    }
done
grep -q "binary_bytes" BENCH_checker.json || {
    echo "ERROR: BENCH_checker.json has no trace size records" >&2
    exit 1
}

echo "All checks passed."
