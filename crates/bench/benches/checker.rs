//! Bench for the unified checker layer: the per-granule and ranged
//! checks on the workload shape they are built for — one thread
//! repeatedly touching granules it already owns (pfscan's scan
//! buffers, pbzip2's per-worker blocks) — plus the block hand-off, the
//! sharded geometries, and the end-to-end rows the gates below read.
//!
//! Runs on the sharc-testkit bench harness (`harness = false`);
//! results land in the repo-root `BENCH_checker.json` (the single
//! canonical location — nothing is written under `target/` anymore).
//! Accepts `--quick` (or its CI alias `--smoke`) to shrink sample
//! counts.

use sharc_checker::{CheckEvent, EventLog, EventSink, ShadowGeometry};
use sharc_runtime::{Shadow, ShardedShadow, ThreadId};
use sharc_testkit::Bench;

/// Working set of the per-granule rows: 4 KiB of payload.
const GRANULES: usize = 256;

fn main() {
    // `--smoke` is what ci/check.sh passes everywhere; the harness
    // itself only knows `--quick`.
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut g = Bench::new("checker");
    g.sample_size(if smoke { 5 } else { 20 });

    let t = ThreadId(1);

    // Every access runs the one-word protocol: one load and one
    // compare once the granule is owned, a CAS on first contact.
    {
        let s: Shadow = Shadow::new(GRANULES);
        g.bench("owned-write/uncached", || {
            for i in 0..GRANULES {
                s.check_write(i, t).unwrap();
            }
        });
    }

    {
        let s: Shadow = Shadow::new(GRANULES);
        g.bench("owned-read/uncached", || {
            for i in 0..GRANULES {
                s.check_read(i, t).unwrap();
            }
        });
    }

    // ---- Ranged checks: one chkread/chkwrite per buffer sweep ----
    //
    // One granule models 16 bytes, so 4 KiB = 256 granules (exactly
    // the per-granule rows' working set, making `range/owned-4k` vs
    // `owned-write/uncached` a like-for-like lap) and 64 KiB = 4096
    // granules.
    for &(kb, granules) in &[(4usize, 256usize), (64, 4096)] {
        // Steady-state owned sweep: one `range::recorded` test per
        // granule, no CAS.
        {
            let s: Shadow = Shadow::new(granules);
            g.bench(&format!("range/owned-{kb}k"), || {
                s.check_range_write(0, granules, t, |_| {}, |_| {})
            });
        }
        // Every granule read-shared with this tid's bit already set:
        // the same one load + `range::recorded` test per granule.
        {
            let s: Shadow = Shadow::new(granules);
            for i in 0..granules {
                s.check_read(i, ThreadId(1)).unwrap();
                s.check_read(i, ThreadId(2)).unwrap();
            }
            g.bench(&format!("range/shared-read-{kb}k"), || {
                s.check_range_read(0, granules, t, |_| {}, |_| {})
            });
        }
    }

    // ---- Ranged casts & frees: one-operation block hand-off ----
    //
    // The block hand-off exactly as pbzip2/stunnel/handoff perform
    // it: record the cast on the spine, then clear the block's
    // shadow. Ranged: ONE `RangeCast` plus `clear_range` (a word
    // sweep). Granule: one `SharingCast` record plus one `clear` per
    // granule, the pre-ranged shape.
    for &(kb, granules) in &[(4usize, 256usize), (64, 4096)] {
        {
            let s: Shadow = Shadow::new(granules);
            let log = EventLog::new();
            g.bench(&format!("cast/block-{kb}k-ranged"), || {
                log.record_range_cast(1, 0, granules, 1);
                s.clear_range(0, granules);
                log.take().len()
            });
        }
        {
            let s: Shadow = Shadow::new(granules);
            let log = EventLog::new();
            g.bench(&format!("cast/block-{kb}k-granule"), || {
                for gr in 0..granules {
                    log.record(CheckEvent::SharingCast {
                        tid: 1,
                        granule: gr,
                        refs: 1,
                    });
                    s.clear(gr);
                }
                log.take().len()
            });
        }
    }

    // ---- Sharded exact shadow ----
    //
    // The ≤63-thread fast path (one shard, the default geometry)
    // against the wide five-shard geometry, with both an in-shard tid
    // and a tid that lives past the first shard; plus the
    // adaptive-only (zero-shard) geometry for reference. All loops are
    // steady-state owned writes, the same shape as the bitmap benches
    // above.
    {
        let s = ShardedShadow::with_geometry(GRANULES, ShadowGeometry::default());
        g.bench("sharded/1shard-write-tid1", || {
            for i in 0..GRANULES {
                s.check_write(i, ThreadId(1)).unwrap();
            }
        });
    }
    {
        let s = ShardedShadow::with_geometry(GRANULES, ShadowGeometry::for_threads(256));
        g.bench("sharded/5shard-write-tid1", || {
            for i in 0..GRANULES {
                s.check_write(i, ThreadId(1)).unwrap();
            }
        });
    }
    {
        let s = ShardedShadow::with_geometry(GRANULES, ShadowGeometry::for_threads(256));
        g.bench("sharded/5shard-write-tid200", || {
            for i in 0..GRANULES {
                s.check_write(i, ThreadId(200)).unwrap();
            }
        });
    }
    {
        let s = ShardedShadow::with_geometry(GRANULES, ShadowGeometry::adaptive_only());
        g.bench("sharded/adaptive-write-tid1000", || {
            for i in 0..GRANULES {
                s.check_write(i, ThreadId(1000)).unwrap();
            }
        });
    }

    // ---- VM private loop: elision vs dynamic checks ----
    //
    // A check-dominated private loop, two ways: the default build
    // (the elision pass deletes every check in the worker body) and
    // the fully-checked reference build.
    sharc_bench::elision_vm_rows(&mut g);

    // ---- Per-workload static elision ----
    //
    // Deterministic compile-time pass over the Table 1 MiniC ports:
    // how much of each port's instrumentation the escape+lockset
    // analysis deletes before it can cost anything at runtime.
    let elision_rows = sharc_bench::elision_rows();
    for r in &elision_rows {
        eprintln!(
            "elision/{}: {} of {} check slots elided ({:.0}%), {} reads collapsed",
            r.name, r.elided_slots, r.checked_slots, r.elided_pct, r.collapsed_reads
        );
    }

    // ---- Wide-tid stunnel fleet ----
    //
    // End-to-end server rows: 100+ real worker threads per run on the
    // checked spine, the unchecked twin for overhead, and the
    // clients × workers contention sweep. Timing rows land in the
    // group (p50/p95 with everything else); the derived
    // messages-per-second records go into the JSON's `stunnel` array.
    let stunnel_rows = sharc_bench::stunnel_rows(&mut g, smoke);

    // ---- Streaming online detection ----
    //
    // The bounded-memory pipeline against the untraced checked runs:
    // stunnel at fleet shape and pbzip2, with ring budgets far below
    // the runs' event counts. The accounting records land in the
    // JSON's `online` array; the bounds are asserted below.
    let online_rows = sharc_bench::online_rows(&mut g, smoke);

    // ---- Binary traces + parallel replay ----
    //
    // The archive rows: one 10⁷-event synthetic spine trace (10⁶
    // under --smoke) encoded as text v3 and binary v4, decoded back,
    // and replayed sequentially vs region-sharded over 4 workers.
    // Heavy laps, so the sample count drops to 3 for these rows.
    g.sample_size(3);
    let trace_rows = vec![sharc_bench::trace_replay_rows(&mut g, smoke)];
    g.sample_size(if smoke { 5 } else { 20 });

    // Machine-readable trajectory across PRs: the full row set at the
    // repo root — the ONLY place this group's JSON lands (the old
    // duplicate under `crates/bench/target/` is gone).
    sharc_bench::write_checker_json_at_repo_root(
        &g,
        &stunnel_rows,
        &online_rows,
        &elision_rows,
        &trace_rows,
    );

    // Streaming acceptance gate: peak resident events under the ring
    // budget, with the budget genuinely binding.
    sharc_bench::assert_online_bounds(&g, &online_rows);

    // Elision acceptance gate: deleting the private loop's checks
    // statically must beat passing them dynamically.
    sharc_bench::assert_elision_wins(&g);

    // Ranged-cast acceptance gate: the one-operation block hand-off
    // beats the per-granule cast+clear loop >=4x on 4 KiB blocks, and
    // the win holds at 64 KiB.
    sharc_bench::assert_ranged_cast_wins(&g);

    // Binary-trace acceptance gates: binary v4 at most 1/4 the bytes
    // of text on the same trace, encode+decode >=2x faster. The
    // seq/par replay pair is reported in the JSON, not gated.
    sharc_bench::assert_trace_wins(&g, &trace_rows[0]);
}
