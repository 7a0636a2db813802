//! Bench for the checker mechanisms `benchmark/` does not measure:
//! ranged checks on owned and read-shared buffers, the block hand-off
//! as one ranged cast vs a per-granule cast loop, the sharded shadow
//! geometries, and the wide-tid stunnel fleet checked vs unchecked.
//!
//! Runs on the sharc-testkit bench harness (`harness = false`); results
//! land in `crates/bench/target/BENCH_checker.json` (git-ignored).
//! Accepts `--quick` (or its alias `--smoke`) to shrink sample counts;
//! `SHARC_BENCH_SAMPLES` sets them otherwise.
//! Nothing here asserts on a timing: ratios are printed, not gated.

use sharc_checker::{CheckEvent, EventLog, EventSink, ShadowGeometry};
use sharc_runtime::{Checked, Shadow, ShardedShadow, ThreadId, Unchecked};
use sharc_testkit::Bench;
use sharc_workloads::benchmarks::stunnel::{run_native, Params};

/// Working set of the per-granule rows: 4 KiB of payload.
const GRANULES: usize = 256;

fn main() {
    // `--smoke` is ci/check.sh's spelling of the harness's `--quick`.
    let mut g = Bench::new("checker");
    if std::env::args().any(|a| a == "--smoke") {
        g.sample_size(5);
    }

    let t = ThreadId(1);

    // ---- Ranged checks: one chkread/chkwrite per buffer sweep ----
    //
    // One granule models 16 bytes, so 4 KiB = 256 granules and
    // 64 KiB = 4096 granules.
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
        let row_min = |name: &str| {
            g.results()
                .iter()
                .find(|s| s.name == name)
                .map_or(0, |s| s.min_ns)
        };
        let (rng, per) = (
            row_min(&format!("cast/block-{kb}k-ranged")),
            row_min(&format!("cast/block-{kb}k-granule")),
        );
        eprintln!(
            "cast block-{kb}k: ranged {rng} ns vs per-granule {per} ns (min), {:.1}x",
            per as f64 / rng.max(1) as f64
        );
    }

    // ---- Sharded exact shadow ----
    //
    // The ≤63-thread fast path (one shard, the default geometry)
    // against the wide five-shard geometry, with both an in-shard tid
    // and a tid that lives past the first shard; plus the
    // adaptive-only (zero-shard) geometry for reference. All loops are
    // steady-state owned writes.
    let sharded = [
        ("sharded/1shard-write-tid1", ShadowGeometry::default(), 1),
        (
            "sharded/5shard-write-tid1",
            ShadowGeometry::for_threads(256),
            1,
        ),
        (
            "sharded/5shard-write-tid200",
            ShadowGeometry::for_threads(256),
            200,
        ),
        (
            "sharded/adaptive-write-tid1000",
            ShadowGeometry::adaptive_only(),
            1000,
        ),
    ];
    for (name, geom, tid) in sharded {
        let s = ShardedShadow::with_geometry(GRANULES, geom);
        g.bench(name, || {
            for i in 0..GRANULES {
                s.check_write(i, ThreadId(tid)).unwrap();
            }
        });
    }

    // ---- Wide-tid stunnel fleet ----
    //
    // 128 real worker threads per run, tids past the second shard
    // boundary, checked vs the unchecked twin.
    let fleet = Params {
        clients: 128,
        workers: 128,
        messages: 4,
        msg_len: 256,
    };
    g.bench("stunnel/fleet-sharc", || run_native::<Checked>(&fleet));
    g.bench("stunnel/fleet-orig", || run_native::<Unchecked>(&fleet));

    g.finish();
}
