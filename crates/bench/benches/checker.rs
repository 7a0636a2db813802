//! Bench for the unified checker layer: the per-granule check with
//! and without the owned-granule epoch cache, on the workload shape
//! the cache is built for — one thread repeatedly touching granules it
//! already owns (pfscan's scan buffers, pbzip2's per-worker blocks).
//!
//! Runs on the sharc-testkit bench harness (`harness = false`);
//! results land in the repo-root `BENCH_checker.json` (the single
//! canonical location — nothing is written under `target/` anymore).
//! Accepts `--quick` (or its CI alias `--smoke`) to shrink sample
//! counts.

use sharc_checker::{CheckEvent, EventLog, EventSink, OwnedCache, ShadowGeometry};
use sharc_runtime::{Shadow, ShardedShadow, ThreadId};
use sharc_testkit::Bench;

/// Working set sized to the cache's default slot count, so the
/// direct-mapped table holds every granule (the steady state the
/// cache targets).
const GRANULES: usize = 256;

fn main() {
    // `--smoke` is what ci/check.sh passes everywhere; the harness
    // itself only knows `--quick`.
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut g = Bench::new("checker");
    g.sample_size(if smoke { 5 } else { 20 });

    let t = ThreadId(1);

    // Baseline: every access runs the full atomic-load (+ CAS on
    // first contact) protocol.
    {
        let s: Shadow = Shadow::new(GRANULES);
        g.bench("owned-write/uncached", || {
            for i in 0..GRANULES {
                s.check_write(i, t).unwrap();
            }
        });
    }

    // Through the cached entry point: on the one-word protocol the
    // same load-and-compare as above (no epoch load, no probe).
    {
        let s: Shadow = Shadow::new(GRANULES);
        let mut cache: OwnedCache = OwnedCache::new();
        g.bench("owned-write/cached", || {
            for i in 0..GRANULES {
                s.check_write_cached(i, t, &mut cache).unwrap();
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

    {
        let s: Shadow = Shadow::new(GRANULES);
        let mut cache: OwnedCache = OwnedCache::new();
        g.bench("owned-read/cached", || {
            for i in 0..GRANULES {
                s.check_read_cached(i, t, &mut cache).unwrap();
            }
        });
    }

    // Historic worst case for the cache: a clear between laps. Under
    // the global epoch this forced a whole-cache flush plus refill
    // each lap; with the per-region table (the default geometry) the
    // point clear now stales only the granules of its own region —
    // the `epoch/*` rows below measure the two geometries head to
    // head on exactly this pattern. On the sharded protocol, like
    // every row that measures the per-granule cache: the one-word
    // protocol's cached check is its uncached one
    // (`WordProtocol::OWNED_CACHE`), which is what the
    // `owned-*/cached` rows above now show.
    {
        let s = ShardedShadow::with_geometry(GRANULES, ShadowGeometry::default());
        let mut cache: OwnedCache = OwnedCache::new();
        g.bench("owned-write/cached-epoch-thrash", || {
            for i in 0..GRANULES {
                s.check_write_cached(i, t, &mut cache).unwrap();
            }
            s.clear(0);
        });
    }

    // ---- Epoch geometry: region vs global invalidation ----
    //
    // The six `epoch/{region,global}-{private,thrash,mixed}` rows and
    // their exact flush/miss counters (shared with `table1 --smoke`
    // via sharc_bench so both write the same repo-root JSON).
    let epoch_counters = sharc_bench::epoch_rows(&mut g);

    // ---- Epoch geometry sweep: regions x working set ----
    //
    // The `epoch-geom/r{R}-ws{WS}` grid grounding DEFAULT_REGIONS =
    // 64 (see sharc_bench::epoch_geometry_rows for the pattern).
    sharc_bench::epoch_geometry_rows(&mut g);

    // ---- Ranged checks: one chkread/chkwrite per buffer sweep ----
    //
    // The tentpole rows. One granule models 16 bytes, so 4 KiB = 256
    // granules (exactly the per-granule rows' working set, making
    // `range/owned-4k` vs `owned-write/cached` a like-for-like lap)
    // and 64 KiB = 4096 granules.
    for &(kb, granules) in &[(4usize, 256usize), (64, 4096)] {
        // Steady-state owned sweep, cached: after the first lap the
        // whole sweep is one epoch-sum compare against the owned-run
        // summary — the >=4x acceptance gate below is on this row.
        {
            let s: Shadow = Shadow::new(granules);
            let mut cache: OwnedCache = OwnedCache::new();
            g.bench(&format!("range/owned-{kb}k"), || {
                s.check_range_write_cached(0, granules, t, &mut cache, |_| {}, |_| {})
            });
        }
        // Every granule SHARED_READ with this tid's bit already set:
        // the uncached ranged read classifies the run with one load +
        // `range::recorded` test per granule, no CAS, no cache.
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
        // Mixed: a mid-range point clear per lap bumps one covered
        // region epoch, so the covering stamp misses every lap and
        // the sweep pays the outlined fill path (per-granule cached
        // checks; only the cleared region's granule actually
        // re-checks through the CAS protocol).
        {
            let s: Shadow = Shadow::new(granules);
            let mut cache: OwnedCache = OwnedCache::new();
            g.bench(&format!("range/mixed-{kb}k"), || {
                let c = s.check_range_write_cached(0, granules, t, &mut cache, |_| {}, |_| {});
                s.clear(granules / 2);
                c
            });
        }
    }

    // ---- Ranged casts & frees: one-operation block hand-off ----
    //
    // The block hand-off exactly as pbzip2/stunnel/handoff perform
    // it: record the cast on the spine, then clear the block's
    // shadow. Ranged: ONE `RangeCast` plus `clear_range` (a word
    // sweep with one epoch bump per covered region). Granule: one
    // `SharingCast` record plus one `clear` — with its own epoch
    // bump — per granule, the pre-ranged shape.
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

    // ---- Associativity × slot-count sweep ----
    //
    // The cache is const-generic over WAYS. A direct-mapped table
    // (WAYS = 1) thrashes when two hot granules alias to the same
    // set; a 2-way set holds both at the cost of a slightly longer
    // probe. The sweep records both shapes at two table sizes on (a)
    // an aliasing access pattern and (b) the sequential pattern the
    // direct map is optimal for. WAYS = 1 stays the default: it wins
    // the common sequential case and loses only under aliasing.
    for &slots in &[64usize, 256] {
        // `i` and `i + slots` land in the same set in both
        // geometries (1-way: sets == slots, (i + slots) mod slots ==
        // i; 2-way: sets == slots/2 and slots is a multiple of it).
        // The loop covers `0..slots/2` so each set sees exactly its
        // aliased pair: two residents fit a 2-way set but thrash a
        // direct-mapped one.
        let span = slots * 2 + GRANULES;
        let shadow = || ShardedShadow::with_geometry(span, ShadowGeometry::default());
        {
            let s = shadow();
            let mut c = OwnedCache::<1>::with_slots(slots);
            g.bench(&format!("assoc/w1-s{slots}-alias"), || {
                for i in 0..slots / 2 {
                    s.check_write_cached(i, t, &mut c).unwrap();
                    s.check_write_cached(i + slots, t, &mut c).unwrap();
                }
            });
        }
        {
            let s = shadow();
            let mut c = OwnedCache::<2>::with_slots(slots);
            g.bench(&format!("assoc/w2-s{slots}-alias"), || {
                for i in 0..slots / 2 {
                    s.check_write_cached(i, t, &mut c).unwrap();
                    s.check_write_cached(i + slots, t, &mut c).unwrap();
                }
            });
        }
        {
            let s = shadow();
            let mut c = OwnedCache::<1>::with_slots(slots);
            g.bench(&format!("assoc/w1-s{slots}-seq"), || {
                for i in 0..slots / 2 {
                    s.check_write_cached(i, t, &mut c).unwrap();
                }
            });
        }
        {
            let s = shadow();
            let mut c = OwnedCache::<2>::with_slots(slots);
            g.bench(&format!("assoc/w2-s{slots}-seq"), || {
                for i in 0..slots / 2 {
                    s.check_write_cached(i, t, &mut c).unwrap();
                }
            });
        }
    }

    // ---- Sharded exact shadow ----
    //
    // The ≤63-thread fast path (one shard, the default geometry)
    // against the wide five-shard geometry, with both an in-shard tid
    // and a tid that lives past the first shard; plus the
    // adaptive-only (zero-shard) geometry for reference. All loops are steady-state
    // owned writes, the same shape as the bitmap benches above.
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
        let s = ShardedShadow::with_geometry(GRANULES, ShadowGeometry::for_threads(256));
        let mut c = OwnedCache::<1>::new();
        g.bench("sharded/5shard-write-tid200-cached", || {
            for i in 0..GRANULES {
                s.check_write_cached(i, ThreadId(200), &mut c).unwrap();
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

    // ---- VM private loop: elision vs the owned-granule cache ----
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

    // Machine-readable trajectory across PRs: the full row set plus
    // the deterministic flush/miss counters, at the repo root — the
    // ONLY place this group's JSON lands (the old duplicate under
    // `crates/bench/target/` is gone).
    sharc_bench::write_checker_json_at_repo_root(
        &g,
        &epoch_counters,
        &stunnel_rows,
        &online_rows,
        &elision_rows,
        &trace_rows,
    );

    // The acceptance criterion, enforced at bench time: the owned
    // cache must pay where it is kept. `MultiWord::OWNED_CACHE` is true
    // because a cache hit (one relaxed epoch load, one probe) replaces
    // a SeqCst snapshot of every shard word plus the sharded step; the
    // gate holds it to at least 2x on the five-shard geometry. On the
    // one-word protocol the const is false — `recorded` is one load
    // and one compare, cheaper than the probe — so `owned-*/cached`
    // and `owned-*/uncached` time the same inlined test; the pair is
    // printed, not gated (two copies of one loop differ by their
    // alignment, which is not a property of the checker).
    let results = g.results();
    // Minima, not medians or means: these are constant-work loops, so
    // the fastest sample is the least noise-contaminated one — a
    // scheduler hiccup in a shared environment can poison a median at
    // small sample counts without saying anything about the code
    // under test. (The JSON still records the full distribution.)
    let min = |name: &str| {
        results
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.min_ns)
            .expect("bench ran")
    };
    let (unc, cac) = (min("owned-write/uncached"), min("owned-write/cached"));
    eprintln!("one-word owned write: uncached {unc} ns/lap (min), cached entry point {cac} ns/lap");
    let (unc, cac) = (
        min("sharded/5shard-write-tid200"),
        min("sharded/5shard-write-tid200-cached"),
    );
    eprintln!("sharded owned write: uncached {unc} ns/lap (min), cached {cac} ns/lap (want >=2x)");
    assert!(
        cac * 2 <= unc,
        "the owned cache must beat the sharded snapshot protocol >=2x ({cac} * 2 > {unc} ns)"
    );

    // And the tentpole claim: the region table wins >=2x under thrash
    // and is free when nothing is cleared.
    sharc_bench::assert_epoch_wins(&g);

    // Streaming acceptance gate: peak resident events under the ring
    // budget (with the budget genuinely binding) and the streamed
    // stunnel fleet within 1.25x of the untraced checked run.
    sharc_bench::assert_online_bounds(&g, &online_rows);

    // Elision acceptance gate: deleting the private loop's checks
    // statically must beat passing them through the owned cache.
    sharc_bench::assert_elision_wins(&g);

    // Ranged acceptance gate: on the owned 4 KiB lap (256 granules,
    // the same working set as `owned-write/cached`), the steady-state
    // ranged sweep — one epoch-sum + one run-slot compare — must beat
    // the per-granule cached loop by >=4x.
    let (rng, per) = (min("range/owned-4k"), min("owned-write/cached"));
    eprintln!("range owned-4k: ranged {rng} ns/lap (min) vs per-granule cached {per} ns/lap");
    assert!(
        rng * 4 <= per,
        "ranged owned sweep must beat the per-granule cached loop >=4x ({rng} * 4 > {per} ns)"
    );

    // Ranged-cast acceptance gate: the one-operation block hand-off
    // beats the per-granule cast+clear loop >=4x on 4 KiB blocks, and
    // the win holds at 64 KiB.
    sharc_bench::assert_ranged_cast_wins(&g);

    // Binary-trace acceptance gates: binary v4 at most 1/4 the bytes
    // of text on the same trace, encode+decode >=2x faster. The
    // seq/par replay pair is reported in the JSON, not gated.
    sharc_bench::assert_trace_wins(&g, &trace_rows[0]);
}
