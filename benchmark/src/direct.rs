//! Single-thread direct calls into the `runtime` and `checker.stream`
//! layers' public functions: the per-operation prices beneath the
//! native workloads' lap differences. Each row belongs to the workload
//! whose lap it explains and is taken in that workload's traced run —
//! the read rows with `scan-read`, the write, clear and cast rows with
//! `handoff-write`, the lock and ring rows with `tunnel-online`.
//!
//! Every row is the median of [`REPS`] passes over enough operations
//! to last milliseconds; results pass through `black_box`.

use crate::report::Report;
use crate::stats;
use sharc_checker::{
    BitmapBackend, CheckEvent, EventSink, OwnedCache, ShadowGeometry, StreamingSink,
};
use sharc_runtime::{
    sharing_cast, Arena, LockId, LockRegistry, NaiveRc, ObjId, RcScheme, Shadow, ShardedShadow,
    ThreadCtx, ThreadId, WideThreadId, GRANULE_WORDS,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const REPS: usize = 9;

/// Words in the arena rows' buffer: 8 MiB of payload, past every cache.
const ARENA_WORDS: usize = 1 << 20;
/// Granules in the shadow sweep rows.
const SWEEP_GRANULES: usize = 1 << 18;
/// Granules in the steady-state rows: half the owned cache's 256
/// slots, so every cached access hits.
const HOT_GRANULES: usize = 128;
/// Passes over the hot set per timed repetition.
const HOT_PASSES: usize = 2_000;
const HOT_OPS: usize = HOT_GRANULES * HOT_PASSES;
/// Granules per `handoff-write` block (64 words).
const BLOCK_GRANULES: usize = 32;

/// Median nanoseconds per operation over [`REPS`] repetitions of
/// `rep`, which resets whatever it needs untimed and returns the time
/// `ops` operations took.
fn ns_per_op(ops: usize, mut rep: impl FnMut() -> Duration) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| rep().as_nanos() as f64 / ops as f64)
        .collect();
    stats::median(&samples)
}

fn time(work: impl FnOnce()) -> Duration {
    let t = Instant::now();
    work();
    t.elapsed()
}

/// `passes` sweeps over the hot granule set, timed.
fn hot_loop(mut check: impl FnMut(usize) -> bool) -> Duration {
    time(|| {
        for _ in 0..HOT_PASSES {
            for g in 0..HOT_GRANULES {
                black_box(check(g));
            }
        }
    })
}

/// `scan-read`'s rows: first-touch ranged reads, reads of memory
/// another thread already reads, cached re-reads, and the exit-time
/// clear of everything a sweep logged.
pub fn read_path(report: &mut Report) {
    let arena: Arena = Arena::new(ARENA_WORDS);
    let mut ctx = ThreadCtx::new(ThreadId(1));
    let mut exits = Vec::with_capacity(REPS);
    let sweep_ns = ns_per_op(ARENA_WORDS, || {
        let swept = time(|| {
            let mut sum = 0u64;
            arena.read_range_checked(&mut ctx, 0, ARENA_WORDS, |_, v| sum = sum.wrapping_add(v));
            black_box(sum);
        });
        // Exit clears what the sweep installed, so the next sweep is
        // a first touch again; its cost is a row of its own.
        exits.push(time(|| arena.thread_exit(&mut ctx)));
        swept
    });
    report.put("runtime.arena.read_range_ns_per_word", sweep_ns);
    let per_granule = |d: &Duration| d.as_nanos() as f64 / (ARENA_WORDS / GRANULE_WORDS) as f64;
    report.put(
        "runtime.arena.thread_exit_ns_per_granule",
        stats::median(&exits.iter().map(per_granule).collect::<Vec<_>>()),
    );
    drop(arena);

    let shadow: Shadow = Shadow::new(SWEEP_GRANULES);
    let (me, other) = (ThreadId(1), ThreadId(2));
    report.put(
        "runtime.shadow.range_read_ns_per_granule",
        ns_per_op(SWEEP_GRANULES, || {
            shadow.clear_range(0, SWEEP_GRANULES);
            time(|| {
                black_box(shadow.check_range_read(0, SWEEP_GRANULES, me, |_| {}, |_| {}));
            })
        }),
    );
    report.put(
        "runtime.shadow.shared_read_ns",
        ns_per_op(SWEEP_GRANULES, || {
            shadow.clear_range(0, SWEEP_GRANULES);
            shadow.check_range_read(0, SWEEP_GRANULES, other, |_| {}, |_| {});
            time(|| {
                for g in 0..SWEEP_GRANULES {
                    black_box(shadow.check_read(g, me).is_ok());
                }
            })
        }),
    );
    let mut cache: OwnedCache = OwnedCache::new();
    shadow.clear_range(0, SWEEP_GRANULES);
    report.put(
        "runtime.shadow.read_cached_ns",
        ns_per_op(HOT_OPS, || {
            hot_loop(|g| shadow.check_read_cached(g, me, &mut cache).is_ok())
        }),
    );
}

/// `handoff-write`'s rows: first-touch and owner re-writes through the
/// arena, the one-word and five-shard shadows with and without the
/// owned cache, the per-block clear, and the `oneref` cast.
pub fn write_path(report: &mut Report) {
    let arena: Arena = Arena::new(ARENA_WORDS);
    let mut ctx = ThreadCtx::new(ThreadId(1));
    report.put(
        "runtime.arena.unchecked_write_ns_per_word",
        ns_per_op(ARENA_WORDS, || {
            time(|| {
                for i in 0..ARENA_WORDS {
                    arena.write_unchecked(i, i as u64);
                }
            })
        }),
    );
    report.put(
        "runtime.arena.write_ns_per_word",
        ns_per_op(ARENA_WORDS, || {
            // First touch of every granule, then the owner's second
            // word: the producer's pattern in the workload.
            arena.thread_exit(&mut ctx);
            time(|| {
                for i in 0..ARENA_WORDS {
                    arena.write_checked(&mut ctx, i, i as u64);
                }
            })
        }),
    );
    drop(arena);

    let shadow: Shadow = Shadow::new(SWEEP_GRANULES);
    let me = ThreadId(1);
    report.put(
        "runtime.shadow.write_ns",
        ns_per_op(HOT_OPS, || hot_loop(|g| shadow.check_write(g, me).is_ok())),
    );
    let mut cache: OwnedCache = OwnedCache::new();
    report.put(
        "runtime.shadow.write_cached_ns",
        ns_per_op(HOT_OPS, || {
            hot_loop(|g| shadow.check_write_cached(g, me, &mut cache).is_ok())
        }),
    );
    report.put(
        "runtime.shadow.clear_range_ns_per_granule",
        ns_per_op(SWEEP_GRANULES, || {
            shadow.check_range_write(0, SWEEP_GRANULES, me, |_| {}, |_| {});
            // Block by block, as the hand-off clears: each call pays
            // its own epoch bump.
            time(|| {
                for b in 0..SWEEP_GRANULES / BLOCK_GRANULES {
                    shadow.clear_range(b * BLOCK_GRANULES, BLOCK_GRANULES);
                }
            })
        }),
    );

    // Five shards (tids up to 315), accessed from a tid in the fourth.
    let sharded = ShardedShadow::with_geometry(HOT_GRANULES, ShadowGeometry::with_shards(5));
    let wide = WideThreadId(200);
    report.put(
        "runtime.sharded.write_ns",
        ns_per_op(HOT_OPS, || {
            hot_loop(|g| sharded.check_write(g, wide).is_ok())
        }),
    );
    let mut wide_cache: OwnedCache = OwnedCache::new();
    report.put(
        "runtime.sharded.write_cached_ns",
        ns_per_op(HOT_OPS, || {
            hot_loop(|g| sharded.check_write_cached(g, wide, &mut wide_cache).is_ok())
        }),
    );

    // The `oneref` protocol of Fig. 7: take the only reference out of
    // a slot and confirm no other remains.
    const CASTS: usize = 100_000;
    let rc = NaiveRc::new(1, 1);
    report.put(
        "runtime.scast.cast_ns",
        ns_per_op(CASTS, || {
            time(|| {
                for _ in 0..CASTS {
                    rc.store(0, 0, Some(ObjId(0)));
                    black_box(sharing_cast(&rc, 0, 0).is_ok());
                }
            })
        }),
    );
}

/// `tunnel-online`'s rows: an uncontended held-lock-logged mutex
/// round trip, and raw `StreamingSink::record` throughput from one
/// recording thread and from two.
pub fn server_path(report: &mut Report, nproc: usize) {
    const LOCK_PAIRS: usize = 200_000;
    let locks = LockRegistry::new(1);
    let mut ctx = ThreadCtx::new(ThreadId(1));
    report.put(
        "runtime.locks.acquire_release_ns",
        ns_per_op(LOCK_PAIRS, || {
            time(|| {
                for _ in 0..LOCK_PAIRS {
                    locks.lock(&mut ctx, LockId(0));
                    locks.unlock(&mut ctx, LockId(0));
                }
            })
        }),
    );

    report.put("checker.stream.record_events_per_s.t1", record_rate(1));
    if nproc >= 2 {
        report.put("checker.stream.record_events_per_s.t2", record_rate(2));
    } else {
        report.unmeasured(
            "checker.stream.record_events_per_s.t2",
            "nproc < 2: two recorders cannot run in parallel",
        );
    }
}

/// Events per second through `StreamingSink::record` from `threads`
/// recorders, each writing its own granule band, drains included.
fn record_rate(threads: u32) -> f64 {
    const EVENTS_PER_THREAD: usize = 200_000;
    const BAND: usize = 512;
    let rates: Vec<f64> = (0..REPS)
        .map(|_| {
            let backend =
                BitmapBackend::with_geometry(ShadowGeometry::for_threads(threads as usize + 1));
            let sink = Arc::new(StreamingSink::new(
                threads as usize + 2,
                sharc::DEFAULT_RING_CAP,
                Box::new(backend),
            ));
            let t = Instant::now();
            std::thread::scope(|s| {
                for tid in 2..2 + threads {
                    let sink = Arc::clone(&sink);
                    s.spawn(move || {
                        let band = (tid as usize - 2) * BAND;
                        for i in 0..EVENTS_PER_THREAD {
                            sink.record(CheckEvent::Write {
                                tid,
                                granule: band + i % BAND,
                            });
                        }
                    });
                }
            });
            let (conflicts, stats) = sink.finish();
            let secs = t.elapsed().as_secs_f64();
            assert!(conflicts.is_empty() && stats.recorded == stats.drained);
            stats.recorded as f64 / secs
        })
        .collect();
    stats::median(&rates)
}
