//! `handoff-write` — the §2.1 ownership hand-off, written per word.
//!
//! The same `runtime` layer as `scan-read`, used the other way: one
//! producer fills each block with per-word checked writes, hands it
//! off with one ranged cast (range clear + epoch bump), and one
//! consumer reads and rewrites every word. Exclusive-owner writes,
//! owned-cache hits, and a clear per block that invalidates them — a
//! read-path gain bought at the write/clear path's expense shows here.
//!
//! `sharc_workloads::benchmarks::handoff` sweeps blocks with ranged
//! accesses; this workload keeps its threading and queue but drives
//! `sharc_runtime`'s per-word entry points, which no other workload
//! loads. One consumer, because two on two CPUs leave the producer
//! time-sliced and the ratio wandering.

use crate::harness::{Ctx, Samples};
use crate::native::{check_run, table1_metrics};
use crate::report::Report;
use sharc_runtime::{AccessPolicy, Arena, CachedChecked, ThreadCtx, ThreadId, Unchecked};
use sharc_testkit::rng::{RngCore, SplitMix64};
use sharc_workloads::table::NativeRun;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Blocks handed off per lap at full scale.
pub const BLOCKS: usize = 100_000;
/// Payload words per block (32 granules).
pub const BLOCK_WORDS: usize = 64;

struct Input {
    /// Allocated in set-up and reused by every lap: each lap leaves
    /// the shadow as it found it (the cast clears the producer's bits,
    /// thread exit the consumer's), and a lap that began by faulting
    /// in 50 MB would time the kernel, not the checker.
    arena: Arena,
    blocks: usize,
    /// One value per block, drawn from the seed; the producer writes
    /// `mix(base ^ i)` to word `i` of the block.
    bases: Vec<u64>,
    /// The sum the consumer must report — `mix` of every word it
    /// reads — computed from `bases` alone.
    key: u64,
}

fn make(ctx: &mut Ctx) -> Input {
    let blocks = ctx.scaled(BLOCKS);
    let mut rng = SplitMix64::new(ctx.cfg.seed ^ 0x6861_6e64);
    let bases: Vec<u64> = (0..blocks).map(|_| rng.next_u64()).collect();
    let key = bases.iter().fold(0u64, |acc, &base| {
        (0..BLOCK_WORDS as u64).fold(acc, |acc, i| acc.wrapping_add(mix(mix(base ^ i))))
    });
    Input {
        arena: Arena::new(blocks * BLOCK_WORDS),
        blocks,
        bases,
        key,
    }
}

/// The work the program does per word besides touching memory (the
/// SplitMix64 finalizer): without it the unchecked lap is a memory
/// stream shared by two cores, and its time is set by how closely the
/// consumer happens to trail the producer rather than by the code.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One lap under access policy `P`: the identical code runs unchecked
/// (the original program) and checked (the SharC build). The cast and
/// its shadow clear exist only in the checked build, as in `stunnel`.
///
/// Blocks are produced and consumed in index order, so the queue is
/// one published-count word (release/acquire): a mutex-guarded deque
/// made the short unchecked lap a measurement of lock contention.
fn lap<P: AccessPolicy>(input: &Input) -> NativeRun {
    let checked_build = P::NAME != Unchecked::NAME;
    let arena = &input.arena;
    let published = AtomicUsize::new(0);

    let (checksum, consumer, producer) = std::thread::scope(|s| {
        let consumer = s.spawn(|| {
            let mut ctx = ThreadCtx::new(ThreadId(2));
            let mut sum = 0u64;
            let mut next = 0;
            while next < input.blocks {
                let ready = published.load(Ordering::Acquire);
                if next == ready {
                    std::thread::yield_now();
                    continue;
                }
                // The consumer owns these blocks now: read and rewrite
                // every word, one check per access.
                for i in next * BLOCK_WORDS..ready * BLOCK_WORDS {
                    let v = mix(P::read(arena, &mut ctx, i));
                    sum = sum.wrapping_add(v);
                    P::write(arena, &mut ctx, i, v);
                }
                next = ready;
            }
            arena.thread_exit(&mut ctx);
            (sum, ctx)
        });

        let mut producer = ThreadCtx::new(ThreadId(1));
        for (b, &base) in input.bases.iter().enumerate() {
            let start = b * BLOCK_WORDS;
            for i in 0..BLOCK_WORDS {
                P::write(arena, &mut producer, start + i, mix(base ^ i as u64));
            }
            if checked_build {
                // The sharing cast: one reference, ownership moves, the
                // shadow forgets the producer ever wrote the block.
                arena.clear_range(start, BLOCK_WORDS);
            }
            published.store(b + 1, Ordering::Release);
        }
        let (sum, consumer) = consumer.join().expect("consumer panicked");
        arena.thread_exit(&mut producer);
        (sum, consumer, producer)
    });
    NativeRun {
        checksum,
        checked: producer.checked_accesses + consumer.checked_accesses,
        total: producer.total_accesses + consumer.total_accesses,
        conflicts: producer.conflicts + consumer.conflicts,
        payload_bytes: arena.payload_bytes(),
        shadow_bytes: arena.shadow_bytes(),
        threads: 2,
    }
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut last_checked: Option<NativeRun> = None;
    let mut round = |ctx: &mut Ctx, input: &Input, samples: &mut Samples| {
        if let Some((run, secs)) = ctx.timed("workloads.unchecked", || lap::<Unchecked>(input)) {
            check_run(ctx, "unchecked", &run, input.key);
            samples.push("unchecked", secs);
        }
        if let Some((run, secs)) = ctx.timed("runtime.checked", || lap::<CachedChecked>(input)) {
            check_run(ctx, "checked", &run, input.key);
            samples.push("checked", secs);
            ctx.push_verdict(samples, secs);
            last_checked = Some(run);
        }
    };
    let (input, setups) = ctx.setup(make, &mut round);
    let (samples, laps) = ctx.measure(&input, &mut round);

    let mut report = Report::default();
    if let Some(run) = last_checked {
        table1_metrics(&mut report, &samples, &run);
        report.put("work_per_s", run.checked as f64 / samples.median("verdict"));
        report.note(
            "work_per_s",
            format!(
                "checked accesses per second, {} per lap over {} blocks of {BLOCK_WORDS} words",
                run.checked, input.blocks
            ),
        );
    }
    if ctx.cfg.traced {
        crate::direct::write_path(&mut report);
    }
    ctx.common_metrics(&mut report, &samples, laps, &setups);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Config;

    #[test]
    fn both_builds_read_the_key_and_the_checked_one_is_silent() {
        let mut ctx = Ctx::new(Config {
            seed: 11,
            seconds: 0.0,
            traced: false,
            smoke: true,
        });
        let input = make(&mut ctx);
        let orig = lap::<Unchecked>(&input);
        let sharc = lap::<CachedChecked>(&input);
        assert_eq!(orig.checksum, input.key);
        assert_eq!(sharc.checksum, input.key);
        assert_eq!(sharc.conflicts, 0, "the cast makes the hand-off clean");
        assert_eq!(orig.checked, 0);
        assert_eq!(sharc.checked, sharc.total);
        assert_eq!(sharc.total, (input.blocks * BLOCK_WORDS * 3) as u64);
    }
}
