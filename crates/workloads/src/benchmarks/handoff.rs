//! **handoff** — the ownership-transfer idiom of paper §2.1 as a
//! *native* workload, and the keystone of the event spine.
//!
//! A producer thread privately initializes a block of memory, then
//! transfers it to a consumer through a sharing cast: "the cast
//! changes the sharing mode of an object when there is exactly one
//! reference to it. … after the cast, the consumer is free to use
//! the object as if it had always been private." SharC accepts this
//! idiom; detectors with no ownership-transfer model (Eraser
//! locksets, vector clocks judging by pre-transfer history) flag it
//! as a race — the §6.2 comparison.
//!
//! Because [`run_with_events`] records the `CheckEvent` vocabulary
//! from a *real multithreaded execution*, the same run can be replayed
//! through every [`sharc_checker::CheckBackend`]: SharC stays silent,
//! the baselines false-positive, and stripping the `SharingCast`
//! events from the trace makes SharC report too — the cast is
//! exactly the information the others are missing.

use crate::table::NativeRun;
use sharc_runtime::{
    AccessPolicy, Arena, Checked, EventSink, LockId, ThreadCtx, ThreadId, GRANULE_WORDS,
};
use sharc_testkit::sync::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Sentinel job telling a consumer to exit.
const DONE: usize = usize::MAX;

/// Lock id used for the job queue in the emitted trace.
const QUEUE_LOCK: LockId = LockId(0);

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Number of blocks produced and handed off.
    pub blocks: usize,
    /// Payload words per block (rounded up to whole granules so a
    /// transfer never splits a granule between owners).
    pub block_words: usize,
    /// Consumer thread count (tids 2..2+consumers).
    pub consumers: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            blocks: 32,
            block_words: 16,
            consumers: 2,
        }
    }
}

impl Params {
    /// Words per block after granule alignment.
    fn aligned_words(&self) -> usize {
        self.block_words
            .next_multiple_of(GRANULE_WORDS)
            .max(GRANULE_WORDS)
    }
}

/// Runs the handoff workload with access policy `P`.
pub fn run_native<P: AccessPolicy>(params: &Params) -> NativeRun {
    run::<P>(params, ThreadCtx::new(ThreadId(1)))
}

/// Runs the handoff checked, recording into any [`EventSink`]: a
/// log to replay, or a streaming sink judging online.
pub fn run_with_events(params: &Params, sink: Arc<dyn EventSink>) -> NativeRun {
    run::<Checked>(params, ThreadCtx::with_sink(ThreadId(1), sink))
}

/// The workload, with `producer` (tid 1) as the main thread's context.
fn run<P: AccessPolicy>(params: &Params, mut producer: ThreadCtx) -> NativeRun {
    let words = params.aligned_words();
    let arena: Arc<Arena> = Arc::new(Arena::new(params.blocks * words));
    let queue: Arc<Mutex<VecDeque<usize>>> = Arc::new(Mutex::new(VecDeque::new()));

    // --- Consumers (tids 2..) start first and run *concurrently*
    // with production: they claim blocks off the queue and use them
    // as if they had always been private — reads *and* writes, no
    // lock held over the payload. An empty pop yields and retries.
    let mut handles = Vec::new();
    for c in 0..params.consumers {
        let mut ctx = producer.fork(ThreadId(c as u32 + 2));
        let arena = Arc::clone(&arena);
        let queue = Arc::clone(&queue);
        handles.push(std::thread::spawn(move || {
            let mut sum = 0u64;
            let mut vals: Vec<u64> = Vec::new();
            loop {
                let job = {
                    let mut q = queue.lock();
                    ctx.critical_section(QUEUE_LOCK);
                    q.pop_front()
                };
                match job {
                    Some(DONE) => break,
                    None => std::thread::yield_now(),
                    Some(b) => {
                        // The bulk inner loop, ranged: one chkread
                        // sweep over the block, then one chkwrite
                        // sweep — the access kinds locksets judge
                        // most harshly, at two checks per block.
                        let start = b * words;
                        vals.clear();
                        P::read_range(&arena, &mut ctx, start, words, &mut |_, v| {
                            sum = sum.wrapping_add(v);
                            vals.push(v);
                        });
                        P::write_range(&arena, &mut ctx, start, words, &mut |i| {
                            vals[i - start].wrapping_add(1)
                        });
                    }
                }
            }
            let record = (sum, ctx.checked_accesses, ctx.total_accesses, ctx.conflicts);
            arena.thread_exit(&mut ctx);
            record
        }));
    }

    // --- Producer (tid 1): initialize each block privately, then
    // transfer it. The writes go through `P` (checked in the SharC
    // build), so before the cast the shadow records tid 1 as the
    // block's writer — exactly the state a detector would hold
    // against the consumer if the transfer were invisible.
    for b in 0..params.blocks {
        let start = b * words;
        // Private initialization, ranged: one chkwrite for the whole
        // block instead of one per word.
        P::write_range(&arena, &mut producer, start, words, &mut |i| {
            (b as u64) << 8 | (i - start) as u64
        });
        // The sharing cast: one reference, ownership moves. The whole
        // block hands off as ONE ranged cast.
        P::cast_range(&arena, &producer, start, words);
        // Publish the block index under the queue lock.
        let mut q = queue.lock();
        producer.critical_section(QUEUE_LOCK);
        q.push_back(b);
    }
    {
        let mut q = queue.lock();
        for _ in 0..params.consumers {
            q.push_back(DONE);
        }
    }

    let mut checksum = 0u64;
    let mut checked = producer.checked_accesses;
    let mut total = producer.total_accesses;
    let mut conflicts = producer.conflicts;
    for h in handles {
        let (s, c, t, cf) = h.join().expect("consumer panicked");
        checksum = checksum.wrapping_add(s);
        checked += c;
        total += t;
        conflicts += cf;
    }
    arena.thread_exit(&mut producer);

    NativeRun {
        checksum,
        checked,
        total,
        conflicts,
        payload_bytes: arena.payload_bytes(),
        shadow_bytes: arena.shadow_bytes(),
        threads: params.consumers + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharc_checker::{replay, BitmapBackend, CheckEvent, EventLog};
    use sharc_detectors::{Eraser, VcDetector};
    use sharc_runtime::Unchecked;

    #[test]
    fn checksum_agrees_between_policies_and_no_conflicts() {
        let p = Params::default();
        let orig = run_native::<Unchecked>(&p);
        let sharc = run_native::<Checked>(&p);
        assert_eq!(orig.checksum, sharc.checksum);
        assert_eq!(sharc.conflicts, 0, "transfer makes the idiom clean");
        assert!(sharc.checked > 0);
    }

    #[test]
    fn traced_run_matches_untraced() {
        let p = Params::default();
        let (run, trace) = EventLog::capture(|s| run_with_events(&p, s));
        assert_eq!(run.checksum, run_native::<Checked>(&p).checksum);
        // Checked accesses are covered by ranged events now — one
        // RangeRead/RangeWrite per block sweep, each spanning
        // `len * GRANULE_WORDS` word accesses.
        let covered: u64 = trace
            .iter()
            .map(|e| match e {
                CheckEvent::Read { .. } | CheckEvent::Write { .. } => 1,
                CheckEvent::RangeRead { len, .. } | CheckEvent::RangeWrite { len, .. } => {
                    (len * GRANULE_WORDS) as u64
                }
                _ => 0,
            })
            .sum();
        assert!(
            covered >= run.checked,
            "every checked access is covered: {covered} vs {}",
            run.checked
        );
    }

    #[test]
    fn sharc_is_silent_on_the_native_trace() {
        let (_, trace) = EventLog::capture(|s| run_with_events(&Params::default(), s));
        let conflicts = replay(&trace, &mut BitmapBackend::new());
        assert!(
            conflicts.is_empty(),
            "SharC models the transfer: {conflicts:?}"
        );
    }

    #[test]
    fn eraser_false_positives_on_the_same_execution() {
        // §6.2: the *same* native execution, judged through the same
        // interface. The payload accesses happen outside the queue
        // lock (the whole point of the transfer), so Eraser's lockset
        // for the blocks goes empty and it reports — while the
        // happens-before detector accepts the run because the queue's
        // release/acquire pair orders producer before consumer.
        let (_, trace) = EventLog::capture(|s| run_with_events(&Params::default(), s));
        let eraser = replay(&trace, &mut Eraser::new());
        let vc = replay(&trace, &mut VcDetector::new());
        assert!(!eraser.is_empty(), "Eraser misses the ownership transfer");
        assert!(vc.is_empty(), "HB sees the lock edge: {vc:?}");
    }

    #[test]
    fn without_lock_edges_even_happens_before_false_positives() {
        // Strip the queue's lock events so the only justification for
        // the transfer is the sharing cast itself. SharC still
        // accepts (the cast is its evidence); the happens-before
        // detector now has no edge and flags the consumer.
        let (_, trace) = EventLog::capture(|s| run_with_events(&Params::default(), s));
        let cast_only: Vec<CheckEvent> = trace
            .into_iter()
            .filter(|e| !matches!(e, CheckEvent::Acquire { .. } | CheckEvent::Release { .. }))
            .collect();
        let sharc = replay(&cast_only, &mut BitmapBackend::new());
        assert!(
            sharc.is_empty(),
            "the cast alone satisfies SharC: {sharc:?}"
        );
        let vc = replay(&cast_only, &mut VcDetector::new());
        assert!(!vc.is_empty(), "the cast is invisible to vector clocks");
    }

    #[test]
    fn stripping_the_casts_makes_sharc_report_too() {
        // The cast is the load-bearing event: without it, tid 1's
        // writer state survives and the consumer's first access is a
        // genuine sharing violation.
        let (_, trace) = EventLog::capture(|s| run_with_events(&Params::default(), s));
        let stripped: Vec<CheckEvent> = trace
            .into_iter()
            .filter(|e| {
                !matches!(
                    e,
                    CheckEvent::SharingCast { .. } | CheckEvent::RangeCast { .. }
                )
            })
            .collect();
        let conflicts = replay(&stripped, &mut BitmapBackend::new());
        assert!(!conflicts.is_empty(), "no cast, no transfer, real conflict");
    }

    #[test]
    fn trace_carries_the_full_event_vocabulary() {
        let (_, trace) = EventLog::capture(|s| run_with_events(&Params::default(), s));
        let has = |f: fn(&CheckEvent) -> bool| trace.iter().any(f);
        assert!(has(|e| matches!(e, CheckEvent::Fork { .. })));
        assert!(has(|e| matches!(e, CheckEvent::RangeRead { .. })));
        assert!(has(|e| matches!(e, CheckEvent::RangeWrite { .. })));
        assert!(has(|e| matches!(e, CheckEvent::RangeCast { .. })));
        assert!(has(|e| matches!(e, CheckEvent::Acquire { .. })));
        assert!(has(|e| matches!(e, CheckEvent::Release { .. })));
        assert!(has(|e| matches!(e, CheckEvent::ThreadExit { .. })));
    }
}
