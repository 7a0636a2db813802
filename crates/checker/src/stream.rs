//! Streaming online detection: bounded-memory event rings drained
//! under a Levanoni–Petrank-style epoch flip.
//!
//! [`EventLog`](crate::EventLog) is record-then-replay: the whole
//! execution is buffered before any backend sees an event — O(run
//! length) memory, unusable for a long-running server fleet. A
//! [`StreamingSink`] replaces it with the same two-epoch collector
//! idiom `sharc-runtime`'s `LpRc` refcounter uses (§4.3): each
//! recording thread appends into a small per-ring buffer, and *any*
//! thread may take the collector role, flip the epoch, drain every
//! ring's now-closed buffer, and feed the events to a
//! [`CheckBackend`] — so verdicts are produced concurrently with the
//! run inside a fixed memory budget.
//!
//! ## The protocol
//!
//! One `AtomicU64` *stamp* packs the epoch parity (bit 63) over a
//! global sequence number (low 63 bits). A recorder, holding its
//! ring's lock, draws `stamp.fetch_add(1)` and pushes `(seq, event)`
//! into the ring buffer selected by the stamp's parity. The
//! collector, holding the collector lock, flips the parity with
//! `stamp.fetch_xor(1 << 63)` and only then acquires each ring's
//! lock in turn, draining the old-parity buffer.
//!
//! **Why a stale ring read is only a delayed drain, never a lost
//! event:** the stamp and the push happen under one ring-lock
//! critical section, and the flip precedes every ring-lock
//! acquisition the collector makes. So if a recorder stamped old
//! parity, either it held the ring lock before the collector — the
//! push completed, the drain sees it — or it acquires the ring lock
//! after the collector released it, in which case the flip
//! happens-before its stamp and the stamp reads the *new* parity.
//! There is no third interleaving; an old-parity event the current
//! collect misses cannot exist, and a new-parity event is simply
//! drained by the next collect.
//!
//! **Why the per-epoch batch is a linearization:** all stamps come
//! from one atomic's modification order, in which the low bits only
//! grow; sorting a drained epoch by sequence number therefore
//! reconstructs the exact global record order, and because the flip
//! lives in the same modification order, every event of epoch *k*
//! has a smaller sequence number than every event of epoch *k + 1*.
//! Concatenating per-epoch sorted batches replays the events in
//! precisely the order a serialized [`EventLog`] would have recorded
//! them — the streaming fold and the replay fold run the same
//! [`apply_event`] on the same sequence, so the verdicts are
//! bit-identical by construction.
//!
//! **The memory budget:** a recorder only pushes after verifying the
//! current-parity buffer holds fewer than `cap` events (still under
//! the ring lock); at `cap` it releases the lock, runs a collect
//! itself — or blocks on the collector lock until the in-flight
//! collect finishes — and retries. Each of a ring's two buffers is
//! therefore never longer than `cap`, so peak resident events are
//! bounded by `2 × cap × rings` ([`StreamingSink::ring_budget`])
//! regardless of run length.

use crate::backend::{apply_event, CheckBackend, CheckEvent, Conflict};
use crate::sink::{recording_tid, EventSink};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default stored-conflict saturation point: generous enough that no
/// realistic run saturates, small enough to bound a pathological racy
/// loop that would otherwise buffer one conflict per iteration.
pub const DEFAULT_CONFLICT_CAP: usize = 65_536;

/// Bit 63 of the stamp: the current epoch's parity.
const PARITY_BIT: u64 = 1 << 63;
/// Low 63 bits: the global sequence number.
const SEQ_MASK: u64 = PARITY_BIT - 1;

/// One recording thread's two-epoch buffer pair, guarded by the lock
/// whose critical section makes stamp-and-push atomic.
#[derive(Debug, Default)]
struct Ring {
    bufs: Mutex<[Vec<(u64, CheckEvent)>; 2]>,
}

/// The collector role's state: the backend being fed and the
/// conflicts it has produced so far. Owning it *inside* the collector
/// lock is what lets any thread play collector.
struct CollectorState {
    backend: Box<dyn CheckBackend + Send>,
    conflicts: Vec<Conflict>,
    /// Every (kind, tid, granule) key ever stored — the dedupe set
    /// consulted once `conflicts` saturates.
    seen: HashSet<Conflict>,
    /// Duplicate conflicts dropped after saturation.
    suppressed: u64,
    /// Completed collects.
    drains: u64,
    /// Events drained across all collects.
    drained: u64,
}

/// Counters reported by [`StreamingSink::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Events recorded into the rings.
    pub recorded: u64,
    /// Events drained and applied to the backend.
    pub drained: u64,
    /// Collect (epoch-flip) passes.
    pub drains: u64,
    /// High-water mark of events resident in the rings.
    pub peak_resident: usize,
    /// The configured bound: `2 × cap × rings`.
    pub ring_budget: usize,
    /// Duplicate conflicts dropped after the stored list saturated at
    /// the conflict cap (a pathological racy loop would otherwise
    /// grow the verdict list without bound).
    pub conflicts_suppressed: u64,
}

/// The online sink: per-thread bounded rings plus an epoch-flip
/// collector feeding a [`CheckBackend`] incrementally.
pub struct StreamingSink {
    rings: Vec<Ring>,
    /// Per-buffer capacity before a recorder must collect.
    cap: usize,
    /// Stored-conflict saturation point: below it every conflict is
    /// kept verbatim (bit-identical to the replay fold); at or above
    /// it only conflicts with an unseen (kind, tid, granule) key are
    /// admitted and duplicates are counted instead of stored.
    conflict_cap: usize,
    /// Epoch parity (bit 63) packed over the global sequence.
    stamp: AtomicU64,
    collector: Mutex<CollectorState>,
    /// Events currently resident across all rings.
    resident: AtomicUsize,
    peak_resident: AtomicUsize,
    recorded: AtomicU64,
}

impl std::fmt::Debug for StreamingSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingSink")
            .field("rings", &self.rings.len())
            .field("cap", &self.cap)
            .field("resident", &self.resident.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

fn unpoison<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    // A recorder that panicked mid-push poisons only its own ring;
    // the buffers are always structurally valid, so keep draining.
    r.unwrap_or_else(PoisonError::into_inner)
}

impl StreamingSink {
    /// A sink of `rings` per-thread buffers of `cap` events each,
    /// feeding `backend`. A recording tid maps to ring `tid % rings`
    /// — correctness never depends on the placement (the stamps carry
    /// the order), only the contention profile does.
    pub fn new(rings: usize, cap: usize, backend: Box<dyn CheckBackend + Send>) -> Self {
        StreamingSink {
            rings: (0..rings.max(1)).map(|_| Ring::default()).collect(),
            cap: cap.max(1),
            conflict_cap: DEFAULT_CONFLICT_CAP,
            stamp: AtomicU64::new(0),
            collector: Mutex::new(CollectorState {
                backend,
                conflicts: Vec::new(),
                seen: HashSet::new(),
                suppressed: 0,
                drains: 0,
                drained: 0,
            }),
            resident: AtomicUsize::new(0),
            peak_resident: AtomicUsize::new(0),
            recorded: AtomicU64::new(0),
        }
    }

    /// Overrides the stored-conflict saturation point (tests and
    /// tools that want tighter memory use a small cap).
    #[must_use]
    pub fn with_conflict_cap(mut self, n: usize) -> Self {
        self.conflict_cap = n.max(1);
        self
    }

    /// The fixed bound on resident events: each ring holds at most
    /// `cap` events per parity.
    pub fn ring_budget(&self) -> usize {
        2 * self.cap * self.rings.len()
    }

    /// Takes the collector role: flip the epoch, then drain every
    /// ring's old-parity buffer, sort the batch by sequence number,
    /// and feed it to the backend. Mirrors `LpRc::collect` — any
    /// thread may call this; concurrent callers serialize on the
    /// collector lock (which is the backpressure that keeps a
    /// saturated recorder inside the budget).
    pub fn collect(&self) {
        let mut state = unpoison(self.collector.lock());
        // Flip first: everything stamped after this point carries the
        // new parity and belongs to the next collect.
        let old = self.stamp.fetch_xor(PARITY_BIT, Ordering::SeqCst);
        let old_parity = (old >> 63) as usize;
        let mut batch: Vec<(u64, CheckEvent)> = Vec::new();
        for ring in &self.rings {
            let mut bufs = unpoison(ring.bufs.lock());
            batch.append(&mut bufs[old_parity]);
        }
        self.resident.fetch_sub(batch.len(), Ordering::Relaxed);
        // Per-epoch linearization: the stamps' modification order.
        batch.sort_unstable_by_key(|&(seq, _)| seq);
        state.drains += 1;
        state.drained += batch.len() as u64;
        let state = &mut *state;
        let mut fresh = Vec::new();
        for &(_, e) in &batch {
            apply_event(e, state.backend.as_mut(), &mut fresh);
        }
        for c in fresh {
            let unseen = state.seen.insert(c);
            if state.conflicts.len() < self.conflict_cap || unseen {
                state.conflicts.push(c);
            } else {
                state.suppressed += 1;
            }
        }
    }

    /// Drains both parities (two flips), then returns the verdicts
    /// and the run's counters. The backend stays in place, so a
    /// long-lived sink can be inspected mid-run by the same call.
    pub fn finish(&self) -> (Vec<Conflict>, StreamStats) {
        self.collect();
        self.collect();
        let mut state = unpoison(self.collector.lock());
        let conflicts = std::mem::take(&mut state.conflicts);
        let stats = StreamStats {
            recorded: self.recorded.load(Ordering::Relaxed),
            drained: state.drained,
            drains: state.drains,
            peak_resident: self.peak_resident.load(Ordering::Relaxed),
            ring_budget: self.ring_budget(),
            conflicts_suppressed: state.suppressed,
        };
        (conflicts, stats)
    }
}

impl EventSink for StreamingSink {
    fn record(&self, e: CheckEvent) {
        let ring = &self.rings[recording_tid(&e) as usize % self.rings.len()];
        loop {
            {
                let mut bufs = unpoison(ring.bufs.lock());
                // Check fullness against the *current* parity before
                // drawing a stamp. If the parity flips between this
                // load and the fetch_add below, the stamp's buffer is
                // the freshly-drained one — empty, because any event
                // bound for it needs this ring lock — so the push
                // stays under `cap` either way.
                let cur = (self.stamp.load(Ordering::SeqCst) >> 63) as usize;
                if bufs[cur].len() < self.cap {
                    let s = self.stamp.fetch_add(1, Ordering::SeqCst);
                    bufs[(s >> 63) as usize].push((s & SEQ_MASK, e));
                    // Count the event as resident while the ring lock
                    // still pins it in its buffer: a collector that
                    // drained it first would subtract before this add
                    // and wrap the counter below zero.
                    let r = self.resident.fetch_add(1, Ordering::Relaxed) + 1;
                    self.peak_resident.fetch_max(r, Ordering::Relaxed);
                    drop(bufs);
                    self.recorded.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            // Buffer full: this recorder becomes (or waits for) the
            // collector, then retries into the drained buffer.
            self.collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{replay, BitmapBackend};
    use crate::geometry::ShadowGeometry;
    use std::sync::Arc;

    fn sample_trace() -> Vec<CheckEvent> {
        vec![
            CheckEvent::Write { tid: 1, granule: 0 },
            CheckEvent::Fork {
                parent: 1,
                child: 2,
            },
            CheckEvent::SharingCast {
                tid: 1,
                granule: 0,
                refs: 1,
            },
            CheckEvent::RangeWrite {
                tid: 2,
                granule: 0,
                len: 4,
            },
            CheckEvent::Acquire { tid: 2, lock: 3 },
            CheckEvent::LockedAccess { tid: 2, lock: 3 },
            CheckEvent::Release { tid: 2, lock: 3 },
            // An unlocked locked-access and a cross-thread write:
            // two real conflicts the stream must preserve in order.
            CheckEvent::LockedAccess { tid: 1, lock: 3 },
            CheckEvent::Write { tid: 1, granule: 2 },
            CheckEvent::ThreadExit { tid: 2 },
        ]
    }

    #[test]
    fn serial_feed_matches_replay_for_every_cap() {
        let trace = sample_trace();
        let expected = replay(&trace, &mut BitmapBackend::new());
        for cap in 1..=8 {
            let sink = StreamingSink::new(3, cap, Box::new(BitmapBackend::new()));
            for &e in &trace {
                sink.record(e);
            }
            let (got, stats) = sink.finish();
            assert_eq!(got, expected, "cap {cap}");
            assert_eq!(stats.recorded, trace.len() as u64);
            assert_eq!(stats.drained, stats.recorded);
            assert!(stats.peak_resident <= stats.ring_budget);
        }
    }

    #[test]
    fn interleaved_collects_do_not_change_the_verdict() {
        let trace = sample_trace();
        let expected = replay(&trace, &mut BitmapBackend::new());
        // Force a collect between every pair of events: every epoch
        // boundary position is exercised.
        let sink = StreamingSink::new(2, 64, Box::new(BitmapBackend::new()));
        for &e in &trace {
            sink.record(e);
            sink.collect();
        }
        let (got, stats) = sink.finish();
        assert_eq!(got, expected);
        assert!(stats.drains >= trace.len() as u64);
    }

    #[test]
    fn pathological_racy_loop_saturates_but_stays_inside_the_budget() {
        // Two threads alternate unsynchronized writes to one granule:
        // every write after the first pair is a conflict, so an
        // unbounded collector would buffer one conflict per iteration.
        // With a small conflict cap the stored list saturates, the
        // dedupe set admits nothing new (one distinct key per tid),
        // and the overflow is counted instead of stored.
        let cap = 8;
        let sink = StreamingSink::new(2, 16, Box::new(BitmapBackend::new())).with_conflict_cap(cap);
        for i in 0..5_000u64 {
            let tid = 1 + (i % 2) as u32;
            sink.record(CheckEvent::Write { tid, granule: 0 });
        }
        let (conflicts, stats) = sink.finish();
        assert!(!conflicts.is_empty());
        // Saturation: at most the cap plus the distinct keys that
        // arrived after it filled (two tids on one granule here).
        assert!(
            conflicts.len() <= cap + 2,
            "stored {} conflicts past the cap",
            conflicts.len()
        );
        // Accounting closes: stored + suppressed equals what the
        // serialized replay fold would have produced.
        let full: Vec<CheckEvent> = (0..5_000u64)
            .map(|i| CheckEvent::Write {
                tid: 1 + (i % 2) as u32,
                granule: 0,
            })
            .collect();
        let replayed = replay(&full, &mut BitmapBackend::new());
        assert_eq!(
            conflicts.len() as u64 + stats.conflicts_suppressed,
            replayed.len() as u64
        );
        assert!(stats.conflicts_suppressed > 0);
        assert_eq!(stats.drained, stats.recorded);
        assert!(
            stats.peak_resident <= stats.ring_budget,
            "peak {} over budget {}",
            stats.peak_resident,
            stats.ring_budget
        );
    }

    #[test]
    fn below_the_cap_the_stream_is_bit_identical_to_replay() {
        // The dedupe machinery must be invisible until saturation:
        // duplicate conflicts below the cap are stored verbatim, so
        // the stream still equals the serialized replay fold.
        let trace: Vec<CheckEvent> = (0..20u64)
            .map(|i| CheckEvent::Write {
                tid: 1 + (i % 2) as u32,
                granule: 0,
            })
            .collect();
        let expected = replay(&trace, &mut BitmapBackend::new());
        assert!(expected.len() > 2, "duplicates must exist for this test");
        let sink = StreamingSink::new(2, 4, Box::new(BitmapBackend::new()));
        for &e in &trace {
            sink.record(e);
        }
        let (got, stats) = sink.finish();
        assert_eq!(got, expected);
        assert_eq!(stats.conflicts_suppressed, 0);
    }

    #[test]
    fn concurrent_recorders_stay_inside_the_budget() {
        let sink = Arc::new(StreamingSink::new(
            4,
            16,
            Box::new(BitmapBackend::with_geometry(ShadowGeometry::for_threads(8))),
        ));
        let mut handles = Vec::new();
        for t in 1..=4u32 {
            let sink = Arc::clone(&sink);
            handles.push(std::thread::spawn(move || {
                // Disjoint granule ranges: a conflict-free run whose
                // only pressure is volume (4 × 500 events through a
                // 128-event budget).
                for i in 0..500usize {
                    sink.record(CheckEvent::Write {
                        tid: t,
                        granule: t as usize * 1000 + i,
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (conflicts, stats) = sink.finish();
        assert!(conflicts.is_empty(), "{conflicts:?}");
        assert_eq!(stats.recorded, 2000);
        assert_eq!(stats.drained, 2000);
        assert!(
            stats.peak_resident <= stats.ring_budget,
            "peak {} over budget {}",
            stats.peak_resident,
            stats.ring_budget
        );
        assert!(stats.drains >= 2000 / 128);
    }
}
