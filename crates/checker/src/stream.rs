//! Streaming online detection: one bounded buffer behind one lock,
//! folded batch by batch while the run goes on.
//!
//! [`EventLog`](crate::EventLog) buffers the whole execution before
//! any backend sees an event — O(run length) memory. A
//! [`StreamingSink`] buffers at most `cap` events and folds each full
//! batch into a [`CheckBackend`] during the run.
//!
//! **Linearization.** A recorder pushes under the buffer lock, as
//! into an `EventLog`: the order recorders take that lock is the
//! record order. The push that fills the buffer cuts the batch: still
//! holding the buffer lock, its recorder takes the collector lock and
//! swaps the full buffer for the collector's spent one, then releases
//! the buffer lock and folds the batch through [`apply_event`]. So
//! batches are contiguous runs of the record order and fold in the
//! order they were cut; released first, the buffer lock would let a
//! later cutter overtake. Streaming and replay run one fold on one
//! sequence: the verdicts are bit-identical.
//!
//! **Budget.** The buffer holds at most `cap` events and the
//! collector only the last batch cut. A cutter that meets a fold in
//! flight waits for it holding the buffer lock, and so does every
//! recorder: at most `2 × cap` events are resident
//! ([`StreamingSink::ring_budget`]), however long the run.

use crate::backend::{apply_event, CheckBackend, CheckEvent, Conflict};
use crate::sink::EventSink;
use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default stored-conflict saturation point: generous enough that no
/// realistic run saturates, small enough to bound a pathological racy
/// loop that would otherwise buffer one conflict per iteration.
pub const DEFAULT_CONFLICT_CAP: usize = 65_536;

/// What the buffer lock guards: the events not yet cut, and counters.
#[derive(Debug, Default)]
struct Buffer {
    events: Vec<CheckEvent>,
    /// Length of the batch the collector holds until the next cut.
    last_cut: usize,
    recorded: u64,
    peak_resident: usize,
    drains: u64,
    drained: u64,
}

/// What the collector lock guards: the backend and its verdicts.
struct Collector {
    backend: Box<dyn CheckBackend + Send>,
    /// The last batch cut; the next cut empties it and swaps it back
    /// into the buffer, so neither vector reallocates.
    batch: Vec<CheckEvent>,
    conflicts: Vec<Conflict>,
    /// Every conflict key stored, consulted once `conflicts` saturates.
    seen: HashSet<Conflict>,
    suppressed: u64,
}

/// Counters reported by [`StreamingSink::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Events recorded into the buffer.
    pub recorded: u64,
    /// Events drained and applied to the backend.
    pub drained: u64,
    /// Batches cut and folded, [`StreamingSink::collect`]s included.
    pub drains: u64,
    /// High-water mark of events resident: buffered plus last cut.
    pub peak_resident: usize,
    /// The configured bound: `2 × cap`.
    pub ring_budget: usize,
    /// Duplicate conflicts dropped once the stored list reached the
    /// conflict cap (a racy loop would otherwise grow it without bound).
    pub conflicts_suppressed: u64,
}

/// The online sink: one bounded buffer, folded into a [`CheckBackend`] batch by batch.
pub struct StreamingSink {
    buffer: Mutex<Buffer>,
    collector: Mutex<Collector>,
    /// Buffered events at which a recorder cuts a batch.
    cap: usize,
    /// Stored conflicts past which only unseen (kind, tid, granule)
    /// keys are kept and duplicates are counted instead.
    conflict_cap: usize,
}

impl std::fmt::Debug for StreamingSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingSink")
            .field("cap", &self.cap)
            .finish_non_exhaustive()
    }
}

/// A panic mid-record or mid-fold leaves the state well-formed: go on.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl StreamingSink {
    /// A sink that cuts a batch every `cap` events and feeds it to
    /// `backend`. `rings` is ignored. Kept for `benchmark/`.
    pub fn new(_rings: usize, cap: usize, backend: Box<dyn CheckBackend + Send>) -> Self {
        StreamingSink {
            buffer: Mutex::default(),
            collector: Mutex::new(Collector {
                backend,
                batch: Vec::new(),
                conflicts: Vec::new(),
                seen: HashSet::new(),
                suppressed: 0,
            }),
            cap: cap.max(1),
            conflict_cap: DEFAULT_CONFLICT_CAP,
        }
    }

    /// Overrides the stored-conflict saturation point.
    #[must_use]
    pub fn with_conflict_cap(mut self, n: usize) -> Self {
        self.conflict_cap = n.max(1);
        self
    }

    /// The bound on resident events: one batch folding while one fills.
    pub fn ring_budget(&self) -> usize {
        2 * self.cap
    }

    /// Cuts and folds whatever is buffered; waits for a fold in flight.
    pub fn collect(&self) {
        self.cut(lock(&self.buffer));
    }

    /// Cuts `buf`'s events and folds them. The collector lock is taken
    /// before the buffer lock is released: batches fold in cut order.
    fn cut(&self, mut buf: MutexGuard<'_, Buffer>) {
        let mut guard = lock(&self.collector);
        let c = &mut *guard;
        c.batch.clear();
        std::mem::swap(&mut buf.events, &mut c.batch);
        buf.last_cut = c.batch.len();
        buf.drains += 1;
        buf.drained += c.batch.len() as u64;
        drop(buf);
        let mut fresh = Vec::new();
        for &e in &c.batch {
            apply_event(e, c.backend.as_mut(), &mut fresh);
        }
        for conflict in fresh {
            if c.seen.insert(conflict) || c.conflicts.len() < self.conflict_cap {
                c.conflicts.push(conflict);
            } else {
                c.suppressed += 1;
            }
        }
    }

    /// Folds what is buffered, then returns the verdicts so far and the
    /// counters. The backend stays in place: a live sink may call it.
    pub fn finish(&self) -> (Vec<Conflict>, StreamStats) {
        self.collect();
        let buf = lock(&self.buffer);
        let mut c = lock(&self.collector);
        let stats = StreamStats {
            recorded: buf.recorded,
            drained: buf.drained,
            drains: buf.drains,
            peak_resident: buf.peak_resident,
            ring_budget: self.ring_budget(),
            conflicts_suppressed: c.suppressed,
        };
        (std::mem::take(&mut c.conflicts), stats)
    }
}

impl EventSink for StreamingSink {
    fn record(&self, e: CheckEvent) {
        let mut buf = lock(&self.buffer);
        buf.events.push(e);
        buf.recorded += 1;
        buf.peak_resident = buf.peak_resident.max(buf.events.len() + buf.last_cut);
        if buf.events.len() >= self.cap {
            self.cut(buf);
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
            let sink = StreamingSink::new(1, cap, Box::new(BitmapBackend::new()));
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
        // Force a collect between every pair of events: every batch
        // boundary position is exercised.
        let sink = StreamingSink::new(1, 64, Box::new(BitmapBackend::new()));
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
        let sink = StreamingSink::new(1, 16, Box::new(BitmapBackend::new())).with_conflict_cap(cap);
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
        let sink = StreamingSink::new(1, 4, Box::new(BitmapBackend::new()));
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
            1,
            16,
            Box::new(BitmapBackend::with_geometry(ShadowGeometry::for_threads(8))),
        ));
        let mut handles = Vec::new();
        for t in 1..=4u32 {
            let sink = Arc::clone(&sink);
            handles.push(std::thread::spawn(move || {
                // Disjoint granule ranges: a conflict-free run whose
                // only pressure is volume (4 × 500 events through a
                // 32-event budget).
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
        assert!(stats.drains >= 2000 / 16);
    }
}
