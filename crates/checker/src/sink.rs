//! Event sinks: where a traced execution's [`CheckEvent`]s go.
//!
//! Native workloads emit the same [`CheckEvent`] vocabulary the VM's
//! tracer produces; an [`EventSink`] is the consumer on the other end
//! of that emission. Two implementations cover the two detection
//! modes:
//!
//! * [`EventLog`] (here) — the record-then-replay sink: a
//!   mutex-serialized append-only buffer that accumulates the whole
//!   run, to be replayed through any
//!   [`CheckBackend`](crate::CheckBackend) afterwards. Unbounded
//!   memory, but the trace is a first-class artifact (it can be
//!   written to disk and re-judged by a later process).
//! * [`crate::stream::StreamingSink`] — the online sink: per-thread
//!   bounded rings drained under an epoch flip, feeding a backend
//!   *during* the run inside a fixed memory budget.
//!
//! Access events are emitted *by the arena* whenever a checked
//! access runs with a sink attached to the thread context; lifecycle
//! events — fork/join, sharing casts, frees — are recorded by the
//! workload code at the point it performs them.

use crate::backend::CheckEvent;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// A consumer of native-execution [`CheckEvent`]s. Shared (`Arc`)
/// between a workload's threads; every method takes `&self`.
pub trait EventSink: Send + Sync + std::fmt::Debug {
    /// Accepts one event.
    fn record(&self, e: CheckEvent);

    /// Convenience for the arena's access hook.
    #[inline]
    fn record_access(&self, tid: u32, granule: usize, is_write: bool) {
        self.record(if is_write {
            CheckEvent::Write { tid, granule }
        } else {
            CheckEvent::Read { tid, granule }
        });
    }

    /// Convenience for the arena's ranged-access hook: one event per
    /// buffer sweep (`len` granules starting at `granule`). Replay
    /// lowers it to per-granule checks, so the recorded trace spells
    /// the same verdicts as `len` individual access events.
    #[inline]
    fn record_range(&self, tid: u32, granule: usize, len: usize, is_write: bool) {
        self.record(if is_write {
            CheckEvent::RangeWrite { tid, granule, len }
        } else {
            CheckEvent::RangeRead { tid, granule, len }
        });
    }

    /// Convenience for a whole-block sharing cast: ONE
    /// [`CheckEvent::RangeCast`] covering `len` granules, instead of
    /// `len` per-granule cast events.
    #[inline]
    fn record_range_cast(&self, tid: u32, granule: usize, len: usize, refs: u64) {
        self.record(CheckEvent::RangeCast {
            tid,
            granule,
            len,
            refs,
        });
    }

    /// Convenience for a whole-block free: ONE
    /// [`CheckEvent::RangeFree`] covering `len` granules.
    #[inline]
    fn record_range_free(&self, granule: usize, len: usize) {
        self.record(CheckEvent::RangeFree { granule, len });
    }
}

/// The thread *performing* the recording of `e` — the event's tid,
/// the parent for fork/join (the parent records both, per the
/// workload convention), and 0 for `Alloc` (recorded by whoever
/// (re)allocates). Sinks that maintain per-thread state (append
/// counters, rings) key it off this.
#[inline]
pub fn recording_tid(e: &CheckEvent) -> u32 {
    e.tids().next().unwrap_or(0)
}

#[derive(Debug, Default)]
struct LogInner {
    events: Vec<CheckEvent>,
    /// Events appended per recording thread.
    appends: HashMap<u32, u64>,
}

/// A thread-safe, append-only `CheckEvent` buffer — the
/// record-then-replay sink.
///
/// Appending under one lock gives the multi-threaded execution a
/// linearization; for the workloads that use it, every cross-thread
/// hand-off happens under a real lock or a sharing cast, so the
/// linearized trace preserves the synchronization order the
/// detectors reason about.
///
/// The log also counts its own bottleneck: per-thread append totals
/// and the number of appends that found the lock already held
/// ([`EventLog::contended_appends`]) quantify the serialization the
/// streaming sink removes.
#[derive(Debug, Default)]
pub struct EventLog {
    inner: Mutex<LogInner>,
    /// Appends whose `try_lock` lost to another thread.
    contended: AtomicU64,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the buffer, counting contention on the way in.
    fn guard(&self) -> MutexGuard<'_, LogInner> {
        match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.inner.lock().expect("event log poisoned")
            }
            Err(TryLockError::Poisoned(_)) => panic!("event log poisoned"),
        }
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.guard().events.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clones the events out (the log keeps them).
    pub fn snapshot(&self) -> Vec<CheckEvent> {
        self.guard().events.clone()
    }

    /// Drains the events out, leaving the log empty (the counters
    /// keep their totals).
    pub fn take(&self) -> Vec<CheckEvent> {
        std::mem::take(&mut self.guard().events)
    }

    /// `(tid, appends)` per recording thread, sorted by tid.
    pub fn append_counts(&self) -> Vec<(u32, u64)> {
        let mut counts: Vec<(u32, u64)> =
            self.guard().appends.iter().map(|(&t, &n)| (t, n)).collect();
        counts.sort_unstable();
        counts
    }

    /// Appends that hit the serialized log's lock while another
    /// thread held it — the contention the streaming sink's
    /// per-thread rings are built to remove.
    pub fn contended_appends(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }
}

impl EventSink for EventLog {
    /// Appends one event (linearized under the log's lock).
    #[inline]
    fn record(&self, e: CheckEvent) {
        let mut g = self.guard();
        *g.appends.entry(recording_tid(&e)).or_insert(0) += 1;
        g.events.push(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_in_order_single_thread() {
        let log = EventLog::new();
        log.record(CheckEvent::Fork {
            parent: 1,
            child: 2,
        });
        log.record_access(2, 7, true);
        log.record_access(2, 7, false);
        assert_eq!(log.len(), 3);
        let evs = log.snapshot();
        assert_eq!(evs[1], CheckEvent::Write { tid: 2, granule: 7 });
        assert_eq!(evs[2], CheckEvent::Read { tid: 2, granule: 7 });
        assert_eq!(log.take().len(), 3);
        assert!(log.is_empty());
    }

    #[test]
    fn concurrent_appends_all_land() {
        let log = Arc::new(EventLog::new());
        let mut handles = Vec::new();
        for t in 1..=4u32 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for g in 0..100 {
                    log.record_access(t, g, g % 2 == 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 400);
    }

    #[test]
    fn native_trace_replays_through_a_backend() {
        use crate::{replay, BitmapBackend};
        let log = EventLog::new();
        log.record_access(1, 0, true);
        log.record(CheckEvent::SharingCast {
            tid: 1,
            granule: 0,
            refs: 1,
        });
        log.record_access(2, 0, true);
        let mut b = BitmapBackend::new();
        assert!(replay(&log.snapshot(), &mut b).is_empty(), "hand-off ok");
    }

    #[test]
    fn append_counters_attribute_by_recording_thread() {
        let log = EventLog::new();
        // tid 1 records its own access, a fork, and a join; tid 2
        // records two accesses. Alloc is charged to thread 0.
        log.record_access(1, 0, true);
        log.record(CheckEvent::Fork {
            parent: 1,
            child: 2,
        });
        log.record_access(2, 1, false);
        log.record_access(2, 2, false);
        log.record(CheckEvent::Join {
            parent: 1,
            child: 2,
        });
        log.record(CheckEvent::Alloc { granule: 9 });
        assert_eq!(log.append_counts(), vec![(0, 1), (1, 3), (2, 2)]);
        // Single-threaded appends never contend.
        assert_eq!(log.contended_appends(), 0);
    }
}
