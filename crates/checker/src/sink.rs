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
//! * [`crate::stream::StreamingSink`] — the online sink: one bounded
//!   buffer behind one lock, folded into a backend batch by batch
//!   *during* the run inside a fixed memory budget.
//!
//! On the native side every event is built by `sharc-runtime`: each
//! thread's `ThreadCtx` records the operations made through it
//! (checked accesses, locks, casts, forks, joins, exits) at the point
//! they take effect, so a sink sees one call per event, `record`.

use crate::backend::CheckEvent;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

/// A consumer of native-execution [`CheckEvent`]s. Shared (`Arc`)
/// between a workload's threads.
pub trait EventSink: Send + Sync + std::fmt::Debug {
    /// Accepts one event.
    fn record(&self, e: CheckEvent);
}

/// The thread *performing* the recording of `e` — the event's tid,
/// the parent for fork/join (the parent records both, through
/// `sharc-runtime`'s `ThreadCtx::fork` and `ThreadCtx::join`), and 0
/// for `Alloc` (recorded by whoever (re)allocates). Per-thread state
/// (the binary trace's blocks) is keyed off this.
#[inline]
pub fn recording_tid(e: &CheckEvent) -> u32 {
    e.tids().next().unwrap_or(0)
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
/// The log also counts its own bottleneck: the number of appends that
/// found the lock already held ([`EventLog::contended_appends`])
/// says how often recorders queue on one lock.
#[derive(Debug, Default)]
pub struct EventLog {
    events: Mutex<Vec<CheckEvent>>,
    /// Appends whose `try_lock` lost to another thread.
    contended: AtomicU64,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `run` with a fresh log as its sink and returns what it
    /// returned, with every event it recorded in linearized order.
    pub fn capture<R>(run: impl FnOnce(Arc<dyn EventSink>) -> R) -> (R, Vec<CheckEvent>) {
        let log = Arc::new(EventLog::new());
        let out = run(log.clone());
        (out, log.take())
    }

    /// Locks the buffer, counting contention on the way in.
    fn guard(&self) -> MutexGuard<'_, Vec<CheckEvent>> {
        match self.events.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                self.events.lock().expect("event log poisoned")
            }
            Err(TryLockError::Poisoned(_)) => panic!("event log poisoned"),
        }
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.guard().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clones the events out (the log keeps them).
    pub fn snapshot(&self) -> Vec<CheckEvent> {
        self.guard().clone()
    }

    /// Drains the events out, leaving the log empty (the contention
    /// counter keeps its total).
    pub fn take(&self) -> Vec<CheckEvent> {
        std::mem::take(&mut *self.guard())
    }

    /// Appends that hit the serialized log's lock while another
    /// thread held it: how often recorders queue on one lock, which
    /// the streaming sink takes per event too.
    pub fn contended_appends(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }
}

impl EventSink for EventLog {
    /// Appends one event (linearized under the log's lock).
    #[inline]
    fn record(&self, e: CheckEvent) {
        self.guard().push(e);
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
        log.record(CheckEvent::Write { tid: 2, granule: 7 });
        log.record(CheckEvent::Read { tid: 2, granule: 7 });
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
                    log.record(if g % 2 == 0 {
                        CheckEvent::Write { tid: t, granule: g }
                    } else {
                        CheckEvent::Read { tid: t, granule: g }
                    });
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
        log.record(CheckEvent::Write { tid: 1, granule: 0 });
        log.record(CheckEvent::SharingCast {
            tid: 1,
            granule: 0,
            refs: 1,
        });
        log.record(CheckEvent::Write { tid: 2, granule: 0 });
        let mut b = BitmapBackend::new();
        assert!(replay(&log.snapshot(), &mut b).is_empty(), "hand-off ok");
    }

    #[test]
    fn single_threaded_appends_never_contend() {
        let log = EventLog::new();
        log.record(CheckEvent::Write { tid: 1, granule: 0 });
        log.record(CheckEvent::Fork {
            parent: 1,
            child: 2,
        });
        log.record(CheckEvent::Read { tid: 2, granule: 1 });
        log.record(CheckEvent::Alloc { granule: 9 });
        assert_eq!(log.len(), 4);
        assert_eq!(log.contended_appends(), 0);
    }
}
