//! Held-lock tracking (paper §4.2.2).
//!
//! "When a lock is acquired, the address of the lock is stored in a
//! thread private log. When a thread accesses an object in the
//! locked sharing mode, a runtime check is added that ensures the
//! required lock is in the log. When the lock is released, the
//! address of the lock is removed from the log."

use crate::shadow::ThreadId;
use sharc_checker::{CheckEvent, EventSink, RunLog};
use sharc_testkit::sync::RawMutex;
use std::sync::Arc;

/// Identifies a lock in a [`LockRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LockId(pub usize);

/// A `locked(l)` access without `l` held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockNotHeld {
    pub lock: LockId,
    pub tid: ThreadId,
}

impl std::fmt::Display for LockNotHeld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "thread {} accessed locked data without holding lock {}",
            self.tid.0, self.lock.0
        )
    }
}

impl std::error::Error for LockNotHeld {}

/// Per-thread runtime context: the checked thread id, the held-lock
/// log, the shadow-granule access log (cleared at exit), and counters
/// used for the evaluation's "% dynamic accesses" column.
///
/// It is also the thread's recorder: with a sink attached
/// ([`ThreadCtx::with_sink`]), every runtime operation performed
/// through the context — checked accesses, lock operations, sharing
/// casts, forks, joins, exits — records its [`CheckEvent`] at the
/// point it takes effect. Nothing outside the runtime builds one.
#[derive(Debug)]
pub struct ThreadCtx {
    pub tid: ThreadId,
    held: Vec<LockId>,
    /// Granules where this thread set a shadow bit.
    pub(crate) access_log: RunLog,
    /// Conflicts observed (benign in logging mode).
    pub conflicts: usize,
    /// Checked (dynamic-mode) accesses performed.
    pub checked_accesses: u64,
    /// All accesses performed through this context.
    pub total_accesses: u64,
    /// Where this thread's events go: an `EventLog` to replay later
    /// or a `StreamingSink` judging online. `None` (the default)
    /// records nothing.
    sink: Option<Arc<dyn EventSink>>,
}

impl ThreadCtx {
    /// Creates a context for checked thread `tid` (1-based) that
    /// records nothing.
    pub fn new(tid: ThreadId) -> Self {
        ThreadCtx {
            tid,
            held: Vec::new(),
            access_log: RunLog::default(),
            conflicts: 0,
            checked_accesses: 0,
            total_accesses: 0,
            sink: None,
        }
    }

    /// Creates a context that records into `sink`.
    pub fn with_sink(tid: ThreadId, sink: Arc<dyn EventSink>) -> Self {
        ThreadCtx {
            sink: Some(sink),
            ..Self::new(tid)
        }
    }

    /// Records `e` if a sink is attached.
    #[inline]
    pub(crate) fn emit(&self, e: CheckEvent) {
        if let Some(sink) = &self.sink {
            sink.record(e);
        }
    }

    /// Records one per-granule access (the arena's checked paths).
    #[inline]
    pub(crate) fn emit_access(&self, granule: usize, is_write: bool) {
        let tid = self.tid.0;
        self.emit(if is_write {
            CheckEvent::Write { tid, granule }
        } else {
            CheckEvent::Read { tid, granule }
        });
    }

    /// Records one ranged access: a whole sweep over `len` granules
    /// from `granule`. Replay lowers it to per-granule checks, so it
    /// judges like `len` single accesses.
    #[inline]
    pub fn emit_range(&self, granule: usize, len: usize, is_write: bool) {
        let tid = self.tid.0;
        self.emit(if is_write {
            CheckEvent::RangeWrite { tid, granule, len }
        } else {
            CheckEvent::RangeRead { tid, granule, len }
        });
    }

    /// Records one sharing cast of `len` granules from `granule`, the
    /// single reference moving with it.
    pub fn emit_range_cast(&self, granule: usize, len: usize) {
        self.emit(CheckEvent::RangeCast {
            tid: self.tid.0,
            granule,
            len,
            refs: 1,
        });
    }

    /// Records the free of `len` granules from `granule`.
    pub fn emit_range_free(&self, granule: usize, len: usize) {
        self.emit(CheckEvent::RangeFree { granule, len });
    }

    /// Records this thread's exit.
    pub fn emit_exit(&self) {
        self.emit(CheckEvent::ThreadExit { tid: self.tid.0 });
    }

    /// Spawn's half of the context: records the fork of `child` —
    /// call it before the spawn, so the child's first event cannot
    /// precede it — and returns the child's context, recording into
    /// this context's sink (or nowhere, if this one records nowhere).
    pub fn fork(&self, child: ThreadId) -> ThreadCtx {
        self.emit(CheckEvent::Fork {
            parent: self.tid.0,
            child: child.0,
        });
        ThreadCtx {
            sink: self.sink.clone(),
            ..Self::new(child)
        }
    }

    /// Records that this thread joined `child`: call it after the
    /// join returns.
    pub fn join(&self, child: ThreadId) {
        self.emit(CheckEvent::Join {
            parent: self.tid.0,
            child: child.0,
        });
    }

    /// Records one critical section on `lock`, a data-carrying mutex
    /// (a queue, a slot) the caller holds right now: the
    /// [`CheckEvent::Acquire`] / [`CheckEvent::Release`] pair. Made
    /// while the mutex is held, it lands between the previous
    /// holder's pair and the next one's, so the recorded lock order is
    /// the real one.
    pub fn critical_section(&self, lock: LockId) {
        let tid = self.tid.0;
        self.emit(CheckEvent::Acquire { tid, lock: lock.0 });
        self.emit(CheckEvent::Release { tid, lock: lock.0 });
    }

    /// True if `lock` is in this thread's held-lock log.
    pub fn holds(&self, lock: LockId) -> bool {
        self.held.contains(&lock)
    }

    /// The `locked(l)` runtime check.
    ///
    /// # Errors
    ///
    /// Returns [`LockNotHeld`] if the lock is not in the log.
    pub fn assert_held(&self, lock: LockId) -> Result<(), LockNotHeld> {
        if self.holds(lock) {
            Ok(())
        } else {
            Err(LockNotHeld {
                lock,
                tid: self.tid,
            })
        }
    }
}

/// A set of real mutexes with held-lock logging.
pub struct LockRegistry {
    locks: Vec<RawMutex>,
}

impl std::fmt::Debug for LockRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockRegistry")
            .field("len", &self.locks.len())
            .finish()
    }
}

impl LockRegistry {
    /// Creates `n` unlocked mutexes.
    pub fn new(n: usize) -> Self {
        let mut locks = Vec::with_capacity(n);
        locks.resize_with(n, RawMutex::new);
        LockRegistry { locks }
    }

    /// Number of locks.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// True if the registry holds no locks.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    /// Acquires `lock`, blocking, and records it in the thread's log.
    /// With an event sink attached, the acquisition is appended to
    /// the trace *after* the real mutex is held, so the linearized
    /// log preserves lock order.
    pub fn lock(&self, ctx: &mut ThreadCtx, lock: LockId) {
        self.locks[lock.0].lock();
        ctx.held.push(lock);
        ctx.emit(CheckEvent::Acquire {
            tid: ctx.tid.0,
            lock: lock.0,
        });
    }

    /// Releases `lock` and removes it from the log.
    ///
    /// # Panics
    ///
    /// Panics if the thread's log does not contain the lock (an
    /// unlock of a mutex this thread did not acquire).
    pub fn unlock(&self, ctx: &mut ThreadCtx, lock: LockId) {
        let pos = ctx
            .held
            .iter()
            .position(|&l| l == lock)
            .expect("unlock of a lock not in the held-lock log");
        ctx.held.remove(pos);
        // Record the release *while still holding* so no other
        // thread's acquire can be logged between it and us.
        ctx.emit(CheckEvent::Release {
            tid: ctx.tid.0,
            lock: lock.0,
        });
        // SAFETY: the log proves this thread acquired the lock.
        unsafe { self.locks[lock.0].unlock() };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn lock_log_tracks_held() {
        let reg = LockRegistry::new(2);
        // Any tid: the held-lock log is per context, not per shadow.
        let mut ctx = ThreadCtx::new(ThreadId(300));
        assert!(ctx.assert_held(LockId(0)).is_err());
        reg.lock(&mut ctx, LockId(0));
        assert!(ctx.assert_held(LockId(0)).is_ok());
        assert!(ctx.assert_held(LockId(1)).is_err());
        reg.unlock(&mut ctx, LockId(0));
        assert!(ctx.assert_held(LockId(0)).is_err());
    }

    #[test]
    fn nested_locks() {
        let reg = LockRegistry::new(2);
        let mut ctx = ThreadCtx::new(ThreadId(1));
        reg.lock(&mut ctx, LockId(0));
        reg.lock(&mut ctx, LockId(1));
        assert!(ctx.holds(LockId(0)) && ctx.holds(LockId(1)));
        reg.unlock(&mut ctx, LockId(0));
        assert!(!ctx.holds(LockId(0)) && ctx.holds(LockId(1)));
        reg.unlock(&mut ctx, LockId(1));
    }

    #[test]
    #[should_panic(expected = "not in the held-lock log")]
    fn unlock_without_lock_panics() {
        let reg = LockRegistry::new(1);
        let mut ctx = ThreadCtx::new(ThreadId(1));
        reg.unlock(&mut ctx, LockId(0));
    }

    #[test]
    fn fork_is_recorded_before_any_event_of_the_child() {
        let log = Arc::new(sharc_checker::EventLog::new());
        let parent = ThreadCtx::with_sink(ThreadId(1), log.clone());
        let (p, c) = (1, 2);
        let child = parent.fork(ThreadId(c));
        std::thread::spawn(move || {
            child.critical_section(LockId(0));
            child.emit_exit();
        })
        .join()
        .unwrap();
        parent.join(ThreadId(c));
        assert_eq!(
            log.take(),
            vec![
                CheckEvent::Fork {
                    parent: p,
                    child: c
                },
                CheckEvent::Acquire { tid: c, lock: 0 },
                CheckEvent::Release { tid: c, lock: 0 },
                CheckEvent::ThreadExit { tid: c },
                CheckEvent::Join {
                    parent: p,
                    child: c
                },
            ],
            "the child records into its parent's sink, after the fork"
        );
        // A context that records nowhere forks children that record
        // nowhere.
        let silent = ThreadCtx::new(ThreadId(1)).fork(ThreadId(2));
        assert!(silent.sink.is_none());
    }

    #[test]
    fn a_critical_section_records_acquire_then_release() {
        let log = Arc::new(sharc_checker::EventLog::new());
        let ctx = ThreadCtx::with_sink(ThreadId(9), log.clone());
        let queue = sharc_testkit::sync::Mutex::new(vec![1]);
        let mut q = queue.lock();
        ctx.critical_section(LockId(3));
        q.pop();
        drop(q);
        assert_eq!(
            log.take(),
            vec![
                CheckEvent::Acquire { tid: 9, lock: 3 },
                CheckEvent::Release { tid: 9, lock: 3 },
            ]
        );
    }

    #[test]
    fn mutual_exclusion_works() {
        let reg = Arc::new(LockRegistry::new(1));
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 1..=4u32 {
            let reg = Arc::clone(&reg);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let mut ctx = ThreadCtx::new(ThreadId(t));
                for _ in 0..1000 {
                    reg.lock(&mut ctx, LockId(0));
                    ctx.assert_held(LockId(0)).unwrap();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    reg.unlock(&mut ctx, LockId(0));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }
}
