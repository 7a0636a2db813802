//! A vector-clock happens-before race detector (DJIT+-style, the
//! basis of FastTrack), representing the "improvements to the lockset
//! algorithm \[that\] use Lamport's happens-before relation" discussed
//! in §6.2.
//!
//! Precise with respect to the observed trace: it reports a race iff
//! two accesses to the same location are unordered by program order,
//! lock release/acquire, or fork/join — so the hand-off idioms that
//! trip Eraser are accepted, at the price of heavier per-access
//! metadata. Like Eraser it has no ownership-transfer model: as a
//! [`CheckBackend`] it passes every `oneref` and ignores
//! `on_cast_clear`, so a hand-off ordered by nothing but the cast is
//! still reported.

use sharc_checker::{Access, CheckBackend, Conflict, HeldLocks, Verdict};
use std::collections::HashMap;

/// A vector clock: logical time per thread. Sparse — `(tid, time)`
/// pairs sorted by tid, absent meaning 0 — so a clock costs what the
/// threads it has heard from cost, not what the widest tid in the
/// trace would (a granule's clocks usually name one or two threads).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock {
    clocks: Vec<(u32, u64)>,
}

impl VectorClock {
    fn slot(&self, t: u32) -> Result<usize, usize> {
        self.clocks.binary_search_by_key(&t, |&(tid, _)| tid)
    }

    /// The clock value for thread `t`.
    pub fn get(&self, t: u32) -> u64 {
        self.slot(t).map_or(0, |i| self.clocks[i].1)
    }

    /// Sets thread `t`'s component.
    pub fn set(&mut self, t: u32, v: u64) {
        match self.slot(t) {
            Ok(i) => self.clocks[i].1 = v,
            Err(i) => self.clocks.insert(i, (t, v)),
        }
    }

    /// Increments thread `t`'s component.
    pub fn tick(&mut self, t: u32) {
        let v = self.get(t);
        self.set(t, v + 1);
    }

    /// Pointwise maximum (join).
    pub fn join(&mut self, other: &VectorClock) {
        for &(t, v) in &other.clocks {
            if v > self.get(t) {
                self.set(t, v);
            }
        }
    }

    /// True if `self <= other` pointwise (self happens-before other).
    pub fn le(&self, other: &VectorClock) -> bool {
        self.clocks.iter().all(|&(t, v)| v <= other.get(t))
    }
}

#[derive(Debug, Clone, Default)]
struct GranuleMeta {
    /// Last-write clock per thread.
    writes: VectorClock,
    /// Last-read clock per thread.
    reads: VectorClock,
    reported: bool,
}

/// The happens-before detector.
#[derive(Debug, Default)]
pub struct VcDetector {
    threads: HashMap<u32, VectorClock>,
    locks: HashMap<usize, VectorClock>,
    granules: HashMap<usize, GranuleMeta>,
    held: HeldLocks,
}

impl VcDetector {
    /// Creates an empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    fn thread(&mut self, t: u32) -> &mut VectorClock {
        clock_of(&mut self.threads, t)
    }
}

/// Thread `t`'s clock, starting at 1 in its own component. A free
/// function over the one map so a caller can hold it while touching
/// the detector's other maps.
fn clock_of(threads: &mut HashMap<u32, VectorClock>, t: u32) -> &mut VectorClock {
    threads.entry(t).or_insert_with(|| {
        let mut vc = VectorClock::default();
        vc.set(t, 1);
        vc
    })
}

impl CheckBackend for VcDetector {
    fn name(&self) -> &'static str {
        "vector-clock"
    }

    fn check(&mut self, tid: u32, granule: usize, access: Access) -> Verdict {
        let ct = &*clock_of(&mut self.threads, tid);
        let m = self.granules.entry(granule).or_default();
        // A read races with any unordered write; a write with any
        // unordered access. One report per granule.
        let ordered = m.writes.le(ct) && (!access.is_write() || m.reads.le(ct));
        if !ordered && !m.reported {
            m.reported = true;
            return Verdict::Fail(Conflict {
                kind: access.into(),
                tid,
                granule,
            });
        }
        let last = if access.is_write() {
            &mut m.writes
        } else {
            &mut m.reads
        };
        last.set(tid, ct.get(tid));
        Verdict::Pass
    }

    fn lock_held(&self, tid: u32, lock: usize) -> bool {
        self.held.holds(tid, lock)
    }

    /// Happens-before has no notion of a sharing cast either.
    fn oneref(&mut self, _tid: u32, _granule: usize, _refs: u64) -> Verdict {
        Verdict::Pass
    }

    fn on_acquire(&mut self, tid: u32, lock: usize) {
        self.held.acquire(tid, lock);
        if let Some(released) = self.locks.get(&lock) {
            clock_of(&mut self.threads, tid).join(released);
        }
    }

    fn on_release(&mut self, tid: u32, lock: usize) {
        self.held.release(tid, lock);
        let ct = self.thread(tid).clone();
        self.locks.insert(lock, ct);
        self.thread(tid).tick(tid);
    }

    fn on_fork(&mut self, parent: u32, child: u32) {
        let ct = self.thread(parent).clone();
        self.thread(child).join(&ct);
        self.thread(parent).tick(parent);
    }

    fn on_join(&mut self, parent: u32, child: u32) {
        let cv = self.thread(child).clone();
        self.thread(parent).join(&cv);
    }

    fn on_thread_exit(&mut self, tid: u32) {
        self.held.thread_exit(tid);
    }

    fn on_alloc(&mut self, granule: usize) {
        self.granules.remove(&granule);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use sharc_checker::{replay, CheckEvent, CheckKind};

    #[test]
    fn vc_ordering_ops() {
        let mut a = VectorClock::default();
        let mut b = VectorClock::default();
        a.set(1, 3);
        b.set(1, 5);
        assert!(a.le(&b));
        assert!(!b.le(&a));
        b.set(2, 1);
        a.join(&b);
        assert_eq!(a.get(1), 5);
        assert_eq!(a.get(2), 1);
    }

    #[test]
    fn detects_unsynchronized_race() {
        let races = replay(
            &fixtures::unsynchronized_write_race(),
            &mut VcDetector::new(),
        );
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn lock_protected_is_clean() {
        let races = replay(&fixtures::lock_protected(), &mut VcDetector::new());
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn init_then_read_sharing_is_clean() {
        let races = replay(
            &fixtures::init_then_share_readonly(),
            &mut VcDetector::new(),
        );
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn fork_join_handoff_is_clean() {
        // Unlike Eraser, happens-before tracks fork/join: no false
        // positive here.
        let races = replay(&fixtures::fork_join_handoff(), &mut VcDetector::new());
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn two_lock_handoff_still_false_positive() {
        // Different locks guard different phases with no common
        // synchronization edge between the release and the acquire,
        // so even happens-before reports this hand-off; only SharC's
        // explicit ownership transfer (sharing cast) accepts it.
        let races = replay(&fixtures::lock_handoff_two_locks(), &mut VcDetector::new());
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn same_lock_handoff_is_clean() {
        let trace = vec![
            CheckEvent::Fork {
                parent: 1,
                child: 2,
            },
            CheckEvent::Acquire { tid: 1, lock: 1 },
            CheckEvent::Write { tid: 1, granule: 0 },
            CheckEvent::Release { tid: 1, lock: 1 },
            CheckEvent::Acquire { tid: 2, lock: 1 },
            CheckEvent::Write { tid: 2, granule: 0 },
            CheckEvent::Release { tid: 2, lock: 1 },
        ];
        let races = replay(&trace, &mut VcDetector::new());
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn alloc_resets() {
        let mut trace = fixtures::unsynchronized_write_race();
        trace.push(CheckEvent::Alloc { granule: 0 });
        trace.push(CheckEvent::Write { tid: 1, granule: 0 });
        let races = replay(&trace, &mut VcDetector::new());
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn locked_access_is_judged_against_the_held_log() {
        let trace = [
            CheckEvent::LockedAccess { tid: 1, lock: 4 },
            CheckEvent::Acquire { tid: 1, lock: 4 },
            CheckEvent::LockedAccess { tid: 1, lock: 4 },
            CheckEvent::Release { tid: 1, lock: 4 },
        ];
        let conflicts = replay(&trace, &mut VcDetector::new());
        assert_eq!(conflicts.len(), 1, "only the access before the acquire");
        assert_eq!(conflicts[0].kind, CheckKind::Lock);
    }
}
