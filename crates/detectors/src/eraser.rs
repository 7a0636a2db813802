//! The Eraser lockset algorithm (Savage et al., SOSP '97), the
//! classic dynamic race detector the paper contrasts with (§6.2).
//!
//! Every shared granule carries a *candidate lockset*: the set of
//! locks held on every access so far. The state machine per granule
//! models the common idioms (initialization before sharing,
//! read-sharing, read-write locking):
//!
//! ```text
//! Virgin -> Exclusive(first thread) -> Shared (first other read)
//!                                   -> SharedModified (other write)
//! ```
//!
//! Lockset refinement starts once the granule leaves Exclusive; a
//! race is reported when the candidate lockset becomes empty in
//! SharedModified. Eraser does not model ownership transfer: as a
//! [`CheckBackend`] it passes every `oneref` and keeps the default
//! no-op `on_cast_clear`, so a granule is judged by its pre-transfer
//! history and hand-off idioms produce false positives — exactly the
//! weakness SharC's sharing casts address.

use sharc_checker::{CheckBackend, CheckKind, Conflict, HeldLocks, Verdict};
use std::collections::{HashMap, HashSet};

/// Per-granule monitoring state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum State {
    #[default]
    Virgin,
    Exclusive(u32),
    Shared,
    SharedModified,
}

#[derive(Debug, Default)]
struct GranuleInfo {
    state: State,
    /// Candidate lockset; `None` = "all locks" (not yet refined).
    candidates: Option<HashSet<usize>>,
    reported: bool,
}

/// The Eraser lockset detector.
#[derive(Debug, Default)]
pub struct Eraser {
    granules: HashMap<usize, GranuleInfo>,
    held: HeldLocks,
}

impl Eraser {
    /// Creates an empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    fn access(&mut self, tid: u32, granule: usize, kind: CheckKind) -> Verdict {
        let is_write = kind == CheckKind::Write;
        let info = self.granules.entry(granule).or_default();
        info.state = match info.state {
            State::Virgin => State::Exclusive(tid),
            State::Exclusive(owner) if owner == tid => return Verdict::Pass,
            // First access by a second thread, or any later one.
            State::Exclusive(_) | State::Shared if !is_write => State::Shared,
            _ => State::SharedModified,
        };
        if matches!(info.state, State::Exclusive(_)) {
            return Verdict::Pass;
        }
        let held = self.held.of(tid);
        match &mut info.candidates {
            None => info.candidates = Some(held.iter().copied().collect()),
            Some(c) => c.retain(|l| held.contains(l)),
        }
        let empty = info.candidates.as_ref().is_some_and(HashSet::is_empty);
        if info.state == State::SharedModified && empty && !info.reported {
            // One report per granule.
            info.reported = true;
            Verdict::Fail(Conflict { kind, tid, granule })
        } else {
            Verdict::Pass
        }
    }
}

impl CheckBackend for Eraser {
    fn name(&self) -> &'static str {
        "eraser-lockset"
    }

    fn chkread(&mut self, tid: u32, granule: usize) -> Verdict {
        self.access(tid, granule, CheckKind::Read)
    }

    fn chkwrite(&mut self, tid: u32, granule: usize) -> Verdict {
        self.access(tid, granule, CheckKind::Write)
    }

    fn lock_held(&self, tid: u32, lock: usize) -> bool {
        self.held.holds(tid, lock)
    }

    /// Eraser cannot check sharing casts; the cast is invisible to it
    /// (see the module docs).
    fn oneref(&mut self, _tid: u32, _granule: usize, _refs: u64) -> Verdict {
        Verdict::Pass
    }

    fn on_acquire(&mut self, tid: u32, lock: usize) {
        self.held.acquire(tid, lock);
    }

    fn on_release(&mut self, tid: u32, lock: usize) {
        self.held.release(tid, lock);
    }

    // Eraser has no happens-before model: fork, join and thread exit
    // change no granule's state (a known source of false positives).
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
    use sharc_checker::{replay, CheckEvent};

    #[test]
    fn detects_unsynchronized_race() {
        let races = replay(&fixtures::unsynchronized_write_race(), &mut Eraser::new());
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, CheckKind::Write);
    }

    #[test]
    fn lock_protected_is_clean() {
        let races = replay(&fixtures::lock_protected(), &mut Eraser::new());
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn initialization_then_read_sharing_is_clean() {
        // Exclusive -> Shared never reports without a write.
        let races = replay(&fixtures::init_then_share_readonly(), &mut Eraser::new());
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn fork_join_handoff_false_positive() {
        // Eraser ignores fork/join ordering, so the perfectly
        // synchronized hand-off is reported — a false positive that
        // SharC's model avoids.
        let races = replay(&fixtures::fork_join_handoff(), &mut Eraser::new());
        assert_eq!(races.len(), 1, "Eraser's known false positive");
    }

    #[test]
    fn lock_handoff_two_locks_false_positive() {
        let races = replay(&fixtures::lock_handoff_two_locks(), &mut Eraser::new());
        assert_eq!(races.len(), 1, "lockset refinement empties");
    }

    #[test]
    fn alloc_resets_state() {
        let mut trace = fixtures::unsynchronized_write_race();
        trace.push(CheckEvent::Alloc { granule: 0 });
        trace.push(CheckEvent::Write { tid: 3, granule: 0 });
        let races = replay(&trace, &mut Eraser::new());
        assert_eq!(races.len(), 1, "reset granule starts Virgin again");
    }

    #[test]
    fn one_report_per_granule() {
        let mut trace = fixtures::unsynchronized_write_race();
        for _ in 0..5 {
            trace.push(CheckEvent::Write { tid: 1, granule: 0 });
            trace.push(CheckEvent::Write { tid: 2, granule: 0 });
        }
        let races = replay(&trace, &mut Eraser::new());
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn lock_held_reads_the_same_log_the_locksets_refine_against() {
        let mut e = Eraser::new();
        assert!(!e.lock_held(1, 7));
        e.on_acquire(1, 7);
        assert!(e.lock_held(1, 7));
        assert!(!e.lock_held(2, 7));
        e.on_release(1, 7);
        assert!(!e.lock_held(1, 7));
    }
}
