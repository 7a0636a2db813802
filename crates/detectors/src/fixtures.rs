//! The classic test traces shared by the detector test suites, in the
//! workspace's one event vocabulary.

use sharc_checker::CheckEvent::{self, Acquire, Fork, Join, Read, Release, Write};

const FORK: CheckEvent = Fork {
    parent: 1,
    child: 2,
};

/// Two threads write granule 0 with no synchronization.
pub fn unsynchronized_write_race() -> Vec<CheckEvent> {
    vec![
        FORK,
        Write { tid: 1, granule: 0 },
        Write { tid: 2, granule: 0 },
    ]
}

/// Two threads increment granule 0 under the same lock.
pub fn lock_protected() -> Vec<CheckEvent> {
    vec![
        FORK,
        Acquire { tid: 1, lock: 9 },
        Read { tid: 1, granule: 0 },
        Write { tid: 1, granule: 0 },
        Release { tid: 1, lock: 9 },
        Acquire { tid: 2, lock: 9 },
        Read { tid: 2, granule: 0 },
        Write { tid: 2, granule: 0 },
        Release { tid: 2, lock: 9 },
    ]
}

/// Parent initializes, forks a child that reads — no race.
pub fn init_then_share_readonly() -> Vec<CheckEvent> {
    vec![
        Write { tid: 1, granule: 0 },
        FORK,
        Read { tid: 2, granule: 0 },
        Read { tid: 1, granule: 0 },
    ]
}

/// Ownership hand-off via fork/join, with accesses on both sides
/// but never concurrently.
pub fn fork_join_handoff() -> Vec<CheckEvent> {
    vec![
        Write { tid: 1, granule: 0 },
        FORK,
        Write { tid: 2, granule: 0 },
        Join {
            parent: 1,
            child: 2,
        },
        Write { tid: 1, granule: 0 },
    ]
}

/// The producer/consumer idiom mediated by a condition-variable
/// style lock hand-off, where *different* locks guard different
/// phases — the pattern that makes pure lockset detectors report
/// false positives while SharC's sharing casts accept it.
pub fn lock_handoff_two_locks() -> Vec<CheckEvent> {
    vec![
        FORK,
        // Producer writes under lock A, then hands off.
        Acquire { tid: 1, lock: 1 },
        Write { tid: 1, granule: 0 },
        Release { tid: 1, lock: 1 },
        // Consumer accesses under lock B (it now owns the data).
        Acquire { tid: 2, lock: 2 },
        Write { tid: 2, granule: 0 },
        Release { tid: 2, lock: 2 },
        // Producer refills the (returned) buffer under lock A:
        // the candidate lockset intersects to empty.
        Acquire { tid: 1, lock: 1 },
        Write { tid: 1, granule: 0 },
        Release { tid: 1, lock: 1 },
    ]
}
