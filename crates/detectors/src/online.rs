//! A thread-safe sharded detector front-end for overhead measurement.
//!
//! Tools like Eraser instrument *every* memory access and consult
//! shared per-location state; that is where their 10×–30× overhead
//! comes from. To measure the shape of that cost against SharC's
//! checks (which only touch a shadow byte for dynamic-mode data),
//! [`Online`] puts one engine per shard behind a mutex table that
//! real worker threads feed on every access.

use sharc_checker::{apply_event, CheckBackend, CheckEvent, Conflict, Verdict};
use sharc_testkit::sync::Mutex;

/// Number of shards; accesses hash by granule.
const SHARDS: usize = 64;

/// One `B` per shard, each behind its own lock. Sound for engines
/// whose per-granule state is independent given per-thread context:
/// accesses go to the granule's shard, and synchronization events are
/// broadcast so every shard sees each thread's lockset / clock.
pub struct Online<B> {
    shards: Vec<Mutex<B>>,
    conflicts: Mutex<Vec<Conflict>>,
}

impl<B> std::fmt::Debug for Online<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Online").field("shards", &SHARDS).finish()
    }
}

impl<B: CheckBackend + Default> Default for Online<B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B: CheckBackend + Default> Online<B> {
    /// Creates the sharded detector.
    pub fn new() -> Self {
        let mut shards = Vec::with_capacity(SHARDS);
        shards.resize_with(SHARDS, || Mutex::new(B::default()));
        Online {
            shards,
            conflicts: Mutex::new(Vec::new()),
        }
    }

    /// Records a read access.
    pub fn read(&self, tid: u32, granule: usize) {
        let verdict = self.shards[granule % SHARDS].lock().chkread(tid, granule);
        self.note(verdict);
    }

    /// Records a write access.
    pub fn write(&self, tid: u32, granule: usize) {
        let verdict = self.shards[granule % SHARDS].lock().chkwrite(tid, granule);
        self.note(verdict);
    }

    fn note(&self, verdict: Verdict) {
        if let Verdict::Fail(c) = verdict {
            self.conflicts.lock().push(c);
        }
    }

    /// Broadcasts a synchronization event (acquire, release, fork,
    /// join, exit) to every shard.
    pub fn sync(&self, e: CheckEvent) {
        debug_assert!(e.granules().is_none(), "{e:?} addresses one shard");
        for s in &self.shards {
            apply_event(e, &mut *s.lock(), &mut Vec::new());
        }
    }

    /// All conflicts recorded so far.
    pub fn conflicts(&self) -> Vec<Conflict> {
        self.conflicts.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Eraser, VcDetector};
    use std::sync::Arc;

    #[test]
    fn online_eraser_finds_cross_thread_race() {
        let d: Arc<Online<Eraser>> = Arc::new(Online::new());
        let a = Arc::clone(&d);
        let h1 = std::thread::spawn(move || {
            for i in 0..100 {
                a.write(1, i % 4);
            }
        });
        let b = Arc::clone(&d);
        let h2 = std::thread::spawn(move || {
            for i in 0..100 {
                b.write(2, i % 4);
            }
        });
        h1.join().unwrap();
        h2.join().unwrap();
        assert!(!d.conflicts().is_empty());
    }

    #[test]
    fn online_vc_clean_on_disjoint_locations() {
        let d: Arc<Online<VcDetector>> = Arc::new(Online::new());
        d.sync(CheckEvent::Fork {
            parent: 1,
            child: 2,
        });
        let mut handles = Vec::new();
        for t in 1..=2u32 {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    d.write(t, (t as usize) * 1000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(d.conflicts().is_empty(), "{:?}", d.conflicts());
    }
}
