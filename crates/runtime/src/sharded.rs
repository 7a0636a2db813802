//! The sharded word protocol: exact reader/writer tracking *beyond*
//! 63 threads, for real threads with atomic updates.
//!
//! Each granule is backed by `shards` atomic words laid out by a
//! [`ShadowGeometry`]: one full bitmap word per 63-thread block. The
//! geometry is fixed at construction — other threads CAS the words,
//! so the store cannot be re-strided — and a tid past it panics in
//! [`WordProtocol::check`], as an over-wide tid does in the one-word
//! protocol. The state machine itself is pure and lives in
//! `sharc-checker` ([`sharc_checker::step::sharded`]); [`MultiWord`]
//! is the concurrent [`WordProtocol`] around it:
//!
//! 1. **snapshot** every word of the granule (`SeqCst` loads),
//! 2. run the pure `step` on the snapshot,
//! 3. **CAS** the single word the step wants to change (`SeqCst`),
//!    retrying the whole step if the word moved, then
//! 4. **revalidate**: re-read the granule and re-run the step. If the
//!    re-run conflicts, a racing access installed foreign state in a
//!    *different* word between our snapshot and our CAS — report the
//!    conflict.
//!
//! Step 4 is where the multi-word encoding genuinely differs from
//! the single-word one. With one word, CAS makes check-and-install
//! atomic, so "conflicts never install" holds even under races.
//! With several words, two racing accesses in different shards can
//! both pass step 2 and both install; no single-word CAS can see the
//! other. The `SeqCst` total order saves the verdict (a
//! store-then-load Dekker pattern): whichever install is later in
//! that order observes the earlier one during its revalidation and
//! reports the conflict. So under races the contract weakens from
//! "conflicts never install" to "**a racing conflict is always
//! reported by at least one participant, and its installed state
//! keeps excluding third parties**" — the conservative direction.
//! When accesses are serialized (the differential tests, the VM),
//! revalidation reads back exactly what was installed and the
//! verdicts coincide with the pure step, i.e. with the bitmap
//! oracle.
//!
//! **"Already recorded?" is one load.** The sharded step can leave a
//! granule unchanged only if the thread's own shard word already
//! records the access, and conflicts never install, so that word's
//! bits for the thread change only by the thread's own transitions or
//! by a clear. When accesses are serialized, the own word recording
//! the access therefore implies the full step is `Unchanged`: a
//! passing write left every other word empty and nobody can install
//! next to it; a passing read excluded every foreign writer, and none
//! can install over its bit. So [`WordProtocol::recorded`] tests the
//! own word alone — one `SeqCst` load and `range::recorded`. Under
//! races this is the weaker contract above: a thread whose install
//! lost a cross-shard race reports that conflict once, from its
//! revalidation, and is not re-judged on later accesses its own word
//! records; the racing conflict is still reported, and its installed
//! state still excludes third parties.
//!
//! The ranged sweep ([`WordProtocol::check_run`]) is the per-granule
//! protocol in a loop: the one-load `recorded` skip, then the full
//! check for each granule that needs it. The ranged clears are the
//! trait's per-granule defaults.

use crate::shadow::{RaceError, Shadow, ThreadId, WordProtocol};
use sharc_checker::step::{
    range,
    sharded::{self, ShardStep},
    Access,
};
use sharc_checker::{ShadowGeometry, MAX_WORDS_PER_GRANULE};
use std::sync::atomic::{AtomicU64, Ordering};

/// The sharded encoding: `geom.words_per_granule()` 8-byte bitmap
/// words per granule.
#[derive(Debug)]
pub struct MultiWord {
    /// Flat store: granule `g`'s words at `g * stride ..`.
    words: Vec<AtomicU64>,
    geom: ShadowGeometry,
}

/// Shadow state with the sharded encoding.
pub type ShardedShadow = Shadow<MultiWord>;

impl ShardedShadow {
    /// Creates state for `n_granules` granules under `geom` — e.g.
    /// `ShadowGeometry::for_threads(256)` for exact identities at
    /// 256 native threads.
    ///
    /// # Panics
    ///
    /// Panics if the geometry needs more than
    /// [`MAX_WORDS_PER_GRANULE`] words per granule (1008 threads).
    pub fn with_geometry(n_granules: usize, geom: ShadowGeometry) -> Self {
        let stride = geom.words_per_granule();
        assert!(
            stride <= MAX_WORDS_PER_GRANULE,
            "geometry too wide: {stride} words per granule (max {MAX_WORDS_PER_GRANULE})"
        );
        let mut words = Vec::with_capacity(n_granules * stride);
        words.resize_with(n_granules * stride, AtomicU64::default);
        Shadow::from_words(MultiWord { words, geom })
    }

    /// The shard layout.
    pub fn geometry(&self) -> ShadowGeometry {
        self.words().geom
    }

    /// All of a granule's words, one per shard, for tests.
    pub fn raw_words(&self, granule: usize) -> Vec<u64> {
        let mut buf = [0u64; MAX_WORDS_PER_GRANULE];
        self.words().snapshot(granule, &mut buf).to_vec()
    }
}

impl MultiWord {
    #[inline]
    fn base(&self, granule: usize) -> usize {
        granule * self.geom.words_per_granule()
    }

    /// Loads a `SeqCst` snapshot of the granule's words into `buf`,
    /// returning the populated prefix.
    #[inline]
    fn snapshot<'b>(&self, granule: usize, buf: &'b mut [u64; MAX_WORDS_PER_GRANULE]) -> &'b [u64] {
        let stride = self.geom.words_per_granule();
        let base = self.base(granule);
        for (i, slot) in buf.iter_mut().enumerate().take(stride) {
            *slot = self.words[base + i].load(Ordering::SeqCst);
        }
        &buf[..stride]
    }

    /// The most diagnostic single word for a conflict report: the
    /// first non-empty word other than the acting thread's own, else
    /// its own word (which then holds the foreign state).
    fn observed(&self, snap: &[u64], tid: u32) -> u64 {
        let own = self.geom.shard_of(tid).expect("a checked tid");
        snap.iter()
            .enumerate()
            .find_map(|(i, &w)| (i != own && w != 0).then_some(w))
            .unwrap_or(snap[own])
    }
}

impl WordProtocol for MultiWord {
    #[inline]
    fn len(&self) -> usize {
        self.words.len() / self.geom.words_per_granule()
    }

    /// `8 × shards` per granule — the price of exactness past 63
    /// threads.
    fn shadow_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// The snapshot → step → CAS → revalidate protocol (module docs).
    /// The step panics on a tid the geometry has no word for.
    fn check(&self, granule: usize, tid: ThreadId, access: Access) -> Result<bool, RaceError> {
        let base = self.base(granule);
        let mut buf = [0u64; MAX_WORDS_PER_GRANULE];
        loop {
            let snap = self.snapshot(granule, &mut buf);
            match sharded::step(snap, self.geom, tid.0, access) {
                ShardStep::Unchanged => return Ok(false),
                ShardStep::Conflict => {
                    return Err(RaceError {
                        granule,
                        was_write: access.is_write(),
                        observed: self.observed(snap, tid.0),
                    })
                }
                ShardStep::Install { index, word } => {
                    let expected = snap[index];
                    if self.words[base + index]
                        .compare_exchange(expected, word, Ordering::SeqCst, Ordering::SeqCst)
                        .is_err()
                    {
                        // Our own word moved: somebody raced us in the
                        // same shard. Retry with a fresh snapshot.
                        continue;
                    }
                    // Revalidate across the *other* words: a racer in
                    // a different shard may have installed between our
                    // snapshot and our CAS. SeqCst totally orders the
                    // two installs; the later one sees the earlier.
                    let reread = self.snapshot(granule, &mut buf);
                    if sharded::step(reread, self.geom, tid.0, access).is_conflict() {
                        return Err(RaceError {
                            granule,
                            was_write: access.is_write(),
                            observed: self.observed(reread, tid.0),
                        });
                    }
                    return Ok(true);
                }
            }
        }
    }

    /// The own shard word alone (module docs). A tid past the
    /// geometry has no word and records nothing; `check` refuses it.
    #[inline]
    fn recorded(&self, granule: usize, tid: ThreadId, access: Access) -> bool {
        self.geom.shard_of(tid.0).is_some_and(|s| {
            let own = self.words[self.base(granule) + s].load(Ordering::SeqCst);
            range::recorded(own, self.geom.local_bit(tid.0), access)
        })
    }

    /// The per-granule sweep: granules the own word already records
    /// are skipped, the rest run the full [`WordProtocol::check`].
    #[inline]
    fn check_run(
        &self,
        start: usize,
        len: usize,
        tid: ThreadId,
        access: Access,
        mut on_newly: impl FnMut(usize),
        mut on_conflict: impl FnMut(RaceError),
    ) -> usize {
        let mut conflicts = 0;
        let end = start + len;
        let mut g = start;
        while g < end {
            // Fast classification: `recorded` being true means the
            // pure step is `Unchanged`, so skipping is exactly what
            // the per-granule loop would have done.
            while g < end && self.recorded(g, tid, access) {
                g += 1;
            }
            if g >= end {
                break;
            }
            // Boundary / first-contact / conflicting granule: the
            // per-granule fallback (full CAS protocol).
            match self.check(g, tid, access) {
                Ok(true) => on_newly(g),
                Ok(false) => {}
                Err(e) => {
                    conflicts += 1;
                    on_conflict(e);
                }
            }
            g += 1;
        }
        conflicts
    }

    /// Unconditional stores over every shard word — the
    /// clear is a reset, not a read-modify-write, so no CAS protocol
    /// is needed.
    #[inline]
    fn clear(&self, granule: usize) {
        let base = self.base(granule);
        for w in &self.words[base..base + self.geom.words_per_granule()] {
            w.store(0, Ordering::SeqCst);
        }
    }

    /// Exact: subtracts `tid`'s bit from its own shard word.
    fn clear_thread(&self, granule: usize, tid: ThreadId) {
        let base = self.base(granule);
        let mut buf = [0u64; MAX_WORDS_PER_GRANULE];
        loop {
            let snap = self.snapshot(granule, &mut buf);
            match sharded::clear_thread(snap, self.geom, tid.0) {
                None => break,
                Some((index, word)) => {
                    if self.words[base + index]
                        .compare_exchange(snap[index], word, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        break;
                    }
                }
            }
        }
    }

    /// The raw shard-0 word (for tids `1..=63` this is the paper's
    /// single-word encoding).
    fn raw(&self, granule: usize) -> u64 {
        self.words[self.base(granule)].load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    //! What only this protocol guarantees; the behaviour it shares
    //! with [`crate::shadow::OneWord`] is tested once, generically, in
    //! `shadow.rs`.
    use super::*;
    use std::sync::Arc;

    fn wide(n: usize) -> ShardedShadow {
        ShardedShadow::with_geometry(n, ShadowGeometry::for_threads(256))
    }

    #[test]
    fn readers_past_63_keep_exact_identities() {
        let s = wide(1);
        for t in [1u32, 64, 127, 200, 256] {
            assert!(s.check_read(0, ThreadId(t)).is_ok(), "reader {t}");
        }
        // Any writer conflicts while readers exist...
        assert!(s.check_write(0, ThreadId(64)).is_err());
        // ...and each exit subtracts exactly.
        for t in [1u32, 127, 200, 256] {
            s.clear_thread(0, ThreadId(t));
        }
        // Only 64 still reads: its own upgrade now succeeds.
        assert!(s.check_write(0, ThreadId(64)).is_ok());
    }

    #[test]
    #[should_panic(expected = "thread id out of range")]
    fn tid_past_the_geometry_is_refused() {
        let _ = wide(1).check_read(0, ThreadId(316));
    }

    #[test]
    fn clear_resets_every_word() {
        let s = wide(1);
        s.check_read(0, ThreadId(1)).unwrap();
        s.check_read(0, ThreadId(100)).unwrap();
        s.check_read(0, ThreadId(315)).unwrap();
        s.clear(0);
        assert!(s.raw_words(0).iter().all(|&w| w == 0));
        assert!(s.check_write(0, ThreadId(200)).is_ok());
    }

    #[test]
    fn concurrent_cross_shard_writers_report_at_least_one_conflict() {
        // The revalidation guarantee: two writers in different shards
        // racing on one granule can both install, but SeqCst ordering
        // makes at least one of them see the other and report.
        for _ in 0..50 {
            let s = Arc::new(wide(1));
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let mut handles = Vec::new();
            for t in [10u32, 200] {
                let s = Arc::clone(&s);
                let b = Arc::clone(&barrier);
                handles.push(std::thread::spawn(move || {
                    b.wait();
                    s.check_write(0, ThreadId(t)).is_err()
                }));
            }
            let conflicts = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&c| c)
                .count();
            assert!(conflicts >= 1, "a racing writer pair must be reported");
        }
    }

    #[test]
    #[should_panic(expected = "thread id out of range")]
    fn zero_tid_rejected() {
        let _ = wide(1).check_read(0, ThreadId(0));
    }

    #[test]
    fn shadow_bytes_price_the_exactness() {
        let one_shard = ShardedShadow::with_geometry(4, ShadowGeometry::default());
        let wide = wide(4);
        assert_eq!(one_shard.shadow_bytes(), 4 * 8, "1 shard");
        assert_eq!(wide.shadow_bytes(), 4 * 5 * 8, "5 shards");
        assert_eq!(wide.len(), 4);
    }
}
