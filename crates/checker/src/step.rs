//! The pure granule state machine — the paper's §4.2.1 runtime
//! encoded **once**, as width-generic, atomics-free transition
//! functions.
//!
//! Every runtime-check engine in the workspace is a thin wrapper
//! over these functions:
//!
//! * `sharc-runtime`'s `OneWord` protocol runs [`bitmap::step`]
//!   inside a compare-exchange retry loop (the portable `cmpxchg` of
//!   §4.2.1);
//! * its `MultiWord` protocol runs [`sharded::step`] — one
//!   [`bitmap`] word per 63-thread shard — inside a snapshot → CAS →
//!   revalidate loop;
//! * [`crate::BitmapBackend`] applies [`sharded::step`] (as
//!   [`sharded::step_in_shard`], its tid resolved once) to a plain
//!   word store. Its callers serialize every call — the VM's
//!   scheduler, `replay`, the streaming collector, and the §3 formal
//!   model's `explore` — so no CAS is needed, and the verdicts are
//!   *identical by construction* to the real-thread runtime's (the
//!   differential property test in `tests/checker_differential.rs`
//!   pins this).
//!
//! The contract every wrapper relies on: **a conflicting access
//! does not modify the shadow word.** This is what the paper's
//! runtime does (the check aborts/logs before the update), and it is
//! also what lets a thread's own shadow word answer "is this access
//! already recorded for me?" (see [`range`]): once set, a thread's
//! bits change only by its own transitions or by a clear.

/// Whether an access is a read or a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    Read,
    Write,
}

impl Access {
    /// True for [`Access::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, Access::Write)
    }
}

/// The outcome of applying one access to a shadow word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// The access is legal and the word already records it.
    Unchanged,
    /// The access is legal once the word is updated to this value.
    /// (Real-thread wrappers install it with a compare-exchange and
    /// retry the whole step on contention.)
    Install(u64),
    /// The access violates the n-readers-xor-1-writer rule.
    Conflict,
}

impl Transition {
    /// True if the access is a conflict.
    #[inline]
    pub fn is_conflict(self) -> bool {
        matches!(self, Transition::Conflict)
    }
}

/// The paper's exact reader/writer bitmap encoding (§4.2.1).
///
/// * bit 0 set — a *single* thread is reading **and writing** the
///   granule (the thread whose bit is also set);
/// * bit `k` (k ≥ 1) set — thread `k` is reading the granule, and
///   also writing it if bit 0 is set.
///
/// With `n` shadow bytes this supports `8n − 1` threads; the
/// functions are width-generic because they only ever set bits the
/// caller's thread id reaches (callers validate
/// `1 <= tid <= 8n − 1`).
pub mod bitmap {
    use super::{Access, Transition};

    /// The single-writer flag (bit 0 of every shadow word).
    pub const WRITER_FLAG: u64 = 1;

    /// Applies one access by thread `tid` to `word`.
    ///
    /// `tid` must be in `1 ..= 8n − 1` for the word's width `n`; the
    /// function itself only debug-asserts the lower bound, leaving
    /// width policing to the storage layer that knows `n`.
    #[inline]
    pub fn step(word: u64, tid: u32, access: Access) -> Transition {
        debug_assert!((1..=63).contains(&tid), "thread id out of range");
        let bit = 1u64 << tid;
        match access {
            Access::Write => {
                // Writing requires no *other* readers or writers.
                if word & !WRITER_FLAG & !bit != 0 {
                    return Transition::Conflict;
                }
                let new = WRITER_FLAG | bit;
                if word == new {
                    Transition::Unchanged
                } else {
                    Transition::Install(new)
                }
            }
            Access::Read => {
                // A writer exists iff bit 0 is set; the writer is the
                // thread whose bit accompanies it. Reading conflicts
                // unless that thread is us.
                if word & WRITER_FLAG != 0 && word & !WRITER_FLAG & !bit != 0 {
                    return Transition::Conflict;
                }
                if word & bit != 0 {
                    Transition::Unchanged
                } else {
                    Transition::Install(word | bit)
                }
            }
        }
    }

    /// Removes thread `tid`'s contribution on thread exit ("SharC
    /// does not consider it a race for two threads to access the
    /// same location if their execution does not overlap"). Clears
    /// the writer flag when no thread bits remain.
    #[inline]
    pub fn clear_thread(word: u64, tid: u32) -> u64 {
        debug_assert!((1..=63).contains(&tid), "thread id out of range");
        let w = word & !(1u64 << tid);
        if w & !WRITER_FLAG == 0 {
            0
        } else {
            w
        }
    }
}

/// The sharded encoding: exact reader/writer bitmaps *beyond* 63
/// threads.
///
/// A granule's shadow is a slice of `shards` words laid out by a
/// [`ShadowGeometry`](crate::ShadowGeometry): one full
/// [`bitmap`]-encoded word per 63-thread block. Thread `t` maps to
/// shard `(t − 1) / 63`, local bit `((t − 1) % 63) + 1`, so a
/// one-shard geometry is bit-for-bit the paper's original encoding.
///
/// The transition function stays pure and atomics-free: it reads a
/// *snapshot* of the granule's words and returns at most **one**
/// word to install ([`sharded::ShardStep::Install`]). That
/// single-word property is what lets the concurrent wrapper
/// (`sharc-runtime`'s `ShardedShadow`) stay a plain CAS loop: the
/// cross-word precondition ("no foreign state elsewhere") is checked
/// on the snapshot before the CAS and revalidated after it.
///
/// Why a single install always suffices:
///
/// * a passing **read** only sets the reader's own bit — other words
///   are untouched by definition;
/// * a passing **write** requires every *other* word to be empty, so
///   the only word that changes is the writer's own shard.
///
/// The shared contract holds: **a conflicting access installs
/// nothing.**
pub mod sharded {
    use super::{bitmap, Access, Transition};
    use crate::geometry::ShadowGeometry;

    /// The outcome of applying one access to a granule's sharded
    /// shadow words.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ShardStep {
        /// Legal, already recorded — nothing to write back.
        Unchanged,
        /// Legal once `words[index]` is updated to `word`. At most
        /// one word ever changes per access (see module docs).
        Install { index: usize, word: u64 },
        /// The access violates n-readers-xor-1-writer across shards.
        Conflict,
    }

    impl ShardStep {
        /// True if the access is a conflict.
        #[inline]
        pub fn is_conflict(self) -> bool {
            matches!(self, ShardStep::Conflict)
        }
    }

    /// Applies one access by thread `tid` to a granule's snapshot
    /// `words` (length [`ShadowGeometry::words_per_granule`]).
    ///
    /// # Panics
    ///
    /// Panics if `tid` is 0 or past the geometry's
    /// [`ShadowGeometry::exact_threads`]: such a tid has no word.
    #[inline]
    pub fn step(words: &[u64], geom: ShadowGeometry, tid: u32, access: Access) -> ShardStep {
        debug_assert_eq!(words.len(), geom.words_per_granule(), "snapshot width");
        let s = geom.shard_of(tid).expect("thread id out of range");
        step_in_shard(words, s, geom.local_bit(tid), access)
    }

    /// [`step`] for a tid already resolved to its shard `s` and its
    /// `local_bit` there, for a caller that resolves them once.
    #[inline]
    pub fn step_in_shard(words: &[u64], s: usize, local_bit: u32, access: Access) -> ShardStep {
        let mine = match bitmap::step(words[s], local_bit, access) {
            Transition::Conflict => return ShardStep::Conflict,
            Transition::Unchanged => ShardStep::Unchanged,
            Transition::Install(word) => ShardStep::Install { index: s, word },
        };
        // Writing requires every other word empty; reading tolerates
        // foreign readers, not writers.
        let blocks = |w: u64| match access {
            Access::Write => w != 0,
            Access::Read => w & bitmap::WRITER_FLAG != 0,
        };
        let blocked = words.iter().enumerate().any(|(i, &w)| i != s && blocks(w));
        if blocked {
            ShardStep::Conflict
        } else {
            mine
        }
    }

    /// Removes thread `tid`'s contribution on thread exit. Returns
    /// the (index, new word) to write back, or `None` if the words
    /// record nothing for `tid` (a tid past the geometry never has a
    /// bit).
    #[inline]
    pub fn clear_thread(words: &[u64], geom: ShadowGeometry, tid: u32) -> Option<(usize, u64)> {
        debug_assert_eq!(words.len(), geom.words_per_granule(), "snapshot width");
        let s = geom.shard_of(tid)?;
        let new = bitmap::clear_thread(words[s], geom.local_bit(tid));
        (new != words[s]).then_some((s, new))
    }
}

/// The *recorded* predicate: the pure half of every fast path that
/// skips a granule.
///
/// SharC's §4.2 checks are defined per 16-byte granule.
/// [`range::recorded`] is true exactly when [`bitmap::step`] would
/// return `Unchanged` — the access is legal **and** the shadow
/// word needs no update — so a caller that skips such a granule does
/// exactly what the per-granule step would have done. That is the
/// **fold contract** of the runtime's ranged sweeps: a range verdict
/// equals the fold of per-granule verdicts, because only granules the
/// step would leave silent are skipped. The tests in this module (and
/// the engine differential in `tests/checker_differential.rs`) pin the
/// equivalence.
pub mod range {
    use super::{bitmap, Access, Transition};

    /// True iff `bitmap::step(word, tid, access)` would return
    /// [`Transition::Unchanged`]: the access is legal and already
    /// recorded, so a ranged sweep may skip the granule entirely.
    ///
    /// Specialized to branch-light forms — a write hit is a single
    /// compare against the exclusive-owner word, a read hit is the
    /// own-bit test plus the no-foreign-writer test — with the
    /// equivalence to `step` debug-asserted on every call.
    #[inline]
    pub fn recorded(word: u64, tid: u32, access: Access) -> bool {
        debug_assert!((1..=63).contains(&tid), "thread id out of range");
        let bit = 1u64 << tid;
        let hit = match access {
            // Exclusively owned by `tid`: the only word a write leaves
            // unchanged.
            Access::Write => word == bitmap::WRITER_FLAG | bit,
            // `tid`'s read bit is set and no *foreign* writer exists
            // (a writer is foreign when the writer flag is set along
            // with some other thread's bit).
            Access::Read => {
                word & bit != 0
                    && (word & bitmap::WRITER_FLAG == 0 || word & !bitmap::WRITER_FLAG & !bit == 0)
            }
        };
        debug_assert_eq!(
            hit,
            bitmap::step(word, tid, access) == Transition::Unchanged,
            "recorded() must equal step() == Unchanged (word {word:#x}, tid {tid}, {access:?})"
        );
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_single_thread_lifecycle() {
        let mut w = 0u64;
        for &acc in &[Access::Read, Access::Read, Access::Write, Access::Read] {
            match bitmap::step(w, 1, acc) {
                Transition::Install(n) => w = n,
                Transition::Unchanged => {}
                Transition::Conflict => panic!("single thread never conflicts"),
            }
        }
        assert_eq!(w, bitmap::WRITER_FLAG | (1 << 1));
    }

    #[test]
    fn bitmap_readers_then_writer_conflicts() {
        let mut w = 0u64;
        for t in 1..=7 {
            if let Transition::Install(n) = bitmap::step(w, t, Access::Read) {
                w = n;
            }
        }
        assert!(bitmap::step(w, 1, Access::Write).is_conflict());
        assert!(!bitmap::step(w, 1, Access::Read).is_conflict());
    }

    #[test]
    fn bitmap_conflict_does_not_modify() {
        // The invariant the own-word `recorded` test depends on: a
        // conflicting access yields no Install, so an exclusive
        // owner's word is stable until an explicit clear.
        let Transition::Install(w) = bitmap::step(0, 1, Access::Write) else {
            panic!("first write installs");
        };
        assert_eq!(bitmap::step(w, 2, Access::Write), Transition::Conflict);
        assert_eq!(bitmap::step(w, 2, Access::Read), Transition::Conflict);
        assert_eq!(bitmap::step(w, 1, Access::Write), Transition::Unchanged);
    }

    #[test]
    fn bitmap_clear_thread_drops_writer_flag() {
        let Transition::Install(w) = bitmap::step(0, 3, Access::Write) else {
            panic!()
        };
        assert_eq!(bitmap::clear_thread(w, 3), 0);
        // A reader among readers only drops its own bit.
        let mut w = 0;
        for t in [1u32, 2] {
            if let Transition::Install(n) = bitmap::step(w, t, Access::Read) {
                w = n;
            }
        }
        assert_eq!(bitmap::clear_thread(w, 1), 1 << 2);
    }

    // ----- sharded -----

    use crate::geometry::ShadowGeometry;
    use sharded::ShardStep;

    /// Applies a step to an owned snapshot, panicking on conflict.
    fn apply(words: &mut [u64], geom: ShadowGeometry, tid: u32, access: Access) {
        match sharded::step(words, geom, tid, access) {
            ShardStep::Install { index, word } => words[index] = word,
            ShardStep::Unchanged => {}
            ShardStep::Conflict => panic!("unexpected conflict for tid {tid} {access:?}"),
        }
    }

    #[test]
    fn sharded_one_shard_matches_plain_bitmap() {
        // With one shard, verdicts and installed words must be
        // bit-for-bit the paper's encoding.
        let geom = ShadowGeometry::for_threads(63);
        let mut words = vec![0u64; geom.words_per_granule()];
        let mut plain = 0u64;
        let script = [
            (1u32, Access::Read),
            (2, Access::Read),
            (1, Access::Read),
            (3, Access::Write), // conflict in both
            (2, Access::Read),
            (63, Access::Read),
        ];
        for &(tid, acc) in &script {
            let a = sharded::step(&words, geom, tid, acc);
            let b = bitmap::step(plain, tid, acc);
            assert_eq!(a.is_conflict(), b.is_conflict(), "tid {tid} {acc:?}");
            if let ShardStep::Install { index, word } = a {
                assert_eq!(index, 0, "one shard: installs stay in shard 0");
                words[index] = word;
            }
            if let Transition::Install(w) = b {
                plain = w;
            }
            assert_eq!(words[0], plain, "words agree after tid {tid}");
        }
    }

    #[test]
    fn sharded_readers_keep_identities_past_63() {
        // The whole point: readers 1, 64, and 127 live in three
        // different shards, each with an exact bit.
        let geom = ShadowGeometry::for_threads(256);
        let mut words = vec![0u64; geom.words_per_granule()];
        for tid in [1u32, 64, 127] {
            apply(&mut words, geom, tid, Access::Read);
        }
        assert_eq!(words[0], 1 << 1);
        assert_eq!(words[1], 1 << 1);
        assert_eq!(words[2], 1 << 1);
        // A writer in any shard conflicts with readers elsewhere...
        assert!(sharded::step(&words, geom, 200, Access::Write).is_conflict());
        // ...and exits subtract exactly, shard by shard.
        let (i, w) = sharded::clear_thread(&words, geom, 64).unwrap();
        words[i] = w;
        assert_eq!(words[1], 0);
        assert!(sharded::step(&words, geom, 1, Access::Read) == ShardStep::Unchanged);
    }

    #[test]
    fn sharded_writer_excludes_other_shards() {
        let geom = ShadowGeometry::for_threads(128);
        let mut words = vec![0u64; geom.words_per_granule()];
        apply(&mut words, geom, 100, Access::Write);
        let s = geom.shard_of(100).unwrap();
        assert_eq!(words[s], bitmap::WRITER_FLAG | (1 << geom.local_bit(100)));
        for intruder in [1u32, 63, 64, 126, 127] {
            assert!(
                sharded::step(&words, geom, intruder, Access::Read).is_conflict(),
                "tid {intruder} read vs cross-shard writer"
            );
            assert!(
                sharded::step(&words, geom, intruder, Access::Write).is_conflict(),
                "tid {intruder} write vs cross-shard writer"
            );
        }
        // The owner itself stays free, and conflicts installed nothing.
        assert_eq!(
            sharded::step(&words, geom, 100, Access::Write),
            ShardStep::Unchanged
        );
    }

    #[test]
    fn sharded_conflict_installs_nothing() {
        let geom = ShadowGeometry::for_threads(128);
        let mut words = vec![0u64; geom.words_per_granule()];
        apply(&mut words, geom, 70, Access::Write);
        let snapshot = words.clone();
        assert!(sharded::step(&words, geom, 1, Access::Write).is_conflict());
        assert!(sharded::step(&words, geom, 1, Access::Read).is_conflict());
        assert!(sharded::step(&words, geom, 128, Access::Write).is_conflict());
        assert_eq!(words, snapshot, "conflicts never install");
    }

    #[test]
    #[should_panic(expected = "thread id out of range")]
    fn sharded_tid_past_the_geometry_has_no_word() {
        let geom = ShadowGeometry::for_threads(63);
        let _ = sharded::step(&[0], geom, 64, Access::Read);
    }

    // ----- recorded predicates -----

    /// Exhaustive-ish word soup: every interesting bitmap shape for
    /// tids 1..=3 (empty, sole reader, reader crowd, exclusive owner,
    /// foreign owner, owner-plus-stale-reader).
    fn word_zoo() -> Vec<u64> {
        let wf = bitmap::WRITER_FLAG;
        vec![
            0,
            1 << 1,
            1 << 2,
            (1 << 1) | (1 << 2),
            (1 << 1) | (1 << 2) | (1 << 3),
            wf | (1 << 1),
            wf | (1 << 2),
            wf | (1 << 1) | (1 << 2),
        ]
    }

    #[test]
    fn recorded_equals_step_unchanged_for_every_zoo_word() {
        for &w in &word_zoo() {
            for tid in 1..=4u32 {
                for acc in [Access::Read, Access::Write] {
                    assert_eq!(
                        range::recorded(w, tid, acc),
                        bitmap::step(w, tid, acc) == Transition::Unchanged,
                        "word {w:#x} tid {tid} {acc:?}"
                    );
                }
            }
        }
    }
}
