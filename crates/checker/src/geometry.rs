//! Shadow geometry: how many 63-thread bitmap shards back each
//! granule, and how thread ids map onto them.
//!
//! The paper's §4.2.1 encoding packs reader/writer sets into a single
//! word, which caps *exact* tracking at `8n − 1 = 63` threads for an
//! 8-byte word. [`ShadowGeometry`] lifts that cap without giving up
//! exactness: a granule's shadow becomes `shards` words, one full
//! bitmap word per 63-thread block.
//!
//! ```text
//! words[0]        bitmap shard for tids  1 ..= 63
//! words[1]        bitmap shard for tids 64 ..= 126
//! ...
//! words[s-1]      bitmap shard for tids (s-1)*63+1 ..= s*63
//! ```
//!
//! Thread id `t` (1-based) maps to shard `(t − 1) / 63` with local
//! bit `((t − 1) % 63) + 1` — *not* the simpler `t / 63` / `t % 63`,
//! which would put tid 63's local bit onto the writer flag. The
//! chosen mapping keeps tids `1..=63` in shard 0 with their local id
//! equal to their global id, so a one-shard geometry is bit-for-bit
//! the paper's original single-word encoding.
//!
//! A tid past [`ShadowGeometry::exact_threads`] has no word: the VM's
//! and the replayer's `BitmapBackend` widens its geometry when it
//! meets one (never past [`MAX_TID`]), and the runtime's fixed-size
//! `MultiWord` refuses it.

/// The shard layout of one granule's shadow words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShadowGeometry {
    /// Number of 63-thread bitmap shards, at least one.
    shards: usize,
}

/// Exact thread capacity of one bitmap shard word (the paper's
/// `8n − 1` for `n` = 8).
pub const THREADS_PER_SHARD: usize = crate::max_bitmap_tid(8) as usize;

/// The widest granule a shadow has: the runtime's stack-allocated
/// snapshot holds this many words, and [`MAX_TID`] is what they name.
pub const MAX_WORDS_PER_GRANULE: usize = 16;

/// The one thread bound of the system (`16 × 63 = 1008`): the VM keeps
/// at most this many thread ids live, the runtime's widest shadow names
/// no more, and both trace decoders refuse a tid outside `1..=MAX_TID`.
/// So no granule is ever more than [`MAX_WORDS_PER_GRANULE`] words.
pub const MAX_TID: u32 = (MAX_WORDS_PER_GRANULE * THREADS_PER_SHARD) as u32;

impl ShadowGeometry {
    /// The smallest geometry that tracks `threads` simultaneously
    /// live thread ids exactly (full reader identities); one shard
    /// for zero threads.
    pub const fn for_threads(threads: usize) -> Self {
        Self::with_shards(if threads == 0 {
            1
        } else {
            threads.div_ceil(THREADS_PER_SHARD)
        })
    }

    /// A geometry with exactly `shards` bitmap shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub const fn with_shards(shards: usize) -> Self {
        assert!(shards >= 1, "a geometry has at least one shard");
        ShadowGeometry { shards }
    }

    /// Number of bitmap shards.
    pub const fn shards(&self) -> usize {
        self.shards
    }

    /// The largest thread id tracked (`shards × 63`).
    pub const fn exact_threads(&self) -> usize {
        self.shards * THREADS_PER_SHARD
    }

    /// Shadow words per granule: one per shard.
    pub const fn words_per_granule(&self) -> usize {
        self.shards
    }

    /// The shard holding `tid`'s bit, or `None` if `tid` is 0 or past
    /// [`ShadowGeometry::exact_threads`].
    #[inline]
    pub const fn shard_of(&self, tid: u32) -> Option<usize> {
        if tid == 0 {
            return None;
        }
        let s = (tid as usize - 1) / THREADS_PER_SHARD;
        if s < self.shards {
            Some(s)
        } else {
            None
        }
    }

    /// `tid`'s bit position within its shard word (`1..=63`; bit 0 is
    /// the per-shard writer flag). Meaningful only when
    /// [`ShadowGeometry::shard_of`] returns `Some`.
    #[inline]
    pub const fn local_bit(&self, tid: u32) -> u32 {
        ((tid - 1) % THREADS_PER_SHARD as u32) + 1
    }

    /// Shadow bytes per granule under this geometry.
    pub const fn bytes_per_granule(&self) -> usize {
        self.words_per_granule() * 8
    }
}

impl Default for ShadowGeometry {
    /// One shard: the paper's original 63-thread configuration.
    fn default() -> Self {
        ShadowGeometry::for_threads(THREADS_PER_SHARD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_threads_rounds_up() {
        assert_eq!(ShadowGeometry::for_threads(0).shards(), 1);
        assert_eq!(ShadowGeometry::for_threads(1).shards(), 1);
        assert_eq!(ShadowGeometry::for_threads(63).shards(), 1);
        assert_eq!(ShadowGeometry::for_threads(64).shards(), 2);
        assert_eq!(ShadowGeometry::for_threads(126).shards(), 2);
        assert_eq!(ShadowGeometry::for_threads(127).shards(), 3);
        assert_eq!(ShadowGeometry::for_threads(256).shards(), 5);
        assert_eq!(ShadowGeometry::for_threads(512).shards(), 9);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_are_refused() {
        let _ = ShadowGeometry::with_shards(0);
    }

    #[test]
    fn exact_range_and_word_count() {
        let g = ShadowGeometry::for_threads(256);
        assert_eq!(g.exact_threads(), 315);
        assert_eq!(g.words_per_granule(), 5);
        assert_eq!(g.bytes_per_granule(), 40);
        let widest = ShadowGeometry::with_shards(MAX_WORDS_PER_GRANULE);
        assert_eq!(widest.exact_threads(), 1008);
        assert_eq!(ShadowGeometry::for_threads(MAX_TID as usize), widest);
    }

    #[test]
    fn shard_mapping_keeps_tid_63_off_the_writer_flag() {
        let g = ShadowGeometry::for_threads(256);
        // tids 1..=63 sit in shard 0 with local bit == global id:
        // a one-shard geometry is the paper's single-word encoding.
        assert_eq!(g.shard_of(1), Some(0));
        assert_eq!(g.local_bit(1), 1);
        assert_eq!(g.shard_of(63), Some(0));
        assert_eq!(g.local_bit(63), 63);
        // tid 64 starts shard 1 at bit 1 — never bit 0.
        assert_eq!(g.shard_of(64), Some(1));
        assert_eq!(g.local_bit(64), 1);
        assert_eq!(g.shard_of(126), Some(1));
        assert_eq!(g.local_bit(126), 63);
        assert_eq!(g.shard_of(127), Some(2));
        assert_eq!(g.local_bit(127), 1);
        // Every representable local bit avoids the writer flag.
        for t in 1..=g.exact_threads() as u32 {
            assert!((1..=63).contains(&g.local_bit(t)), "tid {t}");
        }
    }

    #[test]
    fn ids_beyond_exact_range_overflow() {
        let g = ShadowGeometry::for_threads(63);
        assert_eq!(g.shard_of(63), Some(0));
        assert_eq!(g.shard_of(64), None, "past the exact range");
        assert_eq!(g.shard_of(0), None, "zero is reserved");
    }
}
