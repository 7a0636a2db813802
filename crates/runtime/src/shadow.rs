//! Shadow memory implementing the paper's reader/writer-set encoding
//! (§4.2.1), for real threads with atomic updates.
//!
//! The granule state machine itself lives in `sharc-checker`
//! ([`sharc_checker::step`]). This module is everything around it,
//! written once: [`Shadow<P>`] is generic over a [`WordProtocol`] —
//! how one granule's words are loaded, stepped and compare-exchanged —
//! and holds nothing but those words. There are two protocols:
//!
//! * [`OneWord<W>`] (here): the paper's n-byte single word per
//!   granule, exact for `8n − 1` threads, **lane-packed** `8 / n` to an
//!   `AtomicU64`. A check is one load and one compare when the access
//!   is already recorded, else a lane-splicing CAS loop around
//!   `bitmap::step`. A ranged sweep loads each covered `AtomicU64`
//!   once, steps every covered lane on that snapshot and installs them
//!   all with one CAS; ranged clears likewise handle one whole
//!   `AtomicU64` per atomic operation. `n = 1` is the default and the
//!   paper's evaluation configuration.
//! * [`MultiWord`](crate::sharded::MultiWord): several 8-byte words
//!   per granule laid out by a `ShadowGeometry`, with a snapshot →
//!   step → CAS → revalidate loop — exact identities past 63 threads.
//!
//! What the trait hides is exactly what differs between them: the
//! per-granule check, the ranged sweep, the "already recorded" fast
//! predicate, the clears and the shadow footprint. [`Shadow`] is a
//! thin front over them, and everything above it — arena, policies,
//! contexts — is one monomorphised implementation. Every ranged call
//! checks its run against the granule count once, so no run can reach
//! the padding lanes of the last packed word. The shadow words are the
//! one ownership table: no per-thread cache keeps a second copy of
//! them, so nothing has to be invalidated when a clear changes them,
//! and a thread asks the words themselves whether an access is already
//! its own ([`WordProtocol::recorded`]).

use sharc_checker::step::{bitmap, range, Access, Transition};
use sharc_checker::OwnedCache;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, AtomicU8, Ordering};

/// A checked-thread identifier (1-based). How many ids a shadow can
/// tell apart is the word protocol's business: `8n − 1` for
/// [`OneWord`], 63 per shard (and [`sharc_checker::MAX_TID`] in all)
/// for [`MultiWord`](crate::sharded::MultiWord).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadId(pub u32);

/// A race detected by a shadow check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceError {
    /// The granule index where the conflict occurred.
    pub granule: usize,
    /// True if the failing access was a write.
    pub was_write: bool,
    /// The raw shadow bits observed (for diagnosis).
    pub observed: u64,
}

impl std::fmt::Display for RaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} conflict at granule {} (shadow bits {:#b})",
            if self.was_write { "write" } else { "read" },
            self.granule,
            self.observed
        )
    }
}

impl std::error::Error for RaceError {}

/// The shadow words of a run of granules and the protocol that keeps
/// one granule's words consistent under concurrent checks, alone and
/// in a ranged sweep: the only part of the runtime that differs
/// between the paper's single-word encoding and the sharded one.
pub trait WordProtocol: Send + Sync {
    /// Number of granules covered.
    fn len(&self) -> usize;

    /// True if no granules are covered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shadow bytes consumed (the paper's memory overhead source).
    fn shadow_bytes(&self) -> usize;

    /// The check-and-record for `tid` on `granule`: `Ok(newly_set)` —
    /// `newly_set` tells the caller to log the granule for exit-time
    /// clearing — or the conflict.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is zero or exceeds the protocol's capacity.
    fn check(&self, granule: usize, tid: ThreadId, access: Access) -> Result<bool, RaceError>;

    /// True iff [`WordProtocol::check`] would return `Ok(false)`
    /// without changing a word: the access is legal and already
    /// recorded, so a ranged sweep may skip the granule.
    ///
    /// The answer may come from `tid`'s own word alone. Conflicts never
    /// install, so once `tid`'s own word records an access it changes
    /// only by `tid`'s own transitions or by a clear; when accesses are
    /// serialized the full step is then `Unchanged`. Under races on the
    /// multi-word protocol the guarantee is the one its `check` gives
    /// (see [`crate::sharded`]): a racing conflict is reported by at
    /// least one participant, not on every later access.
    fn recorded(&self, granule: usize, tid: ThreadId, access: Access) -> bool;

    /// Resets every word of `granule`.
    fn clear(&self, granule: usize);

    /// Subtracts `tid`'s contribution from `granule`.
    fn clear_thread(&self, granule: usize, tid: ThreadId);

    /// The ranged check-and-record for `tid` over granules `start ..
    /// start + len`, with the verdict of folding
    /// [`WordProtocol::check`] over the run in ascending order:
    /// `on_newly(g)` for every granule newly installed, `on_conflict`
    /// for every conflicting one, interleaved in granule order exactly
    /// as the fold would fire them. Returns the conflict count.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is zero or exceeds the protocol's capacity, or
    /// if the run reaches past the last granule.
    fn check_run(
        &self,
        start: usize,
        len: usize,
        tid: ThreadId,
        access: Access,
        on_newly: impl FnMut(usize),
        on_conflict: impl FnMut(RaceError),
    ) -> usize;

    /// [`WordProtocol::clear`] over `len` contiguous granules.
    fn clear_run(&self, start: usize, len: usize) {
        for g in start..start + len {
            self.clear(g);
        }
    }

    /// [`WordProtocol::clear_thread`] over `len` contiguous granules.
    fn clear_thread_run(&self, start: usize, len: usize, tid: ThreadId) {
        for g in start..start + len {
            self.clear_thread(g, tid);
        }
    }

    /// The granule's first word, for tests and diagnostics.
    fn raw(&self, granule: usize) -> u64;
}

/// The width of one granule's shadow word: a tag type naming `n` in
/// the paper's `8n - 1`. Implemented for the 1, 2, 4 and 8 byte
/// atomics; the storage itself is always `AtomicU64`s (see
/// [`OneWord`]).
pub trait ShadowWord: Send + Sync {
    /// Number of shadow bytes per granule.
    const BYTES: usize;
    /// Maximum checked-thread id representable.
    const MAX_THREAD: u32 = (Self::BYTES * 8 - 1) as u32;
}

impl ShadowWord for AtomicU8 {
    const BYTES: usize = 1;
}
impl ShadowWord for AtomicU16 {
    const BYTES: usize = 2;
}
impl ShadowWord for AtomicU32 {
    const BYTES: usize = 4;
}
impl ShadowWord for AtomicU64 {
    const BYTES: usize = 8;
}

// The widest word's capacity is the capacity of one bitmap shard.
const _: () = assert!(
    AtomicU64::MAX_THREAD as usize == sharc_checker::THREADS_PER_SHARD,
    "the 8n-1 rule must agree with sharc-checker"
);

/// The paper's encoding: one `n`-byte bitmap word per 16-byte granule
/// ([`sharc_checker::GRANULE_BYTES`]), updated by compare-exchange.
///
/// The default width (`AtomicU8`, n = 1) matches the paper's
/// evaluation configuration: "setting n = 1 has been sufficient".
///
/// The words are **lanes** of `AtomicU64`s, `8 / n` to a word, granule
/// `g` in lane `g % LANES` of word `g / LANES`. A per-granule
/// transition is a CAS on the containing word that splices the one
/// lane and retries when a neighbour lane moved under it; a ranged
/// sweep steps every lane it covers on one load of the word and
/// splices all their installs into one CAS; a ranged clear handles
/// every lane of a word with one atomic operation. The footprint is
/// unchanged: `n` bytes per granule.
#[derive(Debug)]
pub struct OneWord<W: ShadowWord = AtomicU8> {
    words: Vec<AtomicU64>,
    granules: usize,
    width: PhantomData<W>,
}

impl<W: ShadowWord> OneWord<W> {
    /// Bits per lane.
    const BITS: usize = W::BYTES * 8;
    /// Granules per `AtomicU64`.
    const LANES: usize = 8 / W::BYTES;
    /// One lane's worth of ones, in lane 0.
    const LANE_MASK: u64 = u64::MAX >> (64 - Self::BITS);
    /// Bit 0 of every lane: times a lane value, that value in every
    /// lane.
    const LANE_ONES: u64 = u64::MAX / Self::LANE_MASK;

    fn new(n_granules: usize) -> Self {
        let mut words = Vec::new();
        words.resize_with(n_granules.div_ceil(Self::LANES), AtomicU64::default);
        OneWord {
            words,
            granules: n_granules,
            width: PhantomData,
        }
    }

    /// The word holding `granule` and its lane's bit offset.
    #[inline]
    fn lane(&self, granule: usize) -> (&AtomicU64, usize) {
        debug_assert!(granule < self.granules, "granule out of range");
        (
            &self.words[granule / Self::LANES],
            (granule % Self::LANES) * Self::BITS,
        )
    }

    /// The protocol's capacity check, where a bad `tid` would set or
    /// clear a bit outside its lane.
    #[inline]
    fn assert_tid(tid: ThreadId) {
        assert!(
            tid.0 >= 1 && tid.0 <= W::MAX_THREAD,
            "thread id out of range"
        );
    }

    /// Calls `f(word, first, cover)` for every word overlapping
    /// granules `start .. start + len`: `first` is the granule in the
    /// word's lane 0, `cover` masks the lanes of that word inside the
    /// run — all of them except at an edge word.
    ///
    /// The one bound check of every ranged call: the last word's
    /// padding lanes belong to no granule, and a run that reached them
    /// would read and write them without an index panic.
    #[inline]
    fn for_each_word(&self, start: usize, len: usize, mut f: impl FnMut(&AtomicU64, usize, u64)) {
        assert!(
            len <= self.granules && start <= self.granules - len,
            "granule run out of range"
        );
        let end = start + len;
        let mut g = start;
        while g < end {
            let lo = g % Self::LANES;
            let n = (Self::LANES - lo).min(end - g);
            let cover = (u64::MAX >> (64 - n * Self::BITS)) << (lo * Self::BITS);
            f(&self.words[g / Self::LANES], g - lo, cover);
            g += n;
        }
    }

    /// The slow half of [`WordProtocol::check`]: the CAS retry loop
    /// over the pure transition function — the one place the paper's
    /// `cmpxchg` protocol is written down. Outlined, so the caller's
    /// inlined half stays one load and one compare.
    #[inline(never)]
    fn transition(&self, granule: usize, tid: ThreadId, access: Access) -> Result<bool, RaceError> {
        let (w, shift) = self.lane(granule);
        let mut cur = w.load(Ordering::Acquire);
        loop {
            let lane = (cur >> shift) & Self::LANE_MASK;
            match bitmap::step(lane, tid.0, access) {
                Transition::Unchanged => return Ok(false),
                Transition::Conflict => {
                    return Err(RaceError {
                        granule,
                        was_write: access.is_write(),
                        observed: lane,
                    })
                }
                Transition::Install(new) => {
                    let spliced = (cur & !(Self::LANE_MASK << shift)) | (new << shift);
                    match w.compare_exchange_weak(cur, spliced, Ordering::AcqRel, Ordering::Acquire)
                    {
                        Ok(_) => return Ok(true),
                        // This lane or a neighbour moved: step again.
                        Err(now) => cur = now,
                    }
                }
            }
        }
    }
}

impl<W: ShadowWord> WordProtocol for OneWord<W> {
    #[inline]
    fn len(&self) -> usize {
        self.granules
    }

    fn shadow_bytes(&self) -> usize {
        self.granules * W::BYTES
    }

    /// The `recorded` test inline, `OneWord::transition` behind it.
    #[inline]
    fn check(&self, granule: usize, tid: ThreadId, access: Access) -> Result<bool, RaceError> {
        Self::assert_tid(tid);
        if self.recorded(granule, tid, access) {
            return Ok(false);
        }
        self.transition(granule, tid, access)
    }

    /// One load + one branch-light test per granule.
    #[inline]
    fn recorded(&self, granule: usize, tid: ThreadId, access: Access) -> bool {
        range::recorded(self.raw(granule), tid.0, access)
    }

    /// One load per covered `AtomicU64`; every covered lane is stepped
    /// on that snapshot (`range::recorded`, then `bitmap::step`), and
    /// if any lane installs, one CAS of the word with every installing
    /// lane spliced in. A lost CAS steps every lane again on the fresh
    /// word, so a verdict is reported only from the snapshot the CAS
    /// installed over, or from one that needed no install — each
    /// granule's verdict is its `step` at that instant.
    fn check_run(
        &self,
        start: usize,
        len: usize,
        tid: ThreadId,
        access: Access,
        mut on_newly: impl FnMut(usize),
        mut on_conflict: impl FnMut(RaceError),
    ) -> usize {
        Self::assert_tid(tid);
        let mut conflicts = 0;
        self.for_each_word(start, len, |w, first, cover| {
            let mut cur = w.load(Ordering::Acquire);
            // Bit `shift` set: the lane at `shift` installed / conflicted.
            let (installed, conflicted) = loop {
                let (mut new, mut installed, mut conflicted) = (cur, 0u64, 0u64);
                let mut lanes = cover & Self::LANE_ONES;
                while lanes != 0 {
                    let shift = lanes.trailing_zeros();
                    lanes &= lanes - 1;
                    let lane = (cur >> shift) & Self::LANE_MASK;
                    if range::recorded(lane, tid.0, access) {
                        continue;
                    }
                    match bitmap::step(lane, tid.0, access) {
                        Transition::Unchanged => {}
                        Transition::Conflict => conflicted |= 1 << shift,
                        Transition::Install(v) => {
                            new ^= (lane ^ v) << shift;
                            installed |= 1 << shift;
                        }
                    }
                }
                if new == cur {
                    break (installed, conflicted);
                }
                match w.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => break (installed, conflicted),
                    // A lane of the word moved: step them all again.
                    Err(now) => cur = now,
                }
            };
            let mut decided = installed | conflicted;
            while decided != 0 {
                let shift = decided.trailing_zeros();
                decided &= decided - 1;
                let granule = first + shift as usize / Self::BITS;
                if installed >> shift & 1 != 0 {
                    on_newly(granule);
                } else {
                    conflicts += 1;
                    on_conflict(RaceError {
                        granule,
                        was_write: access.is_write(),
                        observed: (cur >> shift) & Self::LANE_MASK,
                    });
                }
            }
        });
        conflicts
    }

    #[inline]
    fn clear(&self, granule: usize) {
        self.clear_run(granule, 1);
    }

    #[inline]
    fn clear_thread(&self, granule: usize, tid: ThreadId) {
        self.clear_thread_run(granule, 1, tid);
    }

    /// A release store per whole word, one `fetch_and` per edge word —
    /// no CAS, the clear is unconditional.
    fn clear_run(&self, start: usize, len: usize) {
        self.for_each_word(start, len, |w, _, cover| {
            if cover == u64::MAX {
                w.store(0, Ordering::Release);
            } else {
                w.fetch_and(!cover, Ordering::AcqRel);
            }
        });
    }

    /// A bit-subtracting CAS per word (a concurrent access may race
    /// the subtraction): every covered lane steps through
    /// `bitmap::clear_thread`, every other lane is spliced back as
    /// found. A word `tid` left nothing in costs one load.
    fn clear_thread_run(&self, start: usize, len: usize, tid: ThreadId) {
        Self::assert_tid(tid);
        // Every lane exclusively owned by `tid`: the common exit.
        let owned = Self::LANE_ONES * (bitmap::WRITER_FLAG | 1 << tid.0);
        self.for_each_word(start, len, |w, _, cover| {
            let mut cur = w.load(Ordering::Acquire);
            loop {
                let new = if cur & cover == owned & cover {
                    cur & !cover
                } else {
                    let mut new = cur;
                    for shift in (0..64).step_by(Self::BITS) {
                        if cover >> shift & 1 != 0 {
                            let lane = (cur >> shift) & Self::LANE_MASK;
                            new ^= (lane ^ bitmap::clear_thread(lane, tid.0)) << shift;
                        }
                    }
                    new
                };
                if new == cur {
                    break;
                }
                match w.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => break,
                    Err(now) => cur = now,
                }
            }
        });
    }

    /// The granule's lane.
    #[inline]
    fn raw(&self, granule: usize) -> u64 {
        let (w, shift) = self.lane(granule);
        (w.load(Ordering::Acquire) >> shift) & Self::LANE_MASK
    }
}

/// Shadow state for a payload arena: the granule words of protocol
/// `P`.
#[derive(Debug)]
pub struct Shadow<P: WordProtocol = OneWord> {
    words: P,
}

impl<W: ShadowWord> Shadow<OneWord<W>> {
    /// Creates single-word shadow state for `n_granules` granules.
    pub fn new(n_granules: usize) -> Self {
        Shadow::from_words(OneWord::new(n_granules))
    }

    /// The largest thread id this width supports (`8n - 1`).
    pub fn max_thread(&self) -> u32 {
        W::MAX_THREAD
    }
}

impl<P: WordProtocol> Shadow<P> {
    pub(crate) fn from_words(words: P) -> Self {
        Shadow { words }
    }

    /// The word protocol's state (geometry, raw words).
    pub fn words(&self) -> &P {
        &self.words
    }

    /// Number of granules covered.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the shadow covers no granules.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Shadow bytes consumed (the paper's memory overhead source).
    pub fn shadow_bytes(&self) -> usize {
        self.words.shadow_bytes()
    }

    /// The check-and-record for `tid` on `granule`: `chkread` or
    /// `chkwrite` by `access`.
    ///
    /// Returns `Ok(newly_set)` — `newly_set` tells the caller to log
    /// the granule for exit-time clearing — or the conflict.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is zero or exceeds the protocol's capacity.
    #[inline]
    pub fn check(&self, granule: usize, tid: ThreadId, access: Access) -> Result<bool, RaceError> {
        self.words.check(granule, tid, access)
    }

    /// [`Shadow::check`] for a read.
    #[inline]
    pub fn check_read(&self, granule: usize, tid: ThreadId) -> Result<bool, RaceError> {
        self.check(granule, tid, Access::Read)
    }

    /// [`Shadow::check`] for a write.
    #[inline]
    pub fn check_write(&self, granule: usize, tid: ThreadId) -> Result<bool, RaceError> {
        self.check(granule, tid, Access::Write)
    }

    /// Kept for `benchmark/`: [`Shadow::check_read`].
    pub fn check_read_cached(
        &self,
        g: usize,
        tid: ThreadId,
        _: &mut OwnedCache,
    ) -> Result<bool, RaceError> {
        self.check_read(g, tid)
    }

    /// Kept for `benchmark/`: [`Shadow::check_write`].
    pub fn check_write_cached(
        &self,
        g: usize,
        tid: ThreadId,
        _: &mut OwnedCache,
    ) -> Result<bool, RaceError> {
        self.check_write(g, tid)
    }

    // ----- ranged checks -----
    //
    // One `chkread`/`chkwrite` per buffer sweep instead of one per
    // granule: the protocol's [`WordProtocol::check_run`]. **The fold
    // contract:** the verdict equals the fold of per-granule verdicts
    // — each granule is judged by the same `step` against its own
    // shadow words, conflicts are reported per granule via
    // `on_conflict`, and newly-installed granules via `on_newly` (for
    // exit-time clearing logs), both in ascending granule order. The
    // return value is the number of conflicting granules. `OneWord`
    // steps every lane of a packed word on one snapshot and installs
    // them with one CAS; `MultiWord` skips recorded granules and runs
    // its per-granule protocol on the rest.

    /// The shared ranged sweep: [`WordProtocol::check_run`], whose
    /// panics it shares.
    #[inline]
    pub fn check_range(
        &self,
        start: usize,
        len: usize,
        tid: ThreadId,
        access: Access,
        on_newly: impl FnMut(usize),
        on_conflict: impl FnMut(RaceError),
    ) -> usize {
        self.words
            .check_run(start, len, tid, access, on_newly, on_conflict)
    }

    /// Ranged `chkread` over granules `start .. start + len`. Calls
    /// `on_newly` for each granule whose read bit was newly
    /// installed, `on_conflict` per conflicting granule; returns the
    /// conflict count. Equivalent to folding [`Shadow::check_read`]
    /// over the range.
    pub fn check_range_read(
        &self,
        start: usize,
        len: usize,
        tid: ThreadId,
        on_newly: impl FnMut(usize),
        on_conflict: impl FnMut(RaceError),
    ) -> usize {
        self.check_range(start, len, tid, Access::Read, on_newly, on_conflict)
    }

    /// Ranged `chkwrite`; see [`Shadow::check_range_read`].
    pub fn check_range_write(
        &self,
        start: usize,
        len: usize,
        tid: ThreadId,
        on_newly: impl FnMut(usize),
        on_conflict: impl FnMut(RaceError),
    ) -> usize {
        self.check_range(start, len, tid, Access::Write, on_newly, on_conflict)
    }

    /// Clears a thread's contribution on exit ("SharC does not
    /// consider it a race for two threads to access the same location
    /// if their execution does not overlap").
    pub fn clear_thread(&self, granule: usize, tid: ThreadId) {
        self.words.clear_thread(granule, tid);
    }

    /// Clears a granule entirely (`free`, or a successful sharing
    /// cast's mode change).
    pub fn clear(&self, granule: usize) {
        self.words.clear(granule);
    }

    /// Clears `len` contiguous granules at once (a whole-block `free`
    /// or sharing cast): the protocol's ranged reset.
    pub fn clear_range(&self, start: usize, len: usize) {
        self.words.clear_run(start, len);
    }

    /// [`Shadow::clear_thread`] over `len` contiguous granules: the
    /// protocol's ranged subtraction.
    pub fn clear_thread_range(&self, start: usize, len: usize, tid: ThreadId) {
        self.words.clear_thread_run(start, len, tid);
    }

    /// The granule's first shadow word, for tests and diagnostics.
    pub fn raw(&self, granule: usize) -> u64 {
        self.words.raw(granule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedShadow;
    use sharc_checker::ShadowGeometry;

    /// Four tids a generic test may use: ids the one-word encoding
    /// can hold, or ids that land in four different shards.
    type Tids = [ThreadId; 4];
    const NARROW: Tids = [ThreadId(1), ThreadId(2), ThreadId(3), ThreadId(7)];
    const CROSS_SHARD: Tids = [ThreadId(1), ThreadId(70), ThreadId(140), ThreadId(200)];

    /// Runs each named generic test body on the paper's one-word
    /// protocol and on the five-shard protocol with tids in four
    /// different shards — the bodies assert only what both guarantee.
    macro_rules! on_every_protocol {
        ($($body:ident),* $(,)?) => {
            mod one_word {
                use super::*;
                $(#[test] fn $body() { super::$body(Shadow::<OneWord>::new, NARROW); })*
            }
            mod five_shards {
                use super::*;
                $(#[test] fn $body() {
                    super::$body(
                        |n| ShardedShadow::with_geometry(n, ShadowGeometry::for_threads(256)),
                        CROSS_SHARD,
                    );
                })*
            }
        };
    }

    on_every_protocol!(
        single_thread_lifecycle,
        many_readers_ok,
        reader_then_other_writer_conflicts,
        writer_excludes_everyone,
        exclusive_exit_clears,
        clear_resets,
        concurrent_readers_never_conflict,
        concurrent_disjoint_writers_never_conflict,
        concurrent_same_granule_writers_conflict,
        range_verdict_equals_the_per_granule_fold,
        repeat_sweep_is_silent_until_a_clear_lets_an_intruder_in,
        conflicting_sweep_reports_every_granule,
    );

    fn single_thread_lifecycle<P: WordProtocol>(make: impl Fn(usize) -> Shadow<P>, t: Tids) {
        let s = make(4);
        assert_eq!(s.check_read(0, t[0]), Ok(true));
        assert_eq!(s.check_read(0, t[0]), Ok(false));
        assert!(s.check_write(0, t[0]).is_ok(), "own upgrade");
        for _ in 0..10 {
            assert_eq!(s.check_read(0, t[0]), Ok(false), "recorded by the write");
            assert_eq!(s.check_write(0, t[0]), Ok(false), "already the owner");
        }
    }

    fn many_readers_ok<P: WordProtocol>(make: impl Fn(usize) -> Shadow<P>, t: Tids) {
        let s = make(1);
        for tid in t {
            assert!(s.check_read(0, tid).is_ok(), "thread {tid:?}");
        }
    }

    fn reader_then_other_writer_conflicts<P: WordProtocol>(
        make: impl Fn(usize) -> Shadow<P>,
        t: Tids,
    ) {
        let s = make(1);
        s.check_read(0, t[0]).unwrap();
        let e = s.check_write(0, t[1]).unwrap_err();
        assert!(e.was_write);
        assert_eq!(e.granule, 0);
    }

    fn writer_excludes_everyone<P: WordProtocol>(make: impl Fn(usize) -> Shadow<P>, t: Tids) {
        let s = make(1);
        s.check_write(0, t[2]).unwrap();
        for other in [t[0], t[1], t[3]] {
            assert!(s.check_read(0, other).is_err(), "reader {other:?}");
            assert!(s.check_write(0, other).is_err(), "writer {other:?}");
        }
        // Conflicts installed nothing: the owner's access is still
        // recorded.
        assert_eq!(s.check_read(0, t[2]), Ok(false), "owner free");
        assert_eq!(s.check_write(0, t[2]), Ok(false), "owner free");
    }

    fn exclusive_exit_clears<P: WordProtocol>(make: impl Fn(usize) -> Shadow<P>, t: Tids) {
        let s = make(1);
        s.check_write(0, t[0]).unwrap();
        s.clear_thread(0, t[0]);
        assert_eq!(s.raw(0), 0, "writer flag cleared with the writer");
        // A different thread may now use the granule freely.
        assert!(s.check_write(0, t[1]).is_ok());
        // An exit forgets reads too: the next read installs again.
        s.clear_thread(0, t[1]);
        assert_eq!(s.check_read(0, t[1]), Ok(true));
    }

    fn clear_resets<P: WordProtocol>(make: impl Fn(usize) -> Shadow<P>, t: Tids) {
        let s = make(1);
        s.check_write(0, t[2]).unwrap();
        s.clear(0);
        assert_eq!(s.raw(0), 0);
        assert!(s.check_write(0, t[3]).is_ok());
        // The clear revoked the old owner: its next access is a real
        // conflict with the new one.
        assert!(s.check_write(0, t[2]).is_err());
    }

    fn concurrent_readers_never_conflict<P: WordProtocol>(
        make: impl Fn(usize) -> Shadow<P>,
        t: Tids,
    ) {
        let s = make(64);
        std::thread::scope(|scope| {
            for tid in t {
                let s = &s;
                scope.spawn(move || {
                    for g in 0..64 {
                        s.check_read(g, tid).unwrap();
                    }
                });
            }
        });
    }

    fn concurrent_disjoint_writers_never_conflict<P: WordProtocol>(
        make: impl Fn(usize) -> Shadow<P>,
        t: Tids,
    ) {
        let s = make(40);
        std::thread::scope(|scope| {
            for (i, tid) in t.into_iter().enumerate() {
                let s = &s;
                scope.spawn(move || {
                    for rep in 0..100 {
                        s.check_write(i * 10 + rep % 10, tid).unwrap();
                    }
                });
            }
        });
    }

    fn concurrent_same_granule_writers_conflict<P: WordProtocol>(
        make: impl Fn(usize) -> Shadow<P>,
        t: Tids,
    ) {
        let s = make(1);
        let total: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = t
                .into_iter()
                .map(|tid| {
                    let s = &s;
                    scope.spawn(move || (0..100).filter(|_| s.check_write(0, tid).is_err()).count())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert!(total > 0, "competing writers must conflict");
    }

    // ----- ranged checks -----

    /// Folds the per-granule check over a range, mirroring the ranged
    /// API's observable outputs: (newly list, conflict granules).
    fn fold_check<P: WordProtocol>(
        s: &Shadow<P>,
        start: usize,
        len: usize,
        tid: ThreadId,
        access: Access,
    ) -> (Vec<usize>, Vec<usize>) {
        let (mut newly, mut conf) = (Vec::new(), Vec::new());
        for g in start..start + len {
            match s.words().check(g, tid, access) {
                Ok(true) => newly.push(g),
                Ok(false) => {}
                Err(e) => conf.push(e.granule),
            }
        }
        (newly, conf)
    }

    fn range_verdict_equals_the_per_granule_fold<P: WordProtocol>(
        make: impl Fn(usize) -> Shadow<P>,
        t: Tids,
    ) {
        // Two identically prepared shadows: granules 0..8 owned by
        // the sweeping thread, 8..16 read-shared with another,
        // 16..24 foreign-owned (conflicts), 24..32 untouched.
        let prep = || {
            let s = make(32);
            for g in 0..8 {
                s.check_write(g, t[3]).unwrap();
            }
            for g in 8..16 {
                s.check_read(g, t[3]).unwrap();
                s.check_read(g, t[1]).unwrap();
            }
            for g in 16..24 {
                s.check_write(g, t[0]).unwrap();
            }
            s
        };
        for access in [Access::Read, Access::Write] {
            let (a, b) = (prep(), prep());
            let (mut newly, mut conf) = (Vec::new(), Vec::new());
            let n = a.check_range(
                0,
                32,
                t[3],
                access,
                |g| newly.push(g),
                |e| conf.push(e.granule),
            );
            let (fnewly, fconf) = fold_check(&b, 0, 32, t[3], access);
            assert_eq!(newly, fnewly, "newly-installed granules agree");
            assert_eq!(conf, fconf, "conflicting granules agree");
            assert_eq!(n, conf.len());
            assert!(
                (16..24).all(|g| conf.contains(&g)),
                "the foreign-owned stripe conflicts"
            );
            // And the shadow words are bit-identical afterwards.
            for g in 0..32 {
                assert_eq!(a.raw(g), b.raw(g), "granule {g}");
            }
        }
    }

    fn repeat_sweep_is_silent_until_a_clear_lets_an_intruder_in<P: WordProtocol>(
        make: impl Fn(usize) -> Shadow<P>,
        t: Tids,
    ) {
        let s = make(64);
        let mut newly = 0;
        let n = s.check_range_write(0, 64, t[2], |_| newly += 1, |_| {});
        assert_eq!((n, newly), (0, 64), "first sweep installs everything");
        for _ in 0..5 {
            let n = s.check_range_write(0, 64, t[2], |_| panic!(), |_| panic!());
            assert_eq!(n, 0);
            // A write records the read too.
            let n = s.check_range_read(0, 64, t[2], |_| panic!(), |_| panic!());
            assert_eq!(n, 0);
        }
        // A clear inside the run: the next sweep re-installs exactly
        // the cleared granule.
        s.clear(3);
        let mut newly = Vec::new();
        let n = s.check_range_write(0, 64, t[2], |g| newly.push(g), |_| panic!());
        assert_eq!((n, newly), (0, vec![3]));
        // A clear that lets an intruder in: the sweep sees it.
        s.clear(3);
        s.check_write(3, t[0]).unwrap();
        let mut conflicts = Vec::new();
        s.check_range_write(0, 64, t[2], |_| {}, |e| conflicts.push(e.granule));
        assert_eq!(conflicts, vec![3], "the sweep cannot miss the intruder");
    }

    fn conflicting_sweep_reports_every_granule<P: WordProtocol>(
        make: impl Fn(usize) -> Shadow<P>,
        t: Tids,
    ) {
        let s = make(8);
        s.check_range_write(0, 8, t[0], |_| {}, |_| {});
        // Thread 2 sweeps the same buffer: every granule conflicts,
        // every time.
        for _ in 0..2 {
            let mut conf = Vec::new();
            let n = s.check_range_write(0, 8, t[1], |_| panic!(), |e| conf.push(e.granule));
            assert_eq!(n, 8);
            assert_eq!(conf, (0..8).collect::<Vec<_>>());
        }
        // Thread 1 still owns the run (conflicts never install).
        s.check_range_write(0, 8, t[0], |_| panic!(), |_| panic!());
    }

    // ----- what only the one-word bitmap guarantees -----

    #[test]
    fn reader_exit_keeps_other_readers() {
        let s: Shadow = Shadow::new(1);
        s.check_read(0, ThreadId(1)).unwrap();
        s.check_read(0, ThreadId(2)).unwrap();
        s.clear_thread(0, ThreadId(1));
        assert_eq!(s.raw(0), 1 << 2);
    }

    #[test]
    fn owner_word_is_writer_flag_plus_own_bit() {
        let s: Shadow = Shadow::new(1);
        s.check_write(0, ThreadId(1)).unwrap();
        assert_eq!(s.raw(0), 1 | (1 << 1));
    }

    #[test]
    fn width_capacities() {
        assert_eq!(Shadow::<OneWord<AtomicU8>>::new(1).max_thread(), 7);
        assert_eq!(Shadow::<OneWord<AtomicU16>>::new(1).max_thread(), 15);
        assert_eq!(Shadow::<OneWord<AtomicU32>>::new(1).max_thread(), 31);
        assert_eq!(Shadow::<OneWord<AtomicU64>>::new(1).max_thread(), 63);
    }

    #[test]
    fn wider_words_support_more_threads() {
        let s: Shadow<OneWord<AtomicU16>> = Shadow::new(1);
        for t in 1..=15 {
            assert!(s.check_read(0, ThreadId(t)).is_ok());
        }
        assert_eq!(s.shadow_bytes(), 2);
    }

    #[test]
    #[should_panic(expected = "thread id out of range")]
    fn thread_id_zero_rejected() {
        let s: Shadow = Shadow::new(1);
        let _ = s.check_read(0, ThreadId(0));
    }

    #[test]
    #[should_panic(expected = "thread id out of range")]
    fn thread_id_past_the_width_rejected() {
        let s: Shadow = Shadow::new(1);
        let _ = s.check_read(0, ThreadId(8));
    }
}
