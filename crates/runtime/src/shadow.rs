//! Shadow memory implementing the paper's reader/writer-set encoding
//! (§4.2.1), for real threads with atomic updates.
//!
//! The granule state machine itself lives in `sharc-checker`
//! ([`sharc_checker::step`]). This module is everything around it,
//! written once: [`Shadow<P>`] is generic over a [`WordProtocol`] —
//! how one granule's words are loaded, stepped and compare-exchanged —
//! and nothing else. There are two protocols:
//!
//! * [`OneWord<W>`] (here): the paper's n-byte single word per
//!   granule, exact for `8n − 1` threads, **lane-packed** `8 / n` to an
//!   `AtomicU64`. A check is one load and one compare when the access
//!   is already recorded, else a lane-splicing CAS loop around
//!   `bitmap::step`; ranged clears handle one whole `AtomicU64` per
//!   atomic operation. `n = 1` is the default and the paper's
//!   evaluation configuration.
//! * [`MultiWord`](crate::sharded::MultiWord): several 8-byte words
//!   per granule laid out by a `ShadowGeometry`, with a snapshot →
//!   step → CAS → revalidate loop — exact identities past 63 threads.
//!
//! What the trait hides is exactly what differs between them: the
//! per-granule check, the "already recorded" fast predicate, the
//! clears, the shadow footprint, and whether the *owned-granule epoch
//! cache* pays ([`WordProtocol::OWNED_CACHE`]: it does where `recorded`
//! costs a multi-word snapshot, it does not where `recorded` is one L1
//! load). Everything above — the cached entry points
//! ([`Shadow::check_read_cached`] / [`Shadow::check_write_cached`])
//! with their outlined cold fills, the ranged sweeps, the owned-run
//! summaries, and the clears with their per-region [`EpochTable`]
//! bumps — is one monomorphised implementation. See
//! `sharc_checker::cache` and `sharc_checker::epoch` for the
//! soundness invariants of the cache.

use sharc_checker::step::{bitmap, range, Access, Transition};
use sharc_checker::{EpochTable, OwnedCache};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, AtomicU8, Ordering};

/// A checked-thread identifier (1-based). How many ids a shadow can
/// tell apart is the word protocol's business: `8n − 1` for
/// [`OneWord`], 63 per shard (and 2³⁰ − 1 soundly) for
/// [`MultiWord`](crate::sharded::MultiWord).
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
/// one granule's words consistent under concurrent checks: the only
/// part of the runtime that differs between the paper's single-word
/// encoding and the sharded one. Epochs, caches and range verdicts are
/// [`Shadow`]'s job.
pub trait WordProtocol: Send + Sync {
    /// Whether a per-thread [`OwnedCache`] probe (region-epoch load,
    /// slot probe, tag compare, and a fill on every miss) is cheaper
    /// than this protocol's own [`WordProtocol::recorded`] test. Where
    /// it is not, the cached entry points of [`Shadow`] skip the
    /// per-granule cache and test the shadow words directly; the
    /// owned-*run* summaries are kept either way.
    const OWNED_CACHE: bool;

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
    fn recorded(&self, granule: usize, tid: ThreadId, access: Access) -> bool;

    /// Resets every word of `granule`.
    fn clear(&self, granule: usize);

    /// Subtracts `tid`'s contribution from `granule`.
    fn clear_thread(&self, granule: usize, tid: ThreadId);

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

// The widest word's capacity is the workspace-wide thread bound; the
// VM checks its own MAX_THREADS against the same constant.
const _: () = assert!(
    AtomicU64::MAX_THREAD as usize == sharc_checker::MAX_CHECKED_THREADS,
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
/// clear handles every lane of a word with one atomic operation. The
/// footprint is unchanged: `n` bytes per granule.
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

    /// Calls `f(word, cover)` for every word overlapping granules
    /// `start .. start + len`, `cover` masking the lanes of that word
    /// inside the run — all of them except at an edge word.
    #[inline]
    fn for_each_word(&self, start: usize, len: usize, mut f: impl FnMut(&AtomicU64, u64)) {
        let end = start + len;
        debug_assert!(end <= self.granules, "granule run out of range");
        let mut g = start;
        while g < end {
            let lo = g % Self::LANES;
            let n = (Self::LANES - lo).min(end - g);
            let cover = (u64::MAX >> (64 - n * Self::BITS)) << (lo * Self::BITS);
            f(&self.words[g / Self::LANES], cover);
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
    /// `recorded` is one L1 load and one compare; the cache is an
    /// epoch load, a slot probe and a fill on every first touch.
    const OWNED_CACHE: bool = false;

    #[inline]
    fn len(&self) -> usize {
        self.granules
    }

    fn shadow_bytes(&self) -> usize {
        self.granules * W::BYTES
    }

    /// The `recorded` test inline, [`OneWord::transition`] behind it.
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
        self.for_each_word(start, len, |w, cover| {
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
        self.for_each_word(start, len, |w, cover| {
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
/// `P` plus the per-region clear epochs that guard every thread's
/// [`OwnedCache`] over them.
#[derive(Debug)]
pub struct Shadow<P: WordProtocol = OneWord> {
    words: P,
    /// Per-region clear epochs; a clear bumps only the region holding
    /// the cleared granule, and owned-granule caches self-invalidate
    /// entries of regions whose epoch moved.
    epochs: EpochTable,
}

impl<W: ShadowWord> Shadow<OneWord<W>> {
    /// Creates single-word shadow state for `n_granules` granules,
    /// with the default epoch-region geometry
    /// ([`EpochTable::for_granules`]).
    pub fn new(n_granules: usize) -> Self {
        Shadow::from_parts(
            OneWord::new(n_granules),
            EpochTable::for_granules(n_granules),
        )
    }

    /// The largest thread id this width supports (`8n - 1`).
    pub fn max_thread(&self) -> u32 {
        W::MAX_THREAD
    }
}

impl<P: WordProtocol> Shadow<P> {
    pub(crate) fn from_parts(words: P, epochs: EpochTable) -> Self {
        Shadow { words, epochs }
    }

    /// Replaces the epoch table with one of `regions` regions.
    /// `regions = 1` is the degenerate global-epoch geometry: every
    /// clear invalidates every cache wholesale (the pre-region
    /// behaviour, kept for differential tests and benches).
    pub fn with_epoch_regions(mut self, regions: usize) -> Self {
        let per_region = self.len().max(1).div_ceil(regions.max(1));
        self.epochs = EpochTable::new(regions, per_region);
        self
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

    /// The current clear-epoch of `granule`'s region (see
    /// [`sharc_checker::cache`] / [`sharc_checker::epoch`]).
    #[inline]
    pub fn epoch_of(&self, granule: usize) -> u64 {
        self.epochs.epoch_of(granule)
    }

    /// The epoch-region table guarding this shadow.
    pub fn epochs(&self) -> &EpochTable {
        &self.epochs
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

    /// [`Shadow::check`] with the owned-granule fast path: if `cache`
    /// proves the access is already recorded for this thread (and no
    /// clear intervened), the atomic check is skipped — a cached
    /// exclusive owner never reaches the shadow words. Where the
    /// protocol's own `recorded` test is the cheaper one
    /// ([`WordProtocol::OWNED_CACHE`] false) this *is*
    /// [`Shadow::check`] and `cache` is left alone.
    #[inline]
    pub fn check_cached<const WAYS: usize>(
        &self,
        granule: usize,
        tid: ThreadId,
        access: Access,
        cache: &mut OwnedCache<WAYS>,
    ) -> Result<bool, RaceError> {
        if !P::OWNED_CACHE {
            return self.check(granule, tid, access);
        }
        // The region epoch must be observed before the slow-path
        // check (and before the shadow-word read inside it) so a
        // concurrent clear invalidates whatever we are about to cache.
        let epoch = self.epochs.epoch_of(granule);
        if cache.lookup(epoch, granule, access.is_write()) {
            return Ok(false);
        }
        self.fill(granule, tid, access, cache, epoch)
    }

    /// [`Shadow::check_cached`] for a read.
    #[inline]
    pub fn check_read_cached<const WAYS: usize>(
        &self,
        granule: usize,
        tid: ThreadId,
        cache: &mut OwnedCache<WAYS>,
    ) -> Result<bool, RaceError> {
        self.check_cached(granule, tid, Access::Read, cache)
    }

    /// [`Shadow::check_cached`] for a write.
    #[inline]
    pub fn check_write_cached<const WAYS: usize>(
        &self,
        granule: usize,
        tid: ThreadId,
        cache: &mut OwnedCache<WAYS>,
    ) -> Result<bool, RaceError> {
        self.check_cached(granule, tid, Access::Write, cache)
    }

    /// The outlined miss path of [`Shadow::check_cached`]: run the
    /// full check, then remember the verdict. Outlining keeps the
    /// caller's inlined fast path to a handful of instructions (epoch
    /// load, table probe, compare).
    #[cold]
    #[inline(never)]
    fn fill<const WAYS: usize>(
        &self,
        granule: usize,
        tid: ThreadId,
        access: Access,
        cache: &mut OwnedCache<WAYS>,
        epoch: u64,
    ) -> Result<bool, RaceError> {
        let newly = self.check(granule, tid, access)?;
        // After a passing chkwrite this thread is the granule's
        // exclusive owner in every word: its shard word holds exactly
        // WRITER_FLAG | bit(tid) and every other word is zero.
        cache.insert(granule, access.is_write(), epoch);
        Ok(newly)
    }

    // ----- ranged checks -----
    //
    // One `chkread`/`chkwrite` per buffer sweep instead of one per
    // granule. The uncached pair is a sweep over the protocol's
    // `recorded` predicate, falling back to the full CAS protocol
    // only for granules that need a state transition; the cached pair
    // adds the owned-*run* summary on top, so a repeat sweep over the
    // same buffer is one epoch-sum compare. **The fold contract:**
    // every variant's verdict equals the fold of per-granule verdicts
    // — each granule is judged by the same `step` against its own
    // shadow words, conflicts are reported per granule via
    // `on_conflict`, and newly-installed granules via `on_newly` (for
    // exit-time clearing logs). The return value is the number of
    // conflicting granules.

    /// The shared ranged sweep: skips granules that already record
    /// the access, runs the full per-granule check for the rest.
    #[inline]
    pub fn check_range(
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
            while g < end && self.words.recorded(g, tid, access) {
                g += 1;
            }
            if g >= end {
                break;
            }
            // Boundary / first-contact / conflicting granule: the
            // per-granule fallback (full CAS protocol).
            match self.words.check(g, tid, access) {
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

    /// The ranged check with the owned-run fast path: if `cache` holds
    /// a summary proving this thread already swept exactly this run
    /// (and no covered region was cleared since — the epoch-*sum*
    /// covering constraint), the whole sweep is skipped. The miss path
    /// runs the per-granule sweep and, if the run came back
    /// conflict-free, records the summary.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn check_range_cached<const WAYS: usize>(
        &self,
        start: usize,
        len: usize,
        tid: ThreadId,
        access: Access,
        cache: &mut OwnedCache<WAYS>,
        on_newly: impl FnMut(usize),
        on_conflict: impl FnMut(RaceError),
    ) -> usize {
        // The covering stamp must be observed before the sweep, so
        // the run entry can never be newer than the epochs guarding
        // it (the per-region invariant, summed over the run).
        let stamp = self.epochs.epoch_sum_of_range(start, start + len);
        if cache.lookup_run(stamp, start, len, access.is_write()) {
            return 0;
        }
        self.fill_range(start, len, tid, cache, stamp, access, on_newly, on_conflict)
    }

    /// [`Shadow::check_range_read`] with the owned-run fast path.
    #[inline]
    pub fn check_range_read_cached<const WAYS: usize>(
        &self,
        start: usize,
        len: usize,
        tid: ThreadId,
        cache: &mut OwnedCache<WAYS>,
        on_newly: impl FnMut(usize),
        on_conflict: impl FnMut(RaceError),
    ) -> usize {
        self.check_range_cached(start, len, tid, Access::Read, cache, on_newly, on_conflict)
    }

    /// [`Shadow::check_range_write`] with the owned-run fast path.
    #[inline]
    pub fn check_range_write_cached<const WAYS: usize>(
        &self,
        start: usize,
        len: usize,
        tid: ThreadId,
        cache: &mut OwnedCache<WAYS>,
        on_newly: impl FnMut(usize),
        on_conflict: impl FnMut(RaceError),
    ) -> usize {
        self.check_range_cached(start, len, tid, Access::Write, cache, on_newly, on_conflict)
    }

    /// The outlined miss path of the cached ranged checks: the
    /// per-granule sweep — through the owned cache where it exists, so
    /// single-granule entries refill too — then the run summary, only
    /// when **zero** granules conflicted, since a summary cannot
    /// remember a conflicting granule inside it.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn fill_range<const WAYS: usize>(
        &self,
        start: usize,
        len: usize,
        tid: ThreadId,
        cache: &mut OwnedCache<WAYS>,
        stamp: u64,
        access: Access,
        mut on_newly: impl FnMut(usize),
        mut on_conflict: impl FnMut(RaceError),
    ) -> usize {
        let conflicts = if P::OWNED_CACHE {
            let mut conflicts = 0;
            for g in start..start + len {
                match self.check_cached(g, tid, access, cache) {
                    Ok(true) => on_newly(g),
                    Ok(false) => {}
                    Err(e) => {
                        conflicts += 1;
                        on_conflict(e);
                    }
                }
            }
            conflicts
        } else {
            self.check_range(start, len, tid, access, on_newly, on_conflict)
        };
        if conflicts == 0 {
            cache.insert_run(start, len, access.is_write(), stamp);
        }
        conflicts
    }

    /// Clears a thread's contribution on exit ("SharC does not
    /// consider it a race for two threads to access the same location
    /// if their execution does not overlap").
    pub fn clear_thread(&self, granule: usize, tid: ThreadId) {
        self.words.clear_thread(granule, tid);
        self.epochs.bump(granule);
    }

    /// Clears a granule entirely (`free`, or a successful sharing
    /// cast's mode change). Bumps only the epoch of the granule's
    /// region: caches keep entries for every other region.
    pub fn clear(&self, granule: usize) {
        self.words.clear(granule);
        self.epochs.bump(granule);
    }

    /// Clears `len` contiguous granules at once (a whole-block `free`
    /// or sharing cast): the protocol's ranged reset followed by ONE
    /// [`EpochTable::bump_granule_range`] covering the span, so a block
    /// hand-off invalidates exactly the owned runs it covers, once per
    /// region instead of once per granule.
    pub fn clear_range(&self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        self.words.clear_run(start, len);
        self.epochs.bump_granule_range(start, start + len);
    }

    /// [`Shadow::clear_thread`] over `len` contiguous granules: the
    /// protocol's ranged subtraction, and the O(granules) epoch
    /// traffic collapses to one bump per covered region.
    pub fn clear_thread_range(&self, start: usize, len: usize, tid: ThreadId) {
        if len == 0 {
            return;
        }
        self.words.clear_thread_run(start, len, tid);
        self.epochs.bump_granule_range(start, start + len);
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
    /// protocol, on the five-shard protocol with tids in four
    /// different shards, and on the zero-shard (adaptive-only)
    /// geometry — the bodies assert only what all three guarantee.
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
            mod adaptive_only {
                use super::*;
                $(#[test] fn $body() {
                    super::$body(
                        |n| ShardedShadow::with_geometry(n, ShadowGeometry::adaptive_only()),
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
        cached_write_skips_but_agrees,
        cache_never_hides_a_conflict_from_the_other_thread,
        clear_invalidates_cached_ownership,
        clear_leaves_other_regions_cached,
        clear_thread_invalidates_via_epoch,
        range_verdict_equals_the_per_granule_fold,
        cached_range_repeat_sweep_is_one_stamp_compare,
        clear_inside_run_kills_it_clear_outside_does_not,
        cached_range_never_hides_a_conflict,
    );

    fn single_thread_lifecycle<P: WordProtocol>(make: impl Fn(usize) -> Shadow<P>, t: Tids) {
        let s = make(4);
        assert_eq!(s.check_read(0, t[0]), Ok(true));
        assert_eq!(s.check_read(0, t[0]), Ok(false));
        assert!(s.check_write(0, t[0]).is_ok(), "own upgrade");
        assert!(s.check_read(0, t[0]).is_ok());
        assert!(s.check_write(0, t[0]).is_ok());
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
        assert!(s.check_read(0, t[2]).is_ok(), "owner free");
        assert!(s.check_write(0, t[2]).is_ok(), "owner free");
    }

    fn exclusive_exit_clears<P: WordProtocol>(make: impl Fn(usize) -> Shadow<P>, t: Tids) {
        let s = make(1);
        s.check_write(0, t[0]).unwrap();
        s.clear_thread(0, t[0]);
        assert_eq!(s.raw(0), 0, "writer flag cleared with the writer");
        // A different thread may now use the granule freely.
        assert!(s.check_write(0, t[1]).is_ok());
    }

    fn clear_resets<P: WordProtocol>(make: impl Fn(usize) -> Shadow<P>, t: Tids) {
        let s = make(1);
        s.check_write(0, t[2]).unwrap();
        s.clear(0);
        assert_eq!(s.raw(0), 0);
        assert!(s.check_write(0, t[3]).is_ok());
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

    // ----- owned-granule fast path -----

    fn cached_write_skips_but_agrees<P: WordProtocol>(make: impl Fn(usize) -> Shadow<P>, t: Tids) {
        let (cached, plain) = (make(4), make(4));
        let mut cache: OwnedCache = OwnedCache::new();
        assert_eq!(cached.check_write_cached(0, t[1], &mut cache), Ok(true));
        plain.check_write(0, t[1]).unwrap();
        for _ in 0..10 {
            assert_eq!(cached.check_write_cached(0, t[1], &mut cache), Ok(false));
            assert_eq!(cached.check_read_cached(0, t[1], &mut cache), Ok(false));
        }
        if P::OWNED_CACHE {
            assert_eq!(cache.misses, 1, "one fill, then 20 fast-path hits");
        }
        assert_eq!(
            cached.raw(0),
            plain.raw(0),
            "same word as the uncached path"
        );
    }

    fn cache_never_hides_a_conflict_from_the_other_thread<P: WordProtocol>(
        make: impl Fn(usize) -> Shadow<P>,
        t: Tids,
    ) {
        let s = make(1);
        let mut c1: OwnedCache = OwnedCache::new();
        s.check_write_cached(0, t[0], &mut c1).unwrap();
        // Thread 2 runs the full check and sees the conflict.
        let mut c2: OwnedCache = OwnedCache::new();
        assert!(s.check_write_cached(0, t[1], &mut c2).is_err());
        // ...and thread 1's cache still answers correctly (owner
        // stable: the conflicting access did not install).
        assert_eq!(s.check_write_cached(0, t[0], &mut c1), Ok(false));
    }

    fn clear_invalidates_cached_ownership<P: WordProtocol>(
        make: impl Fn(usize) -> Shadow<P>,
        t: Tids,
    ) {
        let s = make(1);
        let mut c1: OwnedCache = OwnedCache::new();
        s.check_write_cached(0, t[0], &mut c1).unwrap();
        // free / sharing cast: the granule resets and the epoch moves.
        s.clear(0);
        let mut c2: OwnedCache = OwnedCache::new();
        s.check_write_cached(0, t[1], &mut c2).unwrap();
        // Thread 1's next cached access must NOT fast-path: the new
        // owner is thread 2 and the access is a real conflict.
        assert!(s.check_write_cached(0, t[0], &mut c1).is_err());
    }

    fn clear_leaves_other_regions_cached<P: WordProtocol>(
        make: impl Fn(usize) -> Shadow<P>,
        t: Tids,
    ) {
        // 128 granules over at least 64 regions: granules 0 and 127
        // are guarded by different epochs, so clearing 0 must not
        // cost 127 a refill.
        let s = make(128);
        assert!(s.epochs().regions() > 1, "a real region table");
        let mut c: OwnedCache = OwnedCache::new();
        s.check_write_cached(127, t[3], &mut c).unwrap();
        assert_eq!(c.misses, P::OWNED_CACHE as u64);
        s.clear(0);
        assert_eq!(
            s.check_write_cached(127, t[3], &mut c),
            Ok(false),
            "entry in an unaffected region still answers"
        );
        assert_eq!(
            c.misses,
            P::OWNED_CACHE as u64,
            "no refill after the distant clear"
        );
        assert_eq!(c.flushes, 0, "nothing was discarded");
        // The degenerate R = 1 geometry still flushes everything.
        let s1 = make(128).with_epoch_regions(1);
        assert_eq!(s1.epochs().regions(), 1);
        let mut c1: OwnedCache = OwnedCache::new();
        s1.check_write_cached(127, t[3], &mut c1).unwrap();
        s1.clear(0);
        assert_eq!(s1.check_write_cached(127, t[3], &mut c1), Ok(false));
        assert_eq!(
            c1.misses,
            2 * P::OWNED_CACHE as u64,
            "global epoch: the clear cost a refill"
        );
    }

    fn clear_thread_invalidates_via_epoch<P: WordProtocol>(
        make: impl Fn(usize) -> Shadow<P>,
        t: Tids,
    ) {
        let s = make(1);
        let mut c1: OwnedCache = OwnedCache::new();
        s.check_read_cached(0, t[0], &mut c1).unwrap();
        s.clear_thread(0, t[0]);
        // After the exit-clear the cached read entry is discarded and
        // the slow path re-installs.
        assert_eq!(s.check_read_cached(0, t[0], &mut c1), Ok(true));
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

    fn cached_range_repeat_sweep_is_one_stamp_compare<P: WordProtocol>(
        make: impl Fn(usize) -> Shadow<P>,
        t: Tids,
    ) {
        let s = make(64);
        let mut c: OwnedCache = OwnedCache::new();
        let mut newly = 0;
        let n = s.check_range_write_cached(0, 64, t[2], &mut c, |_| newly += 1, |_| {});
        assert_eq!((n, newly), (0, 64), "first sweep installs everything");
        let misses_after_fill = c.misses;
        for _ in 0..5 {
            let n = s.check_range_write_cached(0, 64, t[2], &mut c, |_| panic!(), |_| panic!());
            assert_eq!(n, 0);
            // Reads of a writable run ride the same summary slot.
            let n = s.check_range_read_cached(0, 64, t[2], &mut c, |_| panic!(), |_| panic!());
            assert_eq!(n, 0);
        }
        assert_eq!(c.misses, misses_after_fill, "repeat sweeps are run hits");
        // A clear inside the run discards the summary, and the refill
        // sees the intruder.
        s.clear(3);
        s.check_write(3, t[0]).unwrap();
        let mut conflicts = Vec::new();
        s.check_range_write_cached(0, 64, t[2], &mut c, |_| {}, |e| conflicts.push(e.granule));
        assert_eq!(conflicts, vec![3], "stale run cannot hide the intruder");
    }

    fn clear_inside_run_kills_it_clear_outside_does_not<P: WordProtocol>(
        make: impl Fn(usize) -> Shadow<P>,
        t: Tids,
    ) {
        // 128 granules over at least 64 regions: the run 0..8 and
        // granule 100 live in different regions.
        let s = make(128);
        let mut c: OwnedCache = OwnedCache::new();
        s.check_range_write_cached(0, 8, t[0], &mut c, |_| {}, |_| {});
        let baseline = c.misses;
        s.clear(100); // outside the run's regions
        s.check_range_write_cached(0, 8, t[0], &mut c, |_| {}, |_| {});
        assert_eq!(c.misses, baseline, "distant clear leaves the run live");
        s.clear(3); // inside
        let n = s.check_range_write_cached(0, 8, t[0], &mut c, |_| {}, |_| {});
        assert_eq!(n, 0);
        assert!(c.misses > baseline, "covered bump forced a re-sweep");
        // The re-swept run answers again.
        let m = c.misses;
        s.check_range_write_cached(0, 8, t[0], &mut c, |_| panic!(), |_| panic!());
        assert_eq!(c.misses, m);
    }

    fn cached_range_never_hides_a_conflict<P: WordProtocol>(
        make: impl Fn(usize) -> Shadow<P>,
        t: Tids,
    ) {
        let s = make(8);
        let mut c1: OwnedCache = OwnedCache::new();
        let mut c2: OwnedCache = OwnedCache::new();
        s.check_range_write_cached(0, 8, t[0], &mut c1, |_| {}, |_| {});
        // Thread 2 sweeps the same buffer: every granule conflicts,
        // and no run summary may be recorded for it.
        let mut conf = Vec::new();
        let n = s.check_range_write_cached(0, 8, t[1], &mut c2, |_| {}, |e| conf.push(e.granule));
        assert_eq!(n, 8);
        assert_eq!(conf, (0..8).collect::<Vec<_>>());
        let n = s.check_range_write_cached(0, 8, t[1], &mut c2, |_| {}, |_| {});
        assert_eq!(n, 8, "conflicting sweep was not summarised");
        // Thread 1's run is still valid (conflicts never install).
        s.check_range_write_cached(0, 8, t[0], &mut c1, |_| panic!(), |_| panic!());
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
        let mut cache: OwnedCache = OwnedCache::new();
        s.check_write_cached(0, ThreadId(1), &mut cache).unwrap();
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
