//! A payload arena with attached shadow memory and pluggable access
//! policies, so the same workload code can run uninstrumented
//! (baseline) or with SharC's dynamic checks — the methodology behind
//! Table 1's "Time Orig./SharC" columns.

use crate::locks::{LockId, LockNotHeld, ThreadCtx};
use crate::shadow::{OneWord, Shadow, ShadowWord, WordProtocol};
use crate::sharded::{MultiWord, ShardedShadow};
use sharc_checker::step::Access;
use sharc_checker::ShadowGeometry;
use std::sync::atomic::{AtomicU64, Ordering};

/// Payload 8-byte words per shadow granule, derived from the one
/// workspace-wide granule definition (`sharc_checker::GRANULE_BYTES`
/// = the paper's 16 bytes) — re-exported at the crate root so
/// workloads can convert word spans to granule spans.
pub const GRANULE_WORDS: usize = sharc_checker::GRANULE_WORDS;

const _: () = assert!(
    GRANULE_WORDS * 8 == sharc_checker::GRANULE_BYTES,
    "arena words must tile the shared granule exactly"
);

/// The granule span `(first, len)` covered by payload words
/// `start .. start + words` (`words > 0`) — the ONE word-to-granule
/// conversion, so the ranged clear/check paths agree on coverage by
/// construction.
#[inline]
pub fn granule_span(start: usize, words: usize) -> (usize, usize) {
    let g0 = start / GRANULE_WORDS;
    let g1 = (start + words - 1) / GRANULE_WORDS;
    (g0, g1 - g0 + 1)
}

/// A word arena with shadow state, generic over the shadow's word
/// protocol: [`Arena::new`] is the paper's configuration (one shadow
/// byte per granule, 7 checked threads), [`Arena::for_threads`] the
/// sharded one for fleets past 63 threads.
#[derive(Debug)]
pub struct Arena<P: WordProtocol = OneWord> {
    data: Vec<AtomicU64>,
    shadow: Shadow<P>,
}

impl<W: ShadowWord> Arena<OneWord<W>> {
    /// Creates an arena of `n_words` zeroed 8-byte words over the
    /// single-word shadow.
    pub fn new(n_words: usize) -> Self {
        Self::over(n_words, Shadow::new)
    }
}

impl Arena<MultiWord> {
    /// Creates an arena of `n_words` zeroed words whose shadow keeps
    /// exact identities for up to `threads` checked tids (the
    /// geometry rounds up to whole 63-tid shards).
    pub fn for_threads(n_words: usize, threads: usize) -> Self {
        Self::with_geometry(n_words, ShadowGeometry::for_threads(threads))
    }

    /// Creates an arena over an explicit shadow geometry.
    pub fn with_geometry(n_words: usize, geom: ShadowGeometry) -> Self {
        Self::over(n_words, |granules| {
            ShardedShadow::with_geometry(granules, geom)
        })
    }
}

impl<P: WordProtocol> Arena<P> {
    /// `n_words` zeroed words over the shadow `shadow(n_granules)`
    /// builds.
    fn over(n_words: usize, shadow: impl FnOnce(usize) -> Shadow<P>) -> Self {
        let mut data = Vec::with_capacity(n_words);
        data.resize_with(n_words, AtomicU64::default);
        Arena {
            data,
            shadow: shadow(n_words.div_ceil(GRANULE_WORDS)),
        }
    }

    /// Number of payload words.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the arena holds no words.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes of shadow memory (the paper's memory overhead; a sharded
    /// geometry pays one extra word per granule per 63 tids).
    pub fn shadow_bytes(&self) -> usize {
        self.shadow.shadow_bytes()
    }

    /// Payload bytes.
    pub fn payload_bytes(&self) -> usize {
        self.data.len() * 8
    }

    /// An unchecked (baseline / private-mode) read.
    #[inline]
    pub fn read_unchecked(&self, i: usize) -> u64 {
        self.data[i].load(Ordering::Relaxed)
    }

    /// An unchecked (baseline / private-mode) write.
    #[inline]
    pub fn write_unchecked(&self, i: usize, v: u64) {
        self.data[i].store(v, Ordering::Relaxed);
    }

    /// The check half of every per-word dynamic access: count it, emit
    /// it, judge it, log a newly set bit for exit-time clearing.
    /// Conflicts are counted in `ctx` (logging mode) rather than
    /// aborting, like the tool's default reporting behaviour.
    #[inline]
    fn check_word(&self, ctx: &mut ThreadCtx, i: usize, access: Access) {
        ctx.checked_accesses += 1;
        let g = i / GRANULE_WORDS;
        ctx.emit_access(g, access.is_write());
        match self.shadow.check(g, ctx.tid, access) {
            Ok(true) => ctx.access_log.note(g),
            Ok(false) => {}
            Err(_) => ctx.conflicts += 1,
        }
    }

    /// The check half of every ranged dynamic access: ONE check over
    /// the whole granule span of `start .. start + words` (`words >
    /// 0`). The verdict is the fold of per-granule checks (see
    /// [`crate::Shadow::check_range`]), but conflicts are counted
    /// **per granule**, not per word: a per-word loop re-reports a
    /// conflicting granule for every word that touches it.
    ///
    /// The run is bound-checked before anything is recorded: a run
    /// past the last word must not leave a range event, counts or
    /// shadow bits behind when it panics.
    fn check_words(&self, ctx: &mut ThreadCtx, start: usize, words: usize, access: Access) {
        assert!(
            words <= self.data.len() && start <= self.data.len() - words,
            "word run out of range"
        );
        ctx.checked_accesses += words as u64;
        let (g0, glen) = granule_span(start, words);
        ctx.emit_range(g0, glen, access.is_write());
        let (tid, log) = (ctx.tid, &mut ctx.access_log);
        ctx.conflicts += self
            .shadow
            .check_range(g0, glen, tid, access, |g| log.note(g), |_| {});
    }

    /// A dynamic-mode read: `chkread` on the word's granule, then the
    /// load.
    #[inline]
    pub fn read_checked(&self, ctx: &mut ThreadCtx, i: usize) -> u64 {
        self.check_word(ctx, i, Access::Read);
        self.data[i].load(Ordering::Acquire)
    }

    /// A dynamic-mode write: `chkwrite`, then the store.
    #[inline]
    pub fn write_checked(&self, ctx: &mut ThreadCtx, i: usize, v: u64) {
        self.check_word(ctx, i, Access::Write);
        self.data[i].store(v, Ordering::Release);
    }

    /// A dynamic-mode **ranged** read: ONE `chkread` over the whole
    /// granule span of `start .. start + words`, then the loads —
    /// `each(i, value)` fires once per word.
    ///
    /// # Panics
    ///
    /// Panics, before recording anything, if the run reaches past the
    /// last word.
    pub fn read_range_checked(
        &self,
        ctx: &mut ThreadCtx,
        start: usize,
        words: usize,
        mut each: impl FnMut(usize, u64),
    ) {
        if words == 0 {
            return;
        }
        self.check_words(ctx, start, words, Access::Read);
        for i in start..start + words {
            each(i, self.data[i].load(Ordering::Acquire));
        }
    }

    /// A dynamic-mode **ranged** write: one `chkwrite` over the
    /// granule span, then the stores — word `i` receives `value(i)`.
    ///
    /// # Panics
    ///
    /// Panics, before recording anything, if the run reaches past the
    /// last word.
    pub fn write_range_checked(
        &self,
        ctx: &mut ThreadCtx,
        start: usize,
        words: usize,
        mut value: impl FnMut(usize) -> u64,
    ) {
        if words == 0 {
            return;
        }
        self.check_words(ctx, start, words, Access::Write);
        for i in start..start + words {
            self.data[i].store(value(i), Ordering::Release);
        }
    }

    /// Clears the shadow state covering `words` starting at `start`
    /// (used by `free` and after successful sharing casts): ONE
    /// word-level ranged clear, not a per-granule loop.
    pub fn clear_range(&self, start: usize, words: usize) {
        if words == 0 {
            return;
        }
        let (g0, glen) = granule_span(start, words);
        self.shadow.clear_range(g0, glen);
    }

    /// Thread exit: clears every shadow bit this thread set
    /// (non-overlapping lifetimes are not races). The access log is
    /// merged into disjoint runs first, so the thread pays one ranged
    /// clear per contiguous footprint.
    pub fn thread_exit(&self, ctx: &mut ThreadCtx) {
        let tid = ctx.tid;
        for (start, end) in ctx.access_log.drain_merged() {
            self.shadow.clear_thread_range(start, end - start, tid);
        }
        ctx.emit_exit();
    }

    /// Direct access to the shadow, for tests and detectors.
    pub fn shadow(&self) -> &Shadow<P> {
        &self.shadow
    }
}

/// How a workload touches memory: the baseline runs [`Unchecked`],
/// the SharC build runs [`Checked`] on its dynamic-mode data. Both
/// are zero-size and fully inlined, so the comparison measures
/// exactly the cost of the checks.
pub trait AccessPolicy: Copy + Send + 'static {
    const NAME: &'static str;
    fn read<P: WordProtocol>(arena: &Arena<P>, ctx: &mut ThreadCtx, i: usize) -> u64;
    fn write<P: WordProtocol>(arena: &Arena<P>, ctx: &mut ThreadCtx, i: usize, v: u64);

    /// One sweep reading words `start .. start + words`, `each(i, v)`
    /// per word. The default lowers to per-word [`AccessPolicy::read`]
    /// calls; checked policies override it with **one** ranged check
    /// per sweep — same verdicts, one shadow pass.
    #[inline]
    fn read_range<P: WordProtocol>(
        arena: &Arena<P>,
        ctx: &mut ThreadCtx,
        start: usize,
        words: usize,
        each: &mut dyn FnMut(usize, u64),
    ) {
        for i in start..start + words {
            each(i, Self::read(arena, ctx, i));
        }
    }

    /// One sweep writing `value(i)` to words `start .. start + words`.
    #[inline]
    fn write_range<P: WordProtocol>(
        arena: &Arena<P>,
        ctx: &mut ThreadCtx,
        start: usize,
        words: usize,
        value: &mut dyn FnMut(usize) -> u64,
    ) {
        for i in start..start + words {
            let v = value(i);
            Self::write(arena, ctx, i, v);
        }
    }

    /// The sharing cast (`SCAST`, Fig. 7) of words `start .. start +
    /// words`, whose one reference the caller is handing off: the
    /// words' history is forgotten, so the next owner starts clean.
    fn cast_range<P: WordProtocol>(arena: &Arena<P>, ctx: &ThreadCtx, start: usize, words: usize);

    /// The `locked(l)` check on an access to data `lock` protects.
    ///
    /// # Errors
    ///
    /// Returns [`LockNotHeld`] if a checking policy finds `lock`
    /// missing from the thread's held-lock log.
    fn check_held(ctx: &ThreadCtx, lock: LockId) -> Result<(), LockNotHeld>;
}

/// Baseline: no instrumentation at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unchecked;

impl AccessPolicy for Unchecked {
    const NAME: &'static str = "orig";
    #[inline(always)]
    fn read<P: WordProtocol>(arena: &Arena<P>, ctx: &mut ThreadCtx, i: usize) -> u64 {
        ctx.total_accesses += 1;
        arena.read_unchecked(i)
    }
    #[inline(always)]
    fn write<P: WordProtocol>(arena: &Arena<P>, ctx: &mut ThreadCtx, i: usize, v: u64) {
        ctx.total_accesses += 1;
        arena.write_unchecked(i, v);
    }
    #[inline]
    fn read_range<P: WordProtocol>(
        arena: &Arena<P>,
        ctx: &mut ThreadCtx,
        start: usize,
        words: usize,
        each: &mut dyn FnMut(usize, u64),
    ) {
        ctx.total_accesses += words as u64;
        for i in start..start + words {
            each(i, arena.read_unchecked(i));
        }
    }
    #[inline]
    fn write_range<P: WordProtocol>(
        arena: &Arena<P>,
        ctx: &mut ThreadCtx,
        start: usize,
        words: usize,
        value: &mut dyn FnMut(usize) -> u64,
    ) {
        ctx.total_accesses += words as u64;
        for i in start..start + words {
            arena.write_unchecked(i, value(i));
        }
    }
    /// Nothing: the baseline keeps no history to forget.
    #[inline(always)]
    fn cast_range<P: WordProtocol>(_: &Arena<P>, _: &ThreadCtx, _: usize, _: usize) {}
    /// Nothing: the baseline trusts the lock discipline.
    #[inline(always)]
    fn check_held(_: &ThreadCtx, _: LockId) -> Result<(), LockNotHeld> {
        Ok(())
    }
}

/// SharC dynamic-mode checking.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checked;

impl AccessPolicy for Checked {
    const NAME: &'static str = "sharc";
    #[inline(always)]
    fn read<P: WordProtocol>(arena: &Arena<P>, ctx: &mut ThreadCtx, i: usize) -> u64 {
        ctx.total_accesses += 1;
        arena.read_checked(ctx, i)
    }
    #[inline(always)]
    fn write<P: WordProtocol>(arena: &Arena<P>, ctx: &mut ThreadCtx, i: usize, v: u64) {
        ctx.total_accesses += 1;
        arena.write_checked(ctx, i, v);
    }
    #[inline]
    fn read_range<P: WordProtocol>(
        arena: &Arena<P>,
        ctx: &mut ThreadCtx,
        start: usize,
        words: usize,
        each: &mut dyn FnMut(usize, u64),
    ) {
        ctx.total_accesses += words as u64;
        arena.read_range_checked(ctx, start, words, each);
    }
    #[inline]
    fn write_range<P: WordProtocol>(
        arena: &Arena<P>,
        ctx: &mut ThreadCtx,
        start: usize,
        words: usize,
        value: &mut dyn FnMut(usize) -> u64,
    ) {
        ctx.total_accesses += words as u64;
        arena.write_range_checked(ctx, start, words, value);
    }
    /// Records ONE [`sharc_checker::CheckEvent::RangeCast`] over the
    /// words' granule span, then clears that span's shadow.
    fn cast_range<P: WordProtocol>(arena: &Arena<P>, ctx: &ThreadCtx, start: usize, words: usize) {
        if words == 0 {
            return;
        }
        let (g0, glen) = granule_span(start, words);
        ctx.emit_range_cast(g0, glen);
        arena.shadow.clear_range(g0, glen);
    }
    /// Records the [`sharc_checker::CheckEvent::LockedAccess`], then
    /// looks `lock` up in the held-lock log.
    fn check_held(ctx: &ThreadCtx, lock: LockId) -> Result<(), LockNotHeld> {
        ctx.emit(sharc_checker::CheckEvent::LockedAccess {
            tid: ctx.tid.0,
            lock: lock.0,
        });
        ctx.assert_held(lock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::ThreadId;
    use sharc_checker::{replay, BitmapBackend, CheckEvent, EventLog};
    use sharc_testkit::gen;
    use sharc_testkit::prop::Config;
    use sharc_testkit::{forall, prop_assert};
    use std::sync::Arc;

    /// Four tids a generic test may use: ids the one-byte shadow can
    /// hold, or ids that land in four different shards.
    type Tids = [ThreadId; 4];
    const NARROW: Tids = [ThreadId(1), ThreadId(2), ThreadId(3), ThreadId(4)];
    const CROSS_SHARD: Tids = [ThreadId(1), ThreadId(70), ThreadId(140), ThreadId(250)];

    /// Runs each named generic test body on the paper's arena (one
    /// shadow byte per granule) and on the five-shard arena with tids
    /// in four different shards.
    macro_rules! on_both_protocols {
        ($($body:ident),* $(,)?) => {
            mod one_word {
                use super::*;
                $(#[test] fn $body() { super::$body(Arena::<OneWord>::new, NARROW); })*
            }
            mod five_shards {
                use super::*;
                $(#[test] fn $body() {
                    super::$body(|n| Arena::for_threads(n, 256), CROSS_SHARD);
                })*
            }
        };
    }

    on_both_protocols!(
        checked_single_thread_no_conflicts,
        checked_cross_thread_write_conflicts,
        thread_exit_enables_reuse,
        clear_range_covers_granules,
        coalesced_thread_exit_matches_per_granule_clear,
        false_sharing_at_16_byte_granularity,
        policies_are_equivalent_functionally,
        ranged_sweep_data_and_verdicts_match_per_word_loop,
        ranged_sweep_counts_conflicting_granules_once,
        repeat_sweeps_are_clean_until_a_free_lets_a_thief_in,
        ranged_policies_agree_with_per_word_policies,
        ranged_sweeps_emit_range_events_that_replay_clean,
        concurrent_partitioned_checked_access_is_clean,
        thread_exit_equals_the_per_granule_log_fold,
        reinstalling_one_block_between_casts_keeps_the_log_flat,
    );

    #[test]
    fn unchecked_cast_range_neither_records_nor_clears() {
        let a: Arena = Arena::new(8);
        let log = Arc::new(EventLog::new());
        let mut ctx = ThreadCtx::with_sink(ThreadId(1), log.clone());
        a.write_range_checked(&mut ctx, 0, 8, |_| 1);
        let before: Vec<_> = (0..4).map(|g| a.shadow.raw(g)).collect();
        log.take();
        Unchecked::cast_range(&a, &ctx, 0, 8);
        assert!(log.is_empty(), "{:?}", log.snapshot());
        assert_eq!((0..4).map(|g| a.shadow.raw(g)).collect::<Vec<_>>(), before);
        assert!(before.iter().all(|&w| w != 0));
    }

    #[test]
    fn a_sweep_past_the_last_word_panics_before_it_records() {
        // 20 words, 10 granules: the second shadow word's lanes 2..8
        // are padding, and words 16..24 would reach two of them.
        let a: Arena = Arena::new(20);
        let log = Arc::new(EventLog::new());
        let mut ctx = ThreadCtx::with_sink(ThreadId(1), log.clone());
        let sweep = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.write_range_checked(&mut ctx, 16, 8, |_| 1);
        }));
        let msg = sweep.expect_err("the sweep must panic");
        assert_eq!(msg.downcast_ref::<&str>(), Some(&"word run out of range"));
        assert!(log.is_empty(), "{:?}", log.snapshot());
        assert_eq!((ctx.checked_accesses, ctx.access_log.len()), (0, 0));
        assert!((0..a.shadow.len()).all(|g| a.shadow.raw(g) == 0));
    }

    #[test]
    fn checked_cast_range_records_one_range_cast_and_clears_the_span() {
        let a: Arena = Arena::new(16);
        let log = Arc::new(EventLog::new());
        let mut ctx = ThreadCtx::with_sink(ThreadId(2), log.clone());
        a.write_range_checked(&mut ctx, 0, 16, |_| 1);
        log.take();
        // Words 3..9 straddle granules 1..=4 at both ends.
        let (start, words) = (3, 6);
        let (granule, len) = granule_span(start, words);
        assert_eq!((granule, len), (1, 4));
        Checked::cast_range(&a, &ctx, start, words);
        assert_eq!(
            log.take(),
            vec![CheckEvent::RangeCast {
                tid: 2,
                granule,
                len,
                refs: 1
            }]
        );
        for g in 0..a.shadow.len() {
            let cleared = (granule..granule + len).contains(&g);
            assert_eq!(a.shadow.raw(g) == 0, cleared, "granule {g}");
        }
    }

    #[test]
    fn check_held_fails_without_the_lock_and_records_the_access() {
        let locks = crate::locks::LockRegistry::new(2);
        let log = Arc::new(EventLog::new());
        let mut ctx = ThreadCtx::with_sink(ThreadId(4), log.clone());
        let (held, other) = (LockId(0), LockId(1));
        locks.lock(&mut ctx, held);
        log.take();
        assert_eq!(Checked::check_held(&ctx, held), Ok(()));
        assert_eq!(
            Checked::check_held(&ctx, other),
            Err(LockNotHeld {
                lock: other,
                tid: ThreadId(4)
            })
        );
        let locked = |lock: LockId| CheckEvent::LockedAccess {
            tid: 4,
            lock: lock.0,
        };
        assert_eq!(log.take(), vec![locked(held), locked(other)]);
        // The baseline checks nothing and records nothing.
        assert_eq!(Unchecked::check_held(&ctx, other), Ok(()));
        assert!(log.is_empty());
        locks.unlock(&mut ctx, held);
    }

    #[test]
    fn unchecked_roundtrip() {
        let a: Arena = Arena::new(8);
        a.write_unchecked(3, 42);
        assert_eq!(a.read_unchecked(3), 42);
        assert_eq!(a.payload_bytes(), 64);
        assert_eq!(a.shadow_bytes(), 4, "1 shadow byte per 16 payload bytes");
        let wide = Arena::for_threads(8, 256);
        assert_eq!(wide.shadow_bytes(), 4 * 5 * 8, "5 shards");
    }

    fn checked_single_thread_no_conflicts<P: WordProtocol>(
        make: impl Fn(usize) -> Arena<P>,
        t: Tids,
    ) {
        let a = make(8);
        let mut ctx = ThreadCtx::new(t[3]);
        a.write_checked(&mut ctx, 0, 1);
        assert_eq!(a.read_checked(&mut ctx, 0), 1);
        assert_eq!(ctx.conflicts, 0);
        assert_eq!(ctx.checked_accesses, 2);
    }

    fn checked_cross_thread_write_conflicts<P: WordProtocol>(
        make: impl Fn(usize) -> Arena<P>,
        t: Tids,
    ) {
        let a = make(2);
        let mut c1 = ThreadCtx::new(t[0]);
        let mut c2 = ThreadCtx::new(t[3]);
        a.write_checked(&mut c1, 0, 1);
        assert_eq!(c1.conflicts, 0);
        a.write_checked(&mut c2, 0, 2);
        assert_eq!(c2.conflicts, 1);
    }

    fn thread_exit_enables_reuse<P: WordProtocol>(make: impl Fn(usize) -> Arena<P>, t: Tids) {
        let a = make(2);
        let mut c1 = ThreadCtx::new(t[1]);
        a.write_checked(&mut c1, 0, 1);
        a.thread_exit(&mut c1);
        let mut c2 = ThreadCtx::new(t[2]);
        a.write_checked(&mut c2, 0, 2);
        assert_eq!(c2.conflicts, 0, "exited writer's bits are gone");
    }

    fn clear_range_covers_granules<P: WordProtocol>(make: impl Fn(usize) -> Arena<P>, t: Tids) {
        // The sharing cast: the old owner's sweep is forgotten and
        // the new owner reads and writes the buffer cleanly.
        let a = make(8);
        let mut c1 = ThreadCtx::new(t[0]);
        for i in 0..8 {
            a.write_checked(&mut c1, i, i as u64);
        }
        a.clear_range(0, 8);
        let mut c2 = ThreadCtx::new(t[3]);
        a.read_range_checked(&mut c2, 0, 8, |_, _| {});
        a.write_range_checked(&mut c2, 0, 8, |i| i as u64 + 1);
        assert_eq!(c2.conflicts, 0);
        // The old owner lost the buffer with the cast.
        a.write_checked(&mut c1, 0, 9);
        assert_eq!(c1.conflicts, 1);
    }

    fn coalesced_thread_exit_matches_per_granule_clear<P: WordProtocol>(
        make: impl Fn(usize) -> Arena<P>,
        t: Tids,
    ) {
        // `thread_exit` merges the run log and clears the runs with
        // `clear_thread_range`; the final shadow words must be
        // bit-identical to the per-granule `clear_thread` fold over
        // the logged granules — including granules another thread
        // still reads.
        let drive = |a: &Arena<P>| -> (ThreadCtx, ThreadCtx) {
            let mut c1 = ThreadCtx::new(t[0]);
            let mut c2 = ThreadCtx::new(t[1]);
            // Two disjoint runs, logged out of order and with
            // duplicates (read-then-write installs a granule twice).
            for i in (20..28).rev() {
                a.write_checked(&mut c1, i, i as u64);
            }
            for i in 4..8 {
                let _ = a.read_checked(&mut c1, i);
                a.write_checked(&mut c1, i, i as u64);
            }
            // Thread 2 shares reads on the start of the first run:
            // its reader bits must survive thread 1's exit.
            for i in 0..4 {
                let _ = a.read_checked(&mut c1, i);
                let _ = a.read_checked(&mut c2, i);
            }
            (c1, c2)
        };
        let (coalesced, folded) = (make(32), make(32));
        let (mut exit_c1, _keep2) = drive(&coalesced);
        let (fold_c1, _keep2b) = drive(&folded);
        let logged = fold_c1.access_log.granules();
        assert_eq!(exit_c1.access_log.granules(), logged);
        assert_eq!(logged, (0..4).chain(10..14).collect::<Vec<_>>());
        coalesced.thread_exit(&mut exit_c1);
        // The per-granule semantics: one clear per logged granule.
        for g in logged {
            folded.shadow.clear_thread(g, t[0]);
        }
        for g in 0..16 {
            assert_eq!(
                coalesced.shadow.raw(g),
                folded.shadow.raw(g),
                "granule {g} diverged"
            );
        }
        assert_eq!(exit_c1.access_log.len(), 0, "exit drains the log");
        // Thread 2 still reads granules 0..2; everything else thread 1
        // touched is free again.
        let mut c3 = ThreadCtx::new(t[2]);
        coalesced.write_range_checked(&mut c3, 0, 28, |_| 0);
        assert_eq!(c3.conflicts, 2, "only the surviving reader's granules");
    }

    fn false_sharing_at_16_byte_granularity<P: WordProtocol>(
        make: impl Fn(usize) -> Arena<P>,
        t: Tids,
    ) {
        // Words 0 and 1 share a granule: distinct objects, same
        // 16-byte chunk — the §4.5 false-positive source.
        let a = make(2);
        let mut c1 = ThreadCtx::new(t[0]);
        let mut c2 = ThreadCtx::new(t[1]);
        a.write_checked(&mut c1, 0, 1);
        a.write_checked(&mut c2, 1, 2);
        assert_eq!(c2.conflicts, 1, "false sharing detected as a conflict");
        assert_eq!(a.read_unchecked(0), 1);
    }

    fn policies_are_equivalent_functionally<P: WordProtocol>(
        make: impl Fn(usize) -> Arena<P>,
        t: Tids,
    ) {
        fn sum<A: AccessPolicy, P: WordProtocol>(a: &Arena<P>, ctx: &mut ThreadCtx) -> u64 {
            for i in 0..16 {
                A::write(a, ctx, i, i as u64);
            }
            (0..16).map(|i| A::read(a, ctx, i)).sum()
        }
        let a = make(16);
        let mut ctx = ThreadCtx::new(t[2]);
        assert_eq!(sum::<Unchecked, P>(&a, &mut ctx), 120);
        assert_eq!(sum::<Checked, P>(&a, &mut ctx), 120);
        assert_eq!(ctx.total_accesses, 64);
        assert_eq!(ctx.checked_accesses, 32);
        assert_eq!(ctx.conflicts, 0);
    }

    fn ranged_sweep_data_and_verdicts_match_per_word_loop<P: WordProtocol>(
        make: impl Fn(usize) -> Arena<P>,
        t: Tids,
    ) {
        // Same payload and shadow outcome through the ranged path as
        // through the word loop; conflicts are per granule.
        let (a, b) = (make(32), make(32));
        let mut ca = ThreadCtx::new(t[1]);
        let mut cb = ThreadCtx::new(t[1]);
        for i in 0..32 {
            a.write_checked(&mut ca, i, i as u64 * 3);
        }
        b.write_range_checked(&mut cb, 0, 32, |i| i as u64 * 3);
        assert_eq!(ca.conflicts, 0);
        assert_eq!(cb.conflicts, 0);
        let mut sa = 0u64;
        let mut sb = 0u64;
        for i in 0..32 {
            sa += a.read_checked(&mut ca, i);
        }
        b.read_range_checked(&mut cb, 0, 32, |i, v| {
            assert_eq!(v, i as u64 * 3);
            sb += v;
        });
        assert_eq!(sa, sb);
        assert_eq!(ca.checked_accesses, cb.checked_accesses);
        // Both record ownership of the same granules.
        assert_eq!(ca.access_log.granules(), cb.access_log.granules());
    }

    fn ranged_sweep_counts_conflicting_granules_once<P: WordProtocol>(
        make: impl Fn(usize) -> Arena<P>,
        t: Tids,
    ) {
        let a = make(8);
        let mut intruder = ThreadCtx::new(t[1]);
        a.write_checked(&mut intruder, 2, 9); // owns granule 1
        let mut ctx = ThreadCtx::new(t[0]);
        a.write_range_checked(&mut ctx, 0, 8, |_| 0);
        assert_eq!(ctx.conflicts, 1, "granule 1 conflicts exactly once");
        // The per-word loop reports it once per word instead.
        let mut ctx2 = ThreadCtx::new(t[2]);
        for i in 0..8 {
            a.write_checked(&mut ctx2, i, 0);
        }
        assert!(ctx2.conflicts >= 2, "per-word re-reports the granule");
    }

    fn repeat_sweeps_are_clean_until_a_free_lets_a_thief_in<P: WordProtocol>(
        make: impl Fn(usize) -> Arena<P>,
        t: Tids,
    ) {
        let a = make(256);
        let mut ctx = ThreadCtx::new(t[3]);
        a.write_range_checked(&mut ctx, 0, 256, |i| i as u64);
        for rep in 0..20 {
            a.write_range_checked(&mut ctx, 0, 256, |i| i as u64 + rep);
            let mut sum = 0u64;
            a.read_range_checked(&mut ctx, 0, 256, |_, v| sum += v);
        }
        assert_eq!(ctx.conflicts, 0);
        // A free inside the buffer hands granule 2 to a thief; the
        // next sweep sees the new owner's conflict.
        a.clear_range(4, 2);
        let mut thief = ThreadCtx::new(t[0]);
        a.write_checked(&mut thief, 4, 1);
        a.write_range_checked(&mut ctx, 0, 256, |i| i as u64);
        assert_eq!(ctx.conflicts, 1, "the sweep cannot miss the thief");
    }

    fn ranged_policies_agree_with_per_word_policies<P: WordProtocol>(
        make: impl Fn(usize) -> Arena<P>,
        t: Tids,
    ) {
        fn sweep<A: AccessPolicy, P: WordProtocol>(a: &Arena<P>, ctx: &mut ThreadCtx) -> u64 {
            A::write_range(a, ctx, 0, 16, &mut |i| i as u64);
            let mut sum = 0;
            A::read_range(a, ctx, 0, 16, &mut |_, v| sum += v);
            sum
        }
        let a = make(16);
        let mut ctx = ThreadCtx::new(t[1]);
        assert_eq!(sweep::<Unchecked, P>(&a, &mut ctx), 120);
        assert_eq!(sweep::<Checked, P>(&a, &mut ctx), 120);
        assert_eq!(ctx.conflicts, 0);
        assert_eq!(ctx.total_accesses, 64);
    }

    fn ranged_sweeps_emit_range_events_that_replay_clean<P: WordProtocol>(
        make: impl Fn(usize) -> Arena<P>,
        t: Tids,
    ) {
        let a = make(8);
        let log = Arc::new(EventLog::new());
        let tid = t[3].0;
        let mut ctx = ThreadCtx::with_sink(t[3], log.clone());
        a.write_range_checked(&mut ctx, 0, 8, |i| i as u64);
        a.read_range_checked(&mut ctx, 0, 8, |_, _| {});
        Checked::write(&a, &mut ctx, 0, 42);
        a.thread_exit(&mut ctx);
        let (granule, len) = (0, 4);
        let evs = log.snapshot();
        assert_eq!(
            evs,
            vec![
                CheckEvent::RangeWrite { tid, granule, len },
                CheckEvent::RangeRead { tid, granule, len },
                CheckEvent::Write { tid, granule },
                CheckEvent::ThreadExit { tid },
            ]
        );
        assert!(replay(&evs, &mut BitmapBackend::new()).is_empty());
    }

    fn concurrent_partitioned_checked_access_is_clean<P: WordProtocol>(
        make: impl Fn(usize) -> Arena<P>,
        t: Tids,
    ) {
        let a = make(64);
        let conflicts: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = t
                .into_iter()
                .enumerate()
                .map(|(part, tid)| {
                    let a = &a;
                    scope.spawn(move || {
                        let mut ctx = ThreadCtx::new(tid);
                        for i in 0..16 {
                            a.write_checked(&mut ctx, part * 16 + i, i as u64);
                        }
                        let c = ctx.conflicts;
                        a.thread_exit(&mut ctx);
                        c
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(conflicts, 0);
    }

    // ----- the run log -----

    #[derive(Debug, Clone, Copy)]
    enum LogOp {
        /// `words` words from `start` by thread `who`; one word is a
        /// per-word access, more are one ranged sweep.
        Access {
            who: usize,
            start: usize,
            words: usize,
            access: Access,
        },
        Cast {
            start: usize,
            words: usize,
        },
        Exit {
            who: usize,
        },
    }

    fn thread_exit_equals_the_per_granule_log_fold<P: WordProtocol>(
        make: impl Fn(usize) -> Arena<P>,
        t: Tids,
    ) {
        // The run log is an encoding of the per-granule install log:
        // for any sequence of accesses, casts and exits, an arena
        // driven through the public entry points and `thread_exit`
        // ends every exit with the shadow of a model that pushes one
        // entry per install and clears them one `clear_thread` each.
        const WORDS: usize = 48;
        let span = || {
            gen::pair(gen::usize_range(0..WORDS), gen::usize_range(1..13))
                .map(|&(start, words)| (start, words.min(WORDS - start)))
        };
        let who = || gen::usize_range(0..3);
        let access =
            gen::triple(who(), span(), gen::bool_any()).map(|&(who, (start, words), write)| {
                LogOp::Access {
                    who,
                    start,
                    words,
                    access: if write { Access::Write } else { Access::Read },
                }
            });
        let ops = gen::one_of(vec![
            access.clone(),
            access.clone(),
            access,
            span().map(|&(start, words)| LogOp::Cast { start, words }),
            who().map(|&who| LogOp::Exit { who }),
        ]);
        forall!(
            "thread_exit_equals_the_per_granule_log_fold",
            Config::from_env().at_least(128),
            gen::vec_of(ops, 0..64),
            |ops| {
                let (a, model) = (make(WORDS), make(WORDS));
                let mut ctxs: Vec<ThreadCtx> = t.iter().map(|&tid| ThreadCtx::new(tid)).collect();
                let mut logs: Vec<Vec<usize>> = vec![Vec::new(); ctxs.len()];
                for (i, &op) in ops.iter().enumerate() {
                    match op {
                        LogOp::Access {
                            who,
                            start,
                            words,
                            access,
                        } => {
                            let ctx = &mut ctxs[who];
                            match (words, access) {
                                (1, Access::Read) => drop(a.read_checked(ctx, start)),
                                (1, Access::Write) => a.write_checked(ctx, start, 0),
                                (_, Access::Read) => {
                                    a.read_range_checked(ctx, start, words, |_, _| {})
                                }
                                (_, Access::Write) => {
                                    a.write_range_checked(ctx, start, words, |_| 0)
                                }
                            }
                            let (g0, glen) = granule_span(start, words);
                            for g in g0..g0 + glen {
                                if model.shadow.check(g, t[who], access) == Ok(true) {
                                    logs[who].push(g);
                                }
                            }
                        }
                        LogOp::Cast { start, words } => {
                            a.clear_range(start, words);
                            model.clear_range(start, words);
                        }
                        LogOp::Exit { who } => {
                            let mut logged = std::mem::take(&mut logs[who]);
                            logged.sort_unstable();
                            logged.dedup();
                            prop_assert!(
                                ctxs[who].access_log.granules() == logged,
                                "op {}: the runs cover {:?}, the installs were {:?}",
                                i,
                                ctxs[who].access_log.granules(),
                                logged
                            );
                            a.thread_exit(&mut ctxs[who]);
                            for g in logged {
                                model.shadow.clear_thread(g, t[who]);
                            }
                        }
                    }
                    // Every word, as far as any thread can tell.
                    for g in 0..a.shadow.len() {
                        prop_assert!(
                            a.shadow.raw(g) == model.shadow.raw(g),
                            "op {} ({:?}): granule {} is {:#x}, the fold's {:#x}",
                            i,
                            op,
                            g,
                            a.shadow.raw(g),
                            model.shadow.raw(g)
                        );
                        for &tid in &t {
                            for access in [Access::Read, Access::Write] {
                                prop_assert!(
                                    a.shadow.words().recorded(g, tid, access)
                                        == model.shadow.words().recorded(g, tid, access),
                                    "op {} ({:?}): granule {} differs for {:?} {:?}",
                                    i,
                                    op,
                                    g,
                                    tid,
                                    access
                                );
                            }
                        }
                    }
                }
            }
        );
    }

    fn reinstalling_one_block_between_casts_keeps_the_log_flat<P: WordProtocol>(
        make: impl Fn(usize) -> Arena<P>,
        t: Tids,
    ) {
        // The hand-off's hot loop: fill a block, cast it away, fill it
        // again. Every round re-installs every granule of the block,
        // and a log of installs grows by the block each round; the run
        // log has seen those granules before and stays where it was.
        const BLOCK_WORDS: usize = 4;
        let a = make(BLOCK_WORDS);
        let mut ctx = ThreadCtx::new(t[0]);
        let mut longest = 0;
        for round in 0..1_000_000u64 {
            for i in 0..BLOCK_WORDS {
                a.write_checked(&mut ctx, i, round);
            }
            a.clear_range(0, BLOCK_WORDS);
            longest = longest.max(ctx.access_log.len());
        }
        assert_eq!(ctx.conflicts, 0);
        assert_eq!(longest, 1, "one block, one run, however many rounds");
    }
}
