//! The owned-granule epoch cache: a per-thread, set-associative
//! table that lets repeated private accesses skip the shadow check
//! entirely.
//!
//! In the paper's workloads the overwhelmingly common case is a
//! thread re-touching dynamic-mode data it already owns (pfscan's
//! scan buffers, pbzip2's per-worker blocks). Where answering "is this
//! access already recorded?" from the shadow itself is expensive — the
//! sharded multi-word encoding snapshots every word of the granule
//! with `SeqCst` loads and runs the sharded step — this cache reduces
//! the steady state to one relaxed epoch load and one array probe.
//! Where the shadow answers in one load and one compare (the paper's
//! single word per granule) the probe is the dearer of the two and a
//! first touch pays a fill on top, so the runtime consults the
//! per-granule table only for protocols that declare it worthwhile
//! (`sharc_runtime::WordProtocol::OWNED_CACHE`); the VM keeps its own
//! instance. The run summaries below are used everywhere.
//!
//! ## Associativity
//!
//! The table is `WAYS`-way set-associative with `WAYS` a const
//! generic defaulting to 1 (direct-mapped — the paper-era
//! configuration). `OwnedCache<2>` halves conflict misses on
//! workloads whose working set aliases in the low index bits, at the
//! cost of one extra compare per probe; the `assoc/*` rows of
//! `crates/bench/benches/checker.rs` sweep associativity × slot-count
//! over the sharded shadow and record both in `BENCH_checker.json`.
//! Direct-mapped stays the default: on the streaming-scan patterns
//! the second compare costs more than the aliasing it saves (see
//! EXPERIMENTS.md).
//!
//! ## Soundness invariants
//!
//! The cache is *only* a fast path for verdicts that are already
//! decided by the shadow word; it never changes which conflicts
//! exist, only who pays to discover them. It rests on three
//! invariants of the unified state machine ([`crate::step`]):
//!
//! 1. **Conflicts never install.** Once thread `t` is the exclusive
//!    owner of a granule (word = `WRITER_FLAG | bit(t)`), any other
//!    thread's access is a conflict that leaves the word unchanged —
//!    so `t`'s ownership is stable until an explicit clear, and
//!    `t`'s own accesses can never newly conflict. Caching "I own
//!    g, skip the check" is therefore verdict-preserving: the
//!    *other* thread still runs the full check and still observes
//!    its conflict.
//! 2. **Read bits are monotone between clears.** If `t`'s read bit
//!    is set, reads by `t` can never conflict (reads only conflict
//!    with *another* thread's write flag, and installing a write
//!    flag over `t`'s read bit is itself a conflict, which does not
//!    install). So a cached read entry is valid as long as no clear
//!    intervened.
//! 3. **Every clear bumps the epoch of the granule's region.**
//!    `clear`, `clear_range`, and `clear_thread` (free, sharing
//!    casts, thread exit) increment the [`crate::EpochTable`]
//!    counter of the region(s) they touch. Each cache entry carries
//!    the region epoch it was filled under; an entry whose tag
//!    differs from the region's current epoch never answers. The
//!    region epoch is read *before* the slow-path check, so an entry
//!    can never be newer than the epoch guarding it — per region.
//!
//! Invariant 3 is the per-region refinement of PR 2's global rule.
//! Since the cache compares the caller-supplied region epoch against
//! the probed entry's own tag, entries in *other* regions are simply
//! never consulted by the comparison — they stay live across the
//! clear without any scan. The old whole-cache flush survives as the
//! `R = 1` degenerate [`crate::EpochTable::global`], where every
//! granule shares region 0 and one bump stales every entry at once.
//!
//! These invariants are stated for one shadow word but hold verbatim
//! for the sharded hybrid ([`crate::step::sharded`]): a passing
//! write leaves every *other* word empty and a conflicting intruder
//! installs nothing anywhere, so "I own g" remains stable across all
//! of a granule's words until an epoch-bumping clear.
//!
//! The one imprecision this admits is the same one any shadow-memory
//! tool has at a free/cast boundary: an access racing with the clear
//! itself may be judged against either side of the clear. The paper
//! accepts exactly this at `free`/`SCAST` boundaries.

/// Default number of cache entries (must be a power of two).
pub const DEFAULT_SLOTS: usize = 256;

/// Number of owned-*run* summary slots per cache (fully associative,
/// round-robin eviction). Each slot summarises one contiguous granule
/// run the thread swept with a passing ranged check, so a repeat
/// sweep over the same buffer is **one** stamp compare instead of
/// `len` probes. A handful of slots suffices: the target pattern is a
/// worker lapping the same few buffers (pfscan's scan window,
/// pbzip2's block, a VM bulk move), not a zoo of distinct ranges.
pub const RUN_SLOTS: usize = 4;

/// One owned-run summary: `key` packs the start granule and the
/// writable bit exactly like [`Slot::granule_key`] (`key == 0` =
/// empty), `len` is the run length in granules, and `stamp` is the
/// **covering constraint** — the sum of the epochs of every region
/// overlapping the run at fill time
/// ([`crate::EpochTable::epoch_sum_of_range`]). Epoch counters are
/// monotone, so the sums match iff *no* covered region was bumped
/// since the fill: a clear anywhere inside the run kills it, a clear
/// elsewhere leaves it live. Runs spanning several regions therefore
/// need no splitting — they store the constraint that covers them.
#[derive(Debug, Clone, Copy, Default)]
struct RunSlot {
    key: u64,
    len: u64,
    stamp: u64,
}

/// One 16-byte entry: `key` packs the granule and the cached right —
/// bit 0 is the *writable* flag, bits 1.. hold granule + 1 (`key ==
/// 0` = empty) — and `epoch` tags the entry with its region's epoch
/// at fill time. The packing keeps both probes a single integer
/// compare (a write probe matches `key` exactly; a read probe ORs in
/// bit 0 first, since a write entry always implies a read entry) and
/// keeps the slot at two words even with the per-region tag, so the
/// probe stride is what it was before regions existed. An entry
/// answers only when its `epoch` equals the region's current epoch.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: u64,
    epoch: u64,
}

impl Slot {
    /// The granule part of a key (bit 0 masked off).
    #[inline]
    fn granule_key(granule: usize) -> u64 {
        (granule as u64 + 1) << 1
    }
}

/// A per-thread owned-granule cache, `WAYS`-way set-associative
/// (default direct-mapped). Not shared between threads; the owning
/// thread's `ThreadCtx` (runtime) holds it by value.
#[derive(Debug, Clone)]
pub struct OwnedCache<const WAYS: usize = 1> {
    /// `sets × WAYS` entries; set `s`'s ways are contiguous at
    /// `s * WAYS`.
    slots: Box<[Slot]>,
    /// Round-robin eviction cursor per set (unused when `WAYS == 1`).
    victim: Box<[u8]>,
    /// Owned-run summaries (see [`RunSlot`]), fully associative.
    runs: [RunSlot; RUN_SLOTS],
    /// Round-robin eviction cursor for the run slots.
    run_victim: u8,
    /// Slow-path fills. Hits are *derived* (`accesses - misses`, the
    /// caller knows its access count): counting them directly would
    /// put a read-modify-write on the same word into every fast-path
    /// iteration — a loop-carried dependency through memory that
    /// costs more than the probe itself. Misses and flushes are
    /// updated only on the outlined cold paths, where they are free.
    pub misses: u64,
    /// Entries discarded because their region's epoch moved. Under
    /// the `R = 1` degenerate table this counts one per *entry*
    /// (where PR 2 counted one per whole-cache reset); under a real
    /// region table it counts exactly the collateral damage of
    /// clears — the quantity per-region epochs exist to minimise.
    pub flushes: u64,
}

impl<const WAYS: usize> Default for OwnedCache<WAYS> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const WAYS: usize> OwnedCache<WAYS> {
    /// Creates a cache with [`DEFAULT_SLOTS`] entries.
    pub fn new() -> Self {
        Self::with_slots(DEFAULT_SLOTS)
    }

    /// Creates a cache with `slots` total entries, organised into
    /// `slots / WAYS` sets (set count rounded up to a power of two,
    /// minimum 1).
    pub fn with_slots(slots: usize) -> Self {
        const { assert!(WAYS >= 1, "a cache needs at least one way") };
        let sets = (slots / WAYS).max(1).next_power_of_two();
        OwnedCache {
            slots: vec![Slot::default(); sets * WAYS].into_boxed_slice(),
            victim: vec![0u8; sets].into_boxed_slice(),
            runs: [RunSlot::default(); RUN_SLOTS],
            run_victim: 0,
            misses: 0,
            flushes: 0,
        }
    }

    /// Number of sets (power of two).
    #[inline]
    fn sets(&self) -> usize {
        self.slots.len() / WAYS
    }

    /// First entry of `granule`'s set.
    #[inline]
    fn base(&self, granule: usize) -> usize {
        (granule & (self.sets() - 1)) * WAYS
    }

    /// Answers whether `granule` is cached with sufficient rights for
    /// the access *under the current epoch of its region*. The caller
    /// reads `region_epoch` from the shadow's [`crate::EpochTable`]
    /// (a relaxed load) before probing; an entry filled under an
    /// older epoch of the same region fails the tag compare and is
    /// discarded on the outlined cold path — entries for granules in
    /// *other* regions are untouched, which is the whole point. The
    /// fast path stays tiny: one masked probe, `WAYS` key compares
    /// plus one epoch compare on the hit way (the loop fully
    /// unrolls: `WAYS` is a const), no stores.
    #[inline]
    pub fn lookup(&mut self, region_epoch: u64, granule: usize, is_write: bool) -> bool {
        let base = self.base(granule);
        let want = Slot::granule_key(granule) | 1;
        // One key compare per way either way (`is_write` is a
        // constant at every call site, and a read probe folds the
        // writable bit away with one OR), and deliberately no hit
        // counter: see the `misses` field for why the fast path
        // stays store-free.
        for w in 0..WAYS {
            let s = self.slots[base + w];
            let k = if is_write { s.key } else { s.key | 1 };
            if k == want {
                if s.epoch == region_epoch {
                    return true;
                }
                self.discard_stale(base + w);
                return false;
            }
        }
        false
    }

    /// The outlined stale-entry path: the probed entry's region moved
    /// on; drop it so a later fill re-checks against the new state.
    #[cold]
    #[inline(never)]
    fn discard_stale(&mut self, idx: usize) {
        self.slots[idx] = Slot::default();
        self.flushes += 1;
    }

    /// Records that the owning thread holds `granule` (exclusively if
    /// `writable`), tagged with `region_epoch`. Call only after the
    /// slow-path check passed and only with the epoch that
    /// [`OwnedCache::lookup`] was given — the region epoch must be
    /// read *before* the check, so the entry can never be newer than
    /// the epoch guarding it.
    #[inline]
    pub fn insert(&mut self, granule: usize, writable: bool, region_epoch: u64) {
        self.misses += 1;
        let base = self.base(granule);
        let gkey = Slot::granule_key(granule);
        let new_key = gkey | writable as u64;
        // Upgrade in place if the granule already occupies a way with
        // a current tag (a read never downgrades a write entry); a
        // stale resident for the same granule is replaced wholesale —
        // its old write right predates the region's clear.
        for w in 0..WAYS {
            let s = &mut self.slots[base + w];
            if (s.key | 1) == (gkey | 1) {
                if s.epoch == region_epoch {
                    s.key |= new_key & 1;
                } else {
                    *s = Slot {
                        key: new_key,
                        epoch: region_epoch,
                    };
                }
                return;
            }
        }
        // Prefer an empty way, else evict round-robin within the set.
        let mut way = None;
        for w in 0..WAYS {
            if self.slots[base + w].key == 0 {
                way = Some(w);
                break;
            }
        }
        let way = way.unwrap_or_else(|| {
            let set = base / WAYS;
            let v = self.victim[set] as usize % WAYS;
            self.victim[set] = self.victim[set].wrapping_add(1);
            v
        });
        self.slots[base + way] = Slot {
            key: new_key,
            epoch: region_epoch,
        };
    }

    /// Answers whether the exact run `start .. start + len` is cached
    /// with sufficient rights for the access, under the current
    /// covering epoch sum `stamp`. The caller computes `stamp` with
    /// [`crate::EpochTable::epoch_sum_of_range`] over the *same*
    /// granule range — and, as with [`OwnedCache::lookup`], reads it
    /// **before** any slow-path sweep whose result it might record.
    ///
    /// Matching is exact on `(start, len)`: the summary exists for
    /// the repeat-sweep pattern (the same buffer lapped again), and
    /// an exact match means the probe's stamp was computed over
    /// exactly the regions the entry's stamp covers, so one integer
    /// compare settles validity. A hit proves every granule in the
    /// run still records the access for the owning thread (cache
    /// invariants 1–2 per granule, the covering constraint for the
    /// clears), so the whole sweep can be skipped — no stores, no
    /// per-granule probes.
    #[inline]
    pub fn lookup_run(&mut self, stamp: u64, start: usize, len: usize, is_write: bool) -> bool {
        let want = (Slot::granule_key(start) | 1, len as u64);
        for i in 0..RUN_SLOTS {
            let r = self.runs[i];
            let k = if is_write { r.key } else { r.key | 1 };
            if (k, r.len) == want {
                if r.stamp == stamp {
                    return true;
                }
                self.discard_stale_run(i);
                return false;
            }
        }
        false
    }

    /// The outlined stale-run path: some region covered by the run
    /// was cleared since the fill; drop the summary so a later sweep
    /// re-checks against the new shadow state.
    #[cold]
    #[inline(never)]
    fn discard_stale_run(&mut self, idx: usize) {
        self.runs[idx] = RunSlot::default();
        self.flushes += 1;
    }

    /// Records that the owning thread holds the whole run
    /// `start .. start + len` (exclusively if `writable`), stamped
    /// with the covering epoch sum read *before* the sweep that
    /// proved it. Call only after a ranged slow path passed with
    /// **zero conflicts** — a run summary has no way to remember a
    /// conflicting granule inside it.
    #[inline]
    pub fn insert_run(&mut self, start: usize, len: usize, writable: bool, stamp: u64) {
        if len == 0 {
            return;
        }
        self.misses += 1;
        let gkey = Slot::granule_key(start);
        let new = RunSlot {
            key: gkey | writable as u64,
            len: len as u64,
            stamp,
        };
        // Upgrade / restamp in place when the same (start, len) run
        // is already resident; never downgrade a writable run with a
        // read-only refill under the same stamp.
        for i in 0..RUN_SLOTS {
            let r = &mut self.runs[i];
            if (r.key | 1) == (gkey | 1) && r.len == new.len {
                if r.stamp == stamp {
                    r.key |= new.key & 1;
                } else {
                    *r = new;
                }
                return;
            }
        }
        // Prefer an empty slot, else evict round-robin.
        let idx = (0..RUN_SLOTS)
            .find(|&i| self.runs[i].key == 0)
            .unwrap_or_else(|| {
                let v = self.run_victim as usize % RUN_SLOTS;
                self.run_victim = self.run_victim.wrapping_add(1);
                v
            });
        self.runs[idx] = new;
    }

    /// Drops every entry (e.g. at thread exit, before the shadow
    /// clears this thread's bits).
    pub fn invalidate_all(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = Slot::default());
        self.runs = [RunSlot::default(); RUN_SLOTS];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_same_epoch() {
        let mut c = OwnedCache::<1>::with_slots(8);
        assert!(!c.lookup(0, 5, true));
        c.insert(5, true, 0);
        assert!(c.lookup(0, 5, true));
        assert!(c.lookup(0, 5, false), "writable implies readable");
        assert_eq!(c.misses, 1, "hits never refill");
    }

    #[test]
    fn read_entry_does_not_authorize_writes() {
        let mut c = OwnedCache::<1>::with_slots(8);
        c.insert(3, false, 0);
        assert!(c.lookup(0, 3, false));
        assert!(!c.lookup(0, 3, true));
    }

    #[test]
    fn write_entry_survives_read_insert() {
        let mut c = OwnedCache::<1>::with_slots(8);
        c.insert(3, true, 0);
        c.insert(3, false, 0);
        assert!(c.lookup(0, 3, true), "no downgrade");
    }

    #[test]
    fn stale_region_epoch_discards_only_the_probed_entry() {
        let mut c = OwnedCache::<1>::with_slots(8);
        c.insert(1, true, 0);
        c.insert(2, true, 0);
        // Granule 1's region moved to epoch 7; granule 2's did not.
        assert!(!c.lookup(7, 1, true), "stale tag never answers");
        assert_eq!(c.flushes, 1, "one discard, not a whole-cache reset");
        assert!(
            c.lookup(0, 2, true),
            "entries in unaffected regions stay live — partial invalidation"
        );
        assert_eq!(c.flushes, 1);
    }

    #[test]
    fn r1_degeneracy_stales_every_entry() {
        // With a global (R = 1) table every granule shares one epoch,
        // so one bump makes every probe discard — the PR 2 behaviour,
        // now paid per entry instead of per reset.
        let mut c = OwnedCache::<1>::with_slots(8);
        c.insert(1, true, 0);
        c.insert(2, true, 0);
        assert!(!c.lookup(1, 1, true));
        assert!(!c.lookup(1, 2, true));
        assert_eq!(c.flushes, 2);
    }

    #[test]
    fn stale_entry_is_replaced_not_upgraded_by_insert() {
        let mut c = OwnedCache::<1>::with_slots(8);
        c.insert(3, true, 0);
        // Region cleared (epoch 1); the slow path re-ran and only a
        // read right survived. The old write tag must not resurface.
        c.insert(3, false, 1);
        assert!(c.lookup(1, 3, false));
        assert!(!c.lookup(1, 3, true), "pre-clear write right is dead");
    }

    #[test]
    fn direct_mapping_evicts_colliding_granules() {
        let mut c = OwnedCache::<1>::with_slots(4);
        c.insert(0, true, 0);
        c.insert(4, true, 0); // same set, one way
        assert!(!c.lookup(0, 0, true));
        assert!(c.lookup(0, 4, true));
    }

    #[test]
    fn two_way_keeps_both_aliasing_granules() {
        // The same trace that evicts under direct mapping keeps both
        // residents with two ways — the whole point of the sweep.
        let mut c = OwnedCache::<2>::with_slots(8); // 4 sets × 2 ways
        c.insert(0, true, 0);
        c.insert(4, true, 0); // same set, second way
        assert!(c.lookup(0, 0, true));
        assert!(c.lookup(0, 4, true));
        // A third alias evicts round-robin, not wholesale.
        c.insert(8, true, 0);
        assert!(c.lookup(0, 8, true));
        assert!(
            c.lookup(0, 0, true) ^ c.lookup(0, 4, true),
            "exactly one earlier resident survives"
        );
    }

    #[test]
    fn two_way_upgrade_finds_entry_in_either_way() {
        let mut c = OwnedCache::<2>::with_slots(8);
        c.insert(0, false, 0);
        c.insert(4, false, 0);
        c.insert(4, true, 0); // upgrade in place, second way
        assert!(c.lookup(0, 4, true));
        assert!(c.lookup(0, 0, false), "first way untouched");
        assert!(!c.lookup(0, 0, true));
    }

    #[test]
    fn run_hit_requires_exact_range_and_stamp() {
        let mut c = OwnedCache::<1>::with_slots(8);
        assert!(!c.lookup_run(7, 16, 64, true));
        c.insert_run(16, 64, true, 7);
        assert!(c.lookup_run(7, 16, 64, true));
        assert!(c.lookup_run(7, 16, 64, false), "writable implies readable");
        // Different start, different len, or moved stamp: no answer.
        assert!(!c.lookup_run(7, 17, 64, true));
        assert!(!c.lookup_run(7, 16, 63, true));
        assert!(!c.lookup_run(8, 16, 64, true), "covered region bumped");
        assert_eq!(c.flushes, 1, "the stale probe discarded the run");
        assert!(!c.lookup_run(8, 16, 64, true), "and it stays gone");
    }

    #[test]
    fn run_read_entry_does_not_authorize_writes() {
        let mut c = OwnedCache::<1>::with_slots(8);
        c.insert_run(0, 16, false, 0);
        assert!(c.lookup_run(0, 0, 16, false));
        assert!(!c.lookup_run(0, 0, 16, true));
        // Upgrading under the same stamp keeps one slot.
        c.insert_run(0, 16, true, 0);
        assert!(c.lookup_run(0, 0, 16, true));
        // A read refill never downgrades it.
        c.insert_run(0, 16, false, 0);
        assert!(c.lookup_run(0, 0, 16, true));
    }

    #[test]
    fn run_slots_evict_round_robin_and_invalidate() {
        let mut c = OwnedCache::<1>::with_slots(8);
        for i in 0..RUN_SLOTS {
            c.insert_run(i * 100, 10, true, 0);
        }
        for i in 0..RUN_SLOTS {
            assert!(c.lookup_run(0, i * 100, 10, true), "slot {i} resident");
        }
        c.insert_run(900, 10, true, 0); // evicts the round-robin victim
        assert!(c.lookup_run(0, 900, 10, true));
        let survivors = (0..RUN_SLOTS)
            .filter(|&i| c.lookup_run(0, i * 100, 10, true))
            .count();
        assert_eq!(survivors, RUN_SLOTS - 1, "exactly one eviction");
        c.invalidate_all();
        assert!(!c.lookup_run(0, 900, 10, true));
        // Zero-length runs are never recorded.
        c.insert_run(5, 0, true, 0);
        assert!(!c.lookup_run(0, 5, 0, true));
    }

    #[test]
    fn run_restamp_replaces_stale_rights() {
        let mut c = OwnedCache::<1>::with_slots(8);
        c.insert_run(4, 8, true, 0);
        // A covered region was cleared (stamp 1); the re-sweep only
        // proved read rights. The old write right must not resurface.
        c.insert_run(4, 8, false, 1);
        assert!(c.lookup_run(1, 4, 8, false));
        assert!(!c.lookup_run(1, 4, 8, true), "pre-clear right is dead");
    }

    #[test]
    fn two_way_stale_discard_and_invalidate() {
        let mut c = OwnedCache::<2>::with_slots(8);
        c.insert(1, true, 0);
        c.insert(5, true, 0);
        assert!(!c.lookup(3, 1, true), "epoch moved");
        assert!(!c.lookup(3, 5, true));
        assert_eq!(c.flushes, 2, "per-entry discards");
        c.insert(1, true, 3);
        c.invalidate_all();
        assert!(!c.lookup(3, 1, true));
    }
}
