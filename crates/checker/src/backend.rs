//! The pluggable check-engine interface.
//!
//! A [`CheckBackend`] is anything that can answer SharC's four
//! runtime checks — `chkread` and `chkwrite` (one [`CheckBackend::check`]
//! whose [`Access`] says which), `lock_held`, `oneref` — while being
//! kept current with the synchronization and lifecycle events those
//! checks depend on. Three engines implement it:
//!
//! * [`BitmapBackend`] (here) — the paper's own engine: the pure
//!   bitmap state machine from [`crate::step`] over a growable word
//!   store, with per-thread access logs and a [`HeldLocks`] log. Two
//!   clients judge through it and keep no shadow state of their own:
//!   `sharc-interp`'s VM, and its §3 formal model (`formal`), where
//!   every `chkread` / `chkwrite` / `oneref` / held-lock guard that
//!   `explore` runs on every interleaving is a call on this engine.
//! * `sharc-detectors`' `Eraser` (locksets) and `VcDetector`
//!   (happens-before), which implement the trait themselves, so
//!   `sharc run --detector sharc|eraser|vc` judges *one* seeded
//!   execution with any engine.
//!
//! [`CheckEvent`] is the only event vocabulary in the workspace: the
//! VM, the native workloads and both trace codecs produce it, and
//! [`replay`] drives it through a backend and collects every conflict
//! — the workhorse of the differential tests and of the CLI's
//! `--detector` switch.

use crate::geometry::{ShadowGeometry, MAX_TID};
use crate::runlog::RunLog;
use crate::step::{bitmap, range, sharded, sharded::ShardStep, Access};
use std::hash::{Hash, Hasher};

/// Which check a conflict came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckKind {
    /// A `chkread` that raced with another thread's write.
    Read,
    /// A `chkwrite` that raced with another thread's access.
    Write,
    /// A `locked(l)` access without `l` held.
    Lock,
    /// A sharing cast on an object with other live references.
    OneRef,
}

/// A failed runtime check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conflict {
    pub kind: CheckKind,
    /// The thread performing the failing access.
    pub tid: u32,
    /// The granule (or, for [`CheckKind::Lock`], the lock id).
    pub granule: usize,
}

/// The conflict kind of a failed `chkread` or `chkwrite`.
impl From<Access> for CheckKind {
    #[inline]
    fn from(access: Access) -> Self {
        match access {
            Access::Read => CheckKind::Read,
            Access::Write => CheckKind::Write,
        }
    }
}

/// The report heading of each kind, as the paper's tool prints it.
impl std::fmt::Display for CheckKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CheckKind::Read => "read conflict",
            CheckKind::Write => "write conflict",
            CheckKind::Lock => "lock not held",
            CheckKind::OneRef => "sharing cast failed",
        })
    }
}

impl std::fmt::Display for Conflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Conflict { kind, tid, granule } = *self;
        match kind {
            CheckKind::Lock => write!(f, "lock {granule} not held (thread {tid})"),
            _ => write!(f, "{kind} at granule {granule} (thread {tid})"),
        }
    }
}

/// The outcome of one runtime check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Fail(Conflict),
}

impl Verdict {
    /// True if the check failed.
    #[inline]
    pub fn is_conflict(self) -> bool {
        matches!(self, Verdict::Fail(_))
    }

    /// The conflict, if the check failed.
    #[inline]
    pub fn conflict(self) -> Option<Conflict> {
        match self {
            Verdict::Pass => None,
            Verdict::Fail(c) => Some(c),
        }
    }
}

/// One entry of an execution trace at check granularity — the
/// vocabulary shared by every engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckEvent {
    /// A dynamic-mode read of `granule` (`chkread`).
    Read {
        tid: u32,
        granule: usize,
    },
    /// A dynamic-mode write of `granule` (`chkwrite`).
    Write {
        tid: u32,
        granule: usize,
    },
    /// A ranged dynamic-mode read of `len` contiguous granules
    /// starting at `granule` — one event per buffer sweep. [`replay`]
    /// **lowers** it to `len` per-granule `chkread`s for *every*
    /// backend, so the fold contract holds by construction: a range
    /// event's verdicts (SharC, Eraser, VC alike) are bit-identical
    /// to the per-granule event sequence it abbreviates.
    RangeRead {
        tid: u32,
        granule: usize,
        len: usize,
    },
    /// The write analogue of [`CheckEvent::RangeRead`].
    RangeWrite {
        tid: u32,
        granule: usize,
        len: usize,
    },
    /// A `locked(l)`-mode access requiring `lock` held.
    LockedAccess {
        tid: u32,
        lock: usize,
    },
    /// A sharing cast of the object at `granule` observing `refs`
    /// live references (the cast itself included).
    SharingCast {
        tid: u32,
        granule: usize,
        refs: u64,
    },
    /// A ranged sharing cast: ONE event for a whole-block ownership
    /// transfer covering `len` contiguous granules starting at
    /// `granule`, each observing `refs` live references. [`replay`]
    /// lowers it to `len` per-granule [`CheckEvent::SharingCast`]s
    /// for every backend — same fold contract as
    /// [`CheckEvent::RangeRead`], so sharc/eraser/vc verdicts are
    /// bit-identical to the per-granule spelling by construction.
    RangeCast {
        tid: u32,
        granule: usize,
        len: usize,
        refs: u64,
    },
    /// A ranged free: `len` contiguous granules starting at `granule`
    /// are reset at once (one event per whole-block `free`). Lowers to
    /// `len` per-granule [`CheckEvent::Alloc`]s — the existing
    /// granule-reset event — on every backend.
    RangeFree {
        granule: usize,
        len: usize,
    },
    Acquire {
        tid: u32,
        lock: usize,
    },
    Release {
        tid: u32,
        lock: usize,
    },
    Fork {
        parent: u32,
        child: u32,
    },
    Join {
        parent: u32,
        child: u32,
    },
    /// `tid`'s lifetime ends; its shadow contribution is cleared.
    ThreadExit {
        tid: u32,
    },
    /// `granule` is freshly (re)allocated: all engines reset it.
    Alloc {
        granule: usize,
    },
}

/// A runtime-check engine: the four checks of §3/§4.2 plus the
/// events that keep the engine's state current.
pub trait CheckBackend {
    /// The engine's name, for reports and JSON.
    fn name(&self) -> &'static str;

    /// The `chkread` or `chkwrite` check-and-record for `tid` on
    /// `granule`, as `access` says: the kind is an operand, not a
    /// second method, so a fold calls one check for both.
    fn check(&mut self, tid: u32, granule: usize, access: Access) -> Verdict;

    /// The `locked(l)` check: is `lock` in `tid`'s held-lock log?
    fn lock_held(&self, tid: u32, lock: usize) -> bool;

    /// The `oneref` check at a sharing cast. The default is the
    /// paper's rule: the reference being cast must be the only one.
    fn oneref(&mut self, tid: u32, granule: usize, refs: u64) -> Verdict {
        if refs <= 1 {
            Verdict::Pass
        } else {
            Verdict::Fail(Conflict {
                kind: CheckKind::OneRef,
                tid,
                granule,
            })
        }
    }

    /// `tid` acquired `lock`.
    fn on_acquire(&mut self, _tid: u32, _lock: usize) {}
    /// `tid` released `lock`.
    fn on_release(&mut self, _tid: u32, _lock: usize) {}
    /// `parent` spawned `child`.
    fn on_fork(&mut self, _parent: u32, _child: u32) {}
    /// `parent` joined `child`.
    fn on_join(&mut self, _parent: u32, _child: u32) {}
    /// `tid` exited; non-overlapping lifetimes are not races.
    fn on_thread_exit(&mut self, _tid: u32) {}
    /// `granule` was freshly (re)allocated.
    fn on_alloc(&mut self, _granule: usize) {}
    /// A *successful* sharing cast changed `granule`'s mode: SharC's
    /// engine forgets its history; engines with no ownership model
    /// (Eraser, vector clocks) ignore this — which is exactly why
    /// they false-positive on ownership-transfer idioms.
    fn on_cast_clear(&mut self, _granule: usize) {}
}

/// Applies one event to `backend`, pushing any conflict onto `out`.
///
/// This is the single lowering step shared by [`replay`] (the offline
/// fold) and the streaming collector (`crate::stream`): both verdict
/// paths run byte-for-byte the same code, which is what makes
/// streaming ≡ replay a structural property rather than a test-only
/// coincidence. It is generic so that a fold over a concrete engine
/// calls that engine's checks directly; `&mut dyn CheckBackend` (the
/// streaming collector's boxed engine) instantiates it too.
pub fn apply_event<B: CheckBackend + ?Sized>(
    e: CheckEvent,
    backend: &mut B,
    out: &mut Vec<Conflict>,
) {
    // The kind of a read or a write is computed before the dispatch, not
    // in its arm: it is data for `check`, so a point read and a point
    // write share one arm, one jump target and one straight-line path.
    let access = if matches!(e, CheckEvent::Write { .. } | CheckEvent::RangeWrite { .. }) {
        Access::Write
    } else {
        Access::Read
    };
    let mut report = |verdict| {
        if let Verdict::Fail(c) = verdict {
            out.push(c);
        }
    };
    match e {
        CheckEvent::Read { tid, granule } | CheckEvent::Write { tid, granule } => {
            report(backend.check(tid, granule, access));
        }
        // Replay-lowering: a range event is *exactly* its
        // per-granule expansion, for every backend — each
        // granule's verdict is collected individually, so a
        // conflicting granule mid-range reports just like the
        // unabbreviated trace would.
        CheckEvent::RangeRead { tid, granule, len }
        | CheckEvent::RangeWrite { tid, granule, len } => {
            for g in granule..granule + len {
                report(backend.check(tid, g, access));
            }
        }
        CheckEvent::LockedAccess { tid, lock } => {
            if !backend.lock_held(tid, lock) {
                report(Verdict::Fail(Conflict {
                    kind: CheckKind::Lock,
                    tid,
                    granule: lock,
                }));
            }
        }
        // Each granule of a cast runs the full oneref-then-clear-on-pass
        // step, so a failing granule mid-range conflicts (and keeps its
        // state) just as the unabbreviated trace would.
        CheckEvent::SharingCast { tid, granule, refs }
        | CheckEvent::RangeCast {
            tid, granule, refs, ..
        } => {
            let len = e.granules().map_or(1, |(_, len)| len);
            for g in granule..granule + len {
                match backend.oneref(tid, g, refs) {
                    Verdict::Pass => backend.on_cast_clear(g),
                    fail => report(fail),
                }
            }
        }
        CheckEvent::Alloc { granule } | CheckEvent::RangeFree { granule, .. } => {
            let len = e.granules().map_or(1, |(_, len)| len);
            for g in granule..granule + len {
                backend.on_alloc(g);
            }
        }
        CheckEvent::Acquire { tid, lock } => backend.on_acquire(tid, lock),
        CheckEvent::Release { tid, lock } => backend.on_release(tid, lock),
        CheckEvent::Fork { parent, child } => backend.on_fork(parent, child),
        CheckEvent::Join { parent, child } => backend.on_join(parent, child),
        CheckEvent::ThreadExit { tid } => backend.on_thread_exit(tid),
    }
}

/// Drives a trace through `backend`, collecting every conflict. One
/// seeded execution replayed through several backends is the
/// workspace's cross-validation methodology (§6.2).
pub fn replay<B: CheckBackend + ?Sized>(events: &[CheckEvent], backend: &mut B) -> Vec<Conflict> {
    let mut out = Vec::new();
    for &e in events {
        apply_event(e, backend, &mut out);
    }
    out
}

impl CheckEvent {
    /// The thread ids the event names, its own first (`Alloc` and
    /// `RangeFree` name none).
    #[inline]
    pub fn tids(&self) -> impl Iterator<Item = u32> {
        let (own, other) = match *self {
            CheckEvent::Read { tid, .. }
            | CheckEvent::Write { tid, .. }
            | CheckEvent::RangeRead { tid, .. }
            | CheckEvent::RangeWrite { tid, .. }
            | CheckEvent::LockedAccess { tid, .. }
            | CheckEvent::SharingCast { tid, .. }
            | CheckEvent::RangeCast { tid, .. }
            | CheckEvent::Acquire { tid, .. }
            | CheckEvent::Release { tid, .. }
            | CheckEvent::ThreadExit { tid } => (Some(tid), None),
            CheckEvent::Fork { parent, child } | CheckEvent::Join { parent, child } => {
                (Some(parent), Some(child))
            }
            CheckEvent::Alloc { .. } | CheckEvent::RangeFree { .. } => (None, None),
        };
        own.into_iter().chain(other)
    }

    /// The granule run `(first, len)` the event addresses, if it
    /// addresses memory at all; a point event is a run of one.
    #[inline]
    pub fn granules(&self) -> Option<(usize, usize)> {
        match *self {
            CheckEvent::Read { granule, .. }
            | CheckEvent::Write { granule, .. }
            | CheckEvent::SharingCast { granule, .. }
            | CheckEvent::Alloc { granule } => Some((granule, 1)),
            CheckEvent::RangeRead { granule, len, .. }
            | CheckEvent::RangeWrite { granule, len, .. }
            | CheckEvent::RangeCast { granule, len, .. }
            | CheckEvent::RangeFree { granule, len } => Some((granule, len)),
            CheckEvent::LockedAccess { .. }
            | CheckEvent::Acquire { .. }
            | CheckEvent::Release { .. }
            | CheckEvent::Fork { .. }
            | CheckEvent::Join { .. }
            | CheckEvent::ThreadExit { .. } => None,
        }
    }
}

/// The largest thread id a trace mentions (0 for an empty trace —
/// `Alloc` carries no tid).
pub fn max_trace_tid(events: &[CheckEvent]) -> u32 {
    events.iter().flat_map(CheckEvent::tids).max().unwrap_or(0)
}

/// The shard geometry that names every tid in `events`: a pre-size
/// for a [`BitmapBackend`] (which otherwise widens as it meets wider
/// tids) and the size of a fixed runtime shadow.
pub fn geometry_for_trace(events: &[CheckEvent]) -> ShadowGeometry {
    ShadowGeometry::for_threads(max_trace_tid(events) as usize)
}

/// One past the largest granule any event in `events` touches (0 for
/// a trace with no granule-addressed events). Range events count
/// their whole extent. This is the granule-space twin of
/// [`max_trace_tid`]: the binary trace header records it, and
/// `sharc trace info` prints it.
pub fn trace_granule_span(events: &[CheckEvent]) -> usize {
    events
        .iter()
        .filter_map(CheckEvent::granules)
        .map(|(granule, len)| granule.saturating_add(len.max(1)))
        .max()
        .unwrap_or(0)
}

/// Expands every range event into its per-granule events, leaving
/// everything else verbatim — the explicit form of the lowering
/// [`replay`] performs implicitly. `replay(events) ==
/// replay(lower_ranges(events))` for every backend (pinned by the
/// trace round-trip property and the engine differentials), which is
/// what makes a `v2` trace with ranges interchangeable with the `v1`
/// per-granule trace it abbreviates.
pub fn lower_ranges(events: &[CheckEvent]) -> Vec<CheckEvent> {
    let mut out = Vec::with_capacity(events.len());
    for &e in events {
        match e {
            CheckEvent::RangeRead { tid, granule, len } => {
                out.extend((granule..granule + len).map(|g| CheckEvent::Read { tid, granule: g }));
            }
            CheckEvent::RangeWrite { tid, granule, len } => {
                out.extend((granule..granule + len).map(|g| CheckEvent::Write { tid, granule: g }));
            }
            CheckEvent::RangeCast {
                tid,
                granule,
                len,
                refs,
            } => {
                out.extend((granule..granule + len).map(|g| CheckEvent::SharingCast {
                    tid,
                    granule: g,
                    refs,
                }));
            }
            CheckEvent::RangeFree { granule, len } => {
                out.extend((granule..granule + len).map(|g| CheckEvent::Alloc { granule: g }));
            }
            other => out.push(other),
        }
    }
    out
}

/// The §4.2.2 held-lock log: which locks each thread holds right
/// now. Every engine keeps one — it answers the `locked(l)` check, and
/// Eraser refines its candidate locksets against it.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct HeldLocks {
    /// Thread `t`'s locks at index `t`, grown to the widest tid that
    /// acquired one: at most [`MAX_TID`] + 1 lists.
    by_thread: Vec<Vec<usize>>,
}

/// Hashes what [`HeldLocks::holds`] can observe: the non-empty lists,
/// with their tids, in tid order (a release can leave a thread an
/// empty list).
impl Hash for HeldLocks {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let held: Vec<_> = (0u32..)
            .zip(&self.by_thread)
            .filter(|(_, l)| !l.is_empty())
            .collect();
        held.hash(state);
    }
}

impl HeldLocks {
    /// `tid` acquired `lock`. Panics on a tid past [`MAX_TID`].
    pub fn acquire(&mut self, tid: u32, lock: usize) {
        assert!(tid <= MAX_TID, "thread id out of range");
        let tid = tid as usize;
        if self.by_thread.len() <= tid {
            self.by_thread.resize_with(tid + 1, Vec::new);
        }
        self.by_thread[tid].push(lock);
    }

    /// `tid` released `lock` (a release of a lock not held is ignored).
    pub fn release(&mut self, tid: u32, lock: usize) {
        if let Some(held) = self.by_thread.get_mut(tid as usize) {
            if let Some(p) = held.iter().position(|&l| l == lock) {
                held.remove(p);
            }
        }
    }

    /// The locks `tid` holds, in acquisition order.
    pub fn of(&self, tid: u32) -> &[usize] {
        self.by_thread.get(tid as usize).map_or(&[], Vec::as_slice)
    }

    /// Does `tid` hold `lock`?
    pub fn holds(&self, tid: u32, lock: usize) -> bool {
        self.of(tid).contains(&lock)
    }

    /// `tid` exited: its log is dropped.
    pub fn thread_exit(&mut self, tid: u32) {
        if let Some(held) = self.by_thread.get_mut(tid as usize) {
            *held = Vec::new();
        }
    }
}

/// The reference engine: the sharded bitmap state machine over a
/// growable word store. Single-threaded (serialize externally — the
/// VM's scheduler does, the streaming collector does); the verdicts
/// are identical to `sharc-runtime`'s CAS wrappers because all of
/// them run [`sharded::step`]'s body, [`sharded::step_in_shard`].
///
/// The engine starts at one shard — the paper's 63-thread
/// configuration — and widens itself the first time an access names a
/// tid past its geometry: a cold re-stride of the flat store to
/// exactly the shards that tid needs, appending zero shard words to
/// every granule, so no verdict changes. Tids stop at [`MAX_TID`], so
/// an engine re-strides at most 15 times whatever order its tids come
/// in. [`BitmapBackend::with_geometry`] pre-sizes it (e.g.
/// `ShadowGeometry::for_threads(256)`) so the re-strides never run.
///
/// Each thread's exit log holds 64-granule chunks, not granules: an
/// access notes its granule's chunk only when it sets the thread's bit
/// there (a read→write upgrade notes nothing, the read did), and exit
/// clears the thread's bit in every granule of every logged chunk. Every granule holding a thread's bit
/// lies in a logged chunk, and clearing a bit the granule does not
/// hold changes nothing, so exit leaves exactly the words a
/// per-granule log would; its cost is bounded by 64 × the thread's
/// footprint in chunks.
///
/// Two engines that hash equal judge every later event alike, which
/// is what lets the formal model's `explore` deduplicate states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitmapBackend {
    /// Flat store: granule `g`'s words live at
    /// `g * stride .. (g + 1) * stride`.
    words: Vec<u64>,
    geom: ShadowGeometry,
    /// The chunks (`granule >> LOG_CHUNK_SHIFT`) where each thread set
    /// a bit, for exit clearing: thread `t`'s at index `t`, grown to
    /// the widest tid that installed (at most [`MAX_TID`] + 1 logs).
    logs: Vec<RunLog>,
    held: HeldLocks,
}

/// A [`BitmapBackend`] exit log notes `granule >> LOG_CHUNK_SHIFT`:
/// one entry per 64 granules.
const LOG_CHUNK_SHIFT: u32 = 6;

/// Hashes what decides a later verdict, not how the engine got there:
/// the words without the trailing zero words a first touch grows, the
/// geometry and the held locks. The exit logs decide no verdict, so
/// they are left out: every granule holding a tid's bit lies in one of
/// its logged chunks, so an exit clears that tid's bits wherever they
/// are, whatever else the log names.
impl Hash for BitmapBackend {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let live = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        self.words[..live].hash(state);
        self.geom.hash(state);
        self.held.hash(state);
    }
}

impl Default for BitmapBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl BitmapBackend {
    /// Creates an empty engine with the default one-shard geometry,
    /// which widens as wider tids access it.
    pub fn new() -> Self {
        Self::with_geometry(ShadowGeometry::default())
    }

    /// Creates an empty engine pre-sized to `geom` — e.g.
    /// `ShadowGeometry::for_threads(256)` holds tids up to 315
    /// without a re-stride.
    pub fn with_geometry(geom: ShadowGeometry) -> Self {
        BitmapBackend {
            words: Vec::new(),
            geom,
            logs: Vec::new(),
            held: HeldLocks::default(),
        }
    }

    /// The engine's current shard layout.
    pub fn geometry(&self) -> ShadowGeometry {
        self.geom
    }

    /// Re-strides the store to exactly the geometry that names `tid`:
    /// each granule keeps its words and gains zero shard words after
    /// them. A tid is at most [`MAX_TID`], so a granule is at most
    /// [`crate::MAX_WORDS_PER_GRANULE`] words and an engine re-strides
    /// at most 15 times, however its tids rise.
    fn widen(&mut self, tid: u32) {
        assert!(tid <= MAX_TID, "thread id out of range");
        let wide = ShadowGeometry::for_threads(tid as usize);
        let (old, new) = (self.geom.words_per_granule(), wide.words_per_granule());
        let mut words = vec![0; self.words.len() / old * new];
        for (to, from) in words
            .chunks_exact_mut(new)
            .zip(self.words.chunks_exact(old))
        {
            to[..old].copy_from_slice(from);
        }
        (self.words, self.geom) = (words, wide);
    }

    /// Everything a check does once the tid's own shard word does not
    /// already record the access: widening, growing the store, the step
    /// over the granule's other words, the install, the exit-log note
    /// and the conflict. Out of line, so [`BitmapBackend::check`]'s
    /// inlined half stays one load and one predicate.
    #[cold]
    #[inline(never)]
    fn check_cold(&mut self, tid: u32, granule: usize, access: Access) -> Verdict {
        if tid as usize > self.geom.exact_threads() {
            self.widen(tid);
        }
        let shard = self.geom.shard_of(tid).expect("thread id out of range");
        let bit = self.geom.local_bit(tid);
        let stride = self.geom.words_per_granule();
        let base = granule * stride;
        if base + stride > self.words.len() {
            self.words.resize(base + stride, 0);
        }
        let words = &mut self.words[base..base + stride];
        match sharded::step_in_shard(words, shard, bit, access) {
            ShardStep::Unchanged => Verdict::Pass,
            ShardStep::Install { index, word } => {
                // Only a bit set here for the first time is news to the
                // exit log: an upgrading write's granule was logged by
                // its read.
                let newly_set = words[index] & (1 << bit) == 0;
                words[index] = word;
                if newly_set {
                    let tid = tid as usize;
                    if self.logs.len() <= tid {
                        self.logs.resize_with(tid + 1, RunLog::default);
                    }
                    self.logs[tid].note(granule >> LOG_CHUNK_SHIFT);
                }
                Verdict::Pass
            }
            ShardStep::Conflict => Verdict::Fail(Conflict {
                kind: access.into(),
                tid,
                granule,
            }),
        }
    }

    /// The raw shard-0 shadow word — for tids `1..=63` under any
    /// geometry this is bit-for-bit the paper's single-word encoding,
    /// which is what the differential tests compare against the
    /// native `Shadow`'s word.
    pub fn raw(&self, granule: usize) -> u64 {
        self.words
            .get(granule * self.geom.words_per_granule())
            .copied()
            .unwrap_or(0)
    }

    /// All of a granule's shadow words, one per shard, for tests.
    pub fn raw_words(&self, granule: usize) -> Vec<u64> {
        let stride = self.geom.words_per_granule();
        let base = granule * stride;
        (base..base + stride)
            .map(|i| self.words.get(i).copied().unwrap_or(0))
            .collect()
    }
}

impl CheckBackend for BitmapBackend {
    fn name(&self) -> &'static str {
        "sharc-bitmap"
    }

    /// The inlined half of a check: one load of the tid's own shard
    /// word and one predicate. Everything else is out of line.
    #[inline]
    fn check(&mut self, tid: u32, granule: usize, access: Access) -> Verdict {
        // A hit is the full step's `Unchanged`, and the other words need
        // no look (the runtime's `MultiWord::recorded` argument):
        // conflicts never install, so the passing write that set this
        // word left every other word empty and nobody has installed next
        // to it since, and the passing read that set this bit excluded
        // every foreign writer, and none can have installed over it. A
        // tid the geometry has no word for, a granule past the store and
        // every miss go to `check_cold`.
        if let Some(shard) = self.geom.shard_of(tid) {
            let own = granule * self.geom.words_per_granule() + shard;
            if let Some(&word) = self.words.get(own) {
                // The `range::recorded` predicate `access` picks, both in
                // one expression so the kind selects a value, not a path:
                // `mine` is the word either access leaves unchanged, a read
                // also passes on its own bit without the writer flag, and
                // a write's second target has bits outside the mask.
                let local = self.geom.local_bit(tid);
                let mine = bitmap::WRITER_FLAG | 1 << local;
                let writing = u64::from(access.is_write()).wrapping_neg();
                let reading = 1 << local | (writing & !mine);
                let hit = (word == mine) | (word & mine == reading);
                debug_assert_eq!(hit, range::recorded(word, local, access));
                if hit {
                    return Verdict::Pass;
                }
            }
        }
        self.check_cold(tid, granule, access)
    }

    fn lock_held(&self, tid: u32, lock: usize) -> bool {
        self.held.holds(tid, lock)
    }

    fn on_acquire(&mut self, tid: u32, lock: usize) {
        self.held.acquire(tid, lock);
    }

    fn on_release(&mut self, tid: u32, lock: usize) {
        self.held.release(tid, lock);
    }

    fn on_thread_exit(&mut self, tid: u32) {
        let log = self.logs.get_mut(tid as usize).map(std::mem::take);
        if let (Some(mut log), Some(shard)) = (log, self.geom.shard_of(tid)) {
            let (stride, bit) = (self.geom.words_per_granule(), self.geom.local_bit(tid));
            // The tid's word in each granule of each logged chunk:
            // every `stride`-th word from its first.
            for (start, end) in log.drain_merged() {
                let first = (start << LOG_CHUNK_SHIFT) * stride + shard;
                let end = (end << LOG_CHUNK_SHIFT)
                    .saturating_mul(stride)
                    .min(self.words.len());
                if let Some(words) = self.words.get_mut(first..end) {
                    for w in words.iter_mut().step_by(stride) {
                        *w = bitmap::clear_thread(*w, bit);
                    }
                }
            }
        }
        self.held.thread_exit(tid);
    }

    fn on_alloc(&mut self, granule: usize) {
        let stride = self.geom.words_per_granule();
        let base = granule * stride;
        let end = (base + stride).min(self.words.len());
        for w in &mut self.words[base.min(end)..end] {
            *w = 0;
        }
    }

    fn on_cast_clear(&mut self, granule: usize) {
        self.on_alloc(granule);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn re_installing_one_granule_after_every_cast_keeps_one_run() {
        // Granules 7 and 70 lie in the adjacent chunks 0 and 1: one
        // chunk run, however often a cast makes each install again.
        let mut engine = BitmapBackend::new();
        for _ in 0..100_000 {
            for g in [7, 70] {
                assert!(!engine.check(1, g, Access::Write).is_conflict());
                engine.on_cast_clear(g);
            }
        }
        assert!(!engine.check(1, 7, Access::Write).is_conflict());
        assert!(!engine.check(1, 70, Access::Write).is_conflict());
        assert_eq!(engine.logs[1].len(), 1, "two chunks, one run");
        engine.on_thread_exit(1);
        assert_eq!(
            (engine.raw(7), engine.raw(70)),
            (0, 0),
            "exit clears what the log names"
        );
        assert!(engine.logs[1].is_empty());
    }

    #[test]
    fn a_read_write_upgrade_logs_nothing() {
        let mut engine = BitmapBackend::new();
        assert_eq!(engine.check(1, 3, Access::Read), Verdict::Pass);
        // A read in a distant chunk makes the next note of chunk 0 a
        // new run, were it made.
        assert_eq!(engine.check(1, 10 * 64, Access::Read), Verdict::Pass);
        let logged = engine.logs[1].len();
        assert_eq!(engine.check(1, 3, Access::Write), Verdict::Pass);
        assert_eq!(
            engine.raw(3),
            crate::step::bitmap::WRITER_FLAG | (1 << 1),
            "upgraded"
        );
        assert_eq!(engine.logs[1].len(), logged, "granule 3 is logged already");
        engine.on_thread_exit(1);
        assert_eq!((engine.raw(3), engine.raw(10 * 64)), (0, 0));
    }

    #[test]
    fn chunk_logs_clear_what_granule_logs_would() {
        use crate::step::bitmap::{self, WRITER_FLAG};
        // Tids 1..=3 read, and tid 1 writes, granules of chunk 0; tid 2
        // also writes granule 5 of chunk 40.
        let far = 40 * 64 + 5;
        let installs: [(u32, &[usize]); 3] =
            [(1, &[0, 5, 9, 63]), (2, &[5, 6, 63, far]), (3, &[63, 6, 0])];
        let mut engine = BitmapBackend::new();
        let mut granule_logs = std::collections::HashMap::new();
        for (tid, granules) in installs {
            for &g in granules {
                assert_eq!(
                    engine.check(tid, g, Access::Read),
                    Verdict::Pass,
                    "tid {tid} reads {g}"
                );
                granule_logs.entry(tid).or_insert_with(Vec::new).push(g);
            }
        }
        assert_eq!(
            engine.check(1, 9, Access::Write),
            Verdict::Pass,
            "tid 1's own granule"
        );
        assert_eq!(
            engine.check(2, far, Access::Write),
            Verdict::Pass,
            "tid 2's own granule"
        );
        let words = |engine: &BitmapBackend| (0..=far).map(|g| engine.raw(g)).collect::<Vec<_>>();
        for tid in [2, 1, 3] {
            let before = words(&engine);
            // A per-granule log clears the tid's bit where it installed
            // one and nowhere else.
            let want: Vec<u64> = before
                .iter()
                .enumerate()
                .map(|(g, &w)| {
                    if granule_logs[&tid].contains(&g) {
                        bitmap::clear_thread(w, tid)
                    } else {
                        w
                    }
                })
                .collect();
            engine.on_thread_exit(tid);
            let got = words(&engine);
            assert_eq!(got, want, "after tid {tid}'s exit");
            let others = !(WRITER_FLAG | (1 << tid));
            for (g, (&was, &is)) in before.iter().zip(&got).enumerate() {
                assert_eq!(
                    was & others,
                    is & others,
                    "granule {g}: tid {tid}'s exit moved another bit"
                );
            }
        }
        assert!(words(&engine).iter().all(|&w| w == 0), "every tid exited");
    }

    #[test]
    fn bitmap_backend_basic_race() {
        let mut b = BitmapBackend::new();
        assert_eq!(b.check(1, 0, Access::Write), Verdict::Pass);
        let v = b.check(2, 0, Access::Write);
        assert_eq!(
            v.conflict().map(|c| c.kind),
            Some(CheckKind::Write),
            "{v:?}"
        );
    }

    #[test]
    fn exit_clears_and_reuses() {
        let mut b = BitmapBackend::new();
        b.check(1, 3, Access::Write);
        b.on_thread_exit(1);
        assert_eq!(b.check(2, 3, Access::Write), Verdict::Pass);
    }

    #[test]
    fn lock_log_tracks_held() {
        let mut b = BitmapBackend::new();
        assert!(!b.lock_held(1, 9));
        b.on_acquire(1, 9);
        assert!(b.lock_held(1, 9));
        assert!(!b.lock_held(2, 9));
        b.on_release(1, 9);
        assert!(!b.lock_held(1, 9));
    }

    #[test]
    fn high_tids_keep_exact_identities_under_a_wide_geometry() {
        let mut b = BitmapBackend::with_geometry(ShadowGeometry::for_threads(256));
        // Readers in three different shards...
        assert_eq!(b.check(10, 0, Access::Read), Verdict::Pass);
        assert_eq!(b.check(100, 0, Access::Read), Verdict::Pass);
        assert_eq!(b.check(250, 0, Access::Read), Verdict::Pass);
        // ...block any writer...
        assert!(b.check(10, 0, Access::Write).is_conflict());
        // ...until each reader's exit subtracts its exact bit.
        b.on_thread_exit(100);
        assert!(
            b.check(10, 0, Access::Write).is_conflict(),
            "250 still reads"
        );
        b.on_thread_exit(250);
        // tid 10 is the only reader left: its own upgrade succeeds.
        assert_eq!(b.check(10, 0, Access::Write), Verdict::Pass);
    }

    #[test]
    fn a_default_engine_widens_without_changing_a_verdict() {
        let mut b = BitmapBackend::new();
        assert_eq!(b.check(1, 0, Access::Write), Verdict::Pass);
        // Seventy readers of granule 1: tids 64..=70 widen the engine
        // to two shards, and granule 0 keeps its word.
        for t in 1..=70 {
            assert_eq!(b.check(t, 1, Access::Read), Verdict::Pass, "reader {t}");
        }
        assert_eq!(b.geometry(), ShadowGeometry::for_threads(70));
        assert_eq!(
            b.raw_words(0),
            vec![crate::step::bitmap::WRITER_FLAG | (1 << 1), 0]
        );
        assert!(
            b.check(70, 0, Access::Write).is_conflict(),
            "tid 1 still owns granule 0"
        );
        // Every reader but tid 1 exits: each takes exactly its own bit.
        for t in 2..=70 {
            b.on_thread_exit(t);
        }
        assert_eq!(b.raw_words(1), vec![1 << 1, 0]);
        assert_eq!(b.check(1, 1, Access::Write), Verdict::Pass);
    }

    #[test]
    fn rising_tids_restride_at_most_fifteen_times() {
        // The worst order for a growing shadow: one granule, each
        // access's tid one shard past the last, up to the last shard
        // the thread bound allows. Every access re-strides, to exactly
        // the shards its tid needs.
        let mut b = BitmapBackend::new();
        assert_eq!(b.check(1, 0, Access::Write), Verdict::Pass);
        let mut restrides = 0;
        for tid in (64..=MAX_TID).step_by(63) {
            let before = b.geometry();
            assert!(b.check(tid, 0, Access::Read).is_conflict());
            restrides += usize::from(b.geometry() != before);
            assert_eq!(b.geometry(), ShadowGeometry::for_threads(tid as usize));
        }
        assert_eq!(restrides, crate::MAX_WORDS_PER_GRANULE - 1);
        // The owner's word survived every copy.
        assert_eq!(b.raw(0), crate::step::bitmap::WRITER_FLAG | (1 << 1));
    }

    #[test]
    #[should_panic(expected = "thread id out of range")]
    fn a_check_by_tid_0_panics() {
        BitmapBackend::new().check(0, 5, Access::Read);
    }

    #[test]
    #[should_panic(expected = "thread id out of range")]
    fn a_check_past_the_thread_bound_panics() {
        let mut b = BitmapBackend::new();
        assert_eq!(b.check(MAX_TID, 5, Access::Write), Verdict::Pass);
        b.check(MAX_TID + 1, 5, Access::Write);
    }

    #[test]
    #[should_panic(expected = "thread id out of range")]
    fn a_lock_event_past_the_thread_bound_panics() {
        // Both decoders refuse such a tid; an in-memory trace meets the
        // bound where the lock table is indexed.
        let trace = [
            CheckEvent::Acquire {
                tid: MAX_TID,
                lock: 3,
            },
            CheckEvent::Acquire {
                tid: MAX_TID + 1,
                lock: 3,
            },
        ];
        replay(&trace, &mut BitmapBackend::new());
    }

    #[test]
    fn replay_collects_conflicts_and_casts_clear() {
        let mut b = BitmapBackend::new();
        let trace = [
            CheckEvent::Write { tid: 1, granule: 0 },
            // A successful cast transfers ownership...
            CheckEvent::SharingCast {
                tid: 1,
                granule: 0,
                refs: 1,
            },
            // ...so the new owner writes cleanly.
            CheckEvent::Write { tid: 2, granule: 0 },
            // A failing cast (two refs) conflicts and does NOT clear.
            CheckEvent::SharingCast {
                tid: 2,
                granule: 0,
                refs: 2,
            },
            CheckEvent::Write { tid: 3, granule: 0 },
        ];
        let conflicts = replay(&trace, &mut b);
        assert_eq!(conflicts.len(), 2);
        assert_eq!(conflicts[0].kind, CheckKind::OneRef);
        assert_eq!(conflicts[1].kind, CheckKind::Write);
    }

    #[test]
    fn replay_locked_access_checks_log() {
        let mut b = BitmapBackend::new();
        let trace = [
            CheckEvent::LockedAccess { tid: 1, lock: 4 },
            CheckEvent::Acquire { tid: 1, lock: 4 },
            CheckEvent::LockedAccess { tid: 1, lock: 4 },
            CheckEvent::Release { tid: 1, lock: 4 },
            CheckEvent::LockedAccess { tid: 1, lock: 4 },
        ];
        let conflicts = replay(&trace, &mut b);
        assert_eq!(conflicts.len(), 2);
        assert!(conflicts.iter().all(|c| c.kind == CheckKind::Lock));
    }
}
