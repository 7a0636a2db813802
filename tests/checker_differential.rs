//! Differential testing of everything that claims to implement the
//! §4.2 granule state machine, against the pure `step` functions:
//!
//! * [`StepOracle`] — `sharded::step` / `sharded::clear_thread`
//!   applied directly to plain words: no atomics, no logs. This *is*
//!   the specification.
//! * [`Shadow`] over each [`WordProtocol`] — the native-threads
//!   runtime: [`OneWord`] (the paper's single word in a CAS retry
//!   loop) and [`MultiWord`] (snapshot → step → CAS → revalidate) at
//!   a five-shard geometry; point checks, ranged checks, and ranged
//!   clears.
//! * [`BitmapBackend`] — the VM's and the replayer's engine, which
//!   also judges every trace as if pre-sized to it while it widens
//!   itself.
//!
//! Each differential is ONE generic body, instantiated per [`Width`].
//! One seeded operation trace is driven through the oracle and every
//! subject; the per-operation verdicts must be *identical* — not just
//! the final conflict counts: a ranged check's every `on_newly` and
//! `on_conflict` callback, in order, each conflict's `observed` word
//! included — and so must every raw shadow word at the end. This holds because every engine obeys the shared contract
//! that a conflicting access leaves the shadow words unchanged, so
//! they stay in lockstep even after conflicts.

use sharc_checker::step::{sharded, Access};
use sharc_checker::{
    geometry_for_trace, trace_granule_span, BitmapBackend, CheckBackend, CheckEvent, EventLog,
    EventSink, ShadowGeometry, StreamingSink, Verdict,
};
use sharc_detectors::{Eraser, VcDetector};
use sharc_runtime::{MultiWord, OneWord, RaceError, Shadow, ShardedShadow, ThreadId, WordProtocol};
use sharc_testkit::gen::{self, Gen};
use sharc_testkit::prop::Config;
use sharc_testkit::{forall, prop_assert};
use std::cell::RefCell;

/// Granule universe for the generated traces: small enough that
/// threads collide constantly.
const GRANULES: usize = 8;
/// Tid universe of the wide widths: past four 63-tid shards.
const WIDE_THREADS: u32 = 256;

fn cfg() -> Config {
    Config::from_env().at_least(128)
}

// ----- the widths, the oracle, the subjects -----

/// One instantiation of the generic differentials: a word protocol at
/// a geometry, and the tid universe that exercises it.
trait Width {
    type P: WordProtocol;
    const NAME: &'static str;
    /// Generated tids are `1..=THREADS` (0 is reserved everywhere).
    const THREADS: u32;
    /// The geometry the pure-`step` oracle runs under.
    fn geometry() -> ShadowGeometry;
    fn shadow(granules: usize) -> Shadow<Self::P>;
    /// Every shadow word of `granule`, laid out as the oracle's.
    fn words(shadow: &Shadow<Self::P>, granule: usize) -> Vec<u64>;
}

/// The paper's configuration: one shadow byte per granule, tids that
/// fit its seven bits.
struct Narrow;

impl Width for Narrow {
    type P = OneWord;
    const NAME: &'static str = "one-word";
    const THREADS: u32 = 4;
    fn geometry() -> ShadowGeometry {
        ShadowGeometry::default()
    }
    fn shadow(granules: usize) -> Shadow {
        Shadow::new(granules)
    }
    fn words(shadow: &Shadow, granule: usize) -> Vec<u64> {
        // The one-shard oracle's word is the paper's single word.
        vec![shadow.raw(granule)]
    }
}

/// The multi-word protocol over five bitmap shards, at 256 tids:
/// exact identities for every generated tid, across shards.
struct FiveShards;

impl Width for FiveShards {
    type P = MultiWord;
    const NAME: &'static str = "sharded";
    const THREADS: u32 = WIDE_THREADS;
    fn geometry() -> ShadowGeometry {
        ShadowGeometry::with_shards(5)
    }
    fn shadow(granules: usize) -> ShardedShadow {
        ShardedShadow::with_geometry(granules, Self::geometry())
    }
    fn words(shadow: &ShardedShadow, granule: usize) -> Vec<u64> {
        shadow.raw_words(granule)
    }
}

/// The specification: the pure transition functions over plain words.
struct StepOracle {
    geom: ShadowGeometry,
    words: Vec<u64>,
}

impl StepOracle {
    fn new(geom: ShadowGeometry, granules: usize) -> Self {
        StepOracle {
            geom,
            words: vec![0; granules * geom.words_per_granule()],
        }
    }

    fn words(&self, granule: usize) -> &[u64] {
        let stride = self.geom.words_per_granule();
        &self.words[granule * stride..(granule + 1) * stride]
    }

    /// One access, installed if the step installs: what a ranged
    /// check reports for the granule, if anything.
    fn step(&mut self, tid: u32, granule: usize, is_write: bool) -> Option<Report> {
        let access = if is_write {
            Access::Write
        } else {
            Access::Read
        };
        match sharded::step(self.words(granule), self.geom, tid, access) {
            sharded::ShardStep::Unchanged => None,
            sharded::ShardStep::Conflict => Some(Report::Conflict(RaceError {
                granule,
                was_write: is_write,
                observed: self.observed(granule, tid),
            })),
            sharded::ShardStep::Install { index, word } => {
                self.words[granule * self.geom.words_per_granule() + index] = word;
                Some(Report::Newly(granule))
            }
        }
    }

    /// One access; true iff it conflicts (and so installs nothing).
    fn check(&mut self, tid: u32, granule: usize, is_write: bool) -> bool {
        matches!(self.step(tid, granule, is_write), Some(Report::Conflict(_)))
    }

    /// The word a conflict report shows: the first non-empty word
    /// other than `tid`'s own, else its own. At the one-word width
    /// this is the single word.
    fn observed(&self, granule: usize, tid: u32) -> u64 {
        let words = self.words(granule);
        let own = self.geom.shard_of(tid).expect("a generated tid");
        words
            .iter()
            .enumerate()
            .find_map(|(i, &w)| (i != own && w != 0).then_some(w))
            .unwrap_or(words[own])
    }

    /// The definition a ranged check must reproduce: the callbacks of
    /// the per-granule fold, in the order it fires them.
    fn check_range(&mut self, tid: u32, start: usize, len: usize, is_write: bool) -> Vec<Report> {
        (start..start + len)
            .filter_map(|g| self.step(tid, g, is_write))
            .collect()
    }

    fn clear(&mut self, granule: usize) {
        let stride = self.geom.words_per_granule();
        self.words[granule * stride..(granule + 1) * stride].fill(0);
    }

    fn clear_thread(&mut self, granule: usize, tid: u32) {
        if let Some((index, word)) = sharded::clear_thread(self.words(granule), self.geom, tid) {
            self.words[granule * self.geom.words_per_granule() + index] = word;
        }
    }
}

/// One callback of a ranged check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Report {
    Newly(usize),
    Conflict(RaceError),
}

/// A shadow under test.
struct Subject<P: WordProtocol> {
    label: &'static str,
    shadow: Shadow<P>,
}

impl<P: WordProtocol> Subject<P> {
    fn new(label: &'static str, shadow: Shadow<P>) -> Self {
        Subject { label, shadow }
    }

    /// One point check; true iff it conflicts.
    fn check(&self, tid: u32, granule: usize, is_write: bool) -> bool {
        let access = if is_write {
            Access::Write
        } else {
            Access::Read
        };
        self.shadow.check(granule, ThreadId(tid), access).is_err()
    }

    /// One ranged check: the number of conflicting granules and
    /// every callback, in the order they fired.
    fn check_range(
        &self,
        tid: u32,
        start: usize,
        len: usize,
        is_write: bool,
    ) -> (usize, Vec<Report>) {
        let t = ThreadId(tid);
        let reports = RefCell::new(Vec::new());
        let newly = |g| reports.borrow_mut().push(Report::Newly(g));
        let conflict = |e| reports.borrow_mut().push(Report::Conflict(e));
        let s = &self.shadow;
        let conflicts = if is_write {
            s.check_range_write(start, len, t, newly, conflict)
        } else {
            s.check_range_read(start, len, t, newly, conflict)
        };
        (conflicts, reports.into_inner())
    }
}

/// The oracle and the subjects it judges, moved in lockstep.
struct Rig<W: Width> {
    oracle: StepOracle,
    subjects: Vec<Subject<W::P>>,
}

impl<W: Width> Rig<W> {
    fn new(granules: usize, subjects: Vec<Subject<W::P>>) -> Self {
        Rig {
            oracle: StepOracle::new(W::geometry(), granules),
            subjects,
        }
    }

    /// A point access on the oracle and every subject; the verdict.
    fn check(
        &mut self,
        op: usize,
        tid: u32,
        granule: usize,
        is_write: bool,
    ) -> Result<bool, String> {
        let want = self.oracle.check(tid, granule, is_write);
        for s in &self.subjects {
            let got = s.check(tid, granule, is_write);
            prop_assert!(
                got == want,
                "{} op {}: {} says conflict={} but step says {} (tid {} granule {} write={})",
                W::NAME,
                op,
                s.label,
                got,
                want,
                tid,
                granule,
                is_write
            );
        }
        Ok(want)
    }

    /// A ranged access on every subject against the oracle's fold.
    fn check_range(
        &mut self,
        op: usize,
        tid: u32,
        (start, len): (usize, usize),
        is_write: bool,
    ) -> Result<(), String> {
        let want = self.oracle.check_range(tid, start, len, is_write);
        let want_conflicts = want
            .iter()
            .filter(|r| matches!(r, Report::Conflict(_)))
            .count();
        for s in &self.subjects {
            let (conflicts, got) = s.check_range(tid, start, len, is_write);
            prop_assert!(
                (conflicts, &got) == (want_conflicts, &want),
                "{} op {}: {} counts {} conflicts and reports {:?}, but the step fold \
                 counts {} and reports {:?} (tid {} range {}..{} write={})",
                W::NAME,
                op,
                s.label,
                conflicts,
                got,
                want_conflicts,
                want,
                tid,
                start,
                start + len,
                is_write
            );
        }
        Ok(())
    }

    /// `free` / a successful sharing cast of one granule.
    fn clear(&mut self, granule: usize) {
        self.oracle.clear(granule);
        for s in &self.subjects {
            s.shadow.clear(granule);
        }
    }

    /// A thread exit. Clearing a granule the thread never touched is
    /// a no-op in every engine, so sweeping all of them stands in for
    /// walking the thread's access log.
    fn exit(&mut self, tid: u32) {
        for g in 0..self.subjects[0].shadow.len() {
            self.oracle.clear_thread(g, tid);
            for s in &self.subjects {
                s.shadow.clear_thread(g, ThreadId(tid));
            }
        }
    }

    /// Beyond verdicts: every subject ends with the oracle's words.
    fn words_agree(&self) -> Result<(), String> {
        for s in &self.subjects {
            for g in 0..s.shadow.len() {
                prop_assert!(
                    W::words(&s.shadow, g) == self.oracle.words(g),
                    "{}: {} ends granule {} as {:x?}, step as {:x?}",
                    W::NAME,
                    s.label,
                    g,
                    W::words(&s.shadow, g),
                    self.oracle.words(g)
                );
            }
        }
        Ok(())
    }
}

// ----- point accesses, clears, exits -----

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Read {
        tid: u32,
        granule: usize,
    },
    Write {
        tid: u32,
        granule: usize,
    },
    /// A full reset of one granule — `free` or a successful sharing
    /// cast.
    Clear {
        granule: usize,
    },
    ThreadExit {
        tid: u32,
    },
}

fn op_gen(threads: u32) -> Gen<Op> {
    let access = gen::pair(
        gen::u32_range(1..threads + 1),
        gen::usize_range(0..GRANULES),
    );
    gen::one_of(vec![
        access
            .clone()
            .map(|&(tid, granule)| Op::Read { tid, granule }),
        access
            .clone()
            .map(|&(tid, granule)| Op::Write { tid, granule }),
        gen::usize_range(0..GRANULES).map(|&granule| Op::Clear { granule }),
        gen::u32_range(1..threads + 1).map(|&tid| Op::ThreadExit { tid }),
    ])
}

/// The tentpole invariant, at one width: the runtime's shadow and the
/// VM's [`BitmapBackend`] return the pure step's verdict for every
/// operation of any trace, exits included, and end with its words.
fn engines_agree_with_the_step_oracle<W: Width>() {
    forall!(
        &format!("engines_agree_with_the_step_oracle/{}", W::NAME),
        cfg(),
        gen::vec_of(op_gen(W::THREADS), 0..96),
        |ops| {
            let mut rig =
                Rig::<W>::new(GRANULES, vec![Subject::new("shadow", W::shadow(GRANULES))]);
            let mut vm = BitmapBackend::with_geometry(W::geometry());
            for (i, &op) in ops.iter().enumerate() {
                match op {
                    Op::Read { tid, granule } => {
                        let want = rig.check(i, tid, granule, false)?;
                        let got = vm.chkread(tid, granule).is_conflict();
                        prop_assert!(got == want, "{} op {}: vm read", W::NAME, i);
                    }
                    Op::Write { tid, granule } => {
                        let want = rig.check(i, tid, granule, true)?;
                        let got = vm.chkwrite(tid, granule).is_conflict();
                        prop_assert!(got == want, "{} op {}: vm write", W::NAME, i);
                    }
                    Op::Clear { granule } => {
                        rig.clear(granule);
                        vm.on_alloc(granule);
                    }
                    Op::ThreadExit { tid } => {
                        rig.exit(tid);
                        vm.on_thread_exit(tid);
                    }
                }
            }
            rig.words_agree()?;
            for g in 0..GRANULES {
                prop_assert!(
                    vm.raw_words(g) == rig.oracle.words(g),
                    "{}: vm words of granule {}",
                    W::NAME,
                    g
                );
            }
        }
    );
}

#[test]
fn all_engines_agree_on_every_verdict() {
    engines_agree_with_the_step_oracle::<Narrow>();
}

/// Beyond 63 threads the multi-word protocol must *stay* exact: tids
/// `1..=256` over five shards, against the step oracle of the same
/// geometry.
#[test]
fn sharded_engines_agree_up_to_256_threads() {
    assert!(
        (1..=FiveShards::THREADS).all(|t| FiveShards::geometry().shard_of(t).is_some()),
        "five shards keep every generated tid exact"
    );
    engines_agree_with_the_step_oracle::<FiveShards>();
}

/// The named cross-shard regression: ownership hand-off where the
/// producer and consumer live in *different shards* of the wide
/// geometry (tid 1 → shard 0, tid 200 → shard 3). The sharing cast
/// must clear every shard word, not just the producer's — a
/// shard-0-only clear would leave the producer's writer bit behind
/// and turn the legal hand-off into a phantom conflict.
#[test]
fn cross_shard_ownership_transfer_is_exact() {
    let geom = ShadowGeometry::for_threads(256);
    let (producer, consumer) = (1u32, 200u32);
    assert_ne!(
        geom.shard_of(producer),
        geom.shard_of(consumer),
        "the pair must straddle a shard boundary"
    );
    let g = 0;

    // Replay level: the wide BitmapBackend accepts the §2.1 trace.
    use CheckEvent as E;
    let trace = vec![
        E::Fork {
            parent: producer,
            child: consumer,
        },
        E::Write {
            tid: producer,
            granule: g,
        },
        E::SharingCast {
            tid: producer,
            granule: g,
            refs: 1,
        },
        E::Read {
            tid: consumer,
            granule: g,
        },
        E::Write {
            tid: consumer,
            granule: g,
        },
    ];
    let mut wide = BitmapBackend::with_geometry(geom);
    let conflicts = sharc_checker::replay(&trace, &mut wide);
    assert!(
        conflicts.is_empty(),
        "cross-shard hand-off is legal: {conflicts:?}"
    );
    assert!(
        wide.raw_words(g).iter().any(|&w| w != 0),
        "the consumer re-registered after the cast"
    );

    // Native level: the lock-free ShardedShadow agrees.
    let s = ShardedShadow::with_geometry(4, geom);
    s.check_write(g, ThreadId(producer)).unwrap();
    s.clear(g); // the successful sharing cast
    s.check_read(g, ThreadId(consumer)).unwrap();
    s.check_write(g, ThreadId(consumer)).unwrap();

    // And without the cast both levels report the cross-shard race.
    let no_cast: Vec<CheckEvent> = trace
        .iter()
        .copied()
        .filter(|e| !matches!(e, E::SharingCast { .. }))
        .collect();
    let mut wide2 = BitmapBackend::with_geometry(geom);
    assert!(
        !sharc_checker::replay(&no_cast, &mut wide2).is_empty(),
        "without the cast the consumer's access races"
    );
    let s2 = ShardedShadow::with_geometry(4, geom);
    s2.check_write(g, ThreadId(producer)).unwrap();
    assert!(
        s2.check_read(g, ThreadId(consumer)).is_err(),
        "sharded engine sees the same cross-shard race"
    );
}

// ----- ranged checks -----

/// Granule universe for the ranged traces: big enough that runs have
/// room to span several packed shadow words, small enough that threads
/// keep colliding.
const RANGE_GRANULES: usize = 16;

/// A granule run inside the ranged universe.
fn span_gen() -> Gen<(usize, usize)> {
    gen::pair(
        gen::usize_range(0..RANGE_GRANULES),
        gen::usize_range(1..RANGE_GRANULES + 1),
    )
    .map(|&(start, len)| (start, len.min(RANGE_GRANULES - start)))
}

/// Vocabulary for the ranged differential: buffer sweeps (the ranged
/// checks), single-granule accesses interleaved with them, and
/// **mid-range clears** — the adversarial case, since a sweep over a
/// run it already owns must notice the one granule a clear reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RangeOp {
    Range {
        tid: u32,
        span: (usize, usize),
        is_write: bool,
    },
    Point {
        tid: u32,
        granule: usize,
        is_write: bool,
    },
    Clear {
        granule: usize,
    },
}

fn range_op_gen(threads: u32) -> Gen<RangeOp> {
    let who = gen::pair(gen::u32_range(1..threads + 1), gen::bool_any());
    gen::one_of(vec![
        gen::pair(who.clone(), span_gen()).map(|&((tid, is_write), span)| RangeOp::Range {
            tid,
            span,
            is_write,
        }),
        gen::pair(who, gen::usize_range(0..RANGE_GRANULES)).map(|&((tid, is_write), granule)| {
            RangeOp::Point {
                tid,
                granule,
                is_write,
            }
        }),
        gen::usize_range(0..RANGE_GRANULES).map(|&granule| RangeOp::Clear { granule }),
    ])
}

/// The ranged fold contract, at one width: for any trace of sweeps,
/// point accesses, and mid-range clears, the per-op conflict count and
/// callbacks of `check_range_*` equal the fold of per-granule verdicts
/// of the pure step, and every shadow word ends bit-identical to the
/// oracle's.
fn range_checks_equal_the_step_fold<W: Width>() {
    forall!(
        &format!("range_checks_equal_the_step_fold/{}", W::NAME),
        cfg(),
        gen::vec_of(range_op_gen(W::THREADS), 0..96),
        |ops| {
            let mut rig = Rig::<W>::new(
                RANGE_GRANULES,
                vec![Subject::new("ranged", W::shadow(RANGE_GRANULES))],
            );
            for (i, &op) in ops.iter().enumerate() {
                match op {
                    RangeOp::Range {
                        tid,
                        span,
                        is_write,
                    } => rig.check_range(i, tid, span, is_write)?,
                    RangeOp::Point {
                        tid,
                        granule,
                        is_write,
                    } => drop(rig.check(i, tid, granule, is_write)?),
                    RangeOp::Clear { granule } => rig.clear(granule),
                }
            }
            rig.words_agree()?;
        }
    );
}

#[test]
fn range_checks_equal_per_granule_fold() {
    range_checks_equal_the_step_fold::<Narrow>();
}

/// The same fold contract on the five-shard geometry, with ranged
/// checks from tids up to 256.
#[test]
fn ranged_sharded_checks_agree_up_to_256_threads() {
    range_checks_equal_the_step_fold::<FiveShards>();
}

// ----- ranged casts & frees -----

/// Vocabulary for the ranged-clear differential: buffer sweeps
/// interleaved with **ranged clears** (`free` / block-granular
/// sharing casts) and **ranged thread exits**. The adversarial case
/// is a `clear_range` or `clear_thread_range` whose edges cut a packed
/// shadow word: the ranged clear must reset exactly the lanes the
/// per-granule fold resets, or a later sweep's words drift from the
/// fold's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HandoffOp {
    Sweep {
        tid: u32,
        span: (usize, usize),
        is_write: bool,
    },
    ClearRange {
        span: (usize, usize),
    },
    ExitRange {
        tid: u32,
        span: (usize, usize),
    },
}

fn handoff_op_gen(threads: u32) -> Gen<HandoffOp> {
    let tid = gen::u32_range(1..threads + 1);
    gen::one_of(vec![
        gen::pair(gen::pair(tid.clone(), gen::bool_any()), span_gen()).map(
            |&((tid, is_write), span)| HandoffOp::Sweep {
                tid,
                span,
                is_write,
            },
        ),
        span_gen().map(|&span| HandoffOp::ClearRange { span }),
        gen::pair(tid, span_gen()).map(|&(tid, span)| HandoffOp::ExitRange { tid, span }),
    ])
}

/// The ranged-clear contract, at one width: a `clear_range` /
/// `clear_thread_range` (one sweep of word-at-a-time stores) leaves
/// verdicts and final shadow words bit-identical to the per-granule
/// `clear` / `clear_thread` fold — on the runtime and on the pure
/// step alike.
fn ranged_clears_equal_the_step_clear_fold<W: Width>() {
    forall!(
        &format!("ranged_clears_equal_the_step_clear_fold/{}", W::NAME),
        cfg(),
        gen::vec_of(handoff_op_gen(W::THREADS), 0..96),
        |ops| {
            let mut rig = Rig::<W>::new(
                RANGE_GRANULES,
                vec![
                    Subject::new("ranged clears", W::shadow(RANGE_GRANULES)),
                    Subject::new("folded clears", W::shadow(RANGE_GRANULES)),
                ],
            );
            for (i, &op) in ops.iter().enumerate() {
                match op {
                    HandoffOp::Sweep {
                        tid,
                        span,
                        is_write,
                    } => rig.check_range(i, tid, span, is_write)?,
                    HandoffOp::ClearRange { span: (start, len) } => {
                        rig.subjects[0].shadow.clear_range(start, len);
                        for g in start..start + len {
                            rig.subjects[1].shadow.clear(g);
                            rig.oracle.clear(g);
                        }
                    }
                    HandoffOp::ExitRange {
                        tid,
                        span: (start, len),
                    } => {
                        let t = ThreadId(tid);
                        rig.subjects[0].shadow.clear_thread_range(start, len, t);
                        for g in start..start + len {
                            rig.subjects[1].shadow.clear_thread(g, t);
                            rig.oracle.clear_thread(g, tid);
                        }
                    }
                }
            }
            rig.words_agree()?;
        }
    );
}

#[test]
fn ranged_clears_equal_per_granule_clear_fold() {
    ranged_clears_equal_the_step_clear_fold::<Narrow>();
}

/// The same ranged-clear contract on the multi-word protocol, with
/// tids up to 256: five shards, sweeps from threads that straddle
/// shard boundaries.
#[test]
fn wide_ranged_clears_equal_per_granule_clear_fold() {
    ranged_clears_equal_the_step_clear_fold::<FiveShards>();
}

/// The whole `CheckEvent` vocabulary over tids `1..=threads`: point
/// and ranged accesses, lock traffic, forks, sharing casts (point and
/// ranged), exits, allocs, and ranged frees. Shared by the lowering
/// differential (narrow tids) and the streaming differential (narrow
/// *and* cross-shard tids).
fn spine_event_gen(threads: u32) -> Gen<CheckEvent> {
    use CheckEvent as E;
    gen::pair(
        gen::u32_range(0..14),
        gen::pair(
            gen::u32_range(1..threads + 1),
            gen::usize_range(0..GRANULES),
        ),
    )
    .map(|&(kind, (tid, granule))| {
        let lock = granule % 3;
        let len = (granule % 5) + 1;
        match kind {
            0 => E::Read { tid, granule },
            1 => E::Write { tid, granule },
            2 | 3 => E::RangeRead { tid, granule, len },
            4 | 5 => E::RangeWrite { tid, granule, len },
            6 => E::Acquire { tid, lock },
            7 => E::Release { tid, lock },
            8 => E::Fork {
                parent: tid,
                child: tid + 1,
            },
            9 => E::SharingCast {
                tid,
                granule,
                refs: 1,
            },
            10 => E::ThreadExit { tid },
            11 => E::RangeCast {
                tid,
                granule,
                len,
                refs: 1,
            },
            12 => E::RangeFree { granule, len },
            _ => E::Alloc { granule },
        }
    })
}

/// Replay-lowering is verdict-invisible for **every** backend, not
/// just SharC's: a trace with range events and the same trace with
/// each range expanded to per-granule events produce bit-identical
/// conflict lists under the bitmap engine, Eraser, and the
/// vector-clock detector. This is what licenses workloads to emit one
/// event per buffer sweep while the §6.2 detector comparison keeps
/// judging the same execution.
#[test]
fn range_replay_lowering_is_bit_identical_for_every_backend() {
    use sharc_checker::lower_ranges;

    forall!(
        "range_replay_lowering_is_bit_identical_for_every_backend",
        cfg(),
        gen::vec_of(spine_event_gen(5), 0..64),
        |events| {
            let lowered = lower_ranges(events);
            prop_assert!(
                !lowered.iter().any(|e| matches!(
                    e,
                    CheckEvent::RangeRead { .. }
                        | CheckEvent::RangeWrite { .. }
                        | CheckEvent::RangeCast { .. }
                        | CheckEvent::RangeFree { .. }
                )),
                "lowering leaves only per-granule events"
            );
            let a = sharc_checker::replay(events, &mut BitmapBackend::new());
            let b = sharc_checker::replay(&lowered, &mut BitmapBackend::new());
            prop_assert!(a == b, "sharc: ranged {:?} vs lowered {:?}", a, b);
            let a = sharc_checker::replay(events, &mut Eraser::new());
            let b = sharc_checker::replay(&lowered, &mut Eraser::new());
            prop_assert!(a == b, "eraser: ranged {:?} vs lowered {:?}", a, b);
            let a = sharc_checker::replay(events, &mut VcDetector::new());
            let b = sharc_checker::replay(&lowered, &mut VcDetector::new());
            prop_assert!(a == b, "vc: ranged {:?} vs lowered {:?}", a, b);
        }
    );
}

/// A [`BitmapBackend`] that starts at one shard and widens itself as
/// wider tids access memory judges every trace exactly as one
/// pre-sized to the trace's widest tid: the same conflicts, and the
/// same words in every granule. The two need not agree on the shard
/// count: only an access widens, so the pre-sized engine may hold
/// shards for tids that only fork, lock or exit, and a widening engine
/// grows by at least half, so it may hold shards no tid reaches.
/// Whichever side is longer, its extra words must be zero.
#[test]
fn a_widening_backend_judges_as_one_presized_to_the_trace() {
    forall!(
        "a_widening_backend_judges_as_one_presized_to_the_trace",
        cfg(),
        gen::vec_of(spine_event_gen(WIDE_THREADS - 1), 0..64),
        |events| {
            let mut grown = BitmapBackend::new();
            let mut sized = BitmapBackend::with_geometry(geometry_for_trace(events));
            let got = sharc_checker::replay(events, &mut grown);
            let want = sharc_checker::replay(events, &mut sized);
            prop_assert!(got == want, "widened {:?} vs pre-sized {:?}", got, want);
            for g in 0..trace_granule_span(events) {
                let (got, want) = (grown.raw_words(g), sized.raw_words(g));
                let common = got.len().min(want.len());
                prop_assert!(
                    got[..common] == want[..common]
                        && got[common..].iter().chain(&want[common..]).all(|&w| w == 0),
                    "granule {}: widened {:x?} vs pre-sized {:x?}",
                    g,
                    got,
                    want
                );
            }
        }
    );
}

/// The named regression: ownership hand-off through a sharing cast
/// (the paper's §2.1 producer/consumer idiom, `examples/minic/handoff.c`).
/// SharC's engine is silent — the `oneref`-checked cast transfers the
/// object and clears its history — while the Eraser adapter, blind to
/// `on_cast_clear`, keeps judging the object by its pre-transfer
/// accesses and reports a false positive on the very same trace.
#[test]
fn ownership_transfer_sharc_silent_eraser_false_positive() {
    use CheckEvent as E;
    let g = 3;
    let trace = vec![
        E::Fork {
            parent: 1,
            child: 2,
        },
        // Producer initializes the private buffer...
        E::Write { tid: 1, granule: g },
        // ...and hands it off with a reference-count-checked cast.
        E::SharingCast {
            tid: 1,
            granule: g,
            refs: 1,
        },
        // Consumer now owns the buffer.
        E::Read { tid: 2, granule: g },
        E::Write { tid: 2, granule: g },
    ];

    let mut sharc = BitmapBackend::new();
    let sharc_conflicts = sharc_checker::replay(&trace, &mut sharc);
    assert!(
        sharc_conflicts.is_empty(),
        "SharC accepts the hand-off: {sharc_conflicts:?}"
    );

    let mut eraser = Eraser::new();
    let eraser_conflicts = sharc_checker::replay(&trace, &mut eraser);
    assert!(
        !eraser_conflicts.is_empty(),
        "Eraser has no ownership-transfer model and must false-positive"
    );

    // Drop the cast from the trace and SharC agrees with Eraser:
    // without the transfer the second thread's write *is* a race.
    let no_cast: Vec<CheckEvent> = trace
        .iter()
        .copied()
        .filter(|e| !matches!(e, E::SharingCast { .. }))
        .collect();
    let mut sharc2 = BitmapBackend::new();
    assert!(
        !sharc_checker::replay(&no_cast, &mut sharc2).is_empty(),
        "the cast is load-bearing: without it SharC reports the race"
    );
}

/// A *native* execution at fleet width: one recorded stunnel run with
/// more than 200 real worker threads, replayed through all three
/// engines. The pinning mirrors the paper's §6.2 comparison on a
/// single concrete execution instead of a synthetic trace:
///
/// * SharC is clean — every hand-off is a reference-count-checked
///   sharing cast, every counter access is under its lock;
/// * Eraser false-positives — the worker's nonce write into the
///   handshake buffer happens after the cast, with an empty lockset
///   intersection against the acceptor's unlocked initialization;
/// * vector clocks are clean — the session-lock release→acquire pair
///   linearized through the event log gives HB the edge the lockset
///   algorithm cannot see.
///
/// The cast-stripping control shows the cast is SharC's load-bearing
/// evidence: without it SharC reports the transfer as a race too.
#[test]
fn stunnel_wide_trace_pins_all_backends() {
    use sharc_workloads::benchmarks::stunnel::{self, Params};

    // ≥ 200 worker tids: workers land at tids 3..=222, four shards.
    let params = Params {
        clients: 220,
        workers: 220,
        messages: 2,
        msg_len: 64,
    };
    let (run, trace) = EventLog::capture(|sink| stunnel::run_with_events(&params, sink));
    assert!(
        run.threads > 200,
        "fleet width: got {} threads",
        run.threads
    );
    assert_eq!(run.conflicts, 0, "the native run itself is clean");
    let widest = trace
        .iter()
        .filter_map(|e| match e {
            CheckEvent::RangeWrite { tid, .. } | CheckEvent::RangeRead { tid, .. } => Some(*tid),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    assert!(widest > 200, "ranged sweeps carry wide tids: max {widest}");

    // SharC, at the geometry the recorded tids demand.
    let geom = geometry_for_trace(&trace);
    assert!(
        geom.shards() > 1,
        "fleet width needs a multi-shard geometry"
    );
    let mut sharc = BitmapBackend::with_geometry(geom);
    let sharc_conflicts = sharc_checker::replay(&trace, &mut sharc);
    assert!(
        sharc_conflicts.is_empty(),
        "SharC accepts the fleet's hand-offs: {sharc_conflicts:?}"
    );

    // Eraser on the identical execution.
    let mut eraser = Eraser::new();
    assert!(
        !sharc_checker::replay(&trace, &mut eraser).is_empty(),
        "Eraser must false-positive on the unlocked ownership transfers"
    );

    // Vector clocks on the identical execution.
    let mut vc = VcDetector::new();
    let vc_conflicts = sharc_checker::replay(&trace, &mut vc);
    assert!(
        vc_conflicts.is_empty(),
        "HB sees the session-lock edges: {vc_conflicts:?}"
    );

    // Control: strip the casts and SharC joins Eraser in reporting.
    let no_cast: Vec<CheckEvent> = trace
        .iter()
        .copied()
        .filter(|e| {
            !matches!(
                e,
                CheckEvent::SharingCast { .. } | CheckEvent::RangeCast { .. }
            )
        })
        .collect();
    let mut sharc2 = BitmapBackend::with_geometry(geom);
    assert!(
        !sharc_checker::replay(&no_cast, &mut sharc2).is_empty(),
        "without the casts the wide-tid transfers are races to SharC"
    );
}

// ----- Streaming detection (PR 7) -----

/// The streaming pipeline's tentpole invariant: for **every** choice
/// of batch size and drain interleaving, feeding a trace through a
/// [`StreamingSink`] yields conflicts bit-identical to the serialized
/// replay fold of the same trace on the same backend — for SharC's
/// bitmap engine, Eraser, and vector clocks alike. Traces draw from
/// the full spine vocabulary (ranged events included) at both narrow
/// and cross-shard tid widths, and the stream's accounting must
/// close: everything recorded is drained, and the peak resident count
/// never exceeds the budget.
#[test]
fn streaming_verdicts_equal_replay_fold_for_every_backend() {
    type BackendFactory = Box<dyn Fn() -> Box<dyn CheckBackend + Send>>;

    let scenario = gen::pair(
        gen::one_of(vec![
            gen::vec_of(spine_event_gen(5), 0..64),
            gen::vec_of(spine_event_gen(WIDE_THREADS - 1), 0..64),
        ]),
        gen::pair(gen::usize_range(1..17), gen::usize_range(0..8)),
    );
    forall!(
        "streaming_verdicts_equal_replay_fold_for_every_backend",
        cfg(),
        scenario,
        |scenario| {
            let (events, (cap, drain_every)) = scenario;
            let (cap, drain_every) = (*cap, *drain_every);
            let backends: Vec<(&str, BackendFactory)> = vec![
                ("sharc", Box::new(|| Box::new(BitmapBackend::new()))),
                ("eraser", Box::new(|| Box::new(Eraser::new()))),
                ("vc", Box::new(|| Box::new(VcDetector::new()))),
            ];
            for (name, make) in &backends {
                let mut replay_backend = make();
                let want = sharc_checker::replay(events, replay_backend.as_mut());
                let sink = StreamingSink::new(1, cap, make());
                for (i, &e) in events.iter().enumerate() {
                    sink.record(e);
                    if drain_every != 0 && (i + 1) % drain_every == 0 {
                        sink.collect();
                    }
                }
                let (got, stats) = sink.finish();
                prop_assert!(
                    got == want,
                    "{}: cap {} drain_every {}: streamed {:?} vs replay {:?}",
                    name,
                    cap,
                    drain_every,
                    got,
                    want
                );
                prop_assert!(
                    stats.recorded == events.len() as u64 && stats.drained == stats.recorded,
                    "{}: accounting must close: {:?} over {} events",
                    name,
                    stats,
                    events.len()
                );
                prop_assert!(
                    stats.peak_resident <= stats.ring_budget,
                    "{}: peak {} exceeds ring budget {}",
                    name,
                    stats.peak_resident,
                    stats.ring_budget
                );
            }
        }
    );
}

/// Streaming at fleet width: the same >200-worker recorded stunnel
/// execution that pins the three replay engines is streamed through
/// a sink with a deliberately tiny batch size, and the
/// collector's verdict is bit-identical to the replay fold while the
/// peak resident event count stays inside the fixed ring budget —
/// the recorded trace is three orders of magnitude larger. A second,
/// *live* streaming run (real worker threads racing the collector)
/// then confirms verdict parity under actual concurrency: SharC
/// clean, Eraser false-positive, with the budget still holding.
#[test]
fn stunnel_streaming_is_bit_identical_to_replay_at_fleet_width() {
    use std::sync::Arc;

    use sharc_workloads::benchmarks::stunnel::{self, Params};

    let params = Params {
        clients: 220,
        workers: 220,
        messages: 2,
        msg_len: 64,
    };
    let (run, trace) = EventLog::capture(|sink| stunnel::run_with_events(&params, sink));
    assert!(
        run.threads > 200,
        "fleet width: got {} threads",
        run.threads
    );
    let geom = geometry_for_trace(&trace);
    assert!(geom.shards() > 1, "wide tids demand a multi-shard geometry");

    // Replay fold of the recorded execution — the pinned oracle.
    let want = sharc_checker::replay(&trace, &mut BitmapBackend::with_geometry(geom));
    assert!(want.is_empty(), "SharC accepts the fleet: {want:?}");

    // The identical recorded execution, streamed in tiny batches
    // with periodic mid-stream drains.
    let sink = StreamingSink::new(1, 64, Box::new(BitmapBackend::with_geometry(geom)));
    for (i, &e) in trace.iter().enumerate() {
        sink.record(e);
        if (i + 1) % 97 == 0 {
            sink.collect();
        }
    }
    let (got, stats) = sink.finish();
    assert_eq!(got, want, "streamed verdicts must equal the replay fold");
    assert_eq!(stats.recorded, trace.len() as u64);
    assert_eq!(stats.drained, stats.recorded, "no event may be lost");
    assert!(
        stats.peak_resident <= stats.ring_budget,
        "peak {} exceeds ring budget {}",
        stats.peak_resident,
        stats.ring_budget
    );
    assert!(
        stats.ring_budget < trace.len() / 2,
        "the budget must be far below the trace ({} vs {})",
        stats.ring_budget,
        trace.len()
    );

    // Live: real threads race the collector, same fixed budget.
    let wide = ShadowGeometry::for_threads(params.workers + 2);
    let live = Arc::new(StreamingSink::new(
        1,
        64,
        Box::new(BitmapBackend::with_geometry(wide)),
    ));
    let live_run = stunnel::run_with_events(&params, live.clone());
    let (live_conflicts, live_stats) = live.finish();
    assert_eq!(live_run.conflicts, 0, "the live run itself is clean");
    assert!(
        live_conflicts.is_empty(),
        "live streaming SharC stays clean: {live_conflicts:?}"
    );
    assert!(
        live_stats.peak_resident <= live_stats.ring_budget,
        "live peak {} exceeds ring budget {}",
        live_stats.peak_resident,
        live_stats.ring_budget
    );
    assert!(
        live_stats.recorded > live_stats.ring_budget as u64,
        "live budget {} must bind over {} recorded events",
        live_stats.ring_budget,
        live_stats.recorded
    );
    assert!(
        live_stats.drains >= 2,
        "the live collector must drain ({} drains)",
        live_stats.drains
    );
    assert_eq!(live_stats.drained, live_stats.recorded);

    // Eraser live-streams its ownership-transfer false positive too.
    let eraser = Arc::new(StreamingSink::new(1, 64, Box::new(Eraser::new())));
    stunnel::run_with_events(&params, eraser.clone());
    let (eraser_conflicts, _) = eraser.finish();
    assert!(
        !eraser_conflicts.is_empty(),
        "Eraser must false-positive while streaming live"
    );
}

/// A backend that logs the granules of its checks in the order the
/// fold hands them over, and passes every one.
struct OrderLog(std::sync::Arc<std::sync::Mutex<Vec<usize>>>);

impl CheckBackend for OrderLog {
    fn name(&self) -> &'static str {
        "order-log"
    }
    fn chkread(&mut self, _tid: u32, granule: usize) -> Verdict {
        self.0.lock().unwrap().push(granule);
        Verdict::Pass
    }
    fn chkwrite(&mut self, _tid: u32, granule: usize) -> Verdict {
        self.0.lock().unwrap().push(granule);
        Verdict::Pass
    }
    fn lock_held(&self, _tid: u32, _lock: usize) -> bool {
        true
    }
}

/// The streaming fold keeps record order while collects race the
/// recorders. Three recorder threads write ascending granules (thread
/// `t`'s `i`-th write is granule `t * SPAN + i`) and pass a token
/// round-robin through an atomic: the holder of step `s` records one
/// write after its Acquire load and before its Release store of
/// `s + 1`, so those token writes are causally ordered across threads.
/// A fourth thread calls `collect` in a loop. At every batch size the
/// fold must see each write exactly once, each thread's writes in
/// program order, and the token writes in step order.
#[test]
fn the_fold_keeps_record_order_under_racing_drains() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    const SPAN: usize = 1 << 20;
    const ROUNDS: usize = 40;
    const FREE: usize = 3;
    for cap in 1..=4 {
        for _ in 0..25 {
            let log = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::new(StreamingSink::new(1, cap, Box::new(OrderLog(log.clone()))));
            let token = Arc::new(AtomicUsize::new(0));
            let done = Arc::new(AtomicBool::new(false));
            let collector = {
                let (sink, done) = (sink.clone(), done.clone());
                std::thread::spawn(move || {
                    while !done.load(Ordering::Acquire) {
                        sink.collect();
                    }
                })
            };
            let recorders: Vec<_> = (0..3)
                .map(|idx| {
                    let (sink, token) = (sink.clone(), token.clone());
                    std::thread::spawn(move || {
                        let tid = idx as u32 + 1;
                        let mut granules = (0..).map(|i| tid as usize * SPAN + i);
                        for round in 0..ROUNDS {
                            for granule in granules.by_ref().take(FREE) {
                                sink.record(CheckEvent::Write { tid, granule });
                            }
                            let step = 3 * round + idx;
                            while token.load(Ordering::Acquire) != step {
                                std::thread::yield_now();
                            }
                            let granule = granules.next().unwrap();
                            sink.record(CheckEvent::Write { tid, granule });
                            token.store(step + 1, Ordering::Release);
                        }
                    })
                })
                .collect();
            for r in recorders {
                r.join().unwrap();
            }
            done.store(true, Ordering::Release);
            collector.join().unwrap();
            let (_, stats) = sink.finish();
            let log = log.lock().unwrap();
            let per_thread = ROUNDS * (FREE + 1);
            assert_eq!(log.len(), 3 * per_thread, "cap {cap}: {stats:?}");
            assert_eq!(stats.drained, stats.recorded);
            assert!(stats.peak_resident <= stats.ring_budget, "{stats:?}");
            let mut next = [0usize; 3];
            let mut token_steps = Vec::new();
            for &g in log.iter() {
                let (idx, i) = (g / SPAN - 1, g % SPAN);
                assert_eq!(i, next[idx], "cap {cap}: thread {} out of order", idx + 1);
                next[idx] += 1;
                if i % (FREE + 1) == FREE {
                    token_steps.push(3 * (i / (FREE + 1)) + idx);
                }
            }
            assert!(
                token_steps.windows(2).all(|w| w[0] < w[1]),
                "cap {cap}: token writes out of causal order: {token_steps:?}"
            );
        }
    }
}

/// Traces for the fold-equivalence property: reads and writes, point
/// and ranged, over six 64-granule chunks (so one range can cross a
/// chunk border), lock triples and unheld locked accesses, passing and
/// failing casts (point and ranged), forks, joins, exits, allocs and
/// ranged frees. The tid ceiling rises with the position in the trace,
/// so tids past one 63-tid shard arrive mid-trace and a widening
/// engine re-strides there.
fn fold_trace_gen() -> Gen<Vec<CheckEvent>> {
    let draw = gen::pair(
        gen::pair(gen::u32_range(0..16), gen::u32_range(0..WIDE_THREADS)),
        gen::pair(gen::usize_range(0..4 * 64), gen::usize_range(1..80)),
    );
    gen::vec_of(draw, 0..96).map(|draws| {
        use CheckEvent as E;
        let mut out = Vec::new();
        for (i, &((kind, tid), (granule, len))) in draws.iter().enumerate() {
            let tid = 1 + tid % (8 + 4 * i as u32);
            let lock = granule % 3;
            let refs = 1 + (len % 2) as u64;
            match kind {
                0 | 1 => out.push(E::Read { tid, granule }),
                2 | 3 => out.push(E::Write { tid, granule }),
                4 => out.push(E::RangeRead { tid, granule, len }),
                5 => out.push(E::RangeWrite { tid, granule, len }),
                6 => out.extend([
                    E::Acquire { tid, lock },
                    E::LockedAccess { tid, lock },
                    E::Release { tid, lock },
                ]),
                7 => out.push(E::LockedAccess { tid, lock }),
                8 => out.push(E::SharingCast { tid, granule, refs }),
                9 => out.push(E::RangeCast {
                    tid,
                    granule,
                    len,
                    refs,
                }),
                10 | 11 => out.push(E::ThreadExit { tid }),
                12 => out.push(E::Fork {
                    parent: tid,
                    child: tid + 1,
                }),
                13 => out.push(E::Join {
                    parent: tid,
                    child: tid + 1,
                }),
                14 => out.push(E::RangeFree { granule, len }),
                _ => out.push(E::Alloc { granule }),
            }
        }
        out
    })
}

/// `sharc::judge_trace` folds through each detector's engine itself,
/// not through `dyn CheckBackend`; its verdict must be the boxed
/// engine's `dyn` fold, deduplicated, for all three detectors — same
/// name, same conflicts, same order.
#[test]
fn judge_trace_equals_the_dyn_fold_for_every_detector() {
    use sharc::DetectorKind;
    use std::collections::HashSet;

    forall!(
        "judge_trace_equals_the_dyn_fold_for_every_detector",
        cfg(),
        fold_trace_gen(),
        |events| {
            for kind in [DetectorKind::Sharc, DetectorKind::Eraser, DetectorKind::Vc] {
                let (name, mut engine) = kind.backend();
                let mut seen = HashSet::new();
                let folded: Vec<_> = sharc_checker::replay(events, &mut *engine)
                    .into_iter()
                    .filter(|c| seen.insert(*c))
                    .collect();
                let got = sharc::judge_trace(events, kind);
                prop_assert!(
                    got == (name, folded.clone()),
                    "{:?}: judge_trace {:?} vs dyn fold {:?}",
                    kind,
                    got,
                    folded
                );
            }
        }
    );
}
