//! The lane packing of [`OneWord`] against the pure step functions on
//! raw, unpacked words.
//!
//! `OneWord<W>` keeps `8 / n` granules' `n`-byte words in one
//! `AtomicU64`. Per-granule transitions splice one lane with a CAS on
//! the containing word; ranged clears handle a whole word per atomic
//! operation and mask the lanes outside the run at its two edge words.
//! What that must never do is touch a neighbour: these tests hold every
//! width against an oracle that has no lanes at all — one `u64` per
//! granule, `bitmap::step` and `bitmap::clear_thread` applied directly
//! — and then race two real threads on adjacent lanes of one word, and
//! two ranged sweeps over the same lanes.

use sharc_checker::step::{bitmap, Access, Transition};
use sharc_runtime::{OneWord, RaceError, Shadow, ShadowWord, ThreadId};
use sharc_testkit::gen::{self, Gen};
use sharc_testkit::prop::Config;
use sharc_testkit::{forall, prop_assert};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Not a multiple of any lane count but one: the last word of every
/// packed width is partial, and most spans start and end mid-word.
const GRANULES: usize = 21;

/// The specification: one unpacked word per granule.
struct StepOracle(Vec<u64>);

impl StepOracle {
    /// One access, installed if the step installs; what the step said.
    fn step(&mut self, tid: u32, granule: usize, access: Access) -> Transition {
        let step = bitmap::step(self.0[granule], tid, access);
        if let Transition::Install(new) = step {
            self.0[granule] = new;
        }
        step
    }

    /// One access; true iff it conflicts (and so installs nothing).
    fn check(&mut self, tid: u32, granule: usize, access: Access) -> bool {
        self.step(tid, granule, access).is_conflict()
    }

    /// The per-granule fold a ranged check must reproduce: every
    /// callback, in the order the fold fires them, each conflict
    /// observing the granule's word as the step saw it.
    fn sweep(&mut self, tid: u32, (start, len): (usize, usize), access: Access) -> Vec<Report> {
        (start..start + len)
            .filter_map(|granule| {
                let observed = self.0[granule];
                match self.step(tid, granule, access) {
                    Transition::Unchanged => None,
                    Transition::Install(_) => Some(Report::Newly(granule)),
                    Transition::Conflict => Some(Report::Conflict(RaceError {
                        granule,
                        was_write: access.is_write(),
                        observed,
                    })),
                }
            })
            .collect()
    }
}

/// One callback of a ranged check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Report {
    Newly(usize),
    Conflict(RaceError),
}

/// A ranged check on `shadow`: every callback, in the order they
/// fired, once the returned conflict count is held against them.
fn sweep<W: ShadowWord>(
    shadow: &Shadow<OneWord<W>>,
    tid: u32,
    (start, len): (usize, usize),
    access: Access,
) -> Vec<Report> {
    let reports = RefCell::new(Vec::new());
    let conflicts = shadow.check_range(
        start,
        len,
        ThreadId(tid),
        access,
        |g| reports.borrow_mut().push(Report::Newly(g)),
        |e| reports.borrow_mut().push(Report::Conflict(e)),
    );
    let reports = reports.into_inner();
    let reported = reports
        .iter()
        .filter(|r| matches!(r, Report::Conflict(_)))
        .count();
    assert_eq!(conflicts, reported, "the count agrees with on_conflict");
    reports
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Point {
        tid: u32,
        granule: usize,
        access: Access,
    },
    Sweep {
        tid: u32,
        span: (usize, usize),
        access: Access,
    },
    Clear {
        granule: usize,
    },
    Exit {
        tid: u32,
        granule: usize,
    },
    ClearRange {
        span: (usize, usize),
    },
    ExitRange {
        tid: u32,
        span: (usize, usize),
    },
}

/// Thread ids for a width: the two lowest and the highest, whose bit
/// is the lane's top one — next to a neighbour's writer flag.
fn op_gen(max_thread: u32) -> Gen<Op> {
    let tid = gen::choose(vec![1, 2, max_thread]);
    let granule = gen::usize_range(0..GRANULES);
    let span = gen::pair(granule.clone(), gen::usize_range(1..GRANULES + 1))
        .map(|&(start, len)| (start, len.min(GRANULES - start)));
    let access = gen::bool_any().map(|&w| if w { Access::Write } else { Access::Read });
    let who = gen::pair(tid.clone(), access);
    gen::one_of(vec![
        gen::pair(who.clone(), granule.clone()).map(|&((tid, access), granule)| Op::Point {
            tid,
            granule,
            access,
        }),
        gen::pair(who, span.clone()).map(|&((tid, access), span)| Op::Sweep { tid, span, access }),
        granule.clone().map(|&granule| Op::Clear { granule }),
        gen::pair(tid.clone(), granule).map(|&(tid, granule)| Op::Exit { tid, granule }),
        span.clone().map(|&span| Op::ClearRange { span }),
        gen::pair(tid, span).map(|&(tid, span)| Op::ExitRange { tid, span }),
    ])
}

/// Mixed per-granule and ranged operations on `Shadow<OneWord<W>>`:
/// every verdict equals the oracle's — for a sweep, every `on_newly`
/// and `on_conflict` callback, in order, each conflict's `observed`
/// included — and after **every** operation so does every granule's
/// word: an edge word that disturbed a lane outside its run shows up
/// at once, on the op that did it.
fn lanes_agree_with_the_step_oracle<W: ShadowWord>(name: &str) {
    forall!(
        &format!("lanes_agree_with_the_step_oracle/{name}"),
        Config::from_env().at_least(128),
        gen::vec_of(op_gen(W::MAX_THREAD), 0..96),
        |ops| {
            let shadow: Shadow<OneWord<W>> = Shadow::new(GRANULES);
            let mut oracle = StepOracle(vec![0; GRANULES]);
            for (i, &op) in ops.iter().enumerate() {
                match op {
                    Op::Point {
                        tid,
                        granule,
                        access,
                    } => {
                        let got = shadow.check(granule, ThreadId(tid), access).is_err();
                        let want = oracle.check(tid, granule, access);
                        prop_assert!(got == want, "{} op {}: {:?} verdict", name, i, op);
                    }
                    Op::Sweep { tid, span, access } => {
                        let got = sweep(&shadow, tid, span, access);
                        let want = oracle.sweep(tid, span, access);
                        prop_assert!(
                            got == want,
                            "{} op {}: {:?} reported {:?}, the step fold {:?}",
                            name,
                            i,
                            op,
                            got,
                            want
                        );
                    }
                    Op::Clear { granule } => {
                        shadow.clear(granule);
                        oracle.0[granule] = 0;
                    }
                    Op::Exit { tid, granule } => {
                        shadow.clear_thread(granule, ThreadId(tid));
                        oracle.0[granule] = bitmap::clear_thread(oracle.0[granule], tid);
                    }
                    Op::ClearRange { span: (start, len) } => {
                        shadow.clear_range(start, len);
                        oracle.0[start..start + len].fill(0);
                    }
                    Op::ExitRange {
                        tid,
                        span: (start, len),
                    } => {
                        shadow.clear_thread_range(start, len, ThreadId(tid));
                        for w in &mut oracle.0[start..start + len] {
                            *w = bitmap::clear_thread(*w, tid);
                        }
                    }
                }
                for g in 0..GRANULES {
                    prop_assert!(
                        shadow.raw(g) == oracle.0[g],
                        "{} op {}: {:?} left granule {} as {:#x}, step as {:#x}",
                        name,
                        i,
                        op,
                        g,
                        shadow.raw(g),
                        oracle.0[g]
                    );
                }
            }
        }
    );
}

#[test]
fn every_width_agrees_with_the_step_oracle_off_word_boundaries() {
    lanes_agree_with_the_step_oracle::<AtomicU8>("8 lanes");
    lanes_agree_with_the_step_oracle::<AtomicU16>("4 lanes");
    lanes_agree_with_the_step_oracle::<AtomicU32>("2 lanes");
    lanes_agree_with_the_step_oracle::<AtomicU64>("1 lane");
}

/// A thread's published round; `usize::MAX` once it has left, by
/// return or by panic, so its partner never waits on the dead.
struct Progress<'a>(&'a AtomicUsize);

impl Progress<'_> {
    /// Publishes `round`, then waits until `partner` is at most
    /// `lead` rounds behind it.
    fn enter(&self, round: usize, partner: &AtomicUsize, lead: usize) {
        self.0.store(round, Ordering::Release);
        while partner.load(Ordering::Acquire) < round.saturating_sub(lead) {
            std::hint::spin_loop();
        }
    }
}

impl Drop for Progress<'_> {
    fn drop(&mut self) {
        self.0.store(usize::MAX, Ordering::Release);
    }
}

/// Two real threads, each alone on its own granule, the two granules
/// adjacent lanes of one packed word. Neither can ever conflict there,
/// so every install — point or ranged — must report `newly`, be
/// visible at once, and be gone after the thread's own clear: an
/// install or a clear lost to the neighbour's splice of a stale word
/// breaks one of the three. The ranged install also covers the lane on
/// its other side, which a third tid owns, so its CAS retry races the
/// neighbour's lane with a conflict in the snapshot: that conflict is
/// reported once, from the snapshot the CAS installed over. The
/// threads publish their round and never run more than a few rounds
/// apart, so they are on the word together from the first round to the
/// last.
#[test]
fn neighbours_in_one_word_never_lose_an_install_or_a_clear() {
    const ROUNDS: usize = 50_000;
    const MAX_LEAD: usize = 8;
    const FOREIGN: u32 = 3;
    const FOREIGN_OWNER: u64 = bitmap::WRITER_FLAG | 1 << FOREIGN;

    let shadow: Shadow = Shadow::new(8);
    for g in [2, 5] {
        shadow.check_write(g, ThreadId(FOREIGN)).unwrap();
    }
    let rounds = [AtomicUsize::new(0), AtomicUsize::new(0)];
    std::thread::scope(|scope| {
        // Each thread's granule, and the foreign one on its far side.
        for (me, (tid, granule, theirs)) in
            [(1u32, 3usize, 2usize), (2, 4, 5)].into_iter().enumerate()
        {
            let (shadow, rounds) = (&shadow, &rounds);
            scope.spawn(move || {
                let t = ThreadId(tid);
                let mine = Progress(&rounds[me]);
                for round in 0..ROUNDS {
                    mine.enter(round, &rounds[1 - me], MAX_LEAD);
                    let access = if round % 3 == 0 {
                        Access::Read
                    } else {
                        Access::Write
                    };
                    // Point and ranged installs, each with all four
                    // clears below.
                    if round / 4 % 2 == 0 {
                        assert_eq!(
                            shadow.check(granule, t, access),
                            Ok(true),
                            "tid {tid} round {round}: install"
                        );
                    } else {
                        let conflict = Report::Conflict(RaceError {
                            granule: theirs,
                            was_write: access.is_write(),
                            observed: FOREIGN_OWNER,
                        });
                        let (span, want) = if theirs < granule {
                            ((theirs, 2), vec![conflict, Report::Newly(granule)])
                        } else {
                            ((granule, 2), vec![Report::Newly(granule), conflict])
                        };
                        assert_eq!(
                            sweep(shadow, tid, span, access),
                            want,
                            "tid {tid} round {round}: ranged install"
                        );
                    }
                    let installed = match access {
                        Access::Read => 1 << tid,
                        Access::Write => bitmap::WRITER_FLAG | 1 << tid,
                    };
                    assert_eq!(
                        shadow.raw(granule),
                        installed,
                        "tid {tid} round {round}: install lost"
                    );
                    // The three ways a lane is cleared: the exit's
                    // CAS, the cast's edge-word mask, the point reset.
                    match round % 4 {
                        0 => shadow.clear_thread(granule, t),
                        1 => shadow.clear_thread_range(granule, 1, t),
                        2 => shadow.clear_range(granule, 1),
                        _ => shadow.clear(granule),
                    }
                    assert_eq!(
                        shadow.raw(granule),
                        0,
                        "tid {tid} round {round}: clear lost"
                    );
                }
            });
        }
    });
    for g in 0..8 {
        let want = if g == 2 || g == 5 { FOREIGN_OWNER } else { 0 };
        assert_eq!(shadow.raw(g), want, "granule {g}");
    }
}

/// Two real threads write-sweep the same run, which starts and ends
/// mid-word at every packed width, from a cleared shadow, round after
/// round. Whoever's CAS lands first on a word owns its covered lanes;
/// the other's CAS fails and its re-step conflicts on them. So every
/// granule has exactly one installer and exactly one conflict report,
/// the report observes the installer's owner word, and the lane ends
/// as that word. A conflict or an install reported from a snapshot
/// whose CAS lost breaks one of these. The threads meet before and
/// after every pair of sweeps; the run is long enough (16 words at 8
/// lanes) that two sweeps started together are still on the same
/// words when the first CAS lands, in release builds too.
fn racing_sweeps_install_each_granule_once<W: ShadowWord>(name: &str) {
    const ROUNDS: usize = 2_000;
    const SPAN: (usize, usize) = (3, 122);
    const TIDS: [u32; 2] = [1, 2];
    let (start, len) = SPAN;
    let owner = |tid: u32| bitmap::WRITER_FLAG | 1 << tid;

    let shadow: Shadow<OneWord<W>> = Shadow::new(128);
    let phases = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let reports = [Mutex::new(Vec::new()), Mutex::new(Vec::new())];
    std::thread::scope(|scope| {
        for (me, tid) in TIDS.into_iter().enumerate() {
            let (shadow, phases, reports) = (&shadow, &phases, &reports);
            scope.spawn(move || {
                let mine = Progress(&phases[me]);
                for round in 0..ROUNDS {
                    // The run is clear: sweep it.
                    mine.enter(2 * round + 1, &phases[1 - me], 0);
                    *reports[me].lock().unwrap() = sweep(shadow, tid, SPAN, Access::Write);
                    // Both sweeps are done: the first thread judges
                    // the round and clears the run for the next.
                    mine.enter(2 * round + 2, &phases[1 - me], 0);
                    if me > 0 {
                        continue;
                    }
                    let got = reports
                        .each_ref()
                        .map(|r| std::mem::take(&mut *r.lock().unwrap()));
                    for (tid, got) in TIDS.into_iter().zip(&got) {
                        let granules: Vec<usize> = got
                            .iter()
                            .map(|r| match r {
                                Report::Newly(g) => *g,
                                Report::Conflict(e) => e.granule,
                            })
                            .collect();
                        assert_eq!(
                            granules,
                            (start..start + len).collect::<Vec<_>>(),
                            "{name} tid {tid} round {round}: one report per granule, in order"
                        );
                    }
                    for (i, g) in (start..start + len).enumerate() {
                        let winner = match (got[0][i], got[1][i]) {
                            (Report::Newly(_), Report::Conflict(e)) => (TIDS[0], e),
                            (Report::Conflict(e), Report::Newly(_)) => (TIDS[1], e),
                            pair => panic!(
                                "{name} round {round} granule {g}: not one install and one \
                                 conflict: {pair:?}"
                            ),
                        };
                        let (tid, e) = winner;
                        assert_eq!(
                            (e.was_write, e.observed, shadow.raw(g)),
                            (true, owner(tid), owner(tid)),
                            "{name} round {round} granule {g}: tid {tid} installed"
                        );
                    }
                    shadow.clear_range(start, len);
                    for g in 0..shadow.len() {
                        assert_eq!(shadow.raw(g), 0, "{name} round {round} granule {g}");
                    }
                }
            });
        }
    });
}

#[test]
fn racing_sweeps_install_each_granule_once_at_every_packed_width() {
    racing_sweeps_install_each_granule_once::<AtomicU8>("8 lanes");
    racing_sweeps_install_each_granule_once::<AtomicU16>("4 lanes");
    racing_sweeps_install_each_granule_once::<AtomicU32>("2 lanes");
}

// The last word's padding lanes (21 granules: lanes 5..8 of word 2)
// belong to no granule; a ranged call that reaches them panics in
// every build instead of reading and writing them.

#[test]
#[should_panic(expected = "granule run out of range")]
fn a_sweep_into_the_padding_lanes_panics() {
    let shadow: Shadow = Shadow::new(GRANULES);
    shadow.check_range_write(20, 3, ThreadId(1), |_| {}, |_| {});
}

#[test]
#[should_panic(expected = "granule run out of range")]
fn a_clear_into_the_padding_lanes_panics() {
    let shadow: Shadow = Shadow::new(GRANULES);
    shadow.clear_range(19, 5);
}

#[test]
#[should_panic(expected = "granule run out of range")]
fn an_exit_clear_into_the_padding_lanes_panics() {
    let shadow: Shadow = Shadow::new(GRANULES);
    shadow.clear_thread_range(19, 5, ThreadId(1));
}
