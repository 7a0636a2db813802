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
//! — and then race two real threads on adjacent lanes of one word.

use sharc_checker::step::{bitmap, Access, Transition};
use sharc_runtime::{OneWord, Shadow, ShadowWord, ThreadId};
use sharc_testkit::gen::{self, Gen};
use sharc_testkit::prop::Config;
use sharc_testkit::{forall, prop_assert};
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// Not a multiple of any lane count but one: the last word of every
/// packed width is partial, and most spans start and end mid-word.
const GRANULES: usize = 21;

/// The specification: one unpacked word per granule.
struct StepOracle(Vec<u64>);

impl StepOracle {
    /// One access; true iff it conflicts (and so installs nothing).
    fn check(&mut self, tid: u32, granule: usize, access: Access) -> bool {
        match bitmap::step(self.0[granule], tid, access) {
            Transition::Unchanged => false,
            Transition::Conflict => true,
            Transition::Install(new) => {
                self.0[granule] = new;
                false
            }
        }
    }
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
/// every verdict equals the oracle's, and after **every** operation so
/// does every granule's word — an edge word that disturbed a lane
/// outside its run shows up at once, on the op that did it.
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
                    Op::Sweep {
                        tid,
                        span: (start, len),
                        access,
                    } => {
                        let t = ThreadId(tid);
                        let got = shadow.check_range(start, len, t, access, |_| {}, |_| {});
                        let want = (start..start + len)
                            .filter(|&g| oracle.check(tid, g, access))
                            .count();
                        prop_assert!(got == want, "{} op {}: {:?} conflicts", name, i, op);
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

/// Two real threads, each alone on its own granule, the two granules
/// adjacent lanes of one packed word. Neither can ever conflict, so
/// every install must report `newly`, be visible at once, and be gone
/// after the thread's own clear: an install or a clear lost to the
/// neighbour's splice of a stale word breaks one of the three. The
/// threads publish their round and never run more than a few rounds
/// apart, so they are on the word together from the first round to
/// the last.
#[test]
fn neighbours_in_one_word_never_lose_an_install_or_a_clear() {
    const ROUNDS: usize = 50_000;
    const MAX_LEAD: usize = 8;
    /// A thread's published round; `usize::MAX` once it has left, by
    /// return or by panic, so its partner never waits on the dead.
    struct Progress<'a>(&'a AtomicUsize);
    impl Drop for Progress<'_> {
        fn drop(&mut self) {
            self.0.store(usize::MAX, Ordering::Release);
        }
    }

    let shadow: Shadow = Shadow::new(8);
    let rounds = [AtomicUsize::new(0), AtomicUsize::new(0)];
    std::thread::scope(|scope| {
        for (me, (tid, granule)) in [(1u32, 3usize), (2, 4)].into_iter().enumerate() {
            let (shadow, rounds) = (&shadow, &rounds);
            scope.spawn(move || {
                let t = ThreadId(tid);
                let mine = Progress(&rounds[me]);
                for round in 0..ROUNDS {
                    mine.0.store(round, Ordering::Release);
                    while rounds[1 - me].load(Ordering::Acquire) < round.saturating_sub(MAX_LEAD) {
                        std::hint::spin_loop();
                    }
                    let access = if round % 3 == 0 {
                        Access::Read
                    } else {
                        Access::Write
                    };
                    assert_eq!(
                        shadow.check(granule, t, access),
                        Ok(true),
                        "tid {tid} round {round}: install"
                    );
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
        assert_eq!(shadow.raw(g), 0, "granule {g}");
    }
}
