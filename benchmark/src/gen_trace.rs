//! Seeded `CheckEvent` trace generators for `trace-replay`.
//!
//! [`spine_trace`] is the load: a conflict-free trace in the shape a
//! native fleet records (the shape of `sharc-bench`'s
//! `synthetic_spine_trace`, re-implemented here so the benchmark owns
//! its inputs). [`key_trace`] is the answer key: a small trace with
//! races and cast hand-offs planted at known places, which emits the
//! conflict set each detector must report — so a verdict is compared
//! with what the generator planted, never with another engine's output.

use sharc_checker::{CheckEvent, CheckKind, Conflict};
use sharc_testkit::rng::{Rng, Xoshiro256pp};

/// Granules in each worker's private band of the spine trace: one
/// epoch region at the default geometry, so region-sharded parallel
/// replay is balanced by construction.
pub const BAND: usize = 512;

/// A conflict-free trace of exactly `events` events plus one fork and
/// one exit per worker: `threads` workers (tids `2..`), each confined
/// to a private band of [`BAND`] granules, recording in bursts of
/// 16–63 events with the full vocabulary at server-fleet ratios
/// (55 % writes, 30 % reads, 9 % ranged, 2 % lock triples, 4 % casts).
/// The mix is drawn per event, so two seeds differ in content but not
/// in size or, beyond sampling noise, in work.
pub fn spine_trace(seed: u64, events: usize, threads: u32) -> Vec<CheckEvent> {
    use CheckEvent as E;
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x7370_696e);
    let mut out = Vec::with_capacity(events + 2 * threads as usize + 2);
    for t in 0..threads {
        out.push(E::Fork {
            parent: 1,
            child: t + 2,
        });
    }
    let body_end = events + threads as usize;
    while out.len() < body_end {
        let tid = rng.gen_range(0..threads) + 2;
        let band = (tid as usize - 2) * BAND;
        for _ in 0..rng.gen_range(16..64usize) {
            let len = rng.gen_range(1..8usize);
            // Keep `granule + len` inside the band: a range spilling
            // into the neighbour's band would be a real race.
            let granule = band + rng.gen_range(0..BAND - len);
            match rng.gen_range(0..100u32) {
                0..=54 => out.push(E::Write { tid, granule }),
                55..=84 => out.push(E::Read { tid, granule }),
                85..=89 => out.push(E::RangeWrite { tid, granule, len }),
                90..=93 => out.push(E::RangeRead { tid, granule, len }),
                94..=95 => {
                    // A held-lock access; the lock is private to the
                    // thread so the triple is legal wherever it lands.
                    let lock = tid as usize;
                    out.push(E::Acquire { tid, lock });
                    out.push(E::LockedAccess { tid, lock });
                    out.push(E::Release { tid, lock });
                }
                96..=97 => out.push(E::SharingCast {
                    tid,
                    granule,
                    refs: 1,
                }),
                _ => out.push(E::RangeCast {
                    tid,
                    granule,
                    len,
                    refs: 1,
                }),
            }
        }
    }
    out.truncate(body_end);
    for t in 0..threads {
        out.push(E::ThreadExit { tid: t + 2 });
    }
    out
}

/// What each detector must report on a [`key_trace`], as sorted,
/// deduplicated `(kind, tid, granule)` sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpectedVerdicts {
    /// SharC: exactly the planted races.
    pub sharc: Vec<Conflict>,
    /// Eraser: the races plus one false positive per handed-off
    /// granule (it has no ownership-transfer model).
    pub eraser: Vec<Conflict>,
    /// Vector clocks: exactly the races (every hand-off is ordered by
    /// the hand-off lock's release/acquire edge).
    pub vc: Vec<Conflict>,
    pub handoff_granules: usize,
}

/// Lock id every planted hand-off publishes through.
const HANDOFF_LOCK: usize = 0;

/// A small trace over `threads` live workers with `races` planted
/// races and `handoffs` planted cast hand-offs, and the verdicts it
/// must draw.
///
/// *Race*: live thread `a` writes a fresh granule and live thread `b`
/// writes it in the very next event — no lock, no cast. The two
/// events are adjacent, so no release/acquire pair can fall between
/// them and happens-before cannot order them.
///
/// *Hand-off*: `a` writes a fresh run of 1–4 granules, casts it away
/// (`SharingCast` / `RangeCast`, one reference), releases the hand-off
/// lock; `b` acquires and releases it, then writes the run outside the
/// lock. SharC sees the cast, vector clocks see the lock edge, Eraser
/// sees an empty lockset.
///
/// Planted granules are used once, so every expected conflict is a
/// distinct `(kind, tid, granule)` key. Background bursts in private
/// bands (private lock ids) separate the episodes.
pub fn key_trace(
    seed: u64,
    threads: u32,
    races: usize,
    handoffs: usize,
) -> (Vec<CheckEvent>, ExpectedVerdicts) {
    use CheckEvent as E;
    assert!(threads >= 2, "a race needs two live threads");
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x6b65_7973);
    let mut out = Vec::new();
    for t in 0..threads {
        out.push(E::Fork {
            parent: 1,
            child: t + 2,
        });
    }
    let mut fresh = threads as usize * BAND; // first granule past the bands
    let mut episodes: Vec<bool> = (0..races + handoffs).map(|i| i < races).collect();
    rng.shuffle(&mut episodes);
    let (mut sharc, mut eraser) = (Vec::new(), Vec::new());
    let mut handoff_granules = 0;
    for is_race in episodes {
        for _ in 0..rng.gen_range(8..40usize) {
            let tid = rng.gen_range(0..threads) + 2;
            let granule = (tid as usize - 2) * BAND + rng.gen_range(0..BAND);
            match rng.gen_range(0..10u32) {
                0..=5 => out.push(E::Write { tid, granule }),
                6..=8 => out.push(E::Read { tid, granule }),
                _ => {
                    let lock = 1000 + tid as usize;
                    out.push(E::Acquire { tid, lock });
                    out.push(E::LockedAccess { tid, lock });
                    out.push(E::Release { tid, lock });
                }
            }
        }
        let a = rng.gen_range(0..threads) + 2;
        let b = (a - 2 + rng.gen_range(1..threads)) % threads + 2;
        if is_race {
            let granule = fresh;
            fresh += 1;
            out.push(E::Write { tid: a, granule });
            out.push(E::Write { tid: b, granule });
            let c = Conflict {
                kind: CheckKind::Write,
                tid: b,
                granule,
            };
            sharc.push(c);
            eraser.push(c);
        } else {
            let len = rng.gen_range(1..5usize);
            let granule = fresh;
            fresh += len;
            handoff_granules += len;
            if len == 1 {
                out.push(E::Write { tid: a, granule });
                out.push(E::SharingCast {
                    tid: a,
                    granule,
                    refs: 1,
                });
            } else {
                out.push(E::RangeWrite {
                    tid: a,
                    granule,
                    len,
                });
                out.push(E::RangeCast {
                    tid: a,
                    granule,
                    len,
                    refs: 1,
                });
            }
            for tid in [a, b] {
                out.push(E::Acquire {
                    tid,
                    lock: HANDOFF_LOCK,
                });
                out.push(E::Release {
                    tid,
                    lock: HANDOFF_LOCK,
                });
            }
            out.push(E::RangeWrite {
                tid: b,
                granule,
                len,
            });
            eraser.extend((granule..granule + len).map(|g| Conflict {
                kind: CheckKind::Write,
                tid: b,
                granule: g,
            }));
        }
    }
    for t in 0..threads {
        out.push(E::ThreadExit { tid: t + 2 });
    }
    let vc = sorted(sharc.clone());
    (
        out,
        ExpectedVerdicts {
            sharc: sorted(sharc),
            eraser: sorted(eraser),
            vc,
            handoff_granules,
        },
    )
}

/// Canonical order for comparing conflict sets: sequential, parallel
/// and streaming folds report the same set in different orders.
pub fn sorted(mut conflicts: Vec<Conflict>) -> Vec<Conflict> {
    conflicts.sort_by_key(|c| (c.granule, c.tid, c.kind as u8));
    conflicts.dedup();
    conflicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharc::DetectorKind;

    #[test]
    fn spine_trace_is_sized_exactly_and_seeded() {
        let a = spine_trace(1, 10_000, 16);
        assert_eq!(a.len(), 10_000 + 32);
        assert_eq!(a, spine_trace(1, 10_000, 16));
        assert_ne!(a, spine_trace(2, 10_000, 16));
    }

    #[test]
    fn spine_trace_is_clean_for_every_detector() {
        let t = spine_trace(3, 20_000, 128);
        assert_eq!(sharc_checker::geometry_for_trace(&t).shards(), 3);
        for kind in [DetectorKind::Sharc, DetectorKind::Eraser, DetectorKind::Vc] {
            assert!(sharc::judge_trace(&t, kind).1.is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn key_trace_draws_exactly_the_planted_verdicts() {
        for seed in 0..8 {
            let (t, want) = key_trace(seed, 6, 9, 7);
            assert_eq!(want.sharc.len(), 9);
            assert_eq!(want.eraser.len(), 9 + want.handoff_granules);
            let got = |k| sorted(sharc::judge_trace(&t, k).1);
            assert_eq!(got(DetectorKind::Sharc), want.sharc, "seed {seed}");
            assert_eq!(got(DetectorKind::Eraser), want.eraser, "seed {seed}");
            assert_eq!(got(DetectorKind::Vc), want.vc, "seed {seed}");
        }
    }
}
