//! [`ParallelReplay`]: region-sharded parallel trace replay whose
//! merged conflicts are **bit-identical** to the sequential
//! [`replay`](crate::replay) fold, for every [`CheckBackend`].
//!
//! ## Why granule regions partition cleanly
//!
//! A replay verdict is a fold of [`apply_event`] steps, and every
//! backend's state splits into two halves with disjoint write sets:
//!
//! * **per-granule state** (shadow words, locksets-of-record,
//!   read/write clocks), written only by events addressed to that
//!   granule, and
//! * **per-thread/per-lock sync state** (held-lock logs, thread and
//!   lock vector clocks, fork/join edges), written only by the
//!   synchronization events — which carry no granule and produce no
//!   conflict.
//!
//! So the trace lowers onto `N` workers like this (the "documented
//! lowering" of the region-sharded design):
//!
//! * **granule events** (`read`/`write`/`cast`/`alloc`) go to the one
//!   worker that owns the granule's region — at most 64 contiguous
//!   power-of-two blocks over the trace's granule span, taken modulo
//!   the worker count;
//! * **range events** are split at region-block boundaries and each
//!   worker applies only the sub-ranges it owns ([`apply_event`]
//!   already defines a range as exactly its per-granule expansion,
//!   so splitting is verdict-invisible);
//! * **sync events** (`acquire`/`release`/`fork`/`join`/`exit`) are
//!   *broadcast*: every worker applies them to its own backend, so
//!   each partition sees the full synchronization order interleaved
//!   with its own granule events in trace position. `exit` clears a
//!   thread's installed bits — each worker's backend only ever
//!   installed bits for its own granules, so the broadcast clear is
//!   the disjoint union of the sequential one;
//! * **`locked` accesses** touch no granule state at all (they read
//!   the held-lock log, which every worker replicates); they are
//!   routed by their lock id through the same region map so exactly
//!   one worker emits the verdict.
//!
//! Each worker therefore computes, against its own backend, exactly
//! the conflicts the sequential fold computes for its granules — in
//! trace order, and within one range event in ascending-granule
//! order, which is also sequential replay's order. Tagging every
//! conflict with its event index and merging by `(event, granule)`
//! — a unique key, since no event checks one granule twice —
//! reproduces the sequential conflict *list*, not just the set. The
//! 256-tid `forall!` differential in `tests/checker_differential.rs`
//! pins this for the sharc bitmap, Eraser, and vector-clock backends
//! alike.

use crate::backend::{apply_event, replay, trace_granule_span, CheckBackend, CheckEvent, Conflict};

/// Most regions a trace's granule span is cut into.
const MAX_REGIONS: usize = 64;

/// The region→worker map: the granule span cut into at most
/// [`MAX_REGIONS`] contiguous blocks of `1 << shift` granules (region
/// `(g >> shift) & mask`), taken modulo the worker count. Granules
/// past the span wrap onto earlier regions — still a pure function, so
/// the partition stays a partition.
struct Partition {
    shift: u32,
    mask: usize,
    jobs: usize,
}

impl Partition {
    fn new(span: usize, jobs: usize) -> Self {
        let span = span.max(1);
        let regions = MAX_REGIONS.min(span.next_power_of_two());
        Partition {
            shift: span.div_ceil(regions).next_power_of_two().trailing_zeros(),
            mask: regions - 1,
            jobs,
        }
    }

    #[inline]
    fn worker_of(&self, granule: usize) -> usize {
        ((granule >> self.shift) & self.mask) % self.jobs
    }
}

/// A parallel, region-sharded replay engine: `jobs` worker threads,
/// each owning a disjoint set of granule regions and running the
/// shared [`apply_event`] step against its own backend instance.
#[derive(Debug, Clone, Copy)]
pub struct ParallelReplay {
    jobs: usize,
}

impl ParallelReplay {
    /// An engine with `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        ParallelReplay { jobs: jobs.max(1) }
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Replays `events`, calling `make_backend` once per worker, and
    /// returns the merged conflict list — bit-identical (order
    /// included) to `replay(events, &mut *make_backend())`.
    pub fn replay<F>(&self, events: &[CheckEvent], make_backend: F) -> Vec<Conflict>
    where
        F: Fn() -> Box<dyn CheckBackend + Send> + Sync,
    {
        if self.jobs == 1 {
            return replay(events, &mut *make_backend());
        }
        let part = Partition::new(trace_granule_span(events), self.jobs);
        let mut tagged: Vec<(u64, Conflict)> = std::thread::scope(|s| {
            let part = &part;
            let make_backend = &make_backend;
            let handles: Vec<_> = (0..self.jobs)
                .map(|w| s.spawn(move || worker_fold(w, part, events, &mut *make_backend())))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("replay worker panicked"))
                .collect()
        });
        // `(event index, conflicting granule)` is unique per conflict
        // — no event checks one granule twice — and sequential replay
        // emits conflicts exactly in that order (events in trace
        // order, range expansions in ascending-granule order).
        tagged.sort_unstable_by_key(|&(i, c)| (i, c.granule));
        tagged.into_iter().map(|(_, c)| c).collect()
    }
}

/// One worker's pass over the whole trace: apply what it owns, skip
/// the rest, tag every conflict with its event index.
fn worker_fold(
    w: usize,
    part: &Partition,
    events: &[CheckEvent],
    backend: &mut dyn CheckBackend,
) -> Vec<(u64, Conflict)> {
    use CheckEvent as E;
    let mut scratch: Vec<Conflict> = Vec::new();
    let mut tagged: Vec<(u64, Conflict)> = Vec::new();
    for (i, &e) in events.iter().enumerate() {
        match e {
            // Granule-addressed point events: one owner.
            E::Read { granule, .. }
            | E::Write { granule, .. }
            | E::SharingCast { granule, .. }
            | E::Alloc { granule } => {
                if part.worker_of(granule) == w {
                    apply_event(e, backend, &mut scratch);
                }
            }
            // `locked` reads only the replicated held-lock log; route
            // by lock id so exactly one worker emits its verdict.
            E::LockedAccess { lock, .. } => {
                if part.worker_of(lock) == w {
                    apply_event(e, backend, &mut scratch);
                }
            }
            // Range events: apply only the owned sub-ranges, split at
            // region-block boundaries. Adjacent owned blocks could be
            // merged, but applying them block-by-block is already the
            // per-granule expansion `apply_event` defines.
            E::RangeRead { tid, granule, len } => {
                for (g, l) in owned_runs(part, w, granule, len) {
                    apply_event(
                        E::RangeRead {
                            tid,
                            granule: g,
                            len: l,
                        },
                        backend,
                        &mut scratch,
                    );
                }
            }
            E::RangeWrite { tid, granule, len } => {
                for (g, l) in owned_runs(part, w, granule, len) {
                    apply_event(
                        E::RangeWrite {
                            tid,
                            granule: g,
                            len: l,
                        },
                        backend,
                        &mut scratch,
                    );
                }
            }
            E::RangeCast {
                tid,
                granule,
                len,
                refs,
            } => {
                for (g, l) in owned_runs(part, w, granule, len) {
                    apply_event(
                        E::RangeCast {
                            tid,
                            granule: g,
                            len: l,
                            refs,
                        },
                        backend,
                        &mut scratch,
                    );
                }
            }
            E::RangeFree { granule, len } => {
                for (g, l) in owned_runs(part, w, granule, len) {
                    apply_event(E::RangeFree { granule: g, len: l }, backend, &mut scratch);
                }
            }
            // Sync events: broadcast, so every partition holds the
            // full synchronization order. They never conflict, so the
            // replication adds no duplicate verdicts.
            E::Acquire { .. }
            | E::Release { .. }
            | E::Fork { .. }
            | E::Join { .. }
            | E::ThreadExit { .. } => {
                apply_event(e, backend, &mut scratch);
            }
        }
        if !scratch.is_empty() {
            let idx = i as u64;
            tagged.extend(scratch.drain(..).map(|c| (idx, c)));
        }
    }
    tagged
}

/// The maximal sub-runs of `granule .. granule + len` owned by worker
/// `w`, in ascending order, as `(start, len)` pairs.
fn owned_runs(
    part: &Partition,
    w: usize,
    granule: usize,
    len: usize,
) -> impl Iterator<Item = (usize, usize)> + '_ {
    let end = granule + len;
    let block = 1 << part.shift;
    let mut g = granule;
    std::iter::from_fn(move || {
        while g < end {
            // Region blocks are `block`-aligned, so ownership is
            // constant up to the next block boundary.
            let run_end = end.min((g / block + 1) * block);
            let start = g;
            g = run_end;
            if part.worker_of(start) == w {
                return Some((start, run_end - start));
            }
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{geometry_for_trace, BitmapBackend};

    fn seq(events: &[CheckEvent]) -> Vec<Conflict> {
        replay(
            events,
            &mut BitmapBackend::with_geometry(geometry_for_trace(events)),
        )
    }

    fn par(events: &[CheckEvent], jobs: usize) -> Vec<Conflict> {
        let geom = geometry_for_trace(events);
        ParallelReplay::new(jobs)
            .replay(events, move || Box::new(BitmapBackend::with_geometry(geom)))
    }

    #[test]
    fn partition_covers_every_granule_exactly_once() {
        let part = Partition::new(1000, 3);
        for g in 0..4096 {
            let owner = part.worker_of(g);
            assert!(owner < 3);
            assert_eq!(owner, part.worker_of(g), "ownership is a pure function");
        }
        // A range split hands every granule to exactly one worker.
        let mut covered = vec![0u32; 950];
        for w in 0..3 {
            for (start, len) in owned_runs(&part, w, 13, 900) {
                for c in &mut covered[start..start + len] {
                    *c += 1;
                }
            }
        }
        assert!(covered[..13].iter().all(|&c| c == 0));
        assert!(covered[13..913].iter().all(|&c| c == 1));
        assert!(covered[913..].iter().all(|&c| c == 0));
    }

    #[test]
    fn conflicting_trace_merges_in_sequential_order() {
        use CheckEvent as E;
        // Two threads fight over granules in different regions, with
        // a cross-partition range in the middle; the merged conflict
        // list must equal the sequential one element-for-element.
        let events = vec![
            E::Fork {
                parent: 1,
                child: 2,
            },
            E::Write { tid: 1, granule: 0 },
            E::Write {
                tid: 1,
                granule: 900,
            },
            E::RangeWrite {
                tid: 2,
                granule: 0,
                len: 1000,
            },
            E::Read { tid: 2, granule: 0 },
            E::ThreadExit { tid: 1 },
            E::RangeRead {
                tid: 2,
                granule: 0,
                len: 1000,
            },
        ];
        let expect = seq(&events);
        assert!(!expect.is_empty(), "the fixture must actually conflict");
        for jobs in 1..6 {
            assert_eq!(par(&events, jobs), expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn locked_access_verdicts_survive_partitioning() {
        use CheckEvent as E;
        let events = vec![
            E::Acquire { tid: 1, lock: 3 },
            E::LockedAccess { tid: 1, lock: 3 },
            E::Release { tid: 1, lock: 3 },
            E::LockedAccess { tid: 1, lock: 3 }, // fails: lock no longer held
            E::LockedAccess { tid: 1, lock: 9 }, // fails: never held
        ];
        let expect = seq(&events);
        assert_eq!(expect.len(), 2);
        for jobs in 1..5 {
            assert_eq!(par(&events, jobs), expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn more_jobs_than_regions_is_safe() {
        use CheckEvent as E;
        // A 2-granule trace under 64 jobs: most workers own nothing
        // and the merge still reproduces the sequential verdicts.
        let events = vec![
            E::Write { tid: 1, granule: 0 },
            E::Write { tid: 2, granule: 0 },
            E::Write { tid: 2, granule: 1 },
        ];
        assert_eq!(par(&events, 64), seq(&events));
    }
}
