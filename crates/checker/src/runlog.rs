//! [`RunLog`]: where one thread set a shadow bit, kept for exit-time
//! clearing. Both engines keep one per thread, at different grains:
//! the native runtime's `ThreadCtx` logs granules, and
//! [`crate::BitmapBackend`] logs 64-granule chunks (`granule >> 6`)
//! and clears every granule of each logged chunk at exit. The log only
//! sees the numbers it is given, so one type serves both.

/// Log length below which a cold push never compacts.
const MIN_COMPACT: usize = 64;

/// The granules where a thread set a shadow bit, kept as `(start,
/// end)` granule runs rather than one entry per install: a sequential
/// sweep is one run however long it gets, and a thread that
/// re-installs the same block after every cast logs nothing new. The
/// runs are compacted (sorted and merged) whenever their number
/// doubles, and a granule already inside a compacted run is found by
/// binary search and not pushed again, so the log is bounded by the
/// thread's footprint, not by its install count.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RunLog {
    runs: Vec<(usize, usize)>,
    /// `runs[..merged]` is what the last compaction left: sorted,
    /// disjoint, not adjacent.
    merged: usize,
    /// The length at which the next cold push compacts first.
    compact_at: usize,
}

impl RunLog {
    /// Records that `granule` holds one of this thread's bits.
    #[inline]
    pub fn note(&mut self, granule: usize) {
        if let Some(last) = self.runs.last_mut() {
            if granule == last.1 {
                last.1 += 1;
                return;
            }
            if (last.0..last.1).contains(&granule) {
                return;
            }
        }
        self.push_run(granule);
    }

    #[cold]
    #[inline(never)]
    fn push_run(&mut self, granule: usize) {
        if self.runs.len() >= self.compact_at.max(MIN_COMPACT) {
            self.compact();
            self.compact_at = 2 * self.runs.len();
        }
        let merged = &self.runs[..self.merged];
        let at = merged.partition_point(|&(_, end)| end <= granule);
        if merged.get(at).is_some_and(|&(start, _)| start <= granule) {
            return;
        }
        self.runs.push((granule, granule + 1));
    }

    /// Sorts the runs and merges every overlapping or adjacent pair.
    fn compact(&mut self) {
        self.runs.sort_unstable();
        let mut kept = 0;
        for i in 1..self.runs.len() {
            let (start, end) = self.runs[i];
            if start <= self.runs[kept].1 {
                self.runs[kept].1 = self.runs[kept].1.max(end);
            } else {
                kept += 1;
                self.runs[kept] = (start, end);
            }
        }
        self.runs.truncate(kept + 1);
        self.merged = self.runs.len();
    }

    /// Empties the log, yielding its granules as disjoint maximal
    /// runs in ascending order.
    pub fn drain_merged(&mut self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.compact();
        self.compact_at = 0;
        self.merged = 0;
        self.runs.drain(..)
    }

    /// Number of runs currently held.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True if no granule is logged.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Every logged granule once, ascending.
    pub fn granules(&self) -> Vec<usize> {
        let set: std::collections::BTreeSet<usize> =
            self.runs.iter().flat_map(|&(s, e)| s..e).collect();
        set.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_log_extends_absorbs_and_merges() {
        let mut log = RunLog::default();
        for g in [5, 6, 7, 6, 5, 8] {
            log.note(g);
        }
        assert_eq!(log.len(), 1, "a sweep and its re-installs are one run");
        // Backwards, every install is a new run until the log merges.
        for g in (0..5).rev() {
            log.note(g);
        }
        assert_eq!(log.len(), 6);
        assert_eq!(log.drain_merged().collect::<Vec<_>>(), vec![(0, 9)]);
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn run_log_is_bounded_by_the_footprint_not_the_install_count() {
        // Two interleaved streams defeat the extend-in-place path:
        // every install is a cold push. Compaction folds them back to
        // the two runs they are, so the log never outgrows its floor.
        let mut log = RunLog::default();
        for i in 0..100_000 {
            log.note(i);
            log.note(1_000_000 + i);
            assert!(log.len() <= MIN_COMPACT + 1, "{} runs", log.len());
        }
        let runs: Vec<_> = log.drain_merged().collect();
        assert_eq!(runs, vec![(0, 100_000), (1_000_000, 1_100_000)]);
        // A footprint of isolated granules is its own size; the log
        // holds at most twice that between compactions. Once every
        // granule sits in a compacted run, re-installs push nothing.
        for round in 0..10 {
            for g in (0..1000).step_by(2) {
                log.note(g);
                assert!(log.len() <= 2 * 500, "round {round}: {} runs", log.len());
            }
            if round >= 2 {
                assert_eq!(log.len(), 500, "round {round}");
            }
        }
        assert_eq!(log.drain_merged().count(), 500);
    }
}
