//! # sharc-checker
//!
//! The single implementation of the paper's §4.2 runtime-check state
//! machine, shared by every layer of the workspace:
//!
//! * [`step`] — the pure, atomics-free granule transition functions
//!   of the paper's reader/writer bitmap, one word or one word per
//!   63-thread shard. `sharc-runtime`
//!   wraps them in compare-exchange retry loops for real threads;
//!   `sharc-interp`'s VM calls [`BitmapBackend`], which applies them
//!   to a plain word store. One state machine, one set of verdicts.
//! * [`backend`] — the [`CheckBackend`] trait covering the four
//!   runtime checks (`chkread` and `chkwrite` as one `check`,
//!   `lock_held`, `oneref`) plus the synchronization/lifecycle events
//!   they depend on, a [`CheckEvent`] vocabulary every producer (VM,
//!   native workloads, trace files) speaks, and a [`replay`] driver so
//!   one seeded execution can be judged by any engine (SharC's own
//!   bitmap here; Eraser locksets and vector clocks in `sharc-detectors`).
//! * [`geometry`] — [`ShadowGeometry`]: how many 63-thread bitmap
//!   shards back each granule ([`step::sharded`] is the matching
//!   transition function). This is what lifts the paper's 63-thread
//!   cap without forgetting reader identities; [`BitmapBackend`]
//!   widens its own geometry as wider tids arrive.
//! * [`sink`] — the [`EventSink`] consumer interface native
//!   workloads emit into, with [`EventLog`] (record-then-replay,
//!   with append/contention counters) as the compat sink.
//! * [`stream`] — [`StreamingSink`]: one bounded event buffer behind
//!   one lock, cut into batches that feed any [`CheckBackend`]
//!   *during* the run inside a fixed memory budget.
//!   Streaming verdicts are bit-identical to [`replay`]'s because
//!   both folds run [`apply_event`] over the same linearization.
//! * [`trace`] — the offline text format for [`CheckEvent`] traces
//!   (`sharc native --trace-out` / `sharc replay`): an exact,
//!   line-oriented round-trip so one recorded execution can be
//!   re-judged by any backend in a later process.
//! * [`btrace`] — the binary trace format v4 (`.sbt`): per-thread
//!   blocks, one opcode byte per event, zigzag-LEB128 granule
//!   deltas, a block index footer, and a zero-copy decoder
//!   ([`btrace::events`]) — the archive format that makes
//!   10⁷–10⁸-event runs practical to keep and re-judge.
//! * [`runlog`] — [`RunLog`]: a thread's exit-clearing log as merged
//!   granule runs, bounded by its footprint; both engines keep one.
//!
//! Every verdict is one [`apply_event`] fold over one linearized log:
//! offline through [`replay`], online through [`StreamingSink`].
//!
//! There is no second copy of the shadow state: §4.2 keeps one
//! bitmap word per granule and no cache, and so does this crate. A
//! thread's "is this access already mine?" is answered by the shadow
//! words themselves ([`step::range::recorded`]).
//!
//! ## The granule constant
//!
//! The paper tracks reader/writer sets "for every 16 bytes of
//! memory". [`GRANULE_BYTES`] is the one definition of that number;
//! `sharc-runtime`'s word granularity and the VM's cell granularity
//! are both derived from it (with compile-time assertions), fixing
//! the drift that used to exist between `VmConfig::granule` and
//! `runtime::GRANULE_WORDS`.

pub mod backend;
pub mod btrace;
pub mod geometry;
pub mod runlog;
pub mod sink;
pub mod step;
pub mod stream;
pub mod trace;

pub use backend::{
    apply_event, geometry_for_trace, lower_ranges, max_trace_tid, replay, trace_granule_span,
    BitmapBackend, CheckBackend, CheckEvent, CheckKind, Conflict, HeldLocks, Verdict,
};
pub use btrace::{is_binary as is_binary_trace, parse_binary, to_binary};
pub use geometry::{ShadowGeometry, MAX_TID, MAX_WORDS_PER_GRANULE, THREADS_PER_SHARD};
pub use runlog::RunLog;
pub use sink::{recording_tid, EventLog, EventSink};
pub use step::{Access, Transition};
pub use stream::{StreamStats, StreamingSink};
pub use trace::{
    keyword as event_keyword, parse_text as parse_trace, to_text as trace_to_text,
    MAX_TRACE_SHADOW_BYTES,
};

/// Kept for `benchmark/`: a stateless stand-in for the deleted owned cache.
#[derive(Debug, Default)]
pub struct OwnedCache;

impl OwnedCache {
    pub fn new() -> Self {
        OwnedCache
    }
}

/// Kept for `benchmark/`: the deleted region-sharded replay, now the
/// sequential fold whatever `jobs` says.
#[derive(Debug, Clone, Copy)]
pub struct ParallelReplay;

impl ParallelReplay {
    pub fn new(_jobs: usize) -> Self {
        ParallelReplay
    }

    pub fn replay<F>(&self, events: &[CheckEvent], make_backend: F) -> Vec<Conflict>
    where
        F: Fn() -> Box<dyn CheckBackend + Send> + Sync,
    {
        replay(events, &mut *make_backend())
    }
}

/// Bytes of payload memory covered by one shadow granule (§4.2.1:
/// "for every 16 bytes of memory, SharC maintains n additional
/// bytes").
pub const GRANULE_BYTES: usize = 16;

/// Payload 8-byte words per granule (`sharc-runtime`'s unit).
pub const GRANULE_WORDS: usize = GRANULE_BYTES / 8;

/// VM memory cells per granule (one VM cell models one 8-byte word).
pub const GRANULE_CELLS: u32 = (GRANULE_BYTES / 8) as u32;

/// The largest checked-thread id representable by an `n`-byte bitmap
/// shadow word (the paper's `8n − 1`; bit 0 is the writer flag).
pub const fn max_bitmap_tid(shadow_bytes: usize) -> u32 {
    (shadow_bytes * 8 - 1) as u32
}

// The granule must be a whole number of 8-byte words and cells.
const _: () = assert!(GRANULE_BYTES.is_multiple_of(8));
const _: () = assert!(GRANULE_WORDS * 8 == GRANULE_BYTES);
const _: () = assert!(GRANULE_CELLS as usize == GRANULE_WORDS);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granule_constants_agree() {
        assert_eq!(GRANULE_BYTES, 16);
        assert_eq!(GRANULE_WORDS, 2);
        assert_eq!(GRANULE_CELLS, 2);
    }

    #[test]
    fn bitmap_capacity_is_8n_minus_1() {
        assert_eq!(max_bitmap_tid(1), 7);
        assert_eq!(max_bitmap_tid(2), 15);
        assert_eq!(max_bitmap_tid(4), 31);
        assert_eq!(max_bitmap_tid(8), 63);
        assert_eq!(THREADS_PER_SHARD, 63);
    }
}
