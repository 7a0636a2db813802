//! `sharc replay` judges a trace file as it decodes it, so the decoded
//! trace is never resident: judging a million-event `.sbt` holds the
//! file's bytes and the engine's shadow, and not the 32 bytes an event
//! that collecting it would cost.
//!
//! This test binary counts every heap byte through its own global
//! allocator and holds `judge_trace_file`'s peak live heap under the
//! file's size, plus twice the SharC engine's shadow (a growing store
//! may reserve up to twice what it holds), plus 1 MiB for the rest.

use sharc::checker::{geometry_for_trace, trace_granule_span, CheckEvent};
use sharc::DetectorKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    /// Counted as its change in size: live heap is what was allocated
    /// and not yet freed.
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size > layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A clean trace in the shape a native fleet records: 128 workers, each
/// on its own band of 512 granules, in bursts of 32 writes, reads and
/// ranged sweeps.
fn fleet_trace(events: usize) -> Vec<CheckEvent> {
    let mut trace: Vec<CheckEvent> = (2..130)
        .map(|child| CheckEvent::Fork { parent: 1, child })
        .collect();
    for i in 0..events - trace.len() {
        let tid = 2 + (i / 32 % 128) as u32;
        let granule = (tid as usize - 2) * 512 + i * 7 % 500;
        trace.push(match i % 4 {
            0 | 1 => CheckEvent::Write { tid, granule },
            2 => CheckEvent::Read { tid, granule },
            _ => CheckEvent::RangeRead {
                tid,
                granule,
                len: 1 + i % 8,
            },
        });
    }
    trace
}

#[test]
fn judging_a_million_event_sbt_holds_no_decoded_trace() {
    const EVENTS: usize = 1 << 20;
    let path = std::env::temp_dir().join(format!("sharc-replay-memory-{}.sbt", std::process::id()));
    let trace = fleet_trace(EVENTS);
    let shadow = geometry_for_trace(&trace).bytes_per_granule() * trace_granule_span(&trace);
    sharc::write_trace_file(&path, &trace).expect("trace written");
    drop(trace);
    let file = std::fs::metadata(&path).expect("trace file").len() as usize;

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let judged = sharc::judge_trace_file(&path, DetectorKind::Sharc);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    std::fs::remove_file(&path).ok();

    let (events, _, conflicts) = judged.expect("the trace is judged");
    assert_eq!(events, EVENTS);
    assert!(conflicts.is_empty(), "{conflicts:?}");
    let bound = file + 2 * shadow + (1 << 20);
    assert!(
        peak < bound,
        "peak live heap {peak} bytes, over {file} file + 2 x {shadow} shadow + 1 MiB = {bound}"
    );
    // Collecting the same file would need more than the bound for the
    // events alone.
    assert!(EVENTS * std::mem::size_of::<CheckEvent>() > bound);
}
