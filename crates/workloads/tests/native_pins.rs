//! What a native workload records and computes, pinned at quick scale:
//! the traced run's record, its per-kind event counts, which detectors
//! report on it, and the record of each build. Every pinned value is
//! the same on every run; the one that is not (how often handoff's
//! consumers find the queue empty) is pinned by its invariant instead.

use sharc_checker::{event_keyword, replay, BitmapBackend, CheckEvent, EventLog, EventSink};
use sharc_detectors::{Eraser, VcDetector};
use sharc_runtime::{Checked, Unchecked};
use sharc_workloads::benchmarks::{aget, dillo, fftw, handoff, pbzip2, pfscan, stunnel};
use sharc_workloads::table::{NativeRun, Scale};
use std::collections::BTreeMap;
use std::sync::Arc;

/// `[checksum, checked, total, conflicts, payload_bytes, shadow_bytes,
/// threads]`.
type Record = [u64; 7];

fn record(r: &NativeRun) -> Record {
    [
        r.checksum,
        r.checked,
        r.total,
        r.conflicts as u64,
        r.payload_bytes as u64,
        r.shadow_bytes as u64,
        r.threads as u64,
    ]
}

/// Runs `run` into a fresh [`EventLog`].
fn traced(run: impl FnOnce(Arc<dyn EventSink>) -> NativeRun) -> (NativeRun, Vec<CheckEvent>) {
    let log = Arc::new(EventLog::new());
    let r = run(log.clone());
    (r, log.take())
}

fn counts(trace: &[CheckEvent]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for e in trace {
        *counts.entry(event_keyword(e)).or_insert(0) += 1;
    }
    counts
}

/// Which of sharc, eraser and vc report at least one conflict.
fn reports(trace: &[CheckEvent]) -> [bool; 3] {
    [
        !replay(trace, &mut BitmapBackend::new()).is_empty(),
        !replay(trace, &mut Eraser::new()).is_empty(),
        !replay(trace, &mut VcDetector::new()).is_empty(),
    ]
}

/// Eraser reports, SharC and vector clocks do not: the split every
/// workload but pfscan (no conflict anywhere) is built to show.
const ERASER_ONLY: [bool; 3] = [false, true, false];

#[track_caller]
fn pin_trace(
    (run, trace): (NativeRun, Vec<CheckEvent>),
    want_run: Record,
    want_counts: &[(&str, usize)],
    want_reports: [bool; 3],
) {
    assert_eq!(record(&run), want_run, "traced record");
    let want: BTreeMap<&str, usize> = want_counts.iter().copied().collect();
    assert_eq!(counts(&trace), want, "per-kind event counts");
    assert_eq!(reports(&trace), want_reports, "[sharc, eraser, vc] report");
}

#[track_caller]
fn pin_builds(unchecked: NativeRun, checked: NativeRun, want: [Record; 2]) {
    assert_eq!(record(&unchecked), want[0], "Unchecked record");
    assert_eq!(record(&checked), want[1], "Checked record");
}

#[test]
fn pfscan_is_pinned() {
    let p = pfscan::Params::scaled(Scale::quick());
    pin_trace(
        traced(|s| pfscan::run_with_events(&p, s)),
        [32, 2048, 4096, 0, 16392, 1025, 3],
        &[("exit", 2), ("fork", 2), ("rread", 8)],
        [false, false, false],
    );
    pin_builds(
        pfscan::run_native::<Unchecked>(&p),
        pfscan::run_native::<Checked>(&p),
        [
            [32, 0, 4096, 0, 16392, 1025, 3],
            [32, 2048, 4096, 0, 16392, 1025, 3],
        ],
    );
}

#[test]
fn handoff_is_pinned() {
    let p = handoff::Params::default();
    let (run, trace) = traced(|s| handoff::run_with_events(&p, s));
    // Every consumer pop is one critical section, and a consumer that
    // finds the queue empty pops again: the lock counts depend on the
    // schedule, bounded below by one push per block plus one pop per
    // block and per exiting consumer.
    let mut got = counts(&trace);
    let acquires = got.remove("acquire").unwrap_or(0);
    let releases = got.remove("release").unwrap_or(0);
    assert_eq!(acquires, releases, "every acquire is released");
    assert!(acquires >= 2 * 32 + 2, "{acquires} acquires");
    let lockless: Vec<CheckEvent> = trace
        .into_iter()
        .filter(|e| !matches!(e, CheckEvent::Acquire { .. } | CheckEvent::Release { .. }))
        .collect();
    pin_trace(
        (run, lockless),
        [2035456, 1536, 1536, 0, 4096, 256, 3],
        &[
            ("exit", 3),
            ("fork", 2),
            ("rcast", 32),
            ("rread", 32),
            ("rwrite", 64),
        ],
        // Without its lock edges the hand-off is the cast alone, which
        // only SharC sees.
        [false, true, true],
    );
    pin_builds(
        handoff::run_native::<Unchecked>(&p),
        handoff::run_native::<Checked>(&p),
        [
            [2035456, 0, 1536, 0, 4096, 256, 3],
            [2035456, 1536, 1536, 0, 4096, 256, 3],
        ],
    );
}

#[test]
fn handoff_lock_edges_split_vc_from_eraser() {
    let p = handoff::Params::default();
    let (_, trace) = traced(|s| handoff::run_with_events(&p, s));
    assert_eq!(reports(&trace), ERASER_ONLY);
}

#[test]
fn pbzip2_is_pinned() {
    let p = pbzip2::Params::scaled(Scale::quick());
    pin_trace(
        traced(|s| pbzip2::run_with_events(&p, s)),
        [15720562284603006707, 8, 67073, 0, 65536, 4176, 5],
        &[
            ("acquire", 12),
            ("exit", 3),
            ("fork", 3),
            ("join", 3),
            ("rcast", 12),
            ("release", 12),
            ("rfree", 4),
            ("rread", 8),
            ("rwrite", 8),
        ],
        ERASER_ONLY,
    );
    pin_builds(
        pbzip2::run_native::<Unchecked>(&p),
        pbzip2::run_native::<Checked>(&p),
        [
            [15720562284603006707, 0, 67073, 0, 65536, 4176, 5],
            [15720562284603006707, 8, 67073, 0, 65536, 4176, 5],
        ],
    );
}

#[test]
fn aget_is_pinned() {
    let p = aget::Params::scaled(Scale::quick());
    pin_trace(
        traced(|s| aget::run_with_events(&p, s)),
        [12252202466866655310, 8193, 8193, 0, 32776, 2049, 3],
        &[
            ("exit", 3),
            ("fork", 2),
            ("join", 2),
            ("rread", 1),
            ("rwrite", 8),
            ("write", 1),
        ],
        ERASER_ONLY,
    );
    pin_builds(
        aget::run_native::<Unchecked>(&p),
        aget::run_native::<Checked>(&p),
        [
            [12252202466866655310, 0, 8193, 0, 32776, 2049, 3],
            [12252202466866655310, 8193, 8193, 0, 32776, 2049, 3],
        ],
    );
}

#[test]
fn dillo_is_pinned() {
    let p = dillo::Params::scaled(Scale::quick());
    pin_trace(
        traced(|s| dillo::run_with_events(&p, s)),
        [137479483624, 257, 257, 0, 1024, 1088, 4],
        &[
            ("acquire", 67),
            ("exit", 4),
            ("fork", 3),
            ("join", 3),
            ("read", 64),
            ("release", 67),
            ("rread", 1),
            ("write", 65),
        ],
        ERASER_ONLY,
    );
    pin_builds(
        dillo::run_native::<Unchecked>(&p),
        dillo::run_native::<Checked>(&p),
        [
            [137479483624, 0, 257, 0, 1024, 64, 4],
            [137479483624, 257, 257, 0, 1024, 1088, 4],
        ],
    );
}

#[test]
fn fftw_is_pinned() {
    let p = fftw::Params::scaled(Scale::quick());
    pin_trace(
        traced(|s| fftw::run_with_events(&p, s)),
        [133927748128, 160, 65536, 0, 262144, 32, 3],
        &[
            ("exit", 3),
            ("fork", 2),
            ("join", 2),
            ("rcast", 1),
            ("read", 32),
            ("rread", 1),
            ("write", 64),
        ],
        ERASER_ONLY,
    );
    assert_eq!(fftw::run_native::<Unchecked>(&p).checksum, 133927748128);
    assert_eq!(fftw::run_native::<Checked>(&p).checksum, 133927748128);
}

#[test]
fn stunnel_is_pinned() {
    let p = stunnel::Params::scaled(Scale::quick());
    pin_trace(
        traced(|s| stunnel::run_with_events(&p, s)),
        [1537536, 103681, 1679873, 0, 74784, 63024, 129],
        &[
            ("acquire", 1793),
            ("exit", 129),
            ("fork", 128),
            ("join", 128),
            ("locked", 3329),
            ("rcast", 128),
            ("release", 1793),
            ("rread", 1664),
            ("rwrite", 1664),
            ("write", 128),
        ],
        ERASER_ONLY,
    );
    pin_builds(
        stunnel::run_native::<Unchecked>(&p),
        stunnel::run_native::<Checked>(&p),
        [
            [1537536, 0, 1679873, 0, 74784, 0, 129],
            [1537536, 103681, 1679873, 0, 74784, 63024, 129],
        ],
    );
}
