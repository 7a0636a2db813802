//! Cross-version trace parity: one recorded execution, archived as
//! v3 text and v4 binary, re-judged by every detector — identical
//! conflict sets and exit-code verdicts regardless of the container
//! format. Also holds a recorded trace's `lower_ranges` expansion to
//! the same verdicts, through the file round trip.

use sharc::prelude::*;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// One stunnel fleet run, emitted as v3 text and v4 binary; both
/// files decode to the recorded events exactly, all three detectors
/// reach the same conflicts through either container, and the
/// exit-code split is the documented one
/// (sharc clean, eraser false-positive). The size of the binary file
/// is not asserted here: it follows how the scheduler cut the run
/// into per-thread blocks; `sharc-checker`'s `btrace` tests pin the
/// ¼-of-text bound on a fixed-seed trace.
#[test]
fn stunnel_text_and_binary_archives_replay_identically() {
    let (run, trace) = native_trace(NativeWorkload::Stunnel);
    assert!(run.threads > 63, "fleet width: got {} threads", run.threads);
    assert!(!trace.is_empty());

    let text_path = tmp("parity-stunnel.trace");
    let bin_path = tmp("parity-stunnel.sbt");
    write_trace_file(&text_path, &trace).expect("text written");
    write_trace_file(&bin_path, &trace).expect("binary written");

    // Both containers hold the identical event sequence.
    let from_text = read_trace_file(&text_path).expect("text parses");
    let from_bin = read_trace_file(&bin_path).expect("binary decodes");
    assert_eq!(from_text, trace, "text round trip lost events");
    assert_eq!(from_bin, trace, "binary round trip lost events");

    // `trace info`'s summary agrees across formats.
    let ti = trace_file_info(&text_path).expect("text info");
    let bi = trace_file_info(&bin_path).expect("binary info");
    assert_eq!((ti.format, ti.version), ("text", 3));
    assert_eq!((bi.format, bi.version), ("binary", 4));
    assert_eq!(ti.events, trace.len());
    assert_eq!(bi.events, trace.len());
    assert_eq!(ti.counts, bi.counts);
    assert_eq!(ti.max_tid, bi.max_tid);
    assert_eq!(ti.granule_span, bi.granule_span);

    for kind in [DetectorKind::Sharc, DetectorKind::Eraser, DetectorKind::Vc] {
        let (name, from_memory) = judge_trace(&trace, kind);
        let (_, via_text) = judge_trace(&from_text, kind);
        let (_, via_bin) = judge_trace(&from_bin, kind);
        assert_eq!(via_text, from_memory, "{name}: text archive diverged");
        assert_eq!(via_bin, from_memory, "{name}: binary archive diverged");
        // Exit-code parity with the CLI smoke: sharc accepts the
        // session hand-offs, the lockset baseline must not.
        match kind {
            DetectorKind::Sharc => assert!(
                from_memory.is_empty(),
                "sharc must accept the stunnel hand-offs: {from_memory:?}"
            ),
            DetectorKind::Eraser => assert!(
                !from_memory.is_empty(),
                "eraser must false-positive on the unlocked hand-offs"
            ),
            DetectorKind::Vc => {}
        }
    }
}

/// The v1 lowering the CI pipeline used to hand-roll with awk, as a
/// real test: a recorded pbzip2 trace and its `lower_ranges`
/// expansion (every range event per-granule — the v1 vocabulary)
/// produce identical conflicts under every detector, through the file
/// round trip too.
#[test]
fn pbzip2_v1_lowering_replays_identically() {
    let (_run, trace) = native_trace(NativeWorkload::Pbzip2);
    assert!(
        trace.iter().any(|e| matches!(
            e,
            sharc::checker::CheckEvent::RangeCast { .. }
                | sharc::checker::CheckEvent::RangeFree { .. }
        )),
        "pbzip2 must record ranged hand-offs for the lowering to mean anything"
    );

    let lowered = sharc::checker::lower_ranges(&trace);
    assert!(
        !lowered.iter().any(|e| matches!(
            e,
            sharc::checker::CheckEvent::RangeRead { .. }
                | sharc::checker::CheckEvent::RangeWrite { .. }
                | sharc::checker::CheckEvent::RangeCast { .. }
                | sharc::checker::CheckEvent::RangeFree { .. }
        )),
        "lowering leaves only per-granule events"
    );

    let path = tmp("parity-pbzip2-v1.trace");
    write_trace_file(&path, &lowered).expect("lowered trace written");
    let reread = read_trace_file(&path).expect("lowered trace parses");
    assert_eq!(reread, lowered, "lowered round trip lost events");

    for kind in [DetectorKind::Sharc, DetectorKind::Eraser, DetectorKind::Vc] {
        let (name, original) = judge_trace(&trace, kind);
        let (_, via_lowered) = judge_trace(&reread, kind);
        assert_eq!(
            via_lowered, original,
            "{name}: v1 lowering changed the verdict"
        );
    }
    // The documented exit-code split survives the lowering.
    let (_, sharc_v) = judge_trace(&reread, DetectorKind::Sharc);
    let (_, eraser_v) = judge_trace(&reread, DetectorKind::Eraser);
    assert!(sharc_v.is_empty(), "sharc accepts the lowered hand-offs");
    assert!(!eraser_v.is_empty(), "eraser still false-positives");
}
