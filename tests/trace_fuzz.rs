//! A hostile trace is refused, not obeyed.
//!
//! `read_trace_file` is the system's only parser of untrusted bytes.
//! This mutation fuzz starts from valid text and `.sbt` traces and
//! damages them the ways a file gets damaged — flipped bits,
//! truncation, spliced chunks, header fields, block counts and block
//! index footers that lie, operands at the edges of their types — and
//! holds the reader to
//! its contract: `Ok` or `Err`, never a panic; and whatever it admits,
//! all three detectors can judge without panicking (the decoders
//! check, event by event, that no tid is outside `1..=MAX_TID`, no
//! range overflows, and the shadow a replay needs stays under
//! `MAX_TRACE_SHADOW_BYTES`). `judge_trace_file`, the fold `sharc
//! replay` runs, is held to the collect: it refuses exactly what
//! `read_trace_file` refuses, with the same words, and otherwise gives
//! `judge_trace`'s verdict on the collected events.

use sharc::checker::{to_binary, trace_to_text, CheckEvent};
use sharc::prelude::*;
use sharc_testkit::prop::Config;
use sharc_testkit::{forall, gen, Gen};

/// The full 14-event vocabulary over wide tids.
fn event_gen() -> Gen<CheckEvent> {
    gen::pair(
        gen::u32_range(0..14),
        gen::triple(
            gen::u32_range(1..300),
            gen::usize_range(0..4096),
            gen::u64_range(1..5),
        ),
    )
    .map(|&(kind, (tid, granule, refs))| {
        let lock = granule % 8;
        let len = (granule % 7) + 1;
        let child = tid + 1;
        match kind {
            0 => CheckEvent::Read { tid, granule },
            1 => CheckEvent::Write { tid, granule },
            2 => CheckEvent::LockedAccess { tid, lock },
            3 => CheckEvent::SharingCast { tid, granule, refs },
            4 => CheckEvent::Acquire { tid, lock },
            5 => CheckEvent::Release { tid, lock },
            6 => CheckEvent::Fork { parent: tid, child },
            7 => CheckEvent::Join { parent: tid, child },
            8 => CheckEvent::ThreadExit { tid },
            9 => CheckEvent::RangeRead { tid, granule, len },
            10 => CheckEvent::RangeWrite { tid, granule, len },
            11 => CheckEvent::RangeCast {
                tid,
                granule,
                len,
                refs,
            },
            12 => CheckEvent::RangeFree { granule, len },
            _ => CheckEvent::Alloc { granule },
        }
    })
}

/// Operands at the edges: of the thread bound (`MAX_TID` = 1008), of
/// 30 bits, of `u32`, of `i64` (the binary format's granule deltas), of
/// `u64`.
const EXTREMES: [u64; 12] = [
    0,
    1008,
    1009,
    (1 << 30) - 1,
    1 << 30,
    u32::MAX as u64,
    u32::MAX as u64 + 1,
    1 << 40,
    i64::MAX as u64,
    1 << 63,
    u64::MAX - 1,
    u64::MAX,
];

fn uleb(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
}

/// Applies one mutation, steered by the raw draws `a` and `b`.
fn mutate(bytes: &mut Vec<u8>, binary: bool, &(kind, a, b): &(u32, u64, u64)) {
    if bytes.is_empty() {
        return;
    }
    let at = (a % bytes.len() as u64) as usize;
    let extreme = EXTREMES[(b % EXTREMES.len() as u64) as usize];
    match (kind, binary) {
        (0, _) => bytes[at] ^= 1 << (b % 8),
        (1, _) => bytes.truncate(at),
        // A chunk (a few lines, a block or two) copied somewhere else.
        (2, _) => {
            let len = (b as usize % 64).min(bytes.len() - at);
            let chunk = bytes[at..at + len].to_vec();
            let to = (b >> 8) as usize % (bytes.len() + 1);
            bytes.splice(to..to, chunk);
        }
        // A header field that lies: max tid, shard count, event
        // count, granule span.
        (3, true) => {
            let (field, width) = [(8, 4), (12, 4), (16, 8), (24, 8)][(a % 4) as usize];
            if let Some(dst) = bytes.get_mut(field..field + width) {
                dst.copy_from_slice(&extreme.to_le_bytes()[..width]);
            }
        }
        // A block count that lies (the first block's, when its tid is
        // one byte), or any byte after it.
        (4, true) => {
            let target = if a % 2 == 0 { 33 } else { at };
            if let Some(byte) = bytes.get_mut(target) {
                *byte = b as u8;
            }
        }
        // A byte of the block index footer that lies: an offset, a tid,
        // a count, or the number of triples.
        (6, true) => {
            let trailer = bytes.len().saturating_sub(12);
            let Some(footer) = bytes
                .get(trailer..trailer + 8)
                .map(|f| u64::from_le_bytes(f.try_into().expect("8 bytes")) as usize)
                .filter(|&f| f < trailer)
            else {
                return;
            };
            bytes[footer + (a as usize % (trailer - footer))] = b as u8;
        }
        // An extreme varint written over whatever was there.
        (_, true) => {
            for (dst, src) in bytes[at..].iter_mut().zip(uleb(extreme)) {
                *dst = src;
            }
        }
        // Text: the number at or after `at` replaced by an extreme one
        // (or by one no integer type holds).
        (_, false) => {
            let is_digit = |c: &u8| c.is_ascii_digit();
            let Some(start) = bytes[at..].iter().position(is_digit).map(|i| at + i) else {
                return;
            };
            let end = bytes[start..]
                .iter()
                .position(|c| !is_digit(c))
                .map_or(bytes.len(), |i| start + i);
            let text = match kind {
                3 => format!("-{extreme}"),
                4 => format!("{extreme}{extreme}"),
                _ => extreme.to_string(),
            };
            bytes.splice(start..end, text.into_bytes());
        }
    }
}

#[test]
fn mutated_traces_are_refused_or_judged_never_obeyed_into_a_panic() {
    let path = std::env::temp_dir().join(format!("sharc-trace-fuzz-{}", std::process::id()));
    let mutation = gen::triple(gen::u32_range(0..7), gen::u64_any(), gen::u64_any());
    let cases = Config::from_env().cases * 8;
    let config = Config::from_env().with_cases(cases);
    let admitted = std::cell::Cell::new(0u32);
    forall!(
        "mutated_traces_never_panic",
        config,
        gen::pair(gen::vec_of(event_gen(), 1..48), gen::vec_of(mutation, 1..4)),
        |(events, mutations)| {
            for binary in [false, true] {
                let mut bytes = if binary {
                    to_binary(events)
                } else {
                    trace_to_text(events).into_bytes()
                };
                for m in mutations {
                    mutate(&mut bytes, binary, m);
                }
                std::fs::write(&path, &bytes).expect("scratch file written");
                // `Err` is a fine answer; a panic fails the property.
                let collected = sharc::read_trace_file(&path);
                admitted.set(admitted.get() + u32::from(collected.is_ok()));
                for kind in [DetectorKind::Sharc, DetectorKind::Eraser, DetectorKind::Vc] {
                    let folded = sharc::judge_trace_file(&path, kind);
                    match (&collected, folded) {
                        (Ok(trace), Ok((events, name, conflicts))) => {
                            assert_eq!(events, trace.len(), "{kind:?}");
                            assert_eq!((name, conflicts), sharc::judge_trace(trace, kind));
                        }
                        (Err(read), Err(judged)) => assert_eq!(read, &judged, "{kind:?}"),
                        (read, judged) => panic!(
                            "{kind:?}: read_trace_file says {:?}, judge_trace_file {:?}",
                            read.as_ref().map(Vec::len),
                            judged.map(|(events, ..)| events)
                        ),
                    }
                }
            }
        }
    );
    std::fs::remove_file(&path).ok();
    // The fuzz is only worth its name if some mutants get through the
    // reader and reach the detectors.
    assert!(admitted.get() > 0, "no mutated trace was ever admitted");
}

#[test]
fn the_hostile_traces_from_the_issue_are_refused_in_both_formats() {
    use CheckEvent::{RangeWrite, Read, Write};
    let path = std::env::temp_dir().join(format!("sharc-trace-hostile-{}", std::process::id()));
    let cases: [(&str, Vec<CheckEvent>); 5] = [
        ("thread id 0", vec![Read { tid: 0, granule: 5 }]),
        (
            "overflows",
            vec![RangeWrite {
                tid: 1,
                granule: usize::MAX,
                len: 2,
            }],
        ),
        // Terabytes of shadow in two lines: the thread bound refuses
        // the first tid before the budget is reached.
        (
            "thread id 1073741823 is outside 1..=1008",
            vec![
                Write {
                    tid: (1 << 30) - 1,
                    granule: 0,
                },
                Write {
                    tid: 5,
                    granule: 100_000,
                },
            ],
        ),
        // The widest tid the bound admits, over more granules than
        // the shadow budget holds at its sixteen words a granule.
        (
            "budget",
            vec![
                Write {
                    tid: 1008,
                    granule: 0,
                },
                Write {
                    tid: 1008,
                    granule: 140_000,
                },
            ],
        ),
        (
            "budget",
            vec![Write {
                tid: 1,
                granule: 4_000_000_000_000,
            }],
        ),
    ];
    for (why, events) in cases {
        for bytes in [trace_to_text(&events).into_bytes(), to_binary(&events)] {
            std::fs::write(&path, &bytes).expect("scratch file written");
            let err = sharc::read_trace_file(&path).expect_err("a hostile trace is refused");
            // The binary format cannot even spell granule 2⁶⁴ − 1: its
            // delta underflows first. Either refusal names the place.
            assert!(
                err.contains(why) || err.contains("underflows"),
                "{events:?}: {err}"
            );
            assert!(
                err.contains("trace line ") || err.contains("block 1 "),
                "{err}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// An admitted trace may still name its tids in the worst order for a
/// growing shadow: one granule, each line's tid one 63-thread shard
/// past the last (1, 64, …, 946). The engine re-strides its store
/// whenever a tid outgrows it, and the thread bound caps that at 15
/// re-strides; one shard more (tid 1009) is refused by both decoders.
#[test]
fn a_trace_of_rising_tids_restrides_the_shadow_a_few_times() {
    use sharc::checker::{apply_event, BitmapBackend, MAX_TID};
    let tids = (1..=MAX_TID).step_by(63);
    let mut events = vec![CheckEvent::Write { tid: 1, granule: 0 }];
    events.extend(tids.clone().map(|tid| CheckEvent::Read { tid, granule: 0 }));
    assert_eq!(tids.last(), Some(946));
    let path = std::env::temp_dir().join(format!("sharc-trace-rising-{}", std::process::id()));
    for bytes in [trace_to_text(&events).into_bytes(), to_binary(&events)] {
        std::fs::write(&path, &bytes).expect("scratch file written");
        let trace = sharc::read_trace_file(&path).expect("the trace is inside the bound");
        let (mut engine, mut conflicts, mut restrides) = (BitmapBackend::new(), Vec::new(), 0);
        for &e in &trace {
            let before = engine.geometry();
            apply_event(e, &mut engine, &mut conflicts);
            restrides += usize::from(engine.geometry() != before);
        }
        // Every reader but the writer itself meets tid 1's write.
        assert_eq!(conflicts.len(), 15);
        assert!(restrides <= 15, "{restrides} re-strides");
    }
    events.push(CheckEvent::Read {
        tid: MAX_TID + 1,
        granule: 0,
    });
    for bytes in [trace_to_text(&events).into_bytes(), to_binary(&events)] {
        std::fs::write(&path, &bytes).expect("scratch file written");
        let err = sharc::read_trace_file(&path).expect_err("tid 1009 is past the bound");
        assert!(err.contains("thread id 1009 is outside 1..=1008"), "{err}");
    }
    std::fs::remove_file(&path).ok();
}
