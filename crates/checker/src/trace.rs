//! Offline [`CheckEvent`] traces: a line-oriented
//! text format so one recorded execution can leave the process and be
//! re-judged later (`sharc native --trace-out` writes it, `sharc
//! replay` reads it back into [`crate::replay`]).
//!
//! The format is deliberately boring — one event per line, lowercase
//! keyword plus decimal operands, `#` comments and blank lines
//! ignored:
//!
//! ```text
//! # sharc-trace v3
//! fork 1 2
//! write 1 17
//! rwrite 1 18 4
//! cast 1 17 1
//! rcast 1 18 4 1
//! acquire 2 0
//! release 2 0
//! read 2 17
//! rread 2 18 4
//! rfree 18 4
//! exit 2
//! ```
//!
//! `v2` added the two ranged access lines: `rread tid granule len` /
//! `rwrite tid granule len`, one line per buffer sweep. `v3` adds the
//! ranged ownership-transfer lines: `rcast tid granule len refs`, one
//! line per whole-block sharing cast, and `rfree granule len`, one
//! line per whole-block free. Each format bump is backwards
//! compatible by construction — the header is a comment, and every
//! older keyword parses unchanged — so a `v1` or `v2` file written by
//! an older `--trace-out` replays bit-identically under this parser
//! (the compatibility tests below pin it). A `v3` trace is
//! interchangeable with its per-granule expansion: replay lowers each
//! range to per-granule checks
//! ([`crate::backend::lower_ranges`]), so both spell the same
//! verdicts.
//!
//! Round-tripping is exact ([`parse_text`] ∘ [`to_text`] is the
//! identity on any event vector), which is what makes an offline
//! verdict trustworthy: the replayed trace *is* the recorded
//! execution, not a lossy summary of it. The property test below
//! pins this over the whole vocabulary.

use crate::backend::CheckEvent;
use crate::geometry::ShadowGeometry;
use crate::step::adaptive::TID_MASK;
use std::fmt::Write as _;

/// The largest shadow a trace *file* may ask the replay fold to
/// allocate: [`ShadowGeometry::for_threads`] of its widest tid, times
/// its granule span, times eight bytes a word. A trace is untrusted
/// input, and two short lines (`write 1073741823 0`, `write 5 100000`)
/// are enough to name terabytes; a decoder refuses such a file instead
/// of handing it to a fold that would obey it. 16 MiB is a million
/// granules at up to 63 threads — 16 MiB of traced memory, eight times
/// the widest trace this repository generates — and keeps the sparse
/// per-granule state of the baseline detectors near 100 MB when one
/// ranged line touches all of it.
pub const MAX_TRACE_SHADOW_BYTES: u64 = 16 << 20;

/// What both decoders check as they construct each event (the text
/// parser a whole event at a time, the binary one operand by operand)
/// — no second pass over the trace: every tid lies in `1..=TID_MASK` (what the
/// shadow encodings can represent), no granule run overflows, and the
/// shadow the trace so far would need stays under
/// [`MAX_TRACE_SHADOW_BYTES`].
#[derive(Debug, Default)]
pub(crate) struct Admission {
    max_tid: u32,
    granule_span: usize,
}

impl Admission {
    /// Admits `e` or says why not.
    pub(crate) fn admit(&mut self, e: &CheckEvent) -> Result<(), String> {
        for tid in e.tids() {
            self.tid(tid)?;
        }
        match e.granules() {
            Some((granule, len)) => self.run(granule, len),
            None => Ok(()),
        }
    }

    /// Admits a thread id an event names.
    #[inline]
    pub(crate) fn tid(&mut self, tid: u32) -> Result<(), String> {
        if tid < 1 || u64::from(tid) > TID_MASK {
            return Err(format!("thread id {tid} is outside 1..={TID_MASK}"));
        }
        if tid > self.max_tid {
            self.grow(tid, self.granule_span)?;
        }
        Ok(())
    }

    /// Admits the `len` granules from `granule` an event addresses.
    #[inline]
    pub(crate) fn run(&mut self, granule: usize, len: usize) -> Result<(), String> {
        let end = granule
            .checked_add(len.max(1))
            .ok_or_else(|| format!("granule run {granule} + {len} overflows"))?;
        if end > self.granule_span {
            self.grow(self.max_tid, end)?;
        }
        Ok(())
    }

    /// The trace got wider or longer: re-check the shadow budget.
    #[cold]
    fn grow(&mut self, max_tid: u32, granule_span: usize) -> Result<(), String> {
        let geom = ShadowGeometry::for_threads(max_tid.max(1) as usize);
        let shadow = geom.bytes_per_granule() as u128 * granule_span as u128;
        if shadow > u128::from(MAX_TRACE_SHADOW_BYTES) {
            return Err(format!(
                "replaying up to here needs {shadow} bytes of shadow ({granule_span} granules x \
                 {} words for tids up to {max_tid}), over the {MAX_TRACE_SHADOW_BYTES}-byte budget",
                geom.words_per_granule()
            ));
        }
        (self.max_tid, self.granule_span) = (max_tid, granule_span);
        Ok(())
    }
}

/// The header written at the top of every trace file. Parsing does
/// not require it (it is a comment), but it lets a future format
/// bump fail loudly instead of misparsing. The `v1` and `v2` headers
/// are still accepted: their vocabularies are subsets of `v3`'s.
pub const TRACE_HEADER: &str = "# sharc-trace v3";

/// Renders `events` in the line format, header included.
pub fn to_text(events: &[CheckEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 12 + TRACE_HEADER.len() + 1);
    out.push_str(TRACE_HEADER);
    out.push('\n');
    for e in events {
        match *e {
            CheckEvent::Read { tid, granule } => writeln!(out, "read {tid} {granule}"),
            CheckEvent::Write { tid, granule } => writeln!(out, "write {tid} {granule}"),
            CheckEvent::RangeRead { tid, granule, len } => {
                writeln!(out, "rread {tid} {granule} {len}")
            }
            CheckEvent::RangeWrite { tid, granule, len } => {
                writeln!(out, "rwrite {tid} {granule} {len}")
            }
            CheckEvent::LockedAccess { tid, lock } => writeln!(out, "locked {tid} {lock}"),
            CheckEvent::SharingCast { tid, granule, refs } => {
                writeln!(out, "cast {tid} {granule} {refs}")
            }
            CheckEvent::RangeCast {
                tid,
                granule,
                len,
                refs,
            } => {
                writeln!(out, "rcast {tid} {granule} {len} {refs}")
            }
            CheckEvent::RangeFree { granule, len } => writeln!(out, "rfree {granule} {len}"),
            CheckEvent::Acquire { tid, lock } => writeln!(out, "acquire {tid} {lock}"),
            CheckEvent::Release { tid, lock } => writeln!(out, "release {tid} {lock}"),
            CheckEvent::Fork { parent, child } => writeln!(out, "fork {parent} {child}"),
            CheckEvent::Join { parent, child } => writeln!(out, "join {parent} {child}"),
            CheckEvent::ThreadExit { tid } => writeln!(out, "exit {tid}"),
            CheckEvent::Alloc { granule } => writeln!(out, "alloc {granule}"),
        }
        .expect("writing to a String cannot fail");
    }
    out
}

/// Every text-format keyword, one per [`CheckEvent`] kind — the
/// vocabulary [`to_text`]/[`parse_text`] speak, in the order `sharc
/// trace info` lists per-kind counts.
pub const KEYWORDS: [&str; 14] = [
    "read", "write", "rread", "rwrite", "locked", "cast", "rcast", "rfree", "acquire", "release",
    "fork", "join", "exit", "alloc",
];

/// The text-format keyword for `e`, from [`KEYWORDS`].
pub fn keyword(e: &CheckEvent) -> &'static str {
    KEYWORDS[match e {
        CheckEvent::Read { .. } => 0,
        CheckEvent::Write { .. } => 1,
        CheckEvent::RangeRead { .. } => 2,
        CheckEvent::RangeWrite { .. } => 3,
        CheckEvent::LockedAccess { .. } => 4,
        CheckEvent::SharingCast { .. } => 5,
        CheckEvent::RangeCast { .. } => 6,
        CheckEvent::RangeFree { .. } => 7,
        CheckEvent::Acquire { .. } => 8,
        CheckEvent::Release { .. } => 9,
        CheckEvent::Fork { .. } => 10,
        CheckEvent::Join { .. } => 11,
        CheckEvent::ThreadExit { .. } => 12,
        CheckEvent::Alloc { .. } => 13,
    }]
}

/// Renders a parse failure: the 1-based line number, a snippet of
/// the offending line (truncated, so a megabyte of garbage does not
/// become a megabyte of error), and the detail. Every error this
/// module produces goes through here — header lines included — so a
/// failure always says *where* and *what it saw*, not just why.
fn line_error(line_no: usize, raw: &str, detail: &str) -> String {
    const SNIPPET_MAX: usize = 48;
    let trimmed = raw.trim();
    let snippet: String = if trimmed.chars().count() > SNIPPET_MAX {
        trimmed
            .chars()
            .take(SNIPPET_MAX)
            .chain("...".chars())
            .collect()
    } else {
        trimmed.to_string()
    };
    format!("trace line {line_no}: `{snippet}`: {detail}")
}

/// Parses the line format back into events. Blank lines and `#`
/// comments are skipped; anything else that fails to parse reports
/// its 1-based line number plus a snippet of the offending line.
/// Header comments are the one kind of comment that is *not* waved
/// through blindly: a `# sharc-trace vN` line with an unknown
/// version fails loudly (with its line number like any other error)
/// instead of silently misparsing a future format. An event the replay
/// fold could not survive — tid 0, an overflowing range, a shadow over
/// [`MAX_TRACE_SHADOW_BYTES`] — is refused on its line the same way.
pub fn parse_text(text: &str) -> Result<Vec<CheckEvent>, String> {
    let mut events = Vec::new();
    let mut admission = Admission::default();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# sharc-trace v") {
            match rest.trim().parse::<u32>() {
                Ok(v) if (1..=3).contains(&v) => continue,
                Ok(v) => {
                    return Err(line_error(
                        i + 1,
                        raw,
                        &format!(
                            "unsupported text trace version v{v} \
                             (this parser reads v1-v3; v4 is the binary `.sbt` format)"
                        ),
                    ))
                }
                Err(_) => {
                    return Err(line_error(i + 1, raw, "malformed trace version header"));
                }
            }
        }
        if line.starts_with('#') {
            continue;
        }
        let event = parse_line(line)
            .and_then(|e| admission.admit(&e).map(|()| e))
            .map_err(|e| line_error(i + 1, raw, &e))?;
        events.push(event);
    }
    Ok(events)
}

fn parse_line(line: &str) -> Result<CheckEvent, String> {
    let mut parts = line.split_ascii_whitespace();
    let kw = parts.next().expect("line is non-empty");
    // Each operand parses at its field's own width, so an id that
    // does not fit is an error here, never a silent truncation.
    macro_rules! arg {
        ($name:literal) => {
            parts
                .next()
                .ok_or_else(|| format!("`{kw}` is missing its {} operand", $name))?
                .parse()
                .map_err(|_| format!("`{kw}`: {} is not a number in range", $name))?
        };
    }
    let ev = match kw {
        "read" => CheckEvent::Read {
            tid: arg!("tid"),
            granule: arg!("granule"),
        },
        "write" => CheckEvent::Write {
            tid: arg!("tid"),
            granule: arg!("granule"),
        },
        "rread" => CheckEvent::RangeRead {
            tid: arg!("tid"),
            granule: arg!("granule"),
            len: arg!("len"),
        },
        "rwrite" => CheckEvent::RangeWrite {
            tid: arg!("tid"),
            granule: arg!("granule"),
            len: arg!("len"),
        },
        "locked" => CheckEvent::LockedAccess {
            tid: arg!("tid"),
            lock: arg!("lock"),
        },
        "cast" => CheckEvent::SharingCast {
            tid: arg!("tid"),
            granule: arg!("granule"),
            refs: arg!("refs"),
        },
        "rcast" => CheckEvent::RangeCast {
            tid: arg!("tid"),
            granule: arg!("granule"),
            len: arg!("len"),
            refs: arg!("refs"),
        },
        "rfree" => CheckEvent::RangeFree {
            granule: arg!("granule"),
            len: arg!("len"),
        },
        "acquire" => CheckEvent::Acquire {
            tid: arg!("tid"),
            lock: arg!("lock"),
        },
        "release" => CheckEvent::Release {
            tid: arg!("tid"),
            lock: arg!("lock"),
        },
        "fork" => CheckEvent::Fork {
            parent: arg!("parent"),
            child: arg!("child"),
        },
        "join" => CheckEvent::Join {
            parent: arg!("parent"),
            child: arg!("child"),
        },
        "exit" => CheckEvent::ThreadExit { tid: arg!("tid") },
        "alloc" => CheckEvent::Alloc {
            granule: arg!("granule"),
        },
        other => return Err(format!("unknown event `{other}`")),
    };
    if let Some(extra) = parts.next() {
        return Err(format!("`{kw}`: unexpected trailing operand `{extra}`"));
    }
    Ok(ev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharc_testkit::{forall, gen, prop_assert_eq, Gen};

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
            match kind {
                0 => CheckEvent::Read { tid, granule },
                1 => CheckEvent::Write { tid, granule },
                2 => CheckEvent::LockedAccess { tid, lock },
                3 => CheckEvent::SharingCast { tid, granule, refs },
                4 => CheckEvent::Acquire { tid, lock },
                5 => CheckEvent::Release { tid, lock },
                6 => CheckEvent::Fork {
                    parent: tid,
                    child: tid + 1,
                },
                7 => CheckEvent::Join {
                    parent: tid,
                    child: tid + 1,
                },
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

    #[test]
    fn round_trip_is_identity_over_the_whole_vocabulary() {
        forall!(
            "trace_round_trip_is_identity",
            gen::vec_of(event_gen(), 0..64),
            |events| {
                let parsed = parse_text(&to_text(events)).expect("well-formed");
                prop_assert_eq!(&parsed, events);
            }
        );
    }

    #[test]
    fn keyword_is_the_word_each_line_starts_with() {
        forall!("keyword_matches_the_text_line", event_gen(), |e| {
            let text = to_text(std::slice::from_ref(e));
            let line = text.lines().last().expect("one event line");
            prop_assert_eq!(line.split(' ').next(), Some(keyword(e)));
        });
    }

    #[test]
    fn wide_tids_round_trip_exactly_at_shard_boundaries() {
        // The fleet-width regression: tids straddling every 63-wide
        // shard boundary, spelled only in the vocabulary a wide
        // server run actually emits — ranged sweeps interleaved with
        // the sharing casts and thread exits that clear them. The
        // text format has no tid width anywhere, so the round trip
        // must be the identity with the boundary identities intact.
        const BOUNDARY_TIDS: [u32; 8] = [63, 64, 126, 127, 189, 252, 315, 316];
        let wide_event = gen::pair(
            gen::pair(
                gen::u32_range(0..5),
                gen::u32_range(0..BOUNDARY_TIDS.len() as u32),
            ),
            gen::pair(gen::usize_range(0..4096), gen::usize_range(1..9)),
        )
        .map(|&((kind, which), (granule, len))| {
            let tid = BOUNDARY_TIDS[which as usize];
            match kind {
                0 => CheckEvent::RangeRead { tid, granule, len },
                1 => CheckEvent::RangeWrite { tid, granule, len },
                2 => CheckEvent::SharingCast {
                    tid,
                    granule,
                    refs: 1 + (granule % 3) as u64,
                },
                3 => CheckEvent::RangeCast {
                    tid,
                    granule,
                    len,
                    refs: 1 + (granule % 3) as u64,
                },
                _ => CheckEvent::ThreadExit { tid },
            }
        });
        forall!(
            "trace_wide_tids_round_trip",
            gen::vec_of(wide_event, 0..96),
            |events| {
                let parsed = parse_text(&to_text(events)).expect("well-formed");
                prop_assert_eq!(&parsed, events);
                // Every tid survived verbatim — no narrowing through
                // any 63-entry shard encoding on the way to disk.
                for (e, p) in events.iter().zip(&parsed) {
                    let tid_of = |e: &CheckEvent| match *e {
                        CheckEvent::RangeRead { tid, .. }
                        | CheckEvent::RangeWrite { tid, .. }
                        | CheckEvent::SharingCast { tid, .. }
                        | CheckEvent::RangeCast { tid, .. }
                        | CheckEvent::ThreadExit { tid } => tid,
                        _ => unreachable!("not in the generated vocabulary"),
                    };
                    prop_assert_eq!(tid_of(e), tid_of(p));
                }
            }
        );
    }

    #[test]
    fn v3_trace_and_its_v1_lowering_replay_identically() {
        // The v1 -> v3 round trip: any v3 trace (ranged accesses,
        // casts, and frees included) can be lowered to a pure-v1
        // vocabulary, serialized, re-parsed, and replayed — and the
        // verdicts are bit-identical to replaying the v3 file
        // directly.
        use crate::backend::{lower_ranges, replay, BitmapBackend};
        forall!(
            "trace_v3_lowering_preserves_verdicts",
            gen::vec_of(event_gen(), 0..48),
            |events| {
                let v3 = parse_text(&to_text(events)).expect("v3 parses");
                let lowered = lower_ranges(&v3);
                let v1_text = to_text(&lowered);
                assert!(
                    !v1_text.contains("\nrread ")
                        && !v1_text.contains("\nrwrite ")
                        && !v1_text.contains("\nrcast ")
                        && !v1_text.contains("\nrfree "),
                    "lowering leaves only the v1 vocabulary"
                );
                let v1 = parse_text(&v1_text).expect("lowered trace parses");
                let a = replay(&v3, &mut BitmapBackend::new());
                let b = replay(&v1, &mut BitmapBackend::new());
                prop_assert_eq!(&a, &b);
            }
        );
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let parsed = parse_text("# hello\n\n  read 2 7  \n# bye\n").unwrap();
        assert_eq!(parsed, vec![CheckEvent::Read { tid: 2, granule: 7 }]);
    }

    /// Every malformed form reports the 1-based line *and* a snippet
    /// of the offending line, so a failure deep in a 10⁷-line trace
    /// is locatable without opening the file. One case per form.
    #[test]
    fn every_malformed_form_reports_line_and_snippet() {
        // (input, expected line tag, expected detail fragment); each
        // input puts the bad line second so a correct line count is
        // actually exercised.
        let cases: &[(&str, &str, &str)] = &[
            // Unknown keyword.
            ("read 2 7\nwobble 1\n", "line 2", "unknown event"),
            // Missing operand, per operand-bearing event shape.
            ("read 2 7\nread 3\n", "line 2", "granule operand"),
            ("read 2 7\nwrite 3\n", "line 2", "granule operand"),
            ("read 2 7\nrread 1 2\n", "line 2", "len operand"),
            ("read 2 7\nrwrite 1 2\n", "line 2", "len operand"),
            ("read 2 7\nlocked 1\n", "line 2", "lock operand"),
            ("read 2 7\ncast 1 2\n", "line 2", "refs operand"),
            ("read 2 7\nrcast 1 2 3\n", "line 2", "refs operand"),
            ("read 2 7\nrfree 2\n", "line 2", "len operand"),
            ("read 2 7\nacquire 1\n", "line 2", "lock operand"),
            ("read 2 7\nrelease 1\n", "line 2", "lock operand"),
            ("read 2 7\nfork 1\n", "line 2", "child operand"),
            ("read 2 7\njoin 1\n", "line 2", "child operand"),
            ("read 2 7\nexit\n", "line 2", "tid operand"),
            ("read 2 7\nalloc\n", "line 2", "granule operand"),
            // Non-numeric operand.
            ("read 2 7\nread two 7\n", "line 2", "not a number"),
            // Trailing operand.
            ("read 2 7\nexit 1 2\n", "line 2", "trailing"),
            // Header lines fail with a line number too: an unknown
            // future version must not be skipped as a comment...
            (
                "# sharc-trace v9\nread 2 7\n",
                "line 1",
                "unsupported text trace version v9",
            ),
            // ...and a mangled version header is not a comment either.
            (
                "read 2 7\n# sharc-trace vX\n",
                "line 2",
                "malformed trace version header",
            ),
        ];
        for (input, line, detail) in cases {
            let e = parse_text(input).unwrap_err();
            assert!(e.contains(line), "{input:?}: expected {line:?} in {e:?}");
            assert!(
                e.contains(detail),
                "{input:?}: expected {detail:?} in {e:?}"
            );
            // The snippet: the offending line's text, backquoted.
            let bad = input
                .lines()
                .find(|l| e.contains(&format!("`{}`", l.trim())))
                .unwrap_or_else(|| panic!("{input:?}: no snippet in {e:?}"));
            assert!(!bad.is_empty());
        }
        // Long garbage is truncated in the snippet, not echoed whole.
        let long = format!("read 2 7\nwobble {}\n", "x".repeat(500));
        let e = parse_text(&long).unwrap_err();
        assert!(e.contains("..."), "{e}");
        assert!(e.len() < 160, "snippet not truncated: {e}");
    }

    #[test]
    fn admission_refuses_what_the_fold_could_not_survive() {
        // (input, what the refusal says); the bad line is the last.
        let cases: &[(&str, &str)] = &[
            ("write 1 7\nread 0 5\n", "thread id 0"),
            ("write 1 7\nfork 1 1073741824\n", "thread id 1073741824"),
            // An id wider than its field is an error, not a truncation
            // to tid 1.
            ("write 1 7\nread 4294967297 5\n", "not a number in range"),
            ("write 1 7\nrwrite 1 18446744073709551615 2\n", "overflows"),
            ("write 1 7\nrfree 5 18446744073709551615\n", "overflows"),
            ("write 1 0\nwrite 1048576 100000\n", "budget"),
            ("write 1 7\nwrite 1 4000000000000\n", "budget"),
        ];
        for (input, why) in cases {
            let e = parse_text(input).unwrap_err();
            assert!(e.contains("line 2"), "{input:?}: {e}");
            assert!(e.contains(why), "{input:?}: expected {why:?} in {e}");
        }
        // The budget is exact: the last granule that fits is admitted,
        // the next one is not (two words a granule up to 63 threads).
        let fits = (MAX_TRACE_SHADOW_BYTES / 16) as usize;
        assert!(parse_text(&format!("alloc {}\n", fits - 1)).is_ok());
        assert!(parse_text(&format!("alloc {fits}\n")).is_err());
        // ...and a wider tid shrinks it (three words from tid 64 on).
        assert!(parse_text(&format!("alloc {}\nexit 64\n", fits - 1)).is_err());
    }

    #[test]
    fn v1_through_v3_headers_still_parse() {
        for h in ["# sharc-trace v1", "# sharc-trace v2", "# sharc-trace v3"] {
            let parsed = parse_text(&format!("{h}\nread 2 7\n")).expect("supported version");
            assert_eq!(parsed, vec![CheckEvent::Read { tid: 2, granule: 7 }]);
        }
    }
}
