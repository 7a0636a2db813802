//! The VM's emitted `CheckEvent` trace, pinned.
//!
//! The fixtures under `tests/fixtures/` were rendered at the commit
//! before the VM spoke `CheckEvent` itself, from what the facade's
//! converter then produced out of the VM's private event enum, for
//! seed 0. The trace the VM now emits directly must be byte-identical
//! — and, unlike the converter (which always divided addresses by the
//! constant `GRANULE_CELLS`), it must name the same granules the VM's
//! own reports do at *any* configured granule.

use sharc::checker::{trace_to_text, CheckEvent, EventLog};
use sharc::prelude::*;

fn traced(path: &str, config: RunConfig) -> (RunOutcome, Vec<CheckEvent>) {
    let src = std::fs::read_to_string(path).expect("example exists");
    let checked = sharc::check(path, &src).expect("example parses");
    let (out, trace) = EventLog::capture(|sink| {
        let sink = Some(sink);
        sharc::run(&checked, RunConfig { sink, ..config })
    });
    (out.expect("example runs"), trace)
}

#[test]
fn emitted_traces_are_byte_identical_to_the_converted_fixtures() {
    for (name, fixture) in [
        (
            "counter_racy",
            include_str!("fixtures/counter_racy.seed0.trace"),
        ),
        ("handoff", include_str!("fixtures/handoff.seed0.trace")),
        ("elision", include_str!("fixtures/elision.seed0.trace")),
    ] {
        let config = RunConfig {
            seed: 0,
            ..RunConfig::default()
        };
        let (_, trace) = traced(&format!("examples/minic/{name}.c"), config);
        assert!(
            trace_to_text(&trace) == fixture,
            "{name}.c: the emitted trace drifted from tests/fixtures/{name}.seed0.trace"
        );
    }
}

/// The `*.reports` fixtures were rendered at the commit before the VM
/// judged through `BitmapBackend`, with its owned cache off: seeds
/// 0–3, every report's `who` and `last` line. A wrong `last` changes
/// the text and — through the `(kind, site, last site)` dedup key —
/// can change the report count.
#[test]
fn conflict_report_text_is_pinned_on_every_example() {
    for (name, fixture) in [
        (
            "counter_locked",
            include_str!("fixtures/counter_locked.reports"),
        ),
        (
            "counter_racy",
            include_str!("fixtures/counter_racy.reports"),
        ),
        ("elision", include_str!("fixtures/elision.reports")),
        ("handoff", include_str!("fixtures/handoff.reports")),
    ] {
        let mut text = String::new();
        for seed in 0..4 {
            let config = RunConfig {
                seed,
                ..RunConfig::default()
            };
            let (out, _) = traced(&format!("examples/minic/{name}.c"), config);
            text.push_str(&format!("# seed {seed}\n"));
            for r in &out.reports {
                text.push_str(&format!("{r}\n"));
            }
        }
        assert_eq!(text, fixture, "{name}.c: reports drifted");
    }
}

#[test]
fn trace_and_reports_name_the_same_granules_at_any_granule_size() {
    for granule in [1, 4] {
        // Across a few seeds so at least one schedule races.
        let mut reports = 0;
        for seed in 0..4 {
            let config = RunConfig {
                seed,
                granule,
                ..RunConfig::default()
            };
            let (out, trace) = traced("examples/minic/counter_racy.c", config);
            for r in &out.reports {
                let (who, at) = (r.who.tid, (r.addr.0 / granule) as usize);
                let in_trace = trace.iter().any(|e| match (r.kind, *e) {
                    (ConflictKind::Read, CheckEvent::Read { tid, granule })
                    | (ConflictKind::Write, CheckEvent::Write { tid, granule }) => {
                        (tid, granule) == (who, at)
                    }
                    _ => false,
                });
                assert!(
                    in_trace,
                    "granule size {granule}, seed {seed}: report at granule {at} by \
                     thread {who} has no matching event in the trace:\n{r}"
                );
                reports += 1;
            }
        }
        assert!(reports > 0, "granule size {granule}: no seed in 0..4 raced");
    }
}
