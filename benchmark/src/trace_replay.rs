//! `trace-replay` — `sharc replay`'s job: file → verdict.
//!
//! A seeded spine-shaped trace (128 tids, so the replay shadow has
//! the 3-shard geometry) is written once as `.sbt`; every lap reads
//! the file back, decodes it and folds it through SharC's backend,
//! sequentially and with `jobs = 2`. `checker::btrace`,
//! `checker::backend`/`step` and `checker::parallel` do all the work;
//! `runtime`, `core` and `interp` do none. The decoded trace is
//! resident in full (32-byte events), which is what ROADMAP 4(e)
//! must shrink — `peak_rss_mb` is the row that will show it.
//!
//! `check_overhead` here is the verdict lap over its own reading half
//! (`read_trace_file` alone): what judging adds to loading.

use crate::gen_trace::{key_trace, sorted, spine_trace};
use crate::harness::{Ctx, Samples};
use crate::report::Report;
use crate::stats;
use sharc::DetectorKind;
use sharc_checker::{BitmapBackend, CheckEvent, Conflict, ParallelReplay};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Events in the trace at full scale.
pub const EVENTS: usize = 2_000_000;
const THREADS: u32 = 128;
const JOBS: usize = 2;

/// The key trace: small, because it is judged twelve ways per set-up.
const KEY_THREADS: u32 = 8;
const KEY_RACES: usize = 12;
const KEY_HANDOFFS: usize = 9;

/// The text codec rows run on this fraction of the trace: text is
/// ~7× the bytes of `.sbt` and not on the replay path.
const TEXT_PREFIX_DIVISOR: usize = 8;

const WHY_ONE_CPU: &str = "nproc < 2: two replay workers cannot run in parallel";

struct Input {
    path: PathBuf,
    events: usize,
    file_bytes: u64,
}

impl Drop for Input {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn make(ctx: &mut Ctx) -> Input {
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    check_key_trace(ctx, &dir.join(format!("key-{}.sbt", std::process::id())));

    let trace = spine_trace(ctx.cfg.seed, ctx.scaled(EVENTS), THREADS);
    let path = dir.join(format!("trace-replay-{}.sbt", std::process::id()));
    sharc::write_trace_file(&path, &trace).expect("write the trace file");
    let file_bytes = std::fs::metadata(&path).expect("stat the trace file").len();
    // The program under test sees the file, never this vector.
    Input {
        path,
        events: trace.len(),
        file_bytes,
    }
}

/// Judges the key trace with every detector along every path a trace
/// can take — sequential, `jobs = 2`, through the text encoding,
/// through a `.sbt` file — and holds each verdict against the
/// conflict set the generator planted.
fn check_key_trace(ctx: &mut Ctx, scratch: &Path) {
    let (trace, want) = key_trace(ctx.cfg.seed, KEY_THREADS, KEY_RACES, KEY_HANDOFFS);
    let text = sharc_checker::parse_trace(&sharc_checker::trace_to_text(&trace));
    let binary = sharc::write_trace_file(scratch, &trace)
        .map_err(|e| e.to_string())
        .and_then(|()| sharc::read_trace_file(scratch));
    let _ = std::fs::remove_file(scratch);
    for (kind, want) in [
        (DetectorKind::Sharc, &want.sharc),
        (DetectorKind::Eraser, &want.eraser),
        (DetectorKind::Vc, &want.vc),
    ] {
        let mut hold = |path: &str, got: Result<Vec<Conflict>, String>| {
            let got = got.map(sorted);
            ctx.verdict(got.as_ref() == Ok(want), || {
                format!(
                    "key trace, {kind:?} via {path}: the generator planted {} conflicts, \
                     got {got:?}",
                    want.len()
                )
            });
        };
        hold("sequential", Ok(sharc::judge_trace(&trace, kind).1));
        hold("jobs=2", Ok(sharc::judge_trace_jobs(&trace, kind, JOBS).1));
        hold(
            "text",
            text.as_ref()
                .map(|t| sharc::judge_trace(t, kind).1)
                .map_err(Clone::clone),
        );
        hold(
            "binary",
            binary
                .as_ref()
                .map(|t| sharc::judge_trace(t, kind).1)
                .map_err(Clone::clone),
        );
    }
}

/// The untraced lap, through the facade `sharc replay` calls.
fn facade_round(ctx: &mut Ctx, input: &Input, samples: &mut Samples) {
    let Some((events, read_s)) =
        ctx.timed("read_trace_file", || sharc::read_trace_file(&input.path))
    else {
        return;
    };
    let events = match events {
        Ok(events) => events,
        Err(e) => return ctx.verdict(false, || format!("trace refused: {e}")),
    };
    let Some(((_, conflicts), seq_s)) = ctx.timed("judge_trace", || {
        sharc::judge_trace(&events, DetectorKind::Sharc)
    }) else {
        return;
    };
    hold_clean(ctx, "sequential", events.len(), input, &conflicts);
    samples.push("read", read_s);
    ctx.push_verdict(samples, read_s + seq_s);
    if ctx.nproc >= JOBS {
        let Some(((_, conflicts), par_s)) = ctx.timed("judge_trace_jobs", || {
            sharc::judge_trace_jobs(&events, DetectorKind::Sharc, JOBS)
        }) else {
            return;
        };
        hold_clean(ctx, "jobs=2", events.len(), input, &conflicts);
        samples.push("verdict_par", read_s + par_s);
    }
}

/// The traced lap: the same work as [`facade_round`], each layer
/// called by itself under a span (`read_trace_file` is `fs::read` +
/// `parse_binary`; `judge_trace` is `geometry_for_trace` + `replay`).
fn traced_round(ctx: &mut Ctx, input: &Input, samples: &mut Samples) {
    let lap = ctx.spans.enter("lap");
    let t = Instant::now();
    let result = (|| {
        let (bytes, _) = ctx.timed("checker.io.read", || std::fs::read(&input.path))?;
        let bytes = bytes.ok()?;
        let (events, _) = ctx.timed("checker.btrace.decode", move || {
            sharc_checker::parse_binary(&bytes)
        })?;
        let events = events.ok()?;
        let (geom, _) = ctx.timed("checker.geometry", || {
            sharc_checker::geometry_for_trace(&events)
        })?;
        let (conflicts, _) = ctx.timed("checker.backend.replay", || {
            sharc_checker::replay(&events, &mut BitmapBackend::with_geometry(geom))
        })?;
        Some((events, geom, conflicts))
    })();
    let verdict_s = t.elapsed().as_secs_f64();
    ctx.spans.exit(lap);
    let Some((events, geom, conflicts)) = result else {
        return ctx.verdict(false, || "traced lap: the trace file was refused".into());
    };
    hold_clean(ctx, "sequential", events.len(), input, &conflicts);
    ctx.push_verdict(samples, verdict_s);
    if ctx.nproc >= JOBS {
        if let Some((conflicts, _)) = ctx.timed("checker.parallel.replay", || {
            ParallelReplay::new(JOBS).replay(&events, move || {
                Box::new(BitmapBackend::with_geometry(geom)) as _
            })
        }) {
            hold_clean(ctx, "jobs=2", events.len(), input, &conflicts);
        }
    }
}

/// The load trace is conflict-free by construction and must decode to
/// the event count that was written.
fn hold_clean(ctx: &mut Ctx, path: &str, decoded: usize, input: &Input, conflicts: &[Conflict]) {
    ctx.verdict(decoded == input.events && conflicts.is_empty(), || {
        format!(
            "{path}: {decoded} events decoded of {} written, {} conflicts on a race-free trace",
            input.events,
            conflicts.len()
        )
    });
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut round = |ctx: &mut Ctx, input: &Input, samples: &mut Samples| {
        if ctx.spans.recording() {
            traced_round(ctx, input, samples);
        } else {
            facade_round(ctx, input, samples);
        }
    };
    let (input, setups) = ctx.setup(make, &mut round);
    let (samples, laps) = ctx.measure(&input, &mut round);

    let mut report = Report::default();
    let (verdict, read) = (samples.median("verdict"), samples.median("read"));
    report.put("work_per_s", input.events as f64 / verdict);
    report.note(
        "work_per_s",
        format!(
            "events judged per second, {} per lap, {THREADS} tids",
            input.events
        ),
    );
    report.put("check_overhead", verdict / read);
    report.note(
        "check_overhead",
        format!("verdict lap {verdict:.6} s over its read_trace_file half {read:.6} s"),
    );
    report.put(
        "trace_bytes_per_event",
        input.file_bytes as f64 / input.events as f64,
    );
    if ctx.nproc >= JOBS {
        report.put("verdict_par_s", samples.median("verdict_par"));
        report.note(
            "verdict_par_s",
            format!("jobs = {JOBS} on {} CPUs", ctx.nproc),
        );
    } else {
        report.unmeasured("verdict_par_s", WHY_ONE_CPU);
    }
    if ctx.cfg.traced {
        layer_metrics(ctx, &input, &mut report);
    }
    ctx.common_metrics(&mut report, &samples, laps, &setups);
    report
}

/// The rows beneath: span medians from the traced laps, then the
/// codecs and the baseline detectors, timed once outside the laps
/// (vector clocks cost seconds at 128 tids).
fn layer_metrics(ctx: &mut Ctx, input: &Input, report: &mut Report) {
    let span = |name: &str| stats::median(&ctx.spans.per_lap(name));
    let events = input.events as f64;
    let (decode_s, replay_s) = (
        span("checker.btrace.decode"),
        span("checker.backend.replay"),
    );
    report.put("checker.io.read_s", span("checker.io.read"));
    report.put("checker.btrace.decode_s", decode_s);
    report.put("checker.btrace.decode_events_per_s", events / decode_s);
    report.put("checker.backend.replay_s", replay_s);
    report.put("checker.backend.ns_per_event", replay_s * 1e9 / events);
    report.put(
        "bench.phase_sum_ratio",
        stats::median(&ctx.spans.child_share("lap")),
    );
    if ctx.nproc >= JOBS {
        let par_s = span("checker.parallel.replay");
        report.put("checker.parallel.replay_s", par_s);
        report.put("checker.parallel.speedup", replay_s / par_s);
        report.note(
            "checker.parallel.speedup",
            format!("sequential fold {replay_s:.6} s over jobs = {JOBS} fold {par_s:.6} s"),
        );
    } else {
        report.unmeasured("checker.parallel.replay_s", WHY_ONE_CPU);
        report.unmeasured("checker.parallel.speedup", WHY_ONE_CPU);
    }

    let Ok(trace) = sharc::read_trace_file(&input.path) else {
        return ctx.verdict(false, || "the trace file was refused".into());
    };
    report.put(
        "checker.geometry.shards",
        sharc_checker::geometry_for_trace(&trace).shards() as f64,
    );
    let once = |f: &mut dyn FnMut() -> usize| {
        let t = Instant::now();
        let n = f();
        (n, t.elapsed().as_secs_f64())
    };
    let (bytes, encode_s) = once(&mut || sharc_checker::to_binary(&trace).len());
    report.put("checker.btrace.encode_s", encode_s);
    report.put("checker.btrace.bytes", bytes as f64);

    let prefix: &[CheckEvent] = &trace[..trace.len() / TEXT_PREFIX_DIVISOR];
    let mut text = String::new();
    let (text_bytes, text_encode_s) = once(&mut || {
        text = sharc_checker::trace_to_text(prefix);
        text.len()
    });
    let (decoded, text_decode_s) =
        once(&mut || sharc_checker::parse_trace(&text).map_or(0, |t| t.len()));
    ctx.verdict(decoded == prefix.len(), || {
        format!("text round trip: {decoded} events of {}", prefix.len())
    });
    report.put("checker.trace.encode_s", text_encode_s);
    report.put("checker.trace.decode_s", text_decode_s);
    report.put("checker.trace.bytes", text_bytes as f64);
    report.note(
        "checker.trace.bytes",
        format!("text rows cover the first {} events", prefix.len()),
    );

    for (kind, name) in [(DetectorKind::Eraser, "eraser"), (DetectorKind::Vc, "vc")] {
        let (conflicts, secs) = once(&mut || sharc::judge_trace(&trace, kind).1.len());
        ctx.verdict(conflicts == 0, || {
            format!("{name}: {conflicts} conflicts on a trace of private bands")
        });
        report.put(&format!("detectors.{name}.replay_s"), secs);
        report.put(
            &format!("detectors.{name}.ns_per_event"),
            secs * 1e9 / events,
        );
        report.put(&format!("detectors.{name}.conflicts"), conflicts as f64);
        report.put(
            &format!("detectors.{name}.slowdown_vs_sharc"),
            secs / replay_s,
        );
        report.note(
            &format!("detectors.{name}.slowdown_vs_sharc"),
            format!("{secs:.6} s over SharC's sequential fold {replay_s:.6} s"),
        );
    }
}
