//! # SharC — checking data sharing strategies for multithreaded C
//!
//! A from-scratch Rust reproduction of *SharC: Checking Data Sharing
//! Strategies for Multithreaded C* (Anderson, Gay, Ennals, Brewer —
//! PLDI 2008).
//!
//! SharC lets a programmer declare, with lightweight type qualifiers,
//! how each object is shared between threads — `private`, `readonly`,
//! `locked(l)`, `racy`, or `dynamic` — then verifies the declaration
//! with a mix of static analysis and runtime checks. Objects may move
//! between modes with a *sharing cast* whose safety is checked by
//! reference counting.
//!
//! This crate is the facade over the workspace:
//!
//! | crate | paper section | contents |
//! |---|---|---|
//! | [`minic`] | — | the C-like language (lexer, parser, AST, qualifiers) |
//! | [`core`] (`sharc-core`) | §2, §4.1 | elaboration, sharing analysis, checker, instrumentation |
//! | [`interp`] (`sharc-interp`) | §3, §4.2 | the VM executing checked programs; the formal core calculus |
//! | [`runtime`] (`sharc-runtime`) | §4.2–4.3 | native-thread shadow memory, lock logs, reference counting |
//! | [`detectors`] (`sharc-detectors`) | §6.2 | Eraser-lockset and vector-clock baselines |
//! | [`workloads`] (`sharc-workloads`) | §5 | the six Table 1 benchmarks |
//!
//! ## Quick start
//!
//! ```
//! use sharc::prelude::*;
//!
//! let src = r#"
//!     void worker(int * d) { *d = *d + 1; }
//!     void main() {
//!         int * p;
//!         p = new(int);
//!         spawn(worker, p);
//!         spawn(worker, p);
//!         join_all();
//!     }
//! "#;
//!
//! // The pipeline: parse -> infer sharing modes -> check -> instrument.
//! let checked = sharc::check("racy.c", src)?;
//! assert!(!checked.diags.has_errors());
//!
//! // The thread argument was inferred `dynamic`, so its accesses are
//! // checked at runtime — and the two unsynchronized writers race:
//! let outcome = sharc::run(&checked, RunConfig::default())?;
//! assert!(!outcome.reports.is_empty());
//! println!("{}", outcome.reports[0]);
//! // read/write conflict(0x...):
//! //   who(2) *d @ racy.c: 2
//! //   last(3) *d @ racy.c: 2
//! # Ok::<(), minic::Diagnostic>(())
//! ```

pub use minic;
pub use sharc_checker as checker;
pub use sharc_core as core;
pub use sharc_detectors as detectors;
pub use sharc_interp as interp;
pub use sharc_runtime as runtime;
pub use sharc_workloads as workloads;

pub use sharc_core::CheckedProgram;
pub use sharc_interp::{ConflictReport, RunOutcome};

use std::sync::Arc;

/// VM configuration re-exported as the run configuration.
pub type RunConfig = sharc_interp::VmConfig;

/// Runs the full SharC front-end: parse, elaborate, infer sharing
/// modes, check, and build the instrumentation table.
///
/// # Errors
///
/// Returns the first syntax/layout diagnostic. Sharing-mode errors do
/// not abort: inspect [`CheckedProgram::diags`] (they come with the
/// tool's sharing-cast suggestions).
pub fn check(name: &str, src: &str) -> Result<CheckedProgram, minic::Diagnostic> {
    sharc_core::compile(name, src)
}

/// The VM runs no program that still has hard errors: its first one.
fn refuse_hard_errors(checked: &CheckedProgram) -> Result<(), minic::Diagnostic> {
    checked
        .diags
        .first_error()
        .map_or(Ok(()), |first| Err(first.clone()))
}

/// Executes a checked program on the VM with SharC's runtime checks.
///
/// # Errors
///
/// Returns a diagnostic if the program contains constructs the VM
/// cannot execute (e.g. struct-by-value parameters) or if `checked`
/// still has hard errors.
pub fn run(checked: &CheckedProgram, config: RunConfig) -> Result<RunOutcome, minic::Diagnostic> {
    refuse_hard_errors(checked)?;
    let module = sharc_interp::compile::compile(checked)?;
    Ok(sharc_interp::run(&module, &checked.source_map, config))
}

/// Executes a checked program with the collapses ignored: every check
/// the checker attached runs, including the reads the elision pass
/// collapsed into their write. This is the reference build the elision
/// differential compares [`run`] against.
///
/// # Errors
///
/// Same failure modes as [`run`].
pub fn run_full_checks(
    checked: &CheckedProgram,
    config: RunConfig,
) -> Result<RunOutcome, minic::Diagnostic> {
    refuse_hard_errors(checked)?;
    let module = sharc_interp::compile_full_checks(checked)?;
    Ok(sharc_interp::run(&module, &checked.source_map, config))
}

/// Renders the elision pass's verdict for `checked`, one line per
/// collapsed read check with its source location
/// (`sharc run --explain-elision`).
pub fn explain_elision(checked: &CheckedProgram) -> Vec<String> {
    sharc_core::elide::explain(&checked.instr, &checked.source_map)
}

/// One-call convenience: [`check`] then [`run`].
///
/// # Errors
///
/// Propagates errors from both phases, including sharing-mode errors.
pub fn check_and_run(
    name: &str,
    src: &str,
    config: RunConfig,
) -> Result<RunOutcome, minic::Diagnostic> {
    let checked = check(name, src)?;
    run(&checked, config)
}

/// Which engine judges a run's checked accesses (`sharc run
/// --detector …`). All three see *the same seeded execution*; that
/// cross-validation-on-one-trace is the workspace's §6.2 methodology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectorKind {
    /// SharC's own engine (the default): the [`checker::BitmapBackend`]
    /// the VM calls for every dynamic check while it runs.
    #[default]
    Sharc,
    /// Eraser's lockset algorithm over the run's events.
    Eraser,
    /// Vector-clock happens-before over the run's events.
    Vc,
}

impl std::str::FromStr for DetectorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sharc" => Ok(DetectorKind::Sharc),
            "eraser" => Ok(DetectorKind::Eraser),
            "vc" => Ok(DetectorKind::Vc),
            other => Err(format!(
                "unknown detector `{other}` (expected sharc, eraser, or vc)"
            )),
        }
    }
}

/// What to do with a kind's engine once [`DetectorKind::with_engine`]
/// has built it: `take` is compiled once per engine type, so every
/// call it makes on the engine is a direct one.
trait EngineUser {
    type Out;
    fn take<B: checker::CheckBackend + Send + 'static>(
        self,
        name: &'static str,
        engine: B,
    ) -> Self::Out;
}

impl DetectorKind {
    /// Builds this kind's engine and hands it, with the name reports
    /// print for it, to `user` — the one place a kind becomes an
    /// engine. SharC's shadow widens itself to the widest tid it meets.
    fn with_engine<U: EngineUser>(self, user: U) -> U::Out {
        match self {
            // SharC's own engine has always been reported as plain `sharc`.
            DetectorKind::Sharc => user.take("sharc", checker::BitmapBackend::new()),
            DetectorKind::Eraser => {
                let engine = detectors::Eraser::new();
                user.take(checker::CheckBackend::name(&engine), engine)
            }
            DetectorKind::Vc => {
                let engine = detectors::VcDetector::new();
                user.take(checker::CheckBackend::name(&engine), engine)
            }
        }
    }

    /// The engine behind this kind, boxed, with the name reports print
    /// for it: what a live run's [`checker::StreamingSink`] judges
    /// through. The offline folds, [`judge_trace`] and
    /// [`judge_trace_file`], take the same engine from the same private
    /// mapping unboxed, so a kind names one engine either way.
    pub fn backend(self) -> (&'static str, Box<dyn checker::CheckBackend + Send>) {
        struct Boxed;
        impl EngineUser for Boxed {
            type Out = (&'static str, Box<dyn checker::CheckBackend + Send>);
            fn take<B: checker::CheckBackend + Send + 'static>(
                self,
                name: &'static str,
                engine: B,
            ) -> Self::Out {
                (name, Box::new(engine))
            }
        }
        self.with_engine(Boxed)
    }
}

/// A run judged by a selected detector.
#[derive(Debug)]
pub struct DetectorRun {
    /// The VM execution itself (SharC's own reports live here).
    pub outcome: RunOutcome,
    /// The engine's name, for output headers.
    pub detector: &'static str,
    /// Deduplicated conflicts from the selected engine. For
    /// [`DetectorKind::Sharc`] this mirrors `outcome.reports` (one
    /// entry per report); for the baselines it is what the engine
    /// found while the run was streamed into it.
    pub conflicts: Vec<checker::Conflict>,
}

/// Runs `checked` once and judges the execution with `kind`: SharC's
/// own checks run inside the VM; a baseline is fed the *same*
/// execution's [`checker::CheckEvent`]s while it runs, through a
/// [`checker::StreamingSink`] that takes the place of `config.sink`.
///
/// # Errors
///
/// Propagates the same diagnostics as [`run`].
pub fn run_with_detector(
    checked: &CheckedProgram,
    config: RunConfig,
    kind: DetectorKind,
) -> Result<DetectorRun, minic::Diagnostic> {
    if kind == DetectorKind::Sharc {
        let granule = config.granule;
        let outcome = run(checked, config)?;
        let conflicts = outcome
            .reports
            .iter()
            .map(|r| checker::Conflict {
                kind: r.kind,
                tid: r.who.tid,
                granule: (r.addr.0 / granule) as usize,
            })
            .collect();
        return Ok(DetectorRun {
            outcome,
            detector: "sharc",
            conflicts,
        });
    }
    let (outcome, detector, conflicts, _) = judge_live(kind, DEFAULT_RING_CAP, |sink| {
        let sink = Some(sink);
        run(checked, RunConfig { sink, ..config })
    });
    Ok(DetectorRun {
        outcome: outcome?,
        detector,
        conflicts,
    })
}

/// Judges a live run while it runs: `run` records into a
/// [`checker::StreamingSink`] that cuts a batch every `ring_cap`
/// events and feeds it to `kind`'s engine. When `run` returns, the
/// sink is finished and its conflicts de-duplicated.
fn judge_live<R>(
    kind: DetectorKind,
    ring_cap: usize,
    run: impl FnOnce(Arc<dyn checker::EventSink>) -> R,
) -> (
    R,
    &'static str,
    Vec<checker::Conflict>,
    checker::StreamStats,
) {
    let (detector, backend) = kind.backend();
    let sink = Arc::new(checker::StreamingSink::new(1, ring_cap, backend));
    let out = run(sink.clone());
    let (raw, stats) = sink.finish();
    (out, detector, dedup_conflicts(raw), stats)
}

fn dedup_conflicts(raw: Vec<checker::Conflict>) -> Vec<checker::Conflict> {
    let mut seen = std::collections::HashSet::new();
    raw.into_iter().filter(|c| seen.insert(*c)).collect()
}

/// A *native* (real-thread) workload that records its
/// [`checker::CheckEvent`]s — the native end of the event spine.
/// `sharc native <workload> --detector …` judges one real
/// multithreaded execution with the selected engine while it runs,
/// exactly as `sharc run --detector` does for VM executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeWorkload {
    /// The parallel file scanner (Table 1 row 1): read-shared
    /// dynamic-mode buffers, clean under every detector.
    Pfscan,
    /// The §2.1 producer/consumer ownership transfer: clean under
    /// SharC (the cast is its evidence), false-positived by Eraser.
    Handoff,
    /// The parallel block compressor (Table 1 row 3): per-block
    /// `oneref` casts reader → worker → writer. Clean under SharC,
    /// false-positived by Eraser (the blocks are compressed with no
    /// lock held — that is what the private annotation buys).
    Pbzip2,
    /// The download accelerator (Table 1 row 2): workers store whole
    /// chunks into a shared dynamic-mode buffer with ONE ranged write
    /// each, then exit before main's ranged verification sweep. Clean
    /// under SharC (non-overlapping lifetimes), false-positived by
    /// Eraser (no lock ever protects the buffer).
    Aget,
    /// The DNS-prefetch pipeline (Table 1 row 4): workers publish
    /// cache cells with no lock and exit; main renders afterwards.
    /// Clean under SharC and happens-before, false-positived by
    /// Eraser.
    Dillo,
    /// The FFT batch (Table 1 row 5): per-transform descriptor
    /// granules sharing-cast main → worker and written back. Clean
    /// under SharC, false-positived by Eraser.
    Fftw,
    /// The TLS tunnel (Table 1 row 6) at fleet width: 100+ real
    /// worker threads on the sharded wide-tid geometry, handshake
    /// buffers sharing-cast acceptor → worker through the session
    /// lock, ranged per-message sweeps, and `locked(l)` counters.
    /// Clean under SharC and happens-before, false-positived by
    /// Eraser on every hand-off.
    Stunnel,
}

impl std::str::FromStr for NativeWorkload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "pfscan" => Ok(NativeWorkload::Pfscan),
            "handoff" => Ok(NativeWorkload::Handoff),
            "pbzip2" => Ok(NativeWorkload::Pbzip2),
            "aget" => Ok(NativeWorkload::Aget),
            "dillo" => Ok(NativeWorkload::Dillo),
            "fftw" => Ok(NativeWorkload::Fftw),
            "stunnel" => Ok(NativeWorkload::Stunnel),
            other => Err(format!(
                "unknown native workload `{other}` (expected pfscan, handoff, pbzip2, \
                 aget, dillo, fftw or stunnel)"
            )),
        }
    }
}

/// Runs `workload` once with real threads at its quick-scale
/// parameters, recording every [`checker::CheckEvent`] into `sink`:
/// the [`checker::EventLog`] behind [`native_trace`], or the
/// [`checker::StreamingSink`] behind [`run_native_streaming`].
pub fn run_native_events(
    workload: NativeWorkload,
    sink: Arc<dyn checker::EventSink>,
) -> workloads::table::NativeRun {
    use workloads::benchmarks as b;
    use workloads::table::Scale;
    let quick = Scale::quick();
    match workload {
        NativeWorkload::Pfscan => {
            b::pfscan::run_with_events(&b::pfscan::Params::scaled(quick), sink)
        }
        NativeWorkload::Handoff => {
            b::handoff::run_with_events(&b::handoff::Params::default(), sink)
        }
        NativeWorkload::Pbzip2 => {
            b::pbzip2::run_with_events(&b::pbzip2::Params::scaled(quick), sink)
        }
        NativeWorkload::Aget => b::aget::run_with_events(&b::aget::Params::scaled(quick), sink),
        NativeWorkload::Dillo => {
            let params = b::dillo::Params {
                latency: std::time::Duration::ZERO,
                ..b::dillo::Params::scaled(quick)
            };
            b::dillo::run_with_events(&params, sink)
        }
        NativeWorkload::Fftw => b::fftw::run_with_events(&b::fftw::Params::scaled(quick), sink),
        NativeWorkload::Stunnel => {
            b::stunnel::run_with_events(&b::stunnel::Params::scaled(quick), sink)
        }
    }
}

/// Runs `workload` once with real threads and returns its run record
/// plus the recorded [`checker::CheckEvent`] trace — what
/// `--trace-out` writes for an offline `sharc replay`.
pub fn native_trace(
    workload: NativeWorkload,
) -> (workloads::table::NativeRun, Vec<checker::CheckEvent>) {
    checker::EventLog::capture(|sink| run_native_events(workload, sink))
}

/// Judges a [`checker::CheckEvent`] trace with the selected engine,
/// returning the engine's name and its deduplicated conflicts. The
/// trace may have been recorded seconds ago by [`native_trace`] or
/// read back from a `--trace-out` file in a different process — the
/// verdict is a function of the trace alone, and equals the one the
/// same events get while they stream ([`run_native_streaming`]).
///
/// The fold runs on the kind's engine itself, not through a
/// `dyn` [`checker::CheckBackend`], so each event's check is a direct
/// call; the verdict is the boxed engine's ([`DetectorKind::backend`]).
pub fn judge_trace(
    trace: &[checker::CheckEvent],
    kind: DetectorKind,
) -> (&'static str, Vec<checker::Conflict>) {
    struct Fold<'a>(&'a [checker::CheckEvent]);
    impl EngineUser for Fold<'_> {
        type Out = (&'static str, Vec<checker::Conflict>);
        fn take<B: checker::CheckBackend + Send + 'static>(
            self,
            name: &'static str,
            mut engine: B,
        ) -> Self::Out {
            (name, dedup_conflicts(checker::replay(self.0, &mut engine)))
        }
    }
    kind.with_engine(Fold(trace))
}

/// Kept for `benchmark/`: [`judge_trace`], whatever `jobs` says.
#[doc(hidden)]
pub fn judge_trace_jobs(
    trace: &[checker::CheckEvent],
    kind: DetectorKind,
    _jobs: usize,
) -> (&'static str, Vec<checker::Conflict>) {
    judge_trace(trace, kind)
}

/// Writes a trace file: the binary v4 format of [`checker::btrace`]
/// when the path ends in `.sbt`, the offline text format of
/// [`checker::trace`] otherwise.
pub fn write_trace_file(
    path: &std::path::Path,
    events: &[checker::CheckEvent],
) -> std::io::Result<()> {
    if path.extension().is_some_and(|e| e == "sbt") {
        std::fs::write(path, checker::to_binary(events))
    } else {
        std::fs::write(path, checker::trace::to_text(events))
    }
}

/// Reads a trace written by [`write_trace_file`] (or by hand — the
/// text format is line-oriented). The format is sniffed from the
/// file's first bytes, not its name: the binary v4 magic decodes
/// through [`checker::btrace::events`], anything else parses as v3
/// text.
pub fn read_trace_file(path: &std::path::Path) -> Result<Vec<checker::CheckEvent>, String> {
    with_trace(path, |_, events| match events {
        Decoder::Binary(events) => {
            let capacity = events.capacity();
            checker::trace::collect(events, capacity)
        }
        Decoder::Text(events) => checker::trace::collect(events, 0),
    })
}

/// Judges the trace file at `path` as it decodes it, never holding the
/// decoded trace: [`judge_trace`] of what [`read_trace_file`] returns,
/// and an `Err` for whatever that refuses, never a verdict on a prefix.
/// Returns the number of events, the engine's name and its conflicts.
pub fn judge_trace_file(
    path: &std::path::Path,
    kind: DetectorKind,
) -> Result<(usize, &'static str, Vec<checker::Conflict>), String> {
    struct Fold<'a>(Decoder<'a>);
    impl EngineUser for Fold<'_> {
        type Out = Result<(usize, &'static str, Vec<checker::Conflict>), String>;
        fn take<B: checker::CheckBackend + Send + 'static>(
            self,
            name: &'static str,
            mut engine: B,
        ) -> Self::Out {
            let (mut events, mut conflicts) = (0, Vec::new());
            for e in self.0 {
                checker::apply_event(e?, &mut engine, &mut conflicts);
                events += 1;
            }
            Ok((events, name, dedup_conflicts(conflicts)))
        }
    }
    with_trace(path, |_, events| kind.with_engine(Fold(events)))
}

/// What `sharc trace info` prints: the format and a content summary
/// of one trace file, computed without judging it.
#[derive(Debug)]
pub struct TraceInfo {
    /// `"text"` or `"binary"`.
    pub format: &'static str,
    /// Format version: 3 for text, 4 for binary, the only versions
    /// the decoders accept.
    pub version: u32,
    /// File size in bytes.
    pub bytes: u64,
    /// Decoded event count.
    pub events: usize,
    /// Widest tid the trace names (0 if it names none).
    pub max_tid: u32,
    /// One past the highest granule any event touches (0 if none).
    pub granule_span: usize,
    /// `(keyword, count)` for every event kind that occurs, in
    /// vocabulary order.
    pub counts: Vec<(&'static str, usize)>,
}

/// Summarizes the trace file at `path` in one pass as it decodes it,
/// refusing what [`read_trace_file`] refuses.
pub fn trace_file_info(path: &std::path::Path) -> Result<TraceInfo, String> {
    with_trace(path, |bytes, events| {
        let (format, version) = match events {
            Decoder::Binary(_) => ("binary", u32::from(checker::btrace::BTRACE_VERSION)),
            Decoder::Text(_) => ("text", 3),
        };
        let (mut count, mut max_tid, mut granule_span) = (0, 0, 0);
        let mut tally = [0; checker::trace::KEYWORDS.len()];
        for e in events {
            let e = e?;
            let one = std::slice::from_ref(&e);
            count += 1;
            max_tid = max_tid.max(checker::max_trace_tid(one));
            granule_span = granule_span.max(checker::trace_granule_span(one));
            tally[checker::trace::keyword_index(&e)] += 1;
        }
        Ok(TraceInfo {
            format,
            version,
            bytes,
            events: count,
            max_tid,
            granule_span,
            counts: (checker::trace::KEYWORDS.into_iter().zip(tally))
                .filter(|&(_, n)| n > 0)
                .collect(),
        })
    })
}

/// A trace file's lazy decoder, of the format its bytes are in.
enum Decoder<'a> {
    Binary(checker::btrace::EventIter<'a>),
    Text(checker::trace::TextEvents<'a>),
}

impl Iterator for Decoder<'_> {
    type Item = Result<checker::CheckEvent, String>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Decoder::Binary(events) => events.next(),
            Decoder::Text(events) => events.next(),
        }
    }
}

/// Reads the trace file at `path`, sniffs its format and hands `f` its
/// size in bytes and its decoder: the binary v4 magic decodes through
/// [`checker::btrace::events`], anything else as v3 text.
fn with_trace<R>(
    path: &std::path::Path,
    f: impl FnOnce(u64, Decoder<'_>) -> Result<R, String>,
) -> Result<R, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let events = if checker::is_binary_trace(&bytes) {
        Decoder::Binary(checker::btrace::events(&bytes)?)
    } else {
        let text = std::str::from_utf8(&bytes)
            .map_err(|_| format!("{}: neither a binary trace nor UTF-8 text", path.display()))?;
        Decoder::Text(checker::trace::events(text))
    };
    f(bytes.len() as u64, events)
}

/// The default batch size of every streamed run (`--ring-cap`): the
/// [`checker::StreamingSink`] buffers this many events before one is
/// cut and folded, so at most twice this many are ever resident.
/// Large enough that one cut's lock hand-off is spread over thousands
/// of events.
pub const DEFAULT_RING_CAP: usize = 4096;

/// A native execution judged while it ran: the workload recorded into
/// a [`checker::StreamingSink`], so the verdict was produced
/// concurrently with the run inside a fixed memory budget — no full
/// trace ever existed.
#[derive(Debug)]
pub struct StreamingRun {
    /// The workload's run record (checksum, access counters, sizes).
    pub run: workloads::table::NativeRun,
    /// The engine's name, for output headers.
    pub detector: &'static str,
    /// Deduplicated conflicts from the incremental fold.
    pub conflicts: Vec<checker::Conflict>,
    /// Stream counters: events recorded and drained, batches folded,
    /// peak resident events, and the configured budget.
    pub stats: checker::StreamStats,
}

/// Runs `workload` once with real threads, feeding the selected
/// engine *during* the run through a [`checker::StreamingSink`] that
/// cuts a batch every `ring_cap` events. The verdict matches
/// [`judge_trace`] on a [`native_trace`] of the same execution order
/// event for event (both folds run [`checker::apply_event`] over the
/// same linearization); what changes is memory — peak resident events
/// stay under `2 × ring_cap` regardless of run length.
pub fn run_native_streaming(
    workload: NativeWorkload,
    kind: DetectorKind,
    ring_cap: usize,
) -> StreamingRun {
    let (run, detector, conflicts, stats) =
        judge_live(kind, ring_cap, |sink| run_native_events(workload, sink));
    StreamingRun {
        run,
        detector,
        conflicts,
        stats,
    }
}

/// The most common imports for users of the crate.
pub mod prelude {
    pub use crate::{
        check, check_and_run, explain_elision, judge_trace, judge_trace_file, native_trace,
        read_trace_file, run, run_full_checks, run_native_events, run_native_streaming,
        run_with_detector, trace_file_info, write_trace_file, CheckedProgram, DetectorKind,
        DetectorRun, NativeWorkload, RunConfig, RunOutcome, StreamingRun, TraceInfo,
        DEFAULT_RING_CAP,
    };
    pub use minic::{Diagnostic, Severity};
    pub use sharc_interp::{ConflictKind, ExitStatus, SchedPolicy};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_check_and_run() {
        let out = check_and_run(
            "t.c",
            "void main() { print(41 + 1); }",
            RunConfig::default(),
        )
        .unwrap();
        assert_eq!(out.output, vec!["42"]);
    }

    /// One native run, judged while it runs at the default ring size.
    fn streamed(workload: NativeWorkload, kind: DetectorKind) -> StreamingRun {
        run_native_streaming(workload, kind, DEFAULT_RING_CAP)
    }

    #[test]
    fn native_handoff_splits_sharc_from_eraser() {
        // The acceptance criterion for the event spine: one *native*
        // execution, judged through the same CheckBackend interface,
        // with SharC silent and Eraser false-positiving on the
        // ownership transfer.
        let sharc = streamed(NativeWorkload::Handoff, DetectorKind::Sharc);
        assert!(sharc.conflicts.is_empty(), "{:?}", sharc.conflicts);
        assert!(sharc.stats.recorded > 0);
        let eraser = streamed(NativeWorkload::Handoff, DetectorKind::Eraser);
        assert!(!eraser.conflicts.is_empty(), "Eraser cannot see the cast");
        assert_eq!(eraser.detector, "eraser-lockset");
    }

    #[test]
    fn pbzip2_trace_survives_the_file_round_trip_with_verdicts_intact() {
        // The offline spine end to end: record a native pbzip2 run,
        // write the trace to disk, read it back in (as `sharc replay`
        // would in another process), and check the §6.2 split is a
        // property of the file — SharC clean, Eraser false-positive.
        let (run, trace) = native_trace(NativeWorkload::Pbzip2);
        assert_eq!(run.conflicts, 0);
        let path =
            std::env::temp_dir().join(format!("sharc-trace-test-{}.txt", std::process::id()));
        write_trace_file(&path, &trace).expect("trace written");
        let reread = read_trace_file(&path).expect("trace parses");
        std::fs::remove_file(&path).ok();
        assert_eq!(reread, trace, "the file is the execution");
        let (name, sharc) = judge_trace(&reread, DetectorKind::Sharc);
        assert_eq!(name, "sharc");
        assert!(sharc.is_empty(), "{sharc:?}");
        let (_, eraser) = judge_trace(&reread, DetectorKind::Eraser);
        assert!(!eraser.is_empty(), "Eraser misses the per-block casts");
    }

    #[test]
    fn native_pfscan_is_clean_under_sharc() {
        let r = streamed(NativeWorkload::Pfscan, DetectorKind::Sharc);
        assert!(r.conflicts.is_empty(), "{:?}", r.conflicts);
        // The scans ride the ranged path now, so the run records far
        // *fewer* events than it checks accesses — one event per
        // buffer sweep, not per word.
        let events = r.stats.recorded;
        assert!(r.run.checked > 0 && events > 0);
        assert!(
            events < r.run.checked,
            "ranged events compress the trace ({events} events, {} checked)",
            r.run.checked
        );
    }

    #[test]
    fn native_aget_splits_sharc_from_eraser() {
        // Table 1 row 2 through the facade: the same download
        // execution is clean under SharC (the workers' lifetimes end
        // before main's verification sweep) and a false positive
        // under Eraser (the buffer is never lock-protected).
        let sharc = streamed(NativeWorkload::Aget, DetectorKind::Sharc);
        assert!(sharc.conflicts.is_empty(), "{:?}", sharc.conflicts);
        assert!(sharc.stats.recorded > 0);
        let eraser = streamed(NativeWorkload::Aget, DetectorKind::Eraser);
        assert!(!eraser.conflicts.is_empty(), "Eraser has no lifetime model");
    }

    #[test]
    fn native_stunnel_wide_fleet_splits_sharc_from_eraser() {
        // The acceptance criterion for the wide-tid spine: one
        // 100+-thread stunnel execution recorded once, judged by
        // every engine. SharC's engine widens to the widest tid it
        // meets, keeps exact identities across all shards and stays
        // clean; Eraser
        // false-positives on the handshake hand-offs.
        let (run, trace) = native_trace(NativeWorkload::Stunnel);
        assert!(run.threads > 100, "fleet width: {} threads", run.threads);
        assert_eq!(run.conflicts, 0);
        assert!(
            trace.iter().any(|e| matches!(
                e,
                checker::CheckEvent::RangeWrite { tid, .. } if *tid > 63
            )),
            "checked tids must cross the first shard boundary"
        );
        let (_, sharc) = judge_trace(&trace, DetectorKind::Sharc);
        assert!(sharc.is_empty(), "{sharc:?}");
        let (_, eraser) = judge_trace(&trace, DetectorKind::Eraser);
        assert!(!eraser.is_empty(), "Eraser misses the wide hand-offs");
        let (_, vc) = judge_trace(&trace, DetectorKind::Vc);
        assert!(vc.is_empty(), "the session lock orders every hand-off");
    }

    #[test]
    fn native_dillo_and_fftw_are_on_the_spine() {
        for w in [NativeWorkload::Dillo, NativeWorkload::Fftw] {
            let sharc = streamed(w, DetectorKind::Sharc);
            assert!(sharc.conflicts.is_empty(), "{w:?}: {:?}", sharc.conflicts);
            assert!(sharc.stats.recorded > 0);
            let eraser = streamed(w, DetectorKind::Eraser);
            assert!(
                !eraser.conflicts.is_empty(),
                "{w:?}: Eraser misses the transfer"
            );
        }
    }

    #[test]
    fn streaming_handoff_agrees_with_replay_inside_the_budget() {
        // The online path end to end: same §6.2 split as the replay
        // path (SharC clean, Eraser false-positives on the transfer),
        // produced concurrently with the run, with peak resident
        // events bounded by the ring budget.
        let sharc = run_native_streaming(NativeWorkload::Handoff, DetectorKind::Sharc, 64);
        assert!(sharc.conflicts.is_empty(), "{:?}", sharc.conflicts);
        assert!(sharc.stats.recorded > 0);
        assert_eq!(sharc.stats.drained, sharc.stats.recorded);
        assert!(
            sharc.stats.peak_resident <= sharc.stats.ring_budget,
            "peak {} over budget {}",
            sharc.stats.peak_resident,
            sharc.stats.ring_budget
        );
        let eraser = run_native_streaming(NativeWorkload::Handoff, DetectorKind::Eraser, 64);
        assert!(!eraser.conflicts.is_empty(), "Eraser cannot see the cast");
        assert_eq!(eraser.detector, "eraser-lockset");
    }

    #[test]
    fn facade_surfaces_check_errors() {
        let checked = check("t.c", "int private * dynamic g;").unwrap();
        assert!(checked.diags.has_errors());
        assert!(run(&checked, RunConfig::default()).is_err());
    }
}
