//! The `sharc` command-line tool: check and run MiniC programs with
//! SharC's sharing-strategy verification, the way the paper's tool
//! wraps a C compiler.
//!
//! ```text
//! sharc check  <file.c>           # parse, infer, type-check; print reports
//! sharc infer  <file.c>           # print the fully-inferred program (Fig. 2 style)
//! sharc run    <file.c> [--seed N] [--trials N] [--stop-on-error]
//!                       [--detector sharc|eraser|vc] [--explain-elision]
//! sharc native <pfscan|handoff|pbzip2|aget|dillo|fftw|stunnel>
//!              [--detector sharc|eraser|vc] [--ring-cap N | --trace-out <path>]
//! sharc replay <trace-file>       [--detector sharc|eraser|vc]
//! sharc trace convert <in> <out>
//! sharc trace info <trace-file>
//! ```
//!
//! The exit code says what was found — or that nothing could be:
//!
//! ```text
//! 0  judged, clean          2  usage error
//! 1  judged, conflicts      3  could not judge (unreadable or refused
//!                              input, a run that did not complete or
//!                              lost a thread to a fatal error)
//! ```
//!
//! A failure to judge is never confusable with a verdict: scripts that
//! expect a detector to report (`--detector eraser` on a hand-off)
//! compare against exactly 1. Nor is output that could not be written:
//! a failed write to stdout (a closed pipe, a full disk) ends the
//! command with one `sharc:` line on stderr and exit 3. A failed write
//! to stderr is dropped and changes no exit code.
//!
//! `--detector` selects which engine judges the execution: SharC's
//! own runtime checks (default), or one of the §6.2 baselines
//! (Eraser locksets, vector clocks) fed the `CheckEvent`s of the very
//! same seeded run while it runs.
//!
//! `native` runs a *real-thread* workload instead of a MiniC program,
//! judged while it runs: its `CheckEvent`s are buffered and folded
//! into the selected detector a batch at a time, so the verdict comes
//! inside a fixed memory budget (`--ring-cap` events per batch,
//! default 4096; at most twice that resident) — `sharc native handoff
//! --detector eraser` shows the lockset false positive on an
//! ownership transfer that `--detector sharc` accepts. The report
//! also shows peak resident events and how many batches were folded.
//! `--trace-out` instead records the whole run and saves it as
//! line-oriented text — or as the binary v4 `.sbt` format when the
//! path ends in `.sbt` — before judging it; `replay` re-judges a
//! saved trace offline (sniffing text vs binary by magic), folding
//! each event into the engine as it decodes it, so the decoded trace
//! is never held. Both give the streamed verdict: it is a function of
//! the events alone, so the same execution can be interrogated by
//! every engine long after the threads are gone.
//!
//! `trace convert` rewrites a trace between the text and binary
//! formats (output format chosen by the `.sbt` extension). `trace
//! info` prints a file's version, size, per-kind event counts, widest
//! tid, granule span, and bytes/event without judging it.

use sharc::checker::Conflict;
use sharc::prelude::*;
use std::io::{self, Write};
use std::process::ExitCode;

/// Judged, and conflicts (or static sharing errors) were reported.
const CONFLICTS: u8 = 1;
/// The command line was wrong.
const USAGE: u8 = 2;
/// No verdict: the input could not be read, was refused, or the run
/// did not complete or lost a thread to a fatal error.
const CANNOT_JUDGE: u8 = 3;

/// What a command ends with: its exit code, or the write to stdout that
/// failed, which ends it with no verdict (exit 3).
type Outcome = io::Result<ExitCode>;

/// Writes one line to stderr. A failed write is dropped: there is
/// nowhere left to report it, and the exit code stays the verdict.
macro_rules! say {
    ($($arg:tt)*) => {{
        let _ = writeln!(io::stderr(), $($arg)*);
    }};
}

/// Prints the one-line reason there is no verdict; exits 3.
fn cannot_judge(why: impl std::fmt::Display) -> Outcome {
    say!("sharc: {why}");
    Ok(ExitCode::from(CANNOT_JUDGE))
}

fn usage() -> Outcome {
    say!(
        "usage:\n  sharc check <file.c>\n  sharc infer <file.c>\n  \
         sharc run <file.c> [--seed N] [--trials N] [--stop-on-error] \
         [--detector sharc|eraser|vc] [--explain-elision]\n  \
         sharc native <pfscan|handoff|pbzip2|aget|dillo|fftw|stunnel> \
         [--detector sharc|eraser|vc] [--ring-cap N | --trace-out <path>]\n  \
         sharc replay <trace-file> [--detector sharc|eraser|vc]\n  \
         sharc trace convert <in> <out>\n  \
         sharc trace info <trace-file>\n\
         run keeps at most 1008 threads live; a spawn past that kills \
         the spawning thread (--stop-on-error ends the run there)\n\
         exit codes: 0 clean, 1 conflicts reported, 2 usage, \
         3 could not judge (unreadable or refused input, incomplete run, \
         a thread killed by a fatal error)"
    );
    Ok(ExitCode::from(USAGE))
}

/// Parses a `--detector <kind>` pair at `args[i]`, advancing `i`.
fn parse_detector(args: &[String], i: &mut usize) -> Result<DetectorKind, ()> {
    match args.get(*i + 1).map(|v| v.parse()) {
        Some(Ok(d)) => {
            *i += 2;
            Ok(d)
        }
        Some(Err(e)) => {
            say!("sharc: {e}");
            Err(())
        }
        None => {
            say!("sharc: --detector needs a value");
            Err(())
        }
    }
}

/// Parses the number after the flag at `args[i]`, advancing `i`. A
/// missing or malformed value, or one below `min`, is a usage error.
fn parse_number(args: &[String], i: &mut usize, min: u64) -> Result<u64, ()> {
    match args.get(*i + 1).and_then(|v| v.parse::<u64>().ok()) {
        Some(n) if n >= min => {
            *i += 2;
            Ok(n)
        }
        _ => {
            let what = if min == 0 {
                "an integer"
            } else {
                "a positive integer"
            };
            say!("sharc: {} needs {what}", args[*i]);
            Err(())
        }
    }
}

/// `sharc native <workload> [--detector …] [--ring-cap N | --trace-out
/// <path>]`: run a real-thread workload and judge it with one engine
/// while it runs — or, when a trace file is asked for, record the
/// whole run, save it for offline replay, and judge the recording.
fn cmd_native(args: &[String], out: &mut dyn Write) -> Outcome {
    let Some(workload) = args.first() else {
        return usage();
    };
    let workload: NativeWorkload = match workload.parse() {
        Ok(w) => w,
        Err(e) => {
            say!("sharc: {e}");
            return usage();
        }
    };
    let mut detector = DetectorKind::Sharc;
    let mut trace_out: Option<String> = None;
    let mut ring_cap = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--detector" => match parse_detector(args, &mut i) {
                Ok(d) => detector = d,
                Err(()) => return usage(),
            },
            "--trace-out" => {
                let Some(path) = args.get(i + 1) else {
                    say!("sharc: --trace-out needs a path");
                    return usage();
                };
                trace_out = Some(path.clone());
                i += 2;
            }
            "--ring-cap" => match parse_number(args, &mut i, 1) {
                Ok(n) => ring_cap = Some(n as usize),
                Err(()) => return usage(),
            },
            other => {
                say!("sharc: unknown flag {other}");
                return usage();
            }
        }
    }
    if ring_cap.is_some() && trace_out.is_some() {
        say!("sharc: --ring-cap sizes the streamed run's batches; --trace-out records the whole run instead");
        return usage();
    }
    let print_run = |out: &mut dyn Write, run: &sharc::workloads::table::NativeRun| {
        writeln!(
            out,
            "{workload:?}: {} threads, {} checked / {} total accesses, checksum {:#x}",
            run.threads, run.checked, run.total, run.checksum
        )
    };
    let Some(path) = trace_out else {
        let ring_cap = ring_cap.unwrap_or(sharc::DEFAULT_RING_CAP);
        let streamed = sharc::run_native_streaming(workload, detector, ring_cap);
        print_run(out, &streamed.run)?;
        let s = &streamed.stats;
        writeln!(
            out,
            "streamed: {} events recorded, {} drained over {} batches, \
             peak resident {} (ring budget {})",
            s.recorded, s.drained, s.drains, s.peak_resident, s.ring_budget
        )?;
        return report_conflicts(out, streamed.detector, &streamed.conflicts);
    };
    let (run, trace) = sharc::native_trace(workload);
    if let Err(e) = sharc::write_trace_file(std::path::Path::new(&path), &trace) {
        return cannot_judge(format_args!("cannot write trace to {path}: {e}"));
    }
    writeln!(out, "{} trace events written to {path}", trace.len())?;
    print_run(out, &run)?;
    let (name, conflicts) = sharc::judge_trace(&trace, detector);
    report_conflicts(out, name, &conflicts)
}

/// `sharc replay <trace-file> [--detector …]`: re-judge a saved trace
/// offline, without re-running any threads. Text or binary input is
/// sniffed by magic, and each event is judged as it is decoded.
fn cmd_replay(args: &[String], out: &mut dyn Write) -> Outcome {
    let Some(path) = args.first() else {
        return usage();
    };
    let mut detector = DetectorKind::Sharc;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--detector" => match parse_detector(args, &mut i) {
                Ok(d) => detector = d,
                Err(()) => return usage(),
            },
            other => {
                say!("sharc: unknown flag {other}");
                return usage();
            }
        }
    }
    let (events, name, conflicts) =
        match sharc::judge_trace_file(std::path::Path::new(path), detector) {
            Ok(judged) => judged,
            Err(e) => return cannot_judge(e),
        };
    writeln!(out, "{path}: {events} trace events")?;
    report_conflicts(out, name, &conflicts)
}

/// `sharc trace convert <in> <out>` and `sharc trace info
/// <trace-file>`: offline trace-file tooling.
fn cmd_trace(args: &[String], out: &mut dyn Write) -> Outcome {
    match args.first().map(String::as_str) {
        Some("convert") => {
            let (Some(input), Some(output)) = (args.get(1), args.get(2)) else {
                say!("sharc: trace convert needs <in> and <out> paths");
                return usage();
            };
            if let Some(other) = args.get(3) {
                say!("sharc: unknown flag {other}");
                return usage();
            }
            let trace = match sharc::read_trace_file(std::path::Path::new(input)) {
                Ok(t) => t,
                Err(e) => return cannot_judge(e),
            };
            if let Err(e) = sharc::write_trace_file(std::path::Path::new(output), &trace) {
                return cannot_judge(format_args!("cannot write trace to {output}: {e}"));
            }
            writeln!(out, "{} events converted to {output}", trace.len())?;
            Ok(ExitCode::SUCCESS)
        }
        Some("info") => {
            let Some(path) = args.get(1) else {
                say!("sharc: trace info needs a trace file");
                return usage();
            };
            let info = match sharc::trace_file_info(std::path::Path::new(path)) {
                Ok(i) => i,
                Err(e) => return cannot_judge(e),
            };
            let per_event = if info.events > 0 {
                info.bytes as f64 / info.events as f64
            } else {
                0.0
            };
            writeln!(
                out,
                "{path}: {} v{}, {} bytes, {} events ({per_event:.2} bytes/event)",
                info.format, info.version, info.bytes, info.events
            )?;
            writeln!(
                out,
                "  max tid {}, granule span {}",
                info.max_tid, info.granule_span
            )?;
            for (kw, n) in &info.counts {
                writeln!(out, "  {kw:<8} {n}")?;
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => usage(),
    }
}

fn report_conflicts(out: &mut dyn Write, detector: &str, conflicts: &[Conflict]) -> Outcome {
    if conflicts.is_empty() {
        writeln!(out, "[{detector}] no conflicts.")?;
        Ok(ExitCode::SUCCESS)
    } else {
        for c in conflicts {
            say!("[{detector}] {c}");
        }
        Ok(ExitCode::from(CONFLICTS))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = io::stdout().lock();
    match command(&args, &mut stdout).and_then(|code| stdout.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) => {
            say!("sharc: cannot write to stdout: {e}");
            ExitCode::from(CANNOT_JUDGE)
        }
    }
}

fn command(args: &[String], out: &mut dyn Write) -> Outcome {
    match args.first().map(String::as_str) {
        Some("native") => return cmd_native(&args[1..], out),
        Some("replay") => return cmd_replay(&args[1..], out),
        Some("trace") => return cmd_trace(&args[1..], out),
        _ => {}
    }
    let (cmd, path) = match (args.first(), args.get(1)) {
        (Some(c), Some(p)) => (c.as_str(), p.as_str()),
        _ => return usage(),
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => return cannot_judge(format_args!("cannot read {path}: {e}")),
    };
    let name = std::path::Path::new(path)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_owned());

    let checked = match sharc::check(&name, &src) {
        Ok(c) => c,
        // A file that does not parse was not checked.
        Err(e) => return cannot_judge(e.render(&minic::SourceMap::new(&name, &src))),
    };

    match cmd {
        "check" => {
            let stats = &checked.sharing.stats;
            let el = &checked.elision.summary;
            writeln!(
                out,
                "{}: {} annotations written, {} positions inferred \
                 ({} dynamic), {} dynamic + {} locked check sites, \
                 {} check slots, {} reads collapsed",
                name,
                checked.annotation_count,
                stats.n_vars,
                stats.n_dynamic,
                checked.instr.n_dynamic_sites,
                checked.instr.n_locked_sites,
                el.checked_slots,
                el.collapsed_reads
            )?;
            if checked.diags.is_empty() {
                writeln!(out, "no reports.")?;
                Ok(ExitCode::SUCCESS)
            } else {
                writeln!(out, "{}", checked.render_diags())?;
                if checked.diags.has_errors() {
                    // The static half of the verdict: the program
                    // violates its declared sharing strategy.
                    Ok(ExitCode::from(CONFLICTS))
                } else {
                    Ok(ExitCode::SUCCESS)
                }
            }
        }
        "infer" => {
            if checked.diags.has_errors() {
                say!("{}", checked.render_diags());
                return Ok(ExitCode::from(CONFLICTS));
            }
            write!(out, "{}", minic::pretty::program(&checked.program))?;
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            if checked.diags.has_errors() {
                say!("{}", checked.render_diags());
                return Ok(ExitCode::from(CONFLICTS));
            }
            let mut seed = 0x5ac5u64;
            let mut trials = 1u64;
            let mut stop_on_error = false;
            let mut explain = false;
            let mut detector = DetectorKind::Sharc;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--explain-elision" => {
                        explain = true;
                        i += 1;
                    }
                    "--seed" => match parse_number(args, &mut i, 0) {
                        Ok(n) => seed = n,
                        Err(()) => return usage(),
                    },
                    // Zero trials would judge nothing and exit 0.
                    "--trials" => match parse_number(args, &mut i, 1) {
                        Ok(n) => trials = n,
                        Err(()) => return usage(),
                    },
                    "--stop-on-error" => {
                        stop_on_error = true;
                        i += 1;
                    }
                    "--detector" => match parse_detector(args, &mut i) {
                        Ok(d) => detector = d,
                        Err(()) => return usage(),
                    },
                    other => {
                        say!("sharc: unknown flag {other}");
                        return usage();
                    }
                }
            }
            if explain {
                let el = &checked.elision.summary;
                writeln!(
                    out,
                    "elision: {} check slots, {} reads collapsed",
                    el.checked_slots, el.collapsed_reads
                )?;
                for line in sharc::explain_elision(&checked) {
                    writeln!(out, "{line}")?;
                }
            }
            let mut any_reports = false;
            let mut incomplete = false;
            for t in 0..trials {
                let seed = seed.wrapping_add(t);
                let run = match sharc::run_with_detector(
                    &checked,
                    RunConfig {
                        seed,
                        stop_on_error,
                        ..RunConfig::default()
                    },
                    detector,
                ) {
                    Ok(o) => o,
                    // The VM cannot execute this program at all.
                    Err(e) => return cannot_judge(e.render(&checked.source_map)),
                };
                let outcome = &run.outcome;
                for line in &outcome.output {
                    writeln!(out, "{line}")?;
                }
                match detector {
                    DetectorKind::Sharc => {
                        for r in &outcome.reports {
                            any_reports = true;
                            say!("{r}");
                        }
                    }
                    _ => {
                        for c in &run.conflicts {
                            any_reports = true;
                            say!("[{}] {c}", run.detector);
                        }
                    }
                }
                for e in &outcome.thread_errors {
                    incomplete = true;
                    say!("sharc: {e} (seed {seed})");
                }
                if outcome.status != ExitStatus::Completed {
                    incomplete = true;
                    say!("sharc: run ended with {:?} (seed {seed})", outcome.status);
                }
            }
            Ok(if any_reports {
                ExitCode::from(CONFLICTS)
            } else if incomplete {
                // Silence from a run that deadlocked, hit the step
                // limit, or lost a thread to a fatal error is not a
                // clean bill.
                ExitCode::from(CANNOT_JUDGE)
            } else {
                ExitCode::SUCCESS
            })
        }
        _ => usage(),
    }
}
