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
//! sharc trace convert <in> <out>  [--lower]
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
//! compare against exactly 1.
//!
//! `--detector` selects which engine judges the execution: SharC's
//! own runtime checks (default), or one of the §6.2 baselines
//! (Eraser locksets, vector clocks) fed the `CheckEvent`s of the very
//! same seeded run while it runs.
//!
//! `native` runs a *real-thread* workload instead of a MiniC program,
//! judged while it runs: its `CheckEvent`s flow through bounded rings
//! drained by an epoch-flip collector into the selected detector, so
//! the verdict comes inside a fixed memory budget (`--ring-cap`
//! events per ring buffer, default 4096) — `sharc native handoff
//! --detector eraser` shows the lockset false positive on an
//! ownership transfer that `--detector sharc` accepts. The report
//! also shows peak resident events and how many collector drains it
//! took. `--trace-out` instead records the whole run and saves it as
//! line-oriented text — or as the binary v4 `.sbt` format when the
//! path ends in `.sbt` — before judging it; `replay` re-judges a
//! saved trace offline (sniffing text vs binary by magic). Both give
//! the streamed verdict: it is a function of the events alone, so
//! the same execution can be interrogated by every engine long after
//! the threads are gone.
//!
//! `trace convert` rewrites a trace between the text and binary
//! formats (output format chosen by the `.sbt` extension); `--lower`
//! additionally expands range events to per-granule point events —
//! the v1 vocabulary, for feeding old readers. `trace info` prints a
//! file's version, size, per-kind event counts, widest tid, granule
//! span, and bytes/event without judging it.

use sharc::prelude::*;
use std::process::ExitCode;

/// Judged, and conflicts (or static sharing errors) were reported.
const CONFLICTS: u8 = 1;
/// The command line was wrong.
const USAGE: u8 = 2;
/// No verdict: the input could not be read, was refused, or the run
/// did not complete or lost a thread to a fatal error.
const CANNOT_JUDGE: u8 = 3;

/// Prints the one-line reason there is no verdict; exits 3.
fn cannot_judge(why: impl std::fmt::Display) -> ExitCode {
    eprintln!("sharc: {why}");
    ExitCode::from(CANNOT_JUDGE)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sharc check <file.c>\n  sharc infer <file.c>\n  \
         sharc run <file.c> [--seed N] [--trials N] [--stop-on-error] \
         [--detector sharc|eraser|vc] [--explain-elision]\n  \
         sharc native <pfscan|handoff|pbzip2|aget|dillo|fftw|stunnel> \
         [--detector sharc|eraser|vc] [--ring-cap N | --trace-out <path>]\n  \
         sharc replay <trace-file> [--detector sharc|eraser|vc]\n  \
         sharc trace convert <in> <out> [--lower]\n  \
         sharc trace info <trace-file>\n\
         run keeps at most 1008 threads live; a spawn past that kills \
         the spawning thread (--stop-on-error ends the run there)\n\
         exit codes: 0 clean, 1 conflicts reported, 2 usage, \
         3 could not judge (unreadable or refused input, incomplete run, \
         a thread killed by a fatal error)"
    );
    ExitCode::from(USAGE)
}

/// Parses a `--detector <kind>` pair at `args[i]`, advancing `i`.
fn parse_detector(args: &[String], i: &mut usize) -> Result<DetectorKind, ()> {
    match args.get(*i + 1).map(|v| v.parse()) {
        Some(Ok(d)) => {
            *i += 2;
            Ok(d)
        }
        Some(Err(e)) => {
            eprintln!("sharc: {e}");
            Err(())
        }
        None => {
            eprintln!("sharc: --detector needs a value");
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
            eprintln!("sharc: {} needs {what}", args[*i]);
            Err(())
        }
    }
}

/// `sharc native <workload> [--detector …] [--ring-cap N | --trace-out
/// <path>]`: run a real-thread workload and judge it with one engine
/// while it runs — or, when a trace file is asked for, record the
/// whole run, save it for offline replay, and judge the recording.
fn cmd_native(args: &[String]) -> ExitCode {
    let Some(workload) = args.first() else {
        return usage();
    };
    let workload: NativeWorkload = match workload.parse() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("sharc: {e}");
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
                    eprintln!("sharc: --trace-out needs a path");
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
                eprintln!("sharc: unknown flag {other}");
                return usage();
            }
        }
    }
    if ring_cap.is_some() && trace_out.is_some() {
        eprintln!("sharc: --ring-cap sizes the streamed run's rings; --trace-out records the whole run instead");
        return usage();
    }
    let print_run = |run: &sharc::workloads::table::NativeRun| {
        println!(
            "{workload:?}: {} threads, {} checked / {} total accesses, checksum {:#x}",
            run.threads, run.checked, run.total, run.checksum
        );
    };
    let Some(path) = trace_out else {
        let ring_cap = ring_cap.unwrap_or(sharc::DEFAULT_RING_CAP);
        let streamed = sharc::run_native_streaming(workload, detector, ring_cap);
        print_run(&streamed.run);
        let s = &streamed.stats;
        println!(
            "streamed: {} events recorded, {} drained over {} collector drains, \
             peak resident {} (ring budget {})",
            s.recorded, s.drained, s.drains, s.peak_resident, s.ring_budget
        );
        return report_conflicts(streamed.detector, &streamed.conflicts);
    };
    let (run, trace) = sharc::native_trace(workload);
    if let Err(e) = sharc::write_trace_file(std::path::Path::new(&path), &trace) {
        return cannot_judge(format_args!("cannot write trace to {path}: {e}"));
    }
    println!("{} trace events written to {path}", trace.len());
    print_run(&run);
    let (name, conflicts) = sharc::judge_trace(&trace, detector);
    report_conflicts(name, &conflicts)
}

/// `sharc replay <trace-file> [--detector …]`: re-judge a saved trace
/// offline, without re-running any threads. Text or binary input is
/// sniffed by magic.
fn cmd_replay(args: &[String]) -> ExitCode {
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
                eprintln!("sharc: unknown flag {other}");
                return usage();
            }
        }
    }
    let trace = match sharc::read_trace_file(std::path::Path::new(path)) {
        Ok(t) => t,
        Err(e) => return cannot_judge(e),
    };
    println!("{path}: {} trace events", trace.len());
    let (name, conflicts) = sharc::judge_trace(&trace, detector);
    report_conflicts(name, &conflicts)
}

/// `sharc trace convert <in> <out> [--lower]` and
/// `sharc trace info <trace-file>`: offline trace-file tooling.
fn cmd_trace(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("convert") => {
            let (Some(input), Some(output)) = (args.get(1), args.get(2)) else {
                eprintln!("sharc: trace convert needs <in> and <out> paths");
                return usage();
            };
            let mut lower = false;
            for flag in &args[3..] {
                match flag.as_str() {
                    "--lower" => lower = true,
                    other => {
                        eprintln!("sharc: unknown flag {other}");
                        return usage();
                    }
                }
            }
            let mut trace = match sharc::read_trace_file(std::path::Path::new(input)) {
                Ok(t) => t,
                Err(e) => return cannot_judge(e),
            };
            if lower {
                trace = sharc::checker::lower_ranges(&trace);
            }
            if let Err(e) = sharc::write_trace_file(std::path::Path::new(output), &trace) {
                return cannot_judge(format_args!("cannot write trace to {output}: {e}"));
            }
            println!("{} events converted to {output}", trace.len());
            ExitCode::SUCCESS
        }
        Some("info") => {
            let Some(path) = args.get(1) else {
                eprintln!("sharc: trace info needs a trace file");
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
            println!(
                "{path}: {} v{}, {} bytes, {} events ({per_event:.2} bytes/event)",
                info.format, info.version, info.bytes, info.events
            );
            println!(
                "  max tid {}, granule span {}",
                info.max_tid, info.granule_span
            );
            for (kw, n) in &info.counts {
                println!("  {kw:<8} {n}");
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn report_conflicts(detector: &str, conflicts: &[sharc::checker::Conflict]) -> ExitCode {
    if conflicts.is_empty() {
        println!("[{detector}] no conflicts.");
        ExitCode::SUCCESS
    } else {
        for c in conflicts {
            eprintln!("[{detector}] {c}");
        }
        ExitCode::from(CONFLICTS)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("native") {
        return cmd_native(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("replay") {
        return cmd_replay(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("trace") {
        return cmd_trace(&args[1..]);
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
            println!(
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
            );
            if checked.diags.is_empty() {
                println!("no reports.");
                ExitCode::SUCCESS
            } else {
                println!("{}", checked.render_diags());
                if checked.diags.has_errors() {
                    // The static half of the verdict: the program
                    // violates its declared sharing strategy.
                    ExitCode::from(CONFLICTS)
                } else {
                    ExitCode::SUCCESS
                }
            }
        }
        "infer" => {
            if checked.diags.has_errors() {
                eprintln!("{}", checked.render_diags());
                return ExitCode::from(CONFLICTS);
            }
            print!("{}", minic::pretty::program(&checked.program));
            ExitCode::SUCCESS
        }
        "run" => {
            if checked.diags.has_errors() {
                eprintln!("{}", checked.render_diags());
                return ExitCode::from(CONFLICTS);
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
                    "--seed" => match parse_number(&args, &mut i, 0) {
                        Ok(n) => seed = n,
                        Err(()) => return usage(),
                    },
                    // Zero trials would judge nothing and exit 0.
                    "--trials" => match parse_number(&args, &mut i, 1) {
                        Ok(n) => trials = n,
                        Err(()) => return usage(),
                    },
                    "--stop-on-error" => {
                        stop_on_error = true;
                        i += 1;
                    }
                    "--detector" => match parse_detector(&args, &mut i) {
                        Ok(d) => detector = d,
                        Err(()) => return usage(),
                    },
                    other => {
                        eprintln!("sharc: unknown flag {other}");
                        return usage();
                    }
                }
            }
            if explain {
                let el = &checked.elision.summary;
                println!(
                    "elision: {} check slots, {} reads collapsed",
                    el.checked_slots, el.collapsed_reads
                );
                for line in sharc::explain_elision(&checked) {
                    println!("{line}");
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
                let out = &run.outcome;
                for line in &out.output {
                    println!("{line}");
                }
                match detector {
                    DetectorKind::Sharc => {
                        for r in &out.reports {
                            any_reports = true;
                            eprintln!("{r}");
                        }
                    }
                    _ => {
                        for c in &run.conflicts {
                            any_reports = true;
                            eprintln!("[{}] {c}", run.detector);
                        }
                    }
                }
                for e in &out.thread_errors {
                    incomplete = true;
                    eprintln!("sharc: {e} (seed {seed})");
                }
                if out.status != ExitStatus::Completed {
                    incomplete = true;
                    eprintln!("sharc: run ended with {:?} (seed {seed})", out.status);
                }
            }
            if any_reports {
                ExitCode::from(CONFLICTS)
            } else if incomplete {
                // Silence from a run that deadlocked, hit the step
                // limit, or lost a thread to a fatal error is not a
                // clean bill.
                ExitCode::from(CANNOT_JUDGE)
            } else {
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}
