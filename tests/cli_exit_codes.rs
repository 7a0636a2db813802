//! The `sharc` binary's exit code is the verdict — or says there is
//! none: 0 clean, 1 conflicts, 2 usage, 3 could not judge. A failure
//! to judge (missing file, refused trace) must never be confusable
//! with "conflicts found", which is what scripts expecting a baseline's
//! false positive test for.

use sharc::checker::{to_binary, trace_to_text, CheckEvent};
use sharc::minic::parser::MAX_NESTING;
use std::process::{Command, Output};

const MAX: usize = MAX_NESTING as usize;

fn sharc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sharc"))
        .args(args)
        .output()
        .expect("the sharc binary runs")
}

#[track_caller]
fn assert_exit(args: &[&str], code: i32) -> Output {
    let out = sharc(args);
    assert_eq!(
        out.status.code(),
        Some(code),
        "sharc {args:?}\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Exit 3, and nothing on stderr but one `sharc: …` line — no panic
/// message, no backtrace, no abort.
#[track_caller]
fn assert_cannot_judge(args: &[&str]) {
    let out = assert_exit(args, 3);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("sharc: ") && stderr.trim_end().lines().count() == 1,
        "sharc {args:?} should explain itself in one line, got:\n{stderr}"
    );
}

#[test]
fn verdicts_are_zero_and_one() {
    assert_exit(
        &["run", "examples/minic/counter_locked.c", "--seed", "0"],
        0,
    );
    assert_exit(&["run", "examples/minic/handoff.c", "--seed", "0"], 0);
    // Eraser's false positive on the hand-off is a verdict: exactly 1.
    let eraser = ["--seed", "0", "--detector", "eraser"];
    assert_exit(
        &[&["run", "examples/minic/handoff.c"], &eraser[..]].concat(),
        1,
    );
    assert_exit(&["check", "examples/minic/handoff.c"], 0);
    // 100 live threads, one planted race past tid 63.
    assert_exit(&["run", "examples/minic/fleet.c"], 1);
}

/// Elision may never hide a report: the racy counter, run under the
/// default (eliding) build, ends in a verdict on every seed and is
/// caught on at least one.
#[test]
fn a_racy_program_is_caught_under_elision() {
    let codes: Vec<_> = (0..4)
        .map(|seed| {
            let seed = seed.to_string();
            let args = ["run", "examples/minic/counter_racy.c", "--seed", &seed];
            let code = sharc(&args).status.code();
            assert!(
                matches!(code, Some(0 | 1)),
                "sharc {args:?} exited {code:?}"
            );
            code
        })
        .collect();
    assert!(codes.contains(&Some(1)), "exit 0 on every seed: {codes:?}");
}

/// `--explain-elision` names the one elision reason: the exemplar's
/// private loop collapses its read into its write, while its
/// lock-dominated region keeps every lock check.
#[test]
fn explain_elision_names_both_reasons() {
    let out = assert_exit(&["run", "examples/minic/elision.c", "--explain-elision"], 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("elision: 6 check slots, 1 reads collapsed")
            && stdout.contains("[read-of-write]"),
        "no read-of-write explanation in:\n{stdout}"
    );
}

/// A thread that dies of a fatal error leaves no verdict: the run is
/// not judged clean, and stderr names the error.
#[test]
fn a_thread_killed_by_a_fatal_error_cannot_be_judged() {
    let dir = scratch_dir("fatal");
    let path = dir.join("assert.c");
    std::fs::write(&path, "void main() { assert(1 == 2); }").expect("write the program");
    let out = assert_exit(&["run", path.to_str().expect("utf-8 temp path")], 3);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("thread 1: assertion failed"),
        "stderr: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `main` holds the gate's lock while it spawns 1008 waiters; the last
/// spawn is one thread past the VM's limit, so `main` dies holding the
/// lock. Without `--stop-on-error` the run ends in a deadlock, and the
/// error that caused it is named.
#[test]
fn the_thread_limit_is_named_without_stop_on_error() {
    let dir = scratch_dir("thread-limit");
    let path = dir.join("gate.c");
    let program = "struct g { mutex m; int locked(m) n; };
void waiter(struct g * p) {
    mutex_lock(&p->m); p->n = p->n + 1; mutex_unlock(&p->m);
}
void main() {
    struct g * p = new(struct g);
    int i;
    mutex_lock(&p->m);
    for (i = 0; i < 1008; i++) spawn(waiter, p);
    mutex_unlock(&p->m);
    join_all();
}
";
    std::fs::write(&path, program).expect("write the program");
    let out = assert_exit(&["run", path.to_str().expect("utf-8 temp path")], 3);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("thread 1: thread limit (1008) exceeded"),
        "stderr: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_are_two() {
    assert_exit(&[], 2);
    assert_exit(&["replay"], 2);
    assert_exit(&["replay", "x.trace", "--detector", "helgrind"], 2);
    assert_exit(&["run", "examples/minic/handoff.c", "--bogus"], 2);
    assert_exit(&["native", "doom"], 2);
    // Parallel replay is gone; its flag is unknown.
    assert_exit(&["replay", "x.trace", "--jobs", "2"], 2);
    // Each input used to be accepted and ignored. Zero trials judged
    // nothing and exited 0 on a racy program.
    let racy = "examples/minic/counter_racy.c";
    for flags in [
        &["--trials", "0"][..],
        &["--trials"],
        &["--trials", "many"],
        &["--seed"],
        &["--seed", "abc"],
    ] {
        assert_usage_error(&[&["run", racy][..], flags].concat());
    }
    // A live run is always judged while it runs: the flag that chose
    // that is gone, and a recorded run has no batches to size.
    assert_usage_error(&["native", "handoff", "--online"]);
    assert_usage_error(&[
        "native",
        "handoff",
        "--ring-cap",
        "64",
        "--trace-out",
        "x.trace",
    ]);
}

/// Exit 2, and exactly one `sharc: …` line before the usage text.
#[track_caller]
fn assert_usage_error(args: &[&str]) {
    let out = assert_exit(args, 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("sharc: ") && stderr.matches("sharc: ").count() == 1,
        "sharc {args:?} should explain itself in one line, got:\n{stderr}"
    );
}

#[test]
fn a_failure_to_judge_is_three_in_both_trace_formats() {
    use CheckEvent::{RangeWrite, Read, Write};
    let dir = std::env::temp_dir().join(format!("sharc-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let missing = dir.join("no-such-file");
    let missing = missing.to_str().expect("utf-8 temp path");
    for cmd in [
        &["replay", missing][..],
        &["replay", missing, "--detector", "eraser"],
        &["trace", "info", missing],
        &["trace", "convert", missing, missing],
        &["run", missing],
        &["check", missing],
    ] {
        assert_cannot_judge(cmd);
    }

    let hostile: [Vec<CheckEvent>; 4] = [
        // Tid 0: used to panic in the bitmap engine.
        vec![Read { tid: 0, granule: 5 }],
        // A range that wraps: used to print "no conflicts".
        vec![RangeWrite {
            tid: 1,
            granule: 5,
            len: usize::MAX,
        }],
        // Terabytes of shadow in two lines: used to abort. The thread
        // bound refuses its first tid.
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
        vec![Write {
            tid: 1,
            granule: 4_000_000_000_000,
        }],
    ];
    for (i, events) in hostile.iter().enumerate() {
        let text = dir.join(format!("hostile-{i}.trace"));
        let sbt = dir.join(format!("hostile-{i}.sbt"));
        std::fs::write(&text, trace_to_text(events)).expect("scratch file");
        std::fs::write(&sbt, to_binary(events)).expect("scratch file");
        for path in [&text, &sbt] {
            let path = path.to_str().expect("utf-8 temp path");
            for detector in ["sharc", "eraser", "vc"] {
                assert_cannot_judge(&["replay", path, "--detector", detector]);
            }
            assert_cannot_judge(&["trace", "info", path]);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_syntax_error_is_three() {
    let dir = std::env::temp_dir().join(format!("sharc-cli-syntax-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // A declaration where a `for` step must be a single assignment.
    let src = dir.join("for_step.c");
    std::fs::write(
        &src,
        "void main() { int i; for (i = 0; i < 3; int j = 1) { } }\n",
    )
    .expect("scratch file");
    let src = src.to_str().expect("utf-8 temp path");
    assert_cannot_judge(&["check", src]);
    assert_cannot_judge(&["run", src]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Nesting past `MAX_NESTING` is refused with one `sharc:` line that
/// names the limit (exit 3), never a stack overflow; a program exactly
/// at the limit checks and runs. `program(n)` nests `n` deep,
/// `at_limit` is the deepest `n` allowed, and `hostile` is far past it.
#[track_caller]
fn assert_nesting_limit(
    name: &str,
    program: impl Fn(usize) -> String,
    at_limit: usize,
    hostile: usize,
    prints: &str,
) {
    let dir = scratch_dir(name);
    let path = dir.join("nested.c");
    let path_str = path.to_str().expect("utf-8 temp path");
    std::fs::write(&path, program(at_limit)).expect("scratch file");
    let out = assert_exit(&["run", path_str], 0);
    assert_eq!(String::from_utf8_lossy(&out.stdout), prints);
    let limit = format!("nesting deeper than {MAX_NESTING} levels");
    for n in [at_limit + 1, hostile] {
        std::fs::write(&path, program(n)).expect("scratch file");
        let out = assert_exit(&["check", path_str], 3);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("sharc: ")
                && stderr.trim_end().lines().count() == 1
                && stderr.contains(&limit),
            "depth {n}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Parentheses are parser recursion only: `main`'s statement and the
/// right-hand side take two levels, each parenthesis one more.
#[test]
fn nested_parentheses_past_the_limit_are_refused() {
    let program = |n: usize| {
        format!(
            "int g; void main() {{ g = {}1{}; print(g); }}\n",
            "(".repeat(n),
            ")".repeat(n)
        )
    };
    assert_nesting_limit("parens", program, MAX - 2, 10_000, "1\n");
}

/// Each block is a statement node and a level of recursion; the
/// innermost assignment and its right-hand side take two more.
#[test]
fn nested_blocks_past_the_limit_are_refused() {
    let program = |n: usize| {
        format!(
            "int g; void main() {{ {}g = 1;{} print(g); }}\n",
            "{".repeat(n),
            "}".repeat(n)
        )
    };
    assert_nesting_limit("blocks", program, MAX - 2, 100_000, "1\n");
}

/// A flat sum is parsed by a loop but builds a left-deep tree: `n`
/// terms are `n - 1` additions over a leaf, under the assignment.
#[test]
fn a_flat_sum_past_the_limit_is_refused() {
    let program = |n: usize| {
        format!(
            "int g; void main() {{ g = {}; print(g); }}\n",
            vec!["1"; n].join("+")
        )
    };
    assert_nesting_limit("sum", program, MAX - 1, 100_000, &format!("{}\n", MAX - 1));
}

/// A type is a tree too, built by a loop over the stars: a local of
/// type `int` behind `n` pointers is `n + 1` levels under its
/// declaration.
#[test]
fn a_pointer_type_past_the_limit_is_refused() {
    let program = |n: usize| {
        format!(
            "void main() {{ int {} p; p = NULL; print(1); }}\n",
            "*".repeat(n)
        )
    };
    assert_nesting_limit("stars", program, MAX - 2, 100_000, "1\n");
}

/// The front end types every function twice (the analysis over the
/// unsolved program, the checker over the solved one); a typing error
/// is still one line of `sharc check`'s output, and a static error
/// exits 1.
#[test]
fn a_typing_error_is_reported_once() {
    let dir = scratch_dir("typing");
    for (file, src, message) in [
        (
            "unknown.c",
            "void main() { int x; x = y + 1; }\n",
            "error: unknown variable `y`",
        ),
        (
            "arity.c",
            "void worker(int * d) { }\nvoid main() { spawn(worker); }\n",
            "error: `spawn` expects 2 argument(s), got 1",
        ),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, src).expect("scratch file");
        let out = assert_exit(&["check", path.to_str().expect("utf-8 temp path")], 1);
        let text = String::from_utf8_lossy(&out.stdout).into_owned()
            + &String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            lines_starting(&text, &["error: "]),
            1,
            "{file}: one error line expected, got:\n{text}"
        );
        assert_eq!(lines_starting(&text, &[message]), 1, "{file}:\n{text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A text trace without a header line is read as v3, the only text
/// version the decoder accepts, and `trace info` says so: `rwrite` is
/// v3 vocabulary.
#[test]
fn trace_info_reports_a_headerless_text_trace_as_v3() {
    let dir = scratch_dir("headerless");
    let path = dir.join("probe.trace");
    std::fs::write(&path, "rwrite 1 0 4\nwrite 2 9\n").expect("probe trace");
    let path = path.to_str().expect("utf-8 temp path");
    let info = assert_exit(&["trace", "info", path], 0);
    let info = String::from_utf8_lossy(&info.stdout);
    assert!(info.contains(": text v3, "), "not a text v3 trace:\n{info}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A fresh scratch directory for one test's trace files.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sharc-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn lines_starting(text: &str, prefixes: &[&str]) -> usize {
    text.lines()
        .filter(|l| prefixes.iter().any(|p| l.starts_with(p)))
        .count()
}

/// `native pbzip2 --trace-out` records a v3 text trace with one ranged
/// `rcast` per block hand-off: a per-granule `cast` line would mean the
/// O(granules) expansion came back. The trace replays to the recorded
/// verdicts: SharC clean, Eraser's false positive exactly 1.
#[test]
fn a_recorded_pbzip2_trace_is_ranged_v3() {
    let dir = scratch_dir("pbzip2");
    let trace = dir.join("pbzip2.trace");
    let trace = trace.to_str().expect("utf-8 temp path");
    assert_exit(&["native", "pbzip2", "--trace-out", trace], 0);
    let text = std::fs::read_to_string(trace).expect("recorded trace");
    assert_eq!(text.lines().next(), Some("# sharc-trace v3"));
    assert!(lines_starting(&text, &["rcast "]) > 0, "no ranged casts");
    assert_eq!(lines_starting(&text, &["cast "]), 0, "per-granule casts");
    assert_exit(&["replay", trace, "--detector", "sharc"], 0);
    assert_exit(&["replay", trace, "--detector", "eraser"], 1);
    // `trace convert` rewrites formats only; it has no lowering flag.
    assert_usage_error(&["trace", "convert", trace, "lowered.trace", "--lower"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Output that cannot be written is no verdict: with stdout on a full
/// device, `replay`, `trace info` and `run` each end with one `sharc:`
/// line on stderr and exit 3 — not a panic, whatever the verdict would
/// have been.
#[test]
fn a_failed_write_to_stdout_cannot_be_judged() {
    let dir = scratch_dir("dev-full");
    let trace = dir.join("t.sbt");
    std::fs::write(
        &trace,
        to_binary(&[CheckEvent::Write { tid: 1, granule: 0 }]),
    )
    .expect("scratch file");
    let trace = trace.to_str().expect("utf-8 temp path");
    for args in [
        &["replay", trace][..],
        &["trace", "info", trace],
        &["run", "examples/minic/counter_locked.c"],
    ] {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("open /dev/full");
        let out = Command::new(env!("CARGO_BIN_EXE_sharc"))
            .args(args)
            .stdout(full)
            .output()
            .expect("the sharc binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "sharc {args:?}: {stderr}");
        assert!(
            stderr.starts_with("sharc: cannot write to stdout")
                && stderr.trim_end().lines().count() == 1,
            "sharc {args:?} should explain itself in one line, got:\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A failed write to stderr changes no exit code: with stderr on a
/// full device, a racy trace still replays to 1, a clean one to 0, and
/// a syntax error still checks to 3 — not 101 from a panicking print.
#[test]
fn a_failed_write_to_stderr_keeps_the_verdict() {
    let dir = scratch_dir("stderr-full");
    let racy = dir.join("racy.trace");
    let clean = dir.join("clean.trace");
    let bad = dir.join("bad.c");
    std::fs::write(&racy, "write 1 0\nwrite 2 0\n").expect("scratch file");
    std::fs::write(&clean, "write 1 0\n").expect("scratch file");
    std::fs::write(&bad, "void main() { int x; x = ; }\n").expect("scratch file");
    let path = |p: &std::path::Path| p.to_str().expect("utf-8 temp path").to_owned();
    for (args, code) in [
        (["replay".to_owned(), path(&racy)], 1),
        (["replay".to_owned(), path(&clean)], 0),
        (["check".to_owned(), path(&bad)], 3),
    ] {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("open /dev/full");
        let out = Command::new(env!("CARGO_BIN_EXE_sharc"))
            .args(&args)
            .stderr(full)
            .output()
            .expect("the sharc binary runs");
        assert_eq!(
            out.status.code(),
            Some(code),
            "sharc {args:?}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `replay` judges a trace as it decodes it, but a verdict is given
/// only for a whole file: a conflict in the first blocks and a corrupt
/// last one is exit 3, not 1, in both formats. Without the corrupt
/// end, the conflict is the verdict.
#[test]
fn a_conflict_before_a_corrupt_end_is_no_verdict() {
    use CheckEvent::{Read, Write};
    let dir = scratch_dir("corrupt-end");
    let events = [
        Write { tid: 1, granule: 0 },
        Read { tid: 2, granule: 0 },
        Read { tid: 3, granule: 9 },
    ];
    // A missing operand on the last line; an opcode that is none in
    // the last block, just before the footer.
    let text = trace_to_text(&events) + "read 3\n";
    let mut sbt = to_binary(&events);
    let footer = u64::from_le_bytes(sbt[sbt.len() - 12..][..8].try_into().unwrap()) as usize;
    sbt[footer - 2] = 0x7e;
    for (name, corrupt, whole) in [
        (
            "t.trace",
            text.into_bytes(),
            trace_to_text(&events).into_bytes(),
        ),
        ("t.sbt", sbt, to_binary(&events)),
    ] {
        let path = dir.join(name);
        let path = path.to_str().expect("utf-8 temp path");
        std::fs::write(path, corrupt).expect("scratch file");
        assert_cannot_judge(&["replay", path]);
        std::fs::write(path, whole).expect("scratch file");
        assert_exit(&["replay", path], 1);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The thread bound is the trace bound: tids `1..=1008` are judged,
/// and tid 1009 is refused on its line, in both formats.
#[test]
fn a_trace_of_tids_up_to_1008_is_judged_and_1009_is_refused() {
    let dir = scratch_dir("tid-bound");
    let mut events: Vec<_> = (1..=1008)
        .map(|tid| CheckEvent::Read { tid, granule: 0 })
        .collect();
    for (name, code) in [("t", 0), ("past", 3)] {
        for (ext, bytes) in [
            ("trace", trace_to_text(&events).into_bytes()),
            ("sbt", to_binary(&events)),
        ] {
            let path = dir.join(format!("{name}.{ext}"));
            std::fs::write(&path, bytes).expect("scratch file");
            let out = assert_exit(&["replay", path.to_str().expect("utf-8 temp path")], code);
            if code == 3 {
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert!(
                    stderr.contains("thread id 1009 is outside 1..=1008"),
                    "{stderr}"
                );
            }
        }
        events.push(CheckEvent::Read {
            tid: 1009,
            granule: 0,
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One native stunnel fleet (128 worker threads, tids past the second
/// shard boundary) recorded straight into the binary v4 container,
/// summarized without judging, then re-judged offline from the file
/// and from its text conversion: SharC clean (exit 0), Eraser's false
/// positive on the session hand-offs exactly 1 — verdicts are
/// format-independent. The `.sbt` encoding is deterministic: the
/// binary trace converted to text and back is byte-identical.
#[test]
fn a_recorded_sbt_survives_the_text_round_trip_byte_for_byte() {
    let dir = scratch_dir("roundtrip");
    let [sbt, text, again] = ["stunnel.sbt", "stunnel.trace", "stunnel-rt.sbt"]
        .map(|f| dir.join(f).to_str().expect("utf-8 temp path").to_owned());
    assert_exit(&["native", "stunnel", "--trace-out", &sbt], 0);
    let info = assert_exit(&["trace", "info", &sbt], 0);
    let info = String::from_utf8_lossy(&info.stdout);
    assert!(info.contains("binary v4"), "not a binary v4 trace:\n{info}");
    assert_exit(&["trace", "convert", &sbt, &text], 0);
    assert_exit(&["trace", "convert", &text, &again], 0);
    let read = |p: &str| std::fs::read(p).expect("trace file");
    assert!(read(&text).starts_with(b"# sharc-trace v3\n"));
    assert!(
        read(&sbt) == read(&again),
        ".sbt -> text -> .sbt changed bytes"
    );
    for path in [&sbt, &text] {
        assert_exit(&["replay", path, "--detector", "sharc"], 0);
        assert_exit(&["replay", path, "--detector", "eraser"], 1);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `readers` threads read a dynamic field and stay alive behind a
/// locked gate; `main` opens it, joins them all, and writes the field.
/// Every reader has exited before the write, so it races with nobody.
fn gated_readers(readers: usize) -> String {
    format!(
        "struct s {{
    mutex m;
    int locked(m) open;
    int v;
}};

void reader(struct s * p) {{
    int x;
    int go;
    x = p->v;
    go = 0;
    while (go == 0) {{
        mutex_lock(&p->m);
        go = p->open;
        mutex_unlock(&p->m);
    }}
}}

void main() {{
    struct s * p = new(struct s);
    int i;
    for (i = 0; i < {readers}; i++) {{
        spawn(reader, p);
    }}
    mutex_lock(&p->m);
    p->open = 1;
    mutex_unlock(&p->m);
    join_all();
    p->v = 8;
}}
"
    )
}

/// Reader exits are exact past 63 live threads: with 70 readers the
/// late ones (tids 64-71) sit in a second shard word, and each exit
/// takes its own bit with it, so `main`'s write after `join_all` is
/// clean — as it is with 40 readers, all in the first word.
#[test]
fn joined_readers_past_63_leave_no_phantom_conflict() {
    let dir = scratch_dir("gated-readers");
    for readers in [40, 70] {
        let path = dir.join(format!("gated{readers}.c"));
        std::fs::write(&path, gated_readers(readers)).expect("write the program");
        let out = assert_exit(&["run", path.to_str().expect("utf-8 temp path")], 0);
        assert!(
            out.stderr.is_empty(),
            "{readers} readers: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One native execution, two verdicts: SharC accepts the hand-off and
/// the segment lifetimes (exit 0); the lockset baseline must
/// false-positive on the identical recorded execution (exactly 1).
#[test]
fn native_handoff_and_aget_split_sharc_from_eraser() {
    for workload in ["handoff", "aget"] {
        assert_exit(&["native", workload, "--detector", "sharc"], 0);
        assert_exit(&["native", workload, "--detector", "eraser"], 1);
    }
}

/// Judged while it runs (the default: batches folded concurrently
/// with the workload), a native execution gets the verdicts its
/// `--trace-out` recording gets on replay — SharC clean, Eraser
/// exactly 1 — for the stunnel fleet at a small batch size and for
/// the hand-off at the default one.
#[test]
fn online_verdicts_match_the_recorded_ones() {
    let dir = scratch_dir("online");
    for (workload, cap) in [("stunnel", &["--ring-cap", "256"][..]), ("handoff", &[])] {
        let trace = dir.join(format!("{workload}.sbt"));
        let trace = trace.to_str().expect("utf-8 temp path");
        assert_exit(&["native", workload, "--trace-out", trace], 0);
        for (detector, code) in [("sharc", 0), ("eraser", 1)] {
            let streamed = [&["native", workload][..], cap, &["--detector", detector]].concat();
            assert_exit(&streamed, code);
            assert_exit(&["replay", trace, "--detector", detector], code);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
