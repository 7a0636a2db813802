//! The `sharc` binary's exit code is the verdict — or says there is
//! none: 0 clean, 1 conflicts, 2 usage, 3 could not judge. A failure
//! to judge (missing file, refused trace) must never be confusable
//! with "conflicts found", which is what scripts expecting a baseline's
//! false positive test for.

use sharc::checker::{to_binary, trace_to_text, CheckEvent};
use std::process::{Command, Output};

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
    assert_usage_error(&["native", "handoff", "--ring-cap", "64"]);
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
        // Terabytes of shadow in two lines: used to abort.
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
