//! `--repeat`: the full set twice on one build, each pair of readings
//! held to the metric's bound. This is how the bounds in
//! `BENCHMARK.json` were derived (README, "Bounds") and how a host is
//! shown to be quiet enough to measure on.

use crate::harness::Config;
use crate::report::fmt_six;
use crate::WORKLOADS;
use sharc_testkit::json::{self, Json};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Workload-specific end-to-end metrics have no entry of their own in
/// `BENCHMARK.json` (its end-to-end list holds on every workload);
/// each borrows the bound of the universal metric of its kind.
const BORROWED_BOUNDS: [(&str, &str); 3] = [
    ("online_overhead", "check_overhead"),
    ("verdict_par_s", "verdict_s"),
    ("check_s", "verdict_s"),
];

/// End-to-end metrics that must repeat exactly.
const EXACT: [&str; 3] = ["mem_overhead", "trace_bytes_per_event", "wrong_verdicts"];

fn declared() -> Option<Json> {
    json::parse(&std::fs::read_to_string(crate::benchmark_json()).ok()?).ok()
}

fn number(j: &Json) -> Option<f64> {
    match j {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

/// `run_seconds` of `BENCHMARK.json`, if the file is there.
pub fn declared_run_seconds() -> Option<f64> {
    number(declared()?.get("run_seconds")?)
}

/// `(name, bound)` for every end-to-end metric `--repeat` compares.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let doc = declared().ok_or("cannot read BENCHMARK.json")?;
    let Some(Json::Arr(list)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let mut out: Vec<(String, f64)> = Vec::new();
    for m in list {
        match (m.get("name"), m.get("bound").and_then(number)) {
            (Some(Json::Str(name)), Some(bound)) => out.push((name.clone(), bound)),
            _ => return Err("BENCHMARK.json: an end_to_end metric lacks name or bound".into()),
        }
    }
    for (name, lender) in BORROWED_BOUNDS {
        let bound = out
            .iter()
            .find(|(n, _)| n == lender)
            .ok_or(format!("BENCHMARK.json declares no `{lender}`"))?
            .1;
        out.push((name.to_string(), bound));
    }
    out.extend(EXACT.iter().map(|name| (name.to_string(), 0.0)));
    Ok(out)
}

/// One workload's run in a child process.
#[derive(Debug)]
pub struct Child {
    pub code: u8,
    /// Every `name value unit` line of the child's record.
    pub metrics: BTreeMap<String, f64>,
}

/// Runs `workload` in a process of its own (so its `peak_rss_mb` is its
/// own), passes its record through, and waits for it to end.
///
/// # Errors
///
/// The child could not be started.
pub fn run_child(workload: &str, cfg: Config) -> std::io::Result<Child> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.traced { "1" } else { "0" }]);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.stderr(std::process::Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let metrics = stdout
        .lines()
        .filter(|l| !l.starts_with(['#', '{']))
        .filter_map(|l| {
            let mut words = l.split_whitespace();
            Some((words.next()?.to_string(), words.next()?.parse().ok()?))
        })
        .collect();
    Ok(Child {
        code: out.status.code().map_or(1, |c| c.clamp(0, 255) as u8),
        metrics,
    })
}

/// Runs the set (or the one workload named) twice and prints, per
/// end-to-end metric and workload, both readings, their relative
/// difference and the bound. Non-zero exit if a pair disagrees beyond
/// its bound, a run failed, or a verdict was wrong.
pub fn repeat(only: Option<&str>, cfg: Config) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let workloads: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|w| only.is_none_or(|o| o == *w))
        .collect();
    let mut sets: Vec<BTreeMap<&str, Child>> = Vec::new();
    for set in 1..=2 {
        println!("# --repeat: set {set} of 2");
        let mut runs = BTreeMap::new();
        for w in &workloads {
            match run_child(
                w,
                Config {
                    traced: false,
                    ..cfg
                },
            ) {
                Ok(child) => runs.insert(*w, child),
                Err(e) => {
                    eprintln!("error: {w}: {e}");
                    return ExitCode::from(1);
                }
            };
        }
        sets.push(runs);
    }

    println!(
        "\n# --repeat: seed {} | {:<15} {:<22} {:>14} {:>14} {:>9} {:>7}",
        cfg.seed, "workload", "metric", "set 1", "set 2", "rel.diff", "bound"
    );
    let mut failed = false;
    for w in &workloads {
        let (a, b) = (&sets[0][w], &sets[1][w]);
        if a.code != 0 || b.code != 0 {
            println!("{w:<17} exit codes {} and {}: not compared", a.code, b.code);
            failed = true;
            continue;
        }
        for (name, bound) in &bounds {
            let (Some(&x), Some(&y)) = (a.metrics.get(name), b.metrics.get(name)) else {
                continue; // not taken on this workload
            };
            let diff = if x == y {
                0.0
            } else {
                (x - y).abs() / x.abs().min(y.abs())
            };
            let ok = diff <= *bound && (name != "wrong_verdicts" || x == 0.0);
            failed |= !ok;
            println!(
                "{:17} {w:<15} {name:<22} {:>14} {:>14} {:>8.2}% {:>6.1}%{}",
                "",
                fmt_six(x),
                fmt_six(y),
                diff * 100.0,
                bound * 100.0,
                if ok { "" } else { "  DISAGREE" }
            );
        }
    }
    if failed {
        println!("# --repeat: FAILED — a pair disagrees beyond its bound, or a run went wrong");
        ExitCode::from(1)
    } else {
        println!("# --repeat: every pair agrees within its bound");
        ExitCode::SUCCESS
    }
}
