//! `sharc-benchmark` — see `benchmark/README.md`. Started by
//! `benchmark/run.sh`, which builds it first.

use sharc_benchmark::harness::{Config, Ctx};
use sharc_benchmark::host::{self, HostStamp};
use sharc_benchmark::report::{Reading, Report, END_TO_END, PER_LAYER};
use sharc_benchmark::{compare, out_dir, Workload, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] \
                     [--trace 0|1 | --traced] [--smoke] [--repeat]
  --workload W   one of scan-read, handoff-write, tunnel-online, trace-replay,
                 minic-pipeline; without it, each runs in a process of its own
  --seed N       seeds every generator (default 1)
  --seconds S    measuring time per workload (default: run_seconds of BENCHMARK.json)
  --traced       the per-layer run: spans on, per-layer metrics out (same as --trace 1)
  --smoke        1/20-scale inputs, 3 laps
  --repeat       run the full set twice and hold each pair to its bound";

/// Exit code of a workload that this host cannot measure.
const UNMEASURED: u8 = 3;

struct Args {
    workload: Option<&'static Workload>,
    cfg: Config,
    repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        cfg: Config {
            seed: 1,
            seconds: compare::declared_run_seconds().unwrap_or(20.0),
            traced: false,
            smoke: false,
        },
        repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let found = WORKLOADS.iter().find(|w| w.name == name);
                args.workload = Some(found.ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                args.cfg.seed = sharc_testkit::rng::parse_seed(&value("a number")?)
                    .ok_or("--seed needs a decimal or 0x-hex number")?;
            }
            "--seconds" => {
                args.cfg.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                args.cfg.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            "--traced" => args.cfg.traced = true,
            "--smoke" => args.cfg.smoke = true,
            "--repeat" => args.repeat = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("error: {why}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.workload, args.repeat) {
        (only, true) => compare::repeat(only.map(|w| w.name), args.cfg),
        (Some(workload), false) => run_one(workload, args.cfg),
        (None, false) => {
            // Each workload in a process of its own, so `peak_rss_mb`
            // is the workload's and nothing else's.
            let mut worst = 0;
            for workload in &WORKLOADS {
                match compare::run_child(workload.name, args.cfg) {
                    Ok(child) => worst = worst.max(child.code),
                    Err(e) => {
                        eprintln!("error: {}: {e}", workload.name);
                        worst = worst.max(1);
                    }
                }
            }
            ExitCode::from(worst)
        }
    }
}

fn run_one(workload: &Workload, cfg: Config) -> ExitCode {
    let mut ctx = Ctx::new(cfg);
    let (rustc, commit) = host::toolchain();
    let mut stamp = HostStamp {
        workload: workload.name,
        seed: cfg.seed,
        traced: cfg.traced,
        smoke: cfg.smoke,
        nproc: ctx.nproc,
        rustc,
        commit,
        laps: 0,
    };
    let defs = if cfg.traced { PER_LAYER } else { END_TO_END };

    if ctx.nproc < 2 && workload.needs_two_cpus {
        // Two threads time-sliced on one CPU measure the scheduler,
        // not the checker: say so, print no number, claim no pass.
        let mut report = Report::default();
        for d in END_TO_END {
            report.unmeasured(
                d.name,
                "nproc < 2: the lap needs two threads running at once",
            );
        }
        print!("{}", report.render(&stamp));
        return ExitCode::from(UNMEASURED);
    }

    let report = (workload.run)(&mut ctx);
    stamp.laps = report.value("laps").unwrap_or(0.0) as usize;
    print!("{}", report.render(&stamp));
    if cfg.traced {
        let path = out_dir().join(format!("spans-{}.json", workload.name));
        let written = std::fs::create_dir_all(out_dir()).and_then(|()| ctx.spans.write_json(&path));
        match written {
            Ok(()) => println!("# {} spans written to {}", ctx.spans.len(), path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    if defs
        .iter()
        .any(|d| matches!(report.get(d.name), Some(Reading::Unmeasured(_))))
    {
        println!("# some metrics are unmeasured on this host; they read 0 in the result line");
    }
    println!(
        "{}",
        report.json_line(defs, ctx.verdicts_checked, ctx.wrong_verdicts)
    );
    ExitCode::SUCCESS
}
