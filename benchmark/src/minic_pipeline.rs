//! `minic-pipeline` — the `sharc check` / `sharc run` path: `minic`,
//! `core` and `interp` only.
//!
//! The corpus is the six Table-1 MiniC ports and the four example
//! programs (copies in `programs/`), each run under four fixed
//! scheduler seeds, plus one generated program of ~3.5 k lines
//! ([`crate::gen_minic`]) under the first seed. The ports and examples
//! compile in well under a millisecond — too small to time — so the
//! generated program is what loads the front end, while the ports
//! supply most of the VM's steps.
//!
//! `check_overhead` here is Table 1's column on the VM: the six ports'
//! runs under the first seed, over the same runs of the same programs
//! with every check stripped from the instrumentation table (the
//! "original" build; the VM has no switch for it, so the benchmark
//! clears `CheckedProgram::instr` itself).

use crate::expected::{self, Expected};
use crate::gen_minic::{self, Shape};
use crate::harness::{Ctx, Samples};
use crate::report::Report;
use crate::stats;
use minic::env::StructTable;
use minic::span::SourceMap;
use sharc::{CheckedProgram, RunConfig};
use sharc_interp::{RunOutcome, VmStats};
use sharc_workloads::benchmarks as ports;
use std::time::Instant;

/// Scheduler seeds every port and example runs under. Fixed: they are
/// part of the answer keys, not of the seeded input.
pub const SCHED_SEEDS: [u64; 4] = [1, 2, 3, 4];

/// The generated program at full scale: 200 units.
pub const UNITS: usize = 200;
const ITERS: i64 = 20;

macro_rules! fixture {
    ($file:literal) => {
        include_str!(concat!("../programs/", $file))
    };
}

struct Program {
    name: &'static str,
    source: String,
    /// One key per scheduler seed the program runs under.
    keys: Vec<Expected>,
    /// Ports only: the checked program with its checks stripped.
    original: Option<CheckedProgram>,
}

struct Input {
    corpus: Vec<Program>,
    bytes: usize,
    lines: usize,
}

fn make(ctx: &mut Ctx) -> Input {
    let fixtures: [(&'static str, &str, &str, bool); 10] = [
        (
            "pfscan.c",
            ports::pfscan::minic_source(),
            fixture!("port-pfscan.expected"),
            true,
        ),
        (
            "aget.c",
            ports::aget::minic_source(),
            fixture!("port-aget.expected"),
            true,
        ),
        (
            "pbzip2.c",
            ports::pbzip2::minic_source(),
            fixture!("port-pbzip2.expected"),
            true,
        ),
        (
            "dillo.c",
            ports::dillo::minic_source(),
            fixture!("port-dillo.expected"),
            true,
        ),
        (
            "fftw.c",
            ports::fftw::minic_source(),
            fixture!("port-fftw.expected"),
            true,
        ),
        (
            "stunnel.c",
            ports::stunnel::minic_source(),
            fixture!("port-stunnel.expected"),
            true,
        ),
        (
            "counter_locked.c",
            fixture!("counter_locked.c"),
            fixture!("counter_locked.expected"),
            false,
        ),
        (
            "counter_racy.c",
            fixture!("counter_racy.c"),
            fixture!("counter_racy.expected"),
            false,
        ),
        (
            "elision.c",
            fixture!("elision.c"),
            fixture!("elision.expected"),
            false,
        ),
        (
            "handoff.c",
            fixture!("handoff.c"),
            fixture!("handoff.expected"),
            false,
        ),
    ];
    let mut corpus: Vec<Program> = fixtures
        .into_iter()
        .map(|(name, source, key_text, is_port)| Program {
            name,
            source: source.to_string(),
            keys: expected::parse(key_text, &SCHED_SEEDS)
                .unwrap_or_else(|e| panic!("programs/{name}'s key: {e}")),
            original: is_port.then(|| original_build(name, source)),
        })
        .collect();
    let generated = gen_minic::generate(
        ctx.cfg.seed,
        Shape {
            units: ctx.scaled(UNITS).max(8),
            iters: ITERS,
        },
    );
    corpus.push(Program {
        name: "generated.c",
        source: generated.source,
        keys: vec![Expected::clean(generated.expected_output)],
        original: None,
    });
    Input {
        bytes: corpus.iter().map(|p| p.source.len()).sum(),
        lines: corpus.iter().map(|p| p.source.lines().count()).sum(),
        corpus,
    }
}

/// The program as the original, unchecked build: checked as usual,
/// then every runtime check removed from the table the VM compiler
/// reads.
fn original_build(name: &str, source: &str) -> CheckedProgram {
    let mut checked = sharc::check(name, source).expect("a Table-1 port parses");
    checked.instr.checks.clear();
    checked.instr.lib_read_summaries.clear();
    checked
}

fn config(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        ..RunConfig::default()
    }
}

/// Counters summed over one lap's checked runs and front-end passes.
#[derive(Debug, Default)]
struct LapCounts {
    vm: VmStats,
    fns: usize,
    analysis_vars: u64,
    check_sites: usize,
    checked_slots: usize,
    elided_slots: usize,
    collapsed_reads: usize,
}

impl LapCounts {
    fn add_program(&mut self, checked: &CheckedProgram) {
        self.fns += checked.program.fns.len();
        self.analysis_vars += u64::from(checked.sharing.stats.n_vars);
        self.check_sites += checked.instr.n_dynamic_sites + checked.instr.n_locked_sites;
        self.checked_slots += checked.elision.summary.checked_slots;
        self.elided_slots += checked.elision.summary.elided_slots;
        self.collapsed_reads += checked.elision.summary.collapsed_reads;
    }

    fn add_run(&mut self, s: &VmStats) {
        self.vm.steps += s.steps;
        self.vm.total_accesses += s.total_accesses;
        self.vm.dynamic_accesses += s.dynamic_accesses;
        self.vm.cache_hits += s.cache_hits;
        self.vm.range_hits += s.range_hits;
        self.vm.checks_elided += s.checks_elided;
        self.vm.threads_spawned += s.threads_spawned;
    }
}

fn hold_run(ctx: &mut Ctx, program: &Program, seed: u64, key: &Expected, outcome: &RunOutcome) {
    let held = key.holds(outcome);
    ctx.verdict(held.is_ok(), || {
        format!(
            "{} under scheduler seed {seed}: {}",
            program.name,
            held.unwrap_err()
        )
    });
}

/// The untraced lap, through the facade the CLI calls: `sharc::check`
/// on every program, `sharc::run` under every seed; then the ports'
/// original builds under the first seed.
fn facade_round(ctx: &mut Ctx, input: &Input, samples: &mut Samples, counts: &mut LapCounts) {
    *counts = LapCounts::default();
    let lap = Instant::now();
    let (mut check_s, mut ports_checked_s) = (0.0, 0.0);
    for program in &input.corpus {
        let Some((checked, secs)) = ctx.timed("sharc.check", || {
            sharc::check(program.name, &program.source)
        }) else {
            continue;
        };
        check_s += secs;
        let Ok(checked) = checked else {
            ctx.verdict(false, || {
                format!("{} refused by the front end", program.name)
            });
            continue;
        };
        counts.add_program(&checked);
        for (i, (seed, key)) in SCHED_SEEDS.iter().zip(&program.keys).enumerate() {
            let Some((outcome, secs)) =
                ctx.timed("sharc.run", || sharc::run(&checked, config(*seed)))
            else {
                continue;
            };
            let Ok(outcome) = outcome else {
                ctx.verdict(false, || format!("{} refused by the VM", program.name));
                continue;
            };
            hold_run(ctx, program, *seed, key, &outcome);
            counts.add_run(&outcome.stats);
            if i == 0 && program.original.is_some() {
                ports_checked_s += secs;
            }
        }
    }
    ctx.push_verdict(samples, lap.elapsed().as_secs_f64());
    samples.push("check", check_s);
    samples.push("ports.checked", ports_checked_s);

    let mut ports_original_s = 0.0;
    for program in &input.corpus {
        let Some(original) = &program.original else {
            continue;
        };
        let Some((outcome, secs)) = ctx.timed("sharc.run.original", || {
            sharc::run(original, config(SCHED_SEEDS[0]))
        }) else {
            continue;
        };
        ports_original_s += secs;
        // No checks, so no reports; the output of a port that prints
        // what random() fed it may differ, the deterministic ones not.
        let clean = outcome.is_ok_and(|o| o.is_clean());
        ctx.verdict(clean, || {
            format!("{} (original build) did not run clean", program.name)
        });
    }
    samples.push("ports.original", ports_original_s);
}

/// The traced lap: the same corpus, with the phase sequence of
/// `sharc_core::compile` and of `sharc::run` called one by one, each
/// under a span named after its layer.
fn traced_round(ctx: &mut Ctx, input: &Input, samples: &mut Samples, counts: &mut LapCounts) {
    *counts = LapCounts::default();
    let lap = ctx.spans.enter("lap");
    let t = Instant::now();
    for program in &input.corpus {
        let Some(checked) = compile_by_phase(ctx, program) else {
            ctx.verdict(false, || {
                format!("{} refused by the front end", program.name)
            });
            continue;
        };
        counts.add_program(&checked);
        if checked.diags.has_errors() {
            ctx.verdict(false, || format!("{} has check errors", program.name));
            continue;
        }
        for (seed, key) in SCHED_SEEDS.iter().zip(&program.keys) {
            let Some((Ok(module), _)) =
                ctx.timed("interp.compile", || sharc_interp::compile_module(&checked))
            else {
                ctx.verdict(false, || {
                    format!("{} refused by the VM compiler", program.name)
                });
                continue;
            };
            let Some((outcome, _)) = ctx.timed("interp.run", || {
                sharc_interp::run(&module, &checked.source_map, config(*seed))
            }) else {
                continue;
            };
            hold_run(ctx, program, *seed, key, &outcome);
            counts.add_run(&outcome.stats);
        }
    }
    let secs = t.elapsed().as_secs_f64();
    ctx.spans.exit(lap);
    ctx.push_verdict(samples, secs);
}

/// `sharc_core::compile`, phase by phase.
fn compile_by_phase(ctx: &mut Ctx, p: &Program) -> Option<CheckedProgram> {
    use sharc_core::{analysis, check, elaborate, elide};
    let source_map = SourceMap::new(p.name, &p.source);
    let mut program = ctx
        .timed("minic.parse", || minic::parse(&p.source))?
        .0
        .ok()?;
    minic::env::canonicalize_struct_names(&mut program);
    let annotation_count = sharc_core::count_annotations(&program);
    let (elab, _) = ctx.timed("core.elaborate", || elaborate::elaborate(&mut program))?;
    let structs = StructTable::build(&program).ok()?;
    let mut diags = minic::diag::Diagnostics::new();
    diags.extend(elab.diags);
    let (sharing, _) = ctx.timed("core.analysis", || {
        analysis::analyze(&mut program, &structs, elab.n_vars)
    })?;
    for d in sharing.diags.iter() {
        diags.push(d.clone());
    }
    let structs = StructTable::build(&program).ok()?;
    let (check::CheckResult { diags: cd, instr }, _) =
        ctx.timed("core.check", || check::check(&program, &structs, &sharing))?;
    diags.extend(cd);
    let (elision, _) = ctx.timed("core.elide", || elide::elide(&program, &instr))?;
    Some(CheckedProgram {
        program,
        structs,
        instr,
        elision,
        sharing,
        diags,
        source_map,
        annotation_count,
    })
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut counts = LapCounts::default();
    let mut round = |ctx: &mut Ctx, input: &Input, samples: &mut Samples| {
        if ctx.spans.recording() {
            traced_round(ctx, input, samples, &mut counts);
        } else {
            facade_round(ctx, input, samples, &mut counts);
        }
    };
    let (input, setups) = ctx.setup(make, &mut round);
    let (samples, laps) = ctx.measure(&input, &mut round);

    let mut report = Report::default();
    let verdict = samples.median("verdict");
    report.put("work_per_s", counts.vm.steps as f64 / verdict);
    report.note(
        "work_per_s",
        format!(
            "VM steps per second of verdict lap, {} steps per lap over {} programs, {} lines",
            counts.vm.steps,
            input.corpus.len(),
            input.lines
        ),
    );
    let (checked, original) = (
        samples.median("ports.checked"),
        samples.median("ports.original"),
    );
    report.put("check_overhead", checked / original);
    report.note(
        "check_overhead",
        format!(
            "the six ports under scheduler seed {}: checked {checked:.6} s over original \
             {original:.6} s (Table 1's column, on the VM)",
            SCHED_SEEDS[0]
        ),
    );
    report.put("check_s", samples.median("check"));
    if ctx.cfg.traced {
        layer_metrics(ctx, &input, &counts, &mut report);
    }
    ctx.common_metrics(&mut report, &samples, laps, &setups);
    report
}

fn layer_metrics(ctx: &Ctx, input: &Input, counts: &LapCounts, report: &mut Report) {
    let span = |name: &str| stats::median(&ctx.spans.per_lap(name));
    let parse_s = span("minic.parse");
    report.put("minic.parse_s", parse_s);
    report.put("minic.parse_mb_per_s", input.bytes as f64 / 1e6 / parse_s);
    report.put("minic.lines", input.lines as f64);
    report.put("minic.fns", counts.fns as f64);
    for phase in ["elaborate", "analysis", "check", "elide"] {
        report.put(&format!("core.{phase}_s"), span(&format!("core.{phase}")));
    }
    report.put("core.analysis_vars", counts.analysis_vars as f64);
    report.put("core.check_sites", counts.check_sites as f64);
    report.put("core.elide_checked_slots", counts.checked_slots as f64);
    report.put("core.elide_elided_slots", counts.elided_slots as f64);
    report.put("core.elide_collapsed_reads", counts.collapsed_reads as f64);
    let run_s = span("interp.run");
    report.put("interp.compile_s", span("interp.compile"));
    report.put("interp.run_s", run_s);
    report.put("interp.steps", counts.vm.steps as f64);
    report.put("interp.steps_per_s", counts.vm.steps as f64 / run_s);
    report.put("interp.dynamic_accesses", counts.vm.dynamic_accesses as f64);
    report.put("interp.total_accesses", counts.vm.total_accesses as f64);
    report.put(
        "interp.cache_hit_ratio",
        counts.vm.cache_hits as f64 / counts.vm.dynamic_accesses as f64,
    );
    report.put("interp.range_hits", counts.vm.range_hits as f64);
    report.put("interp.checks_elided", counts.vm.checks_elided as f64);
    report.put("interp.threads_spawned", counts.vm.threads_spawned as f64);
    report.put(
        "bench.phase_sum_ratio",
        stats::median(&ctx.spans.child_share("lap")),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Config;

    fn smoke_ctx() -> Ctx {
        Ctx::new(Config {
            seed: 5,
            seconds: 0.0,
            traced: false,
            smoke: true,
        })
    }

    #[test]
    fn the_corpus_meets_its_keys_along_both_paths() {
        let mut ctx = smoke_ctx();
        let input = make(&mut ctx);
        let (mut samples, mut counts) = (Samples::default(), LapCounts::default());
        facade_round(&mut ctx, &input, &mut samples, &mut counts);
        let facade_steps = counts.vm.steps;
        ctx.spans.set_recording(true, 0);
        traced_round(&mut ctx, &input, &mut samples, &mut counts);
        assert_eq!(ctx.wrong_verdicts, 0);
        assert!(ctx.verdicts_checked > 80, "{}", ctx.verdicts_checked);
        assert_eq!(
            counts.vm.steps, facade_steps,
            "both paths run the same work"
        );
    }

    #[test]
    fn flipping_one_key_entry_is_one_wrong_verdict() {
        let mut ctx = smoke_ctx();
        let mut input = make(&mut ctx);
        let locked = input
            .corpus
            .iter_mut()
            .find(|p| p.name == "counter_locked.c")
            .expect("in the corpus");
        locked.keys[2].output = Some(vec!["201".to_string()]);
        let (mut samples, mut counts) = (Samples::default(), LapCounts::default());
        facade_round(&mut ctx, &input, &mut samples, &mut counts);
        assert_eq!(ctx.wrong_verdicts, 1);
    }
}
