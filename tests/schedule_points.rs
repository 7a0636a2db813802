//! The VM's scheduler picks a thread only at schedule points.
//!
//! A schedule point is a step another thread could observe: an access
//! to memory whose inferred sharing mode is not `private`, a lock,
//! condition, spawn, join or yield operation, a `oneref` cast,
//! allocation or `free`, output, `random()`, and any step that blocks,
//! ends or kills the running thread. These tests pin what follows:
//!
//! * privacy comes from the inferred mode, never from the check table,
//!   so the checked, every-check and check-stripped ("original")
//!   builds of a program have the same schedule points and run on one
//!   schedule;
//! * a thread spinning on shared state still lets the writer run;
//! * a thread working on private state alone is consulted about
//!   nothing until its next schedule point;
//! * thread records are a slot map bounded by the live threads.

use sharc::interp::bytecode::{Insn, Module};
use sharc::prelude::*;
use sharc::workloads::benchmarks::{aget, dillo, fftw, pbzip2, pfscan, stunnel};
use sharc::CheckedProgram;

/// The six Table-1 ports, by name.
fn ports() -> [(&'static str, &'static str); 6] {
    [
        ("pfscan", pfscan::minic_source()),
        ("aget", aget::minic_source()),
        ("pbzip2", pbzip2::minic_source()),
        ("dillo", dillo::minic_source()),
        ("fftw", fftw::minic_source()),
        ("stunnel", stunnel::minic_source()),
    ]
}

/// The build Table 1 compares against: checked as usual, then every
/// runtime check removed from the table the VM compiler reads.
fn original(name: &str, src: &str) -> CheckedProgram {
    let mut checked = sharc::check(name, src).expect("port parses");
    checked.instr.checks.clear();
    checked.instr.lib_read_summaries.clear();
    checked
}

/// The checked (eliding), every-check and original builds of `src`.
fn three_builds(name: &str, src: &str) -> [(&'static str, Module, CheckedProgram); 3] {
    let checked = sharc::check(name, src).expect("port parses");
    let elided = sharc::interp::compile_module(&checked).expect("compiles");
    let full = sharc::interp::compile_full_checks(&checked).expect("compiles");
    let stripped = original(name, src);
    let bare = sharc::interp::compile_module(&stripped).expect("compiles");
    [
        ("checked", elided, checked),
        (
            "full-checks",
            full,
            sharc::check(name, src).expect("parses"),
        ),
        ("original", bare, stripped),
    ]
}

fn run_src(src: &str, seed: u64, policy: SchedPolicy) -> RunOutcome {
    let checked = sharc::check("t.c", src).expect("parses");
    assert!(!checked.diags.has_errors(), "{}", checked.render_diags());
    sharc::run(
        &checked,
        RunConfig {
            seed,
            policy,
            ..RunConfig::default()
        },
    )
    .expect("runs")
}

/// Every function's schedule-point instructions, in code order, with
/// the check-site numbers that differ between builds blanked out.
fn schedule_points(module: &Module) -> Vec<Vec<Insn>> {
    module
        .fns
        .iter()
        .map(|f| {
            f.code
                .iter()
                .filter(|i| i.is_schedule_point())
                .map(|i| match i {
                    Insn::OneRef { .. } => Insn::OneRef { site: 0 },
                    Insn::PrintStrChecked { .. } => Insn::PrintStr,
                    other => other.clone(),
                })
                .collect()
        })
        .collect()
}

#[test]
fn the_three_builds_of_every_port_have_the_same_schedule_points() {
    for (name, src) in ports() {
        let [(_, checked, _), rest @ ..] = three_builds(name, src);
        let want = schedule_points(&checked);
        assert!(
            want.iter()
                .flatten()
                .any(|i| matches!(i, Insn::Load { .. })),
            "{name}: no shared load at all"
        );
        for (build, module, _) in rest {
            assert_eq!(
                schedule_points(&module),
                want,
                "{name}: the {build} build's schedule points differ from the checked build's"
            );
        }
    }
}

#[test]
fn the_three_builds_of_every_port_run_on_one_schedule() {
    for (name, src) in ports() {
        let builds = three_builds(name, src);
        for seed in 1..=4 {
            let config = || RunConfig {
                seed,
                ..RunConfig::default()
            };
            let runs: Vec<(&str, RunOutcome)> = builds
                .iter()
                .map(|(build, module, checked)| {
                    (
                        *build,
                        sharc::interp::run(module, &checked.source_map, config()),
                    )
                })
                .collect();
            let (_, want) = &runs[0];
            assert_eq!(want.status, ExitStatus::Completed, "{name} seed {seed}");
            assert!(want.stats.picks > 1, "{name} seed {seed}: one pick");
            for (build, run) in &runs[1..] {
                assert_eq!(
                    (run.stats.picks, &run.output, &run.status),
                    (want.stats.picks, &want.output, &want.status),
                    "{name} seed {seed}: the {build} build left the checked build's schedule"
                );
            }
        }
    }
}

#[test]
fn a_worker_spinning_on_a_racy_flag_lets_main_set_it() {
    let src = "int racy flag;\n\
               void worker(int * d) { while (flag == 0) { } print(7); }\n\
               void main() { int * p; p = new(int); spawn(worker, p); \
                 flag = 1; join_all(); }";
    let policies = (0..8)
        .map(|seed| (seed, SchedPolicy::Random))
        .chain([(0, SchedPolicy::RoundRobin(1))]);
    for (seed, policy) in policies {
        let out = run_src(src, seed, policy);
        assert_eq!(out.status, ExitStatus::Completed, "{policy:?} seed {seed}");
        assert_eq!(out.output, ["7"], "{policy:?} seed {seed}");
    }
}

#[test]
fn a_private_loop_between_two_lock_operations_is_one_turn() {
    // Only the lock, the unlock and the print are schedule points: the
    // thousand private iterations between them cost no pick.
    let single = "mutex m;\n\
                  void main() { int i; int acc; acc = 0; mutex_lock(&m); \
                    for (i = 0; i < 1000; i++) { acc = acc + i; } \
                    mutex_unlock(&m); print(acc); }";
    for policy in [SchedPolicy::Random, SchedPolicy::RoundRobin(1)] {
        let out = run_src(single, 1, policy);
        assert_eq!(out.output, ["499500"]);
        assert!(out.stats.steps > 10_000, "{} steps", out.stats.steps);
        // The first pick, then one after each of the three points.
        assert_eq!(out.stats.picks, 4, "{policy:?}");
    }
    // Two workers doing the same: main's two spawns and its
    // `join_all`, each worker's lock, unlock and exit, and the first
    // pick, whatever the interleaving.
    let pair = "mutex m;\n\
                void worker(int * d) { int i; int acc; acc = 0; mutex_lock(&m); \
                  for (i = 0; i < 1000; i++) { acc = acc + i; } mutex_unlock(&m); }\n\
                void main() { spawn(worker, NULL); spawn(worker, NULL); join_all(); }";
    for seed in 0..8 {
        let out = run_src(pair, seed, SchedPolicy::Random);
        assert_eq!(out.status, ExitStatus::Completed, "seed {seed}");
        assert_eq!(out.stats.picks, 1 + 3 + 2 * 3, "seed {seed}");
    }
}

#[test]
fn thread_records_are_bounded_by_the_live_threads() {
    let fleet = std::fs::read_to_string("examples/minic/fleet.c").expect("example exists");
    let out = run_src(&fleet, 0, SchedPolicy::Random);
    assert_eq!(out.stats.threads_spawned, 100);
    assert!(
        out.stats.thread_slots <= out.stats.max_live_threads,
        "{} slots for {} live",
        out.stats.thread_slots,
        out.stats.max_live_threads
    );
    // Four hundred spawns in waves of four: the ids are recycled, so
    // the records are too.
    let waves = "void worker(int * d) { *d = *d + 1; }\n\
                 void main() { int w; int k; \
                   for (w = 0; w < 100; w++) { \
                     for (k = 0; k < 4; k++) { spawn(worker, new(int)); } \
                     join_all(); } }";
    for seed in 0..4 {
        let out = run_src(waves, seed, SchedPolicy::Random);
        assert_eq!(out.status, ExitStatus::Completed, "seed {seed}");
        assert_eq!(out.stats.threads_spawned, 400);
        let (slots, live) = (out.stats.thread_slots, out.stats.max_live_threads);
        assert!(
            slots <= live && live <= 5,
            "seed {seed}: {slots} slots, {live} live"
        );
    }
}
