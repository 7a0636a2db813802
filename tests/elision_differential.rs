//! Soundness of the static check-elision pass, pinned the way this
//! repo pins every optimization: a differential against the
//! unoptimized build, plus a mutation property.
//!
//! * **Differential** — for generated programs that are race-free
//!   *by construction* (single spawn, or every access behind its
//!   lock), the default (eliding) build must be bit-identical to the
//!   fully-checked build on every seed: same clean report list, same
//!   status, same output. The comparison keys on the program shape,
//!   not on one observed execution: a racy program that happened not
//!   to race under the full build's interleaving proves nothing about
//!   the elided build's *different* interleaving.
//! * **Mutation** — making an access actually race (a second spawn on
//!   the same object, an escaping alias) must leave it checked: no
//!   raced slot is deleted, and the default build still reports the
//!   race. Elision may never hide a report the checked build would
//!   make.
//! * **Retargeted locks** — a worker that retargets its held lock path
//!   before a `locked` access (through the root's address, or by a
//!   struct copy over the lock field) gets `lock not held` reported by
//!   both builds.
//! * **Emitted slots** — on every corpus program the default build
//!   holds one check instruction per slot of the check table whose
//!   read is not collapsed, and the fully-checked build one per slot.

mod corpus;

use sharc::interp::bytecode::Insn;
use sharc::interp::Module;
use sharc_testkit::gen::{self, Gen};
use sharc_testkit::prop::Config;
use sharc_testkit::{forall, prop_assert};

/// One generated program shape: a worker hammering a heap counter,
/// optionally lock-protected, optionally escaping its argument into
/// a global, spawned once (race-free) or twice (racy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Knobs {
    /// Protect the counter with `locked(m)` + a lock-dominated region.
    locked: bool,
    /// Leak the worker's pointer into a global (kills elision).
    /// Ignored by the locked template (the leak store itself would
    /// race when two workers run).
    escape: bool,
    /// Spawn the worker twice on one object (induces the race).
    second_spawn: bool,
    /// Loop trip count.
    iters: u32,
    /// VM scheduler seed.
    seed: u64,
}

impl Knobs {
    /// Race-free by construction: lock-dominated accesses are always
    /// serialized; unlocked ones only when a single worker runs.
    fn race_free(&self) -> bool {
        self.locked || !self.second_spawn
    }
}

fn knobs_gen() -> Gen<Knobs> {
    gen::pair(
        gen::pair(gen::pair(gen::bool_any(), gen::bool_any()), gen::bool_any()),
        gen::pair(gen::u32_range(1..12), gen::u64_range(0..1 << 32)),
    )
    .map(|&(((locked, escape), second_spawn), (iters, seed))| Knobs {
        locked,
        escape,
        second_spawn,
        iters,
        seed,
    })
}

/// Renders the knobs as MiniC source. Output is printed only after
/// every join, so a race-free execution's output is deterministic
/// across builds even though their instruction streams differ.
fn program(k: &Knobs) -> String {
    let n = k.iters;
    if k.locked {
        let spawn = if k.second_spawn {
            "spawn(worker, c); spawn(worker, c); join_all();"
        } else {
            "t = spawn(worker, c); join(t);"
        };
        format!(
            "struct ctr {{ mutex m; int locked(m) v; }};\n\
             void worker(struct ctr * c) {{ int i; \
              for (i = 0; i < {n}; i = i + 1) {{ mutex_lock(&c->m); \
              c->v = c->v + 1; mutex_unlock(&c->m); }} }}\n\
             void main() {{ struct ctr * c = new(struct ctr); int t; \
              {spawn} \
              mutex_lock(&c->m); print(c->v); mutex_unlock(&c->m); }}"
        )
    } else {
        let escape = if k.escape { "leak = d;" } else { "" };
        let spawn = if k.second_spawn {
            "spawn(worker, p); spawn(worker, p); join_all();"
        } else {
            "t = spawn(worker, p); join(t);"
        };
        format!(
            "int dynamic * leak;\n\
             void worker(int * d) {{ int i; \
              for (i = 0; i < {n}; i = i + 1) *d = *d + 1; {escape} }}\n\
             void main() {{ int * p; int t; p = new(int); \
              {spawn} }}"
        )
    }
}

fn cfg() -> Config {
    Config::from_env().at_least(96)
}

/// The tentpole differential: on race-free program shapes the
/// eliding build is bit-identical to the fully-checked build —
/// status, output, and the (empty) report list — on every seed.
#[test]
fn elided_build_is_bit_identical_on_race_free_executions() {
    forall!(
        "elided_build_is_bit_identical_on_race_free_executions",
        cfg(),
        knobs_gen(),
        |k| {
            let src = program(k);
            let checked = sharc::check("gen.c", &src).expect("template parses");
            prop_assert!(
                !checked.diags.has_errors(),
                "template must check: {}",
                checked.render_diags()
            );
            let rc = sharc::RunConfig {
                seed: k.seed,
                ..sharc::RunConfig::default()
            };
            if k.race_free() {
                let full = sharc::run_full_checks(&checked, rc.clone()).expect("full build runs");
                let elided = sharc::run(&checked, rc).expect("elided build runs");
                prop_assert!(
                    full.reports.is_empty(),
                    "{k:?}: race-free template reported under full checks: {}",
                    full.reports[0]
                );
                prop_assert!(
                    elided.reports.is_empty(),
                    "{k:?}: elision invented a report: {}",
                    elided.reports[0]
                );
                prop_assert!(
                    elided.status == full.status,
                    "{k:?}: status diverged ({:?} vs {:?})",
                    elided.status,
                    full.status
                );
                prop_assert!(
                    elided.output == full.output,
                    "{k:?}: output diverged ({:?} vs {:?})",
                    elided.output,
                    full.output
                );
            } else {
                // Racy shape: the guarantee is static — nothing on
                // the raced object is elided, so the eliding build
                // keeps the machinery to report. (Exact report
                // equality is not claimed: fewer instructions means a
                // different interleaving.)
                prop_assert!(
                    checked.elision.summary.elided_slots == 0,
                    "{k:?}: raced sites must stay checked: {:?}",
                    checked.elision.summary
                );
            }
        }
    );
}

/// The mutation property, statically: every race-inducing knob kills
/// the elision the race-free variant enjoys, site for site.
#[test]
fn racing_mutations_kill_elision() {
    forall!("racing_mutations_kill_elision", cfg(), knobs_gen(), |k| {
        let clean = Knobs {
            escape: false,
            second_spawn: false,
            ..*k
        };
        let base = sharc::check("gen.c", &program(&clean)).expect("parses");
        prop_assert!(!base.diags.has_errors(), "{}", base.render_diags());
        if !clean.locked {
            // The race-free dynamic counter deletes no slot: only E5
            // folds the loop body's read into its write…
            let s = &base.elision.summary;
            prop_assert!(
                (s.elided_slots, s.collapsed_reads) == (0, 1),
                "baseline should collapse the loop body's read: {s:?}"
            );
            // …and each mutation that lets the object race (or
            // escape) keeps every slot checked.
            for mutant in [
                Knobs {
                    second_spawn: true,
                    ..clean
                },
                Knobs {
                    escape: true,
                    ..clean
                },
            ] {
                let c = sharc::check("gen.c", &program(&mutant)).expect("parses");
                prop_assert!(!c.diags.has_errors(), "{}", c.render_diags());
                prop_assert!(
                    c.elision.summary.elided_slots == 0,
                    "{mutant:?}: raced/escaped sites must stay checked: {:?}",
                    c.elision.summary
                );
            }
        }
    });
}

/// The mutation property, dynamically: the racy dynamic counter must
/// still be reported by the default (eliding) build — across seeds,
/// both builds catch it.
#[test]
fn racy_mutant_still_reports_under_elision() {
    let k = Knobs {
        locked: false,
        escape: false,
        second_spawn: true,
        iters: 24,
        seed: 0,
    };
    let checked = sharc::check("gen.c", &program(&k)).expect("parses");
    assert!(!checked.diags.has_errors(), "{}", checked.render_diags());
    assert_eq!(checked.elision.summary.elided_slots, 0);
    let mut full = 0usize;
    let mut elided = 0usize;
    for seed in 0..6u64 {
        let rc = sharc::RunConfig {
            seed,
            ..sharc::RunConfig::default()
        };
        full += sharc::run_full_checks(&checked, rc.clone())
            .unwrap()
            .reports
            .len();
        elided += sharc::run(&checked, rc).unwrap().reports.len();
    }
    assert!(full > 0, "the mutant must race under full checks");
    assert!(elided > 0, "elision hid the race the checked build reports");
}

/// Checks that the eliding build reports exactly what the
/// fully-checked build reports on `src`: a `lock not held` on every
/// seed.
fn assert_retargeted_lock_keeps_its_check(src: &str) {
    let checked = sharc::check("rebind.c", src).expect("parses");
    assert!(!checked.diags.has_errors(), "{}", checked.render_diags());
    for seed in 0..4u64 {
        let rc = sharc::RunConfig {
            seed,
            ..sharc::RunConfig::default()
        };
        let render = |out: sharc::RunOutcome| -> Vec<String> {
            out.reports.iter().map(ToString::to_string).collect()
        };
        let full = render(sharc::run_full_checks(&checked, rc.clone()).unwrap());
        let elided = render(sharc::run(&checked, rc).unwrap());
        assert!(
            full.iter().any(|r| r.starts_with("lock not held")),
            "seed {seed}: {full:?}"
        );
        assert_eq!(elided, full, "seed {seed}");
    }
}

/// `*pp = spare` rebinds the formal `w` through its address after
/// `mutex_lock(&w->m)`: the lock path's root is not stable.
#[test]
fn lock_root_rebound_through_its_address_keeps_the_check() {
    assert_retargeted_lock_keeps_its_check(
        "struct q { mutex m; int locked(m) count; };\n\
         void worker(struct q * w) {\n\
             struct q ** pp; struct q * spare;\n\
             spare = new(struct q); pp = &w;\n\
             mutex_lock(&w->m); *pp = spare; w->count = 1; mutex_unlock(&w->m);\n\
         }\n\
         void main() { struct q * w; w = new(struct q); spawn(worker, w); join_all(); }",
    );
}

/// `*w = tmp` copies a whole struct over `w`, so the `mutex *` lock
/// field `w->m` names another mutex after `mutex_lock(w->m)`.
#[test]
fn lock_field_overwritten_by_a_struct_copy_keeps_the_check() {
    assert_retargeted_lock_keeps_its_check(
        "struct q { mutex * m; int locked(m) count; };\n\
         void worker(struct q * w) {\n\
             struct q tmp;\n\
             tmp.m = new(mutex);\n\
             mutex_lock(w->m); *w = tmp; w->count = 1; mutex_unlock(w->m);\n\
         }\n\
         void main() {\n\
             struct q private * init; struct q * w;\n\
             init = new(struct q); init->m = new(mutex);\n\
             w = SCAST(struct q *, init);\n\
             spawn(worker, w); join_all();\n\
         }",
    );
}

/// The module's `ChkRead`, `ChkWrite` and `ChkLockHeld` instructions.
fn check_insns(m: &Module) -> usize {
    m.fns
        .iter()
        .flat_map(|f| &f.code)
        .filter(|i| {
            matches!(
                i,
                Insn::ChkRead { .. } | Insn::ChkWrite { .. } | Insn::ChkLockHeld { .. }
            )
        })
        .count()
}

#[test]
fn bytecode_holds_exactly_the_tables_surviving_slots() {
    for (name, src) in corpus::corpus() {
        let checked = sharc::check(&format!("{name}.c"), src).expect("corpus program parses");
        let s = checked.elision.summary;
        let default = sharc::interp::compile_module(&checked).expect("compiles");
        assert_eq!(
            check_insns(&default),
            s.checked_slots - s.collapsed_reads,
            "{name}: default build, {s:?}"
        );
        let full = sharc::interp::compile_full_checks(&checked).expect("compiles");
        assert_eq!(
            check_insns(&full),
            s.checked_slots,
            "{name}: full build, {s:?}"
        );
    }
}
