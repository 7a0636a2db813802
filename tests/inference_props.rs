//! Property tests on the sharing analysis itself (paper §4.1):
//! inference totality, idempotence through the pretty-printer, and
//! the paper's incrementality story — "as the user adds more
//! annotations, false warnings are reduced, and performance
//! improves".
//!
//! Runs on the sharc-testkit property harness; base seed comes from
//! `SHARC_TEST_SEED`.

use minic::{Qual, Type};
use sharc_testkit::gen::{self, Gen};
use sharc_testkit::prop::Config;
use sharc_testkit::{forall, prop_assert, prop_assert_eq};

/// Checks that no qualifier variable or `Infer` survives inference
/// anywhere in the program (struct fields may keep `Poly`).
fn fully_concrete(p: &minic::Program) -> bool {
    fn ty_ok(t: &Type, allow_poly: bool) -> bool {
        let mut ok = true;
        t.for_each_level(&mut |l| match &l.qual {
            Qual::Infer | Qual::Var(_) => ok = false,
            Qual::Poly if !allow_poly => ok = false,
            _ => {}
        });
        ok
    }
    let mut ok = true;
    for sd in &p.structs {
        for f in &sd.fields {
            if !ty_ok(&f.ty, true) {
                ok = false;
            }
        }
    }
    for g in &p.globals {
        if !ty_ok(&g.ty, false) {
            ok = false;
        }
    }
    for f in &p.fns {
        if !ty_ok(&f.ret, false) {
            ok = false;
        }
        for param in &f.params {
            if !ty_ok(&param.ty, false) {
                ok = false;
            }
        }
    }
    ok
}

/// A small generator of well-formed MiniC programs assembled from
/// worker/main statement fragments.
fn program_gen() -> Gen<String> {
    let worker_stmts = gen::choose(vec![
        "*d = *d + 1;",
        "v = *d;",
        "g = g + 1;",
        "v = g;",
        "v = v * 2;",
    ]);
    let main_stmts = gen::choose(vec!["x = x + 1;", "g = 0;", "*p = 3;"]);
    gen::triple(
        gen::vec_of(worker_stmts, 1..4),
        gen::vec_of(main_stmts, 0..3),
        gen::bool_any(),
    )
    .map(|t| {
        let (ws, ms, two_threads) = t;
        let worker_body: String = ws.join("\n    ");
        let main_body: String = ms.join("\n    ");
        let second = if *two_threads {
            "spawn(worker, p);"
        } else {
            ""
        };
        format!(
            "int g;\n\
             void worker(int * d) {{\n    int v;\n    {worker_body}\n}}\n\
             void main() {{\n    int x;\n    int * p;\n    p = new(int);\n    \
             {main_body}\n    spawn(worker, p);\n    {second}\n    join_all();\n}}"
        )
    })
}

fn cfg() -> Config {
    Config::from_env().at_least(48)
}

/// Inference always terminates with every qualifier concrete, and
/// the result passes the checker (no internal inconsistencies).
#[test]
fn inference_is_total_and_self_consistent() {
    forall!(
        "inference_is_total_and_self_consistent",
        cfg(),
        program_gen(),
        |src| {
            let checked = sharc::check("gen.c", src).expect("parses");
            prop_assert!(
                fully_concrete(&checked.program),
                "{}",
                minic::pretty::program(&checked.program)
            );
            prop_assert!(!checked.diags.has_errors(), "{}", checked.render_diags());
        }
    );
}

/// Printing the inferred program and re-checking it is stable: the
/// annotations SharC infers are themselves valid annotations
/// ("compiler-checked documentation").
#[test]
fn inference_fixpoint_through_pretty_printer() {
    forall!(
        "inference_fixpoint_through_pretty_printer",
        cfg(),
        program_gen(),
        |src| {
            let first = sharc::check("gen.c", src).expect("parses");
            if first.diags.has_errors() {
                // prop_assume: only error-free programs are interesting.
                return Ok(());
            }
            let printed = minic::pretty::program(&first.program);
            let second = sharc::check("gen2.c", &printed)
                .unwrap_or_else(|e| panic!("inferred program must reparse: {e}\n{printed}"));
            prop_assert!(
                !second.diags.has_errors(),
                "{}\n---\n{printed}",
                second.render_diags()
            );
            // The same positions end up dynamic.
            let quals = |p: &minic::Program| -> Vec<minic::Qual> {
                let mut v = Vec::new();
                for f in &p.fns {
                    for param in &f.params {
                        param.ty.for_each_level(&mut |l| v.push(l.qual.clone()));
                    }
                }
                v
            };
            prop_assert_eq!(quals(&first.program), quals(&second.program));
        }
    );
}

/// Annotating inferred-dynamic data as racy removes runtime checks —
/// the incrementality knob the paper describes.
#[test]
fn racy_annotation_reduces_checks() {
    forall!(
        "racy_annotation_reduces_checks",
        cfg(),
        gen::usize_range(1..5),
        |&n_writes| {
            let body: String = (0..n_writes)
                .map(|_| "g = g + 1;")
                .collect::<Vec<_>>()
                .join("\n    ");
            let plain = format!(
                "int g;\nvoid worker(int * d) {{\n    {body}\n}}\n\
             void main() {{ int * p; spawn(worker, p); spawn(worker, p); join_all(); }}"
            );
            let racy = plain.replace("int g;", "int racy g;");
            let a = sharc::check("plain.c", &plain).expect("parses");
            let b = sharc::check("racy.c", &racy).expect("parses");
            prop_assert!(a.instr.n_dynamic_sites > 0);
            prop_assert_eq!(b.instr.n_dynamic_sites, 0);
        }
    );
}

#[test]
fn annotations_monotonically_reduce_dynamic_fraction() {
    // The paper's incremental-adoption claim, measured: unannotated
    // -> locked annotation shifts accesses from dynamic checks to
    // (cheaper) lock-log checks.
    let unannotated = "
        struct s { mutex m; int v; };
        void w(struct s * x) { int i; for (i = 0; i < 20; i++) {
            mutex_lock(&x->m); x->v = x->v + 1; mutex_unlock(&x->m); } }
        void main() { struct s * x = new(struct s);
            spawn(w, x); spawn(w, x); join_all(); }";
    let annotated = unannotated.replace("int v;", "int locked(m) v;");

    let a = sharc::check_and_run("u.c", unannotated, sharc::RunConfig::default()).unwrap();
    let checked = sharc::check("a.c", &annotated).unwrap();
    let b = sharc::run(&checked, sharc::RunConfig::default()).unwrap();
    assert!(a.stats.dynamic_accesses > b.stats.dynamic_accesses);
    // The shift goes further than the paper's dynamic->lock-log step
    // now: the annotated accesses are lock-dominated, so the elision
    // pass proves the lock-log checks away entirely. The reference
    // (full-checks) build still performs them.
    let b_full = sharc::run_full_checks(&checked, sharc::RunConfig::default()).unwrap();
    assert!(b_full.stats.lock_checks > 0);
    assert_eq!(b.stats.lock_checks, 0);
    assert!(b.stats.checks_elided > 0);
    assert!(b.reports.is_empty() && b_full.reports.is_empty());
}
