//! Property tests for the §3.4 soundness theorem: randomized
//! well-typed core-calculus programs, every interleaving explored,
//! verified against an oracle independent of the inserted checks.
//!
//! The theorem: *private cells are only accessed by the thread that
//! owns them*, and *no two threads race on a dynamic cell* (unless an
//! intervening sharing cast changed its mode).
//!
//! Runs on the sharc-testkit property harness. Base seed comes from
//! `SHARC_TEST_SEED`; failing case seeds are persisted to
//! `tests/formal_soundness.regressions` and replayed before random
//! cases. Historical proptest failures are preserved as the explicit
//! `regression_*` tests below.

use sharc::interp::formal::*;
use sharc_testkit::gen::{self, Gen};
use sharc_testkit::prop::Config;
use sharc_testkit::{forall, prop_assert};

/// The fixed typing environment the generator draws from:
/// dynamic globals `g` (int) and `h` (int), plus per-thread locals
/// `a` (private int), `x` (private ref dynamic int), and
/// `y` (private ref private int).
fn globals() -> Vec<(String, FType)> {
    vec![
        ("g".into(), FType::int(Mode::Dynamic)),
        ("h".into(), FType::int(Mode::Dynamic)),
    ]
}

fn locals() -> Vec<(String, FType)> {
    vec![
        ("a".into(), FType::int(Mode::Private)),
        (
            "x".into(),
            FType::reft(Mode::Private, FType::int(Mode::Dynamic)),
        ),
        (
            "y".into(),
            FType::reft(Mode::Private, FType::int(Mode::Private)),
        ),
    ]
}

/// A menu of well-typed statements over that environment. Shrinks
/// toward the earlier (simpler) entries.
fn stmt_gen() -> Gen<FStmt> {
    gen::choose(vec![
        // a no-op (the shrink target)
        FStmt::Skip,
        // writes to dynamic globals
        FStmt::Assign(LVal::Var("g".into()), RExpr::Const(1)),
        FStmt::Assign(LVal::Var("h".into()), RExpr::Const(2)),
        // reads of dynamic globals into a private local
        FStmt::Assign(LVal::Var("a".into()), RExpr::L(LVal::Var("g".into()))),
        FStmt::Assign(LVal::Var("a".into()), RExpr::L(LVal::Var("h".into()))),
        // private local work
        FStmt::Assign(LVal::Var("a".into()), RExpr::Const(7)),
        // allocate a dynamic cell, write through the reference
        FStmt::Assign(LVal::Var("x".into()), RExpr::New(FType::int(Mode::Dynamic))),
        FStmt::Assign(LVal::Deref("x".into()), RExpr::Const(3)),
        // allocate a private cell, write through it
        FStmt::Assign(LVal::Var("y".into()), RExpr::New(FType::int(Mode::Private))),
        FStmt::Assign(LVal::Deref("y".into()), RExpr::Const(4)),
        // sharing cast: x's dynamic referent becomes private in y
        FStmt::Assign(
            LVal::Var("y".into()),
            RExpr::Scast(FType::int(Mode::Private), "x".into()),
        ),
    ])
}

fn make_program(main_body: Vec<FStmt>, helper_body: Vec<FStmt>) -> FProgram {
    FProgram {
        globals: globals(),
        threads: vec![
            ThreadDef {
                name: "main".into(),
                locals: locals(),
                body: main_body,
            },
            ThreadDef {
                name: "helper".into(),
                locals: locals(),
                body: helper_body,
            },
        ],
        n_locks: 0,
    }
}

/// Two-thread programs: `main` spawns `helper` first, so every
/// generated statement of one thread can interleave with every
/// statement of the other.
fn program_gen() -> Gen<FProgram> {
    gen::pair(gen::vec_of(stmt_gen(), 1..4), gen::vec_of(stmt_gen(), 1..4)).map(|p| {
        let main = std::iter::once(FStmt::Spawn("helper".into()))
            .chain(p.0.iter().cloned())
            .collect();
        make_program(main, p.1.clone())
    })
}

fn cfg() -> Config {
    Config::from_env()
        .at_least(64)
        .persist_to("tests/formal_soundness.regressions")
}

/// Asserts the soundness theorem on every interleaving of `p`.
/// Shared by the property and the explicit regression cases.
fn assert_sound(p: &FProgram) -> Result<(), String> {
    let cp = typecheck(p).expect("generator emits well-typed programs");
    let (violations, states) = explore(&cp, 150_000);
    let real: Vec<_> = violations
        .iter()
        .filter(|v| !matches!(v, Violation::Budget))
        .collect();
    prop_assert!(real.is_empty(), "violations {real:?} in {states} states");
    Ok(())
}

/// The soundness theorem holds on every interleaving of every
/// generated well-typed program.
#[test]
fn checked_programs_never_violate_soundness() {
    forall!(
        "checked_programs_never_violate_soundness",
        cfg(),
        program_gen(),
        |p| {
            assert_sound(p)?;
        }
    );
}

/// The runtime checks are load-bearing: when a generated program
/// contains a cross-thread dynamic write pair, stripping the guards
/// lets the oracle observe the race in some interleaving.
#[test]
fn guards_are_load_bearing() {
    forall!("guards_are_load_bearing", cfg(), program_gen(), |p| {
        // Force a cross-thread write/write pair on global g: both
        // threads end with a g write. Deref statements are dropped so
        // a null dereference cannot kill a thread before it reaches
        // its racing write.
        let mut p = p.clone();
        for t in &mut p.threads {
            t.body.retain(|s| {
                !matches!(
                    s,
                    FStmt::Assign(LVal::Deref(_), _) | FStmt::Assign(_, RExpr::L(LVal::Deref(_)))
                )
            });
            t.body
                .push(FStmt::Assign(LVal::Var("g".into()), RExpr::Const(9)));
        }

        let checked = typecheck(&p).expect("well-typed");
        let (violations, _) = explore(&strip_guards(&checked), 150_000);
        prop_assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::DynamicRace { .. })),
            "stripped guards must expose the race"
        );
        // And with guards intact the same program is sound.
        let (violations, _) = explore(&checked, 150_000);
        let real: Vec<_> = violations
            .iter()
            .filter(|v| !matches!(v, Violation::Budget))
            .collect();
        prop_assert!(real.is_empty(), "{real:?}");
    });
}

// ---------------------------------------------------------------
// Historical proptest regression seeds, re-encoded as explicit
// cases (formerly tests/formal_soundness.proptest-regressions).
// Each is the shrunk program a past run found, re-run against the
// full soundness oracle.
// ---------------------------------------------------------------

/// proptest seed 1307...423a: a dynamic-global write in main racing
/// with a helper read of the same global.
#[test]
fn regression_dynamic_write_vs_read() {
    let p = make_program(
        vec![
            FStmt::Spawn("helper".into()),
            FStmt::Assign(LVal::Var("g".into()), RExpr::Const(1)),
        ],
        vec![FStmt::Assign(
            LVal::Var("a".into()),
            RExpr::L(LVal::Var("g".into())),
        )],
    );
    assert_sound(&p).unwrap();
}

/// proptest seed 781c...09a9: main writes g then spawns a helper that
/// reads and rewrites g — a write/write pair across the spawn edge.
#[test]
fn regression_write_spawn_write() {
    let p = make_program(
        vec![
            FStmt::Assign(LVal::Var("g".into()), RExpr::Const(1)),
            FStmt::Spawn("helper".into()),
        ],
        vec![
            FStmt::Assign(LVal::Var("a".into()), RExpr::L(LVal::Var("g".into()))),
            FStmt::Assign(LVal::Var("g".into()), RExpr::Const(1)),
        ],
    );
    assert_sound(&p).unwrap();
}

/// proptest seed d48e...7d10: helper dereferences an unallocated
/// dynamic ref (null) before writing the global — exercises the
/// thread-kill path during exploration.
#[test]
fn regression_null_deref_then_write() {
    let p = make_program(
        vec![
            FStmt::Assign(LVal::Var("g".into()), RExpr::Const(1)),
            FStmt::Spawn("helper".into()),
        ],
        vec![
            FStmt::Assign(LVal::Deref("x".into()), RExpr::Const(3)),
            FStmt::Assign(LVal::Var("g".into()), RExpr::Const(1)),
        ],
    );
    assert_sound(&p).unwrap();
}

#[test]
fn exhaustive_exploration_covers_many_interleavings() {
    let p = make_program(
        vec![
            FStmt::Spawn("helper".into()),
            FStmt::Assign(LVal::Var("a".into()), RExpr::L(LVal::Var("g".into()))),
            FStmt::Assign(LVal::Var("a".into()), RExpr::L(LVal::Var("h".into()))),
        ],
        vec![
            FStmt::Assign(LVal::Var("a".into()), RExpr::L(LVal::Var("g".into()))),
            FStmt::Assign(LVal::Var("a".into()), RExpr::L(LVal::Var("h".into()))),
        ],
    );
    let cp = typecheck(&p).unwrap();
    let (violations, states) = explore(&cp, 1_000_000);
    assert!(violations.is_empty(), "{violations:?}");
    assert!(states > 20, "interleavings explored: {states}");
}
