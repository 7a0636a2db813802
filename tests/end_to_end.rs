//! Cross-crate integration tests: the five sharing modes end to end,
//! mode transitions via sharing casts, and agreement between the
//! checker, the VM, and the native runtime on what constitutes a
//! violation.

use sharc::prelude::*;

fn run_seeded(src: &str, seed: u64) -> RunOutcome {
    sharc::check_and_run(
        "e2e.c",
        src,
        RunConfig {
            seed,
            ..RunConfig::default()
        },
    )
    .unwrap_or_else(|e| panic!("program rejected: {e}"))
}

fn reports_across_seeds(src: &str, seeds: std::ops::Range<u64>) -> usize {
    seeds.map(|s| run_seeded(src, s).reports.len()).sum()
}

// ----- the five modes -----

#[test]
fn private_mode_is_never_checked() {
    let out = run_seeded(
        "void main() { int x; int * p; p = &x; *p = 5; print(*p); }",
        0,
    );
    assert_eq!(out.stats.dynamic_accesses, 0);
    assert_eq!(out.output, vec!["5"]);
}

#[test]
fn readonly_mode_allows_concurrent_reads() {
    let src = "
        int readonly limit = 10;
        void worker(int * d) { int i; int s; s = 0;
            for (i = 0; i < limit; i++) s = s + i; *d = s; }
        void main() { int * a; int * b;
            a = new(int); b = new(int);
            spawn(worker, a); spawn(worker, b); join_all();
            print(*a + *b); }";
    let out = run_seeded(src, 1);
    assert!(out.reports.is_empty(), "{}", out.reports[0]);
    assert_eq!(out.output, vec!["90"]);
}

#[test]
fn readonly_write_is_static_error() {
    let checked = sharc::check("ro.c", "int readonly k = 1; void main() { k = 2; }").unwrap();
    assert!(checked.diags.has_errors());
}

#[test]
fn locked_mode_enforced_at_runtime() {
    // Forgetting the lock on one path is caught.
    let src = "
        struct s { mutex m; int locked(m) v; };
        void w1(struct s * x) { mutex_lock(&x->m); x->v = 1; mutex_unlock(&x->m); }
        void w2(struct s * x) { x->v = 2; }
        void main() { struct s * x = new(struct s);
            spawn(w1, x); spawn(w2, x); join_all(); }";
    let out = run_seeded(src, 0);
    assert!(
        out.reports.iter().any(|r| r.kind == ConflictKind::Lock),
        "{:?}",
        out.reports
    );
}

#[test]
fn racy_mode_is_trusted() {
    let src = "
        int racy stats;
        void worker(int * d) { int i; for (i = 0; i < 30; i++) stats = stats + 1; }
        void main() { int * p; spawn(worker, p); spawn(worker, p); join_all(); }";
    assert_eq!(reports_across_seeds(src, 0..4), 0);
}

#[test]
fn dynamic_mode_catches_real_races_only() {
    // Same dynamic object: exclusive writer windows via join are
    // fine; concurrent writers are not.
    let serial = "
        void w(int * d) { *d = *d + 1; }
        void main() { int * p; int t; p = new(int);
            t = spawn(w, p); join(t);
            t = spawn(w, p); join(t); print(*p); }";
    let out = run_seeded(serial, 3);
    assert!(out.reports.is_empty());
    assert_eq!(out.output, vec!["2"]);

    let parallel = "
        void w(int * d) { int i; for (i = 0; i < 30; i++) *d = *d + 1; }
        void main() { int * p; p = new(int);
            spawn(w, p); spawn(w, p); join_all(); }";
    assert!(reports_across_seeds(parallel, 0..4) > 0);
}

// ----- mode transitions -----

#[test]
fn full_lifecycle_private_locked_private() {
    // The producer-consumer lifecycle of §2: private -> locked ->
    // private, each transition a checked sharing cast.
    let src = "
        struct ch { mutex m; cond cv; int *locked(m) slot; };
        void consumer(struct ch * c) {
            int private * d;
            int n;
            for (n = 0; n < 8; n++) {
                mutex_lock(&c->m);
                while (c->slot == NULL) cond_wait(&c->cv, &c->m);
                d = SCAST(int private *, c->slot);
                cond_signal(&c->cv);
                mutex_unlock(&c->m);
                assert(*d == n * 10);
                free(d);
            }
        }
        void main() {
            struct ch * c = new(struct ch);
            int private * b;
            int n;
            spawn(consumer, c);
            for (n = 0; n < 8; n++) {
                b = new(int private);
                *b = n * 10;
                mutex_lock(&c->m);
                while (c->slot) cond_wait(&c->cv, &c->m);
                c->slot = SCAST(int locked(c->m) *, b);
                cond_signal(&c->cv);
                mutex_unlock(&c->m);
            }
            join_all();
        }";
    for seed in [0u64, 5, 11] {
        let out = run_seeded(src, seed);
        assert_eq!(out.status, ExitStatus::Completed, "seed {seed}");
        assert!(out.reports.is_empty(), "seed {seed}: {}", out.reports[0]);
        assert!(out.stats.oneref_checks >= 16);
    }
}

#[test]
fn leaked_alias_makes_cast_fail() {
    // Keeping a second pointer alive across the hand-off defeats the
    // ownership transfer; SharC's oneref check catches it.
    let src = "
        int * leak;
        void worker(int * d) { int private * l; l = SCAST(int private *, d); }
        void main() { int * b; b = new(int); leak = b;
            spawn(worker, b); join_all(); }";
    let out = run_seeded(src, 0);
    assert!(
        out.reports.iter().any(|r| r.kind == ConflictKind::OneRef),
        "{:?}",
        out.reports
    );
}

#[test]
fn cast_forgives_past_accesses() {
    // After a successful cast, earlier accesses by other threads no
    // longer count as sharing (the formal semantics clears the
    // reader/writer sets).
    let src = "
        void worker(int * d) {
            int private * mine;
            *d = 1;
            mine = SCAST(int private *, d);
            *mine = 2;
        }
        void main() {
            int * p;
            int t;
            p = new(int);
            *p = 0;
            t = spawn(worker, SCAST(int dynamic *, p));
            join(t);
        }";
    let out = run_seeded(src, 0);
    assert!(out.reports.is_empty(), "{}", out.reports[0]);
}

// ----- inference behaviours -----

#[test]
fn sharing_analysis_keeps_main_only_data_private() {
    let src = "
        int main_only;
        int shared_flag;
        void worker(int * d) { shared_flag = 1; }
        void main() { int * p; main_only = 7; spawn(worker, p); join_all(); }";
    let checked = sharc::check("inf.c", src).unwrap();
    let main_only = checked.program.global_by_name("main_only").unwrap();
    let shared = checked.program.global_by_name("shared_flag").unwrap();
    assert_eq!(main_only.ty.qual, minic::Qual::Private);
    assert_eq!(shared.ty.qual, minic::Qual::Dynamic);
    // And at runtime, only the shared flag's accesses are checked.
    let out = sharc::run(&checked, RunConfig::default()).unwrap();
    assert!(out.stats.dynamic_accesses >= 1);
    assert!(out.stats.dynamic_accesses <= 4);
}

#[test]
fn function_pointer_callees_are_checked_too() {
    // Dispatch through a function pointer: the callee's accesses to
    // shared data are still instrumented.
    let src = "
        int counter;
        void bump(int x) { counter = counter + x; }
        void worker(int * d) {
            void (* f)(int x);
            f = bump;
            f(1);
        }
        void main() { int * p; spawn(worker, p); spawn(worker, p); join_all(); }";
    let mut any = 0;
    for seed in 0..6 {
        any += run_seeded(src, seed).reports.len();
    }
    assert!(
        any > 0,
        "racy counter behind a function pointer must be caught"
    );
}

#[test]
fn vm_and_native_runtime_agree_on_granularity() {
    // Both implementations treat 16 bytes as one granule: adjacent
    // word-sized fields false-share.
    use sharc_runtime::{Arena, ThreadCtx, ThreadId};
    let arena: Arena = Arena::new(2);
    let mut c1 = ThreadCtx::new(ThreadId(1));
    let mut c2 = ThreadCtx::new(ThreadId(2));
    arena.write_checked(&mut c1, 0, 1);
    arena.write_checked(&mut c2, 1, 1);
    assert_eq!(c2.conflicts, 1, "native runtime: same granule");

    let src = "
        struct two { int a; int b; };
        void w1(struct two * t) { t->a = 1; }
        void w2(struct two * t) { t->b = 1; }
        void main() { struct two * t = new(struct two);
            spawn(w1, t); spawn(w2, t); join_all(); }";
    let total: usize = (0..8).map(|s| run_seeded(src, s).reports.len()).sum();
    assert!(total > 0, "VM: same granule reports false sharing");
}

// ----- static check elision -----

#[test]
fn elision_exemplar_explains_exact_sites() {
    // The `--explain-elision` contract on examples/minic/elision.c:
    // the private loop body's read (line 16) is collapsed into its
    // write; the lock-dominated region (line 22) and the escaping
    // counterexample (lines 27-28) keep their checks and must not
    // appear in the explanation.
    let src = include_str!("../examples/minic/elision.c");
    let checked = sharc::check("elision.c", src).unwrap();
    assert!(!checked.diags.has_errors(), "{}", checked.render_diags());
    let lines = sharc::explain_elision(&checked);
    assert_eq!(
        lines,
        vec!["collapse read *d [read-of-write] @ elision.c:16"]
    );
    let el = &checked.elision.summary;
    assert_eq!((el.elided_slots, el.collapsed_reads), (0, 1));
    assert_eq!(el.checked_slots, 6, "the escaping sites stay checked");
    // Elided and full-checks builds agree on the clean verdict, and
    // the elided run makes one dynamic access per private-loop trip
    // instead of two.
    let elided = sharc::run(
        &checked,
        RunConfig {
            seed: 3,
            ..RunConfig::default()
        },
    )
    .unwrap();
    let full = sharc::run_full_checks(
        &checked,
        RunConfig {
            seed: 3,
            ..RunConfig::default()
        },
    )
    .unwrap();
    assert_eq!(elided.status, ExitStatus::Completed);
    assert_eq!(elided.status, full.status);
    assert_eq!(elided.output, full.output);
    assert!(elided.reports.is_empty() && full.reports.is_empty());
    assert_eq!(
        (elided.stats.checks_elided, elided.stats.checks_collapsed),
        (0, 1)
    );
    assert_eq!(elided.stats.lock_checks, full.stats.lock_checks);
    assert_eq!(
        full.stats.dynamic_accesses - elided.stats.dynamic_accesses,
        100
    );
}

#[test]
fn racy_exemplar_still_reports_under_elision() {
    // Elision may never hide a report: the racy counter's accesses
    // are reached by two threads, so nothing is elided and the race
    // is still caught by the default (eliding) build.
    let src = include_str!("../examples/minic/counter_racy.c");
    let checked = sharc::check("counter_racy.c", src).unwrap();
    assert!(!checked.diags.has_errors(), "{}", checked.render_diags());
    assert_eq!(checked.elision.summary.elided_slots, 0);
    let total: usize = (0..4u64)
        .map(|seed| {
            sharc::run(
                &checked,
                RunConfig {
                    seed,
                    ..RunConfig::default()
                },
            )
            .unwrap()
            .reports
            .len()
        })
        .sum();
    assert!(total > 0, "the race must still be reported under elision");
}

#[test]
fn output_is_deterministic_per_seed_and_varies_across() {
    let src = "
        void w(int * d) { int i; for (i = 0; i < 20; i++) *d = *d + 1; }
        void main() { int * p; p = new(int);
            spawn(w, p); spawn(w, p); join_all(); print(*p); }";
    let a1 = run_seeded(src, 7);
    let a2 = run_seeded(src, 7);
    assert_eq!(a1.output, a2.output);
    assert_eq!(a1.stats.steps, a2.stats.steps);
}

/// The VM keeps at most 1008 threads live, as many as sixteen 63-tid
/// shard words name. `main` holds the gate's lock while it spawns
/// `workers` waiters, so every one of them is live when the loop ends.
#[test]
fn the_vm_keeps_at_most_1008_threads_live() {
    let program = |workers: usize| {
        format!(
            "struct g {{ mutex m; int locked(m) n; }};
            void waiter(struct g * p) {{
                mutex_lock(&p->m); p->n = p->n + 1; mutex_unlock(&p->m); }}
            void main() {{ struct g * p = new(struct g); int i;
                mutex_lock(&p->m);
                for (i = 0; i < {workers}; i++) spawn(waiter, p);
                mutex_unlock(&p->m);
                join_all();
                mutex_lock(&p->m); print(p->n); mutex_unlock(&p->m); }}"
        )
    };
    let run = |workers| {
        let config = RunConfig {
            stop_on_error: true,
            ..RunConfig::default()
        };
        sharc::check_and_run("cap.c", &program(workers), config).expect("runs")
    };
    // main and 1007 waiters: 1008 live threads.
    let fits = run(1007);
    assert!(fits.is_clean(), "{:?}", fits.status);
    assert_eq!(fits.output, vec!["1007"]);
    assert_eq!(fits.stats.threads_spawned, 1007);
    // One more waiter is one thread too many.
    let over = run(1008);
    assert_eq!(
        over.status,
        ExitStatus::Failed("thread limit (1008) exceeded".into())
    );
}
