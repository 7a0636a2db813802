//! End-to-end tests: MiniC source -> SharC pipeline -> VM execution,
//! reproducing the behaviours the paper describes in §2 and §4.

use sharc_interp::{compile_and_run, ConflictKind, ExitStatus, RunOutcome, SchedPolicy, VmConfig};

fn cfg(seed: u64) -> VmConfig {
    VmConfig {
        seed,
        ..VmConfig::default()
    }
}

/// Compiles with the elision reasons ignored — for tests that exercise
/// runtime check machinery on programs the elision pass would
/// otherwise strip.
fn compile_and_run_full(name: &str, src: &str, config: VmConfig) -> RunOutcome {
    let checked = sharc_core::compile(name, src).unwrap();
    assert!(!checked.diags.has_errors(), "{}", checked.render_diags());
    let module = sharc_interp::compile_full_checks(&checked).unwrap();
    sharc_interp::run(&module, &checked.source_map, config)
}

#[test]
fn sequential_program_runs_clean() {
    let out = compile_and_run(
        "seq.c",
        "void main() { int i; int acc; acc = 0; \
         for (i = 0; i < 100; i++) acc += i; print(acc); }",
        cfg(1),
    )
    .unwrap();
    assert_eq!(out.status, ExitStatus::Completed);
    assert_eq!(out.output, vec!["4950"]);
    assert!(out.reports.is_empty());
}

#[test]
fn unsynchronized_writers_race_is_reported() {
    let src = "void worker(int * d) { int i; for (i = 0; i < 50; i++) *d = *d + 1; }\n\
               void main() { int * p; p = new(int); \
                 spawn(worker, p); spawn(worker, p); join_all(); }";
    // Try several seeds; the race is near-certain under any schedule
    // that interleaves at all.
    let mut found = false;
    for seed in 0..4 {
        let out = compile_and_run("race.c", src, cfg(seed)).unwrap();
        assert_eq!(out.status, ExitStatus::Completed);
        if out
            .reports
            .iter()
            .any(|r| matches!(r.kind, ConflictKind::Read | ConflictKind::Write))
        {
            found = true;
            break;
        }
    }
    assert!(found, "expected a read/write conflict report");
}

#[test]
fn report_has_paper_format() {
    let src = "void worker(int * d) { int i; for (i = 0; i < 50; i++) *d = *d + 1; }\n\
               void main() { int * p; p = new(int); \
                 spawn(worker, p); spawn(worker, p); join_all(); }";
    let out = compile_and_run("race.c", src, cfg(0)).unwrap();
    let r = out
        .reports
        .iter()
        .find(|r| matches!(r.kind, ConflictKind::Read | ConflictKind::Write))
        .expect("race report");
    let text = r.to_string();
    assert!(text.contains("conflict(0x"), "{text}");
    assert!(text.contains("who("), "{text}");
    assert!(text.contains("*d @ race.c:"), "{text}");
}

#[test]
fn lock_protected_counter_is_clean() {
    let src = "struct ctr { mutex m; int locked(m) v; };\n\
               void worker(struct ctr * c) { int i; \
                 for (i = 0; i < 25; i++) { mutex_lock(&c->m); c->v = c->v + 1; \
                   mutex_unlock(&c->m); } }\n\
               void main() { struct ctr * c = new(struct ctr); \
                 spawn(worker, c); spawn(worker, c); join_all(); \
                 mutex_lock(&c->m); print(c->v); mutex_unlock(&c->m); }";
    for seed in 0..4 {
        let out = compile_and_run("ctr.c", src, cfg(seed)).unwrap();
        assert_eq!(out.status, ExitStatus::Completed, "seed {seed}");
        assert!(out.reports.is_empty(), "seed {seed}: {:?}", out.reports);
        assert_eq!(out.output, vec!["50"], "seed {seed}");
        assert!(out.stats.lock_checks > 0);
    }
}

#[test]
fn unlocked_access_to_locked_field_reported() {
    let src = "struct ctr { mutex m; int locked(m) v; };\n\
               void worker(struct ctr * c) { c->v = 7; }\n\
               void main() { struct ctr * c = new(struct ctr); \
                 spawn(worker, c); join_all(); }";
    let out = compile_and_run("nolock.c", src, cfg(0)).unwrap();
    assert!(
        out.reports.iter().any(|r| r.kind == ConflictKind::Lock),
        "{:?}",
        out.reports
    );
}

#[test]
fn scast_with_single_reference_succeeds() {
    // main hands the buffer off at spawn with a sharing cast, giving
    // up its reference, so the worker's cast sees a unique reference.
    let src = "void worker(char * d) { char private * l; \
                 l = SCAST(char private *, d); l[0] = 'x'; l[1] = 'y'; }\n\
               void main() { char * b; b = newarray(char, 8); \
                 spawn(worker, SCAST(char dynamic *, b)); join_all(); }";
    let out = compile_and_run("scast_ok.c", src, cfg(0)).unwrap();
    assert_eq!(out.status, ExitStatus::Completed);
    assert!(out.reports.is_empty(), "{:?}", out.reports);
    assert!(out.stats.oneref_checks >= 1);
}

#[test]
fn scast_with_extra_reference_fails_oneref() {
    // A second reference to the buffer lives in a global cell, so the
    // sharing cast must fail the oneref check.
    let src = "char * keep;\n\
               void worker(char * d) { char private * l; \
                 l = SCAST(char private *, d); }\n\
               void main() { char * b; b = newarray(char, 8); keep = b; \
                 spawn(worker, b); join_all(); }";
    let out = compile_and_run("scast_bad.c", src, cfg(0)).unwrap();
    assert!(
        out.reports.iter().any(|r| r.kind == ConflictKind::OneRef),
        "{:?}",
        out.reports
    );
}

#[test]
fn ownership_transfer_pipeline_is_clean() {
    // Producer/consumer hand-off through a locked slot with sharing
    // casts on both sides — the paper's §2.1 idiom. No reports.
    let src = r#"
        struct chan {
            mutex m;
            cond cv;
            int racy done;
            char *locked(m) slot;
        };

        void consumer(struct chan * ch) {
            char private * data;
            int got;
            got = 0;
            while (got < 20) {
                mutex_lock(&ch->m);
                while (ch->slot == NULL)
                    cond_wait(&ch->cv, &ch->m);
                data = SCAST(char private *, ch->slot);
                cond_signal(&ch->cv);
                mutex_unlock(&ch->m);
                data[0] = data[0] + 1;
                free(data);
                got = got + 1;
            }
        }

        void main() {
            struct chan * ch = new(struct chan);
            char private * buf;
            int i;
            spawn(consumer, ch);
            for (i = 0; i < 20; i++) {
                buf = newarray(char private, 4);
                buf[0] = 'a';
                mutex_lock(&ch->m);
                while (ch->slot)
                    cond_wait(&ch->cv, &ch->m);
                ch->slot = SCAST(char locked(ch->m) *, buf);
                cond_signal(&ch->cv);
                mutex_unlock(&ch->m);
            }
            join_all();
        }
    "#;
    for seed in [0u64, 7, 42] {
        let out = compile_and_run("chan.c", src, cfg(seed)).unwrap();
        assert_eq!(out.status, ExitStatus::Completed, "seed {seed}");
        assert!(out.reports.is_empty(), "seed {seed}: {}", out.reports[0]);
    }
}

#[test]
fn threads_with_disjoint_lifetimes_do_not_race() {
    // Thread exit clears its reader/writer bits: sequential reuse of
    // the same dynamic object by different threads is not a race.
    let src = "void worker(int * d) { *d = *d + 1; }\n\
               void main() { int * p; int t; p = new(int); \
                 t = spawn(worker, p); join(t); \
                 t = spawn(worker, p); join(t); }";
    let out = compile_and_run("seq_threads.c", src, cfg(0)).unwrap();
    assert_eq!(out.status, ExitStatus::Completed);
    assert!(out.reports.is_empty(), "{:?}", out.reports);
}

#[test]
fn read_sharing_is_not_a_race() {
    // Many readers, no writer: dynamic mode allows it.
    let src = "void reader(int * d) { int v; int i; \
                 for (i = 0; i < 20; i++) v = *d; }\n\
               void main() { int * p; p = new(int); \
                 spawn(reader, p); spawn(reader, p); spawn(reader, p); join_all(); }";
    let out = compile_and_run("readers.c", src, cfg(3)).unwrap();
    assert_eq!(out.status, ExitStatus::Completed);
    assert!(out.reports.is_empty(), "{:?}", out.reports);
}

#[test]
fn deadlock_is_detected() {
    let src = "struct two { mutex a; mutex b; };\n\
               void w1(struct two * t) { mutex_lock(&t->a); yield_now(); \
                 mutex_lock(&t->b); mutex_unlock(&t->b); mutex_unlock(&t->a); }\n\
               void w2(struct two * t) { mutex_lock(&t->b); yield_now(); \
                 mutex_lock(&t->a); mutex_unlock(&t->a); mutex_unlock(&t->b); }\n\
               void main() { struct two * t; t = new(struct two); \
                 spawn(w1, t); spawn(w2, t); join_all(); }";
    let mut saw_deadlock = false;
    for seed in 0..20 {
        let out = compile_and_run("dead.c", src, cfg(seed)).unwrap();
        if out.status == ExitStatus::Deadlock {
            saw_deadlock = true;
            break;
        }
    }
    assert!(saw_deadlock, "expected at least one schedule to deadlock");
}

#[test]
fn deterministic_given_seed() {
    let src = "void worker(int * d) { int i; for (i = 0; i < 30; i++) *d = *d + 1; }\n\
               void main() { int * p; p = new(int); \
                 spawn(worker, p); spawn(worker, p); join_all(); print(*p); }";
    let a = compile_and_run("det.c", src, cfg(123)).unwrap();
    let b = compile_and_run("det.c", src, cfg(123)).unwrap();
    assert_eq!(a.output, b.output);
    assert_eq!(a.reports.len(), b.reports.len());
    assert_eq!(a.stats.steps, b.stats.steps);
}

#[test]
fn round_robin_policy_works() {
    let src = "void main() { int i; int s; s = 0; for (i = 0; i < 10; i++) s += i; print(s); }";
    let out = compile_and_run(
        "rr.c",
        src,
        VmConfig {
            policy: SchedPolicy::RoundRobin(16),
            ..VmConfig::default()
        },
    )
    .unwrap();
    assert_eq!(out.output, vec!["45"]);
}

#[test]
fn dynamic_fraction_reflects_sharing() {
    // A mostly-private program has a tiny dynamic fraction; a
    // fully-shared one is large — the basis of Table 1's "% dynamic
    // accesses" column.
    let private_src = "void main() { int i; int acc; acc = 0; \
                       for (i = 0; i < 200; i++) acc += i; print(acc); }";
    let shared_src = "void worker(int * d) { int i; \
                        for (i = 0; i < 100; i++) *d = *d + 1; }\n\
                      void main() { int * p; int t; p = new(int); \
                        t = spawn(worker, p); join(t); print(*p); }";
    let a = compile_and_run("p.c", private_src, cfg(0)).unwrap();
    let b = compile_and_run("s.c", shared_src, cfg(0)).unwrap();
    assert_eq!(a.stats.dynamic_accesses, 0);
    assert!(
        b.stats.dynamic_fraction() > 0.1,
        "{}",
        b.stats.dynamic_fraction()
    );
}

#[test]
fn function_calls_and_recursion() {
    let src = "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n\
               void main() { print(fib(12)); }";
    let out = compile_and_run("fib.c", src, cfg(0)).unwrap();
    assert_eq!(out.output, vec!["144"]);
}

#[test]
fn function_pointers_dispatch() {
    let src = "int dbl(int x) { return x * 2; }\n\
               int inc(int x) { return x + 1; }\n\
               void main() { int (* f)(int x); f = dbl; print(f(21)); f = inc; print(f(41)); }";
    let out = compile_and_run("fp.c", src, cfg(0)).unwrap();
    assert_eq!(out.output, vec!["42", "42"]);
}

#[test]
fn structs_arrays_and_strings() {
    let src = r#"
        struct point { int x; int y; };
        void main() {
            struct point p;
            struct point q;
            int arr[5];
            int i;
            p.x = 3; p.y = 4;
            q = p;
            print(q.x * q.x + q.y * q.y);
            for (i = 0; i < 5; i++) arr[i] = i * i;
            print(arr[4]);
            print_str("hello sharc");
        }
    "#;
    let out = compile_and_run("st.c", src, cfg(0)).unwrap();
    assert_eq!(out.output, vec!["25", "16", "hello sharc"]);
}

#[test]
fn free_clears_shadow_state() {
    // Freed memory reused by another thread is not a race: free
    // clears the reader/writer sets.
    let src = "void w1(int * d) { *d = 1; free(d); }\n\
               void main() { int * p; int t; \
                 p = new(int); t = spawn(w1, p); join(t); \
                 p = new(int); t = spawn(w1, p); join(t); }";
    let out = compile_and_run("free.c", src, cfg(0)).unwrap();
    assert_eq!(out.status, ExitStatus::Completed);
    assert!(out.reports.is_empty(), "{:?}", out.reports);
}

#[test]
fn assert_failure_kills_thread() {
    let src = "void main() { assert(1 == 2); print(99); }";
    let out = compile_and_run("a.c", src, cfg(0)).unwrap();
    assert!(out.output.is_empty());
    assert_eq!(out.status, ExitStatus::Completed);
}

#[test]
fn stop_on_error_halts() {
    let src = "void worker(int * d) { int i; for (i = 0; i < 50; i++) *d = *d + 1; }\n\
               void main() { int * p; p = new(int); \
                 spawn(worker, p); spawn(worker, p); join_all(); }";
    let out = compile_and_run(
        "halt.c",
        src,
        VmConfig {
            stop_on_error: true,
            seed: 0,
            ..VmConfig::default()
        },
    )
    .unwrap();
    assert!(matches!(out.status, ExitStatus::Failed(_)));
}

#[test]
fn racy_mode_suppresses_checks() {
    let src = "int racy flag;\n\
               void worker(int * d) { flag = flag + 1; }\n\
               void main() { int * p; spawn(worker, p); spawn(worker, p); \
                 join_all(); flag = 0; }";
    let out = compile_and_run("racy.c", src, cfg(0)).unwrap();
    assert!(out.reports.is_empty(), "{:?}", out.reports);
    assert_eq!(out.stats.dynamic_accesses, 0);
}

#[test]
fn sixteen_byte_granularity_false_sharing() {
    // Two adjacent 1-cell objects land in the same 16-byte granule
    // when allocated contiguously; SharC's 16-byte granularity then
    // reports a (false) race — the paper's §4.5 limitation. With the
    // default allocator each allocation is its own object, so to
    // model a custom allocator we use adjacent fields of one struct.
    let src = "struct two { int a; int b; };\n\
               void w1(struct two * t) { int i; for (i = 0; i < 40; i++) t->a = i; }\n\
               void w2(struct two * t) { int i; for (i = 0; i < 40; i++) t->b = i; }\n\
               void main() { struct two * t; t = new(struct two); \
                 spawn(w1, t); spawn(w2, t); join_all(); }";
    let coarse = compile_and_run("fs.c", src, cfg(5)).unwrap();
    assert!(
        !coarse.reports.is_empty(),
        "16-byte granularity should report false sharing"
    );
    // With 8-byte granularity (1 cell per granule) the fields are
    // separate and no race is reported.
    let fine = compile_and_run(
        "fs.c",
        src,
        VmConfig {
            granule: 1,
            seed: 5,
            ..VmConfig::default()
        },
    )
    .unwrap();
    assert!(fine.reports.is_empty(), "{:?}", fine.reports);
}

#[test]
fn library_read_summary_checks_dynamic_strings() {
    // §4.4: `print_str` has a read summary. Printing a dynamic buffer
    // that another thread concurrently writes must be reported.
    let src = "void writer(char * d) { int i; \
                 for (i = 0; i < 40; i++) d[0] = 'a' + i % 4; }\n\
               void reader(char * d) { int i; \
                 for (i = 0; i < 40; i++) print_str(d); }\n\
               void main() { char * b; b = newarray(char, 4); b[0] = 'x'; \
                 spawn(writer, b); spawn(reader, b); join_all(); }";
    let mut found = false;
    for seed in 0..6 {
        let out = compile_and_run("lib.c", src, cfg(seed)).unwrap();
        if !out.reports.is_empty() {
            found = true;
            break;
        }
    }
    assert!(
        found,
        "summary-covered reads must participate in race detection"
    );
}

#[test]
fn library_read_summary_accepts_read_sharing() {
    // Many threads printing the same dynamic string: reads only, no
    // reports.
    // The buffer is initialized privately, then published with a
    // sharing cast (initializing a dynamic buffer directly would
    // correctly be reported: main's writes precede the reads).
    let src = "void reader(char * d) { int i; \
                 for (i = 0; i < 20; i++) print_str(d); }\n\
               void main() { char private * b; char dynamic * s; \
                 b = newarray(char private, 4); b[0] = 'o'; b[1] = 'k'; \
                 s = SCAST(char dynamic *, b); \
                 spawn(reader, s); spawn(reader, s); join_all(); }";
    let out = compile_and_run("lib2.c", src, cfg(1)).unwrap();
    assert_eq!(out.status, ExitStatus::Completed);
    assert!(out.reports.is_empty(), "{:?}", out.reports);
    assert_eq!(out.output.len(), 40);
}

#[test]
fn library_call_rejects_locked_argument() {
    let src = "struct s { mutex m; char *locked(m) msg; };\n\
               void worker(struct s * x) { mutex_lock(&x->m); \
                 print_str(x->msg); mutex_unlock(&x->m); }\n\
               void main() { struct s * x = new(struct s); \
                 spawn(worker, x); join_all(); }";
    let checked = sharc_core::compile("locked_lib.c", src).unwrap();
    assert!(checked.diags.has_errors());
    let rendered = checked.render_diags();
    assert!(rendered.contains("locked argument"), "{rendered}");
}

#[test]
fn deadlock_diagnostics_name_the_blockers() {
    let src = "struct two { mutex a; mutex b; };\n\
               void w1(struct two * t) { mutex_lock(&t->a); yield_now(); \
                 mutex_lock(&t->b); mutex_unlock(&t->b); mutex_unlock(&t->a); }\n\
               void w2(struct two * t) { mutex_lock(&t->b); yield_now(); \
                 mutex_lock(&t->a); mutex_unlock(&t->a); mutex_unlock(&t->b); }\n\
               void main() { struct two * t = new(struct two); \
                 spawn(w1, t); spawn(w2, t); join_all(); }";
    for seed in 0..20 {
        let out = compile_and_run("dead.c", src, cfg(seed)).unwrap();
        if out.status == ExitStatus::Deadlock {
            assert!(
                out.blocked.iter().any(|b| b.contains("blocked acquiring")),
                "{:?}",
                out.blocked
            );
            assert!(
                out.blocked.iter().any(|b| b.contains("join_all")),
                "main is stuck too: {:?}",
                out.blocked
            );
            return;
        }
    }
    panic!("no deadlock observed in 20 seeds");
}

#[test]
fn private_loops_churn_and_races_keep_their_verdicts() {
    // Each program with the output of its clean run, or `None` where
    // two writers race on one object. Frees and recycled blocks reset
    // the shadow state under the hot loops.
    let cases = [
        // Thread-private dynamic data, heavy re-access.
        (
            "void worker(int * d) { int i; for (i = 0; i < 200; i++) *d = *d + 1; }\n\
             void main() { int * p; int * q; p = new(int); q = new(int); \
               spawn(worker, p); spawn(worker, q); join_all(); print(*p + *q); }",
            Some("400"),
        ),
        // A private loop racing with unrelated alloc/free churn.
        (
            "void worker(int * d) { int i; for (i = 0; i < 100; i++) *d = *d + 1; }\n\
             void main() { int * p; int * q; int i; p = new(int); spawn(worker, p); \
               for (i = 0; i < 20; i++) { q = new(int); *q = i; free(q); } \
               join_all(); print(*p); }",
            Some("100"),
        ),
        // Free + reuse in a tight loop.
        (
            "void main() { int * p; int i; \
               for (i = 0; i < 10; i++) { p = new(int); *p = i; free(p); } print(1); }",
            Some("1"),
        ),
        // Two writers on one object, with a free afterwards.
        (
            "void worker(int * d) { int i; for (i = 0; i < 50; i++) *d = *d + 1; }\n\
             void main() { int * p; p = new(int); \
               spawn(worker, p); spawn(worker, p); join_all(); free(p); }",
            None,
        ),
    ];
    for (n, (src, clean_output)) in cases.iter().enumerate() {
        for seed in 0..3u64 {
            let out = compile_and_run("c.c", src, cfg(seed)).unwrap();
            assert_eq!(out.status, ExitStatus::Completed, "src {n} seed {seed}");
            match clean_output {
                Some(line) => {
                    assert_eq!(out.output, vec![*line], "src {n} seed {seed}");
                    assert!(out.reports.is_empty(), "src {n}: {:?}", out.reports);
                }
                None => assert!(!out.reports.is_empty(), "src {n} seed {seed}"),
            }
        }
    }
}

#[test]
fn report_after_hot_private_loop_names_latest_access() {
    // Every passing check is the granule's latest access, not only
    // the one that installed ownership: a conflict after a hot private
    // loop blames the loop body that touched the data last (line 3),
    // not the install site (line 2). Deterministic schedule:
    // round-robin with a huge quantum plus explicit yields hands
    // control main -> worker (install + full loop) -> main
    // (conflicting write).
    let src = "void worker(int * d) { int i;\n\
               *d = 1;\n\
               for (i = 0; i < 300; i++) *d = *d + 2;\n\
               yield_now(); }\n\
               void main() { int * p; p = new(int);\n\
               spawn(worker, p);\n\
               yield_now();\n\
               *p = 5;\n\
               join_all(); }";
    let out = compile_and_run(
        "lasthit.c",
        src,
        VmConfig {
            seed: 1,
            policy: SchedPolicy::RoundRobin(1_000_000),
            ..VmConfig::default()
        },
    )
    .unwrap();
    assert_eq!(out.status, ExitStatus::Completed);
    let r = out
        .reports
        .iter()
        .find(|r| r.kind == ConflictKind::Write)
        .expect("main's write must conflict with the worker's exclusive state");
    let last = r.last.as_ref().expect("write conflict names a last access");
    assert!(
        last.location.ends_with(": 3"),
        "last must name the loop body, not the stale install site: {last:?}"
    );
    assert!(
        r.who.location.ends_with(": 8"),
        "who is main's write: {:?}",
        r.who
    );
}

#[test]
fn report_names_latest_access_when_a_loop_alternates_two_granules() {
    // The same, with the worker's loop alternating between two
    // granules: `last` for `*a` is the loop's write of `*a` (line 4) —
    // not the install (line 2), whatever the worker touched since.
    let src = "struct pair { int * a; int * b; };\n\
               void worker(struct pair * p) { int * a; int * b; int i; a = p->a; b = p->b; *a = 1; *b = 1;\n\
               for (i = 0; i < 300; i++) {\n\
               *a = *a + 2;\n\
               *b = *b + 2; }\n\
               yield_now(); }\n\
               void main() { struct pair * p; int * a; p = new(struct pair);\n\
               a = new(int); p->a = a; p->b = new(int);\n\
               spawn(worker, p);\n\
               yield_now();\n\
               *a = 5;\n\
               join_all(); }";
    let out = compile_and_run(
        "twogran.c",
        src,
        VmConfig {
            seed: 1,
            policy: SchedPolicy::RoundRobin(1_000_000),
            ..VmConfig::default()
        },
    )
    .unwrap();
    assert_eq!(out.status, ExitStatus::Completed);
    let r = out
        .reports
        .iter()
        .find(|r| r.kind == ConflictKind::Write)
        .expect("main's write must conflict with the worker's exclusive state");
    let last = r.last.as_ref().expect("write conflict names a last access");
    assert!(
        last.location.ends_with(": 4"),
        "last must name the loop body's write of *a: {r}"
    );
}

#[test]
fn lock_dominated_loop_is_clean_checked_and_elided() {
    let src = "struct ctr { mutex m; int locked(m) v; };\n\
               void worker(struct ctr * c) { int i; for (i = 0; i < 250; i++) { \
                 mutex_lock(&c->m); c->v = c->v + 1; mutex_unlock(&c->m); } }\n\
               void main() { struct ctr * c; c = new(struct ctr); \
                 spawn(worker, c); spawn(worker, c); join_all(); }";
    // The elision pass deletes every lock check in this shape; the
    // full-checks build runs them all and stays silent.
    let out = compile_and_run_full("locked.c", src, cfg(7));
    assert!(out.reports.is_empty(), "{:?}", out.reports);
    assert_eq!(out.stats.lock_checks, 1000);
    // And the default build proves the point the other way: the loop
    // needs no checks at all.
    let elided = compile_and_run("locked.c", src, cfg(7)).unwrap();
    assert!(elided.reports.is_empty(), "{:?}", elided.reports);
    assert_eq!(elided.stats.lock_checks, 0);
    assert!(elided.stats.checks_elided > 0);
}

#[test]
fn struct_copies_are_ranged_checks_and_stay_clean() {
    // A struct copy through a dynamic-mode pointer is ONE ranged
    // chkread/chkwrite spanning several granules; the worker owns
    // them all, so fifty round trips report nothing.
    let src = "struct big { int a; int b; int c; int d; int e; };\n\
               void worker(struct big * p) { struct big loc; int i; \
                 p->a = 1; \
                 for (i = 0; i < 50; i++) { loc = *p; *p = loc; } }\n\
               void main() { struct big * p = new(struct big); int t; \
                 t = spawn(worker, p); join(t); \
                 print(p->a); }";
    let out = compile_and_run("copy.c", src, cfg(7)).unwrap();
    assert_eq!(out.status, ExitStatus::Completed);
    assert_eq!(out.output, vec!["1"]);
    assert!(out.reports.is_empty(), "{:?}", out.reports);
}

#[test]
fn freeing_the_struct_flushes_its_owned_run() {
    // A free resets every granule of the block, so the recycled
    // object re-checks from scratch: the second worker's sweeps meet
    // none of the first one's ownership.
    let src = "struct big { int a; int b; int c; int d; int e; };\n\
               void touch(struct big * p) { struct big loc; int i; \
                 for (i = 0; i < 5; i++) { loc = *p; *p = loc; } }\n\
               void main() { struct big * p; int t; \
                 p = new(struct big); t = spawn(touch, p); join(t); free(p); \
                 p = new(struct big); t = spawn(touch, p); join(t); free(p); \
                 print(0); }";
    let out = compile_and_run("recycle.c", src, cfg(3)).unwrap();
    assert_eq!(out.status, ExitStatus::Completed);
    assert!(out.reports.is_empty(), "{:?}", out.reports);
}

#[test]
fn recycled_tid_is_woken_as_the_live_thread_not_its_dead_namesake() {
    // The repro spawns and joins one worker (its id goes back to the
    // free list), then two workers that contend on a mutex; the first
    // reuses the id. Waking a blocked waiter by id alone used to find
    // the exited record, mark it runnable, and panic in `frame()`.
    let src = include_str!("../../../benchmark/programs/known-bug-tid-reuse.c");
    for seed in 0..8 {
        let out = compile_and_run("known-bug-tid-reuse.c", src, cfg(seed)).unwrap();
        assert_eq!(out.status, ExitStatus::Completed, "seed {seed}");
        assert_eq!(out.output, vec!["400"], "seed {seed}: 2 workers x 200");
        assert!(out.reports.is_empty(), "seed {seed}: {:?}", out.reports);
        assert_eq!(out.stats.threads_spawned, 3, "seed {seed}");
        assert_eq!(
            out.stats.max_live_threads, 3,
            "seed {seed}: ids were reused"
        );
    }
}

#[test]
fn a_hundred_live_threads_run_and_a_race_past_tid_63_is_reported() {
    // Thread ids past the first shard widen the backend to a second
    // shard word, so the planted write/write race between workers 100
    // and 101 is the one report, and the 98 workers with a cell each
    // stay silent.
    let src = include_str!("../../../examples/minic/fleet.c");
    for seed in 0..2 {
        let out = compile_and_run("fleet.c", src, cfg(seed)).unwrap();
        assert_eq!(out.status, ExitStatus::Completed, "seed {seed}");
        assert_eq!(out.stats.threads_spawned, 100, "seed {seed}");
        assert_eq!(out.stats.max_live_threads, 101, "seed {seed}");
        assert_eq!(out.reports.len(), 1, "seed {seed}: {:?}", out.reports);
        let r = &out.reports[0];
        assert_eq!(r.kind, ConflictKind::Write, "seed {seed}");
        let last = r.last.as_ref().expect("the other writer is named");
        assert!(r.who.tid > 63 && last.tid > 63, "seed {seed}: {r}");
        assert_ne!(r.who.tid, last.tid, "seed {seed}: {r}");
    }
}
