//! Cross-validation between SharC and the §6.2 baseline detectors on
//! *identical executions*, through `run_with_detector` — the path
//! `sharc run --detector …` takes: the VM records the `CheckEvent`
//! trace of a seeded run, which Eraser and the vector-clock detector
//! then judge. Agreement/disagreement must match the paper's analysis:
//!
//! * honest races: everyone reports;
//! * lock-protected sharing: nobody reports;
//! * ownership hand-off via sharing casts: SharC is silent (the cast
//!   models the transfer), the baselines report a false positive.

use sharc::checker::{CheckEvent, Conflict};
use sharc::prelude::*;

/// One seeded execution of `src` as judged by `kind`.
fn judged(src: &str, seed: u64, kind: DetectorKind) -> DetectorRun {
    let checked = sharc::check("xval.c", src).expect("program parses");
    let config = RunConfig {
        seed,
        ..RunConfig::default()
    };
    sharc::run_with_detector(&checked, config, kind).expect("program checks cleanly")
}

/// The granule of the run's first `new()`: the shared heap object.
fn first_alloc(trace: &[CheckEvent]) -> usize {
    trace
        .iter()
        .find_map(|e| match *e {
            CheckEvent::Alloc { granule } => Some(granule),
            _ => None,
        })
        .expect("new() allocates")
}

/// Conflicts at or above `heap_floor`. The detectors also see stack
/// frames, because the VM allocates them in main memory; a real tool
/// would know the stack is thread-private.
fn heap_conflicts(conflicts: &[Conflict], heap_floor: usize) -> usize {
    conflicts.iter().filter(|c| c.granule >= heap_floor).count()
}

#[test]
fn honest_race_everyone_agrees() {
    let src = "void w(int * d) { int i; for (i = 0; i < 30; i++) *d = *d + 1; }\n\
               void main() { int * p; p = new(int);\n\
                 spawn(w, p); spawn(w, p); join_all(); }";
    let mut sharc_found = false;
    let mut eraser_found = false;
    let mut vc_found = false;
    for seed in 0..6 {
        sharc_found |= !judged(src, seed, DetectorKind::Sharc).conflicts.is_empty();
        // The baselines must name the shared counter itself.
        let on_counter = |kind| {
            let run = judged(src, seed, kind);
            let counter = first_alloc(&run.outcome.trace);
            run.conflicts.iter().any(|c| c.granule == counter)
        };
        eraser_found |= on_counter(DetectorKind::Eraser);
        vc_found |= on_counter(DetectorKind::Vc);
    }
    assert!(sharc_found, "SharC reports the race");
    assert!(eraser_found, "Eraser reports the race");
    assert!(vc_found, "vector clocks report the race");
}

#[test]
fn lock_protected_everyone_silent_on_the_data() {
    let src = "struct c { mutex m; int locked(m) v; };\n\
               void w(struct c * x) { int i; for (i = 0; i < 10; i++) {\n\
                 mutex_lock(&x->m); x->v = x->v + 1; mutex_unlock(&x->m); } }\n\
               void main() { struct c * x = new(struct c);\n\
                 spawn(w, x); spawn(w, x); join_all(); }";
    let sharc = judged(src, 2, DetectorKind::Sharc);
    assert!(sharc.conflicts.is_empty(), "SharC: {:?}", sharc.conflicts);
    // The protected counter lives in the heap object allocated by
    // `new`; its allocation scopes the comparison.
    for kind in [DetectorKind::Eraser, DetectorKind::Vc] {
        let run = judged(src, 2, kind);
        let heap_floor = first_alloc(&run.outcome.trace);
        assert_eq!(
            heap_conflicts(&run.conflicts, heap_floor),
            0,
            "{}: {:?}",
            run.detector,
            run.conflicts
        );
    }
}

#[test]
fn handoff_sharc_accepts_baselines_object() {
    // Ownership transfer: SharC accepts (sharing casts); on the very
    // same execution the baselines flag the buffer.
    let src = "
        struct ch { mutex m; cond cv; int *locked(m) slot; };
        void consumer(struct ch * c) {
            int private * d;
            int got;
            got = 0;
            while (got < 6) {
                mutex_lock(&c->m);
                while (c->slot == NULL) cond_wait(&c->cv, &c->m);
                d = SCAST(int private *, c->slot);
                cond_signal(&c->cv);
                mutex_unlock(&c->m);
                *d = *d + 1;
                free(d);
                got = got + 1;
            }
        }
        void main() {
            struct ch * c = new(struct ch);
            int private * b;
            int i;
            spawn(consumer, c);
            for (i = 0; i < 6; i++) {
                b = new(int private);
                *b = i;
                mutex_lock(&c->m);
                while (c->slot) cond_wait(&c->cv, &c->m);
                c->slot = SCAST(int locked(c->m) *, b);
                cond_signal(&c->cv);
                mutex_unlock(&c->m);
            }
            join_all();
        }";
    let sharc = judged(src, 3, DetectorKind::Sharc);
    assert!(
        sharc.outcome.reports.is_empty(),
        "SharC accepts: {:?}",
        sharc.outcome.reports
    );

    // The producer writes each buffer before publishing; the consumer
    // writes it after taking. Same location, both orders mediated by
    // the channel mutex — the happens-before chain *does* cover this
    // particular trace (same lock), so to expose the baselines'
    // blindness to ownership we check Eraser's lockset view: the
    // buffer is written both with and without the channel lock held,
    // emptying its candidate lockset.
    let eraser = judged(src, 3, DetectorKind::Eraser);
    assert_eq!(eraser.detector, "eraser-lockset");
    assert!(
        heap_conflicts(&eraser.conflicts, first_alloc(&eraser.outcome.trace)) > 0,
        "Eraser false-positives on the ownership hand-off"
    );
}

#[test]
fn trace_is_complete_and_ordered() {
    let src = "void main() { int * p; p = new(int); *p = 4; print(*p); free(p); }";
    let run = judged(src, 0, DetectorKind::Vc);
    assert_eq!(run.outcome.output, vec!["4"]);
    let trace = &run.outcome.trace;
    let allocs = trace
        .iter()
        .filter(|e| matches!(e, CheckEvent::Alloc { .. }))
        .count();
    assert_eq!(allocs, 1);
    // The write to *p precedes the read of *p, and the free is last.
    let heap = first_alloc(trace);
    let at = |wanted: &dyn Fn(&CheckEvent) -> bool| trace.iter().position(wanted);
    let w = at(&|e| matches!(*e, CheckEvent::Write { granule, .. } if granule == heap));
    let r = at(&|e| matches!(*e, CheckEvent::Read { granule, .. } if granule == heap));
    let f = at(&|e| matches!(*e, CheckEvent::RangeFree { granule, .. } if granule == heap));
    assert!(w.unwrap() < r.unwrap() && r.unwrap() < f.unwrap());
    // The SharC path does not pay for a trace it does not need.
    assert!(judged(src, 0, DetectorKind::Sharc).outcome.trace.is_empty());
}
