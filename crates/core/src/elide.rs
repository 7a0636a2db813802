//! Static check elision: one peephole that collapses a redundant read
//! check into the write check right after it.
//!
//! It is the checker's last step: [`crate::check::check`] runs it over
//! the solved program (every qualifier concrete) once every check is
//! recorded, and sets [`AccessCheck::read_collapsed`] on each read slot
//! it folds, so one entry of [`Instrumentation::checks`] holds a slot's
//! check and whether it runs; the VM compiler emits **no instruction**
//! for a collapsed read, and [`ElisionSummary::of`] counts them.
//!
//! The one rule, E5 (read-of-write), collapses the read check of a
//! compound assignment (`*p = *p + 1`) into its write check when the
//! address expression is side-effect-free. It is applied by the
//! default compile only (a conflicted write installs no shadow state,
//! so on already-racy runs the read check can fire where the write
//! does not); the fully-checked build keeps both. Every `locked(l)`
//! access keeps its lock-held check, as in the paper (§3, §4.2): that
//! check is one lookup in the thread's held-lock log.
//!
//! The rule earns its place in `tests/elision_ledger.rs`, which pins
//! the executed checks it removes on every corpus program and fails
//! when it removes none. It is numbered E5 because that ledger retired
//! E1–E4 (DESIGN.md, "Static check elision").
//!
//! Soundness is pinned by `tests/elision_differential.rs`: a `forall!`
//! differential (eliding and fully-checked builds agree bit-for-bit on
//! race-free executions) and a mutation property (making an access
//! race keeps its checks).

use crate::check::{AccessCheck, CheckKind, Instrumentation};
use minic::ast::*;
use minic::pretty;
use minic::span::SourceMap;

/// Static totals over the whole program (for `sharc check` and the
/// bench tables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElisionSummary {
    /// Check slots the checker emitted (each read/write slot is one).
    pub checked_slots: usize,
    /// Kept for `benchmark/`: slots deleted outright. No rule deletes
    /// a slot, so it is always 0.
    pub elided_slots: usize,
    /// Read slots collapsed into their write check by E5.
    pub collapsed_reads: usize,
}

impl ElisionSummary {
    /// Counts the check slots of `instr` and the collapsed reads among
    /// them.
    pub fn of(instr: &Instrumentation) -> ElisionSummary {
        let mut sum = ElisionSummary::default();
        for ac in instr.checks.values() {
            sum.checked_slots += usize::from(ac.read.is_some()) + usize::from(ac.write.is_some());
            sum.collapsed_reads += usize::from(ac.read_collapsed);
        }
        sum
    }
}

/// Kept for `benchmark/`: the wrapper its phase-by-phase build expects
/// in [`crate::CheckedProgram::elision`].
#[derive(Debug, Default)]
pub struct ElisionFacts {
    pub summary: ElisionSummary,
}

/// Kept for `benchmark/`: the [`ElisionSummary`] of the collapses
/// [`crate::check::check`] recorded in `instr`; `program` is unused.
pub fn elide(_program: &Program, instr: &Instrumentation) -> ElisionFacts {
    ElisionFacts {
        summary: ElisionSummary::of(instr),
    }
}

/// Runs E5 over the checked `program`, setting `read_collapsed` on
/// each collapsed read slot in `instr.checks`. `program` must be
/// post-analysis (all sharing modes concrete).
pub(crate) fn mark(program: &Program, instr: &mut Instrumentation) {
    for f in &program.fns {
        f.body.walk(&mut |n| {
            if let Node::Stmt(Stmt {
                kind: StmtKind::Assign { lhs, rhs },
                ..
            }) = n
            {
                collapse_assign(lhs, rhs, &mut instr.checks);
            }
            true
        });
    }
}

// ----- E5: read-of-write collapse -----

/// `*p = *p + 1`: when the write check on the lhs is Dynamic and the
/// statement is side-effect-free, the rhs read of the *same* l-value
/// string is covered by the write check that immediately follows it.
fn collapse_assign(lhs: &Expr, rhs: &Expr, checks: &mut NodeMap<AccessCheck>) {
    let Some(lac) = checks.get(&lhs.id) else {
        return;
    };
    if !matches!(lac.write, Some(CheckKind::Dynamic)) {
        return;
    }
    let has_side_effects = |e: &Expr| {
        e.any(|n| {
            matches!(
                n.kind,
                ExprKind::Call(..)
                    | ExprKind::New(_)
                    | ExprKind::NewArray(..)
                    | ExprKind::Scast(..)
            )
        })
    };
    if has_side_effects(lhs) || has_side_effects(rhs) {
        return;
    }
    let lhs_str = pretty::expr(lhs);
    rhs.walk(&mut |e| {
        if let Some(ac) = checks.get_mut(&e.id) {
            if matches!(ac.read, Some(CheckKind::Dynamic)) && pretty::expr(e) == lhs_str {
                ac.read_collapsed = true;
            }
        }
        true
    });
}

// ----- explain output -----

/// Renders one human-auditable line per collapsed read slot, sorted by
/// source position: `collapse read *d [read-of-write] @ f.c:16`.
pub fn explain(instr: &Instrumentation, sm: &SourceMap) -> Vec<String> {
    let mut rows: Vec<(u32, u32, String)> = instr
        .checks
        .values()
        .filter(|ac| ac.read_collapsed)
        .map(|ac| {
            let lc = sm.lookup(ac.span);
            let line = format!(
                "collapse read {} [read-of-write] @ {}:{}",
                ac.lvalue,
                sm.name(),
                lc.line
            );
            (lc.line, lc.col, line)
        })
        .collect();
    rows.sort();
    rows.dedup();
    rows.into_iter().map(|(_, _, s)| s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CheckedProgram;

    fn run(src: &str) -> CheckedProgram {
        let c = crate::compile("elide_test.c", src).unwrap();
        assert!(!c.diags.has_errors(), "{}", c.render_diags());
        c
    }

    const PRIVATE_LOOP: &str = "void worker(int * d) { int i; \
         for (i = 0; i < 10; i = i + 1) *d = *d + 1; }\n\
         void main() { int * p; int t; p = new(int); t = spawn(worker, p); join(t); }";

    #[test]
    fn worker_loop_collapses_its_read_into_the_write() {
        let c = run(PRIVATE_LOOP);
        let s = &c.elision.summary;
        // `*d = *d + 1`: one read slot + one write slot. No rule
        // deletes a slot; E5 folds the read into the write.
        assert_eq!(s.checked_slots, 2, "{:?}", c.instr.checks);
        assert_eq!((s.elided_slots, s.collapsed_reads), (0, 1), "{s:?}");
    }

    /// Every dynamic write of `src` keeps its check: at most E5 folds
    /// a read into its write.
    fn assert_writes_stay_checked(src: &str) {
        let c = run(src);
        let s = c.elision.summary;
        let writes = c
            .instr
            .checks
            .values()
            .filter(|ac| ac.write.is_some())
            .count();
        assert!(writes > 0 && s.elided_slots == 0, "{src}: {s:?}");
        assert!(s.collapsed_reads <= writes, "{src}: {s:?}");
    }

    // The next five shapes each let the spawned object race, so a
    // spawn-time escape analysis (the deleted rule E3) had to keep
    // their checks. With no such rule they pin that every dynamic
    // write of theirs stays checked.

    #[test]
    fn second_spawn_site_blocks_spawn_unique() {
        assert_writes_stay_checked(
            "void worker(int * d) { *d = 1; }\n\
             void main() { int * p; int * q; p = new(int); q = new(int); \
              spawn(worker, p); spawn(worker, q); }",
        );
    }

    #[test]
    fn spawner_deref_blocks_spawn_unique() {
        // main reads *p while worker may write it.
        assert_writes_stay_checked(
            "void worker(int * d) { *d = 1; }\n\
             void main() { int * p; int v; p = new(int); *p = 4; \
              spawn(worker, p); v = *p; }",
        );
    }

    #[test]
    fn spawner_call_arg_blocks_spawn_unique() {
        // main hands p to poke, which writes *p while worker may.
        assert_writes_stay_checked(
            "void worker(int * d) { *d = 1; }\n\
             void poke(int * x) { *x = 2; }\n\
             void main() { int * p; p = new(int); spawn(worker, p); poke(p); }",
        );
    }

    #[test]
    fn direct_call_of_worker_blocks_spawn_unique() {
        // worker also runs as a plain call on main's thread.
        assert_writes_stay_checked(
            "void worker(int * d) { *d = 1; }\n\
             void main() { int * p; int * q; p = new(int); q = new(int); \
              spawn(worker, p); worker(q); }",
        );
    }

    #[test]
    fn spawn_in_loop_blocks_spawn_unique() {
        assert_writes_stay_checked(
            "void worker(int * d) { *d = 1; }\n\
             void main() { int * p; int i; p = new(int); \
              for (i = 0; i < 2; i = i + 1) spawn(worker, p); }",
        );
    }

    #[test]
    fn lock_dominated_region_keeps_its_lock_checks() {
        // Both slots of the increment under the held lock stay: a
        // `locked` access is never collapsed or deleted.
        let c = run("struct q { mutex * m; int locked(m) count; };\n\
             void worker(struct q * w) { mutex_lock(w->m); \
              w->count = w->count + 1; mutex_unlock(w->m); }\n\
             void main() { struct q * w; w = new(struct q); spawn(worker, w); }");
        let s = c.elision.summary;
        assert_eq!(
            (s.checked_slots, s.elided_slots, s.collapsed_reads),
            (2, 0, 0),
            "{s:?}"
        );
    }

    #[test]
    fn sharing_cast_source_keeps_its_lock_checks() {
        let c = run("mutex gm;\n\
             char locked(gm) *locked(gm) buf;\n\
             void worker(int * d) { char private * l; mutex_lock(&gm); \
              l = SCAST(char private *, buf); buf = NULL; mutex_unlock(&gm); }\n\
             void main() { int * p; spawn(worker, p); }");
        // Under the held lock the plain store and the cast's read and
        // write of its source all keep their lock checks.
        let s = &c.elision.summary;
        assert_eq!((s.checked_slots, s.elided_slots), (3, 0), "{s:?}");
    }

    #[test]
    fn access_after_unlock_stays_checked() {
        let c = run("struct q { mutex * m; int locked(m) count; };\n\
             void worker(struct q * w) { mutex_lock(w->m); \
              w->count = 1; mutex_unlock(w->m); w->count = 2; }\n\
             void main() { struct q * w; w = new(struct q); spawn(worker, w); }");
        // The in-region write and the post-unlock write (which will
        // report at runtime) both keep their checks.
        let s = &c.elision.summary;
        assert_eq!((s.checked_slots, s.elided_slots), (2, 0), "{s:?}");
    }

    #[test]
    fn lock_held_across_loop_body() {
        let c = run("struct q { mutex * m; int locked(m) count; };\n\
             void worker(struct q * w) { int i; mutex_lock(w->m); \
              for (i = 0; i < 5; i = i + 1) w->count = w->count + 1; \
              mutex_unlock(w->m); }\n\
             void main() { struct q * w; w = new(struct q); spawn(worker, w); }");
        // The loop body's read is not collapsed into its write: both
        // are lock checks.
        let s = &c.elision.summary;
        assert_eq!(
            (s.checked_slots, s.elided_slots, s.collapsed_reads),
            (2, 0, 0),
            "{s:?}"
        );
    }

    #[test]
    fn compound_assign_read_collapses_into_write() {
        let c = run("int dynamic g;\n\
             void worker(int * d) { g = g + 1; }\n\
             void main() { int * p; spawn(worker, p); g = g + 1; }");
        let s = &c.elision.summary;
        assert_eq!(s.collapsed_reads, 2, "summary: {s:?}");
        // Collapsed reads are not counted as elided.
        assert_eq!(s.elided_slots, 0);
    }

    #[test]
    fn explain_renders_sorted_reason_lines() {
        let c = run("struct q { mutex * m; int locked(m) count; };\n\
             int dynamic g;\n\
             void worker(struct q * w) { g = g + 1;\n\
              mutex_lock(w->m); w->count = w->count + 1; mutex_unlock(w->m); }\n\
             void main() { struct q * w; w = new(struct q); \
              spawn(worker, w); spawn(worker, w); g = g + 1; }");
        // By line; the lock-checked line 4 has nothing to explain.
        assert_eq!(
            explain(&c.instr, &c.source_map),
            [
                "collapse read g [read-of-write] @ elide_test.c:3",
                "collapse read g [read-of-write] @ elide_test.c:5",
            ]
        );
    }

    #[test]
    fn racy_counter_program_keeps_its_checks() {
        // Two spawns of the same worker over one object: the write
        // check stays, so the racy report survives elision.
        let c = run("void worker(int * d) { *d = *d + 1; }\n\
             void main() { int * p; p = new(int); \
              spawn(worker, p); spawn(worker, p); }");
        assert_eq!(c.elision.summary.elided_slots, 0);
        // E5 may still collapse the worker-side read: the write check
        // remains and reports the same conflict.
        assert!(c.elision.summary.checked_slots >= 2);
    }
}
