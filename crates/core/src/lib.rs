//! # sharc-core
//!
//! The SharC checker (PLDI 2008) over MiniC: annotation elaboration,
//! the whole-program sharing analysis, the static checker, and the
//! instrumentation table consumed by the VM.
//!
//! The pipeline mirrors the paper's §4: the input is a partially
//! annotated program; SharC infers the missing annotations
//! ([`elaborate`] + [`analysis`]), type-checks the now-complete
//! program and inserts runtime checks ([`check`]), and hands the
//! instrumented program to the runtime (the `sharc-interp` crate).
//!
//! ## Example
//!
//! ```
//! let src = r#"
//!     void worker(int * d) { *d = *d + 1; }
//!     void main() {
//!         int * p;
//!         p = new(int);
//!         spawn(worker, p);
//!     }
//! "#;
//! let checked = sharc_core::compile("example.c", src)?;
//! assert!(!checked.diags.has_errors());
//! // The thread argument was inferred dynamic, so accesses are checked.
//! assert!(checked.instr.n_dynamic_sites > 0);
//! # Ok::<(), minic::Diagnostic>(())
//! ```

pub mod analysis;
pub(crate) mod callgraph;
pub mod check;
pub mod constraints;
pub mod elaborate;
pub mod elide;
pub(crate) mod typer;

use minic::ast::{Node, Program, Stmt, StmtKind, Type};
use minic::diag::Diagnostics;
use minic::env::StructTable;
use minic::span::SourceMap;

pub use analysis::{AnalysisStats, SharingAnalysis};
pub use check::{AccessCheck, CheckKind, CheckResult, Instrumentation};
pub use elide::{ElisionFacts, ElisionSummary, Reason};

/// A fully analyzed, checked, and instrumented program.
#[derive(Debug)]
pub struct CheckedProgram {
    /// The program with every qualifier concrete.
    pub program: Program,
    pub structs: StructTable,
    /// Runtime checks per l-value occurrence, each with the reason it
    /// was elided, if it was.
    pub instr: Instrumentation,
    /// The totals of `instr`'s elided slots.
    pub elision: elide::ElisionFacts,
    /// Sharing-analysis results (escape info, statistics).
    pub sharing: SharingAnalysis,
    /// All diagnostics from every phase.
    pub diags: Diagnostics,
    /// Source map for rendering report locations.
    pub source_map: SourceMap,
    /// Number of sharing-mode annotations the user wrote (Table 1's
    /// "Annots." column).
    pub annotation_count: usize,
}

impl CheckedProgram {
    /// Renders all diagnostics against the source.
    pub fn render_diags(&self) -> String {
        self.diags.render(&self.source_map)
    }
}

/// Runs the full SharC front-end pipeline on MiniC source text.
///
/// # Errors
///
/// Returns the first *syntax or layout* error. Sharing-mode errors do
/// not abort the pipeline; they are collected in
/// [`CheckedProgram::diags`] so a tool can show them all (and show
/// the sharing-cast suggestions).
pub fn compile(name: &str, src: &str) -> Result<CheckedProgram, minic::Diagnostic> {
    let source_map = SourceMap::new(name, src);
    let mut program = minic::parse(src)?;
    minic::env::canonicalize_struct_names(&mut program);
    let annotation_count = count_annotations(&program);
    let elab = elaborate::elaborate(&mut program);
    let structs = StructTable::build(&program)?;
    let mut diags = Diagnostics::new();
    for d in elab.diags.iter() {
        diags.push(d.clone());
    }
    let sharing = analysis::analyze(&mut program, &structs, elab.n_vars);
    for d in sharing.diags.iter() {
        diags.push(d.clone());
    }
    // Rebuild the struct table: analysis substituted qualifier
    // variables inside struct-field function signatures, and the
    // checker must see the solved types.
    let structs = StructTable::build(&program)?;
    let check::CheckResult { diags: cd, instr } = check::check(&program, &structs, &sharing);
    diags.extend(cd);
    let elision = ElisionFacts {
        summary: ElisionSummary::of(&instr),
    };
    Ok(CheckedProgram {
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

/// Counts user-written sharing-mode annotations in a freshly parsed
/// (pre-elaboration) program.
pub fn count_annotations(program: &Program) -> usize {
    let mut count = 0usize;
    let mut count_ty = |ty: &Type| {
        ty.for_each_level(&mut |l| {
            if l.qual.is_concrete() {
                count += 1;
            }
        });
    };
    for sd in &program.structs {
        for f in &sd.fields {
            count_ty(&f.ty);
        }
    }
    for g in &program.globals {
        count_ty(&g.ty);
    }
    for f in &program.fns {
        count_ty(&f.ret);
        for p in &f.params {
            count_ty(&p.ty);
        }
        f.body.walk(&mut |n| {
            if let Node::Stmt(Stmt {
                kind: StmtKind::Decl { ty, .. },
                ..
            }) = n
            {
                count_ty(ty);
            }
            true
        });
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_clean_program() {
        let c = compile("t.c", "void main() { int x; x = 1; }").unwrap();
        assert!(!c.diags.has_errors());
        assert_eq!(c.annotation_count, 0);
    }

    #[test]
    fn annotation_counting() {
        let c = compile(
            "t.c",
            "int dynamic g;\nvoid main() { int private * x; x = NULL; }",
        )
        .unwrap();
        assert_eq!(c.annotation_count, 2);
    }

    #[test]
    fn syntax_error_propagates() {
        assert!(compile("t.c", "void main( {").is_err());
    }

    #[test]
    fn pipeline_example_with_annotations_is_clean() {
        // The paper's Figure 1 with its two annotations and two casts.
        let src = r#"
            typedef struct stage {
                struct stage * next;
                cond * cv;
                mutex * mut;
                char *locked(mut) sdata;
                void (* fun)(char private * fdata);
            } stage_t;

            int racy notDone;

            void process(char private * fdata) {
                fdata[0] = 'x';
            }

            void thrFunc(stage_t * d) {
                stage_t * S = d;
                stage_t * nextS = S->next;
                char private * ldata;
                while (notDone) {
                    mutex_lock(S->mut);
                    while (S->sdata == NULL)
                        cond_wait(S->cv, S->mut);
                    ldata = SCAST(char private *, S->sdata);
                    cond_signal(S->cv);
                    mutex_unlock(S->mut);
                    S->fun(ldata);
                    if (nextS) {
                        mutex_lock(nextS->mut);
                        while (nextS->sdata)
                            cond_wait(nextS->cv, nextS->mut);
                        nextS->sdata = SCAST(char locked(nextS->mut) *, ldata);
                        cond_signal(nextS->cv);
                        mutex_unlock(nextS->mut);
                    }
                }
            }

            void main() {
                stage_t * s1;
                s1 = new(stage_t);
                spawn(thrFunc, s1);
            }
        "#;
        let c = compile("pipeline_test.c", src).unwrap();
        let errs: Vec<_> = c
            .diags
            .iter()
            .filter(|d| d.severity == minic::Severity::Error)
            .collect();
        assert!(errs.is_empty(), "{}", c.render_diags());
        assert!(c.instr.n_locked_sites > 0);
    }
}
