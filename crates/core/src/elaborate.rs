//! Annotation elaboration: applies SharC's defaulting rules (paper
//! §4.1) and introduces qualifier inference variables for everything
//! still unannotated.
//!
//! The rules, in order:
//!
//! 1. `mutex`/`cond` levels are inherently `racy`.
//! 2. An unannotated pointer *target* inherits a user-written
//!    qualifier from its pointer level: `(int * dynamic)` becomes
//!    `(int dynamic * dynamic)`, but `(int dynamic * private)` is
//!    unchanged. Inheritance never copies defaults, only annotations.
//! 3. Inside a struct definition: a still-unannotated outermost field
//!    qualifier becomes `q` (the instance qualifier, [`Qual::Poly`]);
//!    still-unannotated inner levels become `dynamic`. In a `racy`
//!    struct both become `racy`.
//! 4. Outside structs (globals, params, locals, type literals): every
//!    still-unannotated level gets a fresh inference variable, solved
//!    to `private` or `dynamic` by the sharing analysis.
//! 5. An array is a single object of its base type: the array level
//!    and element level share one qualifier.
//! 6. A field used as the lock in a sibling `locked(f)` qualifier is
//!    forced `readonly` (required for soundness); likewise a global
//!    used as a lock.

use minic::ast::*;
use minic::diag::{Diagnostic, Diagnostics};
use minic::span::Span;
use std::collections::HashSet;

/// Result of elaboration: the number of inference variables created
/// and any diagnostics (annotation conflicts).
#[derive(Debug)]
pub struct ElabResult {
    /// Number of qualifier variables introduced; ids are `0..n_vars`.
    pub n_vars: u32,
    /// Declaration span of each variable (for diagnostics).
    pub var_spans: Vec<Span>,
    pub diags: Diagnostics,
}

/// Elaborates `program` in place.
pub fn elaborate(program: &mut Program) -> ElabResult {
    let mut e = Elab {
        next: 0,
        var_spans: Vec::new(),
        diags: Diagnostics::new(),
    };

    for sd in &mut program.structs {
        let racy = sd.racy;
        for f in &mut sd.fields {
            e.field_type(&mut f.ty, racy, true, f.span);
        }
    }
    e.force_lock_fields(program);

    // Collect global names before mutable iteration (for lock forcing).
    for g in &mut program.globals {
        e.code_type(&mut g.ty, g.span);
    }
    for f in &mut program.fns {
        e.code_type(&mut f.ret, f.span);
        for p in &mut f.params {
            e.code_type(&mut p.ty, p.span);
        }
        f.body
            .for_each_type_mut(&mut |ty, span| e.code_type(ty, span));
    }
    e.force_lock_globals(program);

    ElabResult {
        n_vars: e.next,
        var_spans: e.var_spans,
        diags: e.diags,
    }
}

struct Elab {
    next: u32,
    var_spans: Vec<Span>,
    diags: Diagnostics,
}

impl Elab {
    fn fresh(&mut self, span: Span) -> Qual {
        let id = self.next;
        self.next += 1;
        self.var_spans.push(span);
        Qual::Var(id)
    }

    /// Elaborates one level inside a struct field type.
    ///
    /// `inherited` carries a user-written qualifier from the parent
    /// pointer level, if any.
    fn field_type(&mut self, ty: &mut Type, racy: bool, outermost: bool, span: Span) {
        self.field_type_inner(ty, racy, outermost, None, span);
    }

    fn field_type_inner(
        &mut self,
        ty: &mut Type,
        racy: bool,
        outermost: bool,
        inherited: Option<&Qual>,
        span: Span,
    ) {
        // Unify array/element qualifiers first (rule 5).
        if let TypeKind::Array(elem, _) = &mut ty.kind {
            if ty.qual == Qual::Infer && elem.qual != Qual::Infer {
                ty.qual = elem.qual.clone();
            }
        }
        let user_annotated = ty.qual != Qual::Infer;
        if ty.qual == Qual::Infer {
            ty.qual = match &ty.kind {
                TypeKind::Mutex | TypeKind::Cond => Qual::Racy,
                TypeKind::Void | TypeKind::Fn(_) => Qual::Private,
                _ => {
                    if let Some(q) = inherited {
                        q.clone()
                    } else if racy {
                        Qual::Racy
                    } else if outermost {
                        Qual::Poly
                    } else {
                        Qual::Dynamic
                    }
                }
            };
        }
        let pass_down = if user_annotated {
            Some(ty.qual.clone())
        } else {
            None
        };
        match &mut ty.kind {
            TypeKind::Ptr(inner) => {
                self.field_type_inner(inner, racy, false, pass_down.as_ref(), span);
            }
            TypeKind::Array(elem, _) => {
                // Array and element are one object: same qualifier.
                elem.qual = ty.qual.clone();
                let q = ty.qual.clone();
                self.field_type_inner(elem, racy, false, Some(&q), span);
                elem.qual = ty.qual.clone();
            }
            TypeKind::Fn(sig) => {
                // Function signatures always use code-type defaulting
                // (fresh variables), so assignments of concrete
                // functions can unify with them.
                self.code_type(&mut sig.ret, span);
                for p in &mut sig.params {
                    self.code_type(&mut p.ty, p.span);
                }
            }
            _ => {}
        }
    }

    /// Elaborates a type appearing in code (globals, params, locals,
    /// casts, allocations): unannotated levels become fresh variables.
    fn code_type(&mut self, ty: &mut Type, span: Span) {
        self.code_type_inner(ty, None, span);
    }

    fn code_type_inner(&mut self, ty: &mut Type, inherited: Option<&Qual>, span: Span) {
        if let TypeKind::Array(elem, _) = &mut ty.kind {
            if ty.qual == Qual::Infer && elem.qual != Qual::Infer {
                ty.qual = elem.qual.clone();
            }
        }
        let user_annotated = ty.qual != Qual::Infer;
        if ty.qual == Qual::Infer {
            ty.qual = match &ty.kind {
                TypeKind::Mutex | TypeKind::Cond => Qual::Racy,
                TypeKind::Void | TypeKind::Fn(_) => Qual::Private,
                _ => {
                    if let Some(q) = inherited {
                        q.clone()
                    } else {
                        self.fresh(span)
                    }
                }
            };
        }
        let pass_down = if user_annotated {
            Some(ty.qual.clone())
        } else {
            None
        };
        match &mut ty.kind {
            TypeKind::Ptr(inner) => {
                self.code_type_inner(inner, pass_down.as_ref(), span);
            }
            TypeKind::Array(elem, _) => {
                elem.qual = ty.qual.clone();
                let q = ty.qual.clone();
                self.code_type_inner(elem, Some(&q), span);
                elem.qual = ty.qual.clone();
            }
            TypeKind::Fn(sig) => {
                self.code_type(&mut sig.ret, span);
                for p in &mut sig.params {
                    self.code_type(&mut p.ty, p.span);
                }
            }
            _ => {}
        }
    }

    /// Rule 6 (fields): any sibling field named as a lock base must be
    /// `readonly`.
    fn force_lock_fields(&mut self, program: &mut Program) {
        for sd in &mut program.structs {
            let mut lock_bases = Vec::new();
            for f in &sd.fields {
                collect_lock_bases(&f.ty, &mut lock_bases);
            }
            for base in lock_bases {
                if let Some(f) = sd.fields.iter_mut().find(|f| f.name == base) {
                    // A by-value mutex field *is* the lock; its cell is
                    // mutated by lock operations and stays racy.
                    if matches!(f.ty.kind, TypeKind::Mutex | TypeKind::Cond) {
                        continue;
                    }
                    match &f.ty.qual {
                        Qual::Readonly => {}
                        Qual::Poly | Qual::Infer | Qual::Var(_) => {
                            f.ty.qual = Qual::Readonly;
                        }
                        other => {
                            self.diags.push(Diagnostic::error(
                                format!(
                                    "field `{}` is used in a locked(...) qualifier and must be \
                                     readonly, but is annotated `{other}`",
                                    f.name
                                ),
                                f.span,
                            ));
                        }
                    }
                }
            }
        }
    }

    /// Rule 6 (globals): a global named as a lock base anywhere in the
    /// program must be `readonly`.
    fn force_lock_globals(&mut self, program: &mut Program) {
        let mut bases = Vec::new();
        for sd in &program.structs {
            for f in &sd.fields {
                collect_lock_bases(&f.ty, &mut bases);
            }
        }
        for g in &program.globals {
            collect_lock_bases(&g.ty, &mut bases);
        }
        for f in &program.fns {
            for p in &f.params {
                collect_lock_bases(&p.ty, &mut bases);
            }
            f.body.walk(&mut |n| {
                if let Node::Stmt(Stmt {
                    kind: StmtKind::Decl { ty, .. },
                    ..
                }) = n
                {
                    collect_lock_bases(ty, &mut bases);
                }
                true
            });
        }
        let global_names: HashSet<String> =
            program.globals.iter().map(|g| g.name.clone()).collect();
        for base in bases {
            if global_names.contains(&base) {
                let g = program
                    .globals
                    .iter_mut()
                    .find(|g| g.name == base)
                    .expect("checked membership");
                // A by-value mutex global *is* the lock: leave it racy.
                if matches!(g.ty.kind, TypeKind::Mutex | TypeKind::Cond) {
                    continue;
                }
                match &g.ty.qual {
                    Qual::Readonly => {}
                    Qual::Var(_) | Qual::Infer => g.ty.qual = Qual::Readonly,
                    other => {
                        self.diags.push(Diagnostic::error(
                            format!(
                                "global `{}` is used in a locked(...) qualifier and must be \
                                 readonly, but is annotated `{other}`",
                                g.name
                            ),
                            g.span,
                        ));
                    }
                }
            }
        }
    }
}

/// The base of every `locked(...)` path written at any level of `ty`.
fn collect_lock_bases(ty: &Type, out: &mut Vec<String>) {
    ty.for_each_level(&mut |l| {
        if let Qual::Locked(path) = &l.qual {
            out.push(path.base().to_string());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::parse;

    fn elab(src: &str) -> (Program, ElabResult) {
        let mut p = parse(src).unwrap();
        let r = elaborate(&mut p);
        (p, r)
    }

    #[test]
    fn mutex_fields_become_racy() {
        let (p, r) = elab("struct s { mutex * m; };");
        assert!(!r.diags.has_errors());
        let f = &p.structs[0].fields[0];
        assert_eq!(f.ty.pointee().unwrap().qual, Qual::Racy);
        assert_eq!(f.ty.qual, Qual::Poly);
    }

    #[test]
    fn unannotated_field_pointer_target_is_dynamic() {
        let (p, _) = elab("struct stage { struct stage * next; };");
        let f = &p.structs[0].fields[0];
        assert_eq!(f.ty.qual, Qual::Poly);
        assert_eq!(f.ty.pointee().unwrap().qual, Qual::Dynamic);
    }

    #[test]
    fn annotation_inherits_to_target() {
        // (char * locked(mut)) becomes (char locked(mut) * locked(mut)),
        // exactly the paper's Figure 1 -> Figure 2 elaboration.
        let (p, _) = elab("struct s { mutex * m; char *locked(m) sdata; };");
        let f = p.structs[0].field("sdata").unwrap();
        assert!(matches!(f.ty.qual, Qual::Locked(_)));
        assert!(matches!(f.ty.pointee().unwrap().qual, Qual::Locked(_)));
    }

    #[test]
    fn lock_field_forced_readonly() {
        let (p, r) = elab("struct s { mutex * m; char *locked(m) sdata; };");
        assert!(!r.diags.has_errors());
        let m = p.structs[0].field("m").unwrap();
        assert_eq!(m.ty.qual, Qual::Readonly);
    }

    #[test]
    fn lock_field_conflicting_annotation_is_error() {
        let (_, r) = elab("struct s { mutex * private m; char *locked(m) d; };");
        assert!(r.diags.has_errors());
    }

    #[test]
    fn racy_struct_fields_racy() {
        let (p, _) = elab("racy struct s { int x; int * p; };");
        assert_eq!(p.structs[0].fields[0].ty.qual, Qual::Racy);
        assert_eq!(p.structs[0].fields[1].ty.qual, Qual::Racy);
        assert_eq!(
            p.structs[0].fields[1].ty.pointee().unwrap().qual,
            Qual::Racy
        );
    }

    #[test]
    fn code_types_get_fresh_vars() {
        let (p, r) = elab("void f() { int x; char * c; }");
        assert!(
            r.n_vars >= 3,
            "x, c (two levels) need vars; got {}",
            r.n_vars
        );
        let StmtKind::Decl { ty, .. } = &p.fns[0].body.stmts[0].kind else {
            panic!()
        };
        assert!(matches!(ty.qual, Qual::Var(_)));
    }

    #[test]
    fn annotated_pointer_target_inherits_in_code() {
        let (p, _) = elab("int * dynamic g;");
        let ty = &p.globals[0].ty;
        assert_eq!(ty.qual, Qual::Dynamic);
        assert_eq!(ty.pointee().unwrap().qual, Qual::Dynamic);
    }

    #[test]
    fn annotated_target_unannotated_pointer_stays_separate() {
        let (p, _) = elab("int dynamic * g;");
        let ty = &p.globals[0].ty;
        assert!(matches!(ty.qual, Qual::Var(_)));
        assert_eq!(ty.pointee().unwrap().qual, Qual::Dynamic);
    }

    #[test]
    fn array_and_element_share_qual() {
        let (p, _) = elab("int dynamic buf[8];");
        let ty = &p.globals[0].ty;
        assert_eq!(ty.qual, Qual::Dynamic);
        assert_eq!(ty.elem().unwrap().qual, Qual::Dynamic);
    }

    #[test]
    fn global_lock_forced_readonly() {
        let (p, r) = elab("mutex racy * gl; int locked(gl) counter;");
        assert!(!r.diags.has_errors());
        assert_eq!(p.globals[0].ty.qual, Qual::Readonly);
    }

    #[test]
    fn pipeline_struct_matches_figure2() {
        let src = "typedef struct stage {\n\
                       struct stage * next;\n\
                       cond * cv;\n\
                       mutex * mut;\n\
                       char locked(mut) *locked(mut) sdata;\n\
                       void (* fun)(char private *private fdata);\n\
                   } stage_t;";
        let (p, r) = elab(src);
        assert!(
            !r.diags.has_errors(),
            "{:?}",
            r.diags.iter().collect::<Vec<_>>()
        );
        let sd = &p.structs[0];
        // next: struct stage dynamic *q next
        let next = sd.field("next").unwrap();
        assert_eq!(next.ty.qual, Qual::Poly);
        assert_eq!(next.ty.pointee().unwrap().qual, Qual::Dynamic);
        // cv: cond racy *q cv
        let cv = sd.field("cv").unwrap();
        assert_eq!(cv.ty.qual, Qual::Poly);
        assert_eq!(cv.ty.pointee().unwrap().qual, Qual::Racy);
        // mut: mutex racy *readonly mut
        let m = sd.field("mut").unwrap();
        assert_eq!(m.ty.qual, Qual::Readonly);
        assert_eq!(m.ty.pointee().unwrap().qual, Qual::Racy);
        // fun: (*q fun) with private param retained
        let fun = sd.field("fun").unwrap();
        assert_eq!(fun.ty.qual, Qual::Poly);
    }
}
