//! The whole-program sharing analysis (paper §4.1): generates
//! qualifier constraints from assignments, calls, and reference
//! construction; seeds them with the objects inherently visible to
//! threads; solves; and substitutes the solution back into the
//! program, leaving every qualifier concrete.

use crate::callgraph::{CallGraph, ShapeIndex};
use crate::constraints::{ConstraintSet, Solution};
use crate::typer::{callee_sig, type_function, TypeEnv, TypeTable};
use minic::ast::*;
use minic::diag::Diagnostics;
use minic::env::StructTable;
use std::collections::HashMap;

/// Result of the sharing analysis.
#[derive(Debug)]
pub struct SharingAnalysis {
    /// Diagnostics from seeding. Typing errors are the checker's to
    /// report: it types the solved program, whose types print without
    /// qualifier variables.
    pub diags: Diagnostics,
    /// For each function parameter `(fn, index)` of pointer type:
    /// whether the pointed-to object "escapes" (is dynamic in its own
    /// right). Escaping formals require dynamic actuals; non-escaping
    /// dynamic formals are `dynamic_in` and accept private actuals.
    pub param_escapes: HashMap<(String, usize), bool>,
    /// Statistics for reporting.
    pub stats: AnalysisStats,
}

/// Counters describing the inference outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisStats {
    pub n_vars: u32,
    pub n_dynamic: usize,
    pub n_thread_roots: usize,
    pub n_seeded_globals: usize,
}

/// Runs the sharing analysis over an elaborated program, replacing
/// every qualifier variable with `private` or `dynamic` in place.
pub fn analyze(program: &mut Program, structs: &StructTable, n_vars: u32) -> SharingAnalysis {
    let mut diags = Diagnostics::new();
    let mut cs = ConstraintSet::new(n_vars);

    // Ref-constructor edges for every declared type.
    for g in &program.globals {
        ref_ctor_type(&g.ty, &mut cs);
    }
    for sd in &program.structs {
        for f in &sd.fields {
            ref_ctor_type(&f.ty, &mut cs);
        }
    }
    for f in &program.fns {
        ref_ctor_type(&f.ret, &mut cs);
        for p in &f.params {
            ref_ctor_type(&p.ty, &mut cs);
        }
    }

    // Constraints from each function body, typed over the
    // variable-annotated program. Each table holds every callee's type
    // and lives for its own function; the call graph keeps only the
    // bindings.
    let env = TypeEnv::new(program, structs);
    let shapes = ShapeIndex::new(program);
    let mut bindings = Vec::with_capacity(program.fns.len());
    for f in &program.fns {
        let table = type_function(&env, f);
        let mut gen = ConstraintGen {
            shapes: &shapes,
            table: &table,
            cs: &mut cs,
            ret: &f.ret,
        };
        gen.block(&f.body);
        f.body.walk(&mut |n| {
            if let Node::Stmt(Stmt {
                kind: StmtKind::Decl { ty, .. },
                ..
            }) = n
            {
                ref_ctor_type(ty, &mut cs);
            }
            true
        });
        bindings.push(table.bindings);
    }
    let cg = CallGraph::build(program, &bindings);

    // Seeds: globals touched by thread-reachable code.
    let touched = cg.thread_touched_globals();
    let mut n_seeded_globals = 0;
    for g in &program.globals {
        if touched.contains(&g.name) {
            n_seeded_globals += 1;
            cs.seed_dynamic(&g.ty.qual, &format!("global `{}`", g.name), g.span);
            // An array global shares one qualifier between the array
            // level and elements, so seeding the outer level suffices.
        }
    }

    let solution = cs.solve();
    let mut seed_diags = Diagnostics::new();
    std::mem::swap(&mut seed_diags, &mut cs.diags);
    diags.extend(seed_diags);

    // Record escape info before substitution erases variables.
    let mut param_escapes = HashMap::new();
    for f in &program.fns {
        for (i, p) in f.params.iter().enumerate() {
            if let Some(pointee) = p.ty.pointee() {
                let escapes = match &pointee.qual {
                    Qual::Var(v) => solution.escapes(*v),
                    Qual::Dynamic => true,
                    _ => false,
                };
                param_escapes.insert((f.name.clone(), i), escapes);
            }
        }
    }

    let stats = AnalysisStats {
        n_vars,
        n_dynamic: solution.dynamic_count(),
        n_thread_roots: cg.thread_roots.len(),
        n_seeded_globals,
    };

    substitute_program(program, &solution);

    SharingAnalysis {
        diags,
        param_escapes,
        stats,
    }
}

// ----- constraint generation -----

struct ConstraintGen<'a> {
    shapes: &'a ShapeIndex<'a>,
    table: &'a TypeTable,
    cs: &'a mut ConstraintSet,
    ret: &'a Type,
}

impl<'a> ConstraintGen<'a> {
    fn ty_of(&self, e: &Expr) -> Option<&'a Type> {
        self.table.exprs.get(&e.id)
    }

    fn block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Decl { ty, init, .. } => {
                if let Some(e) = init {
                    self.expr(e);
                    if !matches!(e.kind, ExprKind::Null) {
                        if let Some(te) = self.ty_of(e) {
                            tie_below(ty, te, self.cs);
                        }
                    }
                }
            }
            StmtKind::Assign { lhs, rhs } => {
                self.expr(lhs);
                self.expr(rhs);
                if !matches!(rhs.kind, ExprKind::Null) {
                    if let (Some(tl), Some(tr)) = (self.ty_of(lhs), self.ty_of(rhs)) {
                        tie_below(tl, tr, self.cs);
                    }
                }
            }
            StmtKind::Expr(e) => self.expr(e),
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.expr(cond);
                self.block(then_blk);
                if let Some(eb) = else_blk {
                    self.block(eb);
                }
            }
            StmtKind::While { cond, body } => {
                self.expr(cond);
                self.block(body);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(i);
                }
                if let Some(c) = cond {
                    self.expr(c);
                }
                if let Some(st) = step {
                    self.stmt(st);
                }
                self.block(body);
            }
            StmtKind::Return(Some(e)) => {
                self.expr(e);
                if !matches!(e.kind, ExprKind::Null) {
                    if let Some(te) = self.ty_of(e) {
                        tie_below(self.ret, te, self.cs);
                    }
                }
            }
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Block(b) => self.block(b),
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Call(callee, args) => {
                if let ExprKind::Ident(name) = &callee.kind {
                    if is_builtin(name) {
                        if name == "spawn" {
                            self.spawn_site(e, args);
                        }
                        for a in args {
                            self.expr(a);
                        }
                        return;
                    }
                }
                // Bind against the callee's type as the typer resolved
                // it: a function's own signature for a function name,
                // else a function pointer's (unification has already
                // tied that signature to every function assigned to it).
                self.expr(callee);
                if let Some(sig) = self.ty_of(callee).and_then(callee_sig) {
                    self.bind_call(sig, args);
                }
                for a in args {
                    self.expr(a);
                }
            }
            ExprKind::Scast(ty, src) => {
                self.expr(src);
                // Deep levels (below the pointee's own mode) must
                // agree between source and destination type.
                if let (Some(tp), Some(ts)) = (ty.pointee(), self.ty_of(src)) {
                    if let Some(sp) = ts.pointee() {
                        tie_below(tp, sp, self.cs);
                    }
                }
            }
            ExprKind::Cast(ty, src) => {
                self.expr(src);
                if let Some(ts) = self.ty_of(src) {
                    if ty.is_ptr() && (ts.is_ptr() || matches!(ts.kind, TypeKind::Array(..))) {
                        tie_below(ty, ts, self.cs);
                    }
                }
            }
            ExprKind::Unary(_, a) => self.expr(a),
            ExprKind::Binary(_, a, b) => {
                self.expr(a);
                self.expr(b);
            }
            ExprKind::Index(a, b) => {
                self.expr(a);
                self.expr(b);
            }
            ExprKind::Field(a, _, _) => self.expr(a),
            ExprKind::NewArray(_, n) => self.expr(n),
            ExprKind::Ternary(c, a, b) => {
                self.expr(c);
                self.expr(a);
                self.expr(b);
                // Both branches flow to the same consumer; tie them.
                if let (Some(ta), Some(tb)) = (self.ty_of(a), self.ty_of(b)) {
                    if !matches!(a.kind, ExprKind::Null) && !matches!(b.kind, ExprKind::Null) {
                        tie_below(ta, tb, self.cs);
                    }
                }
            }
            _ => {}
        }
    }

    fn bind_call(&mut self, sig: &FnSig, args: &[Expr]) {
        for (arg, p) in args.iter().zip(&sig.params) {
            if matches!(arg.kind, ExprKind::Null) {
                continue;
            }
            if let Some(ta) = self.ty_of(arg) {
                call_bind_types(ta, &p.ty, self.cs);
            }
        }
    }

    /// `spawn(f, arg)`: the object passed to the thread is inherently
    /// shared — seed both the formal's pointee and the actual's. A
    /// spawned function pointer may start any function of its shape.
    fn spawn_site(&mut self, e: &Expr, args: &[Expr]) {
        if args.len() != 2 {
            return;
        }
        if let Some(sig) = self.ty_of(&args[0]).and_then(callee_sig) {
            match self.table.bindings.fn_named(&args[0]) {
                Some(name) => self.thread_formal(name, sig.params.first(), &args[1]),
                None => {
                    for f in self.shapes.matching(sig) {
                        self.thread_formal(&f.name, f.params.first(), &args[1]);
                    }
                }
            }
        }
        if !matches!(args[1].kind, ExprKind::Null) {
            if let Some(pointee) = self.ty_of(&args[1]).and_then(Type::pointee) {
                self.cs
                    .seed_dynamic(&pointee.qual, "spawned thread argument", e.span);
            }
        }
    }

    /// Seeds the first formal `p` of thread function `name` and ties
    /// the spawned argument to it.
    fn thread_formal(&mut self, name: &str, p: Option<&Param>, arg: &Expr) {
        let Some(p) = p else { return };
        if let Some(pointee) = p.ty.pointee() {
            self.cs.seed_dynamic(
                &pointee.qual,
                &format!("thread argument of `{name}`"),
                p.span,
            );
        }
        if !matches!(arg.kind, ExprKind::Null) {
            if let Some(ta) = self.ty_of(arg) {
                tie_below(ta, &p.ty, self.cs);
            }
        }
    }
}

/// Equality constraints for all matching levels strictly below the
/// outermost (the storage modes of the two sides are independent; the
/// types of what they point to are not).
pub fn tie_below(a: &Type, b: &Type, cs: &mut ConstraintSet) {
    match (&a.kind, &b.kind) {
        (TypeKind::Ptr(pa), TypeKind::Ptr(pb)) => tie_all(pa, pb, cs),
        (TypeKind::Ptr(pa), TypeKind::Array(eb, _)) => tie_all(pa, eb, cs),
        (TypeKind::Array(ea, _), TypeKind::Ptr(pb)) => tie_all(ea, pb, cs),
        (TypeKind::Array(ea, _), TypeKind::Array(eb, _)) => tie_all(ea, eb, cs),
        (TypeKind::Fn(sa), TypeKind::Fn(sb)) => {
            tie_all(&sa.ret, &sb.ret, cs);
            for (x, y) in sa.params.iter().zip(&sb.params) {
                tie_all(&x.ty, &y.ty, cs);
            }
        }
        _ => {}
    }
}

fn tie_all(a: &Type, b: &Type, cs: &mut ConstraintSet) {
    cs.eq(&a.qual, &b.qual);
    tie_below(a, b, cs);
}

/// Call-site binding: the pointee's own mode binds actual-to-formal
/// (`dynamic_in` semantics); deeper levels are invariant.
pub fn call_bind_types(actual: &Type, formal: &Type, cs: &mut ConstraintSet) {
    match (&actual.kind, &formal.kind) {
        (TypeKind::Ptr(pa), TypeKind::Ptr(pf)) => {
            cs.call_bind(&pa.qual, &pf.qual);
            tie_below(pa, pf, cs);
        }
        (TypeKind::Array(ea, _), TypeKind::Ptr(pf)) => {
            cs.call_bind(&ea.qual, &pf.qual);
            tie_below(ea, pf, cs);
        }
        (TypeKind::Fn(_), TypeKind::Fn(_)) => tie_below(actual, formal, cs),
        _ => {}
    }
}

fn ref_ctor_type(ty: &Type, cs: &mut ConstraintSet) {
    match &ty.kind {
        TypeKind::Ptr(inner) => {
            cs.ref_ctor(&ty.qual, &inner.qual);
            ref_ctor_type(inner, cs);
        }
        TypeKind::Array(elem, _) => ref_ctor_type(elem, cs),
        TypeKind::Fn(sig) => {
            ref_ctor_type(&sig.ret, cs);
            for p in &sig.params {
                ref_ctor_type(&p.ty, cs);
            }
        }
        _ => {}
    }
}

// ----- substitution -----

/// Replaces every `Qual::Var` in the program with its solution.
pub fn substitute_program(p: &mut Program, sol: &Solution) {
    p.for_each_type_mut(&mut |ty, _| {
        ty.for_each_level_mut(&mut |l| {
            if let Qual::Var(v) = l.qual {
                l.qual = sol.qual(v);
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::elaborate;
    use minic::parse;

    fn run(src: &str) -> (Program, SharingAnalysis) {
        let mut p = parse(src).unwrap();
        let elab = elaborate(&mut p);
        assert!(!elab.diags.has_errors());
        let structs = StructTable::build(&p).unwrap();
        let a = analyze(&mut p, &structs, elab.n_vars);
        (p, a)
    }

    #[test]
    fn thread_formal_pointee_becomes_dynamic() {
        let (p, a) = run("void worker(int * d) { *d = 1; }\n\
             void main() { int * p; p = new(int); spawn(worker, p); }");
        assert!(
            !a.diags.has_errors(),
            "{:?}",
            a.diags.iter().collect::<Vec<_>>()
        );
        let worker = p.fn_by_name("worker").unwrap();
        assert_eq!(worker.params[0].ty.pointee().unwrap().qual, Qual::Dynamic);
        // And the pointer cell itself stays private.
        assert_eq!(worker.params[0].ty.qual, Qual::Private);
    }

    #[test]
    fn main_local_stays_private() {
        let (p, _) = run("void worker(int * d) { }\n\
             void main() { int x; int * q; q = &x; *q = 3; }");
        let main = p.fn_by_name("main").unwrap();
        let StmtKind::Decl { ty, .. } = &main.body.stmts[0].kind else {
            panic!()
        };
        assert_eq!(ty.qual, Qual::Private);
    }

    #[test]
    fn thread_touched_global_becomes_dynamic() {
        let (p, _) = run("int flag;\n\
             void worker(int * d) { flag = 1; }\n\
             void main() { int * p; spawn(worker, p); flag = 0; }");
        assert_eq!(p.globals[0].ty.qual, Qual::Dynamic);
    }

    #[test]
    fn untouched_global_stays_private() {
        let (p, _) = run("int main_only;\n\
             void worker(int * d) { }\n\
             void main() { int * p; main_only = 1; spawn(worker, p); }");
        assert_eq!(p.globals[0].ty.qual, Qual::Private);
    }

    #[test]
    fn dynamicness_flows_through_assignment() {
        let (p, _) = run(
            "void worker(int * d) { int * alias; alias = d; *alias = 2; }\n\
             void main() { int * p; spawn(worker, p); }",
        );
        let worker = p.fn_by_name("worker").unwrap();
        let StmtKind::Decl { ty, .. } = &worker.body.stmts[0].kind else {
            panic!()
        };
        assert_eq!(ty.pointee().unwrap().qual, Qual::Dynamic);
    }

    #[test]
    fn private_annotation_on_thread_formal_is_error() {
        let (_, a) = run("void worker(int private * d) { }\n\
             void main() { int * p; spawn(worker, p); }");
        assert!(a.diags.has_errors());
    }

    #[test]
    fn helper_called_from_one_thread_stays_private() {
        // helper is called with a private actual from main only; its
        // formal must not become dynamic.
        let (p, a) = run("void helper(int * x) { *x = 1; }\n\
             void worker(int * d) { }\n\
             void main() { int * p; p = new(int); helper(p); spawn(worker, NULL); }");
        assert!(!a.diags.has_errors());
        let helper = p.fn_by_name("helper").unwrap();
        assert_eq!(helper.params[0].ty.pointee().unwrap().qual, Qual::Private);
    }

    #[test]
    fn dynamic_in_checks_formal_but_not_other_actuals() {
        let (p, a) = run("void helper(int * x) { *x = 1; }\n\
             void worker(int * d) { helper(d); }\n\
             void main() { int * p; int * q; p = new(int); q = new(int);\n\
                           spawn(worker, p); helper(q); }");
        assert!(!a.diags.has_errors());
        let helper = p.fn_by_name("helper").unwrap();
        // The formal is checked (dynamic)...
        assert_eq!(helper.params[0].ty.pointee().unwrap().qual, Qual::Dynamic);
        // ...but it does not escape, so private actuals are accepted.
        assert!(!a.param_escapes[&("helper".to_string(), 0)]);
        // And q in main stays private.
        let main = p.fn_by_name("main").unwrap();
        let StmtKind::Decl { ty, .. } = &main.body.stmts[1].kind else {
            panic!()
        };
        assert_eq!(ty.pointee().unwrap().qual, Qual::Private);
    }

    #[test]
    fn escaping_formal_flows_back() {
        // worker stores its formal into a shared global, so main's
        // pointer must become dynamic.
        let (p, a) = run("int * keep;\n\
             void stash(int * x) { keep = x; }\n\
             void worker(int * d) { int v; v = *keep; }\n\
             void main() { int * p; p = new(int); stash(p); spawn(worker, NULL); }");
        assert!(!a.diags.has_errors());
        assert!(a.param_escapes[&("stash".to_string(), 0)]);
        let main = p.fn_by_name("main").unwrap();
        let StmtKind::Decl { ty, .. } = &main.body.stmts[0].kind else {
            panic!()
        };
        assert_eq!(ty.pointee().unwrap().qual, Qual::Dynamic);
    }

    #[test]
    fn new_allocation_ties_to_destination() {
        let (p, _) = run("void worker(int * d) { *d = 1; }\n\
             void main() { int * p; p = new(int); spawn(worker, p); }");
        // The allocation type literal must have been substituted to
        // dynamic (it flows into the spawned thread).
        let main = p.fn_by_name("main").unwrap();
        let StmtKind::Assign { rhs, .. } = &main.body.stmts[1].kind else {
            panic!()
        };
        let ExprKind::New(ty) = &rhs.kind else {
            panic!()
        };
        assert_eq!(ty.qual, Qual::Dynamic);
    }

    #[test]
    fn stats_are_populated() {
        let (_, a) = run("int flag;\n\
             void worker(int * d) { flag = 1; }\n\
             void main() { int * p; spawn(worker, p); }");
        assert!(a.stats.n_vars > 0);
        assert!(a.stats.n_dynamic > 0);
        assert_eq!(a.stats.n_thread_roots, 1);
        assert_eq!(a.stats.n_seeded_globals, 1);
    }
}
