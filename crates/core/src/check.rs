//! The static checker and instrumenter (paper §3 typing judgments,
//! generalized to all five sharing modes).
//!
//! Runs after the sharing analysis, when every qualifier is concrete.
//! It verifies:
//!
//! * **Well-formedness** — no shared (non-`private`) reference may
//!   point to a `private` target (the REF-CTOR rule); `locked(l)`
//!   lock expressions must be verifiably constant.
//! * **Access rules** — writes through `readonly` are rejected except
//!   the paper's exception (a `readonly` field of a `private` struct
//!   instance); reads and writes through `locked` and `dynamic`
//!   storage get runtime checks.
//! * **Assignment/call compatibility** — referent types must agree
//!   exactly (qualifiers are invariant below the outermost level);
//!   where only the referent's own mode differs, SharC *suggests* the
//!   sharing cast that would fix it, as the paper's tool does.
//! * **Sharing casts** — `SCAST(t, lv)` may only change the referent's
//!   outermost mode; the source is nulled, so a definite later use
//!   produces a warning.
//!
//! The output is an [`Instrumentation`] table mapping l-value
//! occurrences to the runtime checks the VM must execute — exactly
//! the `when chkread/chkwrite/oneref` guards of the formal model —
//! together with the solved type of every expression ([`ExprTypes`]),
//! so the program is typed once after inference. Its last step is
//! static elision ([`crate::elide`]): each check slot's entry also
//! says why the check may be skipped, if it may.

use crate::analysis::SharingAnalysis;
use crate::elide::{self, Reason};
use crate::typer::{callee_sig, type_function, TypeEnv, TypeTable};
use minic::ast::*;
use minic::diag::{Diagnostic, Diagnostics};
use minic::env::StructTable;
use minic::pretty;
use minic::span::Span;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;

/// Which runtime check an access needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckKind {
    /// Reader/writer-set check on `dynamic` storage.
    Dynamic,
    /// Held-lock check; index into [`Instrumentation::lock_exprs`].
    Locked(usize),
}

/// Checks attached to one l-value occurrence, and why either was
/// elided.
#[derive(Debug, Clone)]
pub struct AccessCheck {
    pub read: Option<CheckKind>,
    pub write: Option<CheckKind>,
    /// Why the read check may be skipped, if an elision rule proved
    /// it redundant.
    pub read_elided: Option<Reason>,
    /// Why the write check may be skipped, likewise.
    pub write_elided: Option<Reason>,
    /// The l-value as written (`S->sdata`, `*(fdata + i)`), used in
    /// conflict reports.
    pub lvalue: String,
    pub span: Span,
}

/// The instrumentation table consumed by the VM compiler.
#[derive(Debug, Default)]
pub struct Instrumentation {
    /// Checks and elision reasons per l-value expression node.
    pub checks: NodeMap<AccessCheck>,
    /// Synthesized lock expressions (evaluated uninstrumented).
    pub lock_exprs: Vec<Expr>,
    /// Call arguments covered by a trusted library *read summary*
    /// (paper §4.4): the callee reads through the pointer, so for a
    /// dynamic actual the reader set must be updated over the range
    /// the library touches.
    pub lib_read_summaries: HashSet<NodeId>,
    /// Number of statically-checked access sites, by kind (for
    /// reporting).
    pub n_dynamic_sites: usize,
    pub n_locked_sites: usize,
    /// The solved type of every expression of the program; the VM
    /// compiler reads it instead of typing the program again.
    pub types: ExprTypes,
}

/// The type the checker gave each expression node of the solved
/// program. Each distinct type is stored once and a node holds its
/// index: a program has far fewer distinct types than expressions.
#[derive(Debug, Default)]
pub struct ExprTypes {
    distinct: Vec<Type>,
    of: NodeMap<u32>,
}

impl ExprTypes {
    /// The type of expression node `id`, or `None` for a node the
    /// checker did not type (a synthesized lock expression).
    pub fn get(&self, id: NodeId) -> Option<&Type> {
        self.of.get(&id).map(|&i| &self.distinct[i as usize])
    }

    /// Adds one function's expression types. `seen` maps the hash of
    /// each distinct type stored so far to its index, so it holds no
    /// copy of a type; a type whose hash collides with a different
    /// stored type's is stored once more. Hashing a type costs more than comparing it, and a function's
    /// expressions share few types, so the last four types this
    /// function met in `seen` are compared first.
    fn record(&mut self, exprs: NodeMap<Type>, seen: &mut HashMap<u64, u32>) {
        self.of.reserve(exprs.len());
        let mut recent = [None::<u32>; 4];
        for (id, ty) in exprs {
            let known = recent
                .iter()
                .flatten()
                .copied()
                .find(|&i| self.distinct[i as usize] == ty);
            let i = match known {
                Some(i) => i,
                None => {
                    let hash = seen.hasher().hash_one(&ty);
                    let i = match seen.get(&hash) {
                        Some(&i) if self.distinct[i as usize] == ty => i,
                        _ => {
                            let i = self.distinct.len() as u32;
                            self.distinct.push(ty);
                            seen.insert(hash, i);
                            i
                        }
                    };
                    recent.rotate_right(1);
                    recent[0] = Some(i);
                    i
                }
            };
            self.of.insert(id, i);
        }
    }
}

/// Result of the checking phase.
#[derive(Debug)]
pub struct CheckResult {
    pub diags: Diagnostics,
    pub instr: Instrumentation,
}

/// Checks the fully-annotated `program` and builds instrumentation.
pub fn check(program: &Program, structs: &StructTable, sharing: &SharingAnalysis) -> CheckResult {
    let mut diags = Diagnostics::new();

    // Well-formedness of declared types.
    for g in &program.globals {
        wf_type(&g.ty, g.span, &mut diags);
    }
    for sd in &program.structs {
        for f in &sd.fields {
            wf_field_type(&f.ty, f.span, &mut diags);
        }
    }
    for f in &program.fns {
        wf_type(&f.ret, f.span, &mut diags);
        for p in &f.params {
            wf_type(&p.ty, p.span, &mut diags);
        }
    }

    let env = TypeEnv::new(program, structs);
    let mut instr = Instrumentation::default();
    let mut seen_types = HashMap::new();
    // Synthesized lock expressions are numbered from 1 000 000 (the
    // ids the front-end goldens pin), or past every program node in a
    // larger program, so no synthesized id names a typed expression.
    let mut next_expr_id = 1_000_000u32.max(max_node_id(program) + 1);

    for f in &program.fns {
        // The one report of each typing error (the analysis typed the
        // unsolved program and reports none).
        let table = type_function(&env, f);
        for e in &table.errors {
            diags.push(e.clone());
        }
        let assigned = collect_assigned_names(f);
        let mut ck = FnChecker {
            table: &table,
            sharing,
            diags: &mut diags,
            instr: &mut instr,
            next_expr_id: &mut next_expr_id,
            assigned_names: assigned,
            fn_name: &f.name,
        };
        ck.block(&f.body);
        instr.types.record(table.exprs, &mut seen_types);
        f.body.walk(&mut |n| {
            if let Node::Stmt(
                s @ Stmt {
                    kind: StmtKind::Decl { ty, .. },
                    ..
                },
            ) = n
            {
                wf_type(ty, s.span, &mut diags);
            }
            true
        });
    }

    elide::mark(program, &mut instr);
    CheckResult { diags, instr }
}

/// The largest node id in `program`.
fn max_node_id(program: &Program) -> u32 {
    let mut max = 0;
    let mut note = |id: NodeId| max = max.max(id.0);
    for g in &program.globals {
        if let Some(e) = &g.init {
            e.walk(&mut |e| {
                note(e.id);
                true
            });
        }
    }
    for f in &program.fns {
        f.body.walk(&mut |n| {
            note(match n {
                Node::Stmt(s) => s.id,
                Node::Expr(e) => e.id,
            });
            true
        });
    }
    max
}

// ----- well-formedness -----

/// No shared reference to a private target (REF-CTOR generalized).
fn wf_type(ty: &Type, span: Span, diags: &mut Diagnostics) {
    if let TypeKind::Ptr(inner) = &ty.kind {
        let ptr_shared = !matches!(ty.qual, Qual::Private | Qual::Infer | Qual::Var(_));
        if ptr_shared
            && matches!(inner.qual, Qual::Private)
            && !inner.is_void()
            && !matches!(inner.kind, TypeKind::Fn(_))
        {
            diags.push(Diagnostic::error(
                format!(
                    "ill-formed type `{}`: a shared ({}) reference may not point to a \
                     private target",
                    pretty::type_str(ty),
                    ty.qual
                ),
                span,
            ));
        }
    }
    match &ty.kind {
        TypeKind::Ptr(inner) | TypeKind::Array(inner, _) => wf_type(inner, span, diags),
        TypeKind::Fn(sig) => {
            wf_type(&sig.ret, span, diags);
            for p in &sig.params {
                wf_type(&p.ty, span, diags);
            }
        }
        _ => {}
    }
}

/// Field types may use `Poly` at the outermost level; a `Poly`
/// pointer is as restrictive as a shared one (the instance may be
/// shared), so a `Poly` pointer to `private` is ill-formed — this is
/// why the paper disallows `private` as the outermost annotation of a
/// field.
fn wf_field_type(ty: &Type, span: Span, diags: &mut Diagnostics) {
    if let TypeKind::Ptr(inner) = &ty.kind {
        let ptr_maybe_shared = !matches!(ty.qual, Qual::Private | Qual::Infer | Qual::Var(_));
        if ptr_maybe_shared
            && matches!(inner.qual, Qual::Private)
            && !inner.is_void()
            && !matches!(inner.kind, TypeKind::Fn(_))
        {
            diags.push(Diagnostic::error(
                format!(
                    "ill-formed field type `{}`: a possibly-shared reference may not point \
                     to a private target",
                    pretty::type_str(ty)
                ),
                span,
            ));
        }
    }
    match &ty.kind {
        TypeKind::Ptr(inner) | TypeKind::Array(inner, _) => wf_field_type(inner, span, diags),
        TypeKind::Fn(_) => wf_type(ty, span, diags),
        _ => {}
    }
}

/// Names assigned anywhere in the function; used for the `locked(l)`
/// verifiable-constancy requirement. Taking an address (e.g.
/// `mutex_lock(&gm)`) does not by itself modify the variable; only
/// assignments and sharing casts (which null their source) do.
fn collect_assigned_names(f: &FnDef) -> HashSet<String> {
    let mut names = HashSet::new();
    f.body.walk(&mut |n| {
        let target = match n {
            Node::Stmt(Stmt {
                kind: StmtKind::Assign { lhs, .. },
                ..
            }) => lhs,
            Node::Expr(Expr {
                kind: ExprKind::Scast(_, src),
                ..
            }) => src,
            _ => return true,
        };
        if let ExprKind::Ident(name) = &target.kind {
            names.insert(name.clone());
        }
        true
    });
    names
}

// ----- per-function checking -----

struct FnChecker<'a> {
    table: &'a TypeTable,
    sharing: &'a SharingAnalysis,
    diags: &'a mut Diagnostics,
    instr: &'a mut Instrumentation,
    next_expr_id: &'a mut u32,
    assigned_names: HashSet<String>,
    fn_name: &'a str,
}

impl<'a> FnChecker<'a> {
    fn ty_of(&self, e: &Expr) -> Option<&'a Type> {
        self.table.exprs.get(&e.id)
    }

    fn block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.stmt(s);
        }
        // Scan straight-line statement sequences for uses of a
        // pointer after it was nulled by a sharing cast.
        self.warn_use_after_scast(b);
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Decl { ty, init, .. } => {
                if let Some(e) = init {
                    self.rvalue(e);
                    self.check_assign_compat(ty, e, s.span);
                }
            }
            StmtKind::Assign { lhs, rhs } => {
                self.rvalue(rhs);
                self.lvalue_addr(lhs);
                let lhs_ty = self.ty_of(lhs);
                if let Some(lt) = &lhs_ty {
                    self.record_write(lhs, lt);
                    self.check_assign_compat(lt, rhs, s.span);
                }
            }
            StmtKind::Expr(e) => self.rvalue(e),
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.rvalue(cond);
                self.block(then_blk);
                if let Some(eb) = else_blk {
                    self.block(eb);
                }
            }
            StmtKind::While { cond, body } => {
                self.rvalue(cond);
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
                    self.rvalue(c);
                }
                if let Some(st) = step {
                    self.stmt(st);
                }
                self.block(body);
            }
            StmtKind::Return(Some(e)) => self.rvalue(e),
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Block(b) => self.block(b),
        }
    }

    /// Visits an expression used as an r-value; records read checks
    /// on every storage load inside it.
    fn rvalue(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Ident(_) => {
                // Loading a variable; function names are constants.
                if self.table.bindings.fn_named(e).is_some() {
                    return;
                }
                if let Some(t) = self.ty_of(e) {
                    self.record_read(e, t);
                }
            }
            ExprKind::Unary(UnOp::Deref, p) => {
                self.rvalue(p);
                if let Some(t) = self.ty_of(e) {
                    self.record_read(e, t);
                }
            }
            ExprKind::Unary(UnOp::AddrOf, lv) => {
                self.lvalue_addr(lv);
            }
            ExprKind::Unary(_, a) => self.rvalue(a),
            ExprKind::Binary(_, a, b) => {
                self.rvalue(a);
                self.rvalue(b);
            }
            ExprKind::Index(base, idx) => {
                self.index_base(base);
                self.rvalue(idx);
                if let Some(t) = self.ty_of(e) {
                    self.record_read(e, t);
                }
            }
            ExprKind::Field(base, _, arrow) => {
                if *arrow {
                    self.rvalue(base);
                } else {
                    self.lvalue_addr(base);
                }
                if let Some(t) = self.ty_of(e) {
                    self.record_read(e, t);
                }
            }
            ExprKind::Call(callee, args) => self.call(e, callee, args),
            ExprKind::Cast(ty, inner) => {
                self.rvalue(inner);
                self.check_ordinary_cast(ty, inner, e.span);
            }
            ExprKind::Scast(ty, src) => self.scast(e, ty, src),
            ExprKind::New(_) | ExprKind::Sizeof(_) => {}
            ExprKind::NewArray(_, n) => self.rvalue(n),
            ExprKind::Ternary(c, a, b) => {
                self.rvalue(c);
                self.rvalue(a);
                self.rvalue(b);
            }
            _ => {}
        }
    }

    /// Visits an l-value in *address* context: its own storage is not
    /// loaded, but inner pointers on the path are.
    fn lvalue_addr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Ident(_) => {}
            ExprKind::Unary(UnOp::Deref, p) => self.rvalue(p),
            ExprKind::Index(base, idx) => {
                self.index_base(base);
                self.rvalue(idx);
            }
            ExprKind::Field(base, _, arrow) => {
                if *arrow {
                    self.rvalue(base);
                } else {
                    self.lvalue_addr(base);
                }
            }
            _ => self.rvalue(e),
        }
    }

    /// An index base is loaded if it is a pointer, addressed if it is
    /// an array l-value.
    fn index_base(&mut self, base: &Expr) {
        let is_array = self
            .ty_of(base)
            .is_some_and(|t| matches!(t.kind, TypeKind::Array(..)));
        if is_array && base.is_lvalue() {
            self.lvalue_addr(base);
        } else {
            self.rvalue(base);
        }
    }

    // ----- checks recording -----

    fn access_entry(&mut self, e: &Expr) -> &mut AccessCheck {
        self.instr
            .checks
            .entry(e.id)
            .or_insert_with(|| AccessCheck {
                read: None,
                write: None,
                read_elided: None,
                write_elided: None,
                lvalue: pretty::expr(e),
                span: e.span,
            })
    }

    fn check_kind_for(&mut self, qual: &Qual, span: Span) -> Option<CheckKind> {
        match qual {
            Qual::Dynamic => {
                self.instr.n_dynamic_sites += 1;
                Some(CheckKind::Dynamic)
            }
            Qual::Locked(path) => {
                self.instr.n_locked_sites += 1;
                let idx = self.lock_expr_index(path, span);
                Some(CheckKind::Locked(idx))
            }
            _ => None,
        }
    }

    fn lock_expr_index(&mut self, path: &LockPath, span: Span) -> usize {
        let src = path.segs.join("->");
        let id = *self.next_expr_id;
        match minic::parse_expr(&src, id) {
            Ok(expr) => {
                *self.next_expr_id += 10_000;
                self.check_lock_constancy(&expr, span);
                self.instr.lock_exprs.push(expr);
                self.instr.lock_exprs.len() - 1
            }
            Err(_) => {
                self.diags.push(Diagnostic::error(
                    format!("cannot resolve lock expression `{src}`"),
                    span,
                ));
                self.instr.lock_exprs.push(Expr {
                    kind: ExprKind::Null,
                    span,
                    id: NodeId(id),
                });
                *self.next_expr_id += 10_000;
                self.instr.lock_exprs.len() - 1
            }
        }
    }

    /// The lock expression must be verifiably constant: its base must
    /// be an unmodified local/formal or a readonly global, and every
    /// field on the path must be readonly (forced by elaboration).
    fn check_lock_constancy(&mut self, lock: &Expr, span: Span) {
        let mut base = lock;
        loop {
            match &base.kind {
                ExprKind::Field(inner, _, _) => base = inner,
                ExprKind::Index(inner, _) => base = inner,
                ExprKind::Unary(UnOp::Deref, inner) => base = inner,
                _ => break,
            }
        }
        if let ExprKind::Ident(name) = &base.kind {
            if self.assigned_names.contains(name) {
                self.diags.push(Diagnostic::error(
                    format!(
                        "lock base `{name}` must be verifiably constant, but it is \
                         modified in `{}`",
                        self.fn_name
                    ),
                    span,
                ));
            }
        }
    }

    fn record_read(&mut self, e: &Expr, ty: &Type) {
        if let Some(kind) = self.check_kind_for(&ty.qual.clone(), e.span) {
            self.access_entry(e).read = Some(kind);
        }
    }

    fn record_write(&mut self, e: &Expr, ty: &Type) {
        match &ty.qual {
            Qual::Readonly => {
                // The paper's exception: a readonly field of a private
                // structure instance is writable (initialization).
                let allowed = match &e.kind {
                    ExprKind::Field(base, _, arrow) => {
                        let inst_qual = self.ty_of(base).map(|t| {
                            if *arrow {
                                t.pointee().map_or(&Qual::Private, |p| &p.qual)
                            } else {
                                &t.qual
                            }
                        });
                        matches!(inst_qual, Some(Qual::Private))
                    }
                    _ => false,
                };
                if !allowed {
                    self.diags.push(Diagnostic::error(
                        format!(
                            "write to readonly l-value `{}` (readonly fields are only \
                             writable through a private struct instance)",
                            pretty::expr(e)
                        ),
                        e.span,
                    ));
                }
            }
            q => {
                if let Some(kind) = self.check_kind_for(&q.clone(), e.span) {
                    self.access_entry(e).write = Some(kind);
                }
            }
        }
    }

    // ----- compatibility -----

    fn check_assign_compat(&mut self, lhs_ty: &Type, rhs: &Expr, span: Span) {
        if matches!(rhs.kind, ExprKind::Null) {
            if !lhs_ty.is_ptr() && !lhs_ty.is_integral() {
                self.diags
                    .push(Diagnostic::error("NULL assigned to non-pointer", span));
            }
            return;
        }
        let Some(rhs_ty) = self.ty_of(rhs) else {
            return;
        };
        if lhs_ty.is_integral() && rhs_ty.is_integral() {
            return;
        }
        let array_decay = lhs_ty.is_ptr() && matches!(rhs_ty.kind, TypeKind::Array(..));
        if !(lhs_ty.same_shape(rhs_ty) || array_decay) {
            // Pointer-from-array decay is fine; anything else must
            // match shapes (ordinary casts handle C-style punning).
            if !(lhs_ty.is_ptr() && is_null_shape(rhs_ty)) {
                self.diags.push(Diagnostic::error(
                    format!(
                        "type mismatch: cannot assign `{}` to `{}`",
                        pretty::type_str(rhs_ty),
                        pretty::type_str(lhs_ty)
                    ),
                    span,
                ));
            }
            return;
        }
        // Referent types must agree exactly.
        let (la, ra) = match (level_below(lhs_ty), level_below(rhs_ty)) {
            (Some(a), Some(b)) => (a, b),
            _ => return,
        };
        if !deep_equal(&la, &ra) {
            // If only the referent's own mode differs, suggest the
            // sharing cast the paper's tool suggests.
            if shallow_fixable(&la, &ra) {
                // Print the cast as the paper writes it: the referent
                // type with no qualifier on the pointer itself.
                let cast_ty = Type::ptr(la.clone(), Qual::Infer);
                self.diags.push(
                    Diagnostic::error(
                        format!(
                            "sharing modes differ: cannot assign `{}` to `{}`",
                            pretty::type_str(rhs_ty),
                            pretty::type_str(lhs_ty)
                        ),
                        span,
                    )
                    .with_note(
                        format!(
                            "insert a sharing cast: SCAST({}, {})",
                            pretty::type_str(&cast_ty),
                            pretty::expr(rhs)
                        ),
                        rhs.span,
                    ),
                );
            } else {
                self.diags.push(Diagnostic::error(
                    format!(
                        "referent types differ: cannot assign `{}` to `{}`",
                        pretty::type_str(rhs_ty),
                        pretty::type_str(lhs_ty)
                    ),
                    span,
                ));
            }
        }
    }

    fn check_ordinary_cast(&mut self, to: &Type, from: &Expr, span: Span) {
        let Some(from_ty) = self.ty_of(from) else {
            return;
        };
        // Integer <-> pointer casts are allowed (C legacy; see the
        // dillo benchmark), as are pointer shape changes, but sharing
        // modes may not change at matching referent levels.
        if let (Some(tp), Some(fp)) = (to.pointee(), from_ty.pointee()) {
            if tp.same_shape(fp) && !deep_equal(tp, fp) {
                self.diags.push(Diagnostic::error(
                    format!(
                        "ordinary cast cannot change sharing modes: `{}` -> `{}`; \
                             use SCAST",
                        pretty::type_str(from_ty),
                        pretty::type_str(to)
                    ),
                    span,
                ));
            }
        }
    }

    fn scast(&mut self, e: &Expr, to: &Type, src: &Expr) {
        self.lvalue_addr(src);
        if let Some(src_ty) = self.ty_of(src) {
            // Record read+write checks on the source (it is loaded and
            // nulled).
            self.record_read(src, &src_ty.clone());
            if src.is_lvalue() {
                self.record_write(src, &src_ty.clone());
            }
            // Only the referent's outermost mode may change; deeper
            // levels are invariant (you cannot cast
            // ref(dynamic ref(dynamic int)) to ref(private ref(private int))).
            if let (Some(tp), Some(sp)) = (to.pointee(), src_ty.pointee()) {
                if !tp.same_shape(sp) {
                    self.diags.push(Diagnostic::error(
                        "sharing cast cannot change the referent's shape",
                        e.span,
                    ));
                } else if !deep_equal_below(tp, sp) {
                    self.diags.push(Diagnostic::error(
                        "sharing cast may only change the referent's own mode; deeper \
                         sharing modes must be identical",
                        e.span,
                    ));
                }
            }
        }
    }

    fn call(&mut self, e: &Expr, callee: &Expr, args: &[Expr]) {
        if let ExprKind::Ident(name) = &callee.kind {
            if is_builtin(name) {
                self.check_builtin_args(name, args, e.span);
                for a in args {
                    self.rvalue(a);
                }
                return;
            }
        }
        // The callee's type as the typer resolved it; only a callee
        // that names a function has escape facts for `dynamic_in`.
        self.rvalue(callee);
        if let Some(sig) = self.ty_of(callee).and_then(callee_sig) {
            self.check_call_args(self.table.bindings.fn_named(callee), sig, args, e.span);
        }
        for a in args {
            self.rvalue(a);
        }
    }

    fn check_call_args(&mut self, fn_name: Option<&str>, sig: &FnSig, args: &[Expr], span: Span) {
        for (i, (arg, p)) in args.iter().zip(&sig.params).enumerate() {
            if matches!(arg.kind, ExprKind::Null) {
                continue;
            }
            let Some(ta) = self.ty_of(arg) else { continue };
            let (fa, fp) = match (level_below(ta), level_below(&p.ty)) {
                (Some(a), Some(b)) => (a, b),
                _ => continue,
            };
            if deep_equal(&fa, &fp) {
                continue;
            }
            // dynamic_in acceptance: a dynamic, non-escaping formal
            // accepts a private actual; accesses are checked inside
            // the callee, which is sound for a single-thread object.
            let dynamic_in_ok = matches!(fp.qual, Qual::Dynamic)
                && matches!(fa.qual, Qual::Private)
                && deep_equal_below(&fa, &fp)
                && fn_name.is_some_and(|n| {
                    !self
                        .sharing
                        .param_escapes
                        .get(&(n.to_string(), i))
                        .copied()
                        .unwrap_or(true)
                });
            if dynamic_in_ok {
                continue;
            }
            if shallow_fixable(&fa, &fp) {
                let cast_ty = Type::ptr(fp.clone(), Qual::Infer);
                self.diags.push(
                    Diagnostic::error(
                        format!(
                            "argument {} has sharing mode `{}` but the parameter expects \
                             `{}`",
                            i + 1,
                            fa.qual,
                            fp.qual
                        ),
                        span,
                    )
                    .with_note(
                        format!(
                            "insert a sharing cast: SCAST({}, {})",
                            pretty::type_str(&cast_ty),
                            pretty::expr(arg)
                        ),
                        arg.span,
                    ),
                );
            } else {
                self.diags.push(Diagnostic::error(
                    format!(
                        "argument {} referent type `{}` does not match parameter `{}`",
                        i + 1,
                        pretty::type_str(ta),
                        pretty::type_str(&p.ty)
                    ),
                    span,
                ));
            }
        }
    }

    /// Library-call argument rules (paper §4.4): a call with a
    /// read/write summary accepts any sharing mode *except* `locked`;
    /// a `dynamic` actual gets its reader set updated per the summary.
    fn check_builtin_args(&mut self, name: &str, args: &[Expr], span: Span) {
        // `print_str` is the library call with a read summary: it
        // reads the string through its pointer argument.
        let summarized: &[usize] = match name {
            "print_str" => &[0],
            _ => &[],
        };
        for &i in summarized {
            let Some(arg) = args.get(i) else { continue };
            let Some(ta) = self.ty_of(arg) else { continue };
            let Some(pointee) = ta.pointee() else {
                continue;
            };
            match &pointee.qual {
                Qual::Locked(_) => {
                    self.diags.push(Diagnostic::error(
                        format!(
                            "library call `{name}` cannot take a locked argument;                              read/write summaries do not cover lock-protected data"
                        ),
                        span,
                    ));
                }
                Qual::Dynamic => {
                    self.instr.lib_read_summaries.insert(arg.id);
                }
                _ => {}
            }
        }
    }

    /// Warns when a pointer is definitely used after being nulled by a
    /// sharing cast (straight-line scan within one block).
    fn warn_use_after_scast(&mut self, b: &Block) {
        for (i, s) in b.stmts.iter().enumerate() {
            let Some(name) = scast_source_ident(s) else {
                continue;
            };
            for later in &b.stmts[i + 1..] {
                match first_use_or_def(later, &name) {
                    Some(UseOrDef::Use(span)) => {
                        self.diags.push(Diagnostic::warning(
                            format!(
                                "`{name}` is used here but was nulled out by a sharing \
                                 cast; it is NULL at this point"
                            ),
                            span,
                        ));
                        break;
                    }
                    Some(UseOrDef::Def) => break,
                    None => {}
                }
            }
        }
    }
}

fn is_null_shape(t: &Type) -> bool {
    matches!(&t.kind, TypeKind::Ptr(p) if p.is_void())
}

/// The storage level below the outermost: `ptr -> pointee`,
/// `array -> element`.
fn level_below(t: &Type) -> Option<Type> {
    match &t.kind {
        TypeKind::Ptr(p) => Some((**p).clone()),
        TypeKind::Array(e, _) => Some((**e).clone()),
        _ => None,
    }
}

/// Exact agreement of a referent type, qualifiers included.
pub fn deep_equal(a: &Type, b: &Type) -> bool {
    a.qual == b.qual && deep_equal_below(a, b)
}

/// Agreement of everything strictly below this level.
pub fn deep_equal_below(a: &Type, b: &Type) -> bool {
    match (&a.kind, &b.kind) {
        (TypeKind::Ptr(pa), TypeKind::Ptr(pb)) => deep_equal(pa, pb),
        (TypeKind::Array(ea, n), TypeKind::Array(eb, m)) => n == m && deep_equal(ea, eb),
        (TypeKind::Ptr(pa), TypeKind::Array(eb, _)) => deep_equal(pa, eb),
        (TypeKind::Array(ea, _), TypeKind::Ptr(pb)) => deep_equal(ea, pb),
        (TypeKind::Fn(sa), TypeKind::Fn(sb)) => {
            sa.params.len() == sb.params.len()
                && deep_equal(&sa.ret, &sb.ret)
                && sa
                    .params
                    .iter()
                    .zip(&sb.params)
                    .all(|(x, y)| deep_equal(&x.ty, &y.ty))
        }
        (TypeKind::Named(x), TypeKind::Named(y)) => x == y,
        _ => a.same_shape(b),
    }
}

/// True if the two referent types differ *only* in their own
/// (outermost) sharing mode — the case a sharing cast fixes.
fn shallow_fixable(a: &Type, b: &Type) -> bool {
    a.same_shape(b) && a.qual != b.qual && deep_equal_below(a, b)
}

fn scast_source_ident(s: &Stmt) -> Option<String> {
    let e = match &s.kind {
        StmtKind::Assign { rhs, .. } => rhs,
        StmtKind::Decl { init: Some(e), .. } => e,
        StmtKind::Expr(e) => e,
        _ => return None,
    };
    if let ExprKind::Scast(_, src) = &e.kind {
        if let ExprKind::Ident(name) = &src.kind {
            return Some(name.clone());
        }
    }
    None
}

enum UseOrDef {
    Use(Span),
    Def,
}

/// First use or (re)definition of `name` in a statement, scanning
/// only straight-line structure (conditionals count as possible uses
/// but not definite ones, so they are skipped for "definitely live").
fn first_use_or_def(s: &Stmt, name: &str) -> Option<UseOrDef> {
    let in_expr = |e: &Expr| {
        e.find(|n| matches!(&n.kind, ExprKind::Ident(x) if x == name))
            .map(|n| n.span)
    };
    match &s.kind {
        StmtKind::Assign { lhs, rhs } => {
            if let Some(sp) = in_expr(rhs) {
                return Some(UseOrDef::Use(sp));
            }
            if let ExprKind::Ident(n) = &lhs.kind {
                if n == name {
                    return Some(UseOrDef::Def);
                }
            }
            in_expr(lhs).map(UseOrDef::Use)
        }
        StmtKind::Expr(e) => in_expr(e).map(UseOrDef::Use),
        StmtKind::Decl { init: Some(e), .. } => in_expr(e).map(UseOrDef::Use),
        StmtKind::Return(Some(e)) => in_expr(e).map(UseOrDef::Use),
        // Control flow ends the "definite" straight-line scan.
        _ => Some(UseOrDef::Def),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::elaborate::elaborate;
    use minic::parse;

    fn run(src: &str) -> (Program, CheckResult) {
        run_program(parse(src).unwrap())
    }

    fn run_program(mut p: Program) -> (Program, CheckResult) {
        let elab = elaborate(&mut p);
        assert!(!elab.diags.has_errors(), "elab failed");
        let structs = StructTable::build(&p).unwrap();
        let sharing = analyze(&mut p, &structs, elab.n_vars);
        let r = check(&p, &structs, &sharing);
        (p, r)
    }

    fn errors(r: &CheckResult) -> Vec<String> {
        r.diags
            .iter()
            .filter(|d| d.severity == minic::Severity::Error)
            .map(|d| d.message.clone())
            .collect()
    }

    #[test]
    fn clean_private_program_has_no_checks() {
        let (_, r) = run("void main() { int x; int * p; p = &x; *p = 3; }");
        assert!(errors(&r).is_empty(), "{:?}", errors(&r));
        assert_eq!(r.instr.n_dynamic_sites, 0);
    }

    #[test]
    fn dynamic_accesses_get_checks() {
        let (p, r) = run("void worker(int * d) { *d = 1; }\n\
             void main() { int * q; q = new(int); spawn(worker, q); }");
        assert!(errors(&r).is_empty(), "{:?}", errors(&r));
        assert!(r.instr.n_dynamic_sites > 0);
        // The `*d = 1` write must be checked.
        let worker = p.fn_by_name("worker").unwrap();
        let StmtKind::Assign { lhs, .. } = &worker.body.stmts[0].kind else {
            panic!()
        };
        let ac = &r.instr.checks[&lhs.id];
        assert_eq!(ac.write, Some(CheckKind::Dynamic));
        assert_eq!(ac.lvalue, "*d");
    }

    #[test]
    fn locked_access_gets_lock_check() {
        let (p, r) = run("struct q { mutex * m; int locked(m) count; };\n\
             void worker(struct q * w) { mutex_lock(w->m); w->count = w->count + 1; \
              mutex_unlock(w->m); }\n\
             void main() { struct q * w; w = new(struct q); spawn(worker, w); }");
        assert!(errors(&r).is_empty(), "{:?}", errors(&r));
        assert!(r.instr.n_locked_sites > 0);
        let worker = p.fn_by_name("worker").unwrap();
        let StmtKind::Assign { lhs, .. } = &worker.body.stmts[1].kind else {
            panic!()
        };
        let ac = &r.instr.checks[&lhs.id];
        assert!(matches!(ac.write, Some(CheckKind::Locked(_))));
        // The synthesized lock expression is w->m.
        let Some(CheckKind::Locked(idx)) = &ac.write else {
            panic!()
        };
        assert_eq!(pretty::expr(&r.instr.lock_exprs[*idx]), "w->m");
    }

    #[test]
    fn readonly_write_rejected() {
        let (_, r) = run("int readonly config;\n\
             void main() { config = 5; }");
        assert!(!errors(&r).is_empty());
    }

    #[test]
    fn readonly_field_of_private_struct_writable() {
        let (_, r) = run("struct s { mutex * m; int locked(m) v; };\n\
             void main() { struct s private * x; mutex * mm; x = new(struct s); \
             mm = new(mutex); x->m = mm; }");
        assert!(errors(&r).is_empty(), "{:?}", errors(&r));
    }

    #[test]
    fn readonly_field_of_shared_struct_not_writable() {
        let (_, r) = run("struct s { mutex * m; int locked(m) v; };\n\
             void worker(struct s * w) { mutex private * mm; mm = new(mutex); w->m = mm; }\n\
             void main() { struct s * w; w = new(struct s); spawn(worker, w); }");
        assert!(!errors(&r).is_empty());
    }

    #[test]
    fn mode_mismatch_suggests_scast() {
        let (_, r) = run("struct q { mutex * m; char locked(m) *locked(m) data; };\n\
             void worker(struct q * w) { char private * l; l = w->data; }\n\
             void main() { struct q * w; w = new(struct q); spawn(worker, w); }");
        let errs = errors(&r);
        assert!(!errs.is_empty());
        let has_suggestion = r
            .diags
            .iter()
            .any(|d| d.notes.iter().any(|(m, _)| m.contains("SCAST(")));
        assert!(has_suggestion, "{:?}", errs);
    }

    #[test]
    fn scast_fixes_mode_mismatch() {
        let (_, r) = run("struct q { mutex * m; char locked(m) *locked(m) data; };\n\
             void worker(struct q * w) { char private * l; \
              l = SCAST(char private *, w->data); }\n\
             void main() { struct q * w; w = new(struct q); spawn(worker, w); }");
        assert!(errors(&r).is_empty(), "{:?}", errors(&r));
    }

    #[test]
    fn scast_cannot_change_deep_modes() {
        let (_, r) = run("void main() { int dynamic * dynamic * private pp; \
             int private * private * private qq; \
             qq = SCAST(int private * private *, pp); }");
        assert!(!errors(&r).is_empty());
    }

    #[test]
    fn shared_ref_to_private_is_ill_formed() {
        let (_, r) = run("int private * dynamic g;");
        assert!(!errors(&r).is_empty());
    }

    #[test]
    fn modified_lock_base_rejected() {
        let (_, r) = run("struct q { mutex * m; int locked(m) v; };\n\
             void worker(struct q * w) { w = NULL; w->v = 1; }\n\
             void main() { struct q * w; w = new(struct q); spawn(worker, w); }");
        assert!(
            errors(&r).iter().any(|e| e.contains("verifiably constant")),
            "{:?}",
            errors(&r)
        );
    }

    #[test]
    fn use_after_scast_warns() {
        let (_, r) = run("void worker(char * d) { char private * l; \
              l = SCAST(char private *, d); *d = 'x'; }\n\
             void main() { char * c; c = new(char); spawn(worker, c); }");
        let warned = r
            .diags
            .iter()
            .any(|d| d.severity == minic::Severity::Warning && d.message.contains("nulled"));
        assert!(warned);
    }

    #[test]
    fn racy_access_unchecked() {
        let (_, r) = run("int racy flag;\n\
             void worker(int * d) { flag = 1; }\n\
             void main() { int * p; spawn(worker, p); flag = 0; }");
        assert!(errors(&r).is_empty(), "{:?}", errors(&r));
        assert_eq!(r.instr.n_dynamic_sites, 0);
    }

    #[test]
    fn dynamic_in_accepts_private_actual() {
        let (_, r) = run("void helper(int * x) { *x = 1; }\n\
             void worker(int * d) { helper(d); }\n\
             void main() { int * p; int * q; p = new(int); q = new(int); \
              spawn(worker, p); helper(q); }");
        assert!(errors(&r).is_empty(), "{:?}", errors(&r));
    }

    #[test]
    fn escaping_formal_rejects_private_actual() {
        // stash stores its argument into a global reachable by the
        // thread; a concretely-private actual must be rejected.
        let (_, r) = run("int * keep;\n\
             void stash(int * x) { keep = x; }\n\
             void worker(int * d) { int v; v = *keep; }\n\
             void main() { int private * p; p = new(int private); stash(p); \
              spawn(worker, NULL); }");
        assert!(!errors(&r).is_empty());
    }

    #[test]
    fn synthesized_lock_ids_are_past_every_program_id() {
        // The parser numbers from 0, so a program of more than 10^6
        // nodes holds ids from 10^6 on: here, one statement's.
        let mut p = parse(
            "struct q { mutex * m; int locked(m) count; };\n\
             void worker(struct q * w) { mutex_lock(w->m); w->count = 1; mutex_unlock(w->m); }\n\
             void main() { struct q * w; w = new(struct q); spawn(worker, w); }",
        )
        .unwrap();
        let StmtKind::Expr(call) = &mut p.fns[0].body.stmts[0].kind else {
            panic!("expected the `mutex_lock` call")
        };
        *call = minic::parse_expr("mutex_lock(w->m)", 1_000_000).unwrap();
        let (p, r) = run_program(p);
        assert!(errors(&r).is_empty(), "{:?}", errors(&r));
        assert!(!r.instr.lock_exprs.is_empty());
        let mut program_ids = HashSet::new();
        for f in &p.fns {
            f.body.walk(&mut |n| {
                program_ids.insert(match n {
                    Node::Stmt(s) => s.id,
                    Node::Expr(e) => e.id,
                });
                true
            });
        }
        for lock in &r.instr.lock_exprs {
            lock.walk(&mut |e| {
                assert!(
                    !program_ids.contains(&e.id),
                    "lock expression `{}` reuses program id {}",
                    pretty::expr(lock),
                    e.id
                );
                true
            });
        }
    }

    /// Every MiniC program the repository ships, by name: the examples,
    /// the benchmark's programs and the six Table-1 ports.
    fn shipped_programs() -> Vec<(String, String)> {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut out = Vec::new();
        for dir in ["examples/minic", "benchmark/programs"] {
            for entry in std::fs::read_dir(format!("{root}/{dir}")).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_some_and(|x| x == "c") {
                    let name = format!("{dir}/{}", path.file_name().unwrap().to_string_lossy());
                    out.push((name, std::fs::read_to_string(&path).unwrap()));
                }
            }
        }
        // A port's source is the raw string its `minic_source` returns.
        for port in ["aget", "dillo", "fftw", "pbzip2", "pfscan", "stunnel"] {
            let rs = format!("{root}/crates/workloads/src/benchmarks/{port}.rs");
            let rs = std::fs::read_to_string(rs).unwrap();
            let (_, tail) = rs
                .split_once("pub fn minic_source() -> &'static str {\n    r#\"")
                .unwrap_or_else(|| panic!("{port}.rs: no `minic_source` raw string"));
            let (src, _) = tail.split_once("\"#").unwrap();
            out.push((format!("{port}.c"), src.to_owned()));
        }
        out
    }

    #[test]
    fn recorded_types_are_the_typers_answer() {
        for (name, src) in shipped_programs() {
            let c = crate::compile(&name, &src).unwrap_or_else(|d| panic!("{name}: {d:?}"));
            let env = TypeEnv::new(&c.program, &c.structs);
            let mut typed = 0;
            for f in &c.program.fns {
                let fresh = type_function(&env, f);
                for (id, ty) in &fresh.exprs {
                    let recorded = c.instr.types.get(*id);
                    assert_eq!(recorded, Some(ty), "{name}: `{}` node {id}", f.name);
                }
                typed += fresh.exprs.len();
            }
            let extra = c.instr.types.of.len() - typed;
            assert_eq!(extra, 0, "{name}: recorded ids the typer did not type");
        }
    }
}
