//! Expression typing for MiniC with sharing-mode qualifiers.
//!
//! Computes a [`Type`] for every expression node in a function,
//! performing *shape* checking (pointer/struct/array well-formedness)
//! and the struct qualifier-polymorphism substitution: a field whose
//! outermost qualifier is `q` ([`Qual::Poly`]) takes the qualifier of
//! the structure instance it is accessed through, and `locked(f)`
//! paths declared on fields are re-rooted at the instance expression
//! (`sdata: locked(mut)` accessed as `S->sdata` becomes
//! `locked(S->mut)`).
//!
//! Both the sharing analysis (over qualifier variables) and the final
//! checker (over concrete qualifiers) use this module. The checker
//! keeps its answer for the VM compiler ([`crate::check::ExprTypes`]),
//! so nothing outside this crate types a program.

use minic::ast::*;
use minic::diag::Diagnostic;
use minic::env::StructTable;
use minic::pretty;
use minic::span::Span;
use std::collections::HashMap;

/// Program-wide typing environment.
#[derive(Debug)]
pub struct TypeEnv<'p> {
    pub structs: &'p StructTable,
    pub globals: HashMap<String, Type>,
    pub fn_sigs: HashMap<String, FnSig>,
}

impl<'p> TypeEnv<'p> {
    /// Builds the environment from an (elaborated) program.
    pub fn new(program: &'p Program, structs: &'p StructTable) -> Self {
        let globals = program
            .globals
            .iter()
            .map(|g| (g.name.clone(), g.ty.clone()))
            .collect();
        let fn_sigs = program
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.sig()))
            .collect();
        TypeEnv {
            structs,
            globals,
            fn_sigs,
        }
    }
}

/// What an identifier expression that is not a local names.
///
/// The typer resolves a name the way the VM does: the innermost local
/// or formal, then a global, then a function. The analysis, the call
/// graph and the checker read this answer instead of resolving a name
/// again, so a local function pointer that shares a function's name
/// is the local everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binding {
    Global,
    Fn,
}

/// The [`Binding`] of each identifier expression that resolved to a
/// global or a function. A local or formal has no entry, nor has a
/// builtin's callee, which is not typed.
#[derive(Debug, Default)]
pub struct Bindings(NodeMap<Binding>);

impl Bindings {
    /// The function `e` names, if `e` is an identifier the typer
    /// resolved to a function rather than to a variable.
    pub fn fn_named<'e>(&self, e: &'e Expr) -> Option<&'e str> {
        self.named(e, Binding::Fn)
    }

    /// The global `e` names, if `e` is an identifier the typer
    /// resolved to a global.
    pub fn global_named<'e>(&self, e: &'e Expr) -> Option<&'e str> {
        self.named(e, Binding::Global)
    }

    fn named<'e>(&self, e: &'e Expr, binding: Binding) -> Option<&'e str> {
        match &e.kind {
            ExprKind::Ident(name) if self.0.get(&e.id) == Some(&binding) => Some(name),
            _ => None,
        }
    }
}

/// The per-function result: a type for every expression node, plus
/// local declaration types by node.
#[derive(Debug, Default)]
pub struct TypeTable {
    /// Type of each expression node. Field lookups record the
    /// containing instance's qualifier substitution already applied.
    pub exprs: NodeMap<Type>,
    /// For `Decl` statements, the declared type (post-elaboration).
    pub decls: NodeMap<Type>,
    /// What each identifier that is not a local names.
    pub bindings: Bindings,
    /// Typing errors, in the order the walk met them.
    pub errors: Vec<Diagnostic>,
}

/// The signature a callee of type `ty` is called with: `ty` is a
/// function or a pointer to one.
pub fn callee_sig(ty: &Type) -> Option<&FnSig> {
    match &ty.kind {
        TypeKind::Ptr(inner) => match &inner.kind {
            TypeKind::Fn(sig) => Some(sig),
            _ => None,
        },
        TypeKind::Fn(sig) => Some(sig),
        _ => None,
    }
}

/// Types every expression in `func`.
pub fn type_function(env: &TypeEnv<'_>, func: &FnDef) -> TypeTable {
    let mut t = FnTyper {
        env,
        table: TypeTable::default(),
        scopes: vec![HashMap::new()],
        ret: func.ret.clone(),
    };
    for p in &func.params {
        t.declare(&p.name, p.ty.clone());
    }
    t.block(&func.body);
    t.table
}

struct FnTyper<'e, 'p> {
    env: &'e TypeEnv<'p>,
    table: TypeTable,
    scopes: Vec<HashMap<String, Type>>,
    ret: Type,
}

/// A placeholder type recorded after a typing error, letting the walk
/// continue and report more problems.
fn error_type() -> Type {
    Type::int(Qual::Private)
}

impl<'e, 'p> FnTyper<'e, 'p> {
    fn declare(&mut self, name: &str, ty: Type) {
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_owned(), ty);
    }

    /// The type `name` has here, and what it names if not a local.
    fn lookup(&self, name: &str) -> Option<(Type, Option<Binding>)> {
        for scope in self.scopes.iter().rev() {
            if let Some(t) = scope.get(name) {
                return Some((t.clone(), None));
            }
        }
        if let Some(t) = self.env.globals.get(name) {
            return Some((t.clone(), Some(Binding::Global)));
        }
        // A function name used as a value: a pointer to fn.
        let sig = self.env.fn_sigs.get(name)?;
        let fn_ty = Type::new(TypeKind::Fn(Box::new(sig.clone())), Qual::Private);
        Some((Type::ptr(fn_ty, Qual::Private), Some(Binding::Fn)))
    }

    fn error(&mut self, msg: impl Into<String>, span: Span) -> Type {
        self.table.errors.push(Diagnostic::error(msg, span));
        error_type()
    }

    fn block(&mut self, b: &Block) {
        self.scopes.push(HashMap::new());
        for s in &b.stmts {
            self.stmt(s);
        }
        self.scopes.pop();
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Decl { name, ty, init } => {
                if let Some(e) = init {
                    self.expr(e);
                }
                self.declare(name, ty.clone());
                self.table.decls.insert(s.id, ty.clone());
            }
            StmtKind::Assign { lhs, rhs } => {
                self.expr(lhs);
                self.expr(rhs);
                if !lhs.is_lvalue() {
                    self.error("left side of assignment is not an l-value", lhs.span);
                }
            }
            StmtKind::Expr(e) => {
                self.expr(e);
            }
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
                self.scopes.push(HashMap::new());
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
                self.scopes.pop();
            }
            StmtKind::Return(value) => {
                if let Some(v) = value {
                    self.expr(v);
                } else if !self.ret.is_void() {
                    self.error("missing return value", s.span);
                }
            }
            StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Block(b) => self.block(b),
        }
    }

    fn expr(&mut self, e: &Expr) -> Type {
        let ty = self.expr_inner(e);
        self.table.exprs.insert(e.id, ty.clone());
        ty
    }

    fn expr_inner(&mut self, e: &Expr) -> Type {
        match &e.kind {
            ExprKind::IntLit(_) => Type::int(Qual::Private),
            ExprKind::CharLit(_) => Type::new(TypeKind::Char, Qual::Private),
            ExprKind::BoolLit(_) => Type::new(TypeKind::Bool, Qual::Private),
            ExprKind::StrLit(_) => {
                Type::ptr(Type::new(TypeKind::Char, Qual::Readonly), Qual::Private)
            }
            // NULL is assignable to any pointer; `Ptr(Void)` is the
            // bottom pointer type, special-cased in compatibility.
            ExprKind::Null => Type::ptr(Type::new(TypeKind::Void, Qual::Private), Qual::Private),
            ExprKind::Ident(name) => match self.lookup(name) {
                Some((t, binding)) => {
                    if let Some(b) = binding {
                        self.table.bindings.0.insert(e.id, b);
                    }
                    t
                }
                None => self.error(format!("unknown variable `{name}`"), e.span),
            },
            ExprKind::Unary(UnOp::Deref, inner) => {
                let t = self.expr(inner);
                match t.kind {
                    TypeKind::Ptr(p) => *p,
                    TypeKind::Array(elem, _) => *elem,
                    _ => self.error("dereference of non-pointer", e.span),
                }
            }
            ExprKind::Unary(UnOp::AddrOf, inner) => {
                let t = self.expr(inner);
                if !inner.is_lvalue() {
                    return self.error("address of non-l-value", e.span);
                }
                Type::ptr(t, Qual::Private)
            }
            ExprKind::Unary(_, inner) => {
                let t = self.expr(inner);
                if t.is_integral() {
                    t
                } else {
                    self.error("arithmetic on non-integer", e.span)
                }
            }
            ExprKind::Binary(op, a, b) => {
                let ta = self.expr(a);
                let tb = self.expr(b);
                if op.is_comparison() {
                    return Type::new(TypeKind::Bool, Qual::Private);
                }
                if op.is_logical() {
                    return Type::new(TypeKind::Bool, Qual::Private);
                }
                // Pointer arithmetic: ptr + int yields the same pointer
                // type (used in the paper's `*(fdata + i)` idiom).
                match (&ta.kind, &tb.kind) {
                    (TypeKind::Ptr(_) | TypeKind::Array(..), _)
                        if matches!(op, BinOp::Add | BinOp::Sub) && tb.is_integral() =>
                    {
                        match &ta.kind {
                            TypeKind::Array(elem, _) => Type::ptr((**elem).clone(), Qual::Private),
                            _ => ta,
                        }
                    }
                    (_, TypeKind::Ptr(_)) if matches!(op, BinOp::Add) && ta.is_integral() => tb,
                    (TypeKind::Ptr(_), TypeKind::Ptr(_)) if matches!(op, BinOp::Sub) => {
                        Type::int(Qual::Private)
                    }
                    _ if ta.is_integral() && tb.is_integral() => ta,
                    _ => self.error(format!("invalid operands to `{op}`"), e.span),
                }
            }
            ExprKind::Index(base, idx) => {
                let tb = self.expr(base);
                let ti = self.expr(idx);
                if !ti.is_integral() {
                    self.error("array index must be an integer", idx.span);
                }
                match tb.kind {
                    TypeKind::Ptr(p) => *p,
                    TypeKind::Array(elem, _) => *elem,
                    _ => self.error("indexing a non-array", e.span),
                }
            }
            ExprKind::Field(base, fname, arrow) => {
                let tb = self.expr(base);
                let (struct_ty, inst_qual) = if *arrow {
                    match &tb.kind {
                        TypeKind::Ptr(p) => ((**p).clone(), p.qual.clone()),
                        _ => return self.error(format!("`->{fname}` on non-pointer"), e.span),
                    }
                } else {
                    (tb.clone(), tb.qual.clone())
                };
                let TypeKind::Named(sname) = &struct_ty.kind else {
                    return self.error(format!("`{fname}` on non-struct"), e.span);
                };
                let Some(sid) = self.env.structs.lookup(sname) else {
                    return self.error(format!("unknown struct `{sname}`"), e.span);
                };
                let def = self.env.structs.def(sid);
                let Some(field) = def.field(fname) else {
                    return self.error(format!("struct `{sname}` has no field `{fname}`"), e.span);
                };
                substitute_instance(&field.ty, &inst_qual, base)
            }
            ExprKind::Call(callee, args) => self.call(e, callee, args),
            ExprKind::Cast(ty, inner) => {
                self.expr(inner);
                ty.clone()
            }
            ExprKind::Scast(ty, inner) => {
                let t_in = self.expr(inner);
                if !inner.is_lvalue() {
                    self.error("SCAST source must be an l-value (it is nulled out)", e.span);
                }
                if !ty.is_ptr() || !t_in.is_ptr() && !matches!(t_in.kind, TypeKind::Array(..)) {
                    self.error("SCAST requires pointer types", e.span);
                }
                if let (Some(a), Some(b)) = (ty.pointee(), t_in.pointee()) {
                    if a.is_void() || b.is_void() {
                        self.error(
                            "sharing casts that change qualifiers of (void *) are forbidden; \
                             cast to a concrete type first",
                            e.span,
                        );
                    }
                }
                ty.clone()
            }
            ExprKind::New(ty) => Type::ptr(ty.clone(), Qual::Private),
            ExprKind::NewArray(ty, n) => {
                let tn = self.expr(n);
                if !tn.is_integral() {
                    self.error("newarray count must be an integer", n.span);
                }
                Type::ptr(ty.clone(), Qual::Private)
            }
            ExprKind::Sizeof(_) => Type::int(Qual::Private),
            ExprKind::Ternary(c, a, b) => {
                self.expr(c);
                let ta = self.expr(a);
                let tb = self.expr(b);
                if ta.same_shape(&tb) {
                    ta
                } else if matches!(tb.kind, TypeKind::Ptr(_)) && is_null_ptr(&ta) {
                    tb
                } else if matches!(ta.kind, TypeKind::Ptr(_)) && is_null_ptr(&tb) {
                    ta
                } else {
                    self.error("mismatched ternary branches", e.span)
                }
            }
        }
    }

    fn call(&mut self, e: &Expr, callee: &Expr, args: &[Expr]) -> Type {
        // Builtins.
        if let ExprKind::Ident(name) = &callee.kind {
            if is_builtin(name) {
                return self.builtin_call(e, name, args);
            }
        }
        let tc = self.expr(callee);
        let Some(sig) = callee_sig(&tc) else {
            return self.error("call of non-function", e.span);
        };
        if sig.params.len() != args.len() {
            return self.error(
                format!(
                    "call expects {} argument(s), got {}",
                    sig.params.len(),
                    args.len()
                ),
                e.span,
            );
        }
        for (arg, p) in args.iter().zip(&sig.params) {
            let ta = self.expr(arg);
            let null_ok = p.ty.is_ptr() && is_null_ptr(&ta);
            if !(ta.same_shape(&p.ty) || null_ok) {
                self.error(
                    format!(
                        "argument type `{}` does not match parameter type `{}`",
                        pretty::type_str(&ta),
                        pretty::type_str(&p.ty)
                    ),
                    arg.span,
                );
            }
        }
        sig.ret.clone()
    }

    fn builtin_call(&mut self, e: &Expr, name: &str, args: &[Expr]) -> Type {
        let arg_tys: Vec<Type> = args.iter().map(|a| self.expr(a)).collect();
        let void = Type::new(TypeKind::Void, Qual::Private);
        let int = Type::int(Qual::Private);
        let expect = |this: &mut Self, n: usize| {
            if args.len() != n {
                this.error(
                    format!("`{name}` expects {n} argument(s), got {}", args.len()),
                    e.span,
                );
            }
        };
        match name {
            "spawn" => {
                expect(self, 2);
                if let Some(t) = arg_tys.first() {
                    if callee_sig(t).is_none() {
                        self.error("first argument of `spawn` must be a function", e.span);
                    }
                }
                int
            }
            "join" => {
                expect(self, 1);
                void
            }
            "join_all" | "yield_now" => {
                expect(self, 0);
                void
            }
            "mutex_lock" | "mutex_unlock" => {
                expect(self, 1);
                if let Some(t) = arg_tys.first() {
                    if !matches!(&t.kind, TypeKind::Ptr(p) if matches!(p.kind, TypeKind::Mutex)) {
                        self.error(format!("`{name}` expects a mutex pointer"), e.span);
                    }
                }
                void
            }
            "cond_wait" => {
                expect(self, 2);
                if let Some(t) = arg_tys.first() {
                    if !matches!(&t.kind, TypeKind::Ptr(p) if matches!(p.kind, TypeKind::Cond)) {
                        self.error("`cond_wait` expects a cond pointer", e.span);
                    }
                }
                if let Some(t) = arg_tys.get(1) {
                    if !matches!(&t.kind, TypeKind::Ptr(p) if matches!(p.kind, TypeKind::Mutex)) {
                        self.error("`cond_wait` expects a mutex pointer", e.span);
                    }
                }
                void
            }
            "cond_signal" | "cond_broadcast" => {
                expect(self, 1);
                if let Some(t) = arg_tys.first() {
                    if !matches!(&t.kind, TypeKind::Ptr(p) if matches!(p.kind, TypeKind::Cond)) {
                        self.error(format!("`{name}` expects a cond pointer"), e.span);
                    }
                }
                void
            }
            "free" => {
                expect(self, 1);
                if let Some(t) = arg_tys.first() {
                    if !t.is_ptr() {
                        self.error("`free` expects a pointer", e.span);
                    }
                }
                void
            }
            "print" | "assert" => {
                expect(self, 1);
                void
            }
            "print_str" => {
                expect(self, 1);
                void
            }
            "random" => {
                expect(self, 1);
                int
            }
            other => self.error(format!("unknown builtin `{other}`"), e.span),
        }
    }
}

fn is_null_ptr(t: &Type) -> bool {
    matches!(&t.kind, TypeKind::Ptr(p) if p.is_void())
}

/// Substitutes the struct instance qualifier into a field type:
/// `Poly` outer qualifiers become `inst_qual`, and `locked(f)` paths
/// whose base names a sibling field are re-rooted at the instance
/// expression (`locked(mut)` accessed via `S` becomes `locked(S->mut)`).
pub fn substitute_instance(field_ty: &Type, inst_qual: &Qual, base: &Expr) -> Type {
    let mut ty = field_ty.clone();
    let base_str = pretty::expr(base);
    subst(&mut ty, inst_qual, &base_str, true);
    ty
}

fn subst(ty: &mut Type, inst_qual: &Qual, base_str: &str, outermost: bool) {
    match &mut ty.qual {
        Qual::Poly if outermost => ty.qual = inst_qual.clone(),
        Qual::Poly => ty.qual = inst_qual.clone(),
        Qual::Locked(path)
            // Re-root sibling-relative lock paths at the instance.
            if !path.segs[0].contains("->") && !path.segs[0].contains('.') => {
                let mut segs = vec![base_str.to_owned()];
                segs.extend(path.segs.iter().cloned());
                *path = LockPath::new(segs, path.span);
            }
        _ => {}
    }
    match &mut ty.kind {
        TypeKind::Ptr(inner) | TypeKind::Array(inner, _) => {
            subst(inner, inst_qual, base_str, false)
        }
        TypeKind::Fn(sig) => {
            subst(&mut sig.ret, inst_qual, base_str, false);
            for p in &mut sig.params {
                subst(&mut p.ty, inst_qual, base_str, false);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::parse;

    fn type_first_fn(src: &str) -> (Program, TypeTable) {
        let p = parse(src).unwrap();
        let structs = StructTable::build(&p).unwrap();
        let env = TypeEnv::new(&p, &structs);
        let table = type_function(&env, &p.fns[0]);
        (p.clone(), table)
    }

    #[test]
    fn types_arithmetic() {
        let (_, t) = type_first_fn("void f() { int x; x = 1 + 2 * 3; }");
        assert!(t.errors.is_empty(), "{:?}", t.errors);
    }

    #[test]
    fn rejects_deref_of_int() {
        let (_, t) = type_first_fn("void f() { int x; x = *x; }");
        assert!(!t.errors.is_empty());
    }

    #[test]
    fn types_field_access_with_poly_subst() {
        let src = "struct s { int dynamic x; };\n\
                   void f(struct s dynamic * private p) { int y; y = p->x; }";
        let (prog, t) = type_first_fn(src);
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        // Find the p->x expression and check its type.
        let f = &prog.fns[0];
        let mut found = false;
        if let StmtKind::Assign { rhs, .. } = &f.body.stmts[1].kind {
            let ty = &t.exprs[&rhs.id];
            assert_eq!(ty.qual, Qual::Dynamic);
            found = true;
        }
        assert!(found);
    }

    #[test]
    fn poly_field_inherits_instance_qual() {
        let src = "struct s { int x; };\n\
                   void f(struct s dynamic * private p) { int y; y = p->x; }";
        let p = parse(src).unwrap();
        // Simulate elaboration having set the field's qual to Poly.
        let mut p = p;
        p.structs[0].fields[0].ty.qual = Qual::Poly;
        let structs = StructTable::build(&p).unwrap();
        let env = TypeEnv::new(&p, &structs);
        let t = type_function(&env, &p.fns[0]);
        if let StmtKind::Assign { rhs, .. } = &p.fns[0].body.stmts[1].kind {
            assert_eq!(t.exprs[&rhs.id].qual, Qual::Dynamic);
        } else {
            panic!("expected assign");
        }
    }

    #[test]
    fn locked_path_rerooted_at_instance() {
        let src = "struct s { mutex racy * readonly mut; char locked(mut) *locked(mut) sdata; };\n\
                   void f(struct s dynamic * private S) { char * c; c = S->sdata; }";
        let (prog, t) = type_first_fn(src);
        let f = &prog.fns[0];
        if let StmtKind::Assign { rhs, .. } = &f.body.stmts[1].kind {
            match &t.exprs[&rhs.id].qual {
                Qual::Locked(path) => assert_eq!(path.to_string(), "S->mut"),
                other => panic!("expected locked, got {other:?}"),
            }
        } else {
            panic!("expected assign");
        }
    }

    #[test]
    fn pointer_arithmetic_keeps_type() {
        let (prog, t) = type_first_fn(
            "void f(char private * private fdata, int i) { char c; c = *(fdata + i); }",
        );
        assert!(t.errors.is_empty(), "{:?}", t.errors);
        let f = &prog.fns[0];
        if let StmtKind::Assign { rhs, .. } = &f.body.stmts[1].kind {
            assert_eq!(t.exprs[&rhs.id].qual, Qual::Private);
        }
    }

    #[test]
    fn builtin_spawn_types() {
        let src = "void worker(int dynamic * d) { }\n\
                   void f(int dynamic * p) { int t; t = spawn(worker, p); join(t); }";
        let p = parse(src).unwrap();
        let structs = StructTable::build(&p).unwrap();
        let env = TypeEnv::new(&p, &structs);
        let t = type_function(&env, &p.fns[1]);
        assert!(t.errors.is_empty(), "{:?}", t.errors);
    }

    #[test]
    fn wrong_arg_count_is_error() {
        let src = "void g(int x) { }\nvoid f() { g(1, 2); }";
        let p = parse(src).unwrap();
        let structs = StructTable::build(&p).unwrap();
        let env = TypeEnv::new(&p, &structs);
        let t = type_function(&env, &p.fns[1]);
        assert!(!t.errors.is_empty());
    }

    #[test]
    fn scast_on_void_ptr_rejected() {
        let (_, t) = type_first_fn("void f(void * v) { void * w; w = SCAST(void *, v); }");
        assert!(!t.errors.is_empty());
    }

    #[test]
    fn null_assignable_shapewise() {
        let (_, t) = type_first_fn("void f(char * p) { p = NULL; }");
        assert!(t.errors.is_empty(), "{:?}", t.errors);
    }
}
