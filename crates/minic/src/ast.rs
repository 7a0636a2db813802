//! The MiniC abstract syntax tree, including types and SharC's
//! sharing-mode qualifiers.
//!
//! Every expression and statement carries a [`NodeId`] so later phases
//! (type checking, instrumentation, the VM compiler) can attach side
//! tables without mutating the tree.
//!
//! The tree's shape is spelled out once, in the walks: [`Expr::walk`],
//! [`Block::walk`] and `for_each_type_mut` on [`Block`] and
//! [`Program`]. A pass that treats every node kind alike calls a walk;
//! only a pass that treats statement or expression kinds differently
//! writes its own `match`.

use crate::span::Span;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::ControlFlow;

/// A unique id for an AST node, assigned by the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A side table keyed by node, hashed by [`NodeIdHasher`].
pub type NodeMap<V> = HashMap<NodeId, V, BuildHasherDefault<NodeIdHasher>>;

/// Hashes a [`NodeId`] with one multiply. Ids are dense parser
/// counters and every typed expression is a table insert, so the
/// default DoS-resistant hasher only costs time here.
#[derive(Debug, Default, Clone, Copy)]
pub struct NodeIdHasher(u64);

impl Hasher for NodeIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u32(&mut self, id: u32) {
        self.write_u64(u64::from(id));
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A sharing-mode qualifier, as written by the user or inferred by
/// SharC's sharing analysis (paper §2, §4.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Qual {
    /// No annotation written; to be resolved by the sharing analysis.
    Infer,
    /// Owned by one thread; only that thread may access it (static).
    Private,
    /// Readable by any thread, not writable — except a `readonly` field
    /// of a `private` struct, which is writable (static).
    Readonly,
    /// Protected by the lock named by the path; accesses checked at
    /// runtime against the thread's held-lock log.
    Locked(LockPath),
    /// Intentionally racy; no enforcement.
    Racy,
    /// Checked at runtime: read-only or accessed by a single thread.
    Dynamic,
    /// A struct's instance qualifier `q`: unqualified fields inherit
    /// the qualifier of the containing structure instance.
    Poly,
    /// An inference variable introduced by elaboration (internal).
    Var(u32),
}

impl Qual {
    /// True if this is a concrete user-visible mode (not `Infer`,
    /// `Var`, or `Poly`).
    pub fn is_concrete(&self) -> bool {
        !matches!(self, Qual::Infer | Qual::Var(_) | Qual::Poly)
    }
}

impl fmt::Display for Qual {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Qual::Infer => write!(f, "<infer>"),
            Qual::Private => write!(f, "private"),
            Qual::Readonly => write!(f, "readonly"),
            Qual::Locked(p) => write!(f, "locked({p})"),
            Qual::Racy => write!(f, "racy"),
            Qual::Dynamic => write!(f, "dynamic"),
            Qual::Poly => write!(f, "q"),
            Qual::Var(v) => write!(f, "?{v}"),
        }
    }
}

/// The restricted lock expression allowed inside `locked(...)`:
/// a variable or field name followed by zero or more `->field`
/// dereferences, e.g. `mut`, `S->mut`, `g->inner->lock`.
///
/// The first segment is resolved by the checker to either a sibling
/// field of the enclosing struct or a variable in scope; for soundness
/// it must be verifiably constant (an unmodified local, a formal, or a
/// `readonly` value).
///
/// Two lock paths are equal, and hash alike, when their segments are:
/// where each was written does not matter.
#[derive(Debug, Clone)]
pub struct LockPath {
    pub segs: Vec<String>,
    pub span: Span,
}

impl PartialEq for LockPath {
    fn eq(&self, other: &Self) -> bool {
        self.segs == other.segs
    }
}

impl Eq for LockPath {}

impl Hash for LockPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.segs.hash(state);
    }
}

impl LockPath {
    /// Creates a lock path from its segments.
    pub fn new(segs: Vec<String>, span: Span) -> Self {
        debug_assert!(!segs.is_empty(), "lock path needs at least one segment");
        LockPath { segs, span }
    }

    /// The base variable or field name.
    pub fn base(&self) -> &str {
        &self.segs[0]
    }
}

impl fmt::Display for LockPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.segs.join("->"))
    }
}

/// A MiniC type: a shape ([`TypeKind`]) plus the sharing mode of the
/// storage at this level.
///
/// In `int dynamic * private p`, the pointee level is
/// `Type { kind: Int, qual: Dynamic }` and the whole type is
/// `Type { kind: Ptr(..), qual: Private }`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Type {
    pub kind: TypeKind,
    pub qual: Qual,
}

impl Type {
    /// Creates a type with the given shape and qualifier.
    pub fn new(kind: TypeKind, qual: Qual) -> Self {
        Type { kind, qual }
    }

    /// Creates an unannotated type (qualifier to be inferred).
    pub fn unqual(kind: TypeKind) -> Self {
        Type {
            kind,
            qual: Qual::Infer,
        }
    }

    /// Shorthand for `int` with a qualifier.
    pub fn int(qual: Qual) -> Self {
        Type::new(TypeKind::Int, qual)
    }

    /// Shorthand for a pointer to `inner` with a qualifier.
    pub fn ptr(inner: Type, qual: Qual) -> Self {
        Type::new(TypeKind::Ptr(Box::new(inner)), qual)
    }

    /// Returns the pointee type if this is a pointer.
    pub fn pointee(&self) -> Option<&Type> {
        match &self.kind {
            TypeKind::Ptr(inner) => Some(inner),
            _ => None,
        }
    }

    /// Returns the element type if this is an array.
    pub fn elem(&self) -> Option<&Type> {
        match &self.kind {
            TypeKind::Array(inner, _) => Some(inner),
            _ => None,
        }
    }

    /// True if the shape is a pointer.
    pub fn is_ptr(&self) -> bool {
        matches!(self.kind, TypeKind::Ptr(_))
    }

    /// True if the shape is `void`.
    pub fn is_void(&self) -> bool {
        matches!(self.kind, TypeKind::Void)
    }

    /// True for integer-like scalars (`int`, `char`, `bool`).
    pub fn is_integral(&self) -> bool {
        matches!(self.kind, TypeKind::Int | TypeKind::Char | TypeKind::Bool)
    }

    /// Visits every level of the type top-down (self, then pointee /
    /// element / field-free levels reachable without a struct table).
    pub fn for_each_level<'t>(&'t self, f: &mut impl FnMut(&'t Type)) {
        f(self);
        match &self.kind {
            TypeKind::Ptr(inner) | TypeKind::Array(inner, _) => inner.for_each_level(f),
            TypeKind::Fn(sig) => {
                sig.ret.for_each_level(f);
                for p in &sig.params {
                    p.ty.for_each_level(f);
                }
            }
            _ => {}
        }
    }

    /// Mutable variant of [`Type::for_each_level`].
    pub fn for_each_level_mut(&mut self, f: &mut impl FnMut(&mut Type)) {
        f(self);
        match &mut self.kind {
            TypeKind::Ptr(inner) | TypeKind::Array(inner, _) => inner.for_each_level_mut(f),
            TypeKind::Fn(sig) => {
                sig.ret.for_each_level_mut(f);
                for p in &mut sig.params {
                    p.ty.for_each_level_mut(f);
                }
            }
            _ => {}
        }
    }

    /// True if the two types have the same shape, ignoring qualifiers.
    pub fn same_shape(&self, other: &Type) -> bool {
        match (&self.kind, &other.kind) {
            (TypeKind::Int, TypeKind::Int)
            | (TypeKind::Char, TypeKind::Char)
            | (TypeKind::Bool, TypeKind::Bool)
            | (TypeKind::Void, TypeKind::Void)
            | (TypeKind::Mutex, TypeKind::Mutex)
            | (TypeKind::Cond, TypeKind::Cond) => true,
            (TypeKind::Named(a), TypeKind::Named(b)) => a == b,
            (TypeKind::Ptr(a), TypeKind::Ptr(b)) => a.same_shape(b),
            (TypeKind::Array(a, n), TypeKind::Array(b, m)) => n == m && a.same_shape(b),
            (TypeKind::Fn(a), TypeKind::Fn(b)) => {
                a.ret.same_shape(&b.ret)
                    && a.params.len() == b.params.len()
                    && a.params
                        .iter()
                        .zip(&b.params)
                        .all(|(x, y)| x.ty.same_shape(&y.ty))
            }
            _ => false,
        }
    }
}

/// The shape of a MiniC type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeKind {
    Int,
    Char,
    Bool,
    Void,
    /// A pthread-style mutex; inherently `racy` (paper §2.1).
    Mutex,
    /// A pthread-style condition variable; inherently `racy`.
    Cond,
    /// A named struct type.
    Named(String),
    Ptr(Box<Type>),
    Array(Box<Type>, usize),
    /// A function type; only valid behind a pointer.
    Fn(Box<FnSig>),
}

/// A function signature used in function-pointer types.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FnSig {
    pub ret: Type,
    pub params: Vec<Param>,
}

/// One formal parameter: an optional name (required on definitions)
/// plus a type.
///
/// Two parameters are equal, and hash alike, when their types are: a
/// function type is the same type whatever its parameters are named
/// and wherever it is written.
#[derive(Debug, Clone)]
pub struct Param {
    pub name: String,
    pub ty: Type,
    pub span: Span,
}

impl PartialEq for Param {
    fn eq(&self, other: &Self) -> bool {
        self.ty == other.ty
    }
}

impl Eq for Param {}

impl Hash for Param {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.ty.hash(state);
    }
}

/// A whole translation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub structs: Vec<StructDef>,
    pub globals: Vec<GlobalDef>,
    pub fns: Vec<FnDef>,
}

impl Program {
    /// Looks up a function definition by name.
    pub fn fn_by_name(&self, name: &str) -> Option<&FnDef> {
        self.fns.iter().find(|f| f.name == name)
    }

    /// Looks up a struct definition by name.
    pub fn struct_by_name(&self, name: &str) -> Option<&StructDef> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// Looks up a global definition by name.
    pub fn global_by_name(&self, name: &str) -> Option<&GlobalDef> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Visits every written type with the span elaboration reports it
    /// at: struct fields, then globals, then per function its return
    /// type (the function's span), its parameters, and its body as
    /// [`Block::for_each_type_mut`] does. Global initializers are not
    /// visited: the VM compiler accepts only constants there.
    pub fn for_each_type_mut(&mut self, f: &mut impl FnMut(&mut Type, Span)) {
        for sd in &mut self.structs {
            for fld in &mut sd.fields {
                f(&mut fld.ty, fld.span);
            }
        }
        for g in &mut self.globals {
            f(&mut g.ty, g.span);
        }
        for func in &mut self.fns {
            f(&mut func.ret, func.span);
            for p in &mut func.params {
                f(&mut p.ty, p.span);
            }
            func.body.for_each_type_mut(f);
        }
    }
}

/// A struct definition, optionally marked inherently `racy`.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    pub name: String,
    pub fields: Vec<Field>,
    pub racy: bool,
    pub span: Span,
    /// The typedef alias, if declared via `typedef struct n {...} alias;`.
    pub alias: Option<String>,
}

impl StructDef {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// One struct field.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    pub name: String,
    pub ty: Type,
    pub span: Span,
}

/// A global variable definition.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDef {
    pub name: String,
    pub ty: Type,
    pub init: Option<Expr>,
    pub span: Span,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FnDef {
    pub name: String,
    pub ret: Type,
    pub params: Vec<Param>,
    pub body: Block,
    pub span: Span,
}

impl FnDef {
    /// This function's signature as a [`FnSig`].
    pub fn sig(&self) -> FnSig {
        FnSig {
            ret: self.ret.clone(),
            params: self.params.clone(),
        }
    }
}

/// A brace-delimited statement sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

/// One node handed to a [`Block::walk`] callback.
#[derive(Debug, Clone, Copy)]
pub enum Node<'a> {
    Stmt(&'a Stmt),
    Expr(&'a Expr),
}

impl Block {
    /// Pre-order walk over every statement, nested ones included, and
    /// every expression, in source order; see [`Stmt::walk`]. `f`
    /// returns `false` to skip the node's children.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(Node<'a>) -> bool) {
        for s in &self.stmts {
            s.walk(f);
        }
    }

    /// Visits every type written in the block with the span
    /// elaboration reports it at: a declaration's type (the
    /// statement's span) before its initializer, and the type of a
    /// `Cast`, `Scast`, `New`, `NewArray` or `Sizeof` (the expression's
    /// span) before its operand, in [`Block::walk`] order.
    pub fn for_each_type_mut(&mut self, f: &mut impl FnMut(&mut Type, Span)) {
        for s in &mut self.stmts {
            s.for_each_type_mut(f);
        }
    }
}

impl Stmt {
    /// Pre-order walk over this statement, its nested statements and
    /// every expression, in source order: a declaration's initializer;
    /// an assignment's lhs, then rhs; a condition before its branches;
    /// a `for`'s init, cond, step, then body. Each expression is walked
    /// as [`Expr::walk`] does. `f` returns `false` to skip the node's
    /// children.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(Node<'a>) -> bool) {
        fn expr<'a>(e: &'a Expr, f: &mut impl FnMut(Node<'a>) -> bool) {
            e.walk(&mut |e| f(Node::Expr(e)));
        }
        if !f(Node::Stmt(self)) {
            return;
        }
        match &self.kind {
            StmtKind::Decl { init, .. } => {
                if let Some(e) = init {
                    expr(e, f);
                }
            }
            StmtKind::Assign { lhs, rhs } => {
                expr(lhs, f);
                expr(rhs, f);
            }
            StmtKind::Expr(e) | StmtKind::Return(Some(e)) => expr(e, f),
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                expr(cond, f);
                then_blk.walk(f);
                if let Some(b) = else_blk {
                    b.walk(f);
                }
            }
            StmtKind::While { cond, body } => {
                expr(cond, f);
                body.walk(f);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(s) = init {
                    s.walk(f);
                }
                if let Some(e) = cond {
                    expr(e, f);
                }
                if let Some(s) = step {
                    s.walk(f);
                }
                body.walk(f);
            }
            StmtKind::Block(b) => b.walk(f),
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
        }
    }

    fn for_each_type_mut(&mut self, f: &mut impl FnMut(&mut Type, Span)) {
        match &mut self.kind {
            StmtKind::Decl { ty, init, .. } => {
                f(ty, self.span);
                if let Some(e) = init {
                    e.for_each_type_mut(f);
                }
            }
            StmtKind::Assign { lhs, rhs } => {
                lhs.for_each_type_mut(f);
                rhs.for_each_type_mut(f);
            }
            StmtKind::Expr(e) | StmtKind::Return(Some(e)) => e.for_each_type_mut(f),
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                cond.for_each_type_mut(f);
                then_blk.for_each_type_mut(f);
                if let Some(b) = else_blk {
                    b.for_each_type_mut(f);
                }
            }
            StmtKind::While { cond, body } => {
                cond.for_each_type_mut(f);
                body.for_each_type_mut(f);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(s) = init {
                    s.for_each_type_mut(f);
                }
                if let Some(e) = cond {
                    e.for_each_type_mut(f);
                }
                if let Some(s) = step {
                    s.for_each_type_mut(f);
                }
                body.for_each_type_mut(f);
            }
            StmtKind::Block(b) => b.for_each_type_mut(f),
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
        }
    }
}

/// A statement with id and span.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub kind: StmtKind,
    pub span: Span,
    pub id: NodeId,
}

/// Statement shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// A local declaration, optionally initialized.
    Decl {
        name: String,
        ty: Type,
        init: Option<Expr>,
    },
    /// `lhs = rhs;` — the only place memory is written.
    Assign {
        lhs: Expr,
        rhs: Expr,
    },
    /// An expression evaluated for effect (typically a call).
    Expr(Expr),
    If {
        cond: Expr,
        then_blk: Block,
        else_blk: Option<Block>,
    },
    While {
        cond: Expr,
        body: Block,
    },
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Box<Stmt>>,
        body: Block,
    },
    Return(Option<Expr>),
    Break,
    Continue,
    Block(Block),
}

/// An expression with id and span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
    pub id: NodeId,
}

impl Expr {
    /// True if this expression is a syntactic l-value.
    pub fn is_lvalue(&self) -> bool {
        matches!(
            self.kind,
            ExprKind::Ident(_)
                | ExprKind::Unary(UnOp::Deref, _)
                | ExprKind::Index(..)
                | ExprKind::Field(..)
        )
    }

    /// Pre-order walk over this expression and every sub-expression,
    /// left to right: a call's callee before its arguments, a cast's
    /// operand after the cast. `f` returns `false` to skip the node's
    /// sub-expressions.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr) -> bool) {
        let _ = self.try_walk(&mut |e| ControlFlow::<(), _>::Continue(f(e)));
    }

    /// The first node in [`Expr::walk`] order that satisfies `pred`;
    /// the walk stops there.
    pub fn find<'a>(&'a self, mut pred: impl FnMut(&'a Expr) -> bool) -> Option<&'a Expr> {
        let hit = self.try_walk(&mut |e| {
            if pred(e) {
                ControlFlow::Break(e)
            } else {
                ControlFlow::Continue(true)
            }
        });
        match hit {
            ControlFlow::Break(e) => Some(e),
            ControlFlow::Continue(()) => None,
        }
    }

    /// True if `pred` holds for this expression or any sub-expression.
    pub fn any(&self, pred: impl FnMut(&Expr) -> bool) -> bool {
        self.find(pred).is_some()
    }

    /// The walk itself: `f` answers `Continue(descend?)` or `Break`.
    fn try_walk<'a, B>(
        &'a self,
        f: &mut impl FnMut(&'a Expr) -> ControlFlow<B, bool>,
    ) -> ControlFlow<B> {
        if !f(self)? {
            return ControlFlow::Continue(());
        }
        match &self.kind {
            ExprKind::IntLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::Null
            | ExprKind::Ident(_)
            | ExprKind::New(_)
            | ExprKind::Sizeof(_) => {}
            ExprKind::Unary(_, a)
            | ExprKind::Field(a, _, _)
            | ExprKind::Cast(_, a)
            | ExprKind::Scast(_, a)
            | ExprKind::NewArray(_, a) => a.try_walk(f)?,
            ExprKind::Binary(_, a, b) | ExprKind::Index(a, b) => {
                a.try_walk(f)?;
                b.try_walk(f)?;
            }
            ExprKind::Call(callee, args) => {
                callee.try_walk(f)?;
                for a in args {
                    a.try_walk(f)?;
                }
            }
            ExprKind::Ternary(c, a, b) => {
                c.try_walk(f)?;
                a.try_walk(f)?;
                b.try_walk(f)?;
            }
        }
        ControlFlow::Continue(())
    }

    fn for_each_type_mut(&mut self, f: &mut impl FnMut(&mut Type, Span)) {
        match &mut self.kind {
            ExprKind::IntLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::Null
            | ExprKind::Ident(_) => {}
            ExprKind::New(ty) | ExprKind::Sizeof(ty) => f(ty, self.span),
            ExprKind::Cast(ty, a) | ExprKind::Scast(ty, a) | ExprKind::NewArray(ty, a) => {
                f(ty, self.span);
                a.for_each_type_mut(f);
            }
            ExprKind::Unary(_, a) | ExprKind::Field(a, _, _) => a.for_each_type_mut(f),
            ExprKind::Binary(_, a, b) | ExprKind::Index(a, b) => {
                a.for_each_type_mut(f);
                b.for_each_type_mut(f);
            }
            ExprKind::Call(callee, args) => {
                callee.for_each_type_mut(f);
                for a in args {
                    a.for_each_type_mut(f);
                }
            }
            ExprKind::Ternary(c, a, b) => {
                c.for_each_type_mut(f);
                a.for_each_type_mut(f);
                b.for_each_type_mut(f);
            }
        }
    }
}

/// Expression shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    IntLit(i64),
    CharLit(u8),
    BoolLit(bool),
    StrLit(String),
    Null,
    Ident(String),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `base[index]`
    Index(Box<Expr>, Box<Expr>),
    /// `base.field` (`arrow == false`) or `base->field` (`arrow == true`)
    Field(Box<Expr>, String, bool),
    /// A direct or indirect call. Builtins (`spawn`, `mutex_lock`, ...)
    /// appear here with an `Ident` callee.
    Call(Box<Expr>, Vec<Expr>),
    /// An ordinary C cast `(type)e`. Sharing modes may not change here.
    Cast(Type, Box<Expr>),
    /// `SCAST(type, lval)` — the sharing cast: nulls out `lval` and
    /// checks the reference count is one (paper §2, Fig. 7).
    Scast(Type, Box<Expr>),
    /// `new(type)` — allocates one zeroed object of `type`.
    New(Type),
    /// `newarray(type, n)` — allocates `n` zeroed objects of `type`.
    NewArray(Type, Box<Expr>),
    /// `sizeof(type)` in cells.
    Sizeof(Type),
    /// `cond ? a : b`
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `*e`
    Deref,
    /// `&e`
    AddrOf,
    /// `-e`
    Neg,
    /// `!e`
    Not,
    /// `~e`
    BitNot,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Deref => "*",
            UnOp::AddrOf => "&",
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
        };
        write!(f, "{s}")
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    /// True for comparison operators (result type `bool`).
    pub fn is_comparison(self) -> bool {
        use BinOp::*;
        matches!(self, Eq | Ne | Lt | Le | Gt | Ge)
    }

    /// True for the short-circuiting logical operators.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use BinOp::*;
        let s = match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Rem => "%",
            And => "&&",
            Or => "||",
            BitAnd => "&",
            BitOr => "|",
            BitXor => "^",
            Shl => "<<",
            Shr => ">>",
            Eq => "==",
            Ne => "!=",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Names of the built-in functions recognized by the checker and VM.
pub const BUILTINS: &[&str] = &[
    "spawn",
    "join",
    "join_all",
    "mutex_lock",
    "mutex_unlock",
    "cond_wait",
    "cond_signal",
    "cond_broadcast",
    "free",
    "print",
    "print_str",
    "assert",
    "random",
    "yield_now",
];

/// Returns true if `name` is a MiniC builtin function.
pub fn is_builtin(name: &str) -> bool {
    BUILTINS.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_shape_comparison_ignores_quals() {
        let a = Type::ptr(Type::int(Qual::Dynamic), Qual::Private);
        let b = Type::ptr(Type::int(Qual::Private), Qual::Dynamic);
        assert!(a.same_shape(&b));
        let c = Type::int(Qual::Private);
        assert!(!a.same_shape(&c));
    }

    #[test]
    fn for_each_level_visits_all() {
        let t = Type::ptr(
            Type::ptr(Type::int(Qual::Dynamic), Qual::Dynamic),
            Qual::Private,
        );
        let mut quals = Vec::new();
        t.for_each_level(&mut |l| quals.push(l.qual.clone()));
        assert_eq!(quals, vec![Qual::Private, Qual::Dynamic, Qual::Dynamic]);
    }

    #[test]
    fn lock_path_display() {
        let p = LockPath::new(vec!["S".into(), "mut".into()], Span::DUMMY);
        assert_eq!(p.to_string(), "S->mut");
        assert_eq!(p.base(), "S");
    }

    #[test]
    fn types_compare_by_structure_not_by_names_or_spans() {
        let p = crate::parse(
            "mutex * m;\n\
             void (* f)(int locked(m) * x, char c);\n\
             void (* g)(int locked(m) * y,\n    char d);",
        )
        .unwrap();
        let (f, g) = (&p.globals[1].ty, &p.globals[2].ty);
        let (TypeKind::Ptr(fs), TypeKind::Ptr(gs)) = (&f.kind, &g.kind) else {
            panic!("expected function pointers")
        };
        let (TypeKind::Fn(fs), TypeKind::Fn(gs)) = (&fs.kind, &gs.kind) else {
            panic!("expected function types")
        };
        assert_ne!(fs.params[0].name, gs.params[0].name);
        assert_ne!(fs.params[0].span, gs.params[0].span);
        let lock = |sig: &FnSig| match &sig.params[0].ty.pointee().unwrap().qual {
            Qual::Locked(path) => path.span,
            q => panic!("expected a locked pointee, got {q}"),
        };
        assert_ne!(lock(fs), lock(gs));
        assert_eq!(f, g);
        use std::hash::BuildHasher;
        let h = std::collections::hash_map::RandomState::new();
        assert_eq!(h.hash_one(f), h.hash_one(g));
    }

    #[test]
    fn qual_concreteness() {
        assert!(Qual::Private.is_concrete());
        assert!(Qual::Dynamic.is_concrete());
        assert!(!Qual::Infer.is_concrete());
        assert!(!Qual::Var(3).is_concrete());
        assert!(!Qual::Poly.is_concrete());
    }

    #[test]
    fn builtins_recognized() {
        assert!(is_builtin("spawn"));
        assert!(is_builtin("mutex_lock"));
        assert!(!is_builtin("main"));
    }
}
