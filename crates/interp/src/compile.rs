//! Compiles a checked, instrumented MiniC program to VM bytecode.
//!
//! The compiler consults the [`sharc_core::Instrumentation`] table:
//! wherever the checker attached a runtime check to an l-value
//! occurrence, the corresponding `ChkRead`/`ChkWrite`/`ChkLockHeld`/
//! `OneRef` instruction is emitted immediately before the access —
//! the `when .1(t1),...` guards of the paper's formal model. The same
//! entry says whether static elision removed the check; the default
//! build then emits nothing for it, and [`compile_full_checks`]
//! emits it anyway.
//!
//! It does not type the program: every expression's solved type comes
//! from the checker's table ([`sharc_core::check::ExprTypes`], in
//! `Instrumentation::types`). Only a synthesized lock expression,
//! which the checker does not type, has its shape derived here.
//!
//! It also marks the schedule points ([`Insn::is_schedule_point`]):
//! every load, store and copy carries whether its storage's inferred
//! sharing mode is something other than `private`. The mark comes from
//! the solved type alone, never from the check table, so an access
//! whose check was elided is still a schedule point, and a build with
//! every check stripped runs on the checked build's schedule.

use crate::bytecode::*;
use minic::ast::{self, BinOp, Block, Expr, ExprKind, Qual, Stmt, StmtKind, Type, TypeKind, UnOp};
use minic::diag::Diagnostic;
use minic::env::StructTable;
use minic::span::Span;
use sharc_core::check::{AccessCheck, CheckKind};
use sharc_core::{CheckedProgram, ElisionSummary};
use std::collections::HashMap;

/// Compiles `checked` into a runnable [`Module`].
///
/// Check slots the elision pass proved redundant produce **no
/// instruction**; [`Module::elision`] is the front end's count of them
/// over the table compiled.
/// Use [`compile_full_checks`] for the every-check build.
///
/// # Errors
///
/// Returns a diagnostic for constructs the VM cannot execute
/// (struct-by-value parameters, non-constant global initializers,
/// missing `main`).
pub fn compile(checked: &CheckedProgram) -> Result<Module, Diagnostic> {
    compile_with(checked, true)
}

/// Compiles `checked` with the elision reasons ignored: every check the
/// checker attached becomes an instruction. This is the reference
/// build the elision differential compares against.
///
/// # Errors
///
/// Same failure modes as [`compile`].
pub fn compile_full_checks(checked: &CheckedProgram) -> Result<Module, Diagnostic> {
    compile_with(checked, false)
}

fn compile_with(checked: &CheckedProgram, use_elision: bool) -> Result<Module, Diagnostic> {
    let program = &checked.program;
    let structs = &checked.structs;

    // Globals.
    let mut globals: HashMap<String, (u32, Type)> = HashMap::new();
    let mut global_sizes = Vec::new();
    let mut global_inits = Vec::new();
    for (i, g) in program.globals.iter().enumerate() {
        let size = structs.size_of(&g.ty) as u32;
        globals.insert(g.name.clone(), (i as u32, g.ty.clone()));
        global_sizes.push(size);
        let mut init = vec![Value::ZERO; size as usize];
        if let Some(e) = &g.init {
            init[0] = const_value(e).ok_or_else(|| {
                Diagnostic::error(
                    "global initializers must be integer/char/bool constants or NULL",
                    g.span,
                )
            })?;
        }
        global_inits.push(init);
    }

    let fn_indices: HashMap<String, u32> = program
        .fns
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), i as u32))
        .collect();

    let mut strings: Vec<Vec<u8>> = Vec::new();
    let mut sites: Vec<CheckSite> = Vec::new();
    let mut site_map: ast::NodeMap<u32> = ast::NodeMap::default();

    let mut fns = Vec::new();
    for f in &program.fns {
        for p in &f.params {
            if structs.size_of(&p.ty) != 1 {
                return Err(Diagnostic::error(
                    "struct-by-value parameters are not supported; pass a pointer",
                    p.span,
                ));
            }
        }
        let mut c = FnCompiler {
            checked,
            structs,
            globals: &globals,
            fn_indices: &fn_indices,
            code: Vec::new(),
            scopes: vec![HashMap::new()],
            slot_types: Vec::new(),
            slot_sizes: Vec::new(),
            loop_stack: Vec::new(),
            strings: &mut strings,
            sites: &mut sites,
            site_map: &mut site_map,
            checks_enabled: true,
            use_elision,
        };
        for p in &f.params {
            c.declare_slot(&p.name, p.ty.clone(), 1);
        }
        c.block(&f.body)?;
        c.code.push(Insn::Ret(false));
        fns.push(FnCode {
            name: f.name.clone(),
            n_slots: c.slot_sizes.len() as u16,
            n_params: f.params.len() as u8,
            slot_sizes: c.slot_sizes,
            code: c.code,
        });
    }

    let entry = *fn_indices
        .get("main")
        .ok_or_else(|| Diagnostic::error("program has no `main` function", Span::DUMMY))?;

    Ok(Module {
        fns,
        entry,
        global_sizes,
        global_inits,
        strings,
        sites,
        file: checked.source_map.name().to_owned(),
        elision: if use_elision {
            ElisionSummary::of(&checked.instr)
        } else {
            ElisionSummary::default()
        },
    })
}

fn const_value(e: &Expr) -> Option<Value> {
    match &e.kind {
        ExprKind::IntLit(v) => Some(Value::Int(*v)),
        ExprKind::CharLit(c) => Some(Value::Int(*c as i64)),
        ExprKind::BoolLit(b) => Some(Value::Int(*b as i64)),
        ExprKind::Null => Some(Value::Ptr(Addr::NULL)),
        ExprKind::Unary(UnOp::Neg, inner) => match const_value(inner)? {
            Value::Int(v) => Some(Value::Int(-v)),
            _ => None,
        },
        _ => None,
    }
}

type CResult<T> = Result<T, Diagnostic>;

struct FnCompiler<'a> {
    checked: &'a CheckedProgram,
    structs: &'a StructTable,
    globals: &'a HashMap<String, (u32, Type)>,
    fn_indices: &'a HashMap<String, u32>,
    code: Vec<Insn>,
    scopes: Vec<HashMap<String, u16>>,
    slot_types: Vec<Type>,
    slot_sizes: Vec<u32>,
    /// (break-patch sites, continue target) per enclosing loop.
    loop_stack: Vec<(Vec<usize>, u32)>,
    strings: &'a mut Vec<Vec<u8>>,
    sites: &'a mut Vec<CheckSite>,
    site_map: &'a mut ast::NodeMap<u32>,
    /// Disabled while compiling synthesized lock expressions: they
    /// emit no checks and no schedule points.
    checks_enabled: bool,
    /// Whether a slot the checker marked elided is skipped; false for
    /// the full-checks build.
    use_elision: bool,
}

impl<'a> FnCompiler<'a> {
    fn declare_slot(&mut self, name: &str, ty: Type, size: u32) -> u16 {
        let slot = self.slot_types.len() as u16;
        self.slot_types.push(ty);
        self.slot_sizes.push(size);
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_owned(), slot);
        slot
    }

    fn lookup_local(&self, name: &str) -> Option<u16> {
        for scope in self.scopes.iter().rev() {
            if let Some(&s) = scope.get(name) {
                return Some(s);
            }
        }
        None
    }

    fn err(&self, msg: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(msg, span)
    }

    fn ty_of(&self, e: &Expr) -> CResult<Type> {
        // The checker typed every program expression; synthesized lock
        // paths are not in its table, so derive their shapes locally.
        if let Some(t) = self.checked.instr.types.get(e.id) {
            return Ok(t.clone());
        }
        self.shape_of(e)
    }

    /// Minimal shape typing for synthesized expressions (lock paths).
    fn shape_of(&self, e: &Expr) -> CResult<Type> {
        match &e.kind {
            ExprKind::Ident(name) => {
                if let Some(slot) = self.lookup_local(name) {
                    Ok(self.slot_types[slot as usize].clone())
                } else if let Some((_, ty)) = self.globals.get(name) {
                    Ok(ty.clone())
                } else {
                    Err(self.err(format!("unknown name `{name}` in lock path"), e.span))
                }
            }
            ExprKind::Field(base, fname, arrow) => {
                let bt = self.shape_of(base)?;
                let st = if *arrow {
                    bt.pointee()
                        .cloned()
                        .ok_or_else(|| self.err("`->` on non-pointer in lock path", e.span))?
                } else {
                    bt
                };
                let TypeKind::Named(sname) = &st.kind else {
                    return Err(self.err("field access on non-struct in lock path", e.span));
                };
                let sid = self
                    .structs
                    .lookup(sname)
                    .ok_or_else(|| self.err(format!("unknown struct `{sname}`"), e.span))?;
                let def = self.structs.def(sid);
                let field = def
                    .field(fname)
                    .ok_or_else(|| self.err(format!("no field `{fname}`"), e.span))?;
                Ok(field.ty.clone())
            }
            ExprKind::Unary(UnOp::Deref, p) => {
                let pt = self.shape_of(p)?;
                pt.pointee()
                    .cloned()
                    .ok_or_else(|| self.err("deref of non-pointer in lock path", e.span))
            }
            ExprKind::Index(base, _) => {
                let bt = self.shape_of(base)?;
                bt.pointee()
                    .or(bt.elem())
                    .cloned()
                    .ok_or_else(|| self.err("index of non-array in lock path", e.span))
            }
            _ => Err(self.err("unsupported expression in lock path", e.span)),
        }
    }

    fn size_of(&self, ty: &Type) -> u32 {
        self.structs.size_of(ty) as u32
    }

    /// True if an access to storage of type `ty` is a schedule point:
    /// another thread may reach it, because its inferred mode is not
    /// `private`. A lock expression's loads only evaluate a check's
    /// operand, so they never are.
    fn shared(&self, ty: &Type) -> bool {
        self.checks_enabled && !matches!(ty.qual, Qual::Private)
    }

    /// [`Self::shared`] for the storage l-value `e` names.
    fn shared_lvalue(&self, e: &Expr) -> CResult<bool> {
        Ok(self.shared(&self.ty_of(e)?))
    }

    fn site_for(&mut self, id: ast::NodeId, ac: &AccessCheck) -> u32 {
        if let Some(&s) = self.site_map.get(&id) {
            return s;
        }
        let s = self.sites.len() as u32;
        self.sites.push(CheckSite {
            lvalue: ac.lvalue.clone(),
            span: ac.span,
        });
        self.site_map.insert(id, s);
        s
    }

    /// Emits the read/write check attached to l-value node `id`, with
    /// the access address already on top of the stack.
    fn emit_check(&mut self, id: ast::NodeId, size: u32, is_write: bool) -> CResult<()> {
        if !self.checks_enabled {
            return Ok(());
        }
        let Some(ac) = self.checked.instr.checks.get(&id) else {
            return Ok(());
        };
        let (kind, elided) = if is_write {
            (&ac.write, ac.write_elided)
        } else {
            (&ac.read, ac.read_elided)
        };
        let Some(kind) = kind else { return Ok(()) };
        if self.use_elision && elided.is_some() {
            // The proven-redundant slot vanishes: no site, no
            // instruction, no lock-expression evaluation.
            return Ok(());
        }
        let site = self.site_for(id, ac);
        match *kind {
            CheckKind::Dynamic => {
                self.code.push(if is_write {
                    Insn::ChkWrite { site, size }
                } else {
                    Insn::ChkRead { site, size }
                });
            }
            CheckKind::Locked(lock_idx) => {
                let lock = &self.checked.instr.lock_exprs[lock_idx];
                let was = self.checks_enabled;
                self.checks_enabled = false;
                // A by-value mutex is identified by its address; a
                // `mutex *` lock expression is loaded.
                let lock_ty = self.ty_of(lock)?;
                if matches!(lock_ty.kind, TypeKind::Mutex) {
                    self.addr(lock)?;
                } else {
                    self.rvalue(lock)?;
                }
                self.checks_enabled = was;
                self.code.push(Insn::ChkLockHeld { site });
            }
        }
        Ok(())
    }

    // ----- statements -----

    fn block(&mut self, b: &Block) -> CResult<()> {
        self.scopes.push(HashMap::new());
        for s in &b.stmts {
            self.stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> CResult<()> {
        match &s.kind {
            StmtKind::Decl { name, ty, init } => {
                let size = self.size_of(ty);
                let slot = self.declare_slot(name, ty.clone(), size);
                if let Some(e) = init {
                    let shared = self.shared(ty);
                    self.code.push(Insn::LocalAddr(slot));
                    if size == 1 {
                        self.rvalue(e)?;
                        self.code.push(Insn::Store { shared });
                    } else {
                        self.addr(e)?;
                        let shared = shared || self.shared_lvalue(e)?;
                        self.code.push(Insn::CopyN {
                            cells: size,
                            shared,
                        });
                    }
                }
                Ok(())
            }
            StmtKind::Assign { lhs, rhs } => {
                let lt = self.ty_of(lhs)?;
                let size = self.size_of(&lt);
                let shared = self.shared(&lt);
                if size == 1 {
                    self.addr(lhs)?;
                    self.emit_check(lhs.id, 1, true)?;
                    self.rvalue(rhs)?;
                    self.code.push(Insn::Store { shared });
                } else {
                    self.addr(lhs)?;
                    self.emit_check(lhs.id, size, true)?;
                    self.addr(rhs)?;
                    self.emit_check(rhs.id, size, false)?;
                    let shared = shared || self.shared_lvalue(rhs)?;
                    self.code.push(Insn::CopyN {
                        cells: size,
                        shared,
                    });
                }
                Ok(())
            }
            StmtKind::Expr(e) => {
                if self.expr_pushes(e) {
                    self.rvalue(e)?;
                    self.code.push(Insn::Pop);
                } else {
                    self.rvalue(e)?;
                }
                Ok(())
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.rvalue(cond)?;
                let jz = self.emit_patch(Insn::JumpIfZero(0));
                self.block(then_blk)?;
                if let Some(eb) = else_blk {
                    let jend = self.emit_patch(Insn::Jump(0));
                    self.patch(jz);
                    self.block(eb)?;
                    self.patch(jend);
                } else {
                    self.patch(jz);
                }
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let top = self.code.len() as u32;
                self.rvalue(cond)?;
                let jz = self.emit_patch(Insn::JumpIfZero(0));
                self.loop_stack.push((Vec::new(), top));
                self.block(body)?;
                self.code.push(Insn::Jump(top));
                self.patch(jz);
                let (breaks, _) = self.loop_stack.pop().expect("loop stack");
                for b in breaks {
                    self.patch(b);
                }
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let top = self.code.len() as u32;
                let jz = if let Some(c) = cond {
                    self.rvalue(c)?;
                    Some(self.emit_patch(Insn::JumpIfZero(0)))
                } else {
                    None
                };
                // Continue jumps to the step, which we place after the
                // body; record a placeholder target now.
                self.loop_stack.push((Vec::new(), u32::MAX));
                self.block(body)?;
                let step_pos = self.code.len() as u32;
                if let Some(st) = step {
                    self.stmt(st)?;
                }
                self.code.push(Insn::Jump(top));
                if let Some(jz) = jz {
                    self.patch(jz);
                }
                let (breaks, _) = self.loop_stack.pop().expect("loop stack");
                for b in breaks {
                    self.patch(b);
                }
                // Retarget continues (emitted as Jump(u32::MAX)).
                let end = self.code.len();
                for insn in &mut self.code[top as usize..end] {
                    if let Insn::Jump(t) = insn {
                        if *t == u32::MAX {
                            *t = step_pos;
                        }
                    }
                }
                self.scopes.pop();
                Ok(())
            }
            StmtKind::Return(v) => {
                if let Some(e) = v {
                    self.rvalue(e)?;
                    self.code.push(Insn::Ret(true));
                } else {
                    self.code.push(Insn::Ret(false));
                }
                Ok(())
            }
            StmtKind::Break => {
                let j = self.emit_patch(Insn::Jump(0));
                match self.loop_stack.last_mut() {
                    Some((breaks, _)) => breaks.push(j),
                    None => return Err(self.err("break outside loop", s.span)),
                }
                Ok(())
            }
            StmtKind::Continue => {
                let target = match self.loop_stack.last() {
                    Some((_, t)) => *t,
                    None => return Err(self.err("continue outside loop", s.span)),
                };
                self.code.push(Insn::Jump(target));
                Ok(())
            }
            StmtKind::Block(b) => self.block(b),
        }
    }

    fn emit_patch(&mut self, insn: Insn) -> usize {
        self.code.push(insn);
        self.code.len() - 1
    }

    fn patch(&mut self, at: usize) {
        let target = self.code.len() as u32;
        match &mut self.code[at] {
            Insn::Jump(t) | Insn::JumpIfZero(t) | Insn::JumpIfNonZero(t) => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    /// True if evaluating `e` leaves a value on the stack (calls to
    /// void builtins do not).
    fn expr_pushes(&self, e: &Expr) -> bool {
        if let ExprKind::Call(callee, _) = &e.kind {
            if let ExprKind::Ident(name) = &callee.kind {
                if matches!(
                    name.as_str(),
                    "join"
                        | "join_all"
                        | "mutex_lock"
                        | "mutex_unlock"
                        | "cond_wait"
                        | "cond_signal"
                        | "cond_broadcast"
                        | "free"
                        | "print"
                        | "print_str"
                        | "assert"
                        | "yield_now"
                ) {
                    return false;
                }
            }
        }
        true
    }

    // ----- expressions -----

    /// Compiles `e`, leaving its value on the stack.
    fn rvalue(&mut self, e: &Expr) -> CResult<()> {
        match &e.kind {
            ExprKind::IntLit(v) => {
                self.code.push(Insn::PushInt(*v));
                Ok(())
            }
            ExprKind::CharLit(c) => {
                self.code.push(Insn::PushInt(*c as i64));
                Ok(())
            }
            ExprKind::BoolLit(b) => {
                self.code.push(Insn::PushInt(*b as i64));
                Ok(())
            }
            ExprKind::Null => {
                self.code.push(Insn::PushNull);
                Ok(())
            }
            ExprKind::StrLit(s) => {
                let mut bytes = s.as_bytes().to_vec();
                bytes.push(0);
                let idx = self.strings.len() as u32;
                self.strings.push(bytes);
                self.code.push(Insn::StrAddr(idx));
                Ok(())
            }
            ExprKind::Ident(name) => {
                if self.lookup_local(name).is_none() && !self.globals.contains_key(name) {
                    if let Some(&fi) = self.fn_indices.get(name) {
                        self.code.push(Insn::PushFn(fi));
                        return Ok(());
                    }
                }
                self.addr(e)?;
                self.emit_check(e.id, 1, false)?;
                let shared = self.shared_lvalue(e)?;
                self.code.push(Insn::Load { shared });
                Ok(())
            }
            ExprKind::Unary(UnOp::Deref, _) | ExprKind::Index(..) | ExprKind::Field(..) => {
                let ty = self.ty_of(e)?;
                let size = self.size_of(&ty);
                self.addr(e)?;
                if size == 1 {
                    self.emit_check(e.id, 1, false)?;
                    let shared = self.shared(&ty);
                    self.code.push(Insn::Load { shared });
                } else {
                    // A struct-typed r-value is represented by its
                    // address (consumed by CopyN in assignments).
                    self.emit_check(e.id, size, false)?;
                }
                Ok(())
            }
            ExprKind::Unary(UnOp::AddrOf, lv) => self.addr(lv),
            ExprKind::Unary(UnOp::Neg, a) => {
                self.rvalue(a)?;
                self.code.push(Insn::Neg);
                Ok(())
            }
            ExprKind::Unary(UnOp::Not, a) => {
                self.rvalue(a)?;
                self.code.push(Insn::Not);
                Ok(())
            }
            ExprKind::Unary(UnOp::BitNot, a) => {
                self.rvalue(a)?;
                self.code.push(Insn::BitNot);
                Ok(())
            }
            ExprKind::Binary(op, a, b) => self.binary(e, *op, a, b),
            ExprKind::Call(callee, args) => self.call(e, callee, args),
            ExprKind::Cast(_, inner) => self.rvalue(inner),
            ExprKind::Scast(_, src) => self.scast(e, src),
            ExprKind::New(ty) => {
                let size = self.size_of(ty);
                self.code.push(Insn::New(size));
                Ok(())
            }
            ExprKind::NewArray(ty, n) => {
                let esize = self.size_of(ty);
                self.rvalue(n)?;
                self.code.push(Insn::NewArray(esize));
                Ok(())
            }
            ExprKind::Sizeof(ty) => {
                let size = self.size_of(ty);
                self.code.push(Insn::PushInt(size as i64));
                Ok(())
            }
            ExprKind::Ternary(c, a, b) => {
                self.rvalue(c)?;
                let jz = self.emit_patch(Insn::JumpIfZero(0));
                self.rvalue(a)?;
                let jend = self.emit_patch(Insn::Jump(0));
                self.patch(jz);
                self.rvalue(b)?;
                self.patch(jend);
                Ok(())
            }
        }
    }

    fn binary(&mut self, e: &Expr, op: BinOp, a: &Expr, b: &Expr) -> CResult<()> {
        // Short-circuit logic.
        if op == BinOp::And {
            // a && b  =>  if !a then 0 else (b != 0)
            self.rvalue(a)?;
            let jz = self.emit_patch(Insn::JumpIfZero(0));
            self.rvalue(b)?;
            self.code.push(Insn::PushInt(0));
            self.code.push(Insn::Binop(BinOp::Ne));
            let jend = self.emit_patch(Insn::Jump(0));
            self.patch(jz);
            self.code.push(Insn::PushInt(0));
            self.patch(jend);
            let _ = e;
            return Ok(());
        }
        if op == BinOp::Or {
            self.rvalue(a)?;
            let jnz = self.emit_patch(Insn::JumpIfNonZero(0));
            self.rvalue(b)?;
            self.code.push(Insn::PushInt(0));
            self.code.push(Insn::Binop(BinOp::Ne));
            let jend = self.emit_patch(Insn::Jump(0));
            self.patch(jnz);
            self.code.push(Insn::PushInt(1));
            self.patch(jend);
            return Ok(());
        }
        // Pointer arithmetic.
        let ta = self.ty_of(a)?;
        let tb = self.ty_of(b)?;
        let a_ptrish = ta.is_ptr() || matches!(ta.kind, TypeKind::Array(..));
        let b_ptrish = tb.is_ptr() || matches!(tb.kind, TypeKind::Array(..));
        if a_ptrish && !b_ptrish && matches!(op, BinOp::Add | BinOp::Sub) {
            let elem = ta
                .pointee()
                .or(ta.elem())
                .cloned()
                .expect("pointer-ish type has element");
            let scale = self.size_of(&elem);
            self.ptr_operand(a, &ta)?;
            self.rvalue(b)?;
            if op == BinOp::Sub {
                self.code.push(Insn::Neg);
            }
            self.code.push(Insn::IndexAddr(scale));
            return Ok(());
        }
        if b_ptrish && !a_ptrish && op == BinOp::Add {
            let elem = tb
                .pointee()
                .or(tb.elem())
                .cloned()
                .expect("pointer-ish type has element");
            let scale = self.size_of(&elem);
            self.ptr_operand(b, &tb)?;
            self.rvalue(a)?;
            self.code.push(Insn::IndexAddr(scale));
            return Ok(());
        }
        self.rvalue(a)?;
        self.rvalue(b)?;
        self.code.push(Insn::Binop(op));
        Ok(())
    }

    /// Pushes the pointer value of a pointer-or-array operand (arrays
    /// decay to the address of their first element).
    fn ptr_operand(&mut self, e: &Expr, ty: &Type) -> CResult<()> {
        if matches!(ty.kind, TypeKind::Array(..)) && e.is_lvalue() {
            self.addr(e)
        } else {
            self.rvalue(e)
        }
    }

    fn scast(&mut self, e: &Expr, src: &Expr) -> CResult<()> {
        // addr; dup; [chkread]; load; swap; [chkwrite]; null; store;
        // oneref  — nulls the source and checks single ownership.
        let shared = self.shared_lvalue(src)?;
        self.addr(src)?;
        self.code.push(Insn::Dup);
        self.emit_check(src.id, 1, false)?;
        self.code.push(Insn::Load { shared });
        self.code.push(Insn::Swap);
        self.emit_check(src.id, 1, true)?;
        self.code.push(Insn::PushNull);
        self.code.push(Insn::Store { shared });
        let site = if let Some(ac) = self.checked.instr.checks.get(&src.id) {
            self.site_for(src.id, ac)
        } else {
            // Synthesize a site for the report even when the source
            // itself needed no access check.
            let s = self.sites.len() as u32;
            self.sites.push(CheckSite {
                lvalue: minic::pretty::expr(src),
                span: e.span,
            });
            s
        };
        self.code.push(Insn::OneRef { site });
        Ok(())
    }

    fn call(&mut self, e: &Expr, callee: &Expr, args: &[Expr]) -> CResult<()> {
        if let ExprKind::Ident(name) = &callee.kind {
            if ast::is_builtin(name) {
                return self.builtin(e, name, args);
            }
            if self.lookup_local(name).is_none() && !self.globals.contains_key(name) {
                if let Some(&fi) = self.fn_indices.get(name) {
                    for a in args {
                        self.rvalue(a)?;
                    }
                    self.code.push(Insn::Call(fi, args.len() as u8));
                    return Ok(());
                }
            }
        }
        // Indirect call.
        self.rvalue(callee)?;
        for a in args {
            self.rvalue(a)?;
        }
        self.code.push(Insn::CallIndirect(args.len() as u8));
        Ok(())
    }

    fn builtin(&mut self, e: &Expr, name: &str, args: &[Expr]) -> CResult<()> {
        match name {
            "spawn" => {
                self.rvalue(&args[0])?;
                self.rvalue(&args[1])?;
                self.code.push(Insn::Spawn);
            }
            "join" => {
                self.rvalue(&args[0])?;
                self.code.push(Insn::Join);
            }
            "join_all" => self.code.push(Insn::JoinAll),
            "yield_now" => self.code.push(Insn::YieldNow),
            "mutex_lock" => {
                self.rvalue(&args[0])?;
                self.code.push(Insn::MutexLock);
            }
            "mutex_unlock" => {
                self.rvalue(&args[0])?;
                self.code.push(Insn::MutexUnlock);
            }
            "cond_wait" => {
                self.rvalue(&args[0])?;
                self.rvalue(&args[1])?;
                self.code.push(Insn::CondWait);
            }
            "cond_signal" => {
                self.rvalue(&args[0])?;
                self.code.push(Insn::CondSignal);
            }
            "cond_broadcast" => {
                self.rvalue(&args[0])?;
                self.code.push(Insn::CondBroadcast);
            }
            "free" => {
                self.rvalue(&args[0])?;
                self.code.push(Insn::Free);
            }
            "print" => {
                self.rvalue(&args[0])?;
                self.code.push(Insn::Print);
            }
            "print_str" => {
                self.rvalue(&args[0])?;
                if self.checks_enabled
                    && self.checked.instr.lib_read_summaries.contains(&args[0].id)
                {
                    let site = self.sites.len() as u32;
                    self.sites.push(CheckSite {
                        lvalue: format!("*{}", minic::pretty::expr(&args[0])),
                        span: e.span,
                    });
                    self.code.push(Insn::PrintStrChecked { site });
                } else {
                    self.code.push(Insn::PrintStr);
                }
            }
            "assert" => {
                self.rvalue(&args[0])?;
                self.code.push(Insn::Assert);
            }
            "random" => {
                self.rvalue(&args[0])?;
                self.code.push(Insn::Random);
            }
            other => return Err(self.err(format!("unknown builtin `{other}`"), e.span)),
        }
        Ok(())
    }

    /// Compiles `e` in address context, pushing the cell address.
    fn addr(&mut self, e: &Expr) -> CResult<()> {
        match &e.kind {
            ExprKind::Ident(name) => {
                if let Some(slot) = self.lookup_local(name) {
                    self.code.push(Insn::LocalAddr(slot));
                    Ok(())
                } else if let Some((gi, _)) = self.globals.get(name) {
                    self.code.push(Insn::GlobalAddr(*gi));
                    Ok(())
                } else {
                    Err(self.err(format!("`{name}` is not addressable"), e.span))
                }
            }
            ExprKind::Unary(UnOp::Deref, p) => self.rvalue(p),
            ExprKind::Index(base, idx) => {
                let bt = self.ty_of(base)?;
                let elem = bt
                    .pointee()
                    .or(bt.elem())
                    .cloned()
                    .ok_or_else(|| self.err("indexing a non-array", e.span))?;
                let scale = self.size_of(&elem);
                self.ptr_operand(base, &bt)?;
                self.rvalue(idx)?;
                self.code.push(Insn::IndexAddr(scale));
                Ok(())
            }
            ExprKind::Field(base, fname, arrow) => {
                let bt = self.ty_of(base)?;
                let st = if *arrow {
                    bt.pointee()
                        .cloned()
                        .ok_or_else(|| self.err("`->` on non-pointer", e.span))?
                } else {
                    bt.clone()
                };
                let TypeKind::Named(sname) = &st.kind else {
                    return Err(self.err("field access on non-struct", e.span));
                };
                let sid = self
                    .structs
                    .lookup(sname)
                    .ok_or_else(|| self.err(format!("unknown struct `{sname}`"), e.span))?;
                let (_, off) = self
                    .structs
                    .field_offset(sid, fname)
                    .ok_or_else(|| self.err(format!("no field `{fname}`"), e.span))?;
                if *arrow {
                    self.rvalue(base)?;
                } else {
                    self.addr(base)?;
                }
                if off > 0 {
                    self.code.push(Insn::ConstOffset(off as u32));
                }
                Ok(())
            }
            _ => Err(self.err("expression is not an l-value", e.span)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_src(src: &str) -> Module {
        let checked = sharc_core::compile("t.c", src).unwrap();
        assert!(!checked.diags.has_errors(), "{}", checked.render_diags());
        compile(&checked).unwrap()
    }

    fn compile_src_full(src: &str) -> Module {
        let checked = sharc_core::compile("t.c", src).unwrap();
        assert!(!checked.diags.has_errors(), "{}", checked.render_diags());
        compile_full_checks(&checked).unwrap()
    }

    /// The module's `ChkRead`, `ChkWrite` and `ChkLockHeld`
    /// instructions.
    fn check_insns(m: &Module) -> usize {
        m.fns
            .iter()
            .flat_map(|f| &f.code)
            .filter(|i| {
                matches!(
                    i,
                    Insn::ChkRead { .. } | Insn::ChkWrite { .. } | Insn::ChkLockHeld { .. }
                )
            })
            .count()
    }

    #[test]
    fn compiles_simple_main() {
        let m = compile_src("void main() { int x; x = 1 + 2; }");
        let main = &m.fns[m.entry as usize];
        assert!(main.code.contains(&Insn::Binop(BinOp::Add)));
        assert_eq!(main.n_slots, 1);
    }

    #[test]
    fn checked_program_emits_check_insns() {
        // The full-checks build keeps every check the checker
        // inserted; only the default build consults elision.
        let m = compile_src_full(
            "void worker(int * d) { *d = 1; }\n\
             void main() { int * q; q = new(int); spawn(worker, q); }",
        );
        let worker = &m.fns[m.fn_index("worker").unwrap() as usize];
        assert!(worker
            .code
            .iter()
            .any(|i| matches!(i, Insn::ChkWrite { .. })));
        assert!(!m.sites.is_empty());
        assert_eq!(m.elision, ElisionSummary::default());
        assert_eq!(check_insns(&m), 1);
    }

    #[test]
    fn elided_slots_emit_no_instruction() {
        // Both slots of the lock-dominated increment are elided (E4),
        // so the worker holds no check instruction of any kind.
        let m = compile_src(
            "struct q { mutex * m; int locked(m) c; };\n\
             void worker(struct q * w) { mutex_lock(w->m); w->c = w->c + 1; mutex_unlock(w->m); }\n\
             void main() { struct q * w; w = new(struct q); spawn(worker, w); }",
        );
        let worker = &m.fns[m.fn_index("worker").unwrap() as usize];
        assert!(!worker.code.iter().any(|i| matches!(
            i,
            Insn::ChkWrite { .. } | Insn::ChkRead { .. } | Insn::ChkLockHeld { .. }
        )));
        assert_eq!((check_insns(&m), m.elision.elided_slots), (0, 2));
    }

    #[test]
    fn locked_access_emits_lock_check() {
        let m = compile_src_full(
            "struct q { mutex * m; int locked(m) c; };\n\
             void worker(struct q * w) { mutex_lock(w->m); w->c = 1; mutex_unlock(w->m); }\n\
             void main() { struct q * w; w = new(struct q); spawn(worker, w); }",
        );
        let worker = &m.fns[m.fn_index("worker").unwrap() as usize];
        assert!(worker
            .code
            .iter()
            .any(|i| matches!(i, Insn::ChkLockHeld { .. })));
    }

    #[test]
    fn lock_dominated_check_is_elided_by_default() {
        let m = compile_src(
            "struct q { mutex * m; int locked(m) c; };\n\
             void worker(struct q * w) { mutex_lock(w->m); w->c = 1; mutex_unlock(w->m); }\n\
             void main() { struct q * w; w = new(struct q); spawn(worker, w); }",
        );
        let worker = &m.fns[m.fn_index("worker").unwrap() as usize];
        assert!(!worker
            .code
            .iter()
            .any(|i| matches!(i, Insn::ChkLockHeld { .. })));
        assert!(m.elision.elided_slots > 0);
    }

    #[test]
    fn compound_assign_read_collapses_into_the_write_check() {
        let src = "int dynamic g;\n\
             void worker(int * d) { g = g + 1; }\n\
             void main() { int * p; p = new(int); spawn(worker, p); g = g + 1; }";
        let m = compile_src(src);
        let worker = &m.fns[m.fn_index("worker").unwrap() as usize];
        let reads = worker
            .code
            .iter()
            .filter(|i| matches!(i, Insn::ChkRead { .. }))
            .count();
        let writes = worker
            .code
            .iter()
            .filter(|i| matches!(i, Insn::ChkWrite { .. }))
            .count();
        assert_eq!(reads, 0, "read of `g` should collapse into the write");
        assert_eq!(writes, 1);
        assert!(m.elision.collapsed_reads >= 2);
        // The full-checks build keeps the separate read.
        let full = compile_src_full(src);
        let fw = &full.fns[full.fn_index("worker").unwrap() as usize];
        assert!(fw.code.iter().any(|i| matches!(i, Insn::ChkRead { .. })));
        assert_eq!(full.elision.collapsed_reads, 0);
    }

    #[test]
    fn scast_emits_oneref() {
        let m = compile_src(
            "void worker(char * d) { char private * l; l = SCAST(char private *, d); l[0] = 'x'; }\n\
             void main() { char * c; c = newarray(char, 4); spawn(worker, c); }",
        );
        let worker = &m.fns[m.fn_index("worker").unwrap() as usize];
        assert!(worker.code.iter().any(|i| matches!(i, Insn::OneRef { .. })));
    }

    #[test]
    fn missing_main_is_error() {
        let checked = sharc_core::compile("t.c", "void f() { }").unwrap();
        assert!(compile(&checked).is_err());
    }

    #[test]
    fn global_initializers() {
        let m = compile_src("int g = 7; void main() { }");
        assert_eq!(m.global_inits[0][0], Value::Int(7));
    }

    #[test]
    fn struct_locals_get_sized_slots() {
        let m = compile_src(
            "struct pair { int a; int b; };\n\
             void main() { struct pair p; p.a = 1; p.b = 2; }",
        );
        let main = &m.fns[m.entry as usize];
        assert_eq!(main.slot_sizes, vec![2]);
    }
}
