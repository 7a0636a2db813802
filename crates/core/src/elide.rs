//! Static check elision: a lockset pre-analysis that deletes
//! provably-redundant runtime checks before bytecode exists.
//!
//! It is the checker's last step: [`crate::check::check`] runs it over
//! the solved program (every qualifier concrete) once every check is
//! recorded. It writes a machine-checkable [`Reason`] into the
//! [`Instrumentation::checks`] entry of each check slot it elides
//! (`read_elided` / `write_elided`), so one entry holds a slot's check
//! and its reason; the VM compiler emits **no instruction** for an
//! elided slot, and [`ElisionSummary::of`] counts them.
//!
//! Two rules, one per [`Reason`]:
//!
//! * **E4 `LockHeld`** deletes a check slot. A `locked(l)` access
//!   dominated by a `mutex_lock(l)` on the *same, verifiably stable*
//!   lock path with no intervening unlock / `cond_wait` / call cannot
//!   fail its `ChkLockHeld`; the check installs nothing, so skipping it
//!   is bit-identical on every execution.
//! * **E5 `ReadOfWrite`** is a peephole: it collapses the read check of
//!   a compound assignment (`*p = *p + 1`) into its write check when
//!   the address expression is side-effect-free. E5 is applied by the
//!   default compile only (a conflicted write installs no shadow state,
//!   so on already-racy runs the read check can fire where the write
//!   does not); the fully-checked build keeps both.
//!
//! A lock path is stable in a function when nothing there can retarget
//! it: its root is never assigned, address-taken or redeclared, and
//! none of its field names is stored, address-taken or overwritten by
//! a struct copy. One [`Block::walk`] per function collects those
//! facts (`scan`). E4's dataflow `LockFlow` is the one traversal of
//! the pass's own, because it treats node kinds differently: branches
//! meet, loops start from their kill set. Everything else reads the
//! tree through the `minic::ast` walks: a loop's kill set (every call
//! in it), E4's per-statement elision (which does not enter a sharing
//! cast's operand: those checks are kept on purpose) and E5's
//! assignments.
//!
//! Each rule earns its place in `tests/elision_ledger.rs`, which pins
//! the executed checks it removes on every corpus program and fails
//! when a rule removes none. The numbers start at E4 because the
//! ledger retired E1–E3: E1 and E2 removed no check, and E3 (a
//! spawn hand-off escape analysis) removed checks only in the program
//! written to show it.
//!
//! Soundness is pinned by `tests/elision_differential.rs`: a `forall!`
//! differential (elided and fully-checked builds agree bit-for-bit on
//! race-free executions), a mutation property (making an elided
//! access race forces the analysis to stop eliding it), and one test
//! per way of retargeting a held lock path.

use crate::check::{AccessCheck, CheckKind, Instrumentation};
use minic::ast::*;
use minic::pretty;
use minic::span::SourceMap;
use std::collections::{HashMap, HashSet};

/// Why a check slot was removed. Every elided site carries one, so
/// `--explain-elision` and the differential can audit the proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    /// E4: access dominated by a held lock on a stable path.
    LockHeld,
    /// E5: read check collapsed into the same statement's write check.
    ReadOfWrite,
}

impl Reason {
    /// Stable index into [`ElisionSummary::by_reason`]: the
    /// discriminant.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short machine-checkable label used in explain output.
    pub fn label(self) -> &'static str {
        match self {
            Reason::LockHeld => "lock-held",
            Reason::ReadOfWrite => "read-of-write",
        }
    }

    /// All reasons in [`Reason::index`] order (for reporting).
    pub const ALL: [Reason; 2] = [Reason::LockHeld, Reason::ReadOfWrite];
}

/// Static totals over the whole program (for `sharc check` and the
/// bench tables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElisionSummary {
    /// Check slots the checker emitted (each read/write slot is one).
    pub checked_slots: usize,
    /// Slots deleted outright by E4.
    pub elided_slots: usize,
    /// Read slots collapsed into their write check by E5.
    pub collapsed_reads: usize,
    /// Per-[`Reason`] tally, indexed by [`Reason::index`].
    pub by_reason: [usize; Reason::ALL.len()],
}

impl ElisionSummary {
    /// Counts the check slots of `instr` and the reasons recorded
    /// against them.
    pub fn of(instr: &Instrumentation) -> ElisionSummary {
        let mut sum = ElisionSummary::default();
        for ac in instr.checks.values() {
            for (kind, reason) in [(&ac.read, ac.read_elided), (&ac.write, ac.write_elided)] {
                if kind.is_none() {
                    continue;
                }
                sum.checked_slots += 1;
                let Some(r) = reason else { continue };
                sum.by_reason[r.index()] += 1;
                match r {
                    Reason::LockHeld => sum.elided_slots += 1,
                    Reason::ReadOfWrite => sum.collapsed_reads += 1,
                }
            }
        }
        sum
    }

    /// Percentage of static check slots deleted (E4 only).
    pub fn elided_pct(&self) -> f64 {
        if self.checked_slots == 0 {
            0.0
        } else {
            self.elided_slots as f64 * 100.0 / self.checked_slots as f64
        }
    }
}

/// Kept for `benchmark/`: the wrapper its phase-by-phase build expects
/// in [`crate::CheckedProgram::elision`].
#[derive(Debug, Default)]
pub struct ElisionFacts {
    pub summary: ElisionSummary,
}

/// What the scan learned about one local or formal.
#[derive(Debug, Default)]
struct VarUse {
    decls: usize,
    is_param: bool,
    /// Declared type (post-analysis, all quals concrete).
    ty: Option<Type>,
    addr_taken: bool,
}

/// Per-function scan results.
#[derive(Debug, Default)]
struct FnInfo {
    uses: HashMap<String, VarUse>,
    /// Names assigned or scast-nulled anywhere in the function (the
    /// same notion the checker uses for lock constancy).
    assigned_vars: HashSet<String>,
    /// Field names assigned (or address-taken) anywhere in the
    /// function, including fields reachable through struct copies.
    assigned_fields: HashSet<String>,
    /// A store through a pointer whose written type could not be
    /// resolved (or could hold a mutex pointer / struct): lock paths
    /// with field components are not stable in this function.
    blob_store: bool,
}

/// Whole-program facts: the globals some function can retarget.
#[derive(Debug, Default)]
struct ProgFacts {
    assigned_globals: HashSet<String>,
    addr_taken_globals: HashSet<String>,
}

/// Kept for `benchmark/`: the [`ElisionSummary`] of the reasons
/// [`crate::check::check`] recorded in `instr`; `program` is unused.
pub fn elide(_program: &Program, instr: &Instrumentation) -> ElisionFacts {
    ElisionFacts {
        summary: ElisionSummary::of(instr),
    }
}

/// Runs E4 and then E5 over the checked `program`, recording each
/// elided slot's [`Reason`] in its entry of `instr.checks`. `program`
/// must be post-analysis (all sharing modes concrete).
pub(crate) fn mark(program: &Program, instr: &mut Instrumentation) {
    let global_names: HashSet<String> = program.globals.iter().map(|g| g.name.clone()).collect();

    let mut prog = ProgFacts::default();
    let infos: HashMap<String, FnInfo> = program
        .fns
        .iter()
        .map(|f| (f.name.clone(), scan(program, &global_names, &mut prog, f)))
        .collect();

    // E4: LockHeld — forward dataflow of held stable lock paths.
    let lock_strs: Vec<String> = instr.lock_exprs.iter().map(pretty::expr).collect();
    for f in &program.fns {
        let mut flow = LockFlow {
            paths: LockPaths {
                info: &infos[&f.name],
                prog: &prog,
                lock_strs: &lock_strs,
                stable_memo: HashMap::new(),
            },
            checks: &mut instr.checks,
        };
        let mut held: HashSet<String> = HashSet::new();
        flow.block(&f.body, &mut held);
    }

    // E5: ReadOfWrite collapse of compound assignments.
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

// ----- the per-function scan -----

/// Collects what can retarget a lock path in `f`: the locals and
/// formals it declares, and every assignment, address-of and
/// sharing cast in its body. Globals `f` retargets go into `prog`.
fn scan(
    program: &Program,
    global_names: &HashSet<String>,
    prog: &mut ProgFacts,
    f: &FnDef,
) -> FnInfo {
    let mut info = FnInfo::default();
    for p in &f.params {
        let u = info.uses.entry(p.name.clone()).or_default();
        u.is_param = true;
        u.ty = Some(p.ty.clone());
    }
    // Declared locals first, so forward references resolve as locals,
    // not globals.
    f.body.walk(&mut |n| {
        if let Node::Stmt(Stmt {
            kind: StmtKind::Decl { name, ty, .. },
            ..
        }) = n
        {
            let u = info.uses.entry(name.clone()).or_default();
            u.decls += 1;
            if u.ty.is_none() {
                u.ty = Some(ty.clone());
            }
        }
        true
    });
    let mut scan = FnScan {
        program,
        global_names,
        info,
        prog,
    };
    f.body.walk(&mut |n| match n {
        Node::Stmt(s) => {
            scan.stmt(s);
            true
        }
        Node::Expr(e) => scan.expr(e),
    });
    scan.info
}

struct FnScan<'a> {
    program: &'a Program,
    global_names: &'a HashSet<String>,
    info: FnInfo,
    prog: &'a mut ProgFacts,
}

impl FnScan<'_> {
    fn is_local(&self, name: &str) -> bool {
        self.info.uses.contains_key(name)
    }

    /// Marks `name` as retargeted, as a local or as a global.
    fn assigned(&mut self, name: &str) {
        if self.is_local(name) {
            self.info.assigned_vars.insert(name.to_string());
        } else if self.global_names.contains(name) {
            self.prog.assigned_globals.insert(name.to_string());
        }
    }

    /// An assignment's lhs. A decl initializer is not one: it matches
    /// the checker's own constancy rule, which only counts
    /// re-assignments.
    fn stmt(&mut self, s: &Stmt) {
        let StmtKind::Assign { lhs, .. } = &s.kind else {
            return;
        };
        match &lhs.kind {
            ExprKind::Ident(n) => {
                self.assigned(n);
                // Stored type could be a whole struct (struct copy by
                // value into a local): its fields change too.
                if let Some(t) = self.static_ty(lhs) {
                    self.note_struct_store(&t);
                }
            }
            ExprKind::Field(_, fname, _) => {
                self.info.assigned_fields.insert(fname.clone());
                if let Some(t) = self.static_ty(lhs) {
                    self.note_struct_store(&t);
                }
            }
            ExprKind::Unary(UnOp::Deref, _) | ExprKind::Index(..) => match self.static_ty(lhs) {
                Some(t) => {
                    if is_mutex_ptr(&t) {
                        self.info.blob_store = true;
                    }
                    self.note_struct_store(&t);
                }
                None => self.info.blob_store = true,
            },
            _ => self.info.blob_store = true,
        }
    }

    /// One expression node; answers whether the walk enters its
    /// children.
    fn expr(&mut self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Unary(UnOp::AddrOf, inner) => match &inner.kind {
                ExprKind::Ident(n) => {
                    if let Some(u) = self.info.uses.get_mut(n) {
                        u.addr_taken = true;
                    } else if self.global_names.contains(n) {
                        self.prog.addr_taken_globals.insert(n.clone());
                    }
                }
                ExprKind::Field(_, fname, _) => {
                    self.info.assigned_fields.insert(fname.clone());
                }
                _ => {}
            },
            // The scast nulls its source and carries its own checks.
            ExprKind::Scast(_, src) => {
                if let Some(root) = root_ident(src) {
                    self.assigned(&root);
                }
            }
            ExprKind::Call(callee, args) if is_sync_builtin(callee) => {
                // A sync builtin's `&path` argument *names* its
                // mutex/cond — the builtin mutates that object's state
                // but can never retarget the path, so the address-of
                // must not poison lock-path stability.
                for a in args {
                    match &a.kind {
                        ExprKind::Unary(UnOp::AddrOf, inner) if is_ident_field_chain(inner) => {}
                        _ => a.walk(&mut |e| self.expr(e)),
                    }
                }
                return false;
            }
            _ => {}
        }
        true
    }

    /// A struct stored by value dirties every field name it contains,
    /// transitively (they may include a lock path component).
    fn note_struct_store(&mut self, t: &Type) {
        let mut seen: HashSet<String> = HashSet::new();
        self.collect_struct_fields(t, &mut seen);
        self.info.assigned_fields.extend(seen);
    }

    fn collect_struct_fields(&self, t: &Type, out: &mut HashSet<String>) {
        if let TypeKind::Named(s) = &t.kind {
            if let Some(sd) = self.program.struct_by_name(s) {
                for fld in &sd.fields {
                    if out.insert(fld.name.clone()) {
                        self.collect_struct_fields(&fld.ty, out);
                    }
                }
            }
        }
    }

    /// Best-effort static type of simple l-value paths from declared
    /// types (post-analysis, all quals concrete). `None` = unknown.
    fn static_ty(&self, e: &Expr) -> Option<Type> {
        match &e.kind {
            ExprKind::Ident(n) => {
                if let Some(u) = self.info.uses.get(n) {
                    u.ty.clone()
                } else {
                    self.program.global_by_name(n).map(|g| g.ty.clone())
                }
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                let t = self.static_ty(inner)?;
                t.pointee().or_else(|| t.elem()).cloned()
            }
            ExprKind::Index(base, _) => {
                let t = self.static_ty(base)?;
                t.pointee().or_else(|| t.elem()).cloned()
            }
            ExprKind::Field(base, fname, arrow) => {
                let bt = self.static_ty(base)?;
                let st = if *arrow { bt.pointee().cloned()? } else { bt };
                if let TypeKind::Named(s) = &st.kind {
                    self.program
                        .struct_by_name(s)
                        .and_then(|sd| sd.field(fname))
                        .map(|f| f.ty.clone())
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

fn is_sync_builtin(callee: &Expr) -> bool {
    matches!(
        &callee.kind,
        ExprKind::Ident(name) if matches!(
            name.as_str(),
            "mutex_lock" | "mutex_unlock" | "cond_wait" | "cond_signal" | "cond_broadcast"
        )
    )
}

fn root_ident(e: &Expr) -> Option<String> {
    let mut cur = e;
    loop {
        match &cur.kind {
            ExprKind::Ident(n) => return Some(n.clone()),
            ExprKind::Field(b, _, _) => cur = b,
            ExprKind::Index(b, _) => cur = b,
            ExprKind::Unary(UnOp::Deref, b) => cur = b,
            _ => return None,
        }
    }
}

fn is_mutex_ptr(t: &Type) -> bool {
    matches!(&t.kind, TypeKind::Ptr(p) if matches!(p.kind, TypeKind::Mutex))
}

// ----- E4: LockHeld dataflow -----

/// Locks killed by one loop iteration (pre-scanned so the loop entry
/// set is a sound fixed point without iteration).
#[derive(Debug, Default)]
struct KillSet {
    all: bool,
    locks: HashSet<String>,
}

impl KillSet {
    /// Every lock a call anywhere in loop `s` may release. A `for`
    /// init runs before the loop and its kills are already applied,
    /// so counting them again changes nothing.
    fn of_loop(s: &Stmt) -> KillSet {
        let mut kills = KillSet::default();
        s.walk(&mut |n| {
            if let Node::Expr(e) = n {
                kills.add_call(e);
            }
            true
        });
        kills
    }

    /// What the call at `e`, if `e` is a call, may unlock.
    fn add_call(&mut self, e: &Expr) {
        let ExprKind::Call(callee, args) = &e.kind else {
            return;
        };
        match &callee.kind {
            ExprKind::Ident(name) if name == "mutex_unlock" => {
                match args.first().and_then(lock_path_string) {
                    Some(p) => {
                        self.locks.insert(p);
                    }
                    None => self.all = true,
                }
            }
            ExprKind::Ident(name) if name == "cond_wait" => self.all = true,
            ExprKind::Ident(name) if is_builtin(name) => {}
            // A user callee, or any function pointer, may unlock
            // anything.
            _ => self.all = true,
        }
    }
}

struct LockFlow<'a> {
    paths: LockPaths<'a>,
    checks: &'a mut NodeMap<AccessCheck>,
}

impl LockFlow<'_> {
    fn block(&mut self, b: &Block, held: &mut HashSet<String>) {
        for s in &b.stmts {
            self.stmt(s, held);
        }
    }

    fn stmt(&mut self, s: &Stmt, held: &mut HashSet<String>) {
        match &s.kind {
            StmtKind::Decl { init, .. } => {
                if let Some(e) = init {
                    self.straightline_exprs(&[e], held);
                }
            }
            StmtKind::Assign { lhs, rhs } => {
                self.straightline_exprs(&[lhs, rhs], held);
            }
            StmtKind::Expr(e) => {
                if let Some((op, lock)) = lock_transfer(e) {
                    match op {
                        LockOp::Lock => {
                            if let Some(path) = lock_path_string(lock) {
                                if self.paths.stable(&path) {
                                    held.insert(path);
                                }
                            }
                        }
                        LockOp::Unlock => match lock_path_string(lock) {
                            Some(path) => {
                                held.remove(&path);
                            }
                            None => held.clear(),
                        },
                        LockOp::Wait => held.clear(),
                    }
                    return;
                }
                self.straightline_exprs(&[e], held);
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.straightline_exprs(&[cond], held);
                let mut then_held = held.clone();
                self.block(then_blk, &mut then_held);
                let mut else_held = held.clone();
                if let Some(eb) = else_blk {
                    self.block(eb, &mut else_held);
                }
                *held = then_held.intersection(&else_held).cloned().collect();
            }
            StmtKind::While { cond, body } => {
                apply_kills(held, &KillSet::of_loop(s));
                self.straightline_exprs(&[cond], held);
                let entry = held.clone();
                let mut inner = entry.clone();
                self.block(body, &mut inner);
                *held = entry;
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(i, held);
                }
                apply_kills(held, &KillSet::of_loop(s));
                if let Some(c) = cond {
                    self.straightline_exprs(&[c], held);
                }
                let entry = held.clone();
                let mut inner = entry.clone();
                self.block(body, &mut inner);
                if let Some(st) = step {
                    self.stmt(st, &mut inner);
                }
                *held = entry;
            }
            StmtKind::Return(Some(e)) => {
                self.straightline_exprs(&[e], held);
            }
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Block(b) => self.block(b, held),
        }
    }

    /// Straight-line statement content: elide `Locked` slots dominated
    /// by a held lock when the statement contains no call at all (a
    /// callee could unlock mid-statement); then account for any calls
    /// it does contain.
    fn straightline_exprs(&mut self, exprs: &[&Expr], held: &mut HashSet<String>) {
        let clean = exprs
            .iter()
            .all(|e| !e.any(|n| matches!(n.kind, ExprKind::Call(..))));
        if clean && !held.is_empty() {
            for e in exprs {
                self.elide_locked(e, held);
            }
            return;
        }
        let mut kills = KillSet::default();
        for e in exprs {
            e.walk(&mut |n| {
                kills.add_call(n);
                true
            });
        }
        apply_kills(held, &kills);
    }

    fn elide_locked(&mut self, e: &Expr, held: &HashSet<String>) {
        let LockFlow { paths, checks } = self;
        e.walk(&mut |e| {
            if let Some(ac) = checks.get_mut(&e.id) {
                for (kind, elided) in [
                    (&ac.read, &mut ac.read_elided),
                    (&ac.write, &mut ac.write_elided),
                ] {
                    if let Some(CheckKind::Locked(idx)) = kind {
                        if paths.lock_ok(*idx, held) {
                            *elided = Some(Reason::LockHeld);
                        }
                    }
                }
            }
            // Sharing-cast checks are deliberately preserved.
            !matches!(e.kind, ExprKind::Scast(..))
        });
    }
}

/// Which lock paths one function holds stable.
struct LockPaths<'a> {
    info: &'a FnInfo,
    prog: &'a ProgFacts,
    lock_strs: &'a [String],
    /// Per-lock-string stability in this function, memoized.
    stable_memo: HashMap<String, bool>,
}

impl LockPaths<'_> {
    fn lock_ok(&mut self, idx: usize, held: &HashSet<String>) -> bool {
        let Some(s) = self.lock_strs.get(idx) else {
            return false;
        };
        held.contains(s) && self.stable(s)
    }

    /// Is the lock path verifiably constant within this function?
    fn stable(&mut self, path: &str) -> bool {
        if let Some(v) = self.stable_memo.get(path) {
            return *v;
        }
        let v = self.compute_stable(path);
        self.stable_memo.insert(path.to_string(), v);
        v
    }

    fn compute_stable(&self, path: &str) -> bool {
        let segs: Vec<&str> = path.split("->").collect();
        let Some((root, fields)) = segs.split_first() else {
            return false;
        };
        // Paths only ever come from `pretty::expr` of ident/arrow-field
        // chains; anything else (deref stars, brackets) is rejected.
        if path.contains(['*', '[', '&', '(', ' ']) {
            return false;
        }
        let root_ok = if let Some(u) = self.info.uses.get(*root) {
            !self.info.assigned_vars.contains(*root)
                && !u.addr_taken
                && u.decls + usize::from(u.is_param) <= 1
        } else {
            !self.prog.assigned_globals.contains(*root)
                && !self.prog.addr_taken_globals.contains(*root)
        };
        if !root_ok {
            return false;
        }
        if fields.is_empty() {
            return true;
        }
        // Field components must never be reassigned in this function,
        // and no unresolvable pointer store may alias them.
        !self.info.blob_store
            && fields
                .iter()
                .all(|f| !self.info.assigned_fields.contains(*f))
    }
}

enum LockOp {
    Lock,
    Unlock,
    Wait,
}

/// Recognizes a top-level lock-transfer statement.
fn lock_transfer(e: &Expr) -> Option<(LockOp, &Expr)> {
    let ExprKind::Call(callee, args) = &e.kind else {
        return None;
    };
    let ExprKind::Ident(name) = &callee.kind else {
        return None;
    };
    match name.as_str() {
        "mutex_lock" => args.first().map(|a| (LockOp::Lock, a)),
        "mutex_unlock" => args.first().map(|a| (LockOp::Unlock, a)),
        // cond_wait releases its mutex while blocked.
        "cond_wait" => args.first().map(|a| (LockOp::Wait, a)),
        _ => None,
    }
}

/// Normalizes a lock operand to the pretty string the checker uses
/// for its synthesized lock expressions: `&m` locks what `m` names.
fn lock_path_string(e: &Expr) -> Option<String> {
    let target = match &e.kind {
        ExprKind::Unary(UnOp::AddrOf, inner) => inner,
        _ => e,
    };
    if is_ident_field_chain(target) {
        Some(pretty::expr(target))
    } else {
        None
    }
}

fn is_ident_field_chain(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Ident(_) => true,
        ExprKind::Field(b, _, true) => is_ident_field_chain(b),
        _ => false,
    }
}

fn apply_kills(held: &mut HashSet<String>, kills: &KillSet) {
    if kills.all {
        held.clear();
    } else {
        for k in &kills.locks {
            held.remove(k);
        }
    }
}

// ----- E5: ReadOfWrite collapse -----

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
            if matches!(ac.read, Some(CheckKind::Dynamic))
                && ac.read_elided.is_none()
                && pretty::expr(e) == lhs_str
            {
                ac.read_elided = Some(Reason::ReadOfWrite);
            }
        }
        true
    });
}

// ----- explain output -----

/// Renders one human-auditable line per elided or collapsed slot,
/// sorted by source position: `elide write w->count [lock-held] @ f.c:4`.
pub fn explain(instr: &Instrumentation, sm: &SourceMap) -> Vec<String> {
    let mut rows: Vec<(u32, u32, String)> = Vec::new();
    for ac in instr.checks.values() {
        for (rw, reason) in [("read", ac.read_elided), ("write", ac.write_elided)] {
            let Some(r) = reason else { continue };
            let verb = if r == Reason::ReadOfWrite {
                "collapse"
            } else {
                "elide"
            };
            let lc = sm.lookup(ac.span);
            rows.push((
                lc.line,
                lc.col,
                format!(
                    "{verb} {rw} {} [{}] @ {}:{}",
                    ac.lvalue,
                    r.label(),
                    sm.name(),
                    lc.line
                ),
            ));
        }
    }
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

    fn reasons(c: &CheckedProgram) -> Vec<Reason> {
        let mut out: Vec<Reason> = c
            .instr
            .checks
            .values()
            .flat_map(|ac| [ac.read_elided, ac.write_elided])
            .flatten()
            .collect();
        out.sort_by_key(|r| r.index());
        out
    }

    const PRIVATE_LOOP: &str = "void worker(int * d) { int i; \
         for (i = 0; i < 10; i = i + 1) *d = *d + 1; }\n\
         void main() { int * p; int t; p = new(int); t = spawn(worker, p); join(t); }";

    #[test]
    fn worker_loop_collapses_its_read_into_the_write() {
        let c = run(PRIVATE_LOOP);
        let s = &c.elision.summary;
        // `*d = *d + 1`: one read slot + one write slot. No rule
        // deletes a dynamic slot; E5 folds the read into the write.
        assert_eq!(s.checked_slots, 2, "{:?}", c.instr.checks);
        assert_eq!((s.elided_slots, s.collapsed_reads), (0, 1), "{s:?}");
        assert_eq!(reasons(&c), [Reason::ReadOfWrite]);
    }

    /// No rule deletes a dynamic slot of `src`: at most E5 folds a
    /// read into its write.
    fn assert_dynamic_slots_stay_checked(src: &str) {
        let c = run(src);
        assert_eq!(c.elision.summary.elided_slots, 0, "{src}");
        assert!(
            reasons(&c).iter().all(|r| *r == Reason::ReadOfWrite),
            "{src}: {:?}",
            c.elision.summary
        );
    }

    // The next five shapes each let the spawned object race, so a
    // spawn-time escape analysis (the deleted rule E3) had to keep
    // their checks. With no such rule they pin that every dynamic
    // check of theirs stays.

    #[test]
    fn second_spawn_site_blocks_spawn_unique() {
        assert_dynamic_slots_stay_checked(
            "void worker(int * d) { *d = 1; }\n\
             void main() { int * p; int * q; p = new(int); q = new(int); \
              spawn(worker, p); spawn(worker, q); }",
        );
    }

    #[test]
    fn spawner_deref_blocks_spawn_unique() {
        // main reads *p while worker may write it.
        assert_dynamic_slots_stay_checked(
            "void worker(int * d) { *d = 1; }\n\
             void main() { int * p; int v; p = new(int); *p = 4; \
              spawn(worker, p); v = *p; }",
        );
    }

    #[test]
    fn spawner_call_arg_blocks_spawn_unique() {
        // main hands p to poke, which writes *p while worker may.
        assert_dynamic_slots_stay_checked(
            "void worker(int * d) { *d = 1; }\n\
             void poke(int * x) { *x = 2; }\n\
             void main() { int * p; p = new(int); spawn(worker, p); poke(p); }",
        );
    }

    #[test]
    fn direct_call_of_worker_blocks_spawn_unique() {
        // worker also runs as a plain call on main's thread.
        assert_dynamic_slots_stay_checked(
            "void worker(int * d) { *d = 1; }\n\
             void main() { int * p; int * q; p = new(int); q = new(int); \
              spawn(worker, p); worker(q); }",
        );
    }

    #[test]
    fn spawn_in_loop_blocks_spawn_unique() {
        assert_dynamic_slots_stay_checked(
            "void worker(int * d) { *d = 1; }\n\
             void main() { int * p; int i; p = new(int); \
              for (i = 0; i < 2; i = i + 1) spawn(worker, p); }",
        );
    }

    #[test]
    fn lock_dominated_region_elides_lock_checks() {
        let c = run("struct q { mutex * m; int locked(m) count; };\n\
             void worker(struct q * w) { mutex_lock(w->m); \
              w->count = w->count + 1; mutex_unlock(w->m); }\n\
             void main() { struct q * w; w = new(struct q); spawn(worker, w); }");
        let by = c.elision.summary.by_reason;
        assert_eq!(
            by[Reason::LockHeld.index()],
            2,
            "summary: {:?}",
            c.elision.summary
        );
    }

    #[test]
    fn sharing_cast_source_keeps_its_lock_checks() {
        let c = run("mutex gm;\n\
             char locked(gm) *locked(gm) buf;\n\
             void worker(int * d) { char private * l; mutex_lock(&gm); \
              l = SCAST(char private *, buf); buf = NULL; mutex_unlock(&gm); }\n\
             void main() { int * p; spawn(worker, p); }");
        // Under the held lock the plain store's check goes, but the
        // cast's read and write of its source stay.
        let s = &c.elision.summary;
        assert_eq!((s.checked_slots, s.elided_slots), (3, 1), "{s:?}");
        assert_eq!(s.by_reason[Reason::LockHeld.index()], 1);
    }

    #[test]
    fn by_value_mutex_field_elides_lock_checks() {
        // The `counter_locked.c` idiom: a by-value mutex locked
        // through `&c->m`. Taking the field's address inside the sync
        // builtin must not poison the lock path's stability.
        let c = run("struct ctr { mutex m; int locked(m) v; };\n\
             void worker(struct ctr * c) { int i; \
              for (i = 0; i < 10; i = i + 1) { mutex_lock(&c->m); \
              v_bump(c); mutex_unlock(&c->m); } }\n\
             void v_bump(struct ctr * c) { c->v = c->v + 1; }\n\
             void main() { struct ctr * c; c = new(struct ctr); \
              spawn(worker, c); spawn(worker, c); join_all(); }");
        // The accesses live in v_bump (no lock region there): nothing
        // elides. The point of this program is only stability, proven
        // by the direct-body variant below.
        let direct = run("struct ctr { mutex m; int locked(m) v; };\n\
             void worker(struct ctr * c) { int i; \
              for (i = 0; i < 10; i = i + 1) { mutex_lock(&c->m); \
              c->v = c->v + 1; mutex_unlock(&c->m); } }\n\
             void main() { struct ctr * c; c = new(struct ctr); \
              spawn(worker, c); spawn(worker, c); join_all(); }");
        assert_eq!(
            direct.elision.summary.by_reason[Reason::LockHeld.index()],
            2,
            "summary: {:?}",
            direct.elision.summary
        );
        assert_eq!(c.elision.summary.by_reason[Reason::LockHeld.index()], 0);
    }

    #[test]
    fn access_after_unlock_stays_checked() {
        let c = run("struct q { mutex * m; int locked(m) count; };\n\
             void worker(struct q * w) { mutex_lock(w->m); \
              w->count = 1; mutex_unlock(w->m); w->count = 2; }\n\
             void main() { struct q * w; w = new(struct q); spawn(worker, w); }");
        // Only the in-region write is elided; the post-unlock write
        // keeps its check (and will report at runtime).
        assert_eq!(c.elision.summary.by_reason[Reason::LockHeld.index()], 1);
    }

    #[test]
    fn lock_held_across_loop_body() {
        let c = run("struct q { mutex * m; int locked(m) count; };\n\
             void worker(struct q * w) { int i; mutex_lock(w->m); \
              for (i = 0; i < 5; i = i + 1) w->count = w->count + 1; \
              mutex_unlock(w->m); }\n\
             void main() { struct q * w; w = new(struct q); spawn(worker, w); }");
        assert_eq!(c.elision.summary.by_reason[Reason::LockHeld.index()], 2);
    }

    #[test]
    fn unlock_inside_loop_kills_the_entry_set() {
        let c = run("struct q { mutex * m; int locked(m) count; };\n\
             void worker(struct q * w) { int i; mutex_lock(w->m); \
              for (i = 0; i < 5; i = i + 1) { w->count = w->count + 1; \
               mutex_unlock(w->m); mutex_lock(w->m); } \
              mutex_unlock(w->m); }\n\
             void main() { struct q * w; w = new(struct q); spawn(worker, w); }");
        // The body unlocks, so the loop entry set is empty and the
        // body access stays checked.
        assert_eq!(c.elision.summary.by_reason[Reason::LockHeld.index()], 0);
    }

    #[test]
    fn compound_assign_read_collapses_into_write() {
        let c = run("int dynamic g;\n\
             void worker(int * d) { g = g + 1; }\n\
             void main() { int * p; spawn(worker, p); g = g + 1; }");
        let s = &c.elision.summary;
        assert_eq!(s.collapsed_reads, 2, "summary: {s:?}");
        assert_eq!(s.by_reason[Reason::ReadOfWrite.index()], 2);
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
              spawn(worker, w); spawn(worker, w); }");
        // By line, then column: the lhs write before the rhs read.
        assert_eq!(
            explain(&c.instr, &c.source_map),
            [
                "collapse read g [read-of-write] @ elide_test.c:3",
                "elide write w->count [lock-held] @ elide_test.c:4",
                "elide read w->count [lock-held] @ elide_test.c:4",
            ]
        );
    }

    #[test]
    fn racy_counter_program_keeps_its_checks() {
        // Two spawns of the same worker over one object: every rule
        // must refuse, so the racy report survives elision.
        let c = run("void worker(int * d) { *d = *d + 1; }\n\
             void main() { int * p; p = new(int); \
              spawn(worker, p); spawn(worker, p); }");
        assert_eq!(c.elision.summary.elided_slots, 0);
        // E5 may still collapse the worker-side read: the write check
        // remains and reports the same conflict.
        assert!(c.elision.summary.checked_slots >= 2);
    }
}
