//! Static check elision (ROADMAP item 3): an escape + lockset
//! pre-analysis that deletes provably-redundant runtime checks before
//! bytecode exists.
//!
//! Runs after the sharing analysis and the checker, over the typed AST
//! (every qualifier concrete) and the [`Instrumentation`] table. The
//! output is an [`ElisionFacts`] side table mapping l-value nodes to a
//! machine-checkable [`Reason`] per elided check slot; the VM compiler
//! consults it and emits **no instruction** for an elided slot.
//!
//! Four elision rules, each a thread-locality or lock-domination proof:
//!
//! * **E1 `PrivateActuals`** — a `dynamic` formal of a function that is
//!   never a thread root, never aliased, and never leaks its parameter
//!   is checked only so `dynamic_in` callers can pass private data. If
//!   *every* call site passes a private pointer (or a provably fresh,
//!   non-escaping local), the object is single-threaded for the whole
//!   call and the callee's checks are dead.
//! * **E2 `FreshPrivate`** — a local pointer assigned only fresh
//!   allocations (or NULL) whose value never escapes the function
//!   (no address-taken, no aliasing copy, no spawn, only sink-safe
//!   call sites) points at thread-local storage; its `dynamic`
//!   accesses cannot race.
//! * **E3 `SpawnUnique`** — a thread function spawned at exactly one
//!   non-loop site, with its sole argument a fresh local the spawner
//!   never dereferences, receives an object only the spawned thread
//!   ever touches; the callee's formal accesses are thread-local for
//!   the object's whole shared lifetime.
//! * **E4 `LockHeld`** — a `locked(l)` access dominated by a
//!   `mutex_lock(l)` on the *same, verifiably stable* lock path with
//!   no intervening unlock / `cond_wait` / call cannot fail its
//!   `ChkLockHeld`; the check installs nothing, so skipping it is
//!   bit-identical on every execution.
//!
//! Plus one peephole: **E5 `ReadOfWrite`** collapses the read check of
//! a compound assignment (`*p = *p + 1`) into its write check when the
//! address expression is side-effect-free. E5 is applied by the
//! default compile only (a conflicted write installs no shadow state,
//! so on already-racy runs the read check can fire where the write
//! does not); the fully-checked build keeps both.
//!
//! Two traversals are the pass's own, because they treat node kinds
//! differently: the per-function scan `FnScan` (loops set the
//! "spawned in a loop" bit, calls classify their actuals) and E4's
//! dataflow `LockFlow` (branches meet, loops start from their kill
//! set). Everything else reads the tree through the `minic::ast`
//! walks: the declared locals, a loop's kill set (every call in it),
//! E4's per-statement elision (which does not enter a sharing cast's
//! operand: those checks are kept on purpose) and E5's assignments.
//!
//! Soundness is pinned by `tests/elision_differential.rs`: a `forall!`
//! differential (elided and fully-checked builds agree bit-for-bit on
//! race-free executions) and a mutation property (making an elided
//! access race forces the analysis to stop eliding it).

use crate::check::{AccessCheck, CheckKind, Instrumentation};
use minic::ast::*;
use minic::pretty;
use minic::span::SourceMap;
use std::collections::{HashMap, HashSet};

/// Why a check slot was removed. Every elided site carries one, so
/// `--explain-elision` and the differential can audit the proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    /// E1: every call site passes a private or fresh-local actual.
    PrivateActuals,
    /// E2: fresh allocation that never escapes its function.
    FreshPrivate,
    /// E3: unique spawn hand-off; only the spawned thread touches it.
    SpawnUnique,
    /// E4: access dominated by a held lock on a stable path.
    LockHeld,
    /// E5: read check collapsed into the same statement's write check.
    ReadOfWrite,
}

impl Reason {
    /// Stable index into [`ElisionSummary::by_reason`].
    pub fn index(self) -> usize {
        match self {
            Reason::PrivateActuals => 0,
            Reason::FreshPrivate => 1,
            Reason::SpawnUnique => 2,
            Reason::LockHeld => 3,
            Reason::ReadOfWrite => 4,
        }
    }

    /// Short machine-checkable label used in explain output.
    pub fn label(self) -> &'static str {
        match self {
            Reason::PrivateActuals => "private-actuals",
            Reason::FreshPrivate => "fresh-private",
            Reason::SpawnUnique => "spawn-unique",
            Reason::LockHeld => "lock-held",
            Reason::ReadOfWrite => "read-of-write",
        }
    }

    /// All reasons in [`Reason::index`] order (for reporting).
    pub const ALL: [Reason; 5] = [
        Reason::PrivateActuals,
        Reason::FreshPrivate,
        Reason::SpawnUnique,
        Reason::LockHeld,
        Reason::ReadOfWrite,
    ];
}

/// Elision verdicts for one instrumented l-value occurrence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteFacts {
    pub read: Option<Reason>,
    pub write: Option<Reason>,
}

/// Static totals over the whole program (for `sharc check` and the
/// bench tables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElisionSummary {
    /// Check slots the checker emitted (each read/write slot is one).
    pub checked_slots: usize,
    /// Slots deleted outright by E1–E4.
    pub elided_slots: usize,
    /// Read slots collapsed into their write check by E5.
    pub collapsed_reads: usize,
    /// Per-[`Reason`] tally, indexed by [`Reason::index`].
    pub by_reason: [usize; 5],
}

impl ElisionSummary {
    /// Percentage of static check slots deleted (E1–E4 only).
    pub fn elided_pct(&self) -> f64 {
        if self.checked_slots == 0 {
            0.0
        } else {
            self.elided_slots as f64 * 100.0 / self.checked_slots as f64
        }
    }
}

/// The per-NodeId elision table consumed by the VM compiler.
#[derive(Debug, Default)]
pub struct ElisionFacts {
    pub sites: HashMap<NodeId, SiteFacts>,
    pub summary: ElisionSummary,
}

impl ElisionFacts {
    /// Reason the read check at `id` may be skipped, if any.
    pub fn read_reason(&self, id: NodeId) -> Option<Reason> {
        self.sites.get(&id).and_then(|s| s.read)
    }

    /// Reason the write check at `id` may be skipped, if any.
    pub fn write_reason(&self, id: NodeId) -> Option<Reason> {
        self.sites.get(&id).and_then(|s| s.write)
    }

    fn elide_read(&mut self, id: NodeId, r: Reason) {
        let s = self.sites.entry(id).or_default();
        if s.read.is_none() {
            s.read = Some(r);
        }
    }

    fn elide_write(&mut self, id: NodeId, r: Reason) {
        let s = self.sites.entry(id).or_default();
        if s.write.is_none() {
            s.write = Some(r);
        }
    }
}

/// How one call-site actual presents to the escape analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Actual {
    /// The literal NULL: nothing to protect.
    Null,
    /// An expression whose pointee mode is `private` (the type system
    /// already proves the object never crosses threads).
    PrivatePtr,
    /// A named local of the caller; qualified if private-pointee or
    /// provably fresh and non-escaping.
    Local(String),
    Other,
}

/// Everything the scan learned about one local or formal.
#[derive(Debug, Default)]
struct VarUse {
    decls: usize,
    is_param: bool,
    /// Declared type (post-analysis, all quals concrete).
    ty: Option<Type>,
    /// Assignments whose rhs is `new(..)` / `newarray(..)`.
    fresh_assigns: usize,
    /// Assignments of the literal NULL.
    null_assigns: usize,
    /// Any other assignment (aliasing, arithmetic, call result, ...).
    other_assigns: usize,
    /// L-value nodes that access storage *through* this pointer
    /// (single-level paths only: `*x`, `x[i]`, `x->f`, `*(x + i)`).
    accesses: Vec<NodeId>,
    /// Direct calls this var is passed to, as (callee, position).
    call_args: Vec<(String, usize)>,
    /// Times passed as the data argument of `spawn`.
    spawn_args: usize,
    freed: usize,
    addr_taken: bool,
    /// Any use the rules cannot account for (value copied, returned,
    /// stored, scast, compared, indirect-call arg, ...).
    other: usize,
}

impl VarUse {
    fn pointee_qual(&self) -> Option<&Qual> {
        self.ty.as_ref().and_then(|t| t.pointee()).map(|p| &p.qual)
    }
}

/// One direct call site of a user function.
#[derive(Debug)]
struct CallSite {
    caller: String,
    actuals: Vec<Actual>,
}

/// One `spawn(f, arg)` site.
#[derive(Debug)]
struct SpawnSite {
    caller: String,
    /// The data argument, when it is a bare local of the caller.
    arg: Option<String>,
    in_loop: bool,
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

/// Whole-program facts.
#[derive(Debug, Default)]
struct ProgFacts {
    /// Direct call sites per callee.
    callsites: HashMap<String, Vec<CallSite>>,
    /// Spawn sites per target function.
    spawn_sites: HashMap<String, Vec<SpawnSite>>,
    /// Function names used as values (taken as pointers).
    fn_value_used: HashSet<String>,
    /// A non-identifier spawn target was seen: every function may be a
    /// thread root and any formal may be reached indirectly.
    all_fns_aliased: bool,
    assigned_globals: HashSet<String>,
    addr_taken_globals: HashSet<String>,
}

impl ProgFacts {
    fn aliased(&self, f: &str) -> bool {
        self.all_fns_aliased || self.fn_value_used.contains(f)
    }
}

/// Computes the elision table for a checked program. `program` must be
/// post-analysis (all sharing modes concrete).
pub fn elide(program: &Program, instr: &Instrumentation) -> ElisionFacts {
    let graph = crate::callgraph::CallGraph::build(program);
    let fn_names: HashSet<String> = program.fns.iter().map(|f| f.name.clone()).collect();
    let global_names: HashSet<String> = program.globals.iter().map(|g| g.name.clone()).collect();

    let mut prog = ProgFacts::default();
    let mut infos: HashMap<String, FnInfo> = HashMap::new();
    for f in &program.fns {
        let mut scan = FnScan {
            program,
            fn_names: &fn_names,
            global_names: &global_names,
            caller: f.name.clone(),
            info: FnInfo::default(),
            prog: &mut prog,
            loop_depth: 0,
        };
        scan.init(f);
        scan.block(&f.body);
        infos.insert(f.name.clone(), scan.info);
    }

    let mut facts = ElisionFacts::default();

    // E1: PrivateActuals.
    for f in &program.fns {
        if graph.thread_roots.contains(&f.name) || prog.aliased(&f.name) {
            continue;
        }
        let info = &infos[&f.name];
        for (i, p) in f.params.iter().enumerate() {
            let Some(u) = info.uses.get(&p.name) else {
                continue;
            };
            if !matches!(u.pointee_qual(), Some(Qual::Dynamic)) {
                continue;
            }
            if !sink_safe(info, i, f, instr) {
                continue;
            }
            let all_ok = prog
                .callsites
                .get(&f.name)
                .map(|sites| {
                    sites.iter().all(|cs| match cs.actuals.get(i) {
                        Some(Actual::Null) | Some(Actual::PrivatePtr) => true,
                        Some(Actual::Local(x)) => {
                            // Re-resolve against the *caller's* scan: a
                            // private-pointee local is safe by typing; a
                            // fresh, never-escaping local is safe by E2's
                            // own argument.
                            infos.get(&cs.caller).is_some_and(|ci| {
                                ci.uses.get(x).is_some_and(|u| {
                                    matches!(u.pointee_qual(), Some(Qual::Private))
                                        || fresh_local(u, &infos, &prog, &graph, program, instr)
                                })
                            })
                        }
                        _ => false,
                    })
                })
                .unwrap_or(true);
            if all_ok {
                elide_dynamic_accesses(&mut facts, u, instr, Reason::PrivateActuals);
            }
        }
    }

    // E2: FreshPrivate.
    for f in &program.fns {
        let info = &infos[&f.name];
        for u in info.uses.values() {
            if u.is_param || !matches!(u.pointee_qual(), Some(Qual::Dynamic)) {
                continue;
            }
            if fresh_local(u, &infos, &prog, &graph, program, instr) {
                elide_dynamic_accesses(&mut facts, u, instr, Reason::FreshPrivate);
            }
        }
    }

    // E3: SpawnUnique.
    for f in &program.fns {
        if !graph.thread_roots.contains(&f.name) || prog.aliased(&f.name) {
            continue;
        }
        if prog.all_fns_aliased || f.params.len() != 1 {
            continue;
        }
        let direct_calls = prog.callsites.get(&f.name).map_or(0, |v| v.len());
        if direct_calls != 0 {
            continue;
        }
        let sites = match prog.spawn_sites.get(&f.name) {
            Some(s) if s.len() == 1 => &s[0],
            _ => continue,
        };
        if sites.in_loop {
            continue;
        }
        let Some(arg) = &sites.arg else { continue };
        let Some(g) = infos.get(&sites.caller) else {
            continue;
        };
        let Some(gu) = g.uses.get(arg) else { continue };
        let hand_off_ok = gu.decls == 1
            && !gu.is_param
            && gu.other_assigns == 0
            && gu.other == 0
            && !gu.addr_taken
            && gu.freed == 0
            && gu.spawn_args == 1
            && gu.call_args.is_empty()
            && gu.accesses.is_empty();
        let finfo = &infos[&f.name];
        if hand_off_ok && sink_safe(finfo, 0, f, instr) {
            if let Some(u) = finfo.uses.get(&f.params[0].name) {
                elide_dynamic_accesses(&mut facts, u, instr, Reason::SpawnUnique);
            }
        }
    }

    // E4: LockHeld — forward dataflow of held stable lock paths.
    let lock_strs: Vec<String> = instr.lock_exprs.iter().map(pretty::expr).collect();
    for f in &program.fns {
        let info = &infos[&f.name];
        let mut flow = LockFlow {
            info,
            prog: &prog,
            instr,
            lock_strs: &lock_strs,
            facts: &mut facts,
            stable_memo: HashMap::new(),
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
                collapse_assign(lhs, rhs, instr, &mut facts);
            }
            true
        });
    }

    // Static totals.
    let mut sum = ElisionSummary::default();
    for (id, ac) in &instr.checks {
        let site = facts.sites.get(id).copied().unwrap_or_default();
        if ac.read.is_some() {
            sum.checked_slots += 1;
            match site.read {
                Some(Reason::ReadOfWrite) => {
                    sum.collapsed_reads += 1;
                    sum.by_reason[Reason::ReadOfWrite.index()] += 1;
                }
                Some(r) => {
                    sum.elided_slots += 1;
                    sum.by_reason[r.index()] += 1;
                }
                None => {}
            }
        }
        if ac.write.is_some() {
            sum.checked_slots += 1;
            if let Some(r) = site.write {
                sum.elided_slots += 1;
                sum.by_reason[r.index()] += 1;
            }
        }
    }
    facts.summary = sum;
    facts
}

/// Elides the Dynamic slots of every recorded access through `u`.
fn elide_dynamic_accesses(
    facts: &mut ElisionFacts,
    u: &VarUse,
    instr: &Instrumentation,
    r: Reason,
) {
    for id in &u.accesses {
        if let Some(ac) = instr.checks.get(id) {
            if matches!(ac.read, Some(CheckKind::Dynamic)) {
                facts.elide_read(*id, r);
            }
            if matches!(ac.write, Some(CheckKind::Dynamic)) {
                facts.elide_write(*id, r);
            }
        }
    }
}

/// A formal is *sink-safe* when the callee can neither leak it nor
/// hand it to another thread: never reassigned or shadowed, never
/// address-taken, freed, spawned, or passed on, and every recorded
/// access carries only Dynamic-kind checks.
fn sink_safe(info: &FnInfo, i: usize, f: &FnDef, instr: &Instrumentation) -> bool {
    let Some(p) = f.params.get(i) else {
        return false;
    };
    let Some(u) = info.uses.get(&p.name) else {
        return false;
    };
    u.decls == 0
        && u.fresh_assigns == 0
        && u.null_assigns == 0
        && u.other_assigns == 0
        && u.spawn_args == 0
        && u.freed == 0
        && !u.addr_taken
        && u.other == 0
        && u.call_args.is_empty()
        && !u.accesses.iter().any(|id| {
            instr.checks.get(id).is_some_and(|ac| {
                matches!(ac.read, Some(CheckKind::Locked(_)))
                    || matches!(ac.write, Some(CheckKind::Locked(_)))
            })
        })
}

/// A local is *fresh* when it only ever holds freshly-allocated (or
/// NULL) thread-local storage and its value never escapes: it may be
/// dereferenced and passed to sink-safe callees, nothing else.
fn fresh_local(
    u: &VarUse,
    infos: &HashMap<String, FnInfo>,
    prog: &ProgFacts,
    graph: &crate::callgraph::CallGraph,
    program: &Program,
    instr: &Instrumentation,
) -> bool {
    u.decls == 1
        && !u.is_param
        && u.other_assigns == 0
        && u.other == 0
        && !u.addr_taken
        && u.spawn_args == 0
        && u.freed == 0
        && matches!(u.pointee_qual(), Some(Qual::Dynamic) | Some(Qual::Private))
        && u.call_args.iter().all(|(callee, pos)| {
            !graph.thread_roots.contains(callee)
                && !prog.aliased(callee)
                && program
                    .fn_by_name(callee)
                    .zip(infos.get(callee))
                    .is_some_and(|(fd, fi)| sink_safe(fi, *pos, fd, instr))
        })
}

// ----- the per-function scan -----

struct FnScan<'a> {
    program: &'a Program,
    fn_names: &'a HashSet<String>,
    global_names: &'a HashSet<String>,
    caller: String,
    info: FnInfo,
    prog: &'a mut ProgFacts,
    loop_depth: usize,
}

impl<'a> FnScan<'a> {
    fn init(&mut self, f: &FnDef) {
        for p in &f.params {
            let u = self.info.uses.entry(p.name.clone()).or_default();
            u.is_param = true;
            u.ty = Some(p.ty.clone());
        }
        // Pre-collect declared locals so forward references resolve as
        // locals, not globals.
        f.body.walk(&mut |n| {
            if let Node::Stmt(Stmt {
                kind: StmtKind::Decl { name, ty, .. },
                ..
            }) = n
            {
                let u = self.info.uses.entry(name.clone()).or_default();
                u.decls += 1;
                if u.ty.is_none() {
                    u.ty = Some(ty.clone());
                }
            }
            true
        });
    }

    fn is_local(&self, name: &str) -> bool {
        self.info.uses.contains_key(name)
    }

    fn use_mut(&mut self, name: &str) -> Option<&mut VarUse> {
        self.info.uses.get_mut(name)
    }

    fn block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Decl { name, init, .. } => {
                // A decl initializer classifies the local but does not
                // make its lock base non-constant (it matches the
                // checker's own constancy rule, which only counts
                // re-assignments).
                if let Some(e) = init {
                    self.record_assign(name, e);
                    self.expr(e);
                }
            }
            StmtKind::Assign { lhs, rhs } => {
                self.assign_lhs(lhs);
                if let ExprKind::Ident(n) = &lhs.kind {
                    if self.is_local(n) {
                        self.info.assigned_vars.insert(n.clone());
                        self.record_assign(n, rhs);
                    } else if self.global_names.contains(n) {
                        self.prog.assigned_globals.insert(n.clone());
                    }
                }
                self.expr(rhs);
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
                self.loop_depth += 1;
                self.block(body);
                self.loop_depth -= 1;
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
                self.loop_depth += 1;
                if let Some(c) = cond {
                    self.expr(c);
                }
                if let Some(st) = step {
                    self.stmt(st);
                }
                self.block(body);
                self.loop_depth -= 1;
            }
            StmtKind::Return(Some(e)) => self.expr(e),
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Block(b) => self.block(b),
        }
    }

    /// Classifies an assignment to local `name` by its rhs shape.
    fn record_assign(&mut self, name: &str, rhs: &Expr) {
        if let Some(u) = self.use_mut(name) {
            match &rhs.kind {
                ExprKind::New(_) | ExprKind::NewArray(..) => u.fresh_assigns += 1,
                ExprKind::Null => u.null_assigns += 1,
                _ => u.other_assigns += 1,
            }
        }
    }

    /// Effects of the lhs of an assignment beyond the plain-ident
    /// case: field stores feed E4's stability set, unresolvable
    /// pointer stores poison it.
    fn assign_lhs(&mut self, lhs: &Expr) {
        match &lhs.kind {
            ExprKind::Ident(_) => {
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
                self.scan_lhs_path(lhs);
            }
            ExprKind::Unary(UnOp::Deref, _) | ExprKind::Index(..) => {
                match self.static_ty(lhs) {
                    Some(t) => {
                        if is_mutex_ptr(&t) {
                            self.info.blob_store = true;
                        }
                        self.note_struct_store(&t);
                    }
                    None => self.info.blob_store = true,
                }
                self.scan_lhs_path(lhs);
            }
            _ => {
                self.info.blob_store = true;
                self.scan_lhs_path(lhs);
            }
        }
    }

    /// Records the *access* the lhs itself makes (the write target);
    /// inner pointers on the path are scanned as ordinary rvalues by
    /// `expr` on the same node.
    fn scan_lhs_path(&mut self, lhs: &Expr) {
        self.expr(lhs);
    }

    /// A struct stored by value dirties every field name it contains,
    /// transitively (they may include a lock path component).
    fn note_struct_store(&mut self, t: &Type) {
        let mut seen: HashSet<String> = HashSet::new();
        self.collect_struct_fields(t, &mut seen);
        for f in seen {
            self.info.assigned_fields.insert(f);
        }
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

    /// The single-level access-path classifier: returns the pointer
    /// variable accessed through and the side expressions to scan
    /// normally.
    fn access_path<'e>(&self, e: &'e Expr) -> Option<(String, Vec<&'e Expr>)> {
        let is_local_ptr = |name: &str| {
            self.info
                .uses
                .get(name)
                .and_then(|u| u.ty.as_ref())
                .is_some_and(|t| t.is_ptr() || matches!(t.kind, TypeKind::Array(..)))
        };
        match &e.kind {
            ExprKind::Unary(UnOp::Deref, inner) => match &inner.kind {
                ExprKind::Ident(n) if self.is_local(n) => Some((n.clone(), vec![])),
                ExprKind::Binary(op, a, b) if matches!(op, BinOp::Add | BinOp::Sub) => {
                    if let ExprKind::Ident(n) = &a.kind {
                        if is_local_ptr(n) {
                            return Some((n.clone(), vec![b]));
                        }
                    }
                    if let ExprKind::Ident(n) = &b.kind {
                        if is_local_ptr(n) && matches!(op, BinOp::Add) {
                            return Some((n.clone(), vec![a]));
                        }
                    }
                    None
                }
                _ => None,
            },
            ExprKind::Index(base, idx) => match &base.kind {
                ExprKind::Ident(n) if is_local_ptr(n) => Some((n.clone(), vec![idx])),
                _ => None,
            },
            ExprKind::Field(base, _, true) => match &base.kind {
                ExprKind::Ident(n) if self.is_local(n) => Some((n.clone(), vec![])),
                _ => None,
            },
            _ => None,
        }
    }

    fn expr(&mut self, e: &Expr) {
        if let Some((name, rest)) = self.access_path(e) {
            if let Some(u) = self.use_mut(&name) {
                u.accesses.push(e.id);
            }
            for r in rest {
                self.expr(r);
            }
            return;
        }
        match &e.kind {
            ExprKind::Ident(n) => {
                if self.is_local(n) {
                    if let Some(u) = self.use_mut(n) {
                        u.other += 1;
                    }
                } else if self.fn_names.contains(n) {
                    self.prog.fn_value_used.insert(n.clone());
                }
            }
            ExprKind::Unary(UnOp::AddrOf, inner) => match &inner.kind {
                ExprKind::Ident(n) => {
                    if self.is_local(n) {
                        if let Some(u) = self.use_mut(n) {
                            u.addr_taken = true;
                        }
                    } else if self.global_names.contains(n) {
                        self.prog.addr_taken_globals.insert(n.clone());
                    } else if self.fn_names.contains(n) {
                        self.prog.fn_value_used.insert(n.clone());
                    }
                }
                ExprKind::Field(_, fname, _) => {
                    self.info.assigned_fields.insert(fname.clone());
                    self.expr(inner);
                }
                _ => self.expr(inner),
            },
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
            ExprKind::Call(callee, args) => self.call(callee, args),
            ExprKind::Cast(_, a) | ExprKind::NewArray(_, a) => self.expr(a),
            ExprKind::Scast(_, src) => {
                // The scast nulls its source and carries its own
                // checks; protect them and kill elision on the root.
                if let Some(root) = root_ident(src) {
                    if self.is_local(&root) {
                        self.info.assigned_vars.insert(root.clone());
                        if let Some(u) = self.use_mut(&root) {
                            u.other += 1;
                        }
                    } else if self.global_names.contains(&root) {
                        self.prog.assigned_globals.insert(root);
                    }
                }
                self.expr(src);
            }
            ExprKind::Ternary(c, a, b) => {
                self.expr(c);
                self.expr(a);
                self.expr(b);
            }
            _ => {}
        }
    }

    fn call(&mut self, callee: &Expr, args: &[Expr]) {
        if let ExprKind::Ident(name) = &callee.kind {
            if name == "spawn" {
                match args.first().map(|a| &a.kind) {
                    Some(ExprKind::Ident(f)) if self.fn_names.contains(f) => {
                        let data = args.get(1);
                        let arg_local = match data.map(|a| &a.kind) {
                            Some(ExprKind::Ident(x)) if self.is_local(x) => Some(x.clone()),
                            _ => None,
                        };
                        if let Some(x) = &arg_local {
                            if let Some(u) = self.use_mut(x) {
                                u.spawn_args += 1;
                            }
                        } else if let Some(d) = data {
                            self.expr(d);
                        }
                        self.prog
                            .spawn_sites
                            .entry(f.clone())
                            .or_default()
                            .push(SpawnSite {
                                caller: self.caller.clone(),
                                arg: arg_local,
                                in_loop: self.loop_depth > 0,
                            });
                        for extra in args.iter().skip(2) {
                            self.expr(extra);
                        }
                    }
                    _ => {
                        self.prog.all_fns_aliased = true;
                        for a in args {
                            self.expr(a);
                        }
                    }
                }
                return;
            }
            if name == "free" {
                match args.first().map(|a| &a.kind) {
                    Some(ExprKind::Ident(x)) if self.is_local(x) => {
                        let x = x.clone();
                        if let Some(u) = self.use_mut(&x) {
                            u.freed += 1;
                        }
                    }
                    _ => {
                        for a in args {
                            self.expr(a);
                        }
                    }
                }
                return;
            }
            if is_builtin(name) {
                let sync = matches!(
                    name.as_str(),
                    "mutex_lock" | "mutex_unlock" | "cond_wait" | "cond_signal" | "cond_broadcast"
                );
                for a in args {
                    // A sync builtin's `&path` argument *names* its
                    // mutex/cond — the builtin mutates that object's
                    // state but can never retarget the path, so the
                    // address-of must not poison lock-path stability.
                    if sync {
                        if let ExprKind::Unary(UnOp::AddrOf, inner) = &a.kind {
                            if is_ident_field_chain(inner) {
                                self.expr(inner);
                                continue;
                            }
                        }
                    }
                    self.expr(a);
                }
                return;
            }
            if self.fn_names.contains(name) {
                let mut actuals = Vec::with_capacity(args.len());
                for (i, a) in args.iter().enumerate() {
                    let act = self.classify_actual(a);
                    if let Actual::Local(x) = &act {
                        if let Some(u) = self.use_mut(x) {
                            u.call_args.push((name.clone(), i));
                        }
                    } else {
                        self.expr(a);
                    }
                    actuals.push(act);
                }
                self.prog
                    .callsites
                    .entry(name.clone())
                    .or_default()
                    .push(CallSite {
                        caller: self.caller.clone(),
                        actuals,
                    });
                return;
            }
        }
        // Indirect call: any argument may escape anywhere.
        self.expr(callee);
        for a in args {
            self.expr(a);
            if let ExprKind::Ident(x) = &a.kind {
                if self.is_local(x) {
                    if let Some(u) = self.use_mut(x) {
                        u.other += 1;
                    }
                }
            }
        }
    }

    fn classify_actual(&self, a: &Expr) -> Actual {
        match &a.kind {
            ExprKind::Null => Actual::Null,
            ExprKind::Ident(x) if self.is_local(x) => Actual::Local(x.clone()),
            ExprKind::Unary(UnOp::AddrOf, inner) => {
                if let ExprKind::Ident(x) = &inner.kind {
                    let qual = self
                        .info
                        .uses
                        .get(x)
                        .and_then(|u| u.ty.as_ref())
                        .map(|t| t.qual.clone());
                    if matches!(qual, Some(Qual::Private)) {
                        return Actual::PrivatePtr;
                    }
                }
                Actual::Other
            }
            _ => {
                if matches!(
                    self.static_ty(a).as_ref().and_then(|t| t.pointee()),
                    Some(p) if matches!(p.qual, Qual::Private)
                ) {
                    Actual::PrivatePtr
                } else {
                    Actual::Other
                }
            }
        }
    }
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
    info: &'a FnInfo,
    prog: &'a ProgFacts,
    instr: &'a Instrumentation,
    lock_strs: &'a [String],
    facts: &'a mut ElisionFacts,
    /// Per-lock-string stability in this function, memoized.
    stable_memo: HashMap<String, bool>,
}

impl<'a> LockFlow<'a> {
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
                                if self.stable(&path) {
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
        let instr = self.instr;
        e.walk(&mut |e| {
            if let Some(ac) = instr.checks.get(&e.id) {
                if let Some(CheckKind::Locked(idx)) = &ac.read {
                    if self.lock_ok(*idx, held) {
                        self.facts.elide_read(e.id, Reason::LockHeld);
                    }
                }
                if let Some(CheckKind::Locked(idx)) = &ac.write {
                    if self.lock_ok(*idx, held) {
                        self.facts.elide_write(e.id, Reason::LockHeld);
                    }
                }
            }
            // Sharing-cast checks are deliberately preserved.
            !matches!(e.kind, ExprKind::Scast(..))
        });
    }

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
fn collapse_assign(lhs: &Expr, rhs: &Expr, instr: &Instrumentation, facts: &mut ElisionFacts) {
    let Some(lac) = instr.checks.get(&lhs.id) else {
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
        if let Some(ac) = instr.checks.get(&e.id) {
            if matches!(ac.read, Some(CheckKind::Dynamic))
                && facts.read_reason(e.id).is_none()
                && pretty::expr(e) == lhs_str
            {
                facts.elide_read(e.id, Reason::ReadOfWrite);
            }
        }
        true
    });
}

// ----- explain output -----

/// Renders one human-auditable line per elided or collapsed slot,
/// sorted by source position: `elide write *d [spawn-unique] @ f.c:4`.
pub fn explain(facts: &ElisionFacts, instr: &Instrumentation, sm: &SourceMap) -> Vec<String> {
    let mut rows: Vec<(u32, u32, String)> = Vec::new();
    for (id, site) in &facts.sites {
        let Some(ac) = instr.checks.get(id) else {
            continue;
        };
        let lc = sm.lookup(ac.span);
        let mut push = |rw: &str, r: Reason, ac: &AccessCheck| {
            let verb = if r == Reason::ReadOfWrite {
                "collapse"
            } else {
                "elide"
            };
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
        };
        if let Some(r) = site.read {
            push("read", r, ac);
        }
        if let Some(r) = site.write {
            push("write", r, ac);
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
            .elision
            .sites
            .values()
            .flat_map(|s| [s.read, s.write])
            .flatten()
            .collect();
        out.sort_by_key(|r| r.index());
        out
    }

    const SPAWN_UNIQUE: &str = "void worker(int * d) { int i; \
         for (i = 0; i < 10; i = i + 1) *d = *d + 1; }\n\
         void main() { int * p; int t; p = new(int); t = spawn(worker, p); join(t); }";

    #[test]
    fn spawn_unique_elides_every_worker_check() {
        let c = run(SPAWN_UNIQUE);
        let s = &c.elision.summary;
        // `*d = *d + 1`: one read slot + one write slot, both elided
        // (the read also matches E5, but E3 claims it first).
        assert_eq!(s.checked_slots, 2, "{:?}", c.instr.checks);
        assert_eq!(s.elided_slots, 2);
        assert!(reasons(&c).iter().all(|r| *r == Reason::SpawnUnique));
    }

    #[test]
    fn second_spawn_site_blocks_spawn_unique() {
        let c = run("void worker(int * d) { *d = 1; }\n\
             void main() { int * p; int * q; p = new(int); q = new(int); \
              spawn(worker, p); spawn(worker, q); }");
        assert_eq!(c.elision.summary.elided_slots, 0);
    }

    #[test]
    fn spawner_deref_blocks_spawn_unique() {
        // main reads *p unchecked-by-worker; eliding worker's checks
        // would hide the report the checked build makes.
        let c = run("void worker(int * d) { *d = 1; }\n\
             void main() { int * p; int v; p = new(int); *p = 4; \
              spawn(worker, p); v = *p; }");
        assert!(!c
            .elision
            .sites
            .values()
            .any(|s| s.write == Some(Reason::SpawnUnique)));
    }

    #[test]
    fn spawn_in_loop_blocks_spawn_unique() {
        let c = run("void worker(int * d) { *d = 1; }\n\
             void main() { int * p; int i; p = new(int); \
              for (i = 0; i < 2; i = i + 1) spawn(worker, p); }");
        assert_eq!(c.elision.summary.elided_slots, 0);
    }

    #[test]
    fn fresh_private_local_elides_dynamic_checks() {
        // g is inferred dynamic because the global leak makes the
        // *other* pointer thread-shared; b stays fresh & local.
        let c = run("int dynamic * leak;\n\
             void worker(int * d) { *d = 2; }\n\
             void main() { int dynamic * b; int v; b = new(int dynamic); \
              *b = 7; v = *b; leak = b; }");
        // `leak = b` makes b escape: other > 0, nothing elided for b.
        assert!(!c
            .elision
            .sites
            .values()
            .any(|s| s.write == Some(Reason::FreshPrivate)));

        let c2 = run(
            "void main() { int dynamic * b; int v; b = new(int dynamic); \
              *b = 7; v = *b; }",
        );
        let s = &c2.elision.summary;
        assert_eq!(s.checked_slots, 2);
        assert_eq!(s.elided_slots, 2);
        assert!(reasons(&c2).iter().all(|r| *r == Reason::FreshPrivate));
    }

    #[test]
    fn private_actuals_elide_callee_formal_checks() {
        // helper's formal is inferred dynamic (dynamic_in from worker
        // would block it), so use only private/fresh callers.
        let c = run("void bump(int dynamic * x) { *x = *x + 1; }\n\
             void main() { int * q; q = new(int); bump(q); }");
        let s = &c.elision.summary;
        assert!(s.elided_slots >= 2, "summary: {s:?}");
        assert!(reasons(&c).contains(&Reason::PrivateActuals));
    }

    #[test]
    fn shared_actual_blocks_private_actuals() {
        let c = run("void bump(int * x) { *x = *x + 1; }\n\
             void worker(int * d) { bump(d); }\n\
             void main() { int * p; int * q; p = new(int); q = new(int); \
              spawn(worker, p); bump(q); }");
        assert!(!c
            .elision
            .sites
            .values()
            .any(|s| s.write == Some(Reason::PrivateActuals)));
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
        let c = run(SPAWN_UNIQUE);
        let lines = explain(&c.elision, &c.instr, &c.source_map);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("[spawn-unique]"), "{lines:?}");
        assert!(lines[0].contains("elide_test.c:"), "{lines:?}");
        assert!(lines.iter().any(|l| l.starts_with("elide write *d")));
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
