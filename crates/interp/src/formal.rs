//! The paper's §3 formal model, executable: a core calculus with
//! `private` and `dynamic` sharing modes, the static typing judgments
//! of Fig. 4 (which insert `when chkread/chkwrite/oneref` guards),
//! and the small-step parallel operational semantics of Figs. 5–6.
//!
//! [`explore`] enumerates *every* interleaving of a bounded program
//! and verifies the soundness theorem of §3.4 on each trace:
//!
//! * private cells are only accessed by the thread that owns them;
//! * no two threads race on a dynamic cell (access with at least one
//!   write) unless an intervening sharing cast reset it.
//!
//! The guards are judged by the engine that ships: [`State::backend`]
//! is a `sharc_checker::BitmapBackend`, the one the VM, `replay` and
//! the streaming collector run, so the theorem is checked for
//! `sharded::step` itself. The oracle used for the second property
//! keeps its own reader/writer sets and is independent of the
//! inserted checks, so it genuinely tests that the checks are
//! load-bearing: type-checking a racy program without guards makes
//! the oracle fire (see the tests).

use sharc_checker::{BitmapBackend, CheckBackend};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault};

/// A sharing mode of the core calculus. The paper's §3 model uses
/// `private` and `dynamic`; per its remark that "the formalism is
/// readily extendable to include locked, readonly, and racy", this
/// implementation also carries `locked(l)` over a fixed set of lock
/// identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mode {
    Private,
    Dynamic,
    /// Protected by lock `l` (an index below [`FProgram::n_locks`]).
    Locked(u8),
}

impl Mode {
    /// True for modes visible to more than one thread.
    pub fn is_shared(self) -> bool {
        !matches!(self, Mode::Private)
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Private => write!(f, "private"),
            Mode::Dynamic => write!(f, "dynamic"),
            Mode::Locked(l) => write!(f, "locked(l{l})"),
        }
    }
}

/// A core type `m s` where `s ::= int | ref t`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FType {
    pub mode: Mode,
    pub shape: Shape,
}

/// Type shapes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Shape {
    Int,
    Ref(Box<FType>),
}

impl FType {
    /// `m int`
    pub fn int(mode: Mode) -> Self {
        FType {
            mode,
            shape: Shape::Int,
        }
    }

    /// `m ref t`
    pub fn reft(mode: Mode, inner: FType) -> Self {
        FType {
            mode,
            shape: Shape::Ref(Box::new(inner)),
        }
    }

    /// The referenced type, if a reference.
    pub fn target(&self) -> Option<&FType> {
        match &self.shape {
            Shape::Ref(t) => Some(t),
            Shape::Int => None,
        }
    }
}

/// An l-expression `x` or `*x`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LVal {
    Var(String),
    Deref(String),
}

impl fmt::Display for LVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LVal::Var(x) => write!(f, "{x}"),
            LVal::Deref(x) => write!(f, "*{x}"),
        }
    }
}

/// A right-hand side expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RExpr {
    L(LVal),
    Const(i64),
    Null,
    New(FType),
    /// `scast_t x` — changes the referent's mode; nulls `x`.
    Scast(FType, String),
}

/// A statement of the core language.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FStmt {
    Assign(LVal, RExpr),
    Spawn(String),
    /// Blocks until lock `l` is free, then takes it.
    Acquire(u8),
    /// Releases lock `l`; the thread fails if it does not hold it.
    Release(u8),
    Skip,
}

/// A thread definition: named locals and a straight-line body.
#[derive(Debug, Clone)]
pub struct ThreadDef {
    pub name: String,
    pub locals: Vec<(String, FType)>,
    pub body: Vec<FStmt>,
}

/// A program: globals plus thread definitions. Thread `main` runs
/// first.
#[derive(Debug, Clone, Default)]
pub struct FProgram {
    pub globals: Vec<(String, FType)>,
    pub threads: Vec<ThreadDef>,
    /// Number of locks available to `Mode::Locked` / acquire/release.
    pub n_locks: u8,
}

/// Runtime guards inserted by type checking (Fig. 4's `when` clauses,
/// plus the held-lock check of the `locked` extension).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Guard {
    ChkRead(LVal),
    ChkWrite(LVal),
    OneRef(String),
    /// The thread must hold lock `l` to proceed.
    ChkHeld(u8),
}

/// A checked statement: guards then the action.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CheckedStmt {
    pub guards: Vec<Guard>,
    pub stmt: FStmt,
}

/// A checked thread: name, locals, and guarded body.
pub type CheckedThread = (String, Vec<(String, FType)>, Vec<CheckedStmt>);

/// A type-checked program with inserted runtime checks.
#[derive(Debug, Clone)]
pub struct CheckedProgram {
    pub globals: Vec<(String, FType)>,
    pub threads: Vec<CheckedThread>,
    pub n_locks: u8,
}

/// A static type error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError(pub String);

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.0)
    }
}

impl std::error::Error for TypeError {}

// ----- static semantics (Fig. 4) -----

/// Checks a program and inserts runtime guards.
///
/// # Errors
///
/// Returns the first violation of the typing rules: a global that is
/// not `dynamic`, a `dynamic ref private` type (REF-CTOR), a shape
/// mismatch in an assignment, or an illegal cast.
pub fn typecheck(p: &FProgram) -> Result<CheckedProgram, TypeError> {
    // Rule (global): globals use a shared mode (dynamic, or locked in
    // the extension).
    for (x, t) in &p.globals {
        if !t.mode.is_shared() {
            return Err(TypeError(format!(
                "global `{x}` must be shared (dynamic/locked)"
            )));
        }
        check_locks(t, p.n_locks)?;
        wf(t)?;
    }
    let thread_names: HashSet<&str> = p.threads.iter().map(|t| t.name.as_str()).collect();
    let mut out = Vec::new();
    for td in &p.threads {
        for (x, t) in &td.locals {
            check_locks(t, p.n_locks)?;
            wf(t).map_err(|e| TypeError(format!("local `{x}`: {}", e.0)))?;
        }
        let env: BTreeMap<&str, &FType> = p
            .globals
            .iter()
            .chain(td.locals.iter())
            .map(|(x, t)| (x.as_str(), t))
            .collect();
        let mut body = Vec::new();
        for s in &td.body {
            body.push(check_stmt(s, &env, &thread_names, p.n_locks)?);
        }
        out.push((td.name.clone(), td.locals.clone(), body));
    }
    if !p.threads.iter().any(|t| t.name == "main") {
        return Err(TypeError("no `main` thread".into()));
    }
    Ok(CheckedProgram {
        globals: p.globals.clone(),
        threads: out,
        n_locks: p.n_locks,
    })
}

/// Every `Locked(l)` in the type must name a declared lock.
fn check_locks(t: &FType, n_locks: u8) -> Result<(), TypeError> {
    if let Mode::Locked(l) = t.mode {
        if l >= n_locks {
            return Err(TypeError(format!("unknown lock l{l}")));
        }
    }
    if let Shape::Ref(inner) = &t.shape {
        check_locks(inner, n_locks)?;
    }
    Ok(())
}

/// Rule (ref ctor): no shared reference to a private type.
fn wf(t: &FType) -> Result<(), TypeError> {
    if let Shape::Ref(inner) = &t.shape {
        if t.mode.is_shared() && inner.mode == Mode::Private {
            return Err(TypeError(
                "ill-formed type: shared ref to private target".into(),
            ));
        }
        wf(inner)?;
    }
    Ok(())
}

fn lval_type(lv: &LVal, env: &BTreeMap<&str, &FType>) -> Result<FType, TypeError> {
    match lv {
        LVal::Var(x) => env
            .get(x.as_str())
            .map(|t| (*t).clone())
            .ok_or_else(|| TypeError(format!("unknown variable `{x}`"))),
        LVal::Deref(x) => {
            let t = env
                .get(x.as_str())
                .ok_or_else(|| TypeError(format!("unknown variable `{x}`")))?;
            // Rule (deref): the pointer variable must be private so no
            // other thread can change it between check and access.
            if t.mode != Mode::Private {
                return Err(TypeError(format!(
                    "`*{x}`: dereferenced variable must be private"
                )));
            }
            t.target()
                .cloned()
                .ok_or_else(|| TypeError(format!("`{x}` is not a reference")))
        }
    }
}

fn read_guard(lv: &LVal, t: &FType) -> Option<Guard> {
    match t.mode {
        Mode::Dynamic => Some(Guard::ChkRead(lv.clone())),
        Mode::Locked(l) => Some(Guard::ChkHeld(l)),
        Mode::Private => None,
    }
}

fn write_guard(lv: &LVal, t: &FType) -> Option<Guard> {
    match t.mode {
        Mode::Dynamic => Some(Guard::ChkWrite(lv.clone())),
        Mode::Locked(l) => Some(Guard::ChkHeld(l)),
        Mode::Private => None,
    }
}

fn check_stmt(
    s: &FStmt,
    env: &BTreeMap<&str, &FType>,
    threads: &HashSet<&str>,
    n_locks: u8,
) -> Result<CheckedStmt, TypeError> {
    match s {
        FStmt::Skip => Ok(CheckedStmt {
            guards: vec![],
            stmt: s.clone(),
        }),
        FStmt::Acquire(l) | FStmt::Release(l) => {
            if *l >= n_locks {
                return Err(TypeError(format!("unknown lock l{l}")));
            }
            Ok(CheckedStmt {
                guards: vec![],
                stmt: s.clone(),
            })
        }
        FStmt::Spawn(f) => {
            if !threads.contains(f.as_str()) {
                return Err(TypeError(format!("spawn of unknown thread `{f}`")));
            }
            Ok(CheckedStmt {
                guards: vec![],
                stmt: s.clone(),
            })
        }
        FStmt::Assign(lhs, rhs) => {
            let tl = lval_type(lhs, env)?;
            let mut guards = Vec::new();
            match rhs {
                RExpr::Const(_) => {
                    if tl.shape != Shape::Int {
                        return Err(TypeError("integer assigned to reference".into()));
                    }
                }
                RExpr::Null | RExpr::New(_) => {
                    let Shape::Ref(target) = &tl.shape else {
                        return Err(TypeError("pointer value assigned to int".into()));
                    };
                    if let RExpr::New(t) = rhs {
                        if t != &**target {
                            return Err(TypeError("allocation type mismatch".into()));
                        }
                    }
                }
                RExpr::L(src) => {
                    let tr = lval_type(src, env)?;
                    // Rule (assign): both sides share the same shape
                    // `s`; their own modes m1/m2 may differ (copying a
                    // value between differently-moded cells is fine),
                    // but for references the referent type — deeper
                    // modes included — is invariant.
                    if tl.shape != tr.shape {
                        return Err(TypeError(format!(
                            "assignment type mismatch: {lhs} and {src}"
                        )));
                    }
                    if let Some(g) = read_guard(src, &tr) {
                        guards.push(g);
                    }
                }
                RExpr::Scast(t, x) => {
                    // Rule (cast-assign): t := scast_t x. x must be a
                    // private reference; only the referent's own mode
                    // may change; deeper structure is invariant.
                    let tx = env
                        .get(x.as_str())
                        .ok_or_else(|| TypeError(format!("unknown variable `{x}`")))?;
                    if tx.mode != Mode::Private {
                        return Err(TypeError(format!(
                            "scast source `{x}` must be a private variable"
                        )));
                    }
                    let Some(src_target) = tx.target() else {
                        return Err(TypeError(format!("`{x}` is not a reference")));
                    };
                    let Shape::Ref(dst_target) = &tl.shape else {
                        return Err(TypeError("scast result assigned to int".into()));
                    };
                    if t != &**dst_target {
                        return Err(TypeError("scast type must match destination".into()));
                    }
                    if t.shape != src_target.shape || deep_modes_differ(&t.shape, &src_target.shape)
                    {
                        return Err(TypeError(
                            "scast may only change the referent's own mode".into(),
                        ));
                    }
                    guards.push(Guard::OneRef(x.clone()));
                }
            }
            if let Some(g) = write_guard(lhs, &tl) {
                guards.push(g);
            }
            Ok(CheckedStmt {
                guards,
                stmt: s.clone(),
            })
        }
    }
}

/// True if any mode *below* the top level differs.
fn deep_modes_differ(a: &Shape, b: &Shape) -> bool {
    match (a, b) {
        (Shape::Ref(x), Shape::Ref(y)) => x.mode != y.mode || deep_modes_differ(&x.shape, &y.shape),
        _ => false,
    }
}

// ----- dynamic semantics (Figs. 5 and 6) -----

/// A memory cell: value, type and owner. The paper's
/// `M : l -> Z x t x l x P(l) x P(l)` also gives each cell its reader
/// and writer sets; here they are the cell's granule in
/// [`State::backend`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cell {
    pub value: i64,
    pub ty: FType,
    pub owner: usize,
}

/// One thread: its environment and remaining work.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ThreadState {
    pub id: usize,
    pub env: BTreeMap<String, usize>,
    /// Remaining statements; the head may have guards left to run.
    pub body: Vec<CheckedStmt>,
    pub pc: usize,
    /// Guards of the current statement already discharged.
    pub guards_done: usize,
    pub failed: bool,
}

impl ThreadState {
    /// True if the thread has no more work.
    pub fn done(&self) -> bool {
        self.failed || self.pc >= self.body.len()
    }
}

/// A whole-machine state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    pub memory: Vec<Cell>,
    pub threads: Vec<ThreadState>,
    /// Lock owner (thread id) per lock: decides whether an acquire is
    /// enabled, and is what the soundness oracle reads.
    pub locks: Vec<Option<usize>>,
    /// The engine every guard is judged by: a cell's address is its
    /// granule, and its held-lock log answers `ChkHeld`.
    pub backend: BitmapBackend,
}

/// Everything observed during one transition, fed to the soundness
/// oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    Read { addr: usize, tid: usize },
    Write { addr: usize, tid: usize },
    CastReset { addr: usize },
}

/// Builds the initial state: globals allocated with owner 0 (no
/// owner), a single `main` thread with its locals.
pub fn initial_state(p: &CheckedProgram) -> State {
    let mut memory = Vec::new();
    let mut genv = BTreeMap::new();
    for (x, t) in &p.globals {
        genv.insert(x.clone(), memory.len());
        memory.push(Cell {
            value: 0,
            ty: t.clone(),
            owner: 0,
        });
    }
    let mut st = State {
        memory,
        threads: Vec::new(),
        locks: vec![None; p.n_locks as usize],
        backend: BitmapBackend::new(),
    };
    spawn_thread(&mut st, p, "main", &genv);
    st
}

fn spawn_thread(st: &mut State, p: &CheckedProgram, name: &str, genv: &BTreeMap<String, usize>) {
    let (_, locals, body) = p
        .threads
        .iter()
        .find(|(n, _, _)| n == name)
        .expect("thread exists (typechecked)");
    let id = st.threads.len() + 1;
    let mut env = genv.clone();
    for (x, t) in locals {
        env.insert(x.clone(), st.memory.len());
        st.memory.push(Cell {
            value: 0,
            ty: t.clone(),
            owner: id,
        });
    }
    st.threads.push(ThreadState {
        id,
        env,
        body: body.clone(),
        pc: 0,
        guards_done: 0,
        failed: false,
    });
}

fn genv_of(p: &CheckedProgram) -> BTreeMap<String, usize> {
    // Globals were allocated first, in order.
    p.globals
        .iter()
        .enumerate()
        .map(|(i, (x, _))| (x.clone(), i))
        .collect()
}

fn addr_of(st: &State, t: &ThreadState, lv: &LVal) -> Option<usize> {
    match lv {
        LVal::Var(x) => t.env.get(x).copied(),
        LVal::Deref(x) => {
            let a = t.env.get(x).copied()?;
            let v = st.memory[a].value;
            if v <= 0 {
                None // null dereference -> fail
            } else {
                Some((v - 1) as usize)
            }
        }
    }
}

/// Executes one small step of thread `ti` in `st`, returning the new
/// state and what was observed. Returns `None` if the thread cannot
/// step (it is done).
pub fn step(p: &CheckedProgram, st: &State, ti: usize) -> Option<(State, Vec<Observation>)> {
    let t = &st.threads[ti];
    if t.done() {
        return None;
    }
    let cs = &t.body[t.pc];
    // An acquire of a lock held by another thread is not enabled: the
    // thread blocks (no transition).
    if t.guards_done >= cs.guards.len() {
        if let FStmt::Acquire(l) = &cs.stmt {
            if let Some(owner) = st.locks[*l as usize] {
                if owner != t.id {
                    return None;
                }
                // Re-acquiring a lock we hold: fail (non-recursive).
                let mut st2 = st.clone();
                st2.threads[ti].failed = true;
                return Some((st2, vec![]));
            }
        }
    }
    let mut st2 = st.clone();
    let tid = t.id;
    // The same thread as the backend names it.
    let me = tid as u32;

    // Discharge the next guard, if any (one guard per step, so guard
    // interleavings are explored too). Every verdict is the backend's.
    if t.guards_done < cs.guards.len() {
        let backend = &mut st2.backend;
        let passed = match &cs.guards[t.guards_done] {
            Guard::ChkRead(lv) => {
                addr_of(st, t, lv).is_some_and(|a| !backend.chkread(me, a).is_conflict())
            }
            Guard::ChkWrite(lv) => {
                addr_of(st, t, lv).is_some_and(|a| !backend.chkwrite(me, a).is_conflict())
            }
            Guard::ChkHeld(l) => backend.lock_held(me, *l as usize),
            Guard::OneRef(x) => {
                let v = st.memory[t.env[x]].value;
                // A null source casts nothing. Otherwise
                // |{b : M(b).value = a}| = 1: count the references in
                // memory to the target.
                v <= 0 || {
                    let refs = st
                        .memory
                        .iter()
                        .filter(|c| matches!(c.ty.shape, Shape::Ref(_)) && c.value == v)
                        .count();
                    !backend
                        .oneref(me, (v - 1) as usize, refs as u64)
                        .is_conflict()
                }
            }
        };
        if passed {
            st2.threads[ti].guards_done += 1;
        } else {
            st2.threads[ti].failed = true;
        }
        return Some((st2, vec![]));
    }

    // All guards passed: perform the action.
    st2.threads[ti].guards_done = 0;
    st2.threads[ti].pc += 1;
    let mut obs = Vec::new();
    match &cs.stmt {
        FStmt::Skip => {}
        FStmt::Acquire(l) => {
            // The transition is only enabled when the lock is free
            // (handled by the caller-visible None below), so here the
            // lock is taken.
            st2.locks[*l as usize] = Some(tid);
            st2.backend.on_acquire(me, *l as usize);
        }
        FStmt::Release(l) => {
            if st2.locks[*l as usize] != Some(tid) {
                st2.threads[ti].failed = true;
                return Some((st2, vec![]));
            }
            st2.locks[*l as usize] = None;
            st2.backend.on_release(me, *l as usize);
        }
        FStmt::Spawn(f) => {
            let genv = genv_of(p);
            spawn_thread(&mut st2, p, f, &genv);
        }
        FStmt::Assign(lhs, rhs) => {
            let Some(dst) = addr_of(st, t, lhs) else {
                st2.threads[ti].failed = true;
                return Some((st2, vec![]));
            };
            // Evaluate the rhs.
            let (val, cast_reset) = match rhs {
                RExpr::Const(n) => (*n, None),
                RExpr::Null => (0, None),
                RExpr::New(ty) => {
                    let a = st2.memory.len();
                    st2.memory.push(Cell {
                        value: 0,
                        ty: ty.clone(),
                        owner: if ty.mode == Mode::Private { tid } else { 0 },
                    });
                    ((a + 1) as i64, None)
                }
                RExpr::L(src) => {
                    let Some(a) = addr_of(st, t, src) else {
                        st2.threads[ti].failed = true;
                        return Some((st2, vec![]));
                    };
                    obs.push(Observation::Read { addr: a, tid });
                    (st.memory[a].value, None)
                }
                RExpr::Scast(ty, x) => {
                    let xa = t.env[x];
                    let v = st.memory[xa].value;
                    // Null out the source.
                    st2.memory[xa].value = 0;
                    if v > 0 {
                        let target = (v - 1) as usize;
                        // Retype the referent; new owner for private;
                        // the engine forgets its accesses.
                        st2.memory[target].ty = ty.clone();
                        st2.memory[target].owner = if ty.mode == Mode::Private { tid } else { 0 };
                        st2.backend.on_cast_clear(target);
                        (v, Some(target))
                    } else {
                        (0, None)
                    }
                }
            };
            st2.memory[dst].value = val;
            if let Some(reset) = cast_reset {
                obs.push(Observation::CastReset { addr: reset });
            }
            obs.push(Observation::Write { addr: dst, tid });
        }
    }
    Some((st2, obs))
}

// ----- exploration & soundness oracle -----

/// A violation of the §3.4 soundness theorem found by [`explore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A private cell was accessed by a thread that does not own it.
    PrivateAccess {
        addr: usize,
        tid: usize,
        owner: usize,
    },
    /// Two threads raced on a dynamic cell with no intervening cast.
    DynamicRace { addr: usize },
    /// A locked-mode cell was accessed without holding its lock
    /// (the `locked` extension's discipline).
    LockDiscipline { addr: usize, tid: usize, lock: u8 },
    /// Exploration exceeded the state budget (not a soundness bug).
    Budget,
}

/// Exhaustively explores every interleaving of `p` (up to
/// `max_states` distinct states), checking the soundness invariants
/// with an oracle independent of the inserted guards.
///
/// Returns the violations found (empty for a sound configuration) and
/// the number of distinct states visited.
pub fn explore(p: &CheckedProgram, max_states: usize) -> (Vec<Violation>, usize) {
    // Oracle state per memory cell: accesses since the last cast.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct OracleCell {
        readers: u64,
        writers: u64,
    }
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Node {
        st: State,
        oracle: Vec<OracleCell>,
    }

    let init = Node {
        st: initial_state(p),
        oracle: Vec::new(),
    };
    // States are deduplicated by hash, with a fixed hasher so every run
    // explores the same states.
    let hasher = BuildHasherDefault::<DefaultHasher>::default();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut stack = vec![init];
    let mut violations = Vec::new();
    let mut visited = 0usize;

    while let Some(node) = stack.pop() {
        if !seen.insert(hasher.hash_one(&node)) {
            continue;
        }
        visited += 1;
        if visited > max_states {
            violations.push(Violation::Budget);
            break;
        }
        let n_threads = node.st.threads.len();
        for ti in 0..n_threads {
            if let Some((st2, obs)) = step(p, &node.st, ti) {
                let mut oracle = node.oracle.clone();
                oracle.resize(
                    st2.memory.len(),
                    OracleCell {
                        readers: 0,
                        writers: 0,
                    },
                );
                for o in obs {
                    match o {
                        Observation::CastReset { addr } => {
                            // A mode change forgives the past: reset
                            // the oracle for the cell.
                            oracle[addr] = OracleCell {
                                readers: 0,
                                writers: 0,
                            };
                        }
                        Observation::Write { addr, tid } => {
                            let cell = &st2.memory[addr];
                            if cell.ty.mode == Mode::Private && cell.owner != 0 && cell.owner != tid
                            {
                                violations.push(Violation::PrivateAccess {
                                    addr,
                                    tid,
                                    owner: cell.owner,
                                });
                            }
                            if let Mode::Locked(l) = cell.ty.mode {
                                // Oracle: the pre-state lock owner must
                                // be the accessor (independent of the
                                // ChkHeld guard).
                                if node.st.locks[l as usize] != Some(tid) {
                                    violations.push(Violation::LockDiscipline {
                                        addr,
                                        tid,
                                        lock: l,
                                    });
                                }
                            }
                            if cell.ty.mode == Mode::Dynamic {
                                let oc = &mut oracle[addr];
                                if (oc.readers | oc.writers) & !(1 << tid) != 0 {
                                    violations.push(Violation::DynamicRace { addr });
                                }
                                oc.readers |= 1 << tid;
                                oc.writers |= 1 << tid;
                            }
                        }
                        Observation::Read { addr, tid } => {
                            let cell = &st2.memory[addr];
                            if cell.ty.mode == Mode::Private && cell.owner != 0 && cell.owner != tid
                            {
                                violations.push(Violation::PrivateAccess {
                                    addr,
                                    tid,
                                    owner: cell.owner,
                                });
                            }
                            if let Mode::Locked(l) = cell.ty.mode {
                                if node.st.locks[l as usize] != Some(tid) {
                                    violations.push(Violation::LockDiscipline {
                                        addr,
                                        tid,
                                        lock: l,
                                    });
                                }
                            }
                            if cell.ty.mode == Mode::Dynamic {
                                let oc = &mut oracle[addr];
                                if oc.writers & !(1 << tid) != 0 {
                                    violations.push(Violation::DynamicRace { addr });
                                }
                                oc.readers |= 1 << tid;
                            }
                        }
                    }
                }
                stack.push(Node { st: st2, oracle });
            }
        }
        if !violations.is_empty() {
            break;
        }
    }
    (violations, visited)
}

/// Strips all guards from a checked program — used to demonstrate
/// that the runtime checks are load-bearing for soundness.
pub fn strip_guards(p: &CheckedProgram) -> CheckedProgram {
    let mut q = p.clone();
    for (_, _, body) in &mut q.threads {
        for cs in body {
            cs.guards.clear();
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dyn_int() -> FType {
        FType::int(Mode::Dynamic)
    }

    fn priv_ref(t: FType) -> FType {
        FType::reft(Mode::Private, t)
    }

    /// Two threads writing the same dynamic global.
    fn racy_program() -> FProgram {
        FProgram {
            globals: vec![("g".into(), dyn_int())],
            threads: vec![
                ThreadDef {
                    name: "main".into(),
                    locals: vec![],
                    body: vec![
                        FStmt::Spawn("writer".into()),
                        FStmt::Assign(LVal::Var("g".into()), RExpr::Const(1)),
                    ],
                },
                ThreadDef {
                    name: "writer".into(),
                    locals: vec![],
                    body: vec![FStmt::Assign(LVal::Var("g".into()), RExpr::Const(2))],
                },
            ],
            n_locks: 0,
        }
    }

    #[test]
    fn typecheck_inserts_guards() {
        let cp = typecheck(&racy_program()).unwrap();
        let main = &cp.threads[0].2;
        assert!(main[1]
            .guards
            .contains(&Guard::ChkWrite(LVal::Var("g".into()))));
    }

    #[test]
    fn globals_must_be_dynamic() {
        let p = FProgram {
            globals: vec![("g".into(), FType::int(Mode::Private))],
            threads: vec![ThreadDef {
                name: "main".into(),
                locals: vec![],
                body: vec![],
            }],
            n_locks: 0,
        };
        assert!(typecheck(&p).is_err());
    }

    #[test]
    fn ref_ctor_rejected() {
        let p = FProgram {
            globals: vec![(
                "g".into(),
                FType::reft(Mode::Dynamic, FType::int(Mode::Private)),
            )],
            threads: vec![ThreadDef {
                name: "main".into(),
                locals: vec![],
                body: vec![],
            }],
            n_locks: 0,
        };
        assert!(typecheck(&p).is_err());
    }

    #[test]
    fn checked_racy_program_is_sound() {
        // With guards inserted, the soundness oracle finds no races:
        // the losing thread fails its check before racing.
        let cp = typecheck(&racy_program()).unwrap();
        let (violations, states) = explore(&cp, 100_000);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(states > 1);
    }

    #[test]
    fn unchecked_racy_program_violates() {
        // Stripping the guards exposes the race to the oracle,
        // demonstrating the checks are what guarantee the theorem.
        let cp = strip_guards(&typecheck(&racy_program()).unwrap());
        let (violations, _) = explore(&cp, 100_000);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::DynamicRace { .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn scast_transfers_ownership_soundly() {
        // main allocates a dynamic int, writes it, then casts the
        // reference to private — afterwards only main may touch it.
        let p = FProgram {
            globals: vec![("g".into(), FType::reft(Mode::Dynamic, dyn_int()))],
            threads: vec![ThreadDef {
                name: "main".into(),
                locals: vec![
                    ("x".into(), priv_ref(dyn_int())),
                    ("y".into(), priv_ref(FType::int(Mode::Private))),
                ],
                body: vec![
                    FStmt::Assign(LVal::Var("x".into()), RExpr::New(dyn_int())),
                    FStmt::Assign(LVal::Deref("x".into()), RExpr::Const(7)),
                    FStmt::Assign(
                        LVal::Var("y".into()),
                        RExpr::Scast(FType::int(Mode::Private), "x".into()),
                    ),
                    FStmt::Assign(LVal::Deref("y".into()), RExpr::Const(9)),
                ],
            }],
            n_locks: 0,
        };
        let cp = typecheck(&p).unwrap();
        let (violations, _) = explore(&cp, 100_000);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn scast_nulls_source() {
        let p = FProgram {
            globals: vec![],
            threads: vec![ThreadDef {
                name: "main".into(),
                locals: vec![
                    ("x".into(), priv_ref(dyn_int())),
                    ("y".into(), priv_ref(FType::int(Mode::Private))),
                ],
                body: vec![
                    FStmt::Assign(LVal::Var("x".into()), RExpr::New(dyn_int())),
                    FStmt::Assign(
                        LVal::Var("y".into()),
                        RExpr::Scast(FType::int(Mode::Private), "x".into()),
                    ),
                ],
            }],
            n_locks: 0,
        };
        let cp = typecheck(&p).unwrap();
        let mut st = initial_state(&cp);
        // Run main to completion deterministically.
        while let Some((st2, _)) = step(&cp, &st, 0) {
            st = st2;
        }
        let x_addr = st.threads[0].env["x"];
        assert_eq!(st.memory[x_addr].value, 0, "scast nulls its source");
    }

    #[test]
    fn oneref_fails_with_second_reference() {
        // Two references to the same object: the cast must fail.
        let p = FProgram {
            globals: vec![],
            threads: vec![ThreadDef {
                name: "main".into(),
                locals: vec![
                    ("x".into(), priv_ref(dyn_int())),
                    ("z".into(), priv_ref(dyn_int())),
                    ("y".into(), priv_ref(FType::int(Mode::Private))),
                ],
                body: vec![
                    FStmt::Assign(LVal::Var("x".into()), RExpr::New(dyn_int())),
                    FStmt::Assign(LVal::Var("z".into()), RExpr::L(LVal::Var("x".into()))),
                    FStmt::Assign(
                        LVal::Var("y".into()),
                        RExpr::Scast(FType::int(Mode::Private), "x".into()),
                    ),
                ],
            }],
            n_locks: 0,
        };
        let cp = typecheck(&p).unwrap();
        let mut st = initial_state(&cp);
        while let Some((st2, _)) = step(&cp, &st, 0) {
            st = st2;
        }
        assert!(st.threads[0].failed, "oneref must fail with 2 refs");
    }

    #[test]
    fn illegal_deep_cast_rejected() {
        // ref(dynamic ref(dynamic int)) cannot cast to
        // ref(private ref(private int)).
        let inner_dyn = FType::reft(Mode::Dynamic, dyn_int());
        let inner_priv = FType::reft(Mode::Private, FType::int(Mode::Private));
        let p = FProgram {
            globals: vec![],
            threads: vec![ThreadDef {
                name: "main".into(),
                locals: vec![
                    ("x".into(), priv_ref(inner_dyn.clone())),
                    ("y".into(), priv_ref(inner_priv.clone())),
                ],
                body: vec![FStmt::Assign(
                    LVal::Var("y".into()),
                    RExpr::Scast(inner_priv, "x".into()),
                )],
            }],
            n_locks: 0,
        };
        assert!(typecheck(&p).is_err());
    }

    #[test]
    fn private_locals_only_touched_by_owner() {
        // Reads and writes of private locals never violate ownership
        // in any interleaving.
        let p = FProgram {
            globals: vec![("g".into(), dyn_int())],
            threads: vec![
                ThreadDef {
                    name: "main".into(),
                    locals: vec![("a".into(), FType::int(Mode::Private))],
                    body: vec![
                        FStmt::Spawn("other".into()),
                        FStmt::Assign(LVal::Var("a".into()), RExpr::Const(3)),
                        FStmt::Assign(LVal::Var("a".into()), RExpr::Const(4)),
                    ],
                },
                ThreadDef {
                    name: "other".into(),
                    locals: vec![("b".into(), FType::int(Mode::Private))],
                    body: vec![FStmt::Assign(LVal::Var("b".into()), RExpr::Const(5))],
                },
            ],
            n_locks: 0,
        };
        let cp = typecheck(&p).unwrap();
        let (violations, _) = explore(&cp, 100_000);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn read_sharing_allowed() {
        // Multiple readers of a dynamic global: no failures needed,
        // no violations.
        let p = FProgram {
            globals: vec![("g".into(), dyn_int())],
            threads: vec![
                ThreadDef {
                    name: "main".into(),
                    locals: vec![("a".into(), FType::int(Mode::Dynamic))],
                    body: vec![
                        FStmt::Spawn("reader".into()),
                        FStmt::Assign(LVal::Var("a".into()), RExpr::L(LVal::Var("g".into()))),
                    ],
                },
                ThreadDef {
                    name: "reader".into(),
                    locals: vec![("b".into(), FType::int(Mode::Dynamic))],
                    body: vec![FStmt::Assign(
                        LVal::Var("b".into()),
                        RExpr::L(LVal::Var("g".into())),
                    )],
                },
            ],
            n_locks: 0,
        };
        let cp = typecheck(&p).unwrap();
        let (violations, _) = explore(&cp, 100_000);
        assert!(violations.is_empty(), "{violations:?}");
        // And no thread needs to fail: verify a full run exists where
        // everyone completes (readers don't conflict).
        let mut st = initial_state(&cp);
        loop {
            let mut progressed = false;
            for ti in 0..st.threads.len() {
                if let Some((st2, _)) = step(&cp, &st, ti) {
                    st = st2;
                    progressed = true;
                    break;
                }
            }
            if !progressed {
                break;
            }
        }
        assert!(st.threads.iter().all(|t| !t.failed));
    }

    // ----- the locked extension -----

    fn locked_counter_program(with_discipline: bool) -> FProgram {
        let body = |_: usize| {
            let mut b = Vec::new();
            if with_discipline {
                b.push(FStmt::Acquire(0));
            }
            b.push(FStmt::Assign(LVal::Var("c".into()), RExpr::Const(1)));
            if with_discipline {
                b.push(FStmt::Release(0));
            }
            b
        };
        FProgram {
            globals: vec![(
                "c".into(),
                FType {
                    mode: Mode::Locked(0),
                    shape: Shape::Int,
                },
            )],
            threads: vec![
                ThreadDef {
                    name: "main".into(),
                    locals: vec![],
                    body: {
                        let mut b = vec![FStmt::Spawn("other".into())];
                        b.extend(body(0));
                        b
                    },
                },
                ThreadDef {
                    name: "other".into(),
                    locals: vec![],
                    body: body(1),
                },
            ],
            n_locks: 1,
        }
    }

    #[test]
    fn locked_guard_is_inserted() {
        let cp = typecheck(&locked_counter_program(true)).unwrap();
        let other = &cp.threads[1].2;
        assert!(other[1].guards.contains(&Guard::ChkHeld(0)));
    }

    #[test]
    fn locked_counter_with_discipline_is_sound() {
        let cp = typecheck(&locked_counter_program(true)).unwrap();
        let (violations, states) = explore(&cp, 200_000);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(states > 5);
    }

    #[test]
    fn unlocked_access_fails_the_guard_not_the_theorem() {
        // Without acquire/release the ChkHeld guard stops the access:
        // still no oracle violation.
        let cp = typecheck(&locked_counter_program(false)).unwrap();
        let (violations, _) = explore(&cp, 200_000);
        assert!(violations.is_empty(), "{violations:?}");
        // And every run fails both threads at the guard.
        let mut st = initial_state(&cp);
        loop {
            let mut stepped = false;
            for ti in 0..st.threads.len() {
                if let Some((s2, _)) = step(&cp, &st, ti) {
                    st = s2;
                    stepped = true;
                    break;
                }
            }
            if !stepped {
                break;
            }
        }
        assert!(st.threads.iter().all(|t| t.failed));
    }

    #[test]
    fn stripping_chkheld_exposes_lock_discipline_violation() {
        let cp = strip_guards(&typecheck(&locked_counter_program(false)).unwrap());
        let (violations, _) = explore(&cp, 200_000);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::LockDiscipline { .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn release_without_hold_fails() {
        let p = FProgram {
            globals: vec![],
            threads: vec![ThreadDef {
                name: "main".into(),
                locals: vec![],
                body: vec![FStmt::Release(0)],
            }],
            n_locks: 1,
        };
        let cp = typecheck(&p).unwrap();
        let mut st = initial_state(&cp);
        while let Some((s2, _)) = step(&cp, &st, 0) {
            st = s2;
        }
        assert!(st.threads[0].failed);
    }

    #[test]
    fn acquire_blocks_until_free() {
        // main takes the lock and never releases; other's acquire is
        // never enabled -> deadlock (no successors for other).
        let p = FProgram {
            globals: vec![],
            threads: vec![
                ThreadDef {
                    name: "main".into(),
                    locals: vec![],
                    body: vec![FStmt::Spawn("other".into()), FStmt::Acquire(0)],
                },
                ThreadDef {
                    name: "other".into(),
                    locals: vec![],
                    body: vec![FStmt::Acquire(0)],
                },
            ],
            n_locks: 1,
        };
        let cp = typecheck(&p).unwrap();
        let mut st = initial_state(&cp);
        loop {
            let mut stepped = false;
            for ti in 0..st.threads.len() {
                if let Some((s2, _)) = step(&cp, &st, ti) {
                    st = s2;
                    stepped = true;
                    break;
                }
            }
            if !stepped {
                break;
            }
        }
        // main finished; other is blocked mid-program, not failed.
        assert!(st.threads[0].done());
        assert!(!st.threads[1].failed);
        assert!(!st.threads[1].done());
    }

    #[test]
    fn locked_ref_to_private_is_ill_formed() {
        let p = FProgram {
            globals: vec![(
                "g".into(),
                FType::reft(Mode::Locked(0), FType::int(Mode::Private)),
            )],
            threads: vec![ThreadDef {
                name: "main".into(),
                locals: vec![],
                body: vec![],
            }],
            n_locks: 1,
        };
        assert!(typecheck(&p).is_err());
    }

    #[test]
    fn unknown_lock_rejected() {
        let p = locked_counter_program(true);
        let mut p = p;
        p.n_locks = 0;
        assert!(typecheck(&p).is_err());
    }
}
