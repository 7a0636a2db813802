//! The MiniC virtual machine with SharC's runtime checking.
//!
//! Executes [`Module`] bytecode with multiple simulated threads under
//! a seeded scheduler, so race exposure is reproducible. The scheduler
//! is consulted only after a schedule point
//! ([`Insn::is_schedule_point`]) or a step that leaves the running
//! thread unable to run; every other step is private to the running
//! thread, which keeps the CPU. The paper's runtime (§4.2) is not
//! implemented here: every dynamic check is a call on one
//! [`BitmapBackend`], the engine `sharc replay` and the streaming
//! collector judge with.
//!
//! * **Reader/writer sets** per 16-byte granule of memory (2 cells):
//!   `chkread` / `chkwrite` per granule a checked access covers.
//! * **Held-lock logs** per thread: `on_acquire` / `on_release` at
//!   every mutex hand-over, `lock_held` at `locked(l)` checks.
//! * **Exact reference counts** maintained here on every pointer
//!   store and handed to `oneref` at sharing casts; a passing cast
//!   clears the object's granules (`on_cast_clear`).
//! * **Cleanup** on `free` (`on_alloc` per granule) and thread exit
//!   (`on_thread_exit`; non-overlapping lifetimes do not race).

use crate::bytecode::*;
use crate::report::{ConflictReport, Reporter};
use minic::ast::BinOp;
use minic::span::SourceMap;
use sharc_checker::{Access, BitmapBackend, CheckBackend, CheckEvent, EventSink, Verdict, MAX_TID};
use sharc_testkit::rng::{Rng, Xoshiro256pp};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Uniformly random runnable thread at each pick (seeded).
    Random,
    /// Round-robin: a thread keeps the CPU for the given number of
    /// further schedule points before the next runnable thread runs.
    RoundRobin(u32),
}

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    pub seed: u64,
    pub policy: SchedPolicy,
    /// Abort after this many instructions (live-lock guard).
    pub max_steps: u64,
    /// Stop collecting after this many distinct reports.
    pub max_reports: usize,
    /// Cells per shadow granule; one cell models 8 bytes, so the
    /// default of [`sharc_checker::GRANULE_CELLS`] (= 2) models the
    /// paper's 16-byte granule.
    pub granule: u32,
    /// Halt the whole VM at the first failed check.
    pub stop_on_error: bool,
    /// Where every memory/sync event goes as a [`CheckEvent`], at this
    /// configuration's `granule`, in execution order: every load and
    /// store (checked or not), lock operation, fork, join, exit,
    /// allocation, free and sharing cast. `None` records nothing.
    pub sink: Option<Arc<dyn EventSink>>,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            seed: 0x5ac5,
            policy: SchedPolicy::Random,
            max_steps: 200_000_000,
            max_reports: 64,
            granule: sharc_checker::GRANULE_CELLS,
            stop_on_error: false,
            sink: None,
        }
    }
}

/// Why the VM stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitStatus {
    /// All threads ran to completion.
    Completed,
    /// No thread was runnable but some were blocked.
    Deadlock,
    /// The step limit was hit.
    StepLimit,
    /// `stop_on_error` was set and a check failed or a thread hit a
    /// fatal runtime error (null dereference, assert, thread limit).
    /// Without it a fatal error only ends the thread that hit it, and
    /// [`RunOutcome::thread_errors`] keeps it.
    Failed(String),
}

/// Counters describing a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct VmStats {
    pub steps: u64,
    /// Times the scheduler was consulted: once at the start, then
    /// after every schedule point and every step that blocked, ended
    /// or killed the running thread.
    pub picks: u64,
    /// Memory cells read or written.
    pub total_accesses: u64,
    /// Cells covered by dynamic-mode checks (the paper's "% dynamic
    /// accesses" numerator).
    pub dynamic_accesses: u64,
    pub lock_checks: u64,
    pub oneref_checks: u64,
    pub allocations: u64,
    pub frees: u64,
    /// Distinct shadow granules ever checked (memory-overhead proxy).
    pub shadow_granules: u64,
    pub threads_spawned: u64,
    pub max_live_threads: usize,
    /// Thread records held at the end: one slot per thread id ever
    /// handed out. Ids are recycled, so this never exceeds
    /// `max_live_threads`, however many threads were spawned.
    pub thread_slots: usize,
    /// Always 0: the VM has no owned cache; `benchmark/` still reads it.
    pub cache_hits: u64,
    /// Always 0: the VM has no owned-run cache; `benchmark/` still reads it.
    pub range_hits: u64,
    /// Kept for `benchmark/`: check slots the front end deleted. No
    /// rule deletes a slot, so it is always 0.
    pub checks_elided: u64,
    /// Compound-assignment reads collapsed into their write check: the
    /// module's `ElisionSummary::collapsed_reads`.
    pub checks_collapsed: u64,
}

impl VmStats {
    /// Fraction of memory accesses that hit dynamic-mode objects.
    pub fn dynamic_fraction(&self) -> f64 {
        if self.total_accesses == 0 {
            0.0
        } else {
            self.dynamic_accesses as f64 / self.total_accesses as f64
        }
    }
}

/// The result of a run.
#[derive(Debug)]
pub struct RunOutcome {
    pub status: ExitStatus,
    pub reports: Vec<ConflictReport>,
    pub output: Vec<String>,
    pub stats: VmStats,
    /// On deadlock: one line per stuck thread describing what it is
    /// waiting for.
    pub blocked: Vec<String>,
    /// One line per thread a fatal runtime error ended, in the order
    /// they died: `thread T: <error>`.
    pub thread_errors: Vec<String>,
}

impl RunOutcome {
    /// True if the run completed, no thread died of a fatal error, and
    /// no conflict was reported.
    pub fn is_clean(&self) -> bool {
        self.status == ExitStatus::Completed
            && self.thread_errors.is_empty()
            && self.reports.is_empty()
    }
}

/// Runs `module` to completion under `config`.
pub fn run(module: &Module, sm: &SourceMap, config: VmConfig) -> RunOutcome {
    Vm::new(module, sm, config).run()
}

// ----- internal machinery -----

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    /// Waiting to acquire a mutex.
    Blocked(Addr),
    /// Waiting on a condition variable (remembering the mutex).
    Waiting(Addr, Addr),
    Joining(u32),
    JoiningAll,
    Done,
    Failed,
}

impl Status {
    /// Not yet exited: the thread still holds its id.
    fn is_live(self) -> bool {
        !matches!(self, Status::Done | Status::Failed)
    }
}

#[derive(Debug)]
struct Frame {
    fn_idx: u32,
    pc: u32,
    base: u32,
    /// Precomputed slot offsets within the frame.
    ops: Vec<Value>,
}

#[derive(Debug)]
struct Thread {
    frames: Vec<Frame>,
    status: Status,
}

/// One granule's reporting metadata. The backend holds the shadow
/// state; nothing here ever influences a verdict.
#[derive(Debug, Default, Clone, Copy)]
struct Granule {
    /// Already counted in [`VmStats::shadow_granules`].
    counted: bool,
    /// The latest passing checked access per kind (`[read, write]`,
    /// indexed by `is_write`), reset on free and successful cast.
    last: [Option<LastAccess>; 2],
}

#[derive(Debug, Clone, Copy)]
struct LastAccess {
    tid: u32,
    site: u32,
}

#[derive(Debug, Clone, Copy)]
struct Obj {
    base: u32,
    size: u32,
    alive: bool,
}

#[derive(Debug, Default)]
struct MutexState {
    owner: Option<u32>,
    waiters: VecDeque<u32>,
}

struct Vm<'m> {
    module: &'m Module,
    config: VmConfig,
    rng: Xoshiro256pp,
    mem: Vec<Value>,
    obj_of: Vec<u32>, // obj id + 1; 0 = none
    objs: Vec<Obj>,
    rc: Vec<i64>,
    free_objs: Vec<u32>,
    free_blocks: HashMap<u32, Vec<u32>>,
    /// The §4.2 engine: every dynamic check is a call on it.
    backend: BitmapBackend,
    /// Reporting metadata per granule, grown as granules are checked.
    granules: Vec<Granule>,
    /// The thread records, a slot map keyed by tid: slot `i` holds the
    /// thread running as tid `i + 1`, or its exited predecessor until
    /// the id is handed out again. Exited ids are recycled through
    /// `free_tids` before a new one is minted, so there are never more
    /// slots than the peak number of live threads. A seeded schedule
    /// is a sequence of picks by tid: `Random` draws one `k` in
    /// `0..runnable.len()` and runs the k-th runnable tid in ascending
    /// order; `RoundRobin` runs the first runnable slot after
    /// `current`, else the first runnable slot.
    threads: Vec<Thread>,
    /// That order kept up to date: the slots of every `Runnable`
    /// record, ascending, so a pick reads one entry and no record.
    /// Only [`Vm::set_status`] writes it, together with `live`.
    runnable: Vec<usize>,
    /// Records not yet `Done` or `Failed`.
    live: usize,
    free_tids: Vec<u32>,
    next_tid: u32,
    mutexes: HashMap<Addr, MutexState>,
    cond_waiters: HashMap<Addr, VecDeque<u32>>,
    /// Per-function slot offsets (prefix sums of slot sizes).
    slot_offsets: Vec<Vec<u32>>,
    frame_sizes: Vec<u32>,
    global_addrs: Vec<u32>,
    string_addrs: Vec<u32>,
    reporter: Reporter<'m>,
    output: Vec<String>,
    stats: VmStats,
    current: usize,
    quantum_left: u32,
    blocked: Vec<String>,
    thread_errors: Vec<String>,
}

impl<'m> Vm<'m> {
    fn new(module: &'m Module, sm: &'m SourceMap, config: VmConfig) -> Self {
        let slot_offsets: Vec<Vec<u32>> = module
            .fns
            .iter()
            .map(|f| {
                let mut offs = Vec::with_capacity(f.slot_sizes.len());
                let mut o = 0u32;
                for &s in &f.slot_sizes {
                    offs.push(o);
                    o += s;
                }
                offs
            })
            .collect();
        let frame_sizes = module
            .fns
            .iter()
            .map(|f| f.slot_sizes.iter().sum::<u32>().max(1))
            .collect();
        let max_reports = config.max_reports;
        let mut vm = Vm {
            module,
            rng: Xoshiro256pp::seed_from_u64(config.seed),
            config,
            mem: vec![Value::ZERO], // cell 0 = null
            obj_of: vec![0],
            objs: Vec::new(),
            rc: Vec::new(),
            free_objs: Vec::new(),
            free_blocks: HashMap::new(),
            backend: BitmapBackend::new(),
            granules: Vec::new(),
            threads: Vec::new(),
            runnable: Vec::new(),
            live: 0,
            free_tids: Vec::new(),
            next_tid: 1,
            mutexes: HashMap::new(),
            cond_waiters: HashMap::new(),
            slot_offsets,
            frame_sizes,
            global_addrs: Vec::new(),
            string_addrs: Vec::new(),
            reporter: Reporter::new(sm, &module.sites, max_reports),
            output: Vec::new(),
            stats: VmStats {
                checks_collapsed: module.elision.collapsed_reads as u64,
                ..VmStats::default()
            },
            current: 0,
            quantum_left: 0,
            blocked: Vec::new(),
            thread_errors: Vec::new(),
        };
        // Globals.
        for (gi, &size) in module.global_sizes.iter().enumerate() {
            let base = vm.alloc_raw(size);
            for (i, v) in module.global_inits[gi].iter().enumerate() {
                vm.mem[base as usize + i] = *v;
            }
            vm.global_addrs.push(base);
        }
        // Strings.
        for s in &module.strings {
            let base = vm.alloc_raw(s.len() as u32);
            for (i, &b) in s.iter().enumerate() {
                vm.mem[base as usize + i] = Value::Int(b as i64);
            }
            vm.string_addrs.push(base);
        }
        vm
    }

    fn global_addr(&self, gi: u32) -> u32 {
        self.global_addrs[gi as usize]
    }

    // ----- memory -----

    fn alloc_raw(&mut self, size: u32) -> u32 {
        // SharC "ensures that malloc allocates objects on a 16-byte
        // boundary" (§4.5): allocations are granule-aligned and
        // granule-padded so distinct objects never share a granule.
        let gran = self.config.granule;
        let size = size.max(1).next_multiple_of(gran);
        let base = if let Some(list) = self.free_blocks.get_mut(&size) {
            list.pop()
        } else {
            None
        };
        let base = match base {
            Some(b) => b,
            None => {
                let aligned = (self.mem.len() as u32).next_multiple_of(gran);
                self.mem.resize(aligned as usize, Value::ZERO);
                self.obj_of.resize(self.mem.len(), 0);
                let b = self.mem.len() as u32;
                self.mem.resize(self.mem.len() + size as usize, Value::ZERO);
                self.obj_of.resize(self.mem.len(), 0);
                b
            }
        };
        for c in base..base + size {
            self.mem[c as usize] = Value::ZERO;
        }
        let obj = match self.free_objs.pop() {
            Some(o) => {
                self.objs[o as usize] = Obj {
                    base,
                    size,
                    alive: true,
                };
                self.rc[o as usize] = 0;
                o
            }
            None => {
                self.objs.push(Obj {
                    base,
                    size,
                    alive: true,
                });
                self.rc.push(0);
                (self.objs.len() - 1) as u32
            }
        };
        for c in base..base + size {
            self.obj_of[c as usize] = obj + 1;
        }
        self.stats.allocations += 1;
        base
    }

    /// Allocates a frame region registering each slot as its own
    /// object (so `oneref` treats distinct locals separately).
    fn alloc_frame(&mut self, fn_idx: u32) -> u32 {
        let total = self.frame_sizes[fn_idx as usize].next_multiple_of(self.config.granule);
        let base = self.alloc_raw(total);
        // Re-partition the single object into per-slot objects;
        // padding cells (granule rounding) belong to no object.
        let whole = self.obj_of[base as usize] - 1;
        let whole_size = self.objs[whole as usize].size;
        self.kill_obj_entry(whole);
        for c in base..base + whole_size {
            self.obj_of[c as usize] = 0;
        }
        let sizes = self.module.fns[fn_idx as usize].slot_sizes.clone();
        let mut off = 0u32;
        for s in sizes {
            let b = base + off;
            let obj = match self.free_objs.pop() {
                Some(o) => {
                    self.objs[o as usize] = Obj {
                        base: b,
                        size: s,
                        alive: true,
                    };
                    self.rc[o as usize] = 0;
                    o
                }
                None => {
                    self.objs.push(Obj {
                        base: b,
                        size: s,
                        alive: true,
                    });
                    self.rc.push(0);
                    (self.objs.len() - 1) as u32
                }
            };
            for c in b..b + s {
                self.obj_of[c as usize] = obj + 1;
            }
            off += s;
        }
        base
    }

    fn kill_obj_entry(&mut self, obj: u32) {
        self.objs[obj as usize].alive = false;
        self.free_objs.push(obj);
    }

    fn rc_adjust(&mut self, v: Value, delta: i64) {
        if let Value::Ptr(a) = v {
            if a.is_null() || a.0 as usize >= self.obj_of.len() {
                return;
            }
            let o = self.obj_of[a.0 as usize];
            if o != 0 {
                self.rc[(o - 1) as usize] += delta;
            }
        }
    }

    fn write_cell(&mut self, addr: u32, v: Value) {
        let old = self.mem[addr as usize];
        self.rc_adjust(old, -1);
        self.rc_adjust(v, 1);
        self.mem[addr as usize] = v;
    }

    /// Releases an object's cells: decrement refs held in them, clear
    /// shadow state, recycle the block.
    fn release_region(&mut self, base: u32, size: u32) {
        for c in base..base + size {
            let old = self.mem[c as usize];
            self.rc_adjust(old, -1);
            self.mem[c as usize] = Value::ZERO;
            self.obj_of[c as usize] = 0;
        }
        let (first, len) = self.granule_run(base, size);
        for g in first..first + len {
            self.backend.on_alloc(g);
        }
        self.forget_last(first, len);
        self.free_blocks.entry(size).or_default().push(base);
    }

    // ----- checks -----

    /// Drops the reporting metadata of a freed or cast-away granule
    /// run: accesses from before the reset are nobody's `last`.
    fn forget_last(&mut self, first: usize, len: usize) {
        let end = (first + len).min(self.granules.len());
        for g in &mut self.granules[first.min(end)..end] {
            g.last = [None; 2];
        }
    }

    /// One checked access: the backend judges each granule it covers.
    /// A conflict is reported and — as in the native runtime — leaves
    /// the shadow state alone; a pass becomes the granule's latest
    /// access of its kind, so `last` in a later report is never stale.
    fn chk_access(&mut self, tid: u32, addr: u32, size: u32, site: u32, access: Access) {
        self.stats.dynamic_accesses += size as u64;
        let (first, len) = self.granule_run(addr, size);
        if first + len > self.granules.len() {
            self.granules.resize(first + len, Granule::default());
        }
        for g in first..first + len {
            let verdict = match access {
                Access::Read => self.backend.chkread(tid, g),
                Access::Write => self.backend.chkwrite(tid, g),
            };
            let meta = &mut self.granules[g];
            if !meta.counted {
                meta.counted = true;
                self.stats.shadow_granules += 1;
            }
            match verdict {
                Verdict::Pass => {
                    meta.last[access.is_write() as usize] = Some(LastAccess { tid, site });
                }
                Verdict::Fail(conflict) => {
                    // Report another thread's access as the "last"
                    // one, the offending writer first.
                    let [read, write] = meta.last.map(|l| l.filter(|l| l.tid != tid));
                    let last = match access {
                        Access::Read => write,
                        Access::Write => write.or(read),
                    };
                    self.reporter.conflict(
                        conflict.kind,
                        Addr(g as u32 * self.config.granule),
                        tid,
                        site,
                        last.map(|l| (l.tid, l.site)),
                    );
                }
            }
        }
    }

    // ----- threads -----

    fn spawn_thread(&mut self, fn_idx: u32, arg: Value) -> Option<u32> {
        let tid = match self.free_tids.pop() {
            Some(t) => t,
            None => {
                if self.next_tid > MAX_TID {
                    return None;
                }
                let t = self.next_tid;
                self.next_tid += 1;
                t
            }
        };
        let base = self.alloc_frame(fn_idx);
        let fc = &self.module.fns[fn_idx as usize];
        if fc.n_params >= 1 {
            self.write_cell(base + self.slot_offsets[fn_idx as usize][0], arg);
        }
        self.add_thread(tid, fn_idx, base);
        self.stats.threads_spawned += 1;
        self.stats.max_live_threads = self.stats.max_live_threads.max(self.live);
        Some(tid)
    }

    /// Puts a runnable record for `tid` in its slot, entering `fn_idx`
    /// with its frame at `base`.
    fn add_thread(&mut self, tid: u32, fn_idx: u32, base: u32) {
        let record = Thread {
            frames: vec![Frame {
                fn_idx,
                pc: 0,
                base,
                ops: Vec::new(),
            }],
            // Not live until `set_status` has booked it.
            status: Status::Done,
        };
        let slot = slot_of(tid);
        if slot == self.threads.len() {
            self.threads.push(record);
        } else {
            self.threads[slot] = record;
        }
        self.stats.thread_slots = self.threads.len();
        self.set_status(slot, Status::Runnable);
    }

    /// The one place a thread's status changes: keeps `runnable` and
    /// `live` in step with the records.
    fn set_status(&mut self, idx: usize, status: Status) {
        let old = std::mem::replace(&mut self.threads[idx].status, status);
        match (
            self.runnable.binary_search(&idx),
            status == Status::Runnable,
        ) {
            (Err(at), true) => self.runnable.insert(at, idx),
            (Ok(at), false) => {
                self.runnable.remove(at);
            }
            _ => {}
        }
        match (old.is_live(), status.is_live()) {
            (false, true) => self.live += 1,
            (true, false) => self.live -= 1,
            _ => {}
        }
    }

    fn thread_exit(&mut self, idx: usize, failed: bool) {
        let tid = tid_of(idx);
        // Clear this thread's shadow bits: non-overlapping thread
        // lifetimes do not constitute races.
        self.backend.on_thread_exit(tid);
        self.emit(|_| CheckEvent::ThreadExit { tid });
        self.set_status(idx, if failed { Status::Failed } else { Status::Done });
        // The record's frames die with it; the slot waits for the id.
        self.threads[idx].frames = Vec::new();
        self.free_tids.push(tid);
        // Wake joiners.
        for i in 0..self.threads.len() {
            if self.threads[i].status == Status::Joining(tid) {
                self.set_status(i, Status::Runnable);
            }
        }
        self.refresh_join_all();
    }

    /// A thread in `join_all` waits for every other thread: it runs
    /// again once it is the only live one.
    fn refresh_join_all(&mut self) {
        if self.live != 1 {
            return;
        }
        if let Some(i) = self
            .threads
            .iter()
            .position(|t| t.status == Status::JoiningAll)
        {
            self.set_status(i, Status::Runnable);
        }
    }

    // ----- main loop -----

    fn run(mut self) -> RunOutcome {
        let main_base = self.alloc_frame(self.module.entry);
        let main_tid = self.next_tid;
        self.next_tid += 1;
        self.add_thread(main_tid, self.module.entry, main_base);
        self.stats.max_live_threads = 1;

        let status = 'run: loop {
            if self.runnable.is_empty() {
                break self.finish();
            }
            self.pick();
            // The picked thread keeps the CPU until its next schedule
            // point, or until it can no longer run.
            loop {
                if self.stats.steps >= self.config.max_steps {
                    break 'run ExitStatus::StepLimit;
                }
                self.stats.steps += 1;
                let point = match self.step() {
                    Ok(point) => point,
                    Err(fatal) => {
                        let tid = tid_of(self.current);
                        self.thread_errors.push(format!("thread {tid}: {fatal}"));
                        self.thread_exit(self.current, true);
                        if self.config.stop_on_error {
                            break 'run ExitStatus::Failed(fatal);
                        }
                        true
                    }
                };
                if self.config.stop_on_error && !self.reporter.is_empty() {
                    break 'run ExitStatus::Failed("sharing-strategy violation".into());
                }
                if point || self.threads[self.current].status != Status::Runnable {
                    break;
                }
            }
        };

        RunOutcome {
            status,
            reports: self.reporter.into_reports(),
            output: self.output,
            stats: self.stats,
            blocked: self.blocked,
            thread_errors: self.thread_errors,
        }
    }

    /// Consults the scheduler: sets `current` to the thread that runs
    /// next. There is at least one runnable thread.
    fn pick(&mut self) {
        self.stats.picks += 1;
        let runnable = &self.runnable;
        self.current = match self.config.policy {
            SchedPolicy::Random => runnable[self.rng.gen_range(0..runnable.len())],
            SchedPolicy::RoundRobin(q) => {
                if self.quantum_left == 0 || runnable.binary_search(&self.current).is_err() {
                    self.quantum_left = q;
                    let after = runnable.partition_point(|&i| i <= self.current);
                    *runnable.get(after).unwrap_or(&runnable[0])
                } else {
                    self.quantum_left -= 1;
                    self.current
                }
            }
        };
    }

    /// No thread can run: the program completed, or whatever is left
    /// is stuck and the run deadlocked.
    fn finish(&mut self) -> ExitStatus {
        let stuck: Vec<String> = self
            .threads
            .iter()
            .enumerate()
            .filter_map(|(i, t)| {
                let tid = tid_of(i);
                match t.status {
                    Status::Blocked(a) => Some(format!("thread {tid} blocked acquiring mutex {a}")),
                    Status::Waiting(c, _) => Some(format!("thread {tid} waiting on condition {c}")),
                    Status::Joining(j) => Some(format!("thread {tid} joining thread {j}")),
                    Status::JoiningAll => Some(format!("thread {tid} in join_all")),
                    _ => None,
                }
            })
            .collect();
        if stuck.is_empty() {
            ExitStatus::Completed
        } else {
            self.blocked = stuck;
            ExitStatus::Deadlock
        }
    }

    /// Records the event `make` builds into the configured sink; the
    /// unsinked path pays one branch and never builds it.
    #[inline]
    fn emit(&self, make: impl FnOnce(&Self) -> CheckEvent) {
        if let Some(sink) = &self.config.sink {
            sink.record(make(self));
        }
    }

    /// The shadow granule holding cell `addr`.
    fn granule_of(&self, addr: u32) -> usize {
        (addr / self.config.granule) as usize
    }

    /// The granule run `(first, len)` covering `[addr, addr + size)`.
    fn granule_run(&self, addr: u32, size: u32) -> (usize, usize) {
        let first = self.granule_of(addr);
        (first, self.granule_of(addr + size.max(1) - 1) - first + 1)
    }

    fn frame(&mut self) -> &mut Frame {
        self.threads[self.current]
            .frames
            .last_mut()
            .expect("running thread has a frame")
    }

    fn push(&mut self, v: Value) {
        self.frame().ops.push(v);
    }

    fn pop(&mut self) -> Value {
        self.frame().ops.pop().expect("operand stack underflow")
    }

    fn peek(&mut self) -> Value {
        *self.frame().ops.last().expect("operand stack underflow")
    }

    fn pop_addr(&mut self, what: &str) -> Result<Addr, String> {
        match self.pop() {
            Value::Ptr(a) if !a.is_null() => Ok(a),
            Value::Ptr(_) => Err(format!("null pointer dereference in {what}")),
            other => Err(format!(
                "bogus pointer (integer {} used as address) in {what}",
                other.as_int()
            )),
        }
    }

    /// Executes one instruction of the current thread and says whether
    /// it was a schedule point. `Err` kills the thread with the message.
    fn step(&mut self) -> Result<bool, String> {
        let fidx = self.frame().fn_idx;
        let pc = self.frame().pc;
        let insn = self.module.fns[fidx as usize].code[pc as usize].clone();
        self.frame().pc += 1;
        let tid = tid_of(self.current);
        match insn {
            Insn::PushInt(v) => self.push(Value::Int(v)),
            Insn::PushNull => self.push(Value::Ptr(Addr::NULL)),
            Insn::PushFn(f) => self.push(Value::Fn(f)),
            Insn::Dup => {
                let v = self.peek();
                self.push(v);
            }
            Insn::Pop => {
                self.pop();
            }
            Insn::Swap => {
                let a = self.pop();
                let b = self.pop();
                self.push(a);
                self.push(b);
            }
            Insn::LocalAddr(slot) => {
                let base = self.frame().base;
                let off = self.slot_offsets[fidx as usize][slot as usize];
                self.push(Value::Ptr(Addr(base + off)));
            }
            Insn::GlobalAddr(gi) => {
                let a = self.global_addr(gi);
                self.push(Value::Ptr(Addr(a)));
            }
            Insn::StrAddr(si) => {
                let a = self.string_addrs[si as usize];
                self.push(Value::Ptr(Addr(a)));
            }
            Insn::IndexAddr(scale) => {
                let idx = self.pop().as_int();
                let base = self.pop();
                match base {
                    Value::Ptr(a) => {
                        let target = a.0 as i64 + idx * scale as i64;
                        if target < 0 || target as usize >= self.mem.len() + 4096 {
                            return Err("pointer arithmetic out of range".into());
                        }
                        self.push(Value::Ptr(Addr(target as u32)));
                    }
                    other => {
                        // Bogus pointer arithmetic: stay an integer.
                        self.push(Value::Int(other.as_int() + idx * scale as i64));
                    }
                }
            }
            Insn::ConstOffset(off) => {
                let base = self.pop();
                match base {
                    Value::Ptr(a) if !a.is_null() => self.push(Value::Ptr(Addr(a.0 + off))),
                    Value::Ptr(_) => return Err("null pointer field access".into()),
                    other => self.push(Value::Int(other.as_int() + off as i64)),
                }
            }
            Insn::Load { .. } => {
                let a = self.pop_addr("load")?;
                if a.0 as usize >= self.mem.len() {
                    return Err("load out of bounds".into());
                }
                self.stats.total_accesses += 1;
                self.emit(|vm| CheckEvent::Read {
                    tid,
                    granule: vm.granule_of(a.0),
                });
                let v = self.mem[a.0 as usize];
                self.push(v);
            }
            Insn::Store { .. } => {
                let v = self.pop();
                let a = self.pop_addr("store")?;
                if a.0 as usize >= self.mem.len() {
                    return Err("store out of bounds".into());
                }
                self.stats.total_accesses += 1;
                self.emit(|vm| CheckEvent::Write {
                    tid,
                    granule: vm.granule_of(a.0),
                });
                self.write_cell(a.0, v);
            }
            Insn::CopyN { cells: n, .. } => {
                let src = self.pop_addr("struct copy source")?;
                let dst = self.pop_addr("struct copy destination")?;
                if (src.0 + n) as usize > self.mem.len() || (dst.0 + n) as usize > self.mem.len() {
                    return Err("struct copy out of bounds".into());
                }
                self.stats.total_accesses += 2 * n as u64;
                for i in 0..n {
                    // The bulk move is visible to trace-based
                    // detectors cell by cell (ranges are a checker
                    // optimization, not a semantic change), exactly
                    // like the Load/Store pair it replaces.
                    self.emit(|vm| CheckEvent::Read {
                        tid,
                        granule: vm.granule_of(src.0 + i),
                    });
                    self.emit(|vm| CheckEvent::Write {
                        tid,
                        granule: vm.granule_of(dst.0 + i),
                    });
                    let v = self.mem[(src.0 + i) as usize];
                    self.write_cell(dst.0 + i, v);
                }
            }
            Insn::Binop(op) => {
                let b = self.pop();
                let a = self.pop();
                self.push(eval_binop(op, a, b)?);
            }
            Insn::Neg => {
                let v = self.pop().as_int();
                self.push(Value::Int(-v));
            }
            Insn::Not => {
                let v = self.pop();
                self.push(Value::Int(!v.is_truthy() as i64));
            }
            Insn::BitNot => {
                let v = self.pop().as_int();
                self.push(Value::Int(!v));
            }
            Insn::Jump(t) => self.frame().pc = t,
            Insn::JumpIfZero(t) => {
                let v = self.pop();
                if !v.is_truthy() {
                    self.frame().pc = t;
                }
            }
            Insn::JumpIfNonZero(t) => {
                let v = self.pop();
                if v.is_truthy() {
                    self.frame().pc = t;
                }
            }
            Insn::Call(f, nargs) => self.do_call(f, nargs)?,
            Insn::CallIndirect(nargs) => {
                // Callee sits under the args.
                let ops = &mut self.frame().ops;
                let idx = ops.len() - nargs as usize - 1;
                let callee = ops.remove(idx);
                match callee {
                    Value::Fn(f) => self.do_call(f, nargs)?,
                    _ => return Err("indirect call through non-function value".into()),
                }
            }
            Insn::Ret(has_val) => {
                let rv = if has_val { self.pop() } else { Value::ZERO };
                let frame = self.threads[self.current]
                    .frames
                    .pop()
                    .expect("ret with a frame");
                let size =
                    self.frame_sizes[frame.fn_idx as usize].next_multiple_of(self.config.granule);
                // Kill the per-slot objects, then release the region.
                let mut c = frame.base;
                while c < frame.base + size {
                    let o = self.obj_of[c as usize];
                    if o != 0 {
                        let obj = self.objs[(o - 1) as usize];
                        self.kill_obj_entry(o - 1);
                        c = (obj.base + obj.size).max(c + 1);
                    } else {
                        c += 1;
                    }
                }
                self.release_region(frame.base, size);
                if self.threads[self.current].frames.is_empty() {
                    let idx = self.current;
                    self.thread_exit(idx, false);
                } else {
                    self.push(rv);
                }
            }
            Insn::Spawn => {
                let arg = self.pop();
                let f = self.pop();
                let Value::Fn(fi) = f else {
                    return Err("spawn of non-function".into());
                };
                match self.spawn_thread(fi, arg) {
                    Some(t) => {
                        self.emit(|_| CheckEvent::Fork {
                            parent: tid,
                            child: t,
                        });
                        self.push(Value::Int(t as i64));
                    }
                    None => return Err(format!("thread limit ({MAX_TID}) exceeded")),
                }
            }
            Insn::Join => {
                let t = self.pop().as_int() as u32;
                self.emit(|_| CheckEvent::Join {
                    parent: tid,
                    child: t,
                });
                if self.live_thread(t).is_some() {
                    self.set_status(self.current, Status::Joining(t));
                }
            }
            Insn::JoinAll => {
                // Live threads other than this one.
                if self.live > 1 {
                    self.set_status(self.current, Status::JoiningAll);
                }
            }
            Insn::MutexLock => {
                let a = self.pop_addr("mutex_lock")?;
                let m = self.mutexes.entry(a).or_default();
                match m.owner {
                    None => {
                        m.owner = Some(tid);
                        self.acquired(tid, a);
                    }
                    Some(o) if o == tid => {
                        return Err("recursive lock of a non-recursive mutex".into())
                    }
                    Some(_) => {
                        m.waiters.push_back(tid);
                        self.set_status(self.current, Status::Blocked(a));
                    }
                }
            }
            Insn::MutexUnlock => {
                let a = self.pop_addr("mutex_unlock")?;
                self.emit(|_| CheckEvent::Release {
                    tid,
                    lock: a.0 as usize,
                });
                self.unlock(a, tid)?;
            }
            Insn::CondWait => {
                let ma = self.pop_addr("cond_wait mutex")?;
                let ca = self.pop_addr("cond_wait cond")?;
                if !self.backend.lock_held(tid, ma.0 as usize) {
                    return Err("cond_wait without holding the mutex".into());
                }
                self.emit(|_| CheckEvent::Release {
                    tid,
                    lock: ma.0 as usize,
                });
                self.unlock(ma, tid)?;
                self.cond_waiters.entry(ca).or_default().push_back(tid);
                self.set_status(self.current, Status::Waiting(ca, ma));
            }
            Insn::CondSignal => {
                let ca = self.pop_addr("cond_signal")?;
                if let Some(q) = self.cond_waiters.get_mut(&ca) {
                    if let Some(w) = q.pop_front() {
                        self.wake_from_cond(w);
                    }
                }
            }
            Insn::CondBroadcast => {
                let ca = self.pop_addr("cond_broadcast")?;
                let waiters: Vec<u32> = self
                    .cond_waiters
                    .get_mut(&ca)
                    .map(|q| q.drain(..).collect())
                    .unwrap_or_default();
                for w in waiters {
                    self.wake_from_cond(w);
                }
            }
            Insn::YieldNow => {
                self.quantum_left = 0;
            }
            Insn::New(size) => {
                let b = self.alloc_raw(size);
                // A fresh allocation resets each granule it covers.
                let (first, len) = self.granule_run(b, size);
                for granule in first..first + len {
                    self.emit(|_| CheckEvent::Alloc { granule });
                }
                self.push(Value::Ptr(Addr(b)));
            }
            Insn::NewArray(esize) => {
                let n = self.pop().as_int();
                if n < 0 || n as u64 * esize as u64 > 64 * 1024 * 1024 {
                    return Err(format!("newarray with invalid count {n}"));
                }
                let b = self.alloc_raw((n as u32 * esize).max(1));
                self.push(Value::Ptr(Addr(b)));
            }
            Insn::Free => {
                let a = self.pop_addr("free")?;
                let o = self.obj_of[a.0 as usize];
                if o == 0 {
                    return Err("free of non-allocated memory".into());
                }
                let obj = self.objs[(o - 1) as usize];
                if obj.base != a.0 {
                    return Err("free of interior pointer".into());
                }
                self.kill_obj_entry(o - 1);
                // One ranged free for the whole block, as the VM does it.
                self.emit(|vm| {
                    let (granule, len) = vm.granule_run(obj.base, obj.size);
                    CheckEvent::RangeFree { granule, len }
                });
                self.release_region(obj.base, obj.size);
                self.stats.frees += 1;
            }
            Insn::Print => {
                let v = self.pop();
                self.output.push(v.as_int().to_string());
            }
            Insn::PrintStr => {
                let a = self.pop_addr("print_str")?;
                let mut s = String::new();
                let mut c = a.0 as usize;
                while c < self.mem.len() {
                    let b = self.mem[c].as_int();
                    if b == 0 {
                        break;
                    }
                    s.push(b as u8 as char);
                    c += 1;
                }
                self.output.push(s);
            }
            Insn::PrintStrChecked { site } => {
                // The §4.4 read summary: the library reads the string,
                // so every cell read updates the reader set.
                let a = self.pop_addr("print_str")?;
                let mut s = String::new();
                let mut c = a.0 as usize;
                while c < self.mem.len() {
                    self.chk_access(tid, c as u32, 1, site, Access::Read);
                    self.stats.total_accesses += 1;
                    let b = self.mem[c].as_int();
                    if b == 0 {
                        break;
                    }
                    s.push(b as u8 as char);
                    c += 1;
                }
                self.output.push(s);
            }
            Insn::Assert => {
                let v = self.pop();
                if !v.is_truthy() {
                    return Err("assertion failed".into());
                }
            }
            Insn::Random => {
                let n = self.pop().as_int();
                let v = if n > 0 { self.rng.gen_range(0..n) } else { 0 };
                self.push(Value::Int(v));
            }
            Insn::ChkRead { site, size } => {
                if let Value::Ptr(a) = self.peek() {
                    if !a.is_null() {
                        self.chk_access(tid, a.0, size, site, Access::Read);
                    }
                }
            }
            Insn::ChkWrite { site, size } => {
                if let Value::Ptr(a) = self.peek() {
                    if !a.is_null() {
                        self.chk_access(tid, a.0, size, site, Access::Write);
                    }
                }
            }
            Insn::ChkLockHeld { site } => {
                self.stats.lock_checks += 1;
                let lock = self.pop();
                let held = match lock {
                    Value::Ptr(a) => self.backend.lock_held(tid, a.0 as usize),
                    _ => false,
                };
                if !held {
                    let addr = match lock {
                        Value::Ptr(a) => a,
                        _ => Addr::NULL,
                    };
                    self.reporter.lock_violation(addr, tid, site);
                }
            }
            Insn::OneRef { site } => {
                self.stats.oneref_checks += 1;
                if let Value::Ptr(a) = self.peek() {
                    if !a.is_null() && (a.0 as usize) < self.obj_of.len() {
                        let o = self.obj_of[a.0 as usize];
                        if o != 0 {
                            let count = self.rc[(o - 1) as usize];
                            let obj = self.objs[(o - 1) as usize];
                            // One ranged cast over the whole referent;
                            // `refs` is the count `oneref` observed.
                            let (granule, len) = self.granule_run(obj.base, obj.size);
                            self.emit(|_| CheckEvent::RangeCast {
                                tid,
                                granule,
                                len,
                                refs: (count + 1) as u64,
                            });
                            // Overwriting a stale pointer into a
                            // recycled block drives `count` below
                            // zero: no other live reference either.
                            let refs = count.max(0) as u64 + 1;
                            if self.backend.oneref(tid, granule, refs).is_conflict() {
                                self.reporter.oneref_violation(a, tid, site, count + 1);
                            } else {
                                // The cast succeeds: the object changes
                                // mode, so past accesses no longer
                                // constitute sharing.
                                for g in granule..granule + len {
                                    self.backend.on_cast_clear(g);
                                }
                                self.forget_last(granule, len);
                            }
                        }
                    }
                }
            }
        }
        Ok(insn.is_schedule_point())
    }

    fn do_call(&mut self, f: u32, nargs: u8) -> Result<(), String> {
        if self.threads[self.current].frames.len() > 512 {
            return Err("call stack overflow".into());
        }
        let base = self.alloc_frame(f);
        // Pop args (right to left) into slots.
        for i in (0..nargs).rev() {
            let v = self.pop();
            let off = self.slot_offsets[f as usize][i as usize];
            self.write_cell(base + off, v);
        }
        self.threads[self.current].frames.push(Frame {
            fn_idx: f,
            pc: 0,
            base,
            ops: Vec::new(),
        });
        Ok(())
    }

    /// The slot of the live thread running as `tid`, never of an
    /// exited namesake.
    fn live_thread(&self, tid: u32) -> Option<usize> {
        let slot = (tid as usize).checked_sub(1)?;
        let th = self.threads.get(slot)?;
        th.status.is_live().then_some(slot)
    }

    /// `tid` now owns mutex `a`: tell the held-lock log and the trace.
    fn acquired(&mut self, tid: u32, a: Addr) {
        let lock = a.0 as usize;
        self.backend.on_acquire(tid, lock);
        self.emit(|_| CheckEvent::Acquire { tid, lock });
    }

    fn unlock(&mut self, a: Addr, tid: u32) -> Result<(), String> {
        let m = self.mutexes.entry(a).or_default();
        if m.owner != Some(tid) {
            return Err("unlock of a mutex not held by this thread".into());
        }
        self.backend.on_release(tid, a.0 as usize);
        let m = self.mutexes.get_mut(&a).expect("mutex exists");
        if let Some(w) = m.waiters.pop_front() {
            m.owner = Some(w);
            if let Some(wi) = self.live_thread(w) {
                self.set_status(wi, Status::Runnable);
                self.acquired(w, a);
            }
        } else {
            m.owner = None;
        }
        Ok(())
    }

    /// A signalled waiter must reacquire its mutex before running.
    fn wake_from_cond(&mut self, w: u32) {
        let Some(wi) = self.live_thread(w) else {
            return;
        };
        let Status::Waiting(_, ma) = self.threads[wi].status else {
            return;
        };
        let m = self.mutexes.entry(ma).or_default();
        match m.owner {
            None => {
                m.owner = Some(w);
                self.set_status(wi, Status::Runnable);
                self.acquired(w, ma);
            }
            Some(_) => {
                m.waiters.push_back(w);
                self.set_status(wi, Status::Blocked(ma));
            }
        }
    }
}

/// The slot-map index of thread `tid`: ids start at 1.
fn slot_of(tid: u32) -> usize {
    tid as usize - 1
}

/// The thread id whose record lives in `slot`.
fn tid_of(slot: usize) -> u32 {
    slot as u32 + 1
}

fn eval_binop(op: BinOp, a: Value, b: Value) -> Result<Value, String> {
    use BinOp::*;
    let (x, y) = (a.as_int(), b.as_int());
    let v = match op {
        Add => {
            // Pointer-preserving addition is handled by IndexAddr; a
            // plain Add on a pointer is a bogus-pointer computation.
            Value::Int(x.wrapping_add(y))
        }
        Sub => Value::Int(x.wrapping_sub(y)),
        Mul => Value::Int(x.wrapping_mul(y)),
        Div => {
            if y == 0 {
                return Err("division by zero".into());
            }
            Value::Int(x.wrapping_div(y))
        }
        Rem => {
            if y == 0 {
                return Err("remainder by zero".into());
            }
            Value::Int(x.wrapping_rem(y))
        }
        BitAnd => Value::Int(x & y),
        BitOr => Value::Int(x | y),
        BitXor => Value::Int(x ^ y),
        Shl => Value::Int(x.wrapping_shl(y as u32 & 63)),
        Shr => Value::Int(x.wrapping_shr(y as u32 & 63)),
        Eq => Value::Int((values_equal(a, b)) as i64),
        Ne => Value::Int((!values_equal(a, b)) as i64),
        Lt => Value::Int((x < y) as i64),
        Le => Value::Int((x <= y) as i64),
        Gt => Value::Int((x > y) as i64),
        Ge => Value::Int((x >= y) as i64),
        And | Or => unreachable!("short-circuit ops are compiled to jumps"),
    };
    Ok(v)
}

fn values_equal(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Ptr(x), Value::Ptr(y)) => x == y,
        (Value::Fn(x), Value::Fn(y)) => x == y,
        // NULL compares equal to integer 0 and vice versa.
        _ => a.as_int() == b.as_int(),
    }
}
