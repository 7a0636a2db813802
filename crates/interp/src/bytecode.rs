//! Bytecode for the MiniC virtual machine.
//!
//! A compact stack machine. Preemption happens only after a *schedule
//! point* ([`Insn::is_schedule_point`]): an access to memory whose
//! inferred sharing mode is not `private`, or an operation another
//! thread can observe (locks, conditions, spawn, join, exit, casts,
//! allocation, output, `random()`). Private steps commute with every
//! other thread's (the §3.4 theorem), so running them back to back
//! hides no interleaving of the shared ones, and races are still
//! exposed at memory-access granularity.

use minic::span::Span;
use std::fmt;

/// A cell address in VM memory. Address 0 is the null pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(pub u32);

impl Addr {
    pub const NULL: Addr = Addr(0);

    /// True if this is the null address.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render like a real pointer, as the paper's reports do
        // (e.g. `0x75324464`): cells are 8 bytes.
        write!(f, "0x{:08x}", 0x1000_0000u64 + (self.0 as u64) * 8)
    }
}

/// A runtime value occupying one memory cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    Int(i64),
    Ptr(Addr),
    /// A function "address" (index into the program's function list).
    Fn(u32),
}

impl Value {
    /// Zero/null, the initial content of every cell.
    pub const ZERO: Value = Value::Int(0);

    /// Truthiness for conditions.
    pub fn is_truthy(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::Ptr(a) => !a.is_null(),
            Value::Fn(_) => true,
        }
    }

    /// The integer content.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an integer (a VM bug: the checker
    /// guarantees shape correctness).
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Ptr(a) => a.0 as i64,
            Value::Fn(f) => f as i64,
        }
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::ZERO
    }
}

/// A check site: debug info carried by check instructions and used in
/// conflict reports.
#[derive(Debug, Clone)]
pub struct CheckSite {
    /// The l-value as written in the source (`S->sdata`).
    pub lvalue: String,
    pub span: Span,
}

/// One VM instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Insn {
    // --- stack ---
    PushInt(i64),
    PushNull,
    PushFn(u32),
    Dup,
    Pop,
    Swap,

    // --- addressing ---
    /// Push the address of local slot `n` in the current frame.
    LocalAddr(u16),
    /// Push the address of a global.
    GlobalAddr(u32),
    /// Push the address of interned string `n`'s first cell.
    StrAddr(u32),
    /// addr, idx -> addr + idx * scale.
    IndexAddr(u32),
    /// addr -> addr + offset.
    ConstOffset(u32),

    // --- memory ---
    // `shared` is false exactly when the compiler inferred the
    // accessed storage `private`: no other thread can reach it.
    /// addr -> value.
    Load {
        shared: bool,
    },
    /// addr, value -> (writes one cell).
    Store {
        shared: bool,
    },
    /// dst, src -> (copies `cells` cells; struct assignment).
    CopyN {
        cells: u32,
        shared: bool,
    },

    // --- arithmetic ---
    Binop(minic::ast::BinOp),
    Neg,
    Not,
    BitNot,

    // --- control ---
    Jump(u32),
    /// Pops; jumps if falsy.
    JumpIfZero(u32),
    /// Pops; jumps if truthy.
    JumpIfNonZero(u32),
    Call(u32, u8),
    /// fnval, args... -> result (pops callee from *under* the args).
    CallIndirect(u8),
    Ret(bool),

    // --- threads & sync ---
    /// fnval, argval -> tid.
    Spawn,
    /// tid -> (blocks until that thread is done).
    Join,
    JoinAll,
    /// mutexaddr -> (blocks until acquired).
    MutexLock,
    MutexUnlock,
    /// condaddr, mutexaddr -> (atomically release + wait).
    CondWait,
    CondSignal,
    CondBroadcast,
    YieldNow,

    // --- allocation ---
    /// -> ptr (allocates `size` zeroed cells).
    New(u32),
    /// count -> ptr (allocates `count * elem_size` zeroed cells).
    NewArray(u32),
    /// ptr -> (frees the object).
    Free,

    // --- builtins ---
    /// value -> (records output).
    Print,
    /// charptr -> (records output string).
    PrintStr,
    /// charptr -> (records output string); performs the trusted
    /// library read summary: `chkread` over the cells read.
    PrintStrChecked {
        site: u32,
    },
    /// value -> (fails thread if falsy).
    Assert,
    /// n -> uniform random in [0, n).
    Random,

    // --- SharC runtime checks ---
    /// Peeks the address on top; performs the dynamic-mode read
    /// check over `size` cells for check site `site`.
    ChkRead {
        site: u32,
        size: u32,
    },
    /// Same for writes.
    ChkWrite {
        site: u32,
        size: u32,
    },
    /// Pops a mutex address; fails unless the current thread holds it.
    ChkLockHeld {
        site: u32,
    },
    /// Peeks the pointer value on top; fails if other references to
    /// the object exist (`oneref`); on success clears the object's
    /// reader/writer sets (the sharing cast's mode change).
    OneRef {
        site: u32,
    },
}

impl Insn {
    /// True if another thread could observe this step, so the
    /// scheduler is consulted after it: a load, store or copy of
    /// non-`private` memory; a lock, condition, spawn, join or yield
    /// operation; a `oneref` cast; an allocation or `free`; output;
    /// `random()`. Check instructions never are, so a build with its
    /// checks stripped runs on the same schedule as the checked one.
    /// (A thread's exit, and any step that blocks or kills its thread,
    /// is a schedule point too; the VM sees those at run time.)
    pub fn is_schedule_point(&self) -> bool {
        match self {
            Insn::Load { shared } | Insn::Store { shared } | Insn::CopyN { shared, .. } => *shared,
            Insn::Spawn
            | Insn::Join
            | Insn::JoinAll
            | Insn::MutexLock
            | Insn::MutexUnlock
            | Insn::CondWait
            | Insn::CondSignal
            | Insn::CondBroadcast
            | Insn::YieldNow
            | Insn::OneRef { .. }
            | Insn::New(_)
            | Insn::NewArray(_)
            | Insn::Free
            | Insn::Print
            | Insn::PrintStr
            | Insn::PrintStrChecked { .. }
            | Insn::Random => true,
            Insn::PushInt(_)
            | Insn::PushNull
            | Insn::PushFn(_)
            | Insn::Dup
            | Insn::Pop
            | Insn::Swap
            | Insn::LocalAddr(_)
            | Insn::GlobalAddr(_)
            | Insn::StrAddr(_)
            | Insn::IndexAddr(_)
            | Insn::ConstOffset(_)
            | Insn::Binop(_)
            | Insn::Neg
            | Insn::Not
            | Insn::BitNot
            | Insn::Jump(_)
            | Insn::JumpIfZero(_)
            | Insn::JumpIfNonZero(_)
            | Insn::Call(..)
            | Insn::CallIndirect(_)
            | Insn::Ret(_)
            | Insn::Assert
            | Insn::ChkRead { .. }
            | Insn::ChkWrite { .. }
            | Insn::ChkLockHeld { .. } => false,
        }
    }
}

/// A compiled function.
#[derive(Debug, Clone)]
pub struct FnCode {
    pub name: String,
    /// Total local slots (params first).
    pub n_slots: u16,
    pub n_params: u8,
    pub code: Vec<Insn>,
    /// Cell sizes of each local slot's object (params are 1 cell).
    pub slot_sizes: Vec<u32>,
}

/// A compiled program ready to run on the VM.
#[derive(Debug, Clone)]
pub struct Module {
    pub fns: Vec<FnCode>,
    /// Index of `main` in `fns`.
    pub entry: u32,
    /// Global variable sizes, in declaration order.
    pub global_sizes: Vec<u32>,
    /// Global initial values (constant initializers), cell-indexed
    /// per global.
    pub global_inits: Vec<Vec<Value>>,
    /// Interned string literals (byte per cell, NUL-terminated).
    pub strings: Vec<Vec<u8>>,
    /// Check sites referenced by check instructions.
    pub sites: Vec<CheckSite>,
    /// Source file name (for reports).
    pub file: String,
    /// The front end's count of the check slots it elided in the
    /// table this module was compiled from, which became no
    /// instruction; all zero for a `compile_full_checks` module, which
    /// elides none.
    pub elision: sharc_core::ElisionSummary,
}

impl Module {
    /// Looks up a function index by name.
    pub fn fn_index(&self, name: &str) -> Option<u32> {
        self.fns
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_null_and_display() {
        assert!(Addr::NULL.is_null());
        assert!(!Addr(5).is_null());
        assert_eq!(Addr(0).to_string(), "0x10000000");
        assert_eq!(Addr(2).to_string(), "0x10000010");
    }

    #[test]
    fn value_truthiness() {
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::Int(-3).is_truthy());
        assert!(!Value::Ptr(Addr::NULL).is_truthy());
        assert!(Value::Ptr(Addr(1)).is_truthy());
        assert!(Value::Fn(0).is_truthy());
    }

    #[test]
    fn value_as_int() {
        assert_eq!(Value::Int(42).as_int(), 42);
        assert_eq!(Value::Ptr(Addr(7)).as_int(), 7);
    }
}
