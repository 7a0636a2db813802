//! # sharc-interp
//!
//! The execution half of the SharC reproduction: a bytecode VM that
//! runs instrumented MiniC programs with multiple simulated threads
//! under a seeded scheduler, executing the paper's runtime checks
//! (reader/writer sets per 16-byte granule, held-lock logs, and
//! reference-counted sharing casts) as calls on
//! [`sharc_checker::BitmapBackend`], plus the §3 formal core calculus
//! in [`formal`].
//!
//! ## Example
//!
//! ```
//! use sharc_interp::{compile, vm};
//!
//! let src = r#"
//!     void worker(int * d) { *d = *d + 1; }
//!     void main() {
//!         int * p;
//!         p = new(int);
//!         spawn(worker, p);
//!         spawn(worker, p);
//!         join_all();
//!     }
//! "#;
//! let checked = sharc_core::compile("racy.c", src)?;
//! let module = compile::compile(&checked)?;
//! let out = vm::run(&module, &checked.source_map, vm::VmConfig::default());
//! // Two unsynchronized writers race on *p: SharC reports it.
//! assert!(!out.reports.is_empty());
//! # Ok::<(), minic::Diagnostic>(())
//! ```

pub mod bytecode;
pub mod compile;
pub mod formal;
pub mod report;
pub mod vm;

pub use bytecode::{Addr, Module, Value};
pub use compile::{compile as compile_module, compile_full_checks};
pub use report::ConflictReport;
/// The kind of sharing-strategy violation a [`ConflictReport`] names:
/// the checker's own [`sharc_checker::CheckKind`], under the name the
/// VM's reports have always used.
pub use sharc_checker::CheckKind as ConflictKind;
pub use vm::{run, ExitStatus, RunOutcome, SchedPolicy, VmConfig, VmStats};

/// Compiles and runs MiniC source in one call.
///
/// # Errors
///
/// Returns the first front-end diagnostic if the program does not
/// parse, check, or compile. Sharing-strategy *errors* do not prevent
/// execution only if they are warnings/suggestions; hard errors abort.
pub fn compile_and_run(
    name: &str,
    src: &str,
    config: VmConfig,
) -> Result<RunOutcome, minic::Diagnostic> {
    let checked = sharc_core::compile(name, src)?;
    if let Some(first) = checked.diags.first_error() {
        return Err(first.clone());
    }
    let module = compile::compile(&checked)?;
    Ok(vm::run(&module, &checked.source_map, config))
}
