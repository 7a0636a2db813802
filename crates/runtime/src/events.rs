//! The native-execution event spine: real-thread workloads emit the
//! same [`sharc_checker::CheckEvent`] vocabulary the VM's tracer
//! produces, so one *native* execution can be judged by any
//! [`sharc_checker::CheckBackend`] — SharC's own engine, Eraser
//! locksets, vector clocks — exactly like a VM trace.
//!
//! The sink types themselves live in `sharc-checker` now
//! ([`sharc_checker::sink`] and [`sharc_checker::stream`]), next to
//! the backends they feed; this module re-exports them so the
//! runtime's historical paths (`sharc_runtime::EventLog`,
//! `sharc_runtime::events::EventLog`) keep working. The two
//! implementations:
//!
//! * [`EventLog`] — record-then-replay: a mutex-serialized
//!   append-only buffer holding the whole run.
//! * [`StreamingSink`] — online: per-thread bounded rings drained
//!   under an epoch flip, feeding a backend during the run.
//!
//! The runtime builds every native event: a [`ThreadCtx`] with a sink
//! attached ([`ThreadCtx::with_sink`]) records each operation made
//! through it — checked accesses (the arena), lock operations
//! ([`crate::LockRegistry`], [`ThreadCtx::critical_section`]), sharing
//! casts and `locked(l)` checks ([`crate::AccessPolicy`]), forks,
//! joins and exits — at the point the operation takes effect. A
//! workload never names a [`sharc_checker::CheckEvent`].

pub use sharc_checker::sink::{recording_tid, EventLog, EventSink};
pub use sharc_checker::stream::{StreamStats, StreamingSink};

#[cfg(doc)]
use crate::locks::ThreadCtx;
