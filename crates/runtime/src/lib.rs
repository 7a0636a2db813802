//! # sharc-runtime
//!
//! The SharC runtime substrate for *real* threads (paper §4.2–4.4):
//! shadow memory with the exact reader/writer bitmap encoding updated
//! by compare-exchange, per-thread held-lock logs, the sharing-cast
//! (`oneref`) protocol, and two reference-counting schemes — naive
//! eager atomic counting and the adapted Levanoni–Petrank on-the-fly
//! algorithm the paper uses to make counting affordable.
//!
//! It is one stack — one [`ThreadId`], one [`ThreadCtx`], one
//! [`LockRegistry`], one [`Arena`] over one [`Shadow`] — generic over
//! the only thing that varies, the [`WordProtocol`] that keeps one
//! granule's shadow words consistent:
//!
//! * [`OneWord`] — the paper's n-byte word per 16-byte granule,
//!   packed `8 / n` to an `AtomicU64`: one load and one compare when
//!   the access is already recorded, a lane-splicing CAS loop when it
//!   is not, one load and at most one CAS per packed word for a ranged
//!   sweep ([`Arena::new`]; 1 byte per granule, 7 threads, by
//!   default);
//! * [`MultiWord`] — several 8-byte words per granule laid out by a
//!   `ShadowGeometry`, snapshot → step → CAS → revalidate
//!   ([`Arena::for_threads`]): exact identities past 63 threads, which
//!   a single word cannot encode.
//!
//! The trait hides the per-granule check, the ranged sweep, the
//! "already recorded" predicate, the clears and the shadow footprint;
//! the arena, policies, contexts, run logs and locks above it exist
//! once.
//! The shadow words are the only ownership table: there is no
//! per-thread cache of them to keep coherent, and "is this access
//! already mine?" is one load of the thread's own word.
//!
//! The runtime builds every native event, in the
//! [`sharc_checker::CheckEvent`] vocabulary the VM's tracer produces,
//! so one native execution can be judged by any
//! [`sharc_checker::CheckBackend`] exactly like a VM trace. A
//! [`ThreadCtx`] with a sink attached ([`ThreadCtx::with_sink`])
//! records each operation made through it — checked accesses (the
//! arena), lock operations ([`LockRegistry`],
//! [`ThreadCtx::critical_section`]), sharing casts and `locked(l)`
//! checks ([`AccessPolicy`]), forks, joins and exits — at the point
//! the operation takes effect. A workload never names a
//! [`sharc_checker::CheckEvent`]; the sinks themselves
//! ([`sharc_checker::EventLog`], [`sharc_checker::StreamingSink`])
//! live in `sharc-checker`.
//!
//! The [`arena::AccessPolicy`] abstraction lets a workload be
//! compiled twice — baseline ([`Unchecked`]) and checked
//! ([`Checked`]) — which is how the Table 1 overhead numbers are
//! regenerated.
//!
//! ## Example
//!
//! ```
//! use sharc_runtime::arena::{AccessPolicy, Arena, Checked, Unchecked};
//! use sharc_runtime::locks::ThreadCtx;
//! use sharc_runtime::shadow::ThreadId;
//!
//! fn fill<P: AccessPolicy>(a: &Arena, ctx: &mut ThreadCtx) -> u64 {
//!     for i in 0..64 {
//!         P::write(a, ctx, i, i as u64);
//!     }
//!     (0..64).map(|i| P::read(a, ctx, i)).sum()
//! }
//!
//! let arena = Arena::new(64);
//! let mut ctx = ThreadCtx::new(ThreadId(1));
//! assert_eq!(fill::<Unchecked>(&arena, &mut ctx), fill::<Checked>(&arena, &mut ctx));
//! assert_eq!(ctx.conflicts, 0);
//! ```

pub mod arena;
pub mod locks;
pub mod rc;
pub mod scast;
pub mod shadow;
pub mod sharded;

pub use arena::{AccessPolicy, Arena, Checked, Unchecked, GRANULE_WORDS};
pub use locks::{LockId, LockNotHeld, LockRegistry, ThreadCtx};
pub use rc::{LpRc, NaiveRc, ObjId, RcScheme};
pub use scast::{sharing_cast, ScastError};
pub use shadow::{OneWord, RaceError, Shadow, ShadowWord, ThreadId, WordProtocol};
pub use sharded::{MultiWord, ShardedShadow};

// The names the wide-tid stack used to export, for callers written
// against them (a `use`-rename carries the tuple constructor).
pub use arena::Checked as WideChecked;
pub use arena::Unchecked as WideUnchecked;
pub use shadow::ThreadId as WideThreadId;
// Kept for `benchmark/`: the one checked policy under its old cached name.
pub use arena::Checked as CachedChecked;
