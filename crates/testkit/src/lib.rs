//! # sharc-testkit
//!
//! The repository's zero-dependency test and measurement substrate.
//! The build environment is hermetic (no registry access), so
//! everything that `rand`, `proptest`, `criterion`, `serde_json`,
//! `parking_lot`, and `crossbeam` used to provide is re-implemented
//! here on `std` alone:
//!
//! * [`rng`] — deterministic PRNGs ([`rng::SplitMix64`],
//!   [`rng::Xoshiro256pp`]) behind an [`rng::Rng`] trait with
//!   `gen`/`gen_range`/`fill_bytes`/`shuffle`, plus
//!   [`rng::seed_from_env`] so CI runs are reproducible via
//!   `SHARC_TEST_SEED`.
//! * [`gen`] — generator combinators producing lazily-expanded shrink
//!   trees (hedgehog-style integrated shrinking survives `map`).
//! * [`prop`] — the property runner: configurable case count
//!   (`SHARC_TEST_CASES`), greedy shrinking to a local minimum, and
//!   failing-seed persistence ([`prop::Config::persist_to`]).
//!   Use the [`forall!`], [`prop_assert!`], and [`prop_assert_eq!`]
//!   macros.
//! * [`bench`](mod@bench) — warmup + timed-sample micro-benchmarks reporting
//!   median/p95 and emitting `target/BENCH_<group>.json` through the
//!   in-tree JSON writer.
//! * [`json`] — a minimal JSON document model with a pretty emitter
//!   and a recursive-descent parser (round-trip tested).
//! * [`sync`] — std-only shims matching the `parking_lot` calling
//!   convention (guards without poison `Result`s), a guard-less
//!   [`sync::RawMutex`], scoped threads, and `mpsc` channels.
//!
//! Everything is deterministic given a seed; nothing touches the
//! network or the cargo registry.

pub mod bench;
pub mod gen;
pub mod json;
pub mod prop;
pub mod rng;
pub mod stress;
pub mod sync;

pub use bench::Bench;
pub use gen::{Gen, Tree};
pub use json::Json;
pub use prop::Config;
pub use rng::{seed_from_env, Rng, RngCore, SplitMix64, Xoshiro256pp};
pub use stress::BarrierSchedule;
