//! # sharc-workloads
//!
//! The six benchmarks of the SharC paper's Table 1, each in two
//! forms:
//!
//! 1. a **MiniC program** with the same threading structure and the
//!    paper's annotations, run through the full SharC pipeline and VM
//!    (annotation counts, conflict-freedom, dynamic-access fraction);
//! 2. a **native Rust workload** doing real work (scanning, block
//!    compression, FFT, encryption, simulated downloads and DNS),
//!    generic over [`sharc_runtime::AccessPolicy`] so the identical
//!    code runs uninstrumented ("orig") and checked ("SharC") — the
//!    source of the overhead columns.

pub mod benchmarks;
pub mod substrates;
pub mod table;

pub use table::{run_all, BenchResult};
