//! The SharC reproduction's end-to-end benchmark: five workloads,
//! Table 1's checked-over-unchecked overhead on top, per-layer numbers
//! beneath. `README.md` in this directory is the manual; `BENCHMARK.json`
//! at the repository root is the contract with the driver.
//!
//! The system is driven only through public functions — the `sharc`
//! facade the CLI calls and the public entry points of the workspace
//! crates — so nothing outside this directory changes, and no span or
//! counter lives inside a crate under test.

pub mod compare;
pub mod direct;
pub mod expected;
pub mod gen_minic;
pub mod gen_trace;
pub mod handoff_write;
pub mod harness;
pub mod host;
pub mod minic_pipeline;
pub mod native;
pub mod report;
pub mod scan_read;
pub mod spans;
pub mod stats;
pub mod trace_replay;
pub mod tunnel_online;

use std::path::PathBuf;

/// Where the benchmark writes: `benchmark/out/` (ignored by git), and
/// nowhere else. Trace files live here for the length of a run; span
/// dumps stay.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// `BENCHMARK.json` at the repository root.
pub fn benchmark_json() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
}

/// One workload: its fixed name (later issues refer to it), its entry
/// point, and whether its lap needs two threads running at once.
pub struct Workload {
    pub name: &'static str,
    pub run: fn(&mut harness::Ctx) -> report::Report,
    pub needs_two_cpus: bool,
}

/// The five workloads, in the order the set runs them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "scan-read",
        run: scan_read::run,
        needs_two_cpus: true,
    },
    Workload {
        name: "handoff-write",
        run: handoff_write::run,
        needs_two_cpus: true,
    },
    Workload {
        name: "tunnel-online",
        run: tunnel_online::run,
        needs_two_cpus: true,
    },
    Workload {
        name: "trace-replay",
        run: trace_replay::run,
        needs_two_cpus: false,
    },
    Workload {
        name: "minic-pipeline",
        run: minic_pipeline::run,
        needs_two_cpus: false,
    },
];
