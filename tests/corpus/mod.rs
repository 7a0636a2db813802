//! The golden corpus shared by `frontend_golden.rs` and
//! `schedule_golden.rs`: the examples, the benchmark's answer-keyed
//! programs and the six Table-1 ports.

use sharc::workloads::benchmarks::{aget, dillo, fftw, pbzip2, pfscan, stunnel};

pub fn corpus() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "examples-counter_locked",
            include_str!("../../examples/minic/counter_locked.c"),
        ),
        (
            "examples-counter_racy",
            include_str!("../../examples/minic/counter_racy.c"),
        ),
        (
            "examples-elision",
            include_str!("../../examples/minic/elision.c"),
        ),
        (
            "examples-fleet",
            include_str!("../../examples/minic/fleet.c"),
        ),
        (
            "examples-handoff",
            include_str!("../../examples/minic/handoff.c"),
        ),
        (
            "benchmark-counter_locked",
            include_str!("../../benchmark/programs/counter_locked.c"),
        ),
        (
            "benchmark-counter_racy",
            include_str!("../../benchmark/programs/counter_racy.c"),
        ),
        (
            "benchmark-elision",
            include_str!("../../benchmark/programs/elision.c"),
        ),
        (
            "benchmark-handoff",
            include_str!("../../benchmark/programs/handoff.c"),
        ),
        (
            "benchmark-known-bug-tid-reuse",
            include_str!("../../benchmark/programs/known-bug-tid-reuse.c"),
        ),
        ("port-aget", aget::minic_source()),
        ("port-dillo", dillo::minic_source()),
        ("port-fftw", fftw::minic_source()),
        ("port-pbzip2", pbzip2::minic_source()),
        ("port-pfscan", pfscan::minic_source()),
        ("port-stunnel", stunnel::minic_source()),
    ]
}
