//! Schedule goldens: one line per seeded run of every corpus program,
//! pinned in `tests/fixtures/schedules.golden`.
//!
//! Each line holds the run's exit status, step count, threads spawned,
//! peak live threads, report count, and the FNV-1a hashes of its
//! output and of its text trace. The trace names every event in
//! execution order with its thread, so a scheduler that picks one
//! thread differently anywhere changes the line. On drift the test
//! writes what it got to `<target>/tmp/schedules.golden`; copy it over
//! the golden only for an intended change to the schedule.

mod corpus;

use sharc::checker::trace_to_text;
use sharc::prelude::*;
use sharc::workloads::substrates::net::fnv;

/// The scheduler configurations every program runs under, as
/// `(label, policy, seed)`.
const CONFIGS: [(&str, SchedPolicy, u64); 6] = [
    ("random", SchedPolicy::Random, 0),
    ("random", SchedPolicy::Random, 1),
    ("random", SchedPolicy::Random, 2),
    ("random", SchedPolicy::Random, 3),
    ("rr1", SchedPolicy::RoundRobin(1), 0),
    ("rr16", SchedPolicy::RoundRobin(16), 0),
];

/// `fleet.c` runs 100 live threads: one configuration keeps the debug
/// build fast.
const FLEET: &str = "examples-fleet";

fn line(name: &str, src: &str, label: &str, policy: SchedPolicy, seed: u64) -> String {
    let config = RunConfig {
        seed,
        policy,
        collect_trace: true,
        ..RunConfig::default()
    };
    let checked = sharc::check(&format!("{name}.c"), src).expect("corpus program parses");
    let run = sharc::run(&checked, config).expect("corpus program runs");
    let s = &run.stats;
    format!(
        "{name} {label} seed={seed} steps={} spawned={} max_live={} reports={} \
         output={:016x} trace={:016x} status={:?}\n",
        s.steps,
        s.threads_spawned,
        s.max_live_threads,
        run.reports.len(),
        fnv(run.output.join("\n").as_bytes()),
        fnv(trace_to_text(&run.trace).as_bytes()),
        run.status,
    )
}

fn render() -> String {
    let mut out = String::new();
    for (name, src) in corpus::corpus() {
        for (label, policy, seed) in CONFIGS {
            if name == FLEET && (policy, seed) != (SchedPolicy::Random, 0) {
                continue;
            }
            out.push_str(&line(name, src, label, policy, seed));
        }
    }
    out
}

#[test]
fn every_seeded_schedule_is_pinned() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/schedules.golden"
    );
    let got = render();
    let golden = std::fs::read_to_string(fixture).unwrap_or_default();
    if got != golden {
        let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("schedules.golden");
        std::fs::write(&actual, &got).expect("write actual schedules");
        panic!(
            "seeded schedules drifted: diff {fixture} {}",
            actual.display()
        );
    }
}
