//! Baseline goldens: what Eraser and the vector-clock detector report
//! on seeded VM runs of every corpus program, pinned in
//! `tests/fixtures/vm_baselines.golden`.
//!
//! Each line holds one program, seed and detector: the number of
//! conflicts `run_with_detector` returns and the FNV-1a hash of their
//! rendered lines, in the order they came. A change to how a VM run
//! reaches a baseline — which events it sees, in which order, and how
//! the conflicts are de-duplicated — changes a line. On drift the test
//! writes what it got to `<target>/tmp/vm_baselines.golden`; copy it
//! over the golden only for an intended change to a verdict.

mod corpus;

use sharc::prelude::*;
use sharc::workloads::substrates::net::fnv;

/// `fleet.c` runs 100 live threads: one seed keeps the debug build
/// fast.
const FLEET: &str = "examples-fleet";

fn line(checked: &CheckedProgram, name: &str, seed: u64, kind: DetectorKind) -> String {
    let config = RunConfig {
        seed,
        policy: SchedPolicy::Random,
        ..RunConfig::default()
    };
    let run = sharc::run_with_detector(checked, config, kind).expect("corpus program runs");
    let rendered: Vec<String> = run.conflicts.iter().map(|c| c.to_string()).collect();
    format!(
        "{name} seed={seed} {} conflicts={} hash={:016x}\n",
        run.detector,
        run.conflicts.len(),
        fnv(rendered.join("\n").as_bytes()),
    )
}

fn render() -> String {
    let mut out = String::new();
    for (name, src) in corpus::corpus() {
        let checked = sharc::check(&format!("{name}.c"), src).expect("corpus program parses");
        for seed in [0, 1] {
            if name == FLEET && seed != 0 {
                continue;
            }
            for kind in [DetectorKind::Eraser, DetectorKind::Vc] {
                out.push_str(&line(&checked, name, seed, kind));
            }
        }
    }
    out
}

#[test]
fn every_baseline_verdict_on_the_corpus_is_pinned() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/vm_baselines.golden"
    );
    let got = render();
    let golden = std::fs::read_to_string(fixture).unwrap_or_default();
    if got != golden {
        let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("vm_baselines.golden");
        std::fs::write(&actual, &got).expect("write actual baselines");
        panic!(
            "baseline verdicts drifted: diff {fixture} {}",
            actual.display()
        );
    }
}
