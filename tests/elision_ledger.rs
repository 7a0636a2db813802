//! The elision ledger: how many *executed* checks each elision rule
//! removes on every corpus program, pinned in
//! `tests/fixtures/elision_ledger.golden`.
//!
//! A row is one program and one [`Reason`]: the checks the eliding
//! build runs (`dynamic_accesses + lock_checks`, `Random` seed 1) with
//! that reason's entries cleared from `elision.sites`, minus the same
//! count with none cleared. A reason that elides no static slot in a
//! program is not run again; its row is 0 by construction. The last
//! rows total each reason over the corpus, and every total must be
//! above zero: a rule that stops removing executed checks fails here
//! and is deleted, not kept. On drift the test writes what it got to
//! `<target>/tmp/elision_ledger.golden`; copy it over the golden only
//! for an intended change to what elision removes.

mod corpus;

use sharc::core::Reason;
use sharc::prelude::*;

/// Executed checks of one eliding run at `Random` seed 1.
fn executed(checked: &CheckedProgram) -> u64 {
    let config = RunConfig {
        seed: 1,
        policy: SchedPolicy::Random,
        ..RunConfig::default()
    };
    let run = sharc::run(checked, config).expect("corpus program runs");
    run.stats.dynamic_accesses + run.stats.lock_checks
}

/// Clears every `elision.sites` entry that names `reason`; false when
/// there was none.
fn strip(checked: &mut CheckedProgram, reason: Reason) -> bool {
    let mut stripped = false;
    for site in checked.elision.sites.values_mut() {
        for slot in [&mut site.read, &mut site.write] {
            if *slot == Some(reason) {
                *slot = None;
                stripped = true;
            }
        }
    }
    stripped
}

/// The ledger text and the per-reason totals over the corpus.
fn render() -> (String, [u64; Reason::ALL.len()]) {
    let mut out = String::new();
    let mut totals = [0; Reason::ALL.len()];
    for (name, src) in corpus::corpus() {
        let check = || sharc::check(&format!("{name}.c"), src).expect("corpus program parses");
        let base = executed(&check());
        for reason in Reason::ALL {
            let mut stripped = check();
            let removed = if strip(&mut stripped, reason) {
                executed(&stripped) - base
            } else {
                0
            };
            totals[reason.index()] += removed;
            out.push_str(&format!("{name} {} {removed}\n", reason.label()));
        }
    }
    for reason in Reason::ALL {
        out.push_str(&format!(
            "total {} {}\n",
            reason.label(),
            totals[reason.index()]
        ));
    }
    (out, totals)
}

#[test]
fn executed_checks_removed_per_rule_are_pinned() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/elision_ledger.golden"
    );
    let (got, totals) = render();
    let golden = std::fs::read_to_string(fixture).unwrap_or_default();
    if got != golden {
        let actual =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("elision_ledger.golden");
        std::fs::write(&actual, &got).expect("write actual ledger");
        panic!(
            "elision ledger drifted: diff {fixture} {}",
            actual.display()
        );
    }
    for reason in Reason::ALL {
        assert!(
            totals[reason.index()] > 0,
            "{} removes no executed check on the corpus: delete the rule",
            reason.label()
        );
    }
}
