//! The elision ledger: how many *executed* checks the one elision
//! rule, E5 (read-of-write), removes on every corpus program, pinned
//! in `tests/fixtures/elision_ledger.golden`.
//!
//! A row is one program: the checks the eliding build runs
//! (`dynamic_accesses + lock_checks`, `Random` seed 1) with every
//! collapse cleared from the check table, minus the same count with
//! none cleared. A program with no collapsed read is not run again;
//! its row is 0 by construction. The last row totals the corpus, and
//! it must be above zero: a rule that stops removing executed checks
//! fails here and is deleted, not kept. On drift the test writes what
//! it got to `<target>/tmp/elision_ledger.golden`; copy it over the
//! golden only for an intended change to what elision removes.

mod corpus;

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

/// Clears every collapse in the check table; false when there was
/// none.
fn strip(checked: &mut CheckedProgram) -> bool {
    let mut stripped = false;
    for ac in checked.instr.checks.values_mut() {
        stripped |= std::mem::take(&mut ac.read_collapsed);
    }
    stripped
}

/// The ledger text and the corpus total.
fn render() -> (String, u64) {
    let mut out = String::new();
    let mut total = 0;
    for (name, src) in corpus::corpus() {
        let check = || sharc::check(&format!("{name}.c"), src).expect("corpus program parses");
        let base = executed(&check());
        let mut stripped = check();
        let removed = if strip(&mut stripped) {
            executed(&stripped) - base
        } else {
            0
        };
        total += removed;
        out.push_str(&format!("{name} read-of-write {removed}\n"));
    }
    out.push_str(&format!("total read-of-write {total}\n"));
    (out, total)
}

#[test]
fn executed_checks_removed_per_rule_are_pinned() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/elision_ledger.golden"
    );
    let (got, total) = render();
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
    assert!(
        total > 0,
        "read-of-write removes no executed check on the corpus: delete the rule"
    );
}
