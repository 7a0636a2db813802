//! What the three native workloads (`scan-read`, `handoff-write`,
//! `tunnel-online`) share: the answer-key check on a run record and
//! the Table-1 metrics read off the unchecked/checked lap pair.

use crate::harness::{Ctx, Samples};
use crate::report::Report;
use sharc_workloads::table::NativeRun;

/// Holds one native lap against the key: the checksum must be the one
/// the generator predicted, and a checking variant must report no
/// conflict (every workload here is race-free by construction).
pub fn check_run(ctx: &mut Ctx, variant: &'static str, run: &NativeRun, key_checksum: u64) {
    ctx.verdict(run.checksum == key_checksum, || {
        format!(
            "{variant}: checksum {} differs from the key {key_checksum}",
            run.checksum
        )
    });
    ctx.verdict(run.conflicts == 0, || {
        format!(
            "{variant}: {} conflicts on a race-free workload",
            run.conflicts
        )
    });
}

/// `check_overhead`, `mem_overhead`, `work_per_s` (checked accesses
/// per second of verdict lap) and the `workloads` / `runtime` lap
/// differences, from the interleaved `unchecked` and `checked`
/// variants and one checked run's record.
pub fn table1_metrics(report: &mut Report, samples: &Samples, checked_run: &NativeRun) {
    let (unchecked, checked) = (samples.median("unchecked"), samples.median("checked"));
    report.put("check_overhead", checked / unchecked);
    report.note(
        "check_overhead",
        format!(
            "checked lap {checked:.6} s over unchecked lap {unchecked:.6} s (Table 1's column)"
        ),
    );
    report.put(
        "mem_overhead",
        checked_run.shadow_bytes as f64 / checked_run.payload_bytes as f64,
    );
    report.note(
        "mem_overhead",
        format!(
            "{} shadow bytes over {} payload bytes",
            checked_run.shadow_bytes, checked_run.payload_bytes
        ),
    );
    report.put("workloads.unchecked_s", unchecked);
    report.put("runtime.check_s", checked - unchecked);
    report.note(
        "runtime.check_s",
        format!(
            "{:.1} % of verdict_s",
            100.0 * (checked - unchecked) / samples.median("verdict")
        ),
    );
    report.put("runtime.checked_accesses", checked_run.checked as f64);
    report.put(
        "runtime.dynamic_fraction",
        checked_run.checked as f64 / checked_run.total as f64,
    );
}
