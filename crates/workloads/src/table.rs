//! The Table 1 harness: runs each benchmark's native workload twice
//! (uninstrumented and checked), compiles its MiniC version for the
//! annotation columns, and renders rows in the paper's format.

use crate::benchmarks;
use std::time::{Duration, Instant};

/// What one native run reports back.
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeRun {
    /// A result checksum; must be identical across policies.
    pub checksum: u64,
    /// Dynamic-mode (checked) accesses.
    pub checked: u64,
    /// All instrumentable accesses.
    pub total: u64,
    /// Conflicts observed (benign races included).
    pub conflicts: usize,
    /// Payload bytes the workload touches.
    pub payload_bytes: usize,
    /// Shadow + bookkeeping bytes the SharC build adds.
    pub shadow_bytes: usize,
    /// Threads running concurrently (including main).
    pub threads: usize,
}

/// One row of the reproduced Table 1.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub name: &'static str,
    pub threads: usize,
    /// Lines in the MiniC version (the paper's 600k-line C programs
    /// are replaced by structurally-faithful MiniC ports; see
    /// DESIGN.md).
    pub lines: usize,
    /// User-written sharing annotations in the MiniC version.
    pub annotations: usize,
    /// Other changes: sharing casts in the MiniC version.
    pub changes: usize,
    pub time_orig: Duration,
    pub time_sharc: Duration,
    pub mem_overhead_pct: f64,
    pub dynamic_fraction: f64,
    pub conflicts: usize,
    pub checksum_match: bool,
}

impl BenchResult {
    /// Time overhead percentage (SharC vs original).
    pub fn time_overhead_pct(&self) -> f64 {
        if self.time_orig.as_nanos() == 0 {
            return 0.0;
        }
        (self.time_sharc.as_secs_f64() / self.time_orig.as_secs_f64() - 1.0) * 100.0
    }
}

/// Times the orig/sharc pair *interleaved* (o,s,o,s,...) and takes
/// medians, which resists the scheduling drift that plagues
/// multithreaded wall-clock measurement on small hosts.
pub fn time_pair_interleaved<R>(
    reps: usize,
    mut f: impl FnMut(bool) -> R,
) -> (Duration, Duration, R, R) {
    let mut orig_times = Vec::with_capacity(reps);
    let mut sharc_times = Vec::with_capacity(reps);
    // Warm-up round, untimed.
    let _ = f(false);
    let _ = f(true);
    let mut orig_r = None;
    let mut sharc_r = None;
    for _ in 0..reps {
        let t = Instant::now();
        orig_r = Some(f(false));
        orig_times.push(t.elapsed());
        let t = Instant::now();
        sharc_r = Some(f(true));
        sharc_times.push(t.elapsed());
    }
    orig_times.sort();
    sharc_times.sort();
    (
        orig_times[reps / 2],
        sharc_times[reps / 2],
        orig_r.expect("at least one rep"),
        sharc_r.expect("at least one rep"),
    )
}

/// Counts SCAST occurrences in a MiniC source (Table 1's "Changes"
/// proxy: the paper counts casts and small code edits).
pub fn count_scasts(src: &str) -> usize {
    src.matches("SCAST(").count()
}

/// Counts non-empty, non-comment lines.
pub fn count_lines(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// Compiles a benchmark's MiniC version and returns
/// `(lines, annotations, scasts)`.
///
/// # Panics
///
/// Panics if the MiniC version no longer checks cleanly — the MiniC
/// ports are fixtures that must stay error-free.
pub fn minic_columns(name: &str, src: &str) -> (usize, usize, usize) {
    let checked = sharc_core::compile(name, src)
        .unwrap_or_else(|e| panic!("{name} MiniC version failed to parse: {e}"));
    let errors: Vec<_> = checked
        .diags
        .iter()
        .filter(|d| d.severity == minic::Severity::Error)
        .collect();
    assert!(
        errors.is_empty(),
        "{name} MiniC version has check errors:\n{}",
        checked.render_diags()
    );
    (
        count_lines(src),
        checked.annotation_count,
        count_scasts(src),
    )
}

/// Runs one benchmark end to end.
pub fn run_benchmark<PRun>(
    name: &'static str,
    minic_src: &str,
    reps: usize,
    run: PRun,
) -> BenchResult
where
    PRun: Fn(bool) -> NativeRun,
{
    let (lines, annotations, changes) = minic_columns(name, minic_src);
    let (time_orig, time_sharc, orig, sharc) = time_pair_interleaved(reps, &run);
    BenchResult {
        name,
        threads: sharc.threads,
        lines,
        annotations,
        changes,
        time_orig,
        time_sharc,
        mem_overhead_pct: if sharc.payload_bytes == 0 {
            0.0
        } else {
            sharc.shadow_bytes as f64 / sharc.payload_bytes as f64 * 100.0
        },
        dynamic_fraction: if sharc.total == 0 {
            0.0
        } else {
            sharc.checked as f64 / sharc.total as f64
        },
        conflicts: sharc.conflicts,
        checksum_match: orig.checksum == sharc.checksum,
    }
}

/// Scale knob: `quick` shrinks workloads for tests; the full scale is
/// used by the `table1` binary.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub quick: bool,
    pub reps: usize,
}

impl Scale {
    /// Quick scale for tests.
    pub fn quick() -> Self {
        Scale {
            quick: true,
            reps: 1,
        }
    }

    /// Full scale for the Table 1 harness (the paper averaged 50
    /// runs; we default to fewer but configurable).
    pub fn full(reps: usize) -> Self {
        Scale { quick: false, reps }
    }
}

/// Runs all six benchmarks.
pub fn run_all(scale: Scale) -> Vec<BenchResult> {
    vec![
        benchmarks::pfscan::bench(scale),
        benchmarks::aget::bench(scale),
        benchmarks::pbzip2::bench(scale),
        benchmarks::dillo::bench(scale),
        benchmarks::fftw::bench(scale),
        benchmarks::stunnel::bench(scale),
    ]
}

/// Renders results in the paper's Table 1 layout.
pub fn render_table(results: &[BenchResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:>7} {:>6} {:>7} {:>8} {:>11} {:>9} {:>8} {:>10} {:>6}\n",
        "Name",
        "Threads",
        "Lines",
        "Annots.",
        "Changes",
        "Time Orig.",
        "SharC",
        "Mem +%",
        "% dynamic",
        "OK"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<8} {:>7} {:>6} {:>7} {:>8} {:>10.2?} {:>+8.1}% {:>7.1}% {:>9.1}% {:>6}\n",
            r.name,
            r.threads,
            r.lines,
            r.annotations,
            r.changes,
            r.time_orig,
            r.time_overhead_pct(),
            r.mem_overhead_pct,
            r.dynamic_fraction * 100.0,
            if r.checksum_match { "yes" } else { "NO" }
        ));
    }
    let avg_time: f64 =
        results.iter().map(|r| r.time_overhead_pct()).sum::<f64>() / results.len() as f64;
    let avg_mem: f64 =
        results.iter().map(|r| r.mem_overhead_pct).sum::<f64>() / results.len() as f64;
    out.push_str(&format!(
        "average time overhead {avg_time:.1}%  (paper: 9.2%), average memory overhead \
         {avg_mem:.1}% (paper: 26.1%)\n"
    ));
    out
}
