//! `scan-read` — the pfscan shape, the paper's highest-%dynamic row.
//!
//! A synthetic corpus is loaded into one shared arena by a producer
//! (private-mode, unchecked writes) and swept by two scanning workers
//! with one ranged `chkread` per file, so half of all accesses are
//! dynamic-mode reads of read-shared memory. The added work is the
//! `runtime` shadow/arena ranged read path; almost nothing is recorded.
//! The lap is `sharc_workloads::benchmarks::pfscan::run_native`, the
//! code `sharc native pfscan` and Table 1 run, at a corpus size where a
//! lap is long enough to time.

use crate::harness::{Ctx, Samples};
use crate::native::{check_run, table1_metrics};
use crate::report::Report;
use sharc_runtime::{Checked, Unchecked};
use sharc_workloads::benchmarks::pfscan;
use sharc_workloads::substrates::filesys::{FsConfig, SynthFs};
use sharc_workloads::table::NativeRun;

/// Corpus size at full scale. Far beyond any cache level, so every
/// sweep streams from memory; 128 files keep both workers busy to the
/// end of the queue.
pub const CORPUS_BYTES: usize = 16 << 20;
const FILES: usize = 128;
const NEEDLE: &str = "needle";

struct Input {
    params: pfscan::Params,
    /// Needle occurrences in the corpus, counted by the substrate's
    /// reference scan over the generated files — not by the workers.
    key: u64,
}

fn make(ctx: &mut Ctx) -> Input {
    let fs = FsConfig {
        n_dirs: 8,
        files_per_dir: FILES / 8,
        // Whole words: pfscan packs files 8 bytes to the arena word.
        file_size: ctx.scaled(CORPUS_BYTES) / FILES / 8 * 8,
        needle_every: 256,
        seed: ctx.cfg.seed,
    };
    let key = SynthFs::generate(fs, NEEDLE).count_occurrences(NEEDLE.as_bytes()) as u64;
    Input {
        params: pfscan::Params { fs, workers: 2 },
        key,
    }
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut last_checked: Option<NativeRun> = None;
    let mut round = |ctx: &mut Ctx, input: &Input, samples: &mut Samples| {
        if let Some((run, secs)) = ctx.timed("workloads.unchecked", || {
            pfscan::run_native::<Unchecked>(&input.params)
        }) {
            check_run(ctx, "unchecked", &run, input.key);
            samples.push("unchecked", secs);
        }
        if let Some((run, secs)) = ctx.timed("runtime.checked", || {
            pfscan::run_native::<Checked>(&input.params)
        }) {
            check_run(ctx, "checked", &run, input.key);
            samples.push("checked", secs);
            ctx.push_verdict(samples, secs);
            last_checked = Some(run);
        }
    };
    let (input, setups) = ctx.setup(make, &mut round);
    let (samples, laps) = ctx.measure(&input, &mut round);

    let mut report = Report::default();
    if let Some(run) = last_checked {
        table1_metrics(&mut report, &samples, &run);
        report.put("work_per_s", run.checked as f64 / samples.median("verdict"));
        report.note(
            "work_per_s",
            format!(
                "checked accesses per second, {} per lap over a {} KiB corpus",
                run.checked,
                (input.params.fs.file_size * FILES) >> 10
            ),
        );
    }
    if ctx.cfg.traced {
        crate::direct::read_path(&mut report);
    }
    ctx.common_metrics(&mut report, &samples, laps, &setups);
    report
}
