//! The closed-loop lap runner every workload shares: one client, one
//! lap at a time, variants of a workload interleaved lap by lap inside
//! a *round*; set-up repeated and timed apart from the laps; every
//! lap's output held against the workload's answer key.

use crate::report::Report;
use crate::spans::Spans;
use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up is run this many times; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// Measured rounds of a `--smoke` run (fixed, so counts repeat).
pub const SMOKE_LAPS: usize = 3;

/// `--smoke` divides every input size by this.
pub const SMOKE_SCALE: usize = 20;

/// Unmeasured warm-up rounds at the end of each set-up.
pub const fn warmup_laps(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        3
    }
}

/// The measuring phase opens with unrecorded rounds for this many
/// seconds. The host needs them, not the program: right after another
/// process has had the CPUs, `scan-read`'s first 11–16 rounds — 1.5 to
/// 2.2 s — ran 40 % slow in two runs out of three, every variant
/// alike, long after the three set-ups' warm-up laps.
pub const fn settle_seconds(smoke: bool) -> f64 {
    if smoke {
        0.0
    } else {
        2.5
    }
}

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Measuring time: rounds run until it is spent, and in any case
    /// until [`stats::MIN_LAPS`] are in.
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

/// Lap times in seconds, by variant.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, variant: &'static str, secs: f64) {
        self.0.entry(variant).or_default().push(secs);
    }

    pub fn get(&self, variant: &str) -> &[f64] {
        self.0.get(variant).map_or(&[], Vec::as_slice)
    }

    /// Median lap of `variant`; `NaN` (rendered as 0) if every lap of
    /// it panicked.
    pub fn median(&self, variant: &str) -> f64 {
        match self.get(variant) {
            [] => f64::NAN,
            laps => stats::median(laps),
        }
    }
}

/// One workload run's state: configuration, span recorder, and the
/// verdict tally.
#[derive(Debug)]
pub struct Ctx {
    pub cfg: Config,
    pub nproc: usize,
    pub spans: Spans,
    pub verdicts_checked: u64,
    pub wrong_verdicts: u64,
}

impl Ctx {
    pub fn new(cfg: Config) -> Self {
        Ctx {
            cfg,
            nproc: crate::host::nproc(),
            spans: Spans::default(),
            verdicts_checked: 0,
            wrong_verdicts: 0,
        }
    }

    /// `full` at full scale, a twentieth of it under `--smoke`.
    pub fn scaled(&self, full: usize) -> usize {
        if self.cfg.smoke {
            (full / SMOKE_SCALE).max(1)
        } else {
            full
        }
    }

    /// Holds one output against its answer key. A wrong verdict is
    /// counted, described on stderr, and never aborts the run: the
    /// result line reports it as a failed operation.
    pub fn verdict(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.verdicts_checked += 1;
        if !ok {
            self.wrong_verdicts += 1;
            if self.wrong_verdicts <= 5 {
                eprintln!("wrong verdict: {}", what());
            }
        }
    }

    /// Runs `f` under a span named `span` and returns its result and
    /// wall time. A panic inside `f` (a crashed worker thread, a
    /// refused input) counts as one wrong verdict and yields `None`.
    pub fn timed<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> Option<(T, f64)> {
        let id = self.spans.enter(span);
        let t = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        let secs = t.elapsed().as_secs_f64();
        self.spans.exit(id);
        match result {
            Ok(v) => Some((v, secs)),
            Err(_) => {
                self.verdict(false, || format!("`{span}` panicked"));
                None
            }
        }
    }

    /// Records a verdict lap; a traced run also files it under the
    /// half (spans on / spans off) it ran in, for `bench.trace_overhead`.
    pub fn push_verdict(&self, samples: &mut Samples, secs: f64) {
        samples.push("verdict", secs);
        if self.cfg.traced {
            let half = if self.spans.recording() {
                "verdict.on"
            } else {
                "verdict.off"
            };
            samples.push(half, secs);
        }
    }

    /// Set-up, [`SETUPS`] times over: `make` builds the inputs and the
    /// answer key from the seed, then `round` runs the warm-up laps.
    /// Returns the last inputs and every set-up's wall time.
    pub fn setup<T>(
        &mut self,
        mut make: impl FnMut(&mut Ctx) -> T,
        mut round: impl FnMut(&mut Ctx, &T, &mut Samples),
    ) -> (T, Vec<f64>) {
        let mut times = Vec::with_capacity(SETUPS);
        let mut input = None;
        for _ in 0..SETUPS {
            drop(input.take()); // one input resident at a time
            let t = Instant::now();
            let made = make(self);
            let mut discarded = Samples::default();
            for _ in 0..warmup_laps(self.cfg.smoke) {
                round(self, &made, &mut discarded);
            }
            times.push(t.elapsed().as_secs_f64());
            input = Some(made);
        }
        (input.expect("SETUPS > 0"), times)
    }

    /// The measured rounds, after [`settle_seconds`] of unrecorded
    /// ones. A traced run records spans on every other round, so the
    /// same process yields traced and untraced laps of the same code,
    /// interleaved.
    pub fn measure<T>(
        &mut self,
        input: &T,
        mut round: impl FnMut(&mut Ctx, &T, &mut Samples),
    ) -> (Samples, usize) {
        let settle = Instant::now();
        let mut discarded = Samples::default();
        while settle.elapsed().as_secs_f64() < settle_seconds(self.cfg.smoke) {
            round(self, input, &mut discarded);
        }
        let mut samples = Samples::default();
        let start = Instant::now();
        let mut laps = 0usize;
        loop {
            let done = if self.cfg.smoke {
                laps >= SMOKE_LAPS
            } else {
                laps >= stats::MIN_LAPS && start.elapsed().as_secs_f64() >= self.cfg.seconds
            };
            if done {
                break;
            }
            self.spans
                .set_recording(self.cfg.traced && laps.is_multiple_of(2), laps as u32);
            round(self, input, &mut samples);
            laps += 1;
        }
        self.spans.set_recording(false, laps as u32);
        (samples, laps)
    }

    /// The metrics every workload reports the same way.
    pub fn common_metrics(
        &self,
        report: &mut Report,
        samples: &Samples,
        laps: usize,
        setups: &[f64],
    ) {
        let verdict = samples.get("verdict");
        report.put("laps", laps as f64);
        report.put("setup_s", stats::median(setups));
        report.put("verdict_s", samples.median("verdict"));
        if !verdict.is_empty() {
            report.put("verdict_p75_s", stats::p75(verdict));
            report.note("verdict_p75_s", format!("{} laps", verdict.len()));
        }
        match crate::host::peak_rss_mb() {
            Some(mb) => report.put("peak_rss_mb", mb),
            None => report.unmeasured("peak_rss_mb", "no /proc/self/status"),
        }
        report.put("wrong_verdicts", self.wrong_verdicts as f64);
        report.put("verdicts_checked", self.verdicts_checked as f64);
        report.note(
            "wrong_verdicts",
            format!("of {} verdicts checked", self.verdicts_checked),
        );
        if self.cfg.traced {
            let (on, off) = (samples.median("verdict.on"), samples.median("verdict.off"));
            report.put("bench.trace_overhead", on / off - 1.0);
            report.note(
                "bench.trace_overhead",
                format!("traced lap {on:.6} s over untraced lap {off:.6} s, same process"),
            );
        }
    }
}
