//! What every output record says about where it was taken, and the
//! process's peak memory.

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process, in MB (10⁶ bytes). Each workload runs in a
/// process of its own, so this is the workload's peak, set-up included.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// The header of an output record.
#[derive(Debug, Clone)]
pub struct HostStamp {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub smoke: bool,
    pub nproc: usize,
    /// `rustc --version`, passed in by `run.sh` (`unknown` otherwise).
    pub rustc: String,
    /// `git rev-parse --short HEAD`, passed in by `run.sh`; `unknown`
    /// in a checkout that is not a git repository.
    pub commit: String,
    /// Measured laps per variant.
    pub laps: usize,
}

impl HostStamp {
    pub fn render(&self) -> String {
        format!(
            "# sharc-benchmark workload={} seed={} trace={} smoke={} nproc={} rustc=\"{}\" \
             commit={} laps={} warmup_laps={} settle_s={} setups={} percentile={} (closed loop, one \
             client)\n",
            self.workload,
            self.seed,
            self.traced as u8,
            self.smoke as u8,
            self.nproc,
            self.rustc,
            self.commit,
            self.laps,
            crate::harness::warmup_laps(self.smoke),
            crate::harness::settle_seconds(self.smoke),
            crate::harness::SETUPS,
            crate::stats::PERCENTILE,
        )
    }
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key)
        .ok()
        .filter(|v| !v.trim().is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The toolchain and commit `run.sh` exported.
pub fn toolchain() -> (String, String) {
    (
        env_or_unknown("SHARC_BENCH_RUSTC"),
        env_or_unknown("SHARC_BENCH_COMMIT"),
    )
}
