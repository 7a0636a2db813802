//! `tunnel-online` — the stunnel shape, judged while it runs.
//!
//! The server scenario, and the only workload where `checker::sink`,
//! `checker::stream` and `runtime::locks` carry load: an acceptor
//! hands 64 sessions to one worker through the session lock, the
//! worker encrypts and echoes messages under ranged checks and bumps
//! `locked(l)` counters, and the online variant judges every event
//! through a [`StreamingSink`] of bounded rings during the run. Cipher
//! work dominates, so the check path is nearly idle here: a shadow
//! change must not move this workload; a ring or collector change must.
//!
//! One worker: with two on two CPUs the acceptor is time-sliced and
//! the lap turns bimodal. The tunnel's keys and plaintexts are a fixed
//! function of client and message index inside
//! `sharc_workloads::benchmarks::stunnel`, so the seed has nothing to
//! vary on this workload; it is recorded all the same.

use crate::harness::{Ctx, Samples};
use crate::native::{check_run, table1_metrics};
use crate::report::Report;
use sharc_checker::{BitmapBackend, EventLog, ShadowGeometry, StreamStats, StreamingSink};
use sharc_runtime::{WideChecked, WideUnchecked};
use sharc_workloads::benchmarks::stunnel;
use sharc_workloads::table::NativeRun;
use std::sync::Arc;

const CLIENTS: usize = 64;
const WORKERS: usize = 1;
/// Messages per client at full scale (≈ 154 k events per lap).
pub const MESSAGES: usize = 400;
const MSG_LEN: usize = 256;

struct Input {
    params: stunnel::Params,
    /// `ok × 1000 + messages counted under the counter lock`, where
    /// every message of every client must echo back intact.
    key: u64,
}

fn make(ctx: &mut Ctx) -> Input {
    let params = stunnel::Params {
        clients: CLIENTS,
        workers: WORKERS,
        messages: ctx.scaled(MESSAGES),
        msg_len: MSG_LEN,
    };
    let echoed = (params.clients * params.messages) as u64;
    Input {
        params,
        key: echoed * 1000 + echoed,
    }
}

/// The online lap: the run `sharc native stunnel --online` performs —
/// sink up, fleet run recording into it, both parities drained.
fn online_lap(params: &stunnel::Params) -> (NativeRun, usize, StreamStats) {
    // Tids are 1-based (acceptor 1, workers 2..); ring 0 takes `Alloc`.
    let tids = params.workers + 1;
    let backend = BitmapBackend::with_geometry(ShadowGeometry::for_threads(tids));
    let sink = Arc::new(StreamingSink::new(
        tids + 1,
        sharc::DEFAULT_RING_CAP,
        Box::new(backend),
    ));
    let run = stunnel::run_with_events(params, sink.clone());
    let (conflicts, stats) = sink.finish();
    (run, conflicts.len(), stats)
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut last_checked: Option<NativeRun> = None;
    let mut last_stream: Option<StreamStats> = None;
    let mut last_log: Option<(usize, u64)> = None;
    let mut round = |ctx: &mut Ctx, input: &Input, samples: &mut Samples| {
        let p = &input.params;
        if let Some((run, secs)) = ctx.timed("workloads.unchecked", || {
            stunnel::run_native::<WideUnchecked>(p)
        }) {
            check_run(ctx, "unchecked", &run, input.key);
            samples.push("unchecked", secs);
        }
        if let Some((run, secs)) =
            ctx.timed("runtime.checked", || stunnel::run_native::<WideChecked>(p))
        {
            check_run(ctx, "checked", &run, input.key);
            samples.push("checked", secs);
            last_checked = Some(run);
        }
        if let Some(((run, conflicts, stats), secs)) =
            ctx.timed("checker.stream.online", || online_lap(p))
        {
            check_run(ctx, "online", &run, input.key);
            ctx.verdict(conflicts == 0 && stats.drained == stats.recorded, || {
                format!("online: {conflicts} conflicts judged, {stats:?}")
            });
            samples.push("online", secs);
            ctx.push_verdict(samples, secs);
            last_stream = Some(stats);
        }
        if ctx.cfg.traced {
            // Record-then-replay's recording half: the same run into
            // an `EventLog`, for the `checker.sink` rows.
            let logged = ctx.timed("checker.sink.logged", || {
                let log = Arc::new(EventLog::new());
                let run = stunnel::run_with_events(p, log.clone());
                (run, log.len(), log.contended_appends())
            });
            if let Some(((run, events, contended), secs)) = logged {
                check_run(ctx, "logged", &run, input.key);
                samples.push("logged", secs);
                last_log = Some((events, contended));
            }
        }
    };
    let (input, setups) = ctx.setup(make, &mut round);
    let (samples, laps) = ctx.measure(&input, &mut round);

    let mut report = Report::default();
    let (checked, online) = (samples.median("checked"), samples.median("online"));
    if let Some(run) = last_checked {
        table1_metrics(&mut report, &samples, &run);
    }
    report.put("online_overhead", online / checked);
    report.note(
        "online_overhead",
        format!("online-judged lap {online:.6} s over checked untraced lap {checked:.6} s"),
    );
    if let Some(stats) = last_stream {
        report.put("work_per_s", stats.recorded as f64 / online);
        report.note(
            "work_per_s",
            format!(
                "events judged per second, {} per lap ({CLIENTS} clients x {} messages)",
                stats.recorded, input.params.messages
            ),
        );
        report.put("checker.stream.judge_s", online - checked);
        report.note(
            "checker.stream.judge_s",
            format!("{:.1} % of verdict_s", 100.0 * (online - checked) / online),
        );
        report.put(
            "checker.stream.ns_per_event",
            (online - checked) * 1e9 / stats.recorded as f64,
        );
        report.put("checker.stream.recorded", stats.recorded as f64);
        report.put("checker.stream.drains", stats.drains as f64);
        report.put("checker.stream.peak_resident", stats.peak_resident as f64);
        report.put("checker.stream.ring_budget", stats.ring_budget as f64);
    }
    if let Some((events, contended)) = last_log {
        let record_s = samples.median("logged") - checked;
        report.put("checker.sink.record_s", record_s);
        report.put("checker.sink.events", events as f64);
        report.put(
            "checker.sink.record_ns_per_event",
            record_s * 1e9 / events as f64,
        );
        report.put("checker.sink.contended_appends", contended as f64);
    }
    if ctx.cfg.traced {
        crate::direct::server_path(&mut report, ctx.nproc);
    }
    ctx.common_metrics(&mut report, &samples, laps, &setups);
    report
}
