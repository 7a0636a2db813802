//! The metric vocabulary and the two renderings of a run: the
//! human-readable record (every metric by name, with its unit, under
//! a host stamp) and the one-line JSON result the driver reads.
//!
//! The names and units here are the ones `BENCHMARK.json` declares;
//! `tests/selftest.rs` holds the two lists against each other.

use crate::host::HostStamp;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Repeats exactly for one seed and one lap count: a count, a
    /// size, or a ratio of two such. Timings and counts that depend
    /// on thread scheduling (drains, contended appends) are not.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: true,
    }
}

/// The metrics a user of the system sees, reported on every workload
/// by the untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    timed("setup_s", "s"),
    timed("verdict_s", "s"),
    timed("verdict_p75_s", "s"),
    timed("work_per_s", "1/s"),
    timed("check_overhead", "ratio"),
    timed("peak_rss_mb", "MB"),
];

/// Everything beneath: the end-to-end metrics that exist on some
/// workloads only (first block), then one block per layer. Reported
/// by the traced run (`--trace 1`); a metric that is not taken on the
/// running workload reads 0 in the JSON line and is left out of the
/// printed record.
pub const PER_LAYER: &[MetricDef] = &[
    // End-to-end, workload-specific (see README, "Metrics").
    timed("online_overhead", "ratio"),
    exact("mem_overhead", "ratio"),
    timed("verdict_par_s", "s"),
    exact("trace_bytes_per_event", "bytes"),
    timed("check_s", "s"),
    exact("wrong_verdicts", "count"),
    exact("verdicts_checked", "count"),
    exact("laps", "count"),
    // workloads
    timed("workloads.unchecked_s", "s"),
    // runtime
    timed("runtime.check_s", "s"),
    exact("runtime.checked_accesses", "count"),
    exact("runtime.dynamic_fraction", "ratio"),
    timed("runtime.arena.read_range_ns_per_word", "ns"),
    timed("runtime.arena.write_ns_per_word", "ns"),
    timed("runtime.arena.unchecked_write_ns_per_word", "ns"),
    timed("runtime.arena.thread_exit_ns_per_granule", "ns"),
    timed("runtime.shadow.write_ns", "ns"),
    timed("runtime.shadow.write_cached_ns", "ns"),
    timed("runtime.shadow.read_cached_ns", "ns"),
    timed("runtime.shadow.shared_read_ns", "ns"),
    timed("runtime.shadow.range_read_ns_per_granule", "ns"),
    timed("runtime.shadow.clear_range_ns_per_granule", "ns"),
    timed("runtime.sharded.write_ns", "ns"),
    timed("runtime.sharded.write_cached_ns", "ns"),
    timed("runtime.locks.acquire_release_ns", "ns"),
    timed("runtime.scast.cast_ns", "ns"),
    // checker.sink
    timed("checker.sink.record_s", "s"),
    exact("checker.sink.events", "count"),
    timed("checker.sink.record_ns_per_event", "ns"),
    timed("checker.sink.contended_appends", "count"),
    // checker.stream
    timed("checker.stream.judge_s", "s"),
    timed("checker.stream.ns_per_event", "ns"),
    exact("checker.stream.recorded", "count"),
    timed("checker.stream.drains", "count"),
    timed("checker.stream.peak_resident", "count"),
    exact("checker.stream.ring_budget", "count"),
    timed("checker.stream.record_events_per_s.t1", "1/s"),
    timed("checker.stream.record_events_per_s.t2", "1/s"),
    // checker.btrace / checker.trace
    timed("checker.io.read_s", "s"),
    timed("checker.btrace.decode_s", "s"),
    timed("checker.btrace.decode_events_per_s", "1/s"),
    timed("checker.btrace.encode_s", "s"),
    exact("checker.btrace.bytes", "bytes"),
    timed("checker.trace.decode_s", "s"),
    timed("checker.trace.encode_s", "s"),
    exact("checker.trace.bytes", "bytes"),
    // checker.backend
    timed("checker.backend.replay_s", "s"),
    timed("checker.backend.ns_per_event", "ns"),
    exact("checker.geometry.shards", "count"),
    // checker.parallel
    timed("checker.parallel.replay_s", "s"),
    timed("checker.parallel.speedup", "ratio"),
    // detectors
    timed("detectors.eraser.replay_s", "s"),
    timed("detectors.eraser.ns_per_event", "ns"),
    exact("detectors.eraser.conflicts", "count"),
    timed("detectors.vc.replay_s", "s"),
    timed("detectors.vc.ns_per_event", "ns"),
    exact("detectors.vc.conflicts", "count"),
    timed("detectors.eraser.slowdown_vs_sharc", "ratio"),
    timed("detectors.vc.slowdown_vs_sharc", "ratio"),
    // minic
    timed("minic.parse_s", "s"),
    timed("minic.parse_mb_per_s", "MB/s"),
    exact("minic.lines", "count"),
    exact("minic.fns", "count"),
    // core
    timed("core.elaborate_s", "s"),
    timed("core.analysis_s", "s"),
    exact("core.analysis_vars", "count"),
    timed("core.check_s", "s"),
    exact("core.check_sites", "count"),
    timed("core.elide_s", "s"),
    exact("core.elide_checked_slots", "count"),
    exact("core.elide_elided_slots", "count"),
    exact("core.elide_collapsed_reads", "count"),
    // interp
    timed("interp.compile_s", "s"),
    timed("interp.run_s", "s"),
    exact("interp.steps", "count"),
    timed("interp.steps_per_s", "1/s"),
    exact("interp.dynamic_accesses", "count"),
    exact("interp.total_accesses", "count"),
    exact("interp.cache_hit_ratio", "ratio"),
    exact("interp.range_hits", "count"),
    exact("interp.checks_elided", "count"),
    exact("interp.threads_spawned", "count"),
    // bench
    timed("bench.trace_overhead", "ratio"),
    timed("bench.phase_sum_ratio", "ratio"),
];

fn def(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared in report.rs"))
}

/// A metric's reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reading {
    Value(f64),
    /// The host cannot take this measurement (ROADMAP aim 1: never a
    /// number, never a pass). Carries the reason.
    Unmeasured(&'static str),
}

/// The metrics of one run, by declared name.
#[derive(Debug, Default, Clone)]
pub struct Report {
    readings: BTreeMap<&'static str, Reading>,
    /// Free-form context printed beside a metric (lap counts, bases
    /// of ratios, input sizes).
    notes: BTreeMap<&'static str, String>,
}

impl Report {
    /// Records `value` for the declared metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared — an undeclared metric is a
    /// bug in the benchmark, not a measurement.
    pub fn put(&mut self, name: &str, value: f64) {
        self.readings.insert(def(name).name, Reading::Value(value));
    }

    /// Marks `name` as not measurable on this host.
    pub fn unmeasured(&mut self, name: &str, why: &'static str) {
        self.readings
            .insert(def(name).name, Reading::Unmeasured(why));
    }

    /// Attaches context to `name`'s printed line.
    pub fn note(&mut self, name: &str, text: String) {
        self.notes.insert(def(name).name, text);
    }

    /// The reading for `name`, if one was taken.
    pub fn get(&self, name: &str) -> Option<Reading> {
        self.readings.get(name).copied()
    }

    /// The value of `name`; `None` if absent or unmeasured.
    pub fn value(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(Reading::Value(v)) => Some(v),
            _ => None,
        }
    }

    /// The human-readable record: a host stamp, then every metric
    /// that was taken, by name, with its unit, in declared order.
    pub fn render(&self, stamp: &HostStamp) -> String {
        let mut out = stamp.render();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let Some(r) = self.get(d.name) else { continue };
            let note = self
                .notes
                .get(d.name)
                .map_or(String::new(), |n| format!("  # {n}"));
            match r {
                Reading::Value(v) => {
                    // Exact metrics keep every digit: `--repeat` reads
                    // them back from this record and demands equality.
                    let v = if d.exact { fmt_value(v) } else { fmt_six(v) };
                    writeln!(out, "{:<44} {v:>16} {:<6}{note}", d.name, d.unit)
                }
                Reading::Unmeasured(why) => {
                    writeln!(
                        out,
                        "{:<44} {:>16} {:<6}  # {why}",
                        d.name, "unmeasured", d.unit
                    )
                }
            }
            .expect("writing to a String");
        }
        out
    }

    /// The driver's result line: exactly the keys `correct`,
    /// `attempted`, `failed`, `metrics`, and in `metrics` exactly the
    /// names of `defs`. A metric not taken on this workload reads 0.
    pub fn json_line(&self, defs: &[MetricDef], attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0,
            attempted.max(1)
        );
        for (i, d) in defs.iter().enumerate() {
            let v = self.value(d.name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                fmt_value(v),
                d.unit
            )
            .expect("writing to a String");
        }
        out.push_str("}}");
        out
    }
}

/// A number as measured, with all its digits, in JSON number syntax.
fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        "0".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Six significant digits, for the printed record.
pub(crate) fn fmt_six(v: f64) -> String {
    if v == v.trunc() || !v.is_finite() {
        return fmt_value(v);
    }
    let decimals = (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn json_line_carries_every_declared_name_and_nothing_else() {
        let mut r = Report::default();
        r.put("verdict_s", 0.125);
        r.unmeasured("check_overhead", "nproc < 2");
        let line = r.json_line(END_TO_END, 0, 0);
        let doc = sharc_testkit::json::parse(&line).expect("valid JSON");
        let sharc_testkit::Json::Obj(top) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted"), Some(&sharc_testkit::Json::Int(1)));
        let sharc_testkit::Json::Obj(metrics) = doc.get("metrics").expect("metrics") else {
            panic!("metrics is not an object")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, declared);
        assert!(line.contains("\"verdict_s\": {\"value\": 0.125, \"unit\": \"s\"}"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_a_bug() {
        Report::default().put("verdict_ms", 1.0);
    }
}
