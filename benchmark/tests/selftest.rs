//! The benchmark's self-test: the `--smoke` set, run through the real
//! binary, against the contract in `BENCHMARK.json`.

use sharc_benchmark::report::{MetricDef, END_TO_END, PER_LAYER};
use sharc_benchmark::WORKLOADS;
use sharc_testkit::json::{self, Json};
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

/// One smoke run's result line: metric name → (value, unit).
fn smoke(workload: &str, trace: &str) -> BTreeMap<String, (f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_sharc-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("start the benchmark binary");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {:?}:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let doc = json::parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"));
    let Json::Obj(top) = &doc else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        doc.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {last}"
    );
    assert_eq!(doc.get("failed"), Some(&Json::Int(0)), "{workload}");
    assert!(
        matches!(doc.get("attempted"), Some(Json::Int(n)) if *n >= 1),
        "{workload}: verdicts_checked must be printed and non-zero"
    );
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = match m.get("value") {
                Some(Json::Int(i)) => *i as f64,
                Some(Json::Float(f)) => *f,
                other => panic!("{workload}: {name} has value {other:?}"),
            };
            let Some(Json::Str(unit)) = m.get("unit") else {
                panic!("{workload}: {name} has no unit")
            };
            (name.clone(), (value, unit.clone()))
        })
        .collect()
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(sharc_benchmark::benchmark_json()).expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    let Some(Json::Arr(list)) = doc.get(key) else {
        panic!("BENCHMARK.json has no `{key}` list")
    };
    list.iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("a `{key}` metric lacks name or unit"),
        })
        .collect()
}

#[test]
fn code_and_benchmark_json_declare_the_same_metrics() {
    let emitted = |defs: &[MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), emitted(END_TO_END));
    assert_eq!(declared("per_layer"), emitted(PER_LAYER));
    assert!(
        declared("end_to_end").contains(&("setup_s".to_string(), "s".to_string())),
        "the contract requires setup_s in seconds"
    );
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics_and_exact_ones_repeat() {
    let started = Instant::now();
    for workload in WORKLOADS.iter().map(|w| w.name) {
        for (trace, defs) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let first = smoke(workload, trace);
            let second = smoke(workload, trace);
            let printed: Vec<&str> = first.keys().map(String::as_str).collect();
            let mut declared: Vec<&str> = defs.iter().map(|d| d.name).collect();
            declared.sort_unstable();
            assert_eq!(
                printed, declared,
                "{workload} --trace {trace}: no extra, none missing"
            );
            for d in defs {
                let (value, unit) = &first[d.name];
                assert_eq!(unit, d.unit, "{workload}: unit of {}", d.name);
                assert!(
                    d.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "metric name {}",
                    d.name
                );
                if d.exact {
                    assert_eq!(
                        *value, second[d.name].0,
                        "{workload}: exact metric {} differs between two smoke runs",
                        d.name
                    );
                }
            }
            if trace == "0" {
                for d in END_TO_END {
                    assert!(first[d.name].0 > 0.0, "{workload}: {} is never 0", d.name);
                }
            }
        }
    }
    // Four smoke passes over the set ran above; one must fit in 15 s.
    let per_set = started.elapsed().as_secs_f64() / 4.0;
    assert!(per_set < 15.0, "one smoke set took {per_set:.1} s");
}

#[test]
fn gitignore_keeps_run_time_files_out_of_the_tree() {
    let ignore = include_str!("../.gitignore");
    for dir in ["out/", "target/"] {
        assert!(
            ignore.lines().any(|l| l.trim() == dir),
            "benchmark/.gitignore must list {dir}"
        );
    }
}
