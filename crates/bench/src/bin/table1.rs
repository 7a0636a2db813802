//! Regenerates the paper's **Table 1**: the six benchmarks with
//! thread counts, MiniC port sizes, annotation counts, sharing-cast
//! counts, time overhead (orig vs SharC), memory overhead, and the
//! fraction of dynamic-mode accesses.
//!
//! ```text
//! cargo run -p sharc-bench --release --bin table1 [-- --quick] [--reps N] [--json]
//! ```
//!
//! `--smoke` is an alias of `--quick` for CI pipelines. JSON output
//! is emitted with the sharc-testkit hand-rolled serializer (no
//! serde).
//!
//! The paper averaged 50 runs on a 2 GHz dual-core Xeon; pass
//! `--reps 50` for the same protocol. Shapes to compare against the
//! paper: overhead 2–14% (avg 9.2%) with aget unmeasurable (network
//! bound); memory overhead dominated by dillo's bogus-pointer
//! reference counting; %dynamic highest for pfscan (80%), near zero
//! for pbzip2/fftw/stunnel.

use sharc_testkit::Json;
use sharc_workloads::table::{render_table, run_all, Scale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "--smoke");
    let json = args.iter().any(|a| a == "--json");
    let reps = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);

    let scale = if quick {
        Scale::quick()
    } else {
        Scale::full(reps)
    };
    let results = run_all(scale);

    if json {
        let rows: Vec<Json> = results
            .iter()
            .map(|r| {
                Json::obj([
                    ("name", Json::Str(r.name.to_string())),
                    ("threads", Json::Int(r.threads as i64)),
                    ("lines", Json::Int(r.lines as i64)),
                    ("annotations", Json::Int(r.annotations as i64)),
                    ("changes", Json::Int(r.changes as i64)),
                    ("time_orig_us", Json::Int(r.time_orig.as_micros() as i64)),
                    ("time_sharc_us", Json::Int(r.time_sharc.as_micros() as i64)),
                    ("time_overhead_pct", Json::Float(r.time_overhead_pct())),
                    ("mem_overhead_pct", Json::Float(r.mem_overhead_pct)),
                    ("dynamic_pct", Json::Float(r.dynamic_fraction * 100.0)),
                    ("conflicts", Json::Int(r.conflicts as i64)),
                    ("checksum_match", Json::Bool(r.checksum_match)),
                ])
            })
            .collect();
        print!("{}", Json::Arr(rows).render());
        return;
    }

    println!("SharC reproduction — Table 1 ({} reps per cell)\n", reps);
    println!("{}", render_table(&results));
    println!("Paper reference rows (for shape comparison):");
    println!("  pfscan : 3 thr, 12% time, 0.8% mem, 80.0% dynamic");
    println!("  aget   : 3 thr, n/a (network bound), 30.8% mem, 8.7% dynamic");
    println!("  pbzip2 : 5 thr, 11% time, 1.6% mem, ~0.0% dynamic");
    println!("  dillo  : 4 thr, 14% time, 78.8% mem, 31.7% dynamic");
    println!("  fftw   : 3 thr,  7% time, 1.2% mem, 0.2% dynamic");
    println!("  stunnel: 3 thr,  2% time, 43.5% mem, ~0.0% dynamic");
    let total_annots: usize = results.iter().map(|r| r.annotations).sum();
    let total_changes: usize = results.iter().map(|r| r.changes).sum();
    println!(
        "\nTotals: {total_annots} annotations, {total_changes} sharing casts \
         (paper: 60 annotations, 122 other changes over 600k lines)"
    );
}
