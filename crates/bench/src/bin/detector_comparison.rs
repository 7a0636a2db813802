//! Reproduces the §6.2 comparison: SharC's per-access cost vs
//! Eraser-style lockset monitoring and vector-clock happens-before.
//!
//! "Eraser is able to analyze large real-world programs, but it
//! incurs a 10x-30x runtime overhead... [SharC's] overheads are low
//! enough that our analysis could conceivably be left enabled in
//! production systems."
//!
//! Two experiments:
//!
//! 1. **Overhead** — a memory-scan workload run (a) uninstrumented,
//!    (b) with SharC's shadow checks on every access, (c) with the
//!    online Eraser detector, (d) with the online vector-clock
//!    detector. Expected shape: SharC ≪ Eraser/VC.
//! 2. **Precision** — the ownership-transfer hand-off trace: SharC
//!    accepts it (the sharing cast models the transfer); both
//!    baselines report a false positive.
//!
//! ```text
//! cargo run -p sharc-bench --release --bin detector_comparison [-- --quick]
//! ```

use sharc_bench::{
    handoff_trace, scan_workload_baseline, scan_workload_detector, scan_workload_sharc,
    timed_replay,
};
use sharc_checker::{replay, BitmapBackend, CheckBackend};
use sharc_detectors::{Eraser, Online, VcDetector};
use sharc_interp::{compile_and_run, VmConfig};
use sharc_runtime::{Arena, Checked};
use std::sync::Arc;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = 4;
    let words = 4096;
    let passes = if quick { 20 } else { 400 };

    println!("== Overhead: {threads} threads x {words} words x {passes} passes ==\n");
    let (base, c0) = scan_workload_baseline(threads, words, passes);
    let (sharc, c1) = {
        let arena: Arc<Arena> = Arc::new(Arena::new(threads * words));
        scan_workload_sharc::<Checked>(arena, threads, words, passes)
    };
    let (eraser, c2) = {
        let d: Arc<Online<Eraser>> = Arc::new(Online::new());
        scan_workload_detector(d, threads, words, passes)
    };
    let (vc, c3) = {
        let d: Arc<Online<VcDetector>> = Arc::new(Online::new());
        scan_workload_detector(d, threads, words, passes)
    };
    assert!(c0 == c1 && c0 == c2 && c0 == c3, "checksum mismatch");
    let x = |d: std::time::Duration| d.as_secs_f64() / base.as_secs_f64();
    println!("{:<22} {:>12} {:>8}", "monitor", "time", "slowdown");
    println!("{:<22} {:>12.2?} {:>7.2}x", "none (orig)", base, 1.0);
    println!(
        "{:<22} {:>12.2?} {:>7.2}x",
        "SharC shadow checks",
        sharc,
        x(sharc)
    );
    println!(
        "{:<22} {:>12.2?} {:>7.2}x",
        "Eraser lockset",
        eraser,
        x(eraser)
    );
    println!("{:<22} {:>12.2?} {:>7.2}x", "vector clocks", vc, x(vc));
    println!("\npaper shape: Eraser-class full monitoring 10x-30x; SharC 2-14%.");

    println!("\n== Precision: ownership hand-off (producer -> consumer) ==\n");
    let trace = handoff_trace(50);
    let eraser_fp = replay(&trace, &mut Eraser::new()).len();
    let vc_fp = replay(&trace, &mut VcDetector::new()).len();

    // The same idiom under SharC, as a MiniC program with sharing
    // casts: no reports.
    let src = r#"
        struct chan { mutex m; cond cv; int *locked(m) slot; int racy rounds; };
        void consumer(struct chan * ch) {
            int private * d;
            int got;
            got = 0;
            while (got < 20) {
                mutex_lock(&ch->m);
                while (ch->slot == NULL) cond_wait(&ch->cv, &ch->m);
                d = SCAST(int private *, ch->slot);
                cond_signal(&ch->cv);
                mutex_unlock(&ch->m);
                *d = *d + 1;
                free(d);
                got = got + 1;
            }
        }
        void main() {
            struct chan * ch = new(struct chan);
            int private * buf;
            int i;
            spawn(consumer, ch);
            for (i = 0; i < 20; i++) {
                buf = new(int private);
                *buf = i;
                mutex_lock(&ch->m);
                while (ch->slot) cond_wait(&ch->cv, &ch->m);
                ch->slot = SCAST(int locked(ch->m) *, buf);
                cond_signal(&ch->cv);
                mutex_unlock(&ch->m);
            }
            join_all();
        }
    "#;
    let out = compile_and_run("handoff.c", src, VmConfig::default())
        .expect("hand-off program checks cleanly");
    println!("{:<22} {:>16}", "detector", "false positives");
    println!("{:<22} {:>16}", "SharC (sharing cast)", out.reports.len());
    println!("{:<22} {:>16}", "Eraser lockset", eraser_fp);
    println!("{:<22} {:>16}", "vector clocks", vc_fp);
    println!(
        "\npaper claim: \"our system is the first to attack the root of the\n\
         problem by modeling ownership transfer directly.\""
    );

    // ---- One *native* execution, every engine (the event spine) ----
    //
    // The §2.1 ownership-transfer workload runs once with real
    // threads, recording its CheckEvent trace; then every engine —
    // SharC's bitmap backend, Eraser, vector clocks — replays the
    // identical sequence through the CheckBackend interface.
    println!("\n== One native execution, every engine (CheckBackend replay) ==\n");
    let (nrun, trace) = sharc_workloads::benchmarks::handoff::run_traced(
        &sharc_workloads::benchmarks::handoff::Params::default(),
    );
    println!(
        "native handoff: {} threads, {} checked accesses, {} trace events, \
         {} inline conflicts\n",
        nrun.threads,
        nrun.checked,
        trace.len(),
        nrun.conflicts
    );
    let engines: Vec<(&str, Box<dyn CheckBackend>)> = vec![
        ("SharC bitmap", Box::new(BitmapBackend::new())),
        ("Eraser", Box::new(Eraser::new())),
        ("vector clocks", Box::new(VcDetector::new())),
    ];
    println!("{:<24} {:>12} {:>10}", "engine", "replay time", "conflicts");
    for (name, mut backend) in engines {
        let (d, conflicts) = timed_replay(&trace, backend.as_mut());
        println!("{name:<24} {d:>12.2?} {:>10}", conflicts.len());
    }
    println!(
        "\nexpected shape: SharC engines silent (the cast transfers ownership);\n\
         lockset engines false-positive; happens-before engines accept only\n\
         because the queue lock orders the hand-off."
    );
}
