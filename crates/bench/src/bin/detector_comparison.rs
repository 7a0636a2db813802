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
//!    (b) with SharC's shadow checks on every access, (c) with every
//!    access streamed to Eraser, (d) with every access streamed to the
//!    vector-clock detector. (c) and (d) record into a `StreamingSink`,
//!    as `sharc native --detector …` does, and the timed region
//!    includes the final drain. Expected shape: SharC ≪
//!    Eraser/VC.
//! 2. **Precision** — the ownership-transfer hand-off trace: SharC
//!    accepts it (the sharing cast models the transfer); both
//!    baselines report a false positive.
//!
//! ```text
//! cargo run -p sharc-bench --release --bin detector_comparison [-- --quick]
//! ```

use sharc_checker::{
    replay, BitmapBackend, CheckBackend, CheckEvent, Conflict, EventLog, EventSink, StreamStats,
    StreamingSink,
};
use sharc_detectors::{Eraser, VcDetector};
use sharc_interp::{compile_and_run, VmConfig};
use sharc_runtime::{AccessPolicy, Arena, Checked, ThreadCtx, ThreadId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events per ring buffer: `sharc native`'s default.
const RING_CAP: usize = 4096;

/// The memory-scan workload: `threads` workers sum disjoint regions of
/// shared memory, every access checked by SharC's shadow under policy
/// `P`. Returns (elapsed, sum-checksum).
fn scan_workload_sharc<P: AccessPolicy>(
    arena: Arc<Arena>,
    threads: usize,
    words_per_thread: usize,
    passes: usize,
) -> (Duration, u64) {
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        let arena = Arc::clone(&arena);
        handles.push(std::thread::spawn(move || {
            let mut ctx = ThreadCtx::new(ThreadId(t as u32 + 1));
            let base = t * words_per_thread;
            let mut sum = 0u64;
            for _ in 0..passes {
                for i in 0..words_per_thread {
                    P::write(&arena, &mut ctx, base + i, (i as u64) ^ sum);
                    sum = sum.wrapping_add(P::read(&arena, &mut ctx, base + i));
                }
            }
            arena.thread_exit(&mut ctx);
            sum
        }));
    }
    let mut checksum = 0u64;
    for h in handles {
        checksum = checksum.wrapping_add(h.join().expect("worker"));
    }
    (start.elapsed(), checksum)
}

/// The same scan with *every* access streamed to `backend` (how
/// Eraser-class tools work), through one ring per thread. Returns
/// (elapsed including the final drain, sum-checksum, conflicts, ring
/// counters).
fn scan_workload_streamed(
    backend: Box<dyn CheckBackend + Send>,
    threads: usize,
    words_per_thread: usize,
    passes: usize,
) -> (Duration, u64, Vec<Conflict>, StreamStats) {
    let start = Instant::now();
    // Tids are 1-based: ring `tid` for each worker.
    let sink = Arc::new(StreamingSink::new(threads + 1, RING_CAP, backend));
    let mut handles = Vec::new();
    for t in 0..threads {
        let sink = Arc::clone(&sink);
        handles.push(std::thread::spawn(move || {
            let tid = t as u32 + 1;
            let base = t * words_per_thread;
            let mut mem = vec![0u64; words_per_thread];
            let mut sum = 0u64;
            for _ in 0..passes {
                for (i, cell) in mem.iter_mut().enumerate() {
                    let granule = base + i;
                    sink.record(CheckEvent::Write { tid, granule });
                    *cell = (i as u64) ^ sum;
                    sink.record(CheckEvent::Read { tid, granule });
                    sum = sum.wrapping_add(*cell);
                }
            }
            sum
        }));
    }
    let mut checksum = 0u64;
    for h in handles {
        checksum = checksum.wrapping_add(h.join().expect("worker"));
    }
    let (conflicts, stats) = sink.finish();
    (start.elapsed(), checksum, conflicts, stats)
}

/// Uninstrumented baseline of the same scan.
fn scan_workload_baseline(
    threads: usize,
    words_per_thread: usize,
    passes: usize,
) -> (Duration, u64) {
    let start = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..threads {
        handles.push(std::thread::spawn(move || {
            let mut mem = vec![0u64; words_per_thread];
            let mut sum = 0u64;
            for _ in 0..passes {
                for (i, cell) in mem.iter_mut().enumerate() {
                    *cell = (i as u64) ^ sum;
                    sum = sum.wrapping_add(std::hint::black_box(*cell));
                }
            }
            sum
        }));
    }
    let mut checksum = 0u64;
    for h in handles {
        checksum = checksum.wrapping_add(h.join().expect("worker"));
    }
    (start.elapsed(), checksum)
}

/// An ownership-transfer trace (producer/consumer via two locks):
/// legal under SharC's sharing casts, a false positive for the
/// baselines.
fn handoff_trace(rounds: usize) -> Vec<CheckEvent> {
    use CheckEvent::{Acquire, Fork, Release, Write};
    let mut t = vec![Fork {
        parent: 1,
        child: 2,
    }];
    for r in 0..rounds {
        let granule = r % 8;
        t.push(Acquire { tid: 1, lock: 1 });
        t.push(Write { tid: 1, granule });
        t.push(Release { tid: 1, lock: 1 });
        t.push(Acquire { tid: 2, lock: 2 });
        t.push(Write { tid: 2, granule });
        t.push(Release { tid: 2, lock: 2 });
    }
    t
}

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
    let (eraser, c2, ..) = scan_workload_streamed(Box::new(Eraser::new()), threads, words, passes);
    let (vc, c3, ..) = scan_workload_streamed(Box::new(VcDetector::new()), threads, words, passes);
    assert!(c0 == c1 && c0 == c2 && c0 == c3, "checksum mismatch");
    let x = |d: Duration| d.as_secs_f64() / base.as_secs_f64();
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
    let params = sharc_workloads::benchmarks::handoff::Params::default();
    let (nrun, trace) = EventLog::capture(|sink| {
        sharc_workloads::benchmarks::handoff::run_with_events(&params, sink)
    });
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
        let start = Instant::now();
        let conflicts = replay(&trace, backend.as_mut());
        let d = start.elapsed();
        println!("{name:<24} {d:>12.2?} {:>10}", conflicts.len());
    }
    println!(
        "\nexpected shape: SharC engines silent (the cast transfers ownership);\n\
         lockset engines false-positive; happens-before engines accept only\n\
         because the queue lock orders the hand-off."
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharc_runtime::Unchecked;

    #[test]
    fn scan_checksums_agree() {
        let a1: Arc<Arena> = Arc::new(Arena::new(64));
        let a2: Arc<Arena> = Arc::new(Arena::new(64));
        let (_, c1) = scan_workload_sharc::<Unchecked>(a1, 2, 32, 3);
        let (_, c2) = scan_workload_sharc::<Checked>(a2, 2, 32, 3);
        let (_, c3) = scan_workload_baseline(2, 32, 3);
        assert_eq!(c1, c2);
        assert_eq!(c1, c3);
        // Every streamed access reaches the backend, and disjoint
        // regions are clean under both baselines.
        let backends: [Box<dyn CheckBackend + Send>; 2] =
            [Box::new(Eraser::new()), Box::new(VcDetector::new())];
        for backend in backends {
            let (_, c, conflicts, stats) = scan_workload_streamed(backend, 2, 32, 3);
            assert_eq!(c, c3);
            assert!(conflicts.is_empty(), "{conflicts:?}");
            assert_eq!(stats.recorded, 2 * 32 * 3 * 2);
            assert_eq!(stats.drained, stats.recorded);
        }
    }

    #[test]
    fn handoff_trace_is_false_positive_for_baselines() {
        let trace = handoff_trace(10);
        assert!(!replay(&trace, &mut Eraser::new()).is_empty());
        assert!(!replay(&trace, &mut VcDetector::new()).is_empty());
    }
}
