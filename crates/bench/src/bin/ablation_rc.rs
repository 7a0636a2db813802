//! Ablation for §4.3: the cost of maintaining reference counts.
//!
//! "Applying [eager reference counting] directly in SharC implies
//! atomically updating reference counts for all pointer writes. The
//! resulting overhead is unacceptable on current hardware... even
//! with [the which-locations-need-RC] optimization, the runtime
//! overhead is still too high (over 60% in many cases). To reduce
//! this overhead, we adapted Levanoni and Petrank's high performance
//! concurrent reference counting algorithm."
//!
//! Two views:
//!
//! 1. **Wall time** over a pointer-update-heavy workload. Note: the
//!    contention that makes naive counting catastrophic requires
//!    multiple physical cores; on a single-CPU host both schemes
//!    degenerate to instruction counts and look similar.
//! 2. **Operation mix** — hardware-independent. Naive counting does
//!    two read-modify-writes on *shared* count cache lines per store
//!    (cross-core traffic on a real machine). The adapted algorithm's
//!    per-store work is mutator-local; shared-line work happens only
//!    on first-update-per-epoch log entries and at collections, both
//!    of which this harness counts.
//!
//! ```text
//! cargo run -p sharc-bench --release --bin ablation_rc [-- --quick]
//! ```

use sharc_runtime::{LpRc, NaiveRc, ObjId, RcScheme};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A pointer-update-heavy workload: `threads` workers each perform
/// `stores` slot updates over a private slot range but a shared object
/// set (count contention), plus one `refcount` query per `casts_every`
/// stores (the scast pattern).
fn rc_workload<R: RcScheme + 'static>(
    rc: Arc<R>,
    threads: usize,
    stores: usize,
    slots_per_thread: usize,
    n_objs: usize,
    casts_every: usize,
) -> Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let rc = Arc::clone(&rc);
            scope.spawn(move || {
                let base = t * slots_per_thread;
                for i in 0..stores {
                    let slot = base + (i * 7 + 3) % slots_per_thread;
                    let obj = ObjId(((i * 13 + t * 31) % n_objs) as u32);
                    rc.store(t, slot, Some(obj));
                    if casts_every > 0 && i % casts_every == casts_every - 1 {
                        let _ = rc.refcount(obj);
                    }
                }
            });
        }
    });
    start.elapsed()
}

fn baseline(threads: usize, stores: usize, slots_per_thread: usize) -> Duration {
    // The same loop with plain (non-barrier) stores.
    let slots: Arc<Vec<std::sync::atomic::AtomicU64>> = Arc::new(
        (0..threads * slots_per_thread)
            .map(|_| std::sync::atomic::AtomicU64::new(0))
            .collect(),
    );
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let slots = Arc::clone(&slots);
            scope.spawn(move || {
                let base = t * slots_per_thread;
                for i in 0..stores {
                    let slot = base + (i * 7 + 3) % slots_per_thread;
                    slots[slot].store(
                        (i * 13 + t * 31) as u64,
                        std::sync::atomic::Ordering::Release,
                    );
                }
            });
        }
    });
    start.elapsed()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let stores = if quick { 50_000 } else { 1_000_000 };
    let slots_per_thread = 1024;
    // Few hot objects: the shared-queue pattern SharC instruments.
    let n_objs = 8;
    let casts_every = 10_000;

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "RC ablation: {stores} pointer stores/thread over {n_objs} hot objects, \
         oneref query every {casts_every} (host has {cores} CPU(s))\n"
    );

    println!("-- wall time --");
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "threads", "baseline", "naive", "lp", "naive +%", "lp +%"
    );
    for threads in [1usize, 2, 4, 8] {
        let base = baseline(threads, stores, slots_per_thread);
        let naive = {
            let rc = Arc::new(NaiveRc::new(threads * slots_per_thread, n_objs));
            rc_workload(rc, threads, stores, slots_per_thread, n_objs, casts_every)
        };
        let lp_rc = Arc::new(LpRc::new(threads * slots_per_thread, n_objs, threads));
        let lp = rc_workload(
            Arc::clone(&lp_rc),
            threads,
            stores,
            slots_per_thread,
            n_objs,
            casts_every,
        );
        let pct = |d: Duration| (d.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0;
        println!(
            "{:<8} {:>12.2?} {:>12.2?} {:>12.2?} {:>+9.0}% {:>+9.0}%",
            threads,
            base,
            naive,
            lp,
            pct(naive),
            pct(lp)
        );
    }

    println!("\n-- operation mix (hardware-independent) --");
    println!(
        "{:<8} {:>22} {:>22} {:>12}",
        "threads", "naive shared RMWs", "lp shared-line work", "lp collects"
    );
    for threads in [1usize, 2, 4, 8] {
        let total_stores = (threads * stores) as u64;
        let lp_rc = Arc::new(LpRc::new(threads * slots_per_thread, n_objs, threads));
        let _ = rc_workload(
            Arc::clone(&lp_rc),
            threads,
            stores,
            slots_per_thread,
            n_objs,
            casts_every,
        );
        let stats = lp_rc.stats();
        println!(
            "{:<8} {:>14} (2.00/st) {:>12} ({:.4}/st) {:>12}",
            threads,
            2 * total_stores,
            stats.logged_entries,
            stats.logged_entries as f64 / total_stores as f64,
            stats.collects
        );
    }
    println!(
        "\nShape: naive counting pays two shared-cache-line RMWs on every\n\
         pointer store (the >60% the paper measured on multicore hardware);\n\
         the adapted Levanoni-Petrank scheme logs a slot only on its first\n\
         update per epoch — orders of magnitude fewer shared-line touches —\n\
         which is what makes leaving reference counting enabled affordable."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_workload_runs_both_schemes() {
        let naive = Arc::new(NaiveRc::new(64, 16));
        let lp = Arc::new(LpRc::new(64, 16, 2));
        let d1 = rc_workload(naive, 2, 500, 32, 16, 50);
        let d2 = rc_workload(lp, 2, 500, 32, 16, 50);
        assert!(d1 > Duration::ZERO && d2 > Duration::ZERO);
    }
}
