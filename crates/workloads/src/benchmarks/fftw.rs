//! **fftw** — the FFT benchmark (Table 1 row 5).
//!
//! "The fftw benchmark performs 32 random FFTs... computes by
//! dividing arrays among a fixed number of worker threads. Ownership
//! of arrays is transferred to each thread, and then reclaimed when
//! the threads are finished. The functions that compute over the
//! partial arrays assume that they own that memory, so it was only
//! necessary to annotate those arguments as private."
//!
//! Paper row: 3 threads, 197k lines, 7 annotations, 39 changes, 7%
//! time, 1.2% memory, 0.2% dynamic accesses. The kernel runs on
//! privately-owned arrays (unchecked); SharC's cost is the per-array
//! ownership transfer (RC barrier + `oneref` cast) and a few checked
//! coordination words.

use crate::substrates::fft::{fft, random_signal};
use crate::table::{run_benchmark, BenchResult, NativeRun, Scale};
use sharc_checker::EventSink;
use sharc_runtime::{
    sharing_cast, AccessPolicy, Arena, Checked, LpRc, ObjId, RcScheme, ThreadCtx, ThreadId,
    Unchecked, GRANULE_WORDS,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub n_transforms: usize,
    pub size: usize,
    pub workers: usize,
}

impl Params {
    /// The paper's batch shape at the given scale.
    pub fn scaled(scale: Scale) -> Self {
        Params {
            // The paper runs 32 random FFTs.
            n_transforms: 32,
            size: if scale.quick { 512 } else { 4096 },
            workers: 2,
        }
    }
}

/// Runs the batch of transforms with access policy `P`.
pub fn run_native<P: AccessPolicy>(params: &Params) -> NativeRun {
    run::<P>(params, ThreadCtx::new(ThreadId(1)))
}

/// Runs the batch checked, recording into any [`EventSink`]: a
/// log to replay, or a streaming sink judging online.
pub fn run_with_events(params: &Params, sink: Arc<dyn EventSink>) -> NativeRun {
    run::<Checked>(params, ThreadCtx::with_sink(ThreadId(1), sink))
}

/// The batch, with `main` (tid 1) as the main thread's context.
///
/// Each transform's ownership transfer runs through a shadowed arena:
/// one granule per transform holds its descriptor (the signal seed)
/// and its result slot. Main fills every descriptor, *sharing-casts*
/// the batch to the workers, and the worker that claims a transform
/// writes its result back into the same granule — the array hand-off
/// of the paper's fftw, made visible to every detector. Under
/// [`Checked`], each hand-off also performs the RC store + `oneref`
/// cast of the array pointer that SharC instruments.
fn run<P: AccessPolicy>(params: &Params, mut main: ThreadCtx) -> NativeRun {
    let checked = P::NAME == Checked::NAME;
    let n = params.n_transforms;
    // One RC slot per transform (the pointer cell its ownership
    // moves through), plus one per reclaim direction.
    let rc = LpRc::new(2 * n, n, params.workers + 1);
    let scast_failures = AtomicU64::new(0);
    let arena: Arena = Arena::new(n * GRANULE_WORDS);
    let per_worker = n.div_ceil(params.workers);

    // Main hands out ownership of each array before the workers start
    // (the arrays exist before the threads are spawned): fill every
    // descriptor, then hand the whole batch off as ONE ranged cast,
    // publishing each array pointer with the RC write barrier.
    for idx in 0..n {
        P::write(&arena, &mut main, idx * GRANULE_WORDS, idx as u64);
    }
    P::cast_range(&arena, &main, 0, n * GRANULE_WORDS);
    if checked {
        for idx in 0..n {
            rc.store(0, 2 * idx, Some(ObjId(idx as u32)));
        }
    }

    let mut checked_accesses = 0u64;
    let mut conflicts = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..params.workers)
            .map(|w| {
                let mut ctx = main.fork(ThreadId(w as u32 + 2));
                let (arena, rc, scast_failures) = (&arena, &rc, &scast_failures);
                scope.spawn(move || {
                    let mutator = w + 1;
                    for idx in w * per_worker..((w + 1) * per_worker).min(n) {
                        // Take ownership: SCAST the array to private.
                        if checked && sharing_cast(rc, mutator, 2 * idx).is_err() {
                            scast_failures.fetch_add(1, Ordering::Relaxed);
                        }
                        // The batch cast cleared the descriptor's
                        // granule, so this read claims it.
                        let seed = P::read(arena, &mut ctx, idx * GRANULE_WORDS);
                        // The transform runs on privately-owned
                        // memory: unchecked in both builds.
                        let mut work = random_signal(params.size, seed);
                        fft(&mut work);
                        let local: u64 = work
                            .iter()
                            .map(|c| (c.abs() * 1e6) as u64)
                            .fold(0, u64::wrapping_add);
                        // Reclaim: publish the result back into the
                        // granule and the array back into its slot.
                        P::write(arena, &mut ctx, idx * GRANULE_WORDS + 1, local);
                        if checked {
                            rc.store(mutator, 2 * idx + 1, Some(ObjId(idx as u32)));
                        }
                    }
                    let record = (ctx.checked_accesses, ctx.conflicts);
                    arena.thread_exit(&mut ctx);
                    record
                })
            })
            .collect();
        for (w, h) in handles.into_iter().enumerate() {
            let (c, cf) = h.join().expect("worker panicked");
            main.join(ThreadId(w as u32 + 2));
            checked_accesses += c;
            conflicts += cf;
        }
    });

    // Main reclaims the arrays (casts them back to private) and
    // collects the results with one ranged sweep (the workers' exits
    // ended their claims).
    if checked {
        for idx in 0..n {
            if rc.read_slot(2 * idx + 1).is_some() && sharing_cast(&rc, 0, 2 * idx + 1).is_err() {
                scast_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let mut checksum = 0u64;
    P::read_range(&arena, &mut main, 0, n * GRANULE_WORDS, &mut |i, v| {
        if i % GRANULE_WORDS == 1 {
            checksum = checksum.wrapping_add(v);
        }
    });
    checked_accesses += main.checked_accesses;
    conflicts += main.conflicts;
    arena.thread_exit(&mut main);

    NativeRun {
        checksum,
        // Only the hand-off words are dynamic (paper: 0.2%).
        checked: checked_accesses,
        // The transforms' accesses, all on private arrays.
        total: (n * params.size * 4) as u64,
        conflicts: conflicts + scast_failures.into_inner() as usize,
        payload_bytes: n * params.size * 16,
        shadow_bytes: arena.shadow_bytes(),
        threads: params.workers + 1,
    }
}

/// The MiniC port: arrays transferred to workers by sharing casts,
/// computed on privately, and reclaimed.
pub fn minic_source() -> &'static str {
    r#"
// fftw.c — array-partitioned transform (MiniC port).
struct work {
    mutex m;
    cond cv;
    int *locked(m) slot;
    int racy served;
    int racy quota;
};

mutex summ;
int locked(summ) total_energy;

void transform(int private * data) {
    // An in-place butterfly-flavoured pass over the private array.
    int i;
    int a;
    int b;
    for (i = 0; i < 32; i = i + 2) {
        a = data[i];
        b = data[i + 1];
        data[i] = a + b;
        data[i + 1] = a - b;
    }
}

void worker(struct work * w) {
    int private * arr;
    int i;
    int energy;
    int got;
    got = 0;
    while (1) {
        mutex_lock(&w->m);
        while (w->slot == NULL) {
            if (w->served >= w->quota) {
                mutex_unlock(&w->m);
                return;
            }
            cond_wait(&w->cv, &w->m);
        }
        arr = SCAST(int private *, w->slot);
        w->served = w->served + 1;
        cond_signal(&w->cv);
        mutex_unlock(&w->m);
        transform(arr);
        energy = 0;
        for (i = 0; i < 32; i++) {
            energy = energy + arr[i] * arr[i];
        }
        free(arr);
        mutex_lock(&summ);
        total_energy = total_energy + energy;
        mutex_unlock(&summ);
        got = got + 1;
    }
}

void main() {
    struct work * w = new(struct work);
    int private * arr;
    int n;
    int i;
    int t1;
    int t2;
    w->quota = 8;
    t1 = spawn(worker, w);
    t2 = spawn(worker, w);
    for (n = 0; n < 8; n++) {
        arr = newarray(int private, 32);
        for (i = 0; i < 32; i++) {
            arr[i] = random(100);
        }
        mutex_lock(&w->m);
        while (w->slot)
            cond_wait(&w->cv, &w->m);
        w->slot = SCAST(int locked(w->m) *, arr);
        cond_signal(&w->cv);
        mutex_unlock(&w->m);
    }
    join(t1);
    join(t2);
    mutex_lock(&summ);
    print(total_energy);
    mutex_unlock(&summ);
}
"#
}

/// Full benchmark.
pub fn bench(scale: Scale) -> BenchResult {
    let params = Params::scaled(scale);
    run_benchmark("fftw", minic_source(), scale.reps, |checked| {
        if checked {
            run_native::<Checked>(&params)
        } else {
            run_native::<Unchecked>(&params)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharc_checker::{replay, BitmapBackend, EventLog};
    use sharc_detectors::{Eraser, VcDetector};

    #[test]
    fn traced_run_splits_sharc_from_eraser() {
        // One recorded execution, two verdicts (§6.2): main writes
        // each descriptor, casts the granule away, and a worker
        // writes its result back with no lock ever held. SharC and
        // the happens-before detector accept; Eraser's lockset for
        // every descriptor granule is empty at the worker's write.
        let params = Params::scaled(Scale::quick());
        let (run, trace) = EventLog::capture(|s| run_with_events(&params, s));
        assert_eq!(run.checksum, run_native::<Checked>(&params).checksum);
        assert_eq!(run.conflicts, 0);
        let sharc = replay(&trace, &mut BitmapBackend::new());
        assert!(sharc.is_empty(), "SharC models the transfers: {sharc:?}");
        let vc = replay(&trace, &mut VcDetector::new());
        assert!(vc.is_empty(), "HB sees the fork/join edges: {vc:?}");
        let eraser = replay(&trace, &mut Eraser::new());
        assert!(!eraser.is_empty(), "Eraser misses the ownership transfer");
    }

    #[test]
    fn the_checked_build_is_the_recorded_program() {
        // One program: Table 1 times exactly what the detectors judge,
        // so recording changes nothing the checked build reports.
        let params = Params::scaled(Scale::quick());
        let (traced, _) = EventLog::capture(|s| run_with_events(&params, s));
        assert_eq!(run_native::<Checked>(&params), traced);
    }

    #[test]
    fn both_builds_compute_identical_transforms() {
        let params = Params::scaled(Scale::quick());
        let a = run_native::<Unchecked>(&params);
        let b = run_native::<Checked>(&params);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(b.conflicts, 0, "all ownership transfers are unique");
    }

    #[test]
    fn dynamic_fraction_is_tiny() {
        let params = Params::scaled(Scale::quick());
        let r = run_native::<Checked>(&params);
        assert!(
            (r.checked as f64 / r.total as f64) < 0.01,
            "paper reports 0.2% dynamic for fftw"
        );
    }

    #[test]
    fn minic_version_compiles_clean() {
        let (lines, annots, casts) = crate::table::minic_columns("fftw.c", minic_source());
        assert!(lines > 50);
        assert!(annots >= 5, "got {annots}");
        assert_eq!(casts, 2);
    }
}
