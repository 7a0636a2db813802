//! **pbzip2** — parallel block compression (Table 1 row 3).
//!
//! "The pbzip2 benchmark has threads for file I/O, and an arbitrary
//! number of threads for (de)compressing data blocks, which the
//! file-reader thread arranges into a shared queue. The functions
//! that perform the (de)compression assume they have ownership of the
//! blocks, and so we annotate their arguments as private. One benign
//! race was found in a flag used to signal that reading from the
//! input file has finished."
//!
//! Paper row: 5 threads, 10k lines, 10 annotations, 36 changes, 11%
//! time, 1.6% memory, ~0.0% dynamic accesses. The blocks are
//! privately owned (unchecked); SharC's cost is the per-block
//! ownership transfer: a reference-counted slot update plus a
//! `oneref` sharing cast, which this workload performs with the
//! Levanoni–Petrank counter.

use crate::substrates::compress::compress_block;
use crate::substrates::net::fnv;
use crate::table::{run_benchmark, BenchResult, NativeRun, Scale};
use sharc_runtime::{
    sharing_cast, AccessPolicy, Checked, EventSink, LockId, LpRc, ObjId, RcScheme, ThreadCtx,
    ThreadId, Unchecked,
};
use sharc_testkit::sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub input_size: usize,
    pub block: usize,
    pub workers: usize,
}

impl Params {
    /// Parameters for a given benchmark scale (also used by the
    /// `sharc native` facade).
    pub fn scaled(scale: Scale) -> Self {
        Params {
            input_size: if scale.quick { 64 * 1024 } else { 512 * 1024 },
            block: 16 * 1024,
            workers: 3,
        }
    }
}

/// Symbolic shadow granules per block in the emitted trace: blocks
/// are 16 KiB, so their footprint spans many granules; the trace
/// models that with [`BLOCK_GRANULES`] granules per block, swept by
/// ONE `RangeRead`/`RangeWrite` event per (de)compression pass — the
/// bulk inner loop on the ranged path. Replay lowers each range to
/// per-granule checks, so verdicts match the per-granule spelling.
pub const BLOCK_GRANULES: usize = 4;

/// First symbolic granule of block `idx`.
#[inline]
fn block_granule(idx: usize) -> usize {
    idx * BLOCK_GRANULES
}

/// A block exchanged through the pipeline. The payload vector is the
/// privately-owned buffer; `slot` is the reference-counted cell that
/// models the pointer hand-off the paper instruments.
#[derive(Debug)]
struct Slot {
    buf: Mutex<Option<Vec<u8>>>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Self {
        Slot {
            buf: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// Publishes a block. The critical section on `lock` is recorded
    /// *while the slot mutex is held* (after the wait loop settles),
    /// so the linearized trace orders this release before the
    /// consumer's acquire — the edge a happens-before replay needs.
    fn put(&self, v: Vec<u8>, ctx: &ThreadCtx, lock: LockId) {
        let mut b = self.buf.lock();
        while b.is_some() {
            self.cv.wait(&mut b);
        }
        ctx.critical_section(lock);
        *b = Some(v);
        self.cv.notify_all();
    }
}

/// Deterministic compressible input (text-like).
pub fn make_input(size: usize) -> Vec<u8> {
    let phrase = b"the quick brown fox jumps over the lazy dog; pack my box; ";
    phrase.iter().cycle().take(size).copied().collect()
}

/// Runs the compression pipeline with access policy `P`. Under
/// [`Checked`], every block hand-off performs the SharC
/// instrumentation: an RC write barrier on the slot plus a `oneref`
/// sharing cast (the paper's `SCAST`).
pub fn run_native<P: AccessPolicy>(params: &Params) -> NativeRun {
    run::<P>(params, ThreadCtx::new(ThreadId(1)))
}

/// Runs the pipeline checked, recording into any [`EventSink`] (a
/// log to replay, or a streaming sink judging online) each
/// block's lifecycle — the reader's private fill, the `oneref` cast
/// into the hand-off slot, the worker's private (de)compression, and
/// the second cast to the writer — so this exact native execution can
/// be replayed through any [`sharc_checker::CheckBackend`] (`sharc
/// native pbzip2 --detector …`). [`BLOCK_GRANULES`] granules per
/// block, swept by one ranged event per (de)compression pass; the
/// benign racy "reading finished" flag is annotated `racy` in the
/// paper and is deliberately *not* recorded — racy-mode accesses are
/// unchecked.
pub fn run_with_events(params: &Params, sink: Arc<dyn EventSink>) -> NativeRun {
    run::<Checked>(params, ThreadCtx::with_sink(ThreadId(1), sink))
}

/// The pipeline, with `main` (tid 1) as the reader/writer thread's
/// context; workers are tids `2..2 + workers`. Lock ids: slot `w` is
/// `w`, the results vector is `workers`.
fn run<P: AccessPolicy>(params: &Params, main: ThreadCtx) -> NativeRun {
    let checked = P::NAME == Checked::NAME;
    let input = make_input(params.input_size);
    let n_blocks = input.len().div_ceil(params.block);

    // One RC slot per in-flight hand-off (reader->worker and
    // worker->writer), as the instrumented pointer cells.
    let rc = LpRc::new(2 * n_blocks.max(1), n_blocks.max(1), params.workers + 2);
    let scast_failures = AtomicU64::new(0);

    let work_slots: Vec<Slot> = (0..params.workers).map(|_| Slot::new()).collect();
    let done_flag = AtomicBool::new(false);
    let results: Mutex<Vec<(usize, Vec<u8>)>> = Mutex::new(Vec::new());

    let results_lock = LockId(params.workers);
    std::thread::scope(|scope| {
        // Worker threads: take a block, compress privately, hand off.
        for w in 0..params.workers {
            let ctx = main.fork(ThreadId(w as u32 + 2));
            let (work_slots, results, rc) = (&work_slots, &results, &rc);
            let (scast_failures, done) = (&scast_failures, &done_flag);
            scope.spawn(move || {
                let mutator = w + 1;
                loop {
                    // The benign racy "reading finished" flag —
                    // `racy`-annotated in the paper, so unchecked and
                    // unrecorded.
                    if done.load(Ordering::Relaxed) {
                        let empty = work_slots[w].buf.lock().is_none();
                        if empty {
                            break;
                        }
                    }
                    let mut guard = work_slots[w].buf.lock();
                    let taken = guard.take();
                    if taken.is_some() {
                        // Recorded while the slot mutex is held: the
                        // trace orders the reader's release of this
                        // lock before this acquire.
                        ctx.critical_section(LockId(w));
                    }
                    drop(guard);
                    let Some(block) = taken else {
                        std::thread::yield_now();
                        continue;
                    };
                    work_slots[w].cv.notify_all();
                    let (idx, data) = decode_block(block);
                    // Consume the hand-off slot: SCAST to private, one
                    // ranged cast over the whole block.
                    if checked && sharing_cast(rc, mutator, 2 * idx).is_err() {
                        scast_failures.fetch_add(1, Ordering::Relaxed);
                    }
                    let base = block_granule(idx);
                    ctx.emit_range_cast(base, BLOCK_GRANULES);
                    // The block is private again: the compression loop
                    // reads the input and writes the output in place,
                    // lock-free — the access pattern locksets judge
                    // most harshly. One ranged sweep per pass over the
                    // block's granules; unchecked in both builds
                    // (annotated private).
                    ctx.emit_range(base, BLOCK_GRANULES, false);
                    ctx.emit_range(base, BLOCK_GRANULES, true);
                    let compressed = compress_block(&data);
                    if checked {
                        rc.store(mutator, 2 * idx + 1, Some(ObjId(idx as u32)));
                    }
                    let mut r = results.lock();
                    ctx.critical_section(results_lock);
                    r.push((idx, compressed));
                }
                ctx.emit_exit();
            });
        }

        // The reader thread (here: main) splits input into blocks and
        // distributes them round-robin.
        for (idx, chunk) in input.chunks(params.block).enumerate() {
            // A fresh block, filled privately by the reader (one
            // ranged write over its whole footprint), then cast into
            // the hand-off slot with the RC write barrier.
            let base = block_granule(idx);
            main.emit_range_free(base, BLOCK_GRANULES);
            main.emit_range(base, BLOCK_GRANULES, true);
            main.emit_range_cast(base, BLOCK_GRANULES);
            if checked {
                rc.store(0, 2 * idx, Some(ObjId(idx as u32)));
            }
            let w = idx % params.workers;
            work_slots[w].put(encode_block(idx, chunk), &main, LockId(w));
        }
        done_flag.store(true, Ordering::Relaxed);
    });

    // Writer phase: collect in order, verify, and checksum. In the
    // trace this runs as tid 1 again (it *is* the main thread), after
    // the joins that scope exit performed.
    for w in 0..params.workers {
        main.join(ThreadId(w as u32 + 2));
    }
    let mut results = results.into_inner();
    results.sort_by_key(|&(i, _)| i);
    let writer_mutator = params.workers + 1;
    let mut checksum = 0u64;
    let mut compressed_total = 0usize;
    for (idx, c) in &results {
        // The worker-to-writer hand-off: the second `oneref` cast,
        // then the writer's ordered ranged read of the whole block.
        if checked && sharing_cast(&rc, writer_mutator, 2 * idx + 1).is_err() {
            scast_failures.fetch_add(1, Ordering::Relaxed);
        }
        let base = block_granule(*idx);
        main.emit_range_cast(base, BLOCK_GRANULES);
        main.emit_range(base, BLOCK_GRANULES, false);
        checksum = checksum.wrapping_add(fnv(c).wrapping_mul(*idx as u64 + 1));
        compressed_total += c.len();
    }

    NativeRun {
        checksum,
        // Dynamic-mode data is only the hand-off bookkeeping: the
        // paper reports ~0.0% dynamic accesses for pbzip2.
        checked: if checked { 2 * n_blocks as u64 } else { 0 },
        total: (params.input_size + compressed_total) as u64,
        conflicts: scast_failures.into_inner() as usize,
        payload_bytes: params.input_size,
        // SharC's extra memory: RC slots, dirty bits, and logs.
        shadow_bytes: 2 * n_blocks * (8 + 2) + params.input_size / 16,
        threads: params.workers + 2,
    }
}

fn encode_block(idx: usize, data: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(data.len() + 8);
    v.extend_from_slice(&(idx as u64).to_le_bytes());
    v.extend_from_slice(data);
    v
}

fn decode_block(v: Vec<u8>) -> (usize, Vec<u8>) {
    let idx = u64::from_le_bytes(v[..8].try_into().expect("block header")) as usize;
    (idx, v[8..].to_vec())
}

/// The MiniC port: reader -> queue -> compressors, with private block
/// ownership transferred by sharing casts and a benign racy flag.
pub fn minic_source() -> &'static str {
    r#"
// pbzip2.c — parallel block compressor (MiniC port).
struct pipe {
    mutex m;
    cond cv;
    char *locked(m) slot;
    int racy reading_done;
    int locked(m) produced;
    int locked(m) consumed;
};

mutex outm;
int locked(outm) out_bytes;

void compressor(struct pipe * p) {
    char private * block;
    int i;
    int run;
    int outlen;
    while (1) {
        mutex_lock(&p->m);
        while (p->slot == NULL) {
            if (p->reading_done) {
                if (p->consumed == p->produced) {
                    mutex_unlock(&p->m);
                    return;
                }
            }
            cond_wait(&p->cv, &p->m);
        }
        block = SCAST(char private *, p->slot);
        p->consumed = p->consumed + 1;
        cond_signal(&p->cv);
        mutex_unlock(&p->m);
        // "Compress" the privately-owned block: run-length encode.
        outlen = 0;
        run = 1;
        for (i = 1; i < 64; i++) {
            if (block[i] == block[i - 1]) {
                run = run + 1;
            } else {
                outlen = outlen + 2;
                run = 1;
            }
        }
        free(block);
        mutex_lock(&outm);
        out_bytes = out_bytes + outlen;
        mutex_unlock(&outm);
    }
}

void main() {
    struct pipe * p = new(struct pipe);
    char private * block;
    int b;
    int i;
    int t1;
    int t2;
    int t3;
    t1 = spawn(compressor, p);
    t2 = spawn(compressor, p);
    t3 = spawn(compressor, p);
    for (b = 0; b < 12; b++) {
        block = newarray(char private, 64);
        for (i = 0; i < 64; i++) {
            block[i] = random(4);
        }
        mutex_lock(&p->m);
        while (p->slot)
            cond_wait(&p->cv, &p->m);
        p->slot = SCAST(char locked(p->m) *, block);
        p->produced = p->produced + 1;
        cond_signal(&p->cv);
        mutex_unlock(&p->m);
    }
    p->reading_done = 1;
    mutex_lock(&p->m);
    cond_broadcast(&p->cv);
    mutex_unlock(&p->m);
    join(t1);
    join(t2);
    join(t3);
    mutex_lock(&outm);
    print(out_bytes);
    mutex_unlock(&outm);
}
"#
}

/// Full benchmark.
pub fn bench(scale: Scale) -> BenchResult {
    let params = Params::scaled(scale);
    run_benchmark("pbzip2", minic_source(), scale.reps, |checked| {
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
    use sharc_checker::{CheckEvent, EventLog};

    #[test]
    fn pipeline_compresses_correctly() {
        let params = Params::scaled(Scale::quick());
        let orig = run_native::<Unchecked>(&params);
        let sharc = run_native::<Checked>(&params);
        assert_eq!(orig.checksum, sharc.checksum, "same compressed output");
        assert_eq!(sharc.conflicts, 0, "all sharing casts succeed");
    }

    #[test]
    fn compression_roundtrip_through_pipeline_blocks() {
        use crate::substrates::compress::decompress_block;
        let input = make_input(48 * 1024);
        for chunk in input.chunks(16 * 1024) {
            let c = compress_block(chunk);
            assert_eq!(decompress_block(&c), chunk);
            assert!(c.len() < chunk.len(), "text input compresses");
        }
    }

    #[test]
    fn dynamic_fraction_is_tiny() {
        let params = Params::scaled(Scale::quick());
        let r = run_native::<Checked>(&params);
        assert!(
            (r.checked as f64 / r.total as f64) < 0.01,
            "paper reports ~0.0% dynamic for pbzip2"
        );
    }

    #[test]
    fn traced_run_matches_untraced() {
        let params = Params::scaled(Scale::quick());
        let (run, trace) = EventLog::capture(|s| run_with_events(&params, s));
        assert_eq!(run.checksum, run_native::<Checked>(&params).checksum);
        assert_eq!(run.conflicts, 0);
        assert!(!trace.is_empty());
    }

    #[test]
    fn sharc_is_clean_and_eraser_false_positives_on_the_same_execution() {
        // Table 1 row 3 through the event spine: the per-block
        // ownership transfers (reader -> worker -> writer) are clean
        // under SharC — each cast is the evidence — while Eraser's
        // lockset for the block payload goes empty (the whole point
        // of private annotation is compressing without a lock held).
        use sharc_checker::{replay, BitmapBackend};
        use sharc_detectors::Eraser;
        let (_, trace) = EventLog::capture(|s| run_with_events(&Params::scaled(Scale::quick()), s));
        let sharc = replay(&trace, &mut BitmapBackend::new());
        assert!(sharc.is_empty(), "SharC models the transfers: {sharc:?}");
        let eraser = replay(&trace, &mut Eraser::new());
        assert!(!eraser.is_empty(), "Eraser misses the ownership transfer");
    }

    #[test]
    fn stripping_the_casts_makes_sharc_report_too() {
        // The casts are load-bearing: without them the reader's
        // writer-state survives into the worker's accesses.
        use sharc_checker::{replay, BitmapBackend};
        let (_, trace) = EventLog::capture(|s| run_with_events(&Params::scaled(Scale::quick()), s));
        let stripped: Vec<CheckEvent> = trace
            .into_iter()
            .filter(|e| {
                !matches!(
                    e,
                    CheckEvent::SharingCast { .. } | CheckEvent::RangeCast { .. }
                )
            })
            .collect();
        let conflicts = replay(&stripped, &mut BitmapBackend::new());
        assert!(!conflicts.is_empty(), "no cast, no transfer, real conflict");
    }

    #[test]
    fn every_block_hand_off_is_one_ranged_operation() {
        // The acceptance bar for the ranged spine: each reader ->
        // worker -> writer transfer is ONE RangeCast (three per
        // block), each block birth is ONE RangeFree — never the
        // O(granules) per-granule expansion.
        let params = Params::scaled(Scale::quick());
        let blocks = params.input_size.div_ceil(params.block);
        let (_, trace) = EventLog::capture(|s| run_with_events(&params, s));
        let count = |f: fn(&CheckEvent) -> bool| trace.iter().filter(|e| f(e)).count();
        assert_eq!(
            count(|e| matches!(e, CheckEvent::RangeCast { .. })),
            3 * blocks
        );
        assert_eq!(count(|e| matches!(e, CheckEvent::RangeFree { .. })), blocks);
        assert_eq!(count(|e| matches!(e, CheckEvent::SharingCast { .. })), 0);
    }

    #[test]
    fn minic_version_compiles_clean() {
        let (lines, annots, casts) = crate::table::minic_columns("pbzip2.c", minic_source());
        assert!(lines > 50);
        assert!(annots >= 5);
        assert_eq!(casts, 2, "one cast per hand-off direction");
    }
}
