//! **aget** — the download accelerator (Table 1 row 2).
//!
//! "It spawns several threads that each download pieces of a file...
//! The program was network bound, and so the overhead created by
//! SharC was not measurable."
//!
//! Paper row: 3 threads, 1.1k lines, 7 annotations, 7 changes, time
//! overhead n/a (network bound), 30.8% memory, 8.7% dynamic accesses.
//! The reproduction uses a latency-simulated chunk server; with real
//! latency dominating, the checked build's overhead drowns in wait
//! time — the row's "n/a" shape.

use crate::substrates::net::{fnv, ChunkServer};
use crate::table::{run_benchmark, BenchResult, NativeRun, Scale};
use sharc_runtime::{AccessPolicy, Arena, Checked, EventSink, ThreadCtx, ThreadId, Unchecked};
use std::sync::Arc;
use std::time::Duration;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub file_size: usize,
    pub chunk: usize,
    pub latency: Duration,
    pub workers: usize,
}

impl Params {
    /// Parameters for a given benchmark scale (also used by the
    /// `sharc native` facade).
    pub fn scaled(scale: Scale) -> Self {
        Params {
            file_size: if scale.quick { 32 * 1024 } else { 256 * 1024 },
            chunk: 4096,
            latency: if scale.quick {
                Duration::from_micros(20)
            } else {
                Duration::from_micros(60)
            },
            workers: 2,
        }
    }
}

/// Downloads the file with `workers` threads writing into a shared
/// output buffer; each worker owns a disjoint range but the buffer is
/// a single dynamic-mode object (as in aget's shared output file).
pub fn run_native<P: AccessPolicy>(params: &Params) -> NativeRun {
    run::<P>(params, ThreadCtx::new(ThreadId(1)))
}

/// Runs the download checked, recording into any [`EventSink`] (a
/// log to replay, or a streaming sink judging online): every
/// fetched chunk's store is one ranged write event, the workers'
/// exits clear their shadow footprint, and main's verification sweep
/// is one ranged read — so the exact native execution replays through
/// any [`sharc_checker::CheckBackend`] (`sharc native aget --detector
/// …`). SharC is clean (the exits end the workers' lifetimes before
/// main reads); Eraser's lockset for the buffer is empty — the whole
/// point of segment ownership is downloading without a lock held — so
/// it false-positives on the same execution.
pub fn run_with_events(params: &Params, sink: Arc<dyn EventSink>) -> NativeRun {
    run::<Checked>(params, ThreadCtx::with_sink(ThreadId(1), sink))
}

/// The download, with `main_ctx` (tid 1) as the main thread's context.
fn run<P: AccessPolicy>(params: &Params, mut main_ctx: ThreadCtx) -> NativeRun {
    let server = Arc::new(ChunkServer::new(params.file_size, params.latency, 0xA6E7));
    // The output buffer packs 8 bytes per word, as C memory does.
    let arena: Arc<Arena> = Arc::new(Arena::new(params.file_size.div_ceil(8) + 1));

    let per_worker = params.file_size.div_ceil(params.workers);
    let mut handles = Vec::new();
    for w in 0..params.workers {
        let server = Arc::clone(&server);
        let arena = Arc::clone(&arena);
        let chunk = params.chunk;
        let start = w * per_worker;
        let end = ((w + 1) * per_worker).min(params.file_size);
        let mut ctx = main_ctx.fork(ThreadId(w as u32 + 2));
        handles.push(std::thread::spawn(move || {
            let mut off = start;
            let mut words: Vec<u64> = Vec::new();
            while off < end {
                let len = chunk.min(end - off);
                let bytes = server.fetch(off, len);
                // Pack the fetched bytes into words, then store the
                // whole chunk with ONE ranged chkwrite — the bulk
                // inner loop on the ranged path.
                words.clear();
                for chnk in bytes.chunks(8) {
                    let mut v = 0u64;
                    for (k, &b) in chnk.iter().enumerate() {
                        v |= (b as u64) << (k * 8);
                    }
                    words.push(v);
                }
                let wstart = off / 8; // chunks are word-aligned
                P::write_range(&arena, &mut ctx, wstart, words.len(), &mut |i| {
                    words[i - wstart]
                });
                off += len;
            }
            let rec = (ctx.checked_accesses, ctx.total_accesses, ctx.conflicts);
            arena.thread_exit(&mut ctx);
            rec
        }));
    }

    let mut checked = 0u64;
    let mut total = 0u64;
    let mut conflicts = 0usize;
    for h in handles {
        let (c, t, cf) = h.join().expect("worker panicked");
        checked += c;
        total += t;
        conflicts += cf;
    }
    for w in 0..params.workers {
        main_ctx.join(ThreadId(w as u32 + 2));
    }

    // Main verifies the download — one ranged sweep over the whole
    // buffer through the policy. The workers' exits cleared their
    // shadow bits (non-overlapping lifetimes are not races), so the
    // sweep is clean under SharC.
    let n_words = params.file_size.div_ceil(8);
    let mut assembled = Vec::with_capacity(params.file_size);
    let mut word0 = 0u64;
    P::read_range(&arena, &mut main_ctx, 0, n_words, &mut |i, w| {
        if i == 0 {
            word0 = w;
        }
        for k in 0..8 {
            if assembled.len() < params.file_size {
                assembled.push((w >> (k * 8)) as u8);
            }
        }
    });
    // aget's completion touch-up: main re-stamps the file header in
    // place (same bytes, so the checksum is untouched). Under SharC
    // this is a legal single-reader upgrade; under Eraser it is the
    // Shared-Modified transition with an empty lockset — the false
    // positive the §6.2 comparison is about.
    P::write(&arena, &mut main_ctx, 0, word0);
    checked += main_ctx.checked_accesses;
    total += main_ctx.total_accesses;
    conflicts += main_ctx.conflicts;
    arena.thread_exit(&mut main_ctx);

    NativeRun {
        checksum: fnv(&assembled),
        checked,
        total,
        conflicts,
        payload_bytes: arena.payload_bytes(),
        shadow_bytes: arena.shadow_bytes(),
        threads: params.workers + 1,
    }
}

/// The MiniC port: workers download disjoint segments of a shared
/// buffer; head offsets are coordinated under a lock.
pub fn minic_source() -> &'static str {
    r#"
// aget.c — download accelerator (MiniC port).
struct dl {
    mutex m;
    int locked(m) bytes_done;
    int racy nworkers;
};

int dynamic outbuf[8192];
int readonly segment_size = 2048;

void downloader_body(struct dl * d, int seg) {
    int base;
    int i;
    int v;
    base = seg * segment_size;
    for (i = 0; i < segment_size; i++) {
        // "network fetch" of one byte
        v = random(256);
        outbuf[base + i] = v;
    }
    mutex_lock(&d->m);
    d->bytes_done = d->bytes_done + segment_size;
    mutex_unlock(&d->m);
}

void downloader0(struct dl * d) { downloader_body(d, 0); }
void downloader1(struct dl * d) { downloader_body(d, 1); }

void main() {
    struct dl * d = new(struct dl);
    int t0;
    int t1;
    t0 = spawn(downloader0, d);
    t1 = spawn(downloader1, d);
    join(t0);
    join(t1);
    mutex_lock(&d->m);
    print(d->bytes_done);
    mutex_unlock(&d->m);
}
"#
}

/// Full benchmark.
pub fn bench(scale: Scale) -> BenchResult {
    let params = Params::scaled(scale);
    run_benchmark("aget", minic_source(), scale.reps, |checked| {
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
    fn download_matches_server_checksum() {
        let params = Params {
            latency: Duration::ZERO,
            ..Params::scaled(Scale::quick())
        };
        let server = ChunkServer::new(params.file_size, Duration::ZERO, 0xA6E7);
        let orig = run_native::<Unchecked>(&params);
        let sharc = run_native::<Checked>(&params);
        assert_eq!(orig.checksum, server.checksum());
        assert_eq!(sharc.checksum, server.checksum());
    }

    #[test]
    fn disjoint_ranges_do_not_conflict_in_byte_space() {
        // Workers write disjoint, granule-aligned ranges: no false
        // sharing at the boundary because per-worker ranges are
        // chunk-aligned and chunk >> granule.
        let params = Params {
            latency: Duration::ZERO,
            ..Params::scaled(Scale::quick())
        };
        let r = run_native::<Checked>(&params);
        assert_eq!(r.conflicts, 0);
    }

    #[test]
    fn network_bound_builds_agree() {
        // With per-chunk latency on, both builds download the same
        // bytes and the checked one is clean. That the overhead
        // drowns in latency (the paper's "n/a" row) is measured by
        // the benchmark's `check_overhead`, not asserted on a wall
        // clock here.
        let params = Params::scaled(Scale::quick());
        let orig = run_native::<Unchecked>(&params);
        let sharc = run_native::<Checked>(&params);
        assert_eq!(orig.checksum, sharc.checksum);
        assert_eq!(sharc.conflicts, 0);
    }

    #[test]
    fn traced_run_splits_sharc_from_eraser() {
        // §6.2 through the native event spine: the SAME download
        // execution is clean under SharC (segment ownership ends at
        // thread exit, before main's verification sweep) and a false
        // positive under Eraser (no lock ever protects the buffer).
        use sharc_checker::{replay, BitmapBackend};
        use sharc_detectors::Eraser;
        let params = Params {
            latency: Duration::ZERO,
            ..Params::scaled(Scale::quick())
        };
        let (run, trace) = EventLog::capture(|s| run_with_events(&params, s));
        assert_eq!(run.conflicts, 0, "the native run itself is clean");
        assert!(
            trace
                .iter()
                .any(|e| matches!(e, CheckEvent::RangeWrite { .. })),
            "chunk stores are ranged events"
        );
        assert!(
            trace
                .iter()
                .any(|e| matches!(e, CheckEvent::RangeRead { .. })),
            "the verification sweep is a ranged event"
        );
        let sharc = replay(&trace, &mut BitmapBackend::new());
        assert!(sharc.is_empty(), "SharC models the lifetimes: {sharc:?}");
        let eraser = replay(&trace, &mut Eraser::new());
        assert!(!eraser.is_empty(), "Eraser has no lifetime model");
    }

    #[test]
    fn minic_version_compiles_clean() {
        let (lines, annots, _) = crate::table::minic_columns("aget.c", minic_source());
        assert!(lines > 30);
        assert!(annots >= 3);
    }
}
