//! **pfscan** — the parallel file scanner (Table 1 row 1).
//!
//! "A tool that spawns multiple threads for searching through files.
//! One thread finds all the paths that must be searched, and an
//! arbitrary number of threads take paths off of a shared queue
//! protected with a mutex and search files at those paths."
//!
//! Paper row: 3 threads, 1.1k lines, 8 annotations, 11 changes, 12%
//! time overhead, 0.8% memory, **80.0% dynamic accesses** — the file
//! buffers themselves are dynamic-mode, so almost every access is
//! checked.

use crate::substrates::filesys::{FsConfig, SynthFs};
use crate::table::{run_benchmark, BenchResult, NativeRun, Scale};
use sharc_checker::EventSink;
use sharc_runtime::{AccessPolicy, Arena, Checked, ThreadCtx, ThreadId, Unchecked};
use sharc_testkit::sync::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

const NEEDLE: &[u8] = b"needle";

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub fs: FsConfig,
    pub workers: usize,
}

impl Params {
    /// Parameters for a given benchmark scale (also used by the
    /// `sharc native` facade).
    pub fn scaled(scale: Scale) -> Self {
        Params {
            fs: FsConfig {
                n_dirs: if scale.quick { 2 } else { 8 },
                files_per_dir: if scale.quick { 4 } else { 12 },
                file_size: if scale.quick { 2048 } else { 8192 },
                // Plant needles densely enough that every scale finds
                // matches in every file it sweeps.
                needle_every: 256,
                ..FsConfig::default()
            },
            workers: 2,
        }
    }
}

/// A file-scan job: where the file's bytes start in the shared arena
/// (byte offsets; bytes are packed 8 per word as in C memory).
#[derive(Debug, Clone, Copy)]
struct Job {
    offset: usize,
    len: usize,
}

/// Byte `pos` out of a word buffer previously swept out of the arena
/// (words are packed 8 bytes each, little-endian, as C memory).
#[inline]
fn byte_of(words: &[u64], pos: usize) -> u8 {
    (words[pos / 8] >> ((pos % 8) * 8)) as u8
}

/// Runs the scan with access policy `P`, returning the run record.
pub fn run_native<P: AccessPolicy>(params: &Params) -> NativeRun {
    run::<P>(params, ThreadCtx::new(ThreadId(1)))
}

/// Runs the scan checked, recording every checked access, fork and
/// thread exit into any [`EventSink`] — the native end of the event
/// spine (`sharc native pfscan --detector ...`): a log to
/// replay, or a `StreamingSink` judging online.
pub fn run_with_events(params: &Params, sink: Arc<dyn EventSink>) -> NativeRun {
    run::<Checked>(params, ThreadCtx::with_sink(ThreadId(1), sink))
}

/// The scan, with `producer` (tid 1) as the main thread's context.
fn run<P: AccessPolicy>(params: &Params, mut producer: ThreadCtx) -> NativeRun {
    let fs = SynthFs::generate(params.fs, "needle");

    // The "path producer" loads every file into the shared arena,
    // bytes packed 8 per word as in C memory (so each 16-byte shadow
    // granule covers 16 characters, exactly the paper's layout).
    // Every file starts word-aligned, so the arena holds the sum of
    // the files' *padded* lengths.
    let file_words: usize = fs.files().iter().map(|f| f.content.len().div_ceil(8)).sum();
    let arena: Arc<Arena> = Arc::new(Arena::new(file_words + 1));
    let queue: Arc<Mutex<VecDeque<Job>>> = Arc::new(Mutex::new(VecDeque::new()));
    {
        let mut off = 0usize;
        let mut q = queue.lock();
        for path in fs.paths() {
            let content = fs.read(&path).expect("generated path exists");
            for (i, chunk) in content.chunks(8).enumerate() {
                let mut w = 0u64;
                for (k, &b) in chunk.iter().enumerate() {
                    w |= (b as u64) << (k * 8);
                }
                // The producer owns the buffer while filling it
                // (private mode): unchecked in both builds, but still
                // counted toward the total-access denominator.
                Unchecked::write(&arena, &mut producer, off / 8 + i, w);
            }
            q.push_back(Job {
                offset: off,
                len: content.len(),
            });
            // Keep every file word-aligned.
            off += content.len().next_multiple_of(8);
        }
    }

    // Worker threads scan files taken from the queue; buffers are
    // dynamic-mode (accessible by any worker), so scans go through P.
    let mut handles = Vec::new();
    for w in 0..params.workers {
        let mut ctx = producer.fork(ThreadId(w as u32 + 2));
        let arena = Arc::clone(&arena);
        let queue = Arc::clone(&queue);
        handles.push(std::thread::spawn(move || {
            let mut matches = 0u64;
            let mut buf: Vec<u64> = Vec::new();
            loop {
                let job = queue.lock().pop_front();
                let Some(job) = job else { break };
                // The bulk inner loop: ONE ranged `chkread` sweeps the
                // whole file buffer out of the arena (one check per
                // sweep instead of one per word), then the scan runs
                // on the local copy.
                let wstart = job.offset / 8; // files are word-aligned
                let wlen = job.len.div_ceil(8);
                buf.clear();
                P::read_range(&arena, &mut ctx, wstart, wlen, &mut |_, v| buf.push(v));
                let n = NEEDLE.len();
                if job.len >= n {
                    for i in 0..=job.len - n {
                        let hit = NEEDLE
                            .iter()
                            .enumerate()
                            .all(|(k, &nb)| byte_of(&buf, i + k) == nb);
                        if hit {
                            matches += 1;
                        }
                    }
                }
            }
            let record = (
                matches,
                ctx.checked_accesses,
                ctx.total_accesses,
                ctx.conflicts,
            );
            arena.thread_exit(&mut ctx);
            record
        }));
    }

    let mut checksum = 0u64;
    let mut checked = 0u64;
    let mut total = producer.total_accesses;
    let mut conflicts = 0usize;
    for h in handles {
        let (m, c, t, cf) = h.join().expect("worker panicked");
        checksum += m;
        checked += c;
        total += t;
        conflicts += cf;
    }

    NativeRun {
        checksum,
        checked,
        total,
        conflicts,
        payload_bytes: arena.payload_bytes(),
        shadow_bytes: arena.shadow_bytes(),
        threads: params.workers + 1,
    }
}

/// The MiniC port: same structure (producer + queue + scanning
/// workers), with the paper's annotation style.
pub fn minic_source() -> &'static str {
    r#"
// pfscan.c — parallel file scanner (MiniC port).
// One producer enqueues file ids; scanner threads claim a file,
// load it into their region of the shared buffer, and scan it.
struct queue {
    mutex m;
    cond cv;
    int locked(m) head;
    int locked(m) tail;
    int locked(m) jobs[64];
    int racy done;
};

int dynamic filedata[4096];
mutex mlock;
int locked(mlock) matches;

void scanner(struct queue * q) {
    int job;
    int base;
    int len;
    int i;
    int hits;
    hits = 0;
    while (1) {
        mutex_lock(&q->m);
        while (q->head == q->tail) {
            if (q->done) {
                mutex_unlock(&q->m);
                mutex_lock(&mlock);
                matches = matches + hits;
                mutex_unlock(&mlock);
                return;
            }
            cond_wait(&q->cv, &q->m);
        }
        job = q->jobs[q->head % 64];
        q->head = q->head + 1;
        mutex_unlock(&q->m);
        // Load the "file" into this worker's region, then scan it.
        base = job * 256;
        len = 200;
        for (i = 0; i < len; i++) {
            filedata[base + i] = random(256);
        }
        for (i = 0; i < len - 1; i++) {
            if (filedata[base + i] == 110) {
                if (filedata[base + i + 1] == 101) {
                    hits = hits + 1;
                }
            }
        }
    }
}

void main() {
    struct queue * q = new(struct queue);
    int f;
    int t1;
    int t2;
    t1 = spawn(scanner, q);
    t2 = spawn(scanner, q);
    for (f = 0; f < 16; f++) {
        mutex_lock(&q->m);
        q->jobs[q->tail % 64] = f;
        q->tail = q->tail + 1;
        cond_signal(&q->cv);
        mutex_unlock(&q->m);
    }
    mutex_lock(&q->m);
    q->done = 1;
    cond_broadcast(&q->cv);
    mutex_unlock(&q->m);
    join(t1);
    join(t2);
    mutex_lock(&mlock);
    print(matches);
    mutex_unlock(&mlock);
}
"#
}

/// Full benchmark: MiniC columns + timed native runs.
pub fn bench(scale: Scale) -> BenchResult {
    let params = Params::scaled(scale);
    run_benchmark("pfscan", minic_source(), scale.reps, |checked| {
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
    fn native_matches_oracle() {
        let params = Params::scaled(Scale::quick());
        let fs = SynthFs::generate(params.fs, "needle");
        let expect = fs.count_occurrences(NEEDLE) as u64;
        let orig = run_native::<Unchecked>(&params);
        let sharc = run_native::<Checked>(&params);
        assert_eq!(orig.checksum, expect);
        assert_eq!(sharc.checksum, expect);
    }

    #[test]
    fn file_sizes_that_are_not_word_multiples_fit_the_arena() {
        // Each file is padded to a word boundary in the arena, so the
        // arena must be sized from the padded sum, not the byte total.
        for file_size in [1, 9, 17] {
            let params = Params {
                fs: FsConfig {
                    n_dirs: 1,
                    files_per_dir: 8,
                    file_size,
                    needle_every: 1,
                    ..FsConfig::default()
                },
                workers: 2,
            };
            let fs = SynthFs::generate(params.fs, "needle");
            let sharc = run_native::<Checked>(&params);
            assert_eq!(sharc.checksum, fs.count_occurrences(NEEDLE) as u64);
            assert_eq!(sharc.conflicts, 0);
            assert_eq!(
                sharc.payload_bytes,
                8 * (8 * file_size.div_ceil(8) + 1),
                "padded words per file, plus the spare word"
            );
        }
    }

    #[test]
    fn dynamic_fraction_is_high() {
        // The paper reports 80% dynamic accesses for pfscan: the scan
        // itself is checked. Our split: scans checked, produce phase
        // unchecked.
        let params = Params::scaled(Scale::quick());
        let r = run_native::<Checked>(&params);
        // The ranged sweep reads each word exactly once, so the split
        // is exactly produce-unchecked / scan-checked: half of all
        // accesses are dynamic-mode.
        assert!(
            r.checked as f64 / r.total as f64 >= 0.5,
            "scan accesses are checked: {}/{}",
            r.checked,
            r.total
        );
    }

    #[test]
    fn no_conflicts_reading_shared_files() {
        let params = Params::scaled(Scale::quick());
        let r = run_native::<Checked>(&params);
        assert_eq!(r.conflicts, 0, "read-sharing is legal in dynamic mode");
    }

    #[test]
    fn traced_run_replays_silently_through_sharc() {
        // Read-sharing the file buffers is legal in dynamic mode, so
        // the native trace replays clean through SharC's own backend.
        let params = Params::scaled(Scale::quick());
        let fs = SynthFs::generate(params.fs, "needle");
        let (run, trace) = EventLog::capture(|s| run_with_events(&params, s));
        assert_eq!(run.checksum, fs.count_occurrences(NEEDLE) as u64);
        // Every checked access is covered by the trace — now mostly
        // as ranged events, one per buffer sweep (a RangeRead of
        // `len` granules covers up to `len * GRANULE_WORDS` word
        // accesses).
        let covered: u64 = trace
            .iter()
            .map(|e| match e {
                CheckEvent::Read { .. } | CheckEvent::Write { .. } => 1,
                CheckEvent::RangeRead { len, .. } | CheckEvent::RangeWrite { len, .. } => {
                    (len * sharc_runtime::GRANULE_WORDS) as u64
                }
                _ => 0,
            })
            .sum();
        assert!(
            covered >= run.checked,
            "all checked accesses covered: {covered} covered, {} checked",
            run.checked
        );
        assert!(
            trace
                .iter()
                .any(|e| matches!(e, CheckEvent::RangeRead { .. })),
            "file sweeps are ranged events"
        );
        let conflicts = sharc_checker::replay(&trace, &mut sharc_checker::BitmapBackend::new());
        assert!(conflicts.is_empty(), "{conflicts:?}");
    }

    #[test]
    fn minic_version_compiles_clean() {
        let (lines, annots, casts) = crate::table::minic_columns("pfscan.c", minic_source());
        assert!(lines > 40);
        assert!(
            annots >= 5,
            "pfscan paper row lists 8 annotations; got {annots}"
        );
        let _ = casts;
    }
}
