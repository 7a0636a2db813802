//! **stunnel** — the TLS tunnel (Table 1 row 6), run as a *wide-tid
//! server fleet* on the `CheckEvent` spine.
//!
//! "It creates a thread for each client that it serves. The main
//! thread initializes data for each client thread before spawning
//! them. There are also global flags and counters, which are
//! protected by locks... Our experiments with stunnel involved
//! encrypting three simultaneous connections to a simple echo server
//! with each client sending and receiving 500 messages."
//!
//! The paper ran three connections; this port runs the production
//! shape instead: 100–300 real worker threads (one per simulated
//! client) on the sharded wide geometry, so checked tids span 2–5
//! shards and every check runs against
//! [`sharc_runtime::ShardedShadow`] under real contention — the same
//! `Arena` / `ThreadCtx` / `LockRegistry` / `AccessPolicy` types as
//! the other workloads, over the other word protocol. Per connection:
//!
//! - the **acceptor** (tid 1) fills the client's handshake buffer
//!   with one ranged checked write, *sharing-casts* it to the worker
//!   (`RangeCast` + shadow clear, the `dynamic` hand-off of §2.1),
//!   and publishes the session slot under the session-table lock —
//!   so the hand-off linearizes through the lock-held event log;
//! - the **worker** (tids 2..) confirms the slot under the same lock
//!   (`locked(l)` check), sweeps the handshake with a ranged checked
//!   read, stamps a session nonce back into it, then encrypts and
//!   echoes its messages through a per-connection buffer with one
//!   ranged `chkwrite` + one ranged `chkread` per message;
//! - global message/byte counters are `locked(l)`: lock-held checks
//!   and raw accesses under the counter lock, never bitmap traffic.
//!
//! Replayed from the recorded trace, the same execution splits the
//! detectors exactly as §6.2 predicts: SharC is clean (the casts and
//! thread exits model the transfers), Eraser false-positives on every
//! handshake hand-off (no lock covers the buffer), and vector clocks
//! stay clean only while the session lock's release/acquire edge is
//! in the trace.

use crate::substrates::cipher::{decrypt, encrypt};
use crate::table::{run_benchmark, BenchResult, NativeRun, Scale};
use sharc_runtime::{
    AccessPolicy, Arena, Checked, EventSink, LockId, LockRegistry, MultiWord, ThreadCtx, ThreadId,
    Unchecked, GRANULE_WORDS,
};
use std::sync::Arc;

/// Lock id of the session table (publishes handshake hand-offs).
const SESSION_LOCK: LockId = LockId(0);
/// Lock id protecting the global message/byte counters.
const COUNTER_LOCK: LockId = LockId(1);

/// Handshake buffer words per client (whole granules).
const HS_WORDS: usize = 4 * GRANULE_WORDS;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Simulated client connections.
    pub clients: usize,
    /// Real worker threads (client `c` is served by `c % workers`).
    pub workers: usize,
    /// Messages each client sends and receives.
    pub messages: usize,
    /// Message length in bytes (a multiple of 8).
    pub msg_len: usize,
}

impl Params {
    /// The default fleet: one worker per client, wide enough that
    /// checked tids span multiple shards of the exact shadow.
    pub fn scaled(scale: Scale) -> Self {
        if scale.quick {
            // ~10^5 checked accesses: 128 * 12 * 64 sweep words.
            Params {
                clients: 128,
                workers: 128,
                messages: 12,
                msg_len: 256,
            }
        } else {
            // ~10^6 checked accesses across 4 shards of tids.
            Params {
                clients: 240,
                workers: 240,
                messages: 60,
                msg_len: 256,
            }
        }
    }

    /// Message buffer words per client.
    fn msg_words(&self) -> usize {
        (self.msg_len / 8).max(GRANULE_WORDS)
    }

    /// Word index of client `c`'s handshake buffer.
    fn hs(&self, c: usize) -> usize {
        c * HS_WORDS
    }

    /// Word index of client `c`'s message buffer.
    fn msg(&self, c: usize) -> usize {
        self.clients * HS_WORDS + c * self.msg_words()
    }

    /// Word index of client `c`'s session-table slot.
    fn slot(&self, c: usize) -> usize {
        self.clients * (HS_WORDS + self.msg_words()) + c
    }

    /// Word index of the global counters (messages, then bytes one
    /// granule over, as in the three-thread original).
    fn counters(&self) -> usize {
        // Granule-aligned so the two counters sit in distinct
        // granules.
        self.slot(self.clients).next_multiple_of(GRANULE_WORDS)
    }

    /// Total arena words.
    fn arena_words(&self) -> usize {
        self.counters() + 2 * GRANULE_WORDS
    }
}

/// The in-process echo server: decrypt, flip, re-encrypt.
fn echo_server(key: u64, wire: &[u8]) -> Vec<u8> {
    let plain = decrypt(key, wire);
    encrypt(key, &plain)
}

/// Packs `bytes[8 * i ..]` into the word the arena sweeps carry.
fn pack_word(bytes: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8-byte chunk"))
}

/// Runs the tunnel fleet with access policy `P` (no trace).
pub fn run_native<P: AccessPolicy>(params: &Params) -> NativeRun {
    run::<P>(params, ThreadCtx::new(ThreadId(1)))
}

/// Runs the fleet checked, recording into any [`EventSink`]: a
/// log to replay, or a streaming sink judging online.
pub fn run_with_events(params: &Params, sink: Arc<dyn EventSink>) -> NativeRun {
    run::<Checked>(params, ThreadCtx::with_sink(ThreadId(1), sink))
}

/// The fleet, with `acceptor` (tid 1) as the main thread's context.
fn run<P: AccessPolicy>(params: &Params, mut acceptor: ThreadCtx) -> NativeRun {
    let is_checked = P::NAME == Checked::NAME;
    // Exact identities for the acceptor plus every worker tid.
    let arena = Arc::new(Arena::for_threads(params.arena_words(), params.workers + 2));
    let locks = Arc::new(LockRegistry::new(2));

    let mut handles = Vec::new();
    for w in 0..params.workers {
        let ctx = acceptor.fork(ThreadId(w as u32 + 2));
        let arena = Arc::clone(&arena);
        let locks = Arc::clone(&locks);
        let params = *params;
        handles.push(std::thread::spawn(move || {
            worker_thread::<P>(&params, &arena, &locks, ctx, w)
        }));
    }

    // The acceptor "accepts" each connection with the workers already
    // live: handshake buffer filled (ranged chkwrite), ownership cast
    // to the worker, session slot published under the session lock.
    for c in 0..params.clients {
        let key = 0x57A7_0000 + c as u64;
        P::write_range(&arena, &mut acceptor, params.hs(c), HS_WORDS, &mut |i| {
            key.wrapping_add((i - params.hs(c)) as u64)
        });
        // The dynamic hand-off: ONE ranged `oneref` cast for the whole
        // handshake buffer, then the shadow forgets the acceptor ever
        // owned it.
        P::cast_range(&arena, &acceptor, params.hs(c), HS_WORDS);
        locks.lock(&mut acceptor, SESSION_LOCK);
        P::check_held(&acceptor, SESSION_LOCK).expect("session lock");
        arena.write_unchecked(params.slot(c), 1);
        acceptor.total_accesses += 1;
        locks.unlock(&mut acceptor, SESSION_LOCK);
    }

    let mut checksum = 0u64;
    let mut checked = 0u64;
    let mut total = 0u64;
    let mut conflicts = 0usize;
    for (w, h) in handles.into_iter().enumerate() {
        let (ok, ch, tt, cf) = h.join().expect("worker panicked");
        acceptor.join(ThreadId(w as u32 + 2));
        checksum += ok;
        checked += ch;
        total += tt;
        conflicts += cf;
    }

    // Final tally under the counter lock (`locked(l)` read).
    locks.lock(&mut acceptor, COUNTER_LOCK);
    P::check_held(&acceptor, COUNTER_LOCK).expect("counter lock");
    if is_checked {
        checked += 1;
    }
    let msgs = arena.read_unchecked(params.counters());
    acceptor.total_accesses += 1;
    locks.unlock(&mut acceptor, COUNTER_LOCK);
    arena.thread_exit(&mut acceptor);

    checksum = checksum.wrapping_mul(1000).wrapping_add(msgs);
    checked += acceptor.checked_accesses;
    total +=
        acceptor.total_accesses + (params.clients * params.messages * params.msg_len * 4) as u64;

    NativeRun {
        checksum,
        checked,
        total,
        conflicts: conflicts + acceptor.conflicts,
        payload_bytes: arena.payload_bytes() + params.clients * params.msg_len,
        shadow_bytes: if is_checked { arena.shadow_bytes() } else { 0 },
        threads: params.workers + 1,
    }
}

/// One worker thread: serves every client `c` with `c % workers ==
/// w`, in ascending order. Returns `(ok, checked, total, conflicts)`.
fn worker_thread<P: AccessPolicy>(
    params: &Params,
    arena: &Arena<MultiWord>,
    locks: &LockRegistry,
    mut ctx: ThreadCtx,
    w: usize,
) -> (u64, u64, u64, usize) {
    let is_checked = P::NAME == Checked::NAME;
    let mut ok = 0u64;
    let mut lock_checks = 0u64;
    let msg_words = params.msg_words();

    for c in (w..params.clients).step_by(params.workers) {
        // Wait for the acceptor to publish this session. The relaxed
        // poll is only a hint; the *confirming* read below happens
        // under the session lock, so the worker's acquire lands after
        // the acceptor's publishing release in the linearized trace —
        // the happens-before edge vector clocks need.
        while arena.read_unchecked(params.slot(c)) == 0 {
            std::thread::yield_now();
        }
        locks.lock(&mut ctx, SESSION_LOCK);
        P::check_held(&ctx, SESSION_LOCK).expect("session lock");
        if is_checked {
            lock_checks += 1;
        }
        let ready = arena.read_unchecked(params.slot(c));
        ctx.total_accesses += 2;
        locks.unlock(&mut ctx, SESSION_LOCK);
        assert_eq!(ready, 1, "slot published before hand-off");

        // The handshake arrived by sharing cast: sweep it (ranged
        // chkread), derive the session key, and stamp a nonce back
        // into the buffer — the worker *writes* memory the acceptor
        // wrote outside any lock, which is exactly what Eraser's
        // lockset cannot justify.
        let mut key = 0u64;
        P::read_range(arena, &mut ctx, params.hs(c), HS_WORDS, &mut |i, v| {
            if i == params.hs(c) {
                key = v;
            }
        });
        P::write(arena, &mut ctx, params.hs(c) + 1, key ^ 0x5E55_1011);

        for m in 0..params.messages {
            // Build and encrypt the message (private buffer), then
            // push the ciphertext through the connection buffer with
            // one ranged chkwrite and read it back with one ranged
            // chkread — the per-connection sweep of PR 5.
            let plain: Vec<u8> = (0..params.msg_len).map(|i| (m + i + c) as u8).collect();
            let wire = encrypt(key, &plain);
            P::write_range(arena, &mut ctx, params.msg(c), msg_words, &mut |i| {
                pack_word(&wire, i - params.msg(c))
            });
            let mut echoed = vec![0u8; params.msg_len];
            P::read_range(arena, &mut ctx, params.msg(c), msg_words, &mut |i, v| {
                echoed[8 * (i - params.msg(c))..8 * (i - params.msg(c)) + 8]
                    .copy_from_slice(&v.to_le_bytes());
            });
            let reply = echo_server(key, &echoed);
            if decrypt(key, &reply) == plain {
                ok += 1;
            }

            // Locked global counters: held-lock checks plus raw
            // accesses, the `locked(l)` mode of the original port.
            locks.lock(&mut ctx, COUNTER_LOCK);
            for _ in 0..2 {
                P::check_held(&ctx, COUNTER_LOCK).expect("counter lock");
            }
            if is_checked {
                lock_checks += 2;
            }
            let msgs = arena.read_unchecked(params.counters());
            arena.write_unchecked(params.counters(), msgs + 1);
            let bytes = arena.read_unchecked(params.counters() + GRANULE_WORDS);
            arena.write_unchecked(
                params.counters() + GRANULE_WORDS,
                bytes + params.msg_len as u64,
            );
            ctx.total_accesses += 4;
            locks.unlock(&mut ctx, COUNTER_LOCK);
        }
    }

    arena.thread_exit(&mut ctx);
    (
        ok,
        ctx.checked_accesses + lock_checks,
        ctx.total_accesses,
        ctx.conflicts,
    )
}

/// The MiniC port: per-client threads, private message buffers
/// initialized before spawn, and locked global counters.
pub fn minic_source() -> &'static str {
    r#"
// stunnel.c — encrypting tunnel (MiniC port).
struct client {
    int readonly id;
    int readonly key;
    int nmsgs;
};

mutex gm;
int locked(gm) total_msgs;
int locked(gm) total_bytes;
int racy active_clients;

int crypt_step(int state) {
    return state * 1103515245 + 12345;
}

void client_thread(struct client * c) {
    char private * buf;
    int m;
    int i;
    int state;
    int n;
    n = c->nmsgs;
    for (m = 0; m < n; m++) {
        buf = newarray(char private, 64);
        // Fill and "encrypt" the private buffer.
        state = c->key + m;
        for (i = 0; i < 64; i++) {
            state = crypt_step(state);
            buf[i] = state % 256;
        }
        // "Echo" round-trip: decrypt in place.
        state = c->key + m;
        for (i = 0; i < 64; i++) {
            state = crypt_step(state);
            buf[i] = buf[i] - state % 256;
        }
        free(buf);
        mutex_lock(&gm);
        total_msgs = total_msgs + 1;
        total_bytes = total_bytes + 64;
        mutex_unlock(&gm);
    }
    active_clients = active_clients - 1;
}

void main() {
    struct client private * c1;
    struct client private * c2;
    struct client private * c3;
    c1 = new(struct client private);
    c2 = new(struct client private);
    c3 = new(struct client private);
    // The main thread initializes client data before spawning
    // (readonly fields are writable while the struct is private).
    c1->id = 1; c1->key = 101; c1->nmsgs = 20;
    c2->id = 2; c2->key = 202; c2->nmsgs = 20;
    c3->id = 3; c3->key = 303; c3->nmsgs = 20;
    active_clients = 3;
    spawn(client_thread, SCAST(struct client dynamic *, c1));
    spawn(client_thread, SCAST(struct client dynamic *, c2));
    spawn(client_thread, SCAST(struct client dynamic *, c3));
    join_all();
    mutex_lock(&gm);
    print(total_msgs);
    print(total_bytes);
    mutex_unlock(&gm);
}
"#
}

/// Full benchmark.
pub fn bench(scale: Scale) -> BenchResult {
    let params = Params::scaled(scale);
    run_benchmark("stunnel", minic_source(), scale.reps, |checked| {
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
    use sharc_checker::{replay, BitmapBackend, CheckEvent, EventLog, ShadowGeometry};
    use sharc_detectors::{Eraser, VcDetector};

    /// A smaller fleet for the per-test runs (still wide: tids reach
    /// past the first two shadow shards).
    fn test_params() -> Params {
        Params {
            clients: 130,
            workers: 130,
            messages: 2,
            msg_len: 64,
        }
    }

    fn wide_bitmap(p: &Params) -> BitmapBackend {
        BitmapBackend::with_geometry(ShadowGeometry::for_threads(p.workers + 2))
    }

    #[test]
    fn all_messages_roundtrip() {
        let params = Params {
            clients: 100,
            workers: 100,
            messages: 3,
            msg_len: 64,
        };
        let a = run_native::<Unchecked>(&params);
        let b = run_native::<Checked>(&params);
        assert_eq!(a.checksum, b.checksum);
        // checksum encodes ok-count * 1000 + message counter.
        let expect = (params.clients * params.messages) as u64;
        assert_eq!(a.checksum, expect * 1000 + expect);
        assert_eq!(b.conflicts, 0, "casts + locks make the fleet clean");
    }

    #[test]
    fn sharc_is_silent_on_the_native_trace() {
        let p = test_params();
        let (run, trace) = EventLog::capture(|s| run_with_events(&p, s));
        assert_eq!(run.conflicts, 0);
        let conflicts = replay(&trace, &mut wide_bitmap(&p));
        assert!(
            conflicts.is_empty(),
            "SharC models the wide hand-offs: {conflicts:?}"
        );
    }

    #[test]
    fn eraser_false_positives_on_the_same_execution() {
        // §6.2 at fleet width: the identical recorded execution. The
        // handshake buffers are written by the acceptor and then
        // read *and written* by the workers with no common lock, so
        // Eraser's per-granule lockset empties and it reports; the
        // vector-clock detector accepts because every hand-off
        // linearizes through the session lock's release/acquire.
        let p = test_params();
        let (_, trace) = EventLog::capture(|s| run_with_events(&p, s));
        let eraser = replay(&trace, &mut Eraser::new());
        let vc = replay(&trace, &mut VcDetector::new());
        assert!(!eraser.is_empty(), "Eraser misses the ownership transfer");
        assert!(vc.is_empty(), "HB sees the session-lock edge: {vc:?}");
    }

    #[test]
    fn without_lock_edges_even_happens_before_false_positives() {
        let p = test_params();
        let (_, trace) = EventLog::capture(|s| run_with_events(&p, s));
        let cast_only: Vec<CheckEvent> = trace
            .into_iter()
            .filter(|e| {
                !matches!(
                    e,
                    CheckEvent::Acquire { .. }
                        | CheckEvent::Release { .. }
                        | CheckEvent::LockedAccess { .. }
                )
            })
            .collect();
        let sharc = replay(&cast_only, &mut wide_bitmap(&p));
        assert!(sharc.is_empty(), "the casts alone satisfy SharC: {sharc:?}");
        let vc = replay(&cast_only, &mut VcDetector::new());
        assert!(!vc.is_empty(), "the cast is invisible to vector clocks");
    }

    #[test]
    fn stripping_the_casts_makes_sharc_report_too() {
        let p = test_params();
        let (_, trace) = EventLog::capture(|s| run_with_events(&p, s));
        let stripped: Vec<CheckEvent> = trace
            .into_iter()
            .filter(|e| {
                !matches!(
                    e,
                    CheckEvent::SharingCast { .. } | CheckEvent::RangeCast { .. }
                )
            })
            .collect();
        let conflicts = replay(&stripped, &mut wide_bitmap(&p));
        assert!(!conflicts.is_empty(), "no cast, no transfer, real conflict");
    }

    #[test]
    fn trace_carries_wide_tids_and_the_full_vocabulary() {
        let p = test_params();
        let (_, trace) = EventLog::capture(|s| run_with_events(&p, s));
        let has = |f: fn(&CheckEvent) -> bool| trace.iter().any(f);
        assert!(has(|e| matches!(e, CheckEvent::Fork { .. })));
        assert!(has(|e| matches!(e, CheckEvent::RangeRead { .. })));
        assert!(has(|e| matches!(e, CheckEvent::RangeWrite { .. })));
        assert!(has(|e| matches!(e, CheckEvent::RangeCast { .. })));
        // One-operation hand-off: exactly one ranged cast per client,
        // never the O(granules) per-granule expansion.
        let rcasts = trace
            .iter()
            .filter(|e| matches!(e, CheckEvent::RangeCast { .. }))
            .count();
        assert_eq!(rcasts, p.clients, "one RangeCast per handshake hand-off");
        assert!(has(|e| matches!(e, CheckEvent::LockedAccess { .. })));
        assert!(has(|e| matches!(e, CheckEvent::Acquire { .. })));
        assert!(has(|e| matches!(e, CheckEvent::Release { .. })));
        assert!(has(|e| matches!(e, CheckEvent::ThreadExit { .. })));
        assert!(has(|e| matches!(e, CheckEvent::Join { .. })));
        // Past the 63-tid shard boundary and into the third shard.
        assert!(
            has(|e| matches!(e, CheckEvent::RangeWrite { tid, .. } if *tid > 126)),
            "worker tids must reach past two shards"
        );
    }

    #[test]
    fn minic_version_compiles_clean() {
        let (lines, annots, casts) = crate::table::minic_columns("stunnel.c", minic_source());
        assert!(lines > 40);
        assert!(
            annots >= 8,
            "stunnel has the most annotations; got {annots}"
        );
        assert_eq!(casts, 3, "one ownership transfer per spawned client");
    }
}
