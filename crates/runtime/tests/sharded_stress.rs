//! Barrier-schedule stress for the sharded revalidation protocol
//! (`ShardedShadow`) under *real* interleavings.
//!
//! The unit tests in `sharded.rs` pin the protocol's logic; the
//! `forall!` differentials pin its verdicts against the other
//! engines on sequential traces. What neither covers is the window
//! the revalidation step exists for: two threads in *different
//! shards* installing into disjoint shadow words at the same
//! instant, where neither CAS observes the other. These tests drive
//! a full roster through that window thousands of times using
//! [`sharc_testkit::BarrierSchedule`] — every participant is
//! barrier-aligned immediately before the contended check and
//! jittered by a few seeded spins so the interleaving varies by
//! round — and assert the paper-level guarantee:
//!
//! > **A racing conflict is reported by at least one participant.**
//!
//! Not "by every participant" (the winner of the install race
//! legitimately sees no conflict) and not "by a specific one" (that
//! is scheduling), but never zero: SeqCst ordering across the
//! shard words means at least one revalidation observes the other
//! install.
//!
//! The fenced-clear test covers the other half of the protocol: a
//! clear bumps the region epoch, so per-thread owned caches must
//! revalidate through the full sharded slow path — and doing so must
//! produce *no* false reports when the accesses themselves are
//! private.

use sharc_checker::{OwnedCache, ShadowGeometry};
use sharc_runtime::{ShardedShadow, ThreadId};
use sharc_testkit::sync::Mutex;
use sharc_testkit::BarrierSchedule;

/// Tids chosen to span shards under `for_threads(256)` (5 shards of
/// 63): shard 0, 1, 2, 3.
const CROSS_SHARD_TIDS: [u32; 4] = [1, 70, 140, 200];

const ROUNDS: usize = 400;

fn wide(granules: usize) -> ShardedShadow {
    ShardedShadow::with_geometry(granules, ShadowGeometry::for_threads(256))
}

#[test]
fn racing_cross_shard_writers_are_reported_at_least_once_per_round() {
    let shadow = wide(ROUNDS);
    let sched = BarrierSchedule::new(CROSS_SHARD_TIDS.len(), ROUNDS);
    // Each round races all four writers on a fresh granule (so no
    // round inherits state from the last).
    let out = sched.run(|ctx| {
        let tid = ThreadId(CROSS_SHARD_TIDS[ctx.thread]);
        ctx.stagger(200);
        shadow.check_write(ctx.round, tid).is_err()
    });
    for (r, row) in out.iter().enumerate() {
        let conflicts = row.iter().filter(|&&c| c).count();
        assert!(
            conflicts >= 1,
            "round {r}: {} cross-shard writers raced one granule and \
             nobody reported",
            row.len()
        );
    }
}

#[test]
fn racing_cross_shard_readers_and_writer_are_reported_at_least_once() {
    let shadow = wide(ROUNDS);
    let sched = BarrierSchedule::new(CROSS_SHARD_TIDS.len(), ROUNDS);
    // Thread 0 writes; the rest read from other shards. Whoever
    // loses the install race must observe the winner: a writer that
    // finds reader bits, or a reader that finds the writer flag.
    let out = sched.run(|ctx| {
        let tid = ThreadId(CROSS_SHARD_TIDS[ctx.thread]);
        ctx.stagger(200);
        if ctx.thread == 0 {
            shadow.check_write(ctx.round, tid).is_err()
        } else {
            shadow.check_read(ctx.round, tid).is_err()
        }
    });
    for (r, row) in out.iter().enumerate() {
        let conflicts = row.iter().filter(|&&c| c).count();
        assert!(
            conflicts >= 1,
            "round {r}: a write racing {} cross-shard reads went unreported",
            row.len() - 1
        );
    }
}

#[test]
fn fenced_clears_force_cache_revalidation_without_false_reports() {
    // Each participant owns one granule and re-touches it (cached)
    // every round; between rounds a fenced clear revokes one
    // victim's granule. The victim's next access must revalidate
    // through the sharded slow path — and the whole run must be
    // conflict-free, because every access really is private.
    let n = CROSS_SHARD_TIDS.len();
    let shadow = wide(n);
    let caches: Vec<Mutex<OwnedCache>> = (0..n).map(|_| Mutex::new(OwnedCache::new())).collect();
    let sched = BarrierSchedule::new(n, ROUNDS);
    let out = sched.run(|ctx| {
        let tid = ThreadId(CROSS_SHARD_TIDS[ctx.thread]);
        let mine = ctx.thread;
        // Phase A: everyone touches their own granule (a cache hit in
        // the steady state).
        let mut cache = caches[mine].lock();
        let a = shadow.check_write_cached(mine, tid, &mut cache).is_err();
        drop(cache);
        ctx.sync();
        // Phase B: participant 0 revokes one victim's granule. The
        // clear is fenced by the surrounding barriers, so it cannot
        // race the accesses — its effect on the epoch table is what
        // is under test, not the boundary ambiguity.
        if ctx.thread == 0 {
            shadow.clear(ctx.round % n);
        }
        ctx.sync();
        // Phase C: everyone touches their granule again. The victim's
        // cache entry is stale (its region epoch moved) and must
        // refill; nobody may report.
        let mut cache = caches[mine].lock();
        let c = shadow.check_write_cached(mine, tid, &mut cache).is_err();
        a || c
    });
    for (r, row) in out.iter().enumerate() {
        assert!(
            row.iter().all(|&c| !c),
            "round {r}: private re-acquisition after a fenced clear \
             was misreported as a conflict"
        );
    }
    // The clears really did reach the caches: every participant was
    // the victim ROUNDS / n times, and each revocation costs at
    // least one slow-path refill (the first fill costs one more).
    for (t, cache) in caches.iter().enumerate() {
        let c = cache.lock();
        assert!(
            c.misses as usize >= ROUNDS / n,
            "participant {t}: {} misses — the fenced clears never \
             invalidated its cache",
            c.misses
        );
        assert!(
            c.flushes >= 1,
            "participant {t}: no stale entry was ever discarded"
        );
    }
}

#[test]
fn wide_server_rounds() {
    // The stunnel geometry, one connection per round: an acceptor in
    // shard 0 initializes a handshake granule, casts it away (a
    // fenced clear), and a worker in *another shard* takes ownership
    // through its owned cache. A second fenced clear models the
    // connection teardown, so the worker's next touch must flush the
    // stale entry and refill through the sharded slow path. The whole
    // hand-off schedule is clean — zero reports — while a deliberate
    // all-writers race on a sibling granule closes every round and
    // must be reported at least once.
    let n = CROSS_SHARD_TIDS.len();
    let shadow = wide(2 * ROUNDS);
    let caches: Vec<Mutex<OwnedCache>> = (0..n).map(|_| Mutex::new(OwnedCache::new())).collect();
    let sched = BarrierSchedule::new(n, ROUNDS);
    let out = sched.run(|ctx| {
        let tid = ThreadId(CROSS_SHARD_TIDS[ctx.thread]);
        let handshake = 2 * ctx.round;
        let contended = 2 * ctx.round + 1;
        // The acceptor is participant 0; the connection's worker
        // rotates over the cross-shard rest.
        let worker = 1 + ctx.round % (n - 1);
        let mut clean = false;
        // Accept: private init, then the sharing cast.
        if ctx.thread == 0 {
            clean |= shadow.check_write(handshake, tid).is_err();
            shadow.clear(handshake);
        }
        ctx.sync();
        // Hand-off: the worker adopts the granule through its cache.
        if ctx.thread == worker {
            let mut cache = caches[ctx.thread].lock();
            clean |= shadow
                .check_read_cached(handshake, tid, &mut cache)
                .is_err();
            clean |= shadow
                .check_write_cached(handshake, tid, &mut cache)
                .is_err();
        }
        ctx.sync();
        // Teardown: the fenced clear revokes the worker's ownership.
        if ctx.thread == 0 {
            shadow.clear(handshake);
        }
        ctx.sync();
        // Reuse: the worker's cache entry is stale and must refill —
        // still private, still silent.
        if ctx.thread == worker {
            let mut cache = caches[ctx.thread].lock();
            clean |= shadow
                .check_write_cached(handshake, tid, &mut cache)
                .is_err();
        }
        ctx.sync();
        // The racing coda: every participant writes the sibling
        // granule unguarded.
        ctx.stagger(200);
        let raced = shadow.check_write(contended, tid).is_err();
        (clean, raced)
    });
    for (r, row) in out.iter().enumerate() {
        assert!(
            row.iter().all(|&(clean, _)| !clean),
            "round {r}: the fenced hand-off schedule produced a false report"
        );
        let raced = row.iter().filter(|&&(_, raced)| raced).count();
        assert!(
            raced >= 1,
            "round {r}: {} cross-shard writers raced one granule and \
             nobody reported",
            row.len()
        );
    }
    // Cache-economics lower bounds: each worker served ROUNDS / (n-1)
    // connections; every connection costs a fill miss plus a
    // post-teardown flush-and-refill.
    for (t, slot) in caches.iter().enumerate().skip(1) {
        let cache = slot.lock();
        let served = ROUNDS / (n - 1);
        assert!(
            cache.misses as usize >= 2 * served,
            "worker {t}: {} misses for {served} connections — the \
             hand-offs never went through the slow path",
            cache.misses
        );
        assert!(
            cache.flushes as usize >= served,
            "worker {t}: {} flushes for {served} teardowns — stale \
             ownership was never discarded",
            cache.flushes
        );
    }
}
