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
//! install. The ranged variant puts the own-word `recorded` test —
//! a ranged sweep's way of skipping granules the thread already
//! owns — on the same racing schedule.
//!
//! The fenced-clear tests cover the other half of the protocol: a
//! clear resets a granule's words, so a thread that owned it must
//! re-install through the full sharded slow path — and doing so must
//! produce *no* false reports when the accesses themselves are
//! private.

use sharc_checker::ShadowGeometry;
use sharc_runtime::{ShardedShadow, ThreadId};
use sharc_testkit::BarrierSchedule;

/// Tids chosen to span shards under `for_threads(256)` (5 shards of
/// 63): shard 0, 1, 2, 3.
const CROSS_SHARD_TIDS: [u32; 4] = [1, 70, 140, 200];

/// A tid in the fifth shard, outside the racing roster.
const FIFTH_SHARD_TID: ThreadId = ThreadId(260);

const ROUNDS: usize = 400;

fn wide(granules: usize) -> ShardedShadow {
    ShardedShadow::with_geometry(granules, ShadowGeometry::for_threads(256))
}

/// A ranged `chkwrite` over `start .. start + len`: (newly installed
/// granules, conflicting granules).
fn sweep_write(s: &ShardedShadow, start: usize, len: usize, tid: ThreadId) -> (usize, usize) {
    let mut newly = 0;
    let conflicts = s.check_range_write(start, len, tid, |_| newly += 1, |_| {});
    (newly, conflicts)
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
fn racing_cross_shard_ranged_sweeps_are_reported_at_least_once_per_round() {
    // Each round the four cross-shard tids race a ranged chkwrite over
    // a fresh two-granule run, then each sweeps it again — a re-sweep
    // skips whatever its own shard word already records, so it reports
    // only granules the first sweep reported and did not install (a
    // lost race whose install stands is reported once). After a fence,
    // a fifth-shard tid writes into the raced run: every granule kept
    // at least one racer's install, so that write must conflict.
    let shadow = wide(2 * ROUNDS);
    let sched = BarrierSchedule::new(CROSS_SHARD_TIDS.len(), ROUNDS);
    let out = sched.run(|ctx| {
        let tid = ThreadId(CROSS_SHARD_TIDS[ctx.thread]);
        let run = 2 * ctx.round;
        ctx.stagger(200);
        let (_, raced) = sweep_write(&shadow, run, 2, tid);
        let (_, resweep) = sweep_write(&shadow, run, 2, tid);
        ctx.sync();
        let fifth = ctx.thread == 0
            && shadow
                .check_write(run + ctx.round % 2, FIFTH_SHARD_TID)
                .is_err();
        (raced, resweep, fifth)
    });
    for (r, row) in out.iter().enumerate() {
        let reports: usize = row.iter().map(|&(n, m, _)| n + m).sum();
        assert!(
            reports >= 1,
            "round {r}: {} cross-shard sweeps raced one run and nobody reported",
            row.len()
        );
        for (t, &(raced, resweep, _)) in row.iter().enumerate() {
            assert!(
                resweep <= raced,
                "round {r}: participant {t}'s re-sweep reported {resweep} granules, \
                 more than the {raced} its racing sweep reported"
            );
        }
        assert!(
            row[0].2,
            "round {r}: a fenced fifth-shard write into the raced run went unreported"
        );
    }
}

#[test]
fn fenced_clears_force_revalidation_without_false_reports() {
    // Each participant owns a two-granule run and re-touches it every
    // round, by a plain check and by a ranged sweep; between rounds a
    // fenced clear revokes one victim's run. The victim's next sweep
    // must re-install through the sharded slow path — and the whole
    // run must be conflict-free, because every access really is
    // private.
    let n = CROSS_SHARD_TIDS.len();
    let shadow = wide(2 * n);
    let sched = BarrierSchedule::new(n, ROUNDS);
    let out = sched.run(|ctx| {
        let tid = ThreadId(CROSS_SHARD_TIDS[ctx.thread]);
        let mine = 2 * ctx.thread;
        // Phase A: everyone touches their own run.
        let mut reported = shadow.check_write(mine, tid).is_err();
        reported |= sweep_write(&shadow, mine, 2, tid).1 != 0;
        ctx.sync();
        // Phase B: participant 0 revokes one victim's run. The clear
        // is fenced by the surrounding barriers, so it cannot race the
        // accesses — its effect on the words is what is under test,
        // not the boundary ambiguity.
        if ctx.thread == 0 {
            shadow.clear_range(2 * (ctx.round % n), 2);
        }
        ctx.sync();
        // Phase C: everyone sweeps their run again; only the victim
        // re-installs, and nobody may report.
        let (newly, conflicts) = sweep_write(&shadow, mine, 2, tid);
        reported |= conflicts != 0 || shadow.check_write(mine + 1, tid).is_err();
        (reported, newly)
    });
    for (r, row) in out.iter().enumerate() {
        assert!(
            row.iter().all(|&(reported, _)| !reported),
            "round {r}: private re-acquisition after a fenced clear \
             was misreported as a conflict"
        );
        let victim = r % n;
        for (t, &(_, newly)) in row.iter().enumerate() {
            let want = if t == victim { 2 } else { 0 };
            assert_eq!(
                newly, want,
                "round {r}: participant {t} re-installed {newly} granules"
            );
        }
    }
}

#[test]
fn wide_server_rounds() {
    // The stunnel geometry, one connection per round: an acceptor in
    // shard 0 initializes a two-granule handshake run, casts it away
    // (a fenced clear), and a worker in *another shard* takes
    // ownership with a ranged read and a plain write. A second fenced
    // clear models the connection teardown, so the worker's next
    // sweep must re-install through the sharded slow path. The whole
    // hand-off schedule is clean — zero reports — while a deliberate
    // all-writers race on a sibling granule closes every round and
    // must be reported at least once.
    let n = CROSS_SHARD_TIDS.len();
    let shadow = wide(3 * ROUNDS);
    let sched = BarrierSchedule::new(n, ROUNDS);
    let out = sched.run(|ctx| {
        let tid = ThreadId(CROSS_SHARD_TIDS[ctx.thread]);
        let handshake = 3 * ctx.round;
        let contended = 3 * ctx.round + 2;
        // The acceptor is participant 0; the connection's worker
        // rotates over the cross-shard rest.
        let worker = 1 + ctx.round % (n - 1);
        let mut clean = false;
        // Accept: private init, then the sharing cast.
        if ctx.thread == 0 {
            clean |= sweep_write(&shadow, handshake, 2, tid).1 != 0;
            shadow.clear_range(handshake, 2);
        }
        ctx.sync();
        // Hand-off: the worker adopts the run.
        if ctx.thread == worker {
            clean |= shadow.check_range_read(handshake, 2, tid, |_| {}, |_| {}) != 0;
            clean |= shadow.check_write(handshake, tid).is_err();
            clean |= shadow.check_write(handshake + 1, tid).is_err();
        }
        ctx.sync();
        // Teardown: the fenced clear revokes the worker's ownership.
        if ctx.thread == 0 {
            shadow.clear_range(handshake, 2);
        }
        ctx.sync();
        // Reuse: the worker's run is gone and must re-install —
        // still private, still silent.
        if ctx.thread == worker {
            clean |= sweep_write(&shadow, handshake, 2, tid).1 != 0;
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
}
