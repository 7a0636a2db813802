//! Bench comparing the paper's bitmap shadow encoding (exact, 8n-1
//! threads in n bytes) against the scalable adaptive encoding
//! (§4.2.1 future work: unbounded thread ids in 8 bytes — the sharded
//! protocol under a zero-shard geometry).
//!
//! Runs on the sharc-testkit bench harness (`harness = false`);
//! results land in `target/BENCH_shadow.json`.

use sharc_checker::ShadowGeometry;
use sharc_runtime::{Shadow, ShardedShadow, ThreadId};
use sharc_testkit::Bench;

const GRANULES: usize = 4096;

fn main() {
    let mut g = Bench::new("shadow");
    g.sample_size(20);

    {
        let s: Shadow = Shadow::new(GRANULES);
        let t = ThreadId(1);
        g.bench("bitmap/read-hot", || {
            for i in 0..GRANULES {
                let _ = s.check_read(i, t);
            }
        });
    }
    {
        let s = ShardedShadow::with_geometry(GRANULES, ShadowGeometry::adaptive_only());
        let t = ThreadId(1);
        g.bench("scalable/read-hot", || {
            for i in 0..GRANULES {
                let _ = s.check_read(i, t);
            }
        });
    }
    {
        let s: Shadow = Shadow::new(GRANULES);
        let t = ThreadId(1);
        g.bench("bitmap/write-hot", || {
            for i in 0..GRANULES {
                let _ = s.check_write(i, t);
            }
        });
    }
    {
        let s = ShardedShadow::with_geometry(GRANULES, ShadowGeometry::adaptive_only());
        let t = ThreadId(1);
        g.bench("scalable/write-hot", || {
            for i in 0..GRANULES {
                let _ = s.check_write(i, t);
            }
        });
    }
    g.finish();
}
