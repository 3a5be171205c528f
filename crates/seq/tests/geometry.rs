//! Geometry is solved at *consumption*, under the consuming pool:
//! building a pipeline must not spawn the global pool, and a sequence
//! holds no block size, so the same sequence consumed under two pools
//! is cut for each. Only a scan keeps the size its seeds were solved
//! for.
//!
//! The pool checks need a process with no pool when the pipeline is
//! built, so this binary holds no other pipelines.

use std::sync::atomic::{AtomicUsize, Ordering};

use bds_cost::Calibration;
use bds_seq::prelude::*;

#[test]
fn each_consumption_solves_under_its_own_pool() {
    let _policy = bds_seq::set_policy(bds_seq::Policy::Adaptive);
    let _cal = bds_cost::override_calibration(Calibration {
        ns_per_work: 1.0,
        block_overhead_ns: 1500.0,
    });
    // Build a pipeline with NO pool anywhere: must not spawn one.
    let n = 1usize << 20;
    let s = tabulate(n, |i| i as u64).map(|x| x + 1);
    assert_eq!(s.len(), n);
    assert!(
        !bds_pool::global_pool_exists(),
        "constructing a delayed pipeline must not spawn the global pool"
    );

    // Consume the same value under a 1-worker and then a 4-worker pool:
    // each consumption puts its own question to the solver. (Seeded
    // pools report their full width, so the answers are fixed.)
    let rec = bds_cost::record_geometry();
    for p in [1, 4] {
        let pool = bds_pool::Pool::new_seeded(p, 7);
        let sum = pool.install(|| s.reduce(0, |a, b| a + b));
        assert_eq!(sum, (1..=n as u64).sum::<u64>());
    }
    let decisions: Vec<(usize, usize)> = bds_cost::recorded_geometry()
        .into_iter()
        .filter(|d| d.len == n)
        .map(|d| (d.workers, d.num_blocks))
        .collect();
    drop(rec);
    assert_eq!(
        decisions,
        [(1, 8), (4, 32)],
        "a sequence consumed twice is solved twice, under each pool"
    );

    // Consuming under explicit pools must not have touched the global
    // one either.
    assert!(
        !bds_pool::global_pool_exists(),
        "consuming under an explicit pool must not spawn the global pool"
    );
}

#[test]
fn eager_phases_still_run_where_invoked() {
    // scan's phases 1-2 are eager: they run (and solve geometry)
    // wherever .scan() is called, so its seeds match the pool in effect
    // *there*. The delayed phase 3 then replays that block size even if
    // consumed elsewhere.
    let pool = bds_pool::Pool::new(2);
    let evals = AtomicUsize::new(0);
    let (scanned, total) = pool.install(|| {
        tabulate(100_000, |_| {
            evals.fetch_add(1, Ordering::Relaxed);
            1u64
        })
        .scan(0, |a, b| a + b)
    });
    assert_eq!(evals.load(Ordering::Relaxed), 100_000, "phases 1-2 ran eagerly");
    assert_eq!(total, 100_000);
    let fixed = scanned.fixed_block_size();
    assert!(fixed.is_some(), "a scan fixes its block size");
    // Consume under a different pool: results stay correct because the
    // seed array and the block size were fixed together.
    let other = bds_pool::Pool::new(4);
    let v = other.install(|| scanned.to_vec());
    assert_eq!(scanned.fixed_block_size(), fixed);
    assert_eq!(v[12_345], 12_345);
    assert_eq!(v.len(), 100_000);
}
