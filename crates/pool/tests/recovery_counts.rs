//! Deltas of the process-global `recovery_counts()`. Every retry or
//! quarantine in the process moves these counters, so the checks live
//! in one test of their own binary: no other test runs beside them.

use std::sync::atomic::{AtomicUsize, Ordering};

use bds_pool::{
    apply, recover_block, recovery_counts, run_recovered, BlockFailed, Pool, RetryPolicy,
};

#[test]
fn recovery_counts_track_retries_and_quarantines() {
    // A transient block fault is retried once and recovered.
    let pool = Pool::new(2);
    let before = recovery_counts();
    let failures_left = AtomicUsize::new(1);
    let runs = AtomicUsize::new(0);
    let r = pool.install(|| {
        run_recovered(RetryPolicy::default(), || {
            let total = AtomicUsize::new(0);
            apply(8, |j| {
                recover_block(j, || {
                    if j == 3
                        && failures_left
                            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                            .is_ok()
                    {
                        panic!("transient fault at block 3");
                    }
                    runs.fetch_add(1, Ordering::SeqCst);
                    total.fetch_add(j, Ordering::SeqCst);
                })
            });
            total.load(Ordering::SeqCst)
        })
    });
    assert_eq!(r, Ok((0..8).sum()));
    assert_eq!(
        runs.load(Ordering::SeqCst),
        8,
        "every block ran to completion once"
    );
    let d = recovery_counts().saturating_sub(&before);
    assert_eq!(d.block_retries, 1);
    assert_eq!(d.quarantines, 0);
    assert_eq!(d.recovered_jobs, 1);

    // A deterministic fault quarantines after max_attempts.
    let pool = Pool::new(2);
    let before = recovery_counts();
    let attempts = AtomicUsize::new(0);
    let r: Result<(), BlockFailed> = pool.install(|| {
        run_recovered(RetryPolicy::default().with_max_attempts(3), || {
            apply(8, |j| {
                recover_block(j, || {
                    if j == 5 {
                        attempts.fetch_add(1, Ordering::SeqCst);
                        panic!("always fails");
                    }
                })
            });
        })
    });
    assert_eq!(
        r,
        Err(BlockFailed {
            ordinal: 5,
            attempts: 3
        })
    );
    assert_eq!(
        attempts.load(Ordering::SeqCst),
        3,
        "exactly max_attempts executions"
    );
    let d = recovery_counts().saturating_sub(&before);
    assert_eq!(d.quarantines, 1);
    assert_eq!(d.block_retries, 2, "two re-executions before quarantine");
    assert_eq!(d.recovered_jobs, 0, "a quarantined run is not a recovery");
    // The pool survives; no panic escaped.
    assert_eq!(pool.install(|| 5), 5);
}
