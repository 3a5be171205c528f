//! Scheduler-statistics invariants: acquisition counts balance executed
//! jobs, snapshot deltas isolate regions of interest, and cancellation
//! does not corrupt the accounting.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bds_pool::{apply, apply_cancellable, Pool};

/// Enough fine-grained jobs that every worker of a small pool must both
/// execute work and probe peers. Block 0 waits, for at most 10 s, until
/// some block has run on another worker: the blocks are too cheap for a
/// parked peer to wake before the installing worker has run them all,
/// so without the wait whether anything is stolen depends on the host's
/// speed.
fn churn(pool: &Pool, n: usize) {
    let threads = Mutex::new(HashSet::new());
    pool.install(|| {
        apply(n, |i| {
            threads.lock().unwrap().insert(std::thread::current().id());
            if i == 0 {
                let deadline = Instant::now() + Duration::from_secs(10);
                while threads.lock().unwrap().len() < 2 && Instant::now() < deadline {
                    std::hint::spin_loop();
                }
            }
            std::hint::black_box((0..500u64).sum::<u64>());
        })
    });
}

#[test]
fn acquisitions_balance_jobs_executed() {
    let pool = Pool::new(4);
    churn(&pool, 3000);
    let total = pool.stats().total();
    assert!(total.jobs_executed > 0, "no jobs recorded");
    assert_eq!(
        total.jobs_found(),
        total.jobs_executed,
        "local_pops + injector_pops + steals must equal jobs executed \
         in quiescence: {total:?}"
    );
}

#[test]
fn parallel_work_actually_steals() {
    let pool = Pool::new(4);
    churn(&pool, 5000);
    let total = pool.stats().total();
    // The root job is injected and split via join; peers can only get
    // work by stealing, so a multi-worker pool with thousands of tasks
    // must record steals.
    assert!(total.steals > 0, "expected steals: {total:?}");
    assert!(total.injector_pops >= 1, "install goes through the injector");
}

#[test]
fn per_worker_snapshots_cover_all_workers() {
    let pool = Pool::new(3);
    churn(&pool, 4000);
    let stats = pool.stats();
    assert_eq!(stats.num_threads(), 3);
    let busy = stats.workers.iter().filter(|w| w.jobs_executed > 0).count();
    assert!(busy >= 2, "work should spread: {:?}", stats.workers);
}

#[test]
fn stats_snapshot_delta_between_regions() {
    let pool = Pool::new(2);
    churn(&pool, 1000);
    let before = pool.stats();
    churn(&pool, 1000);
    let delta = pool.stats().since(&before).total();
    assert!(delta.jobs_executed > 0);
    assert_eq!(delta.jobs_found(), delta.jobs_executed);
}

#[test]
fn cancellation_does_not_corrupt_counters() {
    let pool = Pool::new(4);
    let ran = AtomicUsize::new(0);
    let outcome = pool.install(|| {
        apply_cancellable(4000, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            std::hint::black_box((0..200u64).sum::<u64>());
            // The first index fails, cancelling the region: siblings stop
            // at their next chunk boundary and skipped chunks never run.
            if i == 0 {
                Err("boom")
            } else {
                Ok(())
            }
        })
    });
    assert_eq!(outcome, Err("boom"));
    let total = pool.stats().total();
    assert!(
        total.jobs_executed > 0,
        "the cancelled region still executed its early jobs"
    );
    assert_eq!(
        total.jobs_found(),
        total.jobs_executed,
        "cancellation must not break the accounting: {total:?}"
    );
    // Pool stays healthy and keeps counting after cancellation.
    churn(&pool, 500);
    let after = pool.stats().total();
    assert!(after.jobs_executed > total.jobs_executed);
    assert_eq!(after.jobs_found(), after.jobs_executed);
}

#[test]
fn idle_pool_accumulates_park_time() {
    let pool = Pool::new(2);
    // Give the workers a moment with nothing to do.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let total = pool.stats().total();
    assert!(total.parks > 0, "idle workers must park: {total:?}");
    assert!(total.idle_ns > 0, "parked time must accumulate");
}
