//! Self-healing tests: crashed workers are respawned (and counted), and
//! the runs around a crash still complete with the exact value.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use bds_pool::Pool;

/// Serializes the tests in this binary: they read process-global state
/// (`recovery_counts`) and count the threads and respawns of their
/// pool, which a sibling test's load would perturb.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// How many distinct OS threads run the blocks of one sizable `apply`.
fn threads_used(pool: &Pool) -> usize {
    let seen = Mutex::new(std::collections::HashSet::new());
    pool.install(|| {
        bds_pool::apply(4096, |_| {
            std::hint::black_box((0..200).sum::<u64>());
            seen.lock().unwrap().insert(std::thread::current().id());
        })
    });
    let n = seen.lock().unwrap().len();
    n
}

#[test]
fn crashed_worker_is_respawned_and_parallelism_recovers() {
    let _serial = serial();
    let pool = Pool::new(2);
    assert_eq!(pool.stats().respawns, 0);

    // Healthy warm-up.
    let count = AtomicUsize::new(0);
    pool.install(|| {
        bds_pool::apply(100, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        })
    });
    assert_eq!(count.load(Ordering::Relaxed), 100);

    pool.inject_worker_crash(0);
    wait_for(|| pool.stats().respawns == 1, "worker respawn");

    // The next run must complete, with both workers participating.
    wait_for(|| threads_used(&pool) == 2, "full parallelism after respawn");
    let count = AtomicUsize::new(0);
    pool.install(|| {
        bds_pool::apply(1000, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        })
    });
    assert_eq!(count.load(Ordering::Relaxed), 1000);
    assert_eq!(pool.stats().respawns, 1);
}

#[test]
fn repeated_crashes_keep_the_pool_alive() {
    let _serial = serial();
    let pool = Pool::new(2);
    for round in 1..=3u64 {
        pool.inject_worker_crash((round as usize) % 2);
        wait_for(|| pool.stats().respawns == round, "worker respawn");
        let total: u64 = pool.install(|| {
            bds_pool::parallel_reduce(
                10_000,
                64,
                0u64,
                &|lo, hi| (lo..hi).map(|i| i as u64).sum(),
                &|a, b| a + b,
            )
        });
        assert_eq!(total, 9_999u64 * 10_000 / 2);
    }
    // Drop with respawned workers outstanding must shut down cleanly.
}

#[test]
fn crash_mid_run_still_completes_the_run() {
    let _serial = serial();
    let pool = Pool::new(2);
    let count = AtomicUsize::new(0);
    pool.install(|| {
        bds_pool::apply(20_000, |i| {
            if i == 64 {
                // Crash a worker while blocks are still queued. The
                // other worker (or the respawned one) finishes the job:
                // the crashing worker dies *between* jobs, never while
                // holding one.
                pool.inject_worker_crash(1);
            }
            std::hint::black_box((0..100).sum::<u64>());
            count.fetch_add(1, Ordering::Relaxed);
        })
    });
    assert_eq!(count.load(Ordering::Relaxed), 20_000);
    wait_for(|| pool.stats().respawns == 1, "worker respawn");
}

#[test]
fn crash_during_block_retry_still_converges() {
    let _serial = serial();
    let pool = Pool::new(2);
    let before = bds_pool::recovery_counts();

    // One block panics on its first attempt; its retry (attempt 2)
    // crashes a worker before computing normally. The crash and the
    // retry must both resolve independently: the respawned worker
    // rejoins, the retried block lands in its reserved region, and the
    // job's value is bit-equal to the fault-free sum.
    let fired = AtomicUsize::new(0);
    let want: u64 = (0..4096u64).sum();
    let got = pool.install(|| {
        bds_pool::run_recovered(bds_pool::RetryPolicy::default(), || {
            bds_pool::parallel_reduce(
                4096,
                64,
                0u64,
                &|lo, hi| {
                    bds_pool::recover_block(lo / 64, || {
                        if lo == 1024 {
                            match fired.fetch_add(1, Ordering::SeqCst) {
                                0 => panic!("resilience: injected transient block fault"),
                                1 => pool.inject_worker_crash(1),
                                _ => {}
                            }
                        }
                        (lo..hi).map(|i| i as u64).sum()
                    })
                },
                &|a, b| a + b,
            )
        })
    });
    assert_eq!(got, Ok(want));
    assert_eq!(fired.load(Ordering::SeqCst), 2, "fault fired, retry ran once");

    let d = bds_pool::recovery_counts().saturating_sub(&before);
    assert!(d.block_retries >= 1, "retry must be counted: {d:?}");
    assert!(d.recovered_jobs >= 1, "salvaged job must be counted: {d:?}");
    assert_eq!(d.quarantines, 0, "transient fault must not quarantine: {d:?}");
    wait_for(|| pool.stats().respawns == 1, "worker respawn");

    // The pool stays healthy after the crash-during-retry episode.
    wait_for(|| threads_used(&pool) == 2, "full parallelism after respawn");
}

#[test]
fn heartbeats_advance() {
    let _serial = serial();
    let pool = Pool::new(2);
    pool.install(|| bds_pool::apply(64, |_| {}));
    let stats = pool.stats();
    assert!(
        stats.workers.iter().any(|w| w.heartbeats > 0),
        "at least one worker must have iterated its main loop: {stats:?}"
    );
}
