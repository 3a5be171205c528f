//! Root jobs: what `spawn` and a cross-thread `install` inject.
//!
//! Two properties are pinned here:
//!
//! * **Spawned jobs run.** Every `spawn` runs exactly once, including a
//!   chain of jobs that spawn their successors through a `Spawner` and
//!   jobs still queued when the pool is dropped: the teardown drain
//!   runs them on the dropping thread instead of leaking them.
//! * **Roots start clean.** A worker waiting on a join latch may run an
//!   injected job nested inside another job. Neither a spawned job nor
//!   an installed one may inherit that job's ambient token, and with it
//!   a budget or a retry context.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bds_pool::Pool;

#[test]
fn spawned_jobs_run_and_wake_latches() {
    use bds_pool::{AsyncLatch, Latch};
    use std::sync::Arc;

    let pool = Pool::new(2);
    let hits = Arc::new(AtomicUsize::new(0));
    let latches: Vec<Arc<AsyncLatch>> =
        (0..64).map(|_| Arc::new(AsyncLatch::new())).collect();
    for latch in &latches {
        let latch = Arc::clone(latch);
        let hits = Arc::clone(&hits);
        pool.spawn(move || {
            hits.fetch_add(1, Ordering::SeqCst);
            latch.set();
        });
    }
    for latch in &latches {
        latch.wait();
    }
    assert_eq!(hits.load(Ordering::SeqCst), 64);
}

/// A job can spawn its successor through a `Spawner`, and dropping the
/// pool still runs the whole chain: a worker exits only once it finds
/// no work, and the teardown drain runs whatever the workers left,
/// including jobs spawned by drained jobs.
#[test]
fn chains_of_spawned_jobs_finish_before_drop_returns() {
    use bds_pool::Spawner;
    use std::sync::Arc;

    fn link(spawner: Spawner, left: usize, ran: Arc<AtomicUsize>) {
        ran.fetch_add(1, Ordering::SeqCst);
        if left > 0 {
            let next = spawner.clone();
            spawner.spawn(move || link(next, left - 1, ran));
        }
    }

    let ran = Arc::new(AtomicUsize::new(0));
    {
        let pool = Pool::new(2);
        let (spawner, ran) = (pool.spawner(), Arc::clone(&ran));
        pool.spawn(move || link(spawner, 999, ran));
    }
    assert_eq!(ran.load(Ordering::SeqCst), 1000);
}

#[test]
fn spawned_jobs_left_at_drop_still_run() {
    use std::sync::Arc;

    // A 1-thread pool wedged by a blocking install cannot pick up the
    // spawn before drop; the teardown drain must run it instead of
    // leaking it.
    let ran = Arc::new(AtomicUsize::new(0));
    {
        let pool = Pool::new(1);
        let gate = Arc::new(AtomicUsize::new(0));
        let (gate2, ran2) = (Arc::clone(&gate), Arc::clone(&ran));
        std::thread::scope(|s| {
            s.spawn({
                let pool = &pool;
                let gate = Arc::clone(&gate);
                move || {
                    pool.install(move || {
                        gate.store(1, Ordering::SeqCst);
                        // Wedge until the spawn below is queued.
                        while gate.load(Ordering::SeqCst) != 2 {
                            std::hint::spin_loop();
                        }
                    });
                }
            });
            while gate2.load(Ordering::SeqCst) == 0 {
                std::hint::spin_loop();
            }
            pool.spawn(move || {
                ran2.fetch_add(1, Ordering::SeqCst);
            });
            gate2.store(2, Ordering::SeqCst);
        });
        // Pool drops here. The spawn may have been picked up by the
        // worker after the install finished, or left for the teardown
        // drain — either way it must run exactly once.
    }
    assert_eq!(ran.load(Ordering::SeqCst), 1);
}

/// Spin until `flag` is set, for at most 10 s.
fn wait_for(flag: &AtomicBool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !flag.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "the other half never ran");
        std::hint::spin_loop();
    }
}

/// A worker waiting on a join latch helps by running other work, which
/// includes jobs spawned into the injector. A spawned job is a root of
/// its own: it must not run under the ambient token of the job it
/// happens to be nested in, or that job's deadline (or failure) would
/// cancel it too, and it would inherit that job's budget and retry
/// context.
#[test]
fn spawned_jobs_never_inherit_a_helping_workers_token() {
    use std::sync::Arc;

    let pool = Pool::new(2);
    let token = bds_pool::CancelToken::new();
    let stolen = AtomicBool::new(false);
    let ran = Arc::new(AtomicBool::new(false));
    let inherited = Arc::new(AtomicBool::new(false));
    pool.install(|| {
        bds_pool::with_token(&token, || {
            bds_pool::apply(2, |j| {
                if j == 0 {
                    // Block 1 now occupies the other worker, so only this
                    // worker, waiting for block 1, can run the spawn.
                    wait_for(&stolen);
                    let (ran, inherited) = (Arc::clone(&ran), Arc::clone(&inherited));
                    pool.spawn(move || {
                        inherited.store(
                            bds_pool::cancel::current_token().is_some(),
                            Ordering::SeqCst,
                        );
                        ran.store(true, Ordering::SeqCst);
                    });
                } else {
                    stolen.store(true, Ordering::SeqCst);
                    wait_for(&ran);
                }
            })
        })
    });
    assert!(ran.load(Ordering::SeqCst));
    assert!(
        !inherited.load(Ordering::SeqCst),
        "a spawned job ran under the token of the job it was nested in"
    );
}

/// The same holds for an `install` from another thread: its job is
/// injected, so a worker waiting on a join latch may run it nested
/// inside another job, and it must not inherit that job's token.
#[test]
fn installed_roots_never_inherit_a_helping_workers_token() {
    let pool = Pool::new(2);
    let token = bds_pool::CancelToken::new();
    let stolen = AtomicBool::new(false);
    let ran = AtomicBool::new(false);
    let inherited = std::thread::scope(|s| {
        let nested = s.spawn(|| {
            // Block 1 occupies one worker, so only the other one can run
            // this: once block 0 returns, while it waits for block 1.
            wait_for(&stolen);
            let inherited = pool.install(|| bds_pool::cancel::current_token().is_some());
            ran.store(true, Ordering::SeqCst);
            inherited
        });
        pool.install(|| {
            bds_pool::with_token(&token, || {
                bds_pool::apply(2, |j| {
                    if j == 0 {
                        wait_for(&stolen);
                    } else {
                        stolen.store(true, Ordering::SeqCst);
                        wait_for(&ran);
                    }
                })
            })
        });
        nested.join().unwrap()
    });
    assert!(ran.load(Ordering::SeqCst));
    assert!(
        !inherited,
        "an installed job ran under the token of the job it was nested in"
    );
}
