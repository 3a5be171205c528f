//! Admission-control accounting under concurrency and panics.
//!
//! Two properties are pinned here:
//!
//! * **Conservation at the cap boundary.** With many threads racing
//!   `install` against a small `max_inflight` cap, every submission is
//!   either admitted or shed — `admitted + shed == submissions`, the
//!   pool's `sheds` counter agrees with the callers' own observations,
//!   and the strict (CAS) cap means the number of *concurrently
//!   admitted* closures never exceeds the cap.
//! * **Panic-safe gauges.** Both the admitted and the degraded (shed)
//!   execution path hold their in-flight gauge with an RAII guard, so a
//!   panicking closure leaves both gauges at zero — the bug this guards
//!   against is a shed submission leaking its slot on unwind and
//!   eventually wedging admission shut.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use bds_pool::Pool;

/// Race `threads * per_thread` installs against a cap of `cap` on a
/// pool of `width` workers, and check the conservation law.
fn race_at_cap(width: usize, cap: usize) {
    let pool = Pool::with_max_inflight(width, cap);
    let threads = 8;
    let per_thread = 40;

    let admitted = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    let concurrent = AtomicUsize::new(0);
    let high_water = AtomicUsize::new(0);
    let barrier = Barrier::new(threads);

    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                barrier.wait();
                for _ in 0..per_thread {
                    pool.install(|| {
                        if bds_pool::running_degraded() {
                            shed.fetch_add(1, Ordering::SeqCst);
                        } else {
                            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                            high_water.fetch_max(now, Ordering::SeqCst);
                            admitted.fetch_add(1, Ordering::SeqCst);
                            // Hold the slot briefly so racers pile up at
                            // the boundary.
                            std::thread::sleep(Duration::from_micros(50));
                            concurrent.fetch_sub(1, Ordering::SeqCst);
                        }
                    });
                }
            });
        }
    });

    let admitted = admitted.load(Ordering::SeqCst);
    let shed = shed.load(Ordering::SeqCst);
    let submissions = threads * per_thread;

    // Conservation: every submission took exactly one path.
    assert_eq!(
        admitted + shed,
        submissions,
        "admitted ({admitted}) + shed ({shed}) != submissions ({submissions})"
    );
    // The pool's own shed counter agrees with what the closures saw.
    assert_eq!(pool.stats().sheds, shed as u64, "sheds counter disagrees");
    // The CAS cap is strict: concurrently admitted closures never
    // exceeded it.
    assert!(
        high_water.load(Ordering::SeqCst) <= cap,
        "cap {cap} overshot: {} concurrent admitted closures",
        high_water.load(Ordering::SeqCst)
    );
    // Quiescent pool: both gauges are back to zero.
    assert_eq!(pool.inflight(), 0);
    assert_eq!(pool.degraded_inflight(), 0);
}

#[test]
fn admit_race_at_cap_width_2() {
    race_at_cap(2, 2);
}

#[test]
fn admit_race_at_cap_width_max() {
    let width = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .max(2);
    race_at_cap(width, 2);
}

#[test]
fn admit_race_at_cap_one() {
    // The tightest boundary: a single slot.
    race_at_cap(2, 1);
}

/// Park one install inside the pool so the (cap = 1) slot is taken,
/// then run `blocked` on another thread and return its result.
fn with_slot_held<R: Send>(
    pool: &Pool,
    blocked: impl FnOnce() -> R + Send,
) -> R {
    let hold = AtomicUsize::new(0);
    let release = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let (hold_ref, release_ref) = (&hold, &release);
        s.spawn(move || {
            pool.install(|| {
                hold_ref.store(1, Ordering::SeqCst);
                while release_ref.load(Ordering::SeqCst) == 0 {
                    std::hint::spin_loop();
                }
            });
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while hold.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "holder never started");
            std::hint::spin_loop();
        }
        let result = blocked();
        release.store(1, Ordering::SeqCst);
        result
    })
}

#[test]
fn shed_panic_decrements_degraded_inflight() {
    let pool = Pool::with_max_inflight(2, 1);
    with_slot_held(&pool, || {
        // The slot is taken: this install sheds, runs degraded, and
        // panics. The gauge must still come back to zero.
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                assert!(bds_pool::running_degraded(), "expected the shed path");
                panic!("degraded closure exploded");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(
            pool.degraded_inflight(),
            0,
            "shed path leaked its in-flight slot on panic"
        );
        assert_eq!(pool.stats().sheds, 1);
    });
    // After the holder finishes, the admitted gauge is balanced too.
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool.inflight() != 0 {
        assert!(Instant::now() < deadline, "admitted gauge never cleared");
        std::hint::spin_loop();
    }
}

#[test]
fn admitted_panic_decrements_inflight() {
    let pool = Pool::with_max_inflight(2, 4);
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| {
            assert!(!bds_pool::running_degraded());
            panic!("admitted closure exploded");
        })
    }));
    assert!(unwound.is_err());
    assert_eq!(pool.inflight(), 0, "admitted path leaked its slot on panic");
    assert_eq!(pool.degraded_inflight(), 0);
    // The pool is still usable.
    assert_eq!(pool.install(|| 5), 5);
}

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
