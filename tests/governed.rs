//! Resource-governance acceptance tests: a pipeline run under a
//! [`Budget`] must refuse to exceed it — returning [`Exceeded`] instead
//! of a partial result, within a bounded latency of the trip, and
//! without leaking a byte of what it had materialized.
//!
//! The counting global allocator makes the no-leak claims exact, so the
//! tests serialize on one mutex (allocator counters are process-global).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bds_metrics::{heap_stats, CountingAlloc};
use bds_pool::{Budget, Exceeded, Pool};
use bds_seq::prelude::*;
use bds_seq::sources::Forced;
use bds_seq::Flattened;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run `f` with a silent panic hook. Cancellation unwinds workers with a
/// sentinel panic; the default hook would symbolize a backtrace for each
/// one — tens of milliseconds and a permanently live symbol cache, which
/// would corrupt both the latency and the leak measurements. The SERIAL
/// lock makes the global hook swap race-free.
fn quietly<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(prev);
    r
}

/// Warm every process-global the governed machinery touches — the
/// deadline watchdog thread and its entry vector, the unwind path's
/// one-time allocations — so a leak baseline snapshotted afterwards only
/// moves if a run actually leaks. Pool-owned state (worker deques, the
/// injector) is excluded by taking the baseline *before* `Pool::new` and
/// measuring after the pool is dropped.
///
/// The warm-ups run on a pool of their own, joined before this returns.
/// On the global pool a worker could still be freeing warm-up memory
/// after the caller woke, and the baseline taken next would then count
/// bytes that are gone by the time the test measures.
fn warm_globals() {
    // The test harness finishes the previous test (its thread exits, the
    // main thread records and prints the result) while this one starts;
    // those frees land in this test's window unless it waits them out.
    std::thread::sleep(Duration::from_millis(50));
    let pool = Pool::new(2);
    pool.install(|| {
        let _ = bds_pool::run_governed(
            Budget::unlimited().with_deadline(Duration::from_secs(3600)),
            || tabulate(4096, |i| i as u64).reduce(0, |a, b| a + b),
        );
        let _ = quietly(|| {
            bds_pool::run_governed(Budget::unlimited().with_mem_bytes(1), || {
                tabulate(4096, |i| i as u64).to_vec()
            })
        });
    });
    drop(pool);
}

/// The headline acceptance claim: a 10 ms deadline over a pipeline that
/// would take *seconds* (10^8 elements on a 2-worker pool) comes back as
/// `Err(Exceeded::Deadline)` within 2x the deadline, leaking nothing.
/// The index goes through `black_box`: the drive loop's counted pull
/// lets the optimizer sum a pure index function a chunk at a time in
/// closed form, and the pipeline would then finish inside the deadline.
#[test]
fn deadline_cancels_a_huge_pipeline_within_two_x() {
    let _l = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    warm_globals();
    let live_before = heap_stats().live;

    let pool = Pool::new(2);
    // A throwaway run so worker spawn/TLS costs don't count against the
    // measured cancellation latency.
    let _ = pool.install(|| tabulate(4096, |i| i as u64).reduce(0, |a, b| a + b));

    let deadline = Duration::from_millis(10);
    let started = Instant::now();
    let r = quietly(|| {
        pool.install(|| {
            bds_pool::run_governed(Budget::unlimited().with_deadline(deadline), || {
                tabulate(100_000_000usize, |i| {
                    std::hint::black_box(i as u64).wrapping_mul(31).wrapping_add(7)
                })
                .reduce(0, |a, b| a.wrapping_add(b))
            })
        })
    });
    let elapsed = started.elapsed();

    assert_eq!(r, Err(Exceeded::Deadline));
    assert!(
        elapsed <= deadline * 2,
        "cancellation latency {elapsed:?} exceeds 2x the {deadline:?} deadline"
    );
    drop(pool);
    let live_after = heap_stats().live;
    assert_eq!(
        live_after, live_before,
        "governed run leaked {} bytes",
        live_after.saturating_sub(live_before)
    );
}

/// A memory budget far below the materialization size refuses `to_vec`
/// with `Err(Exceeded::Memory)` — and the partially charged buffers are
/// all dropped (live heap returns to its pre-run level).
#[test]
fn memory_budget_refuses_materialization_without_leaking() {
    let _l = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    warm_globals();
    let live_before = heap_stats().live;

    let pool = Pool::new(2);
    let r = quietly(|| {
        pool.install(|| {
            bds_pool::run_governed(Budget::unlimited().with_mem_bytes(64 * 1024), || {
                tabulate(1_000_000usize, |i| i as u64).map(|x| x * 3).to_vec()
            })
        })
    });

    assert_eq!(r, Err(Exceeded::Memory));
    drop(pool);
    let live_after = heap_stats().live;
    assert_eq!(
        live_after, live_before,
        "refused materialization leaked {} bytes",
        live_after.saturating_sub(live_before)
    );
}

/// A budget the pipeline fits inside changes nothing: same value as the
/// ungoverned run, no residual heap.
#[test]
fn sufficient_budget_returns_the_ungoverned_value() {
    let _l = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pool = Pool::new(2);

    let want: u64 = pool.install(|| tabulate(100_000, |i| i as u64).reduce(0, |a, b| a + b));
    let got = pool.install(|| {
        bds_pool::run_governed(
            Budget::unlimited()
                .with_deadline(Duration::from_secs(60))
                .with_mem_bytes(16 << 20),
            || tabulate(100_000, |i| i as u64).reduce(0, |a, b| a + b),
        )
    });
    assert_eq!(got, Ok(want));
}

/// Regression for the flatten poll-point fix: a single output block can
/// span *every* inner segment, so cancellation must be observed inside
/// the block, not at the (single) block boundary. The walk is consumed
/// through a drive loop, which polls once per chunk of the block it
/// pulls. Cancel after K elements and assert the walk stops within one
/// poll interval.
#[test]
fn flatten_region_walk_observes_cancellation_within_one_poll_chunk() {
    let _l = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // 1000 inners x 1000 elements, walked as ONE output block.
    let inners: Vec<Forced<u64>> = (0..1000)
        .map(|k| Forced::from_vec((0..1000).map(|i| (k * 1000 + i) as u64).collect()))
        .collect();
    let flat = Flattened::from_inners(inners);

    const K: usize = 10_000;
    let counted = AtomicUsize::new(0);
    let token = bds_pool::CancelToken::new();
    let outcome = quietly(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bds_pool::with_token(&token, || {
                // Block size `len`: a single region.
                let _bs = bds_seq::force_block_size(flat.len());
                flat.for_each(|x| {
                    std::hint::black_box(x);
                    if counted.fetch_add(1, Ordering::Relaxed) + 1 == K {
                        token.cancel();
                    }
                });
            })
        }))
    });

    assert!(outcome.is_err(), "cancelled walk must abandon the region");
    let walked = counted.load(Ordering::Relaxed);
    let bound = K + bds_pool::PollTicker::INTERVAL as usize;
    assert!(
        walked <= bound,
        "walk saw {walked} elements after cancelling at {K}; poll latency bound is {bound}"
    );
}
