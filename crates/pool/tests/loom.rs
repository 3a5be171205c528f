//! Model checks over `bds-pool`'s synchronization primitives.
//!
//! Runs only with `--features loom` (a dedicated CI job does:
//! `cargo test -p bds-pool --features loom --test loom`). The test
//! bodies are written against the real `loom` API — `loom::model`
//! explores interleavings of the closure — so they upgrade to true
//! exhaustive model checking when the registry-backed `loom` replaces
//! the offline stand-in in `vendor/loom` (which stresses each model
//! with repeated real-thread runs instead).
//!
//! What is checked:
//! - `SpinLatch` set/probe publishes the job's result writes
//!   (Release/Acquire pairing in `latch.rs`).
//! - `LockLatch` wait/set cannot miss the wakeup signal, in either
//!   arrival order.
//! - `CancelToken` cancellation is visible across threads, parent
//!   cancellation reaches children, and child cancellation stays
//!   contained.
//! - The skipped-chunk counter never loses increments under contention
//!   and aggregates child counts into ancestors.
//! - The recovery layer's quarantine slot: among concurrently recorded
//!   block failures the lowest ordinal wins deterministically, and the
//!   join observes exactly one typed failure.
//! - The stream core's drive-loop poll ordering: a `PollTicker` inside
//!   a cancelled region aborts at the first poll boundary after the
//!   cancel is published, and the process-wide poll counter stays a
//!   pure function of the element stream under any interleaving.

#![cfg(feature = "loom")]

use bds_pool::model_check::{
    note_skipped, record_block_failure, retry_ctx, take_block_failure, Latch, LockLatch, SpinLatch,
};
use bds_pool::{reset_ticker_polls, ticker_polls, with_token, CancelToken, PollTicker};
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;
use loom::thread;

/// A write made before `set()` must be visible to a thread that has
/// observed `probe() == true`: the Relaxed data load is ordered by the
/// latch's own Release store / Acquire load pair.
#[test]
fn spin_latch_publishes_result_writes() {
    loom::model(|| {
        let latch = Arc::new(SpinLatch::new());
        let data = Arc::new(AtomicUsize::new(0));
        let (l2, d2) = (Arc::clone(&latch), Arc::clone(&data));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            l2.set();
        });
        while !latch.probe() {
            thread::yield_now();
        }
        assert_eq!(data.load(Ordering::Relaxed), 42);
        t.join().unwrap();
    });
}

/// `wait()` must return no matter how the setter and waiter interleave:
/// the notify happens under the state lock, so the waiter can never
/// read `false`, release the lock, and then miss the signal.
#[test]
fn lock_latch_never_misses_the_wakeup() {
    loom::model(|| {
        let latch = Arc::new(LockLatch::new());
        let l2 = Arc::clone(&latch);
        let t = thread::spawn(move || l2.set());
        latch.wait();
        t.join().unwrap();
    });
}

/// The set-before-wait order must also terminate (the waiter sees the
/// flag without ever sleeping).
#[test]
fn lock_latch_set_then_wait_does_not_block() {
    loom::model(|| {
        let latch = Arc::new(LockLatch::new());
        let l2 = Arc::clone(&latch);
        let t = thread::spawn(move || l2.set());
        t.join().unwrap();
        latch.wait();
    });
}

/// A cancel on the parent must become visible to a child polling
/// `is_cancelled()` (the ancestor walk reads with Acquire, pairing with
/// the Release store in `cancel()`).
#[test]
fn parent_cancel_reaches_polling_child() {
    loom::model(|| {
        let parent = CancelToken::new();
        let child = parent.child();
        let p2 = parent.clone();
        let t = thread::spawn(move || p2.cancel());
        while !child.is_cancelled() {
            thread::yield_now();
        }
        t.join().unwrap();
        assert!(parent.is_cancelled());
    });
}

/// Cancelling a child concurrently with the parent spawning further
/// children must never mark the parent (or a sibling) cancelled:
/// failures inside a nested region stay contained.
#[test]
fn child_cancel_stays_contained_under_concurrency() {
    loom::model(|| {
        let parent = CancelToken::new();
        let child = parent.child();
        let t = thread::spawn(move || child.cancel());
        let sibling = parent.child();
        t.join().unwrap();
        assert!(!parent.is_cancelled());
        assert!(!sibling.is_cancelled());
    });
}

/// The stream core's drive-loop cancellation contract: a drive loop's
/// `PollTicker` pulling INTERVAL-element chunks inside a cancelled
/// region must abandon it via the sentinel panic at the first poll
/// boundary that observes the cancel — never keep streaming past it,
/// and never "observe" a cancel that the canceller has not yet
/// published (the poll's Acquire read pairs with the Release store in
/// `cancel()`). This is the ordering every drive loop in
/// `bds_seq::stream` relies on for its bounded cancellation latency.
/// Serializes the tests that touch the process-global poll counter
/// (ticking at all bumps it, and one test asserts its exact value).
static TICKS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn drive_loop_ticker_aborts_at_first_poll_after_cancel() {
    let _l = TICKS.lock().unwrap_or_else(|e| e.into_inner());
    // The abort is a sentinel panic; keep the default hook from
    // printing a backtrace per model iteration.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    loom::model(|| {
        let token = CancelToken::new();
        let t2 = token.clone();
        let canceller = thread::spawn(move || t2.cancel());
        let aborted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_token(&token, || {
                let mut ticker = PollTicker::new();
                // One INTERVAL-element chunk per iteration: the tick at
                // the chunk boundary is the drive loop's only poll site.
                loop {
                    ticker.tick_n(PollTicker::INTERVAL as usize);
                    thread::yield_now();
                }
            })
        }))
        .is_err();
        canceller.join().unwrap();
        assert!(aborted, "a poll after the cancel must abandon the region");
        assert!(token.is_cancelled());
    });
    std::panic::set_hook(prev);
}

/// Poll counts are a pure function of the element stream, independent
/// of scheduling: two workers each ticking one full INTERVAL on their
/// own fresh tickers bump the process-wide poll counter by exactly two,
/// under every interleaving. The `stream_parity` integration test
/// depends on this determinism to compare instantiations.
#[test]
fn ticker_poll_counter_deterministic_under_concurrency() {
    let _l = TICKS.lock().unwrap_or_else(|e| e.into_inner());
    loom::model(|| {
        reset_ticker_polls();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                thread::spawn(|| {
                    let mut ticker = PollTicker::new();
                    ticker.tick_n(PollTicker::INTERVAL as usize);
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(ticker_polls(), 2, "polls lost or duplicated");
    });
}

/// Two blocks quarantining concurrently against one recovery context
/// must resolve deterministically: whichever interleaving the recorder
/// threads take, the join sees exactly one `BlockFailed` and it names
/// the lowest failed ordinal — the same block a sequential run would
/// have failed on first. This is the ordering `run_recovered` relies on
/// to surface one typed error per job.
#[test]
fn concurrent_quarantines_surface_the_lowest_ordinal_once() {
    loom::model(|| {
        let ctx = retry_ctx();
        let (c1, c2) = (std::sync::Arc::clone(&ctx), std::sync::Arc::clone(&ctx));
        let t1 = thread::spawn(move || record_block_failure(&c1, 7, 3));
        let t2 = thread::spawn(move || record_block_failure(&c2, 2, 3));
        t1.join().unwrap();
        t2.join().unwrap();
        let bf = take_block_failure(&ctx).expect("a quarantine was recorded");
        assert_eq!(bf.ordinal, 2, "lowest failed ordinal wins");
        assert_eq!(bf.attempts, 3);
        assert!(
            take_block_failure(&ctx).is_none(),
            "exactly one failure surfaces per job"
        );
    });
}

/// Concurrent skip recording from two child regions must lose no
/// increments and must aggregate into the shared parent: the children
/// see only their own counts, the parent sees the sum.
#[test]
fn skipped_counter_aggregates_without_losing_increments() {
    loom::model(|| {
        let parent = CancelToken::new();
        let (c1, c2) = (parent.child(), parent.child());
        let (c1t, c2t) = (c1.clone(), c2.clone());
        let t1 = thread::spawn(move || {
            for _ in 0..3 {
                note_skipped(&c1t, 1);
            }
        });
        let t2 = thread::spawn(move || {
            note_skipped(&c2t, 5);
        });
        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(c1.skipped_blocks(), 3);
        assert_eq!(c2.skipped_blocks(), 5);
        assert_eq!(parent.skipped_blocks(), 8);
    });
}
