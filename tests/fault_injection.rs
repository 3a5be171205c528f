//! Deterministic fault-injection sweep over the delayed pipelines.
//!
//! Requires `--features fault-inject`. Each scenario is a small pipeline
//! whose designated closure (map body, reduce/scan operator, filter
//! predicate, flatten inner, workload validator) polls the harness in
//! `bds_seq::faults`. The sweep first runs disarmed to count the total
//! number of polls, then re-runs with the fault armed at a spread of
//! injection points covering the first, last, and many middle
//! invocations, in both flavors:
//!
//! * **panic**: the closure panics with the `"injected fault"` payload,
//!   which must resurface at the consumer's join point;
//! * **Err**: the closure returns an error through the fallible
//!   consumers (`try_reduce`, `try_filter_collect`), which must
//!   short-circuit to exactly that error.
//!
//! After every injected run the element type's global live count must
//! be zero (nothing leaked, nothing double-dropped) and the run must
//! finish before a watchdog timeout (no deadlock).
#![cfg(feature = "fault-inject")]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::Duration;

use bds_pool::CancelToken;
use bds_seq::faults;
use bds_seq::prelude::*;

/// Faults and the block-size override are process-global; every test
/// takes this lock.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

// ---------------------------------------------------------------------
// Drop-counted element type
// ---------------------------------------------------------------------

static LIVE: AtomicI64 = AtomicI64::new(0);
static UNDERFLOW: AtomicBool = AtomicBool::new(false);

/// An element whose constructions and drops are globally counted. A
/// leak leaves `LIVE > 0`; a double drop trips `UNDERFLOW`.
#[derive(Debug)]
struct Tok(u64);

impl Tok {
    fn new(v: u64) -> Tok {
        LIVE.fetch_add(1, Ordering::SeqCst);
        Tok(v)
    }
}

impl Clone for Tok {
    fn clone(&self) -> Tok {
        Tok::new(self.0)
    }
}

impl Drop for Tok {
    fn drop(&mut self) {
        if LIVE.fetch_sub(1, Ordering::SeqCst) <= 0 {
            UNDERFLOW.store(true, Ordering::SeqCst);
        }
    }
}

fn assert_balanced(label: &str, nth: u64) {
    assert_eq!(
        LIVE.load(Ordering::SeqCst),
        0,
        "{label}: leaked elements after injection at poll {nth}"
    );
    assert!(
        !UNDERFLOW.load(Ordering::SeqCst),
        "{label}: double drop after injection at poll {nth}"
    );
}

// ---------------------------------------------------------------------
// Sweep harness
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// The instrumented closure panics when the fault fires; the panic
    /// must propagate out of the (infallible) consumer.
    Panic,
    /// The instrumented closure returns `Err` when the fault fires; the
    /// scenario itself asserts the fallible consumer reported it.
    Err,
}

/// Run `run(expect_fault)` against every chosen injection point.
///
/// `run(false)` must complete cleanly (it is also the poll-counting
/// baseline); `run(true)` runs with a fault armed and must surface it:
/// by panicking (Mode::Panic — checked here) or by asserting the `Err`
/// internally (Mode::Err).
fn sweep(label: &str, mode: Mode, run: &(dyn Fn(bool) + Sync)) {
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let work = scope.spawn(move || {
            // Baseline: disarmed, counts the polls.
            faults::disarm();
            faults::reset_polls();
            run(false);
            let total = faults::polls();
            assert!(total > 0, "{label}: scenario never polled the harness");
            assert_balanced(label, 0);

            // Injection points: first, last, and ~40 spread through.
            let stride = std::cmp::max(1, total / 40) as usize;
            let mut points: Vec<u64> = (1..=total).step_by(stride).collect();
            if points.last() != Some(&total) {
                points.push(total);
            }
            for nth in points {
                let armed = faults::arm(nth);
                let outcome = catch_unwind(AssertUnwindSafe(|| run(true)));
                drop(armed);
                match mode {
                    Mode::Panic => {
                        let payload =
                            outcome.expect_err("injected panic must propagate to the join");
                        let msg = payload
                            .downcast_ref::<&str>()
                            .copied()
                            .unwrap_or_else(|| {
                                payload
                                    .downcast_ref::<String>()
                                    .map(|s| s.as_str())
                                    .unwrap_or("")
                            });
                        assert!(
                            msg.contains("injected fault"),
                            "{label}: wrong panic payload {msg:?} at poll {nth}"
                        );
                    }
                    Mode::Err => {
                        if let Err(payload) = outcome {
                            resume_unwind(payload);
                        }
                    }
                }
                assert_balanced(label, nth);
            }
            tx.send(()).ok();
        });
        match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(()) | Err(RecvTimeoutError::Disconnected) => {
                if let Err(payload) = work.join() {
                    resume_unwind(payload);
                }
            }
            Err(RecvTimeoutError::Timeout) =>

                panic!("{label}: watchdog timeout — a faulted pipeline deadlocked"),
        }
    });
}

const N: usize = 2_000;

fn expected_sum() -> u64 {
    (0..N as u64).sum()
}

// ---------------------------------------------------------------------
// map closure
// ---------------------------------------------------------------------

#[test]
fn sweep_map_panic() {
    let _l = lock();
    let _g = bds_seq::force_block_size(64);
    sweep("map/panic", Mode::Panic, &|_| {
        let v = tabulate(N, |i| Tok::new(i as u64))
            .map(|t| {
                faults::poll_panic();
                t
            })
            .to_vec();
        assert_eq!(v.len(), N);
    });
}

// ---------------------------------------------------------------------
// reduce operator
// ---------------------------------------------------------------------

#[test]
fn sweep_reduce_panic() {
    let _l = lock();
    let _g = bds_seq::force_block_size(64);
    sweep("reduce/panic", Mode::Panic, &|_| {
        let total = tabulate(N, |i| Tok::new(i as u64)).reduce(Tok::new(0), |a, b| {
            faults::poll_panic();
            Tok::new(a.0 + b.0)
        });
        assert_eq!(total.0, expected_sum());
    });
}

#[test]
fn sweep_reduce_err() {
    let _l = lock();
    let _g = bds_seq::force_block_size(64);
    sweep("reduce/err", Mode::Err, &|expect_fault| {
        let r = tabulate(N, |i| Tok::new(i as u64)).try_reduce(Tok::new(0), |a, b| {
            if faults::poll() {
                Err("injected")
            } else {
                Ok(Tok::new(a.0 + b.0))
            }
        });
        if expect_fault {
            assert_eq!(r.unwrap_err(), "injected");
        } else {
            assert_eq!(r.unwrap().0, expected_sum());
        }
    });
}

// ---------------------------------------------------------------------
// scan operator
// ---------------------------------------------------------------------

#[test]
fn sweep_scan_panic() {
    let _l = lock();
    let _g = bds_seq::force_block_size(64);
    sweep("scan/panic", Mode::Panic, &|_| {
        // Polls fire in eager phases 1-2 *and* in the delayed phase 3
        // under to_vec, so the sweep covers injection into both.
        let (s, total) = tabulate(N, |i| Tok::new(i as u64)).scan(Tok::new(0), |a, b| {
            faults::poll_panic();
            Tok::new(a.0 + b.0)
        });
        assert_eq!(total.0, expected_sum());
        let v = s.to_vec();
        assert_eq!(v.len(), N);
    });
}

// ---------------------------------------------------------------------
// filter predicate
// ---------------------------------------------------------------------

#[test]
fn sweep_filter_panic() {
    let _l = lock();
    let _g = bds_seq::force_block_size(64);
    sweep("filter/panic", Mode::Panic, &|_| {
        let v = tabulate(N, |i| Tok::new(i as u64))
            .filter(|t| {
                faults::poll_panic();
                t.0 % 3 == 0
            })
            .to_vec();
        assert_eq!(v.len(), N.div_ceil(3));
    });
}

#[test]
fn sweep_filter_err() {
    let _l = lock();
    let _g = bds_seq::force_block_size(64);
    sweep("filter/err", Mode::Err, &|expect_fault| {
        let r = tabulate(N, |i| Tok::new(i as u64)).try_filter_collect(|t| {
            if faults::poll() {
                Err("injected")
            } else {
                Ok(t.0 % 3 == 0)
            }
        });
        if expect_fault {
            assert_eq!(r.unwrap_err(), "injected");
        } else {
            assert_eq!(r.unwrap().len(), N.div_ceil(3));
        }
    });
}

// ---------------------------------------------------------------------
// flatten inner
// ---------------------------------------------------------------------

const OUTER: usize = 64;

fn inner_len(k: usize) -> usize {
    k % 7 + 1
}

fn flat_len() -> usize {
    (0..OUTER).map(inner_len).sum()
}

#[test]
fn sweep_flatten_panic() {
    let _l = lock();
    let _g = bds_seq::force_block_size(16);
    sweep("flatten/panic", Mode::Panic, &|_| {
        let v = flatten(tabulate(OUTER, |k| {
            tabulate(inner_len(k), move |i| {
                faults::poll_panic();
                Tok::new((k * 100 + i) as u64)
            })
        }))
        .to_vec();
        assert_eq!(v.len(), flat_len());
    });
}

// ---------------------------------------------------------------------
// force (materialization)
// ---------------------------------------------------------------------

#[test]
fn sweep_force_panic() {
    let _l = lock();
    let _g = bds_seq::force_block_size(64);
    sweep("force/panic", Mode::Panic, &|_| {
        let f = tabulate(N, |i| {
            faults::poll_panic();
            Tok::new(i as u64)
        })
        .force();
        assert_eq!(f.len(), N);
    });
}

// ---------------------------------------------------------------------
// workloads (fallible input paths)
// ---------------------------------------------------------------------

#[test]
fn sweep_workload_wc() {
    let _l = lock();
    let params = bds_workloads::wc::Params {
        n: 20_000,
        seed: 11,
    };
    let text = bds_workloads::wc::generate(params);
    let want = bds_workloads::wc::reference(&text);
    sweep("workload/wc", Mode::Err, &|expect_fault| {
        let r = bds_workloads::wc::try_run_delay(&text);
        if expect_fault {
            let err = r.unwrap_err();
            assert_eq!(err.byte, text[err.pos], "reported byte must be real");
        } else {
            assert_eq!(r.unwrap(), want);
        }
    });
}

#[test]
fn sweep_workload_grep() {
    let _l = lock();
    let params = bds_workloads::grep::Params {
        n: 20_000,
        ..Default::default()
    };
    let text = bds_workloads::grep::generate(&params);
    let want = bds_workloads::grep::reference(&text, &params.pattern);
    sweep("workload/grep", Mode::Err, &|expect_fault| {
        let r = bds_workloads::grep::try_run_delay(&text, &params.pattern);
        if expect_fault {
            let err = r.unwrap_err();
            assert!(err.pos < text.len(), "reported position must be real");
        } else {
            assert_eq!(r.unwrap(), want);
        }
    });
}

// ---------------------------------------------------------------------
// cancellation actually skips sibling blocks
// ---------------------------------------------------------------------

#[test]
fn injected_failure_skips_sibling_blocks() {
    let _l = lock();
    // Many small blocks: an injected failure on the very first operator
    // call must leave most siblings unstarted, and the ambient token
    // must observe their skips (propagated up from the consumer's child
    // token).
    let _g = bds_seq::force_block_size(16);
    let token = CancelToken::new();
    let armed = faults::arm(1);
    let r = bds_pool::with_token(&token, || {
        tabulate(100_000, |i| i as u64).try_reduce(0u64, |a, b| {
            if faults::poll() {
                Err("injected")
            } else {
                Ok(a + b)
            }
        })
    });
    drop(armed);
    assert_eq!(r, Err("injected"));
    assert!(
        token.skipped_blocks() > 0,
        "expected sibling blocks to be skipped after an injected failure"
    );
}
