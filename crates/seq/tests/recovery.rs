//! Acceptance tests for block-granular fault recovery: a transient
//! fault injected at a known element under `RetryPolicy` must yield a
//! result bit-identical to the unfaulted sequential oracle — across the
//! monomorphized, erased, and dynamic lowerings and across geometries —
//! with exactly one block retry and no whole-pipeline re-execution. A
//! deterministic fault must surface one typed [`BlockFailed`] after
//! exactly `max_attempts` attempts, never an escaped panic or a partial
//! result, and drop accounting must stay exact through both paths.

use std::panic::{self, catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

use bds_pool::Pool;
use bds_seq::prelude::*;
use bds_seq::{recovery_counts, run_recovered, Policy, RetryPolicy};

/// Geometry overrides and the fault state are process-global;
/// serialize the tests.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Silence the default panic hook while injected faults fly; restores
/// the previous hook on drop.
type PanicHook = Box<dyn Fn(&panic::PanicHookInfo<'_>) + Send + Sync>;

struct Quiet(Option<PanicHook>);

impl Quiet {
    fn install() -> Quiet {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        Quiet(Some(prev))
    }
}

impl Drop for Quiet {
    fn drop(&mut self) {
        if let Some(prev) = self.0.take() {
            panic::set_hook(prev);
        }
    }
}

const N: usize = 4096;
/// The element whose block carries the injected fault.
const TARGET: usize = 1234;

/// How many more times streaming `TARGET` panics before the fault
/// heals: `1` = transient (fails attempt 1, succeeds attempt 2),
/// `u64::MAX` = deterministic (exhausts any retry budget).
static FIRES_LEFT: AtomicU64 = AtomicU64::new(0);
/// How many times `TARGET` was streamed — 2 proves exactly one block
/// retry and zero whole-pipeline re-executions.
static TARGET_CALLS: AtomicU64 = AtomicU64::new(0);

fn arm(fails: u64) {
    FIRES_LEFT.store(fails, Ordering::SeqCst);
    TARGET_CALLS.store(0, Ordering::SeqCst);
}

fn elem(i: usize) -> u64 {
    if i == TARGET {
        TARGET_CALLS.fetch_add(1, Ordering::SeqCst);
        let fired = FIRES_LEFT
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| left.checked_sub(1))
            .is_ok();
        if fired {
            panic!("injected block fault at element {i}");
        }
    }
    i as u64 * 3 + 1
}

fn oracle() -> Vec<u64> {
    (0..N).map(|i| i as u64 * 3 + 1).collect()
}

fn run_mono() -> Vec<u64> {
    tabulate(N, elem).to_vec()
}

fn run_erased() -> Vec<u64> {
    bds_seq::BoxSeq::new(tabulate(N, elem)).to_vec()
}

fn run_dynseq() -> Vec<u64> {
    bds_seq::dynseq::DSeq::tabulate(N, elem).to_vec()
}

type Lowering = fn() -> Vec<u64>;

const LOWERINGS: [(&str, Lowering); 3] = [
    ("mono", run_mono),
    ("erased", run_erased),
    ("dynseq", run_dynseq),
];

#[test]
fn transient_fault_recovers_bit_identical_across_lowerings_and_geometries() {
    let _l = lock();
    let _q = Quiet::install();
    let want = oracle();
    let pool = Pool::new_seeded(4, 0xB10C_F417);
    let geoms = [
        ("adaptive", Policy::Adaptive),
        ("fixed1", Policy::Fixed(1)),
        ("fixed8", Policy::Fixed(8)),
        ("fixed32", Policy::Fixed(32)),
    ];
    for (gname, geom) in geoms {
        let _g = bds_seq::set_policy(geom);
        for (lname, f) in LOWERINGS {
            arm(1);
            let before = recovery_counts();
            let got = pool.install(|| run_recovered(RetryPolicy::default(), f));
            let d = recovery_counts().saturating_sub(&before);
            assert_eq!(
                got.as_ref().ok(),
                Some(&want),
                "{lname}/{gname}: recovered result must be bit-identical to the oracle"
            );
            assert_eq!(d.block_retries, 1, "{lname}/{gname}: exactly one block retry");
            assert_eq!(d.quarantines, 0, "{lname}/{gname}: nothing quarantined");
            assert_eq!(d.recovered_jobs, 1, "{lname}/{gname}: the run counts as recovered");
            assert_eq!(
                TARGET_CALLS.load(Ordering::SeqCst),
                2,
                "{lname}/{gname}: the faulted element streams exactly twice \
                 (attempt 1 + the block retry) — no whole-pipeline re-execution"
            );
        }
    }
}

#[test]
fn deterministic_fault_surfaces_typed_error_after_max_attempts() {
    let _l = lock();
    let _q = Quiet::install();
    let _g = bds_seq::force_block_size(64);
    let pool = Pool::new_seeded(4, 0xB10C_F418);
    arm(u64::MAX);
    let before = recovery_counts();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| run_recovered(RetryPolicy::default().with_max_attempts(3), run_mono))
    }));
    let d = recovery_counts().saturating_sub(&before);
    let r = outcome.expect("quarantine must surface as a typed error, not an escaped panic");
    let failed = r.expect_err("a deterministic fault must not yield a (partial) result");
    assert_eq!(failed.ordinal, TARGET / 64, "quarantine names the faulted block");
    assert_eq!(failed.attempts, 3, "exactly max_attempts attempts");
    assert_eq!(TARGET_CALLS.load(Ordering::SeqCst), 3, "the block ran exactly 3 times");
    assert_eq!(d.quarantines, 1);
    assert_eq!(d.block_retries, 2, "attempts 2 and 3 are the retries");
    assert_eq!(d.recovered_jobs, 0);

    // The pool survives quarantine: the same pipeline, healed, runs clean.
    arm(0);
    let clean = pool.install(|| run_recovered(RetryPolicy::default(), run_mono));
    assert_eq!(clean, Ok(oracle()));
}

// ---------------------------------------------------------------------
// Exact drop accounting through retry and quarantine (the live-bytes
// leak check): retried blocks discard their partial prefix on unwind
// and re-write from scratch; quarantined runs drop exactly the
// elements the surviving blocks wrote.
// ---------------------------------------------------------------------

static LIVE: AtomicI64 = AtomicI64::new(0);
static UNDERFLOW: AtomicBool = AtomicBool::new(false);

#[derive(Debug, PartialEq)]
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

fn assert_exact_drops(label: &str) {
    assert_eq!(LIVE.load(Ordering::SeqCst), 0, "{label}: leaked elements");
    assert!(!UNDERFLOW.load(Ordering::SeqCst), "{label}: double drop");
}

fn reset_drop_counters() {
    LIVE.store(0, Ordering::SeqCst);
    UNDERFLOW.store(false, Ordering::SeqCst);
}

fn run_mono_tok() -> Vec<Tok> {
    tabulate(N, |i| {
        elem(i);
        Tok::new(i as u64)
    })
    .to_vec()
}

#[test]
fn retried_blocks_keep_drop_accounting_exact() {
    let _l = lock();
    let _q = Quiet::install();
    let _g = bds_seq::force_block_size(64);
    let pool = Pool::new_seeded(4, 0xB10C_F419);

    // Transient: the faulted attempt's partial writes are discarded on
    // unwind, the retry re-writes the full block, and the completed
    // result drops every element exactly once.
    reset_drop_counters();
    arm(1);
    let got = pool.install(|| run_recovered(RetryPolicy::default(), run_mono_tok));
    let v = got.expect("transient fault must recover");
    assert_eq!(v.len(), N);
    drop(v);
    assert_exact_drops("retry/transient");

    // Deterministic: quarantine abandons the buffer; everything the
    // surviving blocks wrote still drops exactly once.
    reset_drop_counters();
    arm(u64::MAX);
    let got = pool.install(|| run_recovered(RetryPolicy::default(), run_mono_tok));
    assert!(got.is_err(), "deterministic fault must quarantine");
    assert_exact_drops("retry/quarantine");
}

/// `count`, a pure consumer that shares the stream core's per-block
/// loop with `reduce`, retries one faulted block under the default
/// policy and answers as if unfaulted.
#[test]
fn pure_consumers_retry_a_transient_fault() {
    let _l = lock();
    let _q = Quiet::install();
    let _g = bds_seq::force_block_size(64);
    let pool = Pool::new_seeded(2, 0xB10C_F41C);

    arm(1);
    let before = recovery_counts();
    let got = pool.install(|| {
        run_recovered(RetryPolicy::default(), || {
            tabulate(N, elem).count(|&x| x % 2 == 0)
        })
    });
    let d = recovery_counts().saturating_sub(&before);
    assert_eq!(got, Ok(N / 2), "count: recovered answer");
    assert_eq!(d.block_retries, 1, "count: exactly one block retry");
    assert_eq!(
        TARGET_CALLS.load(Ordering::SeqCst),
        2,
        "count: one re-streamed block"
    );
}

// ---------------------------------------------------------------------
// The legality boundary: side-effecting consumers are never retried
// (see the DESIGN.md legality table).
// ---------------------------------------------------------------------

#[test]
fn for_each_is_not_retried_by_default() {
    let _l = lock();
    let _q = Quiet::install();
    let _g = bds_seq::force_block_size(64);
    let pool = Pool::new_seeded(2, 0xB10C_F41A);

    arm(1);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| {
            run_recovered(RetryPolicy::default(), || {
                tabulate(N, elem).for_each(|x| {
                    std::hint::black_box(x);
                })
            })
        })
    }));
    assert!(
        outcome.is_err(),
        "a fault in a side-effecting consumer must propagate, not retry"
    );
    assert_eq!(TARGET_CALLS.load(Ordering::SeqCst), 1, "no second attempt");
}
