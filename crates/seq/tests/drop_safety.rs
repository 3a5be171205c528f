//! Exact drop accounting for the panic-safe materialization protocol.
//!
//! Every parallel materialization in the crate goes through the
//! `PartialVec`/`BlockWriter` drop-guard protocol. These tests pin the
//! contract with a construction/drop-counting element type: on success
//! every constructed element is dropped exactly once when the result is
//! dropped; when a closure panics or a fallible consumer errors
//! mid-materialization, the elements already written still drop exactly
//! once and nothing is dropped twice. No feature flags required — the
//! panics here are ordinary closure panics at fixed indices.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

use bds_seq::prelude::*;

/// The block-size override is process-global; serialize the tests.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

static LIVE: AtomicI64 = AtomicI64::new(0);
static CREATED: AtomicU64 = AtomicU64::new(0);
static UNDERFLOW: AtomicBool = AtomicBool::new(false);

#[derive(Debug, PartialEq)]
struct Tok(u64);

impl Tok {
    fn new(v: u64) -> Tok {
        LIVE.fetch_add(1, Ordering::SeqCst);
        CREATED.fetch_add(1, Ordering::SeqCst);
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

fn reset_counters() {
    LIVE.store(0, Ordering::SeqCst);
    CREATED.store(0, Ordering::SeqCst);
    UNDERFLOW.store(false, Ordering::SeqCst);
}

/// After everything produced by `f` has been dropped: every constructed
/// element was dropped exactly once.
fn assert_exact_drops(label: &str) {
    assert!(
        CREATED.load(Ordering::SeqCst) > 0,
        "{label}: scenario constructed nothing"
    );
    assert_eq!(
        LIVE.load(Ordering::SeqCst),
        0,
        "{label}: live count nonzero — leaked elements"
    );
    assert!(
        !UNDERFLOW.load(Ordering::SeqCst),
        "{label}: live count went negative — double drop"
    );
}

const N: usize = 1_000;

#[test]
fn to_vec_success_drops_each_element_once() {
    let _l = lock();
    let _g = bds_seq::force_block_size(64);
    reset_counters();
    {
        let v = tabulate(N, |i| Tok::new(i as u64)).to_vec();
        assert_eq!(v.len(), N);
        // All constructed elements are alive inside the vec.
        assert_eq!(LIVE.load(Ordering::SeqCst) as u64, CREATED.load(Ordering::SeqCst));
    }
    assert_exact_drops("to_vec/success");
    // to_vec constructs exactly n elements: nothing cloned, nothing
    // built and thrown away.
    assert_eq!(CREATED.load(Ordering::SeqCst), N as u64);
}

#[test]
fn to_vec_panic_drops_partials_exactly_once() {
    let _l = lock();
    let _g = bds_seq::force_block_size(64);
    reset_counters();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        tabulate(N, |i| Tok::new(i as u64))
            .map(|t| {
                if t.0 == 617 {
                    panic!("boom at 617");
                }
                t
            })
            .to_vec()
    }));
    assert!(caught.is_err(), "panic must propagate");
    assert_exact_drops("to_vec/panic");
}

#[test]
fn force_panic_drops_partials_exactly_once() {
    let _l = lock();
    let _g = bds_seq::force_block_size(32);
    reset_counters();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        tabulate(N, |i| {
            if i == 899 {
                panic!("boom at 899");
            }
            Tok::new(i as u64)
        })
        .force()
    }));
    assert!(caught.is_err(), "panic must propagate");
    assert_exact_drops("force/panic");
}

#[test]
fn filter_panic_drops_kept_elements_exactly_once() {
    let _l = lock();
    let _g = bds_seq::force_block_size(64);
    reset_counters();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        tabulate(N, |i| Tok::new(i as u64))
            .filter(|t| {
                if t.0 == 731 {
                    panic!("boom at 731");
                }
                t.0 % 2 == 0
            })
            .to_vec()
    }));
    assert!(caught.is_err(), "panic must propagate");
    assert_exact_drops("filter/panic");
}

#[test]
fn scan_panic_in_delayed_phase_drops_exactly_once() {
    let _l = lock();
    let _g = bds_seq::force_block_size(64);
    reset_counters();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        // The panic index only exists in phase 3 (the delayed rescan
        // under to_vec): phase 1 folds blocks without cloning prefixes.
        let (s, _total) =
            tabulate(N, |i| Tok::new(i as u64)).scan(Tok::new(0), |a, b| Tok::new(a.0 + b.0));
        s.map(|t| {
            if t.0 > 100_000 {
                panic!("boom in phase 3");
            }
            t
        })
        .to_vec()
    }));
    assert!(caught.is_err(), "panic must propagate");
    assert_exact_drops("scan/panic-phase3");
}

#[test]
fn try_reduce_err_path_drops_partial_accumulators() {
    let _l = lock();
    let _g = bds_seq::force_block_size(64);
    reset_counters();
    let r = tabulate(N, |i| Tok::new(i as u64)).try_reduce(Tok::new(0), |a, b| {
        if b.0 == 421 {
            Err("boom at 421")
        } else {
            Ok(Tok::new(a.0 + b.0))
        }
    });
    assert_eq!(r.unwrap_err(), "boom at 421");
    assert_exact_drops("try_reduce/err");
}

#[test]
fn try_filter_collect_err_path_drops_kept_elements() {
    let _l = lock();
    let _g = bds_seq::force_block_size(64);
    reset_counters();
    let r = tabulate(N, |i| Tok::new(i as u64)).try_filter_collect(|t| {
        if t.0 == 555 {
            Err("boom at 555")
        } else {
            Ok(t.0 % 2 == 0)
        }
    });
    assert_eq!(r.unwrap_err(), "boom at 555");
    assert_exact_drops("try_filter_collect/err");
}

/// A zip folds its right side's chunk into a stack buffer before its
/// left side runs, so a panic on either side mid-chunk leaves buffered
/// right-side items that no one consumed: the buffer drops each exactly
/// once.
#[test]
fn zip_panic_drops_buffered_right_items_exactly_once() {
    let _l = lock();
    let _g = bds_seq::force_block_size(256);
    // 617 lies mid-chunk in block 2 (256..512 + 105).
    reset_counters();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        tabulate(N, |i| {
            if i == 617 {
                panic!("left side boom at 617");
            }
            i as u64
        })
        .zip(tabulate(N, |i| Tok::new(i as u64)))
        .to_vec()
    }));
    assert!(caught.is_err(), "panic must propagate");
    assert_exact_drops("zip/left panic");

    reset_counters();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        tabulate(N, |i| Tok::new(i as u64))
            .zip_with(
                tabulate(N, |i| {
                    if i == 617 {
                        panic!("right side boom at 617");
                    }
                    Tok::new(i as u64)
                }),
                |a, b| Tok::new(a.0 + b.0),
            )
            .to_vec()
    }));
    assert!(caught.is_err(), "panic must propagate");
    assert_exact_drops("zip_with/right panic");
}

/// Block stream of [`Skewed`]: `next()` is honest.
struct SkewedBlock<'s, F> {
    f: &'s F,
    next: usize,
    end: usize,
    skew: isize,
}

impl<T, F: Fn(usize) -> T> Iterator for SkewedBlock<'_, F> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        (self.next < self.end).then(|| {
            self.next += 1;
            (self.f)(self.next - 1)
        })
    }
}

/// A sequence whose chunk fold lies about its count: with `skew` 1 it
/// hands `f` one element more than asked, with `skew` -1 it consumes
/// the chunk but hands `f` one element fewer.
struct Skewed<F> {
    len: usize,
    f: F,
    skew: isize,
}

impl<T: Send, F: Fn(usize) -> T + Send + Sync> Seq for Skewed<F> {
    type Item = T;
    type Block<'s>
        = SkewedBlock<'s, F>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.len
    }

    fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
        let (lo, hi) = bds_seq::stream::block_bounds(self.len, bs, j);
        SkewedBlock {
            f: &self.f,
            next: lo,
            end: hi,
            skew: self.skew,
        }
    }

    fn fold_chunk<'s, A, G>(block: &mut Self::Block<'s>, n: usize, init: A, mut g: G) -> A
    where
        Self: 's,
        G: FnMut(A, T) -> A,
    {
        let lo = block.next;
        block.next += n;
        let handed = n.saturating_add_signed(block.skew);
        (lo..lo + handed).fold(init, |acc, i| g(acc, (block.f)(i)))
    }
}

/// An element that records its own drops by creation serial, so a slot
/// written twice (one value leaked, another dropped twice) shows even
/// where the live count would balance.
struct Serial(usize);

const SERIALS: usize = 4 * N;
static NEXT_SERIAL: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
static SERIAL_DROPS: [std::sync::atomic::AtomicU8; SERIALS] =
    [const { std::sync::atomic::AtomicU8::new(0) }; SERIALS];

impl Serial {
    fn new() -> Serial {
        let id = NEXT_SERIAL.fetch_add(1, Ordering::SeqCst);
        assert!(id < SERIALS, "scenario made too many elements");
        Serial(id)
    }
}

impl Drop for Serial {
    fn drop(&mut self) {
        SERIAL_DROPS[self.0].fetch_add(1, Ordering::SeqCst);
    }
}

fn reset_serials() {
    NEXT_SERIAL.store(0, Ordering::SeqCst);
    for d in &SERIAL_DROPS {
        d.store(0, Ordering::SeqCst);
    }
}

fn assert_each_serial_dropped_once(label: &str) {
    let made = NEXT_SERIAL.load(Ordering::SeqCst);
    assert!(made > 0, "{label}: scenario constructed nothing");
    for (id, d) in SERIAL_DROPS[..made].iter().enumerate() {
        let drops = d.load(Ordering::SeqCst);
        assert_eq!(drops, 1, "{label}: element {id} dropped {drops} times");
    }
}

/// A chunk fold that hands the consumer a wrong number of elements is a
/// broken `Seq`: writing consumers panic with the block-invariant
/// message (a push past the block's end at once, instead of a write
/// into the neighbouring block's region), and every element still
/// drops exactly once.
#[test]
fn skewed_chunk_folds_panic_and_drop_each_element_once() {
    let _l = lock();
    let _g = bds_seq::force_block_size(64);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for (skew, want) in [(1, "block overflow"), (-1, "block underflow")] {
        reset_serials();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            Skewed {
                len: N,
                f: |_| Serial::new(),
                skew,
            }
            .to_vec()
        }));
        assert_block_invariant_panic(caught.map(drop), want, &format!("to_vec, skew {skew}"));
        assert_each_serial_dropped_once(&format!("to_vec/skew {skew}"));
    }
    std::panic::set_hook(prev);
}

fn assert_block_invariant_panic(caught: std::thread::Result<()>, want: &str, what: &str) {
    let payload = caught.expect_err(what);
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(
        msg.contains(&format!("Seq invariant violated: {want}")),
        "{what}: panicked with {msg:?}"
    );
}
