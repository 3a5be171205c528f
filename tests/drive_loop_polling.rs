//! Cancellation is polled by the drive loops in `bds_seq::stream`, not
//! by the leaf streams: each loop pulls a block a chunk at a time and
//! polls the ambient token once per chunk.
//!
//! Every test here consumes one forced block, so the only poll points
//! inside the block are the drive loop's. The element stream cancels
//! the ambient token at its `K`-th element, and the test asserts that
//! the loop abandoned the region within one poll chunk: at most
//! `K + PollTicker::INTERVAL` elements ran. Most sources are 3-way
//! zips, whose leaves hold no ticker at all.
//!
//! The poll counter and the forced block size are process-global, so
//! the tests serialize on one mutex.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use bds_pool::{reset_ticker_polls, ticker_polls, with_token, CancelToken, PollTicker};
use bds_seq::dynseq::DSeq;
use bds_seq::prelude::*;
use bds_seq::{force_block_size, simd, stream, Flattened, RadBlock};

static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Elements per consumption: one block, far past the cancellation point.
const N: usize = 200_000;
/// The element at which the ambient token is cancelled.
const K: usize = 10_000;
const INTERVAL: usize = PollTicker::INTERVAL as usize;

/// Counts the elements a pipeline produces and cancels its token at the
/// `K`-th.
struct Probe {
    seen: AtomicUsize,
    token: CancelToken,
}

impl Probe {
    fn new() -> Probe {
        Probe {
            seen: AtomicUsize::new(0),
            token: CancelToken::new(),
        }
    }

    fn see<T>(&self, x: T) -> T {
        if self.seen.fetch_add(1, Ordering::Relaxed) + 1 == K {
            self.token.cancel();
        }
        x
    }
}

/// A 3-way zip of `N` elements whose every element passes the probe.
fn zip3(probe: &Probe) -> impl RadSeq<Item = u64> + '_ {
    tabulate(N, |i| i as u64)
        .zip(tabulate(N, |i| (i as u64) << 1))
        .zip(tabulate(N, |i| (i as u64) << 2))
        .map(|((a, b), c)| probe.see(a ^ b ^ c))
}

/// Run `consume` as one block of `N` under the probe's token and check
/// that it stopped within one poll chunk of the cancellation; a failure
/// is recorded in `failures` under `what`, so one run reports every
/// loop that broke.
fn check(failures: &mut Vec<String>, what: &str, consume: impl FnOnce(&Probe)) {
    let _l = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _bs = force_block_size(N);
    let probe = Probe::new();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        with_token(&probe.token, || consume(&probe))
    }));
    std::panic::set_hook(prev);
    let seen = probe.seen.load(Ordering::Relaxed);
    if seen < K {
        failures.push(format!("{what}: the probe saw only {seen} elements"));
    } else if seen > K + INTERVAL {
        failures.push(format!(
            "{what}: {seen} elements ran after cancelling at {K}; the bound is {}",
            K + INTERVAL
        ));
    } else if outcome.is_ok() {
        // A cancelled consumption has no value to return.
        failures.push(format!("{what}: the cancelled run returned normally"));
    }
}

#[test]
fn infallible_drive_loops_stop_within_one_poll_chunk() {
    let mut failures = Vec::new();
    check(&mut failures, "reduce", |p| {
        zip3(p).reduce(0, |a, b| a ^ b);
    });
    check(&mut failures, "count", |p| {
        zip3(p).count(|x| x % 3 == 0);
    });
    check(&mut failures, "to_vec", |p| {
        zip3(p).to_vec();
    });
    check(&mut failures, "for_each", |p| {
        zip3(p).for_each(|x| {
            std::hint::black_box(x);
        });
    });
    check(&mut failures, "filter_parts", |p| {
        let _ = zip3(p).filter(|x| x % 2 == 0);
    });
    check(&mut failures, "scan_seeds", |p| {
        let _ = zip3(p).scan(0, |a, b| a ^ b);
    });
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn fallible_drive_loops_stop_within_one_poll_chunk() {
    let mut failures = Vec::new();
    check(&mut failures, "try_reduce", |p| {
        let _ = zip3(p).try_reduce(0, |a, b| Ok::<u64, ()>(a ^ b));
    });
    check(&mut failures, "try_filter_parts", |p| {
        let _ = zip3(p).try_filter_collect(|x| Ok::<bool, ()>(x % 2 == 0));
    });
    assert!(failures.is_empty(), "{failures:#?}");
}

/// The SIMD drivers run the core's block loops, which walk each block a
/// chunk at a time and poll once per chunk.
#[test]
fn simd_drivers_stop_within_one_poll_chunk() {
    let mut failures = Vec::new();
    let xs: Vec<u64> = (0..N as u64).collect();
    check(&mut failures, "par_map", |p| {
        simd::par_map(&xs, |x| p.see(x));
    });
    check(&mut failures, "par_tabulate", |p| {
        simd::par_tabulate(N, |i| p.see(i));
    });
    assert!(failures.is_empty(), "{failures:#?}");
}

/// A scan's phase 3 runs inside whatever consumes the scan: the probe
/// sits after the scan, so it counts phase-3 elements only.
#[test]
fn scan_phase_three_stops_within_one_poll_chunk() {
    let mut failures = Vec::new();
    check(&mut failures, "scan phase 3", |p| {
        let (prefix, _) = tabulate(N, |i| i as u64)
            .zip(tabulate(N, |i| i as u64))
            .zip(tabulate(N, |i| i as u64))
            .map(|((a, b), c)| a + b + c)
            .scan(0, |a, b| a.wrapping_add(b));
        prefix.map(|x| p.see(x)).reduce(0, |a, b| a ^ b);
    });
    assert!(failures.is_empty(), "{failures:#?}");
}

/// The dynamic lowering's leaf streams hold no ticker either; its
/// consumers run the same drive loops.
#[test]
fn dynseq_drive_loops_stop_within_one_poll_chunk() {
    let mut failures = Vec::new();
    check(&mut failures, "dynseq reduce", |p| {
        DSeq::tabulate(N, |i| i as u64)
            .zip(DSeq::tabulate(N, |i| i as u64))
            .reduce((0, 0), |a, b| p.see((a.0 ^ b.0, a.1 ^ b.1)));
    });
    assert!(failures.is_empty(), "{failures:#?}");
}

/// One poll per `INTERVAL` consumed elements per block, whatever the
/// zip arity: a 3-way zip polls exactly as often as a single source.
#[test]
fn zip_arity_does_not_change_the_poll_count() {
    let _l = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _bs = force_block_size(N);
    let polls = |run: &dyn Fn() -> u64| {
        reset_ticker_polls();
        std::hint::black_box(run());
        ticker_polls()
    };
    let single = polls(&|| tabulate(N, |i| i as u64).reduce(0, |a, b| a ^ b));
    let zipped = polls(&|| {
        tabulate(N, |i| i as u64)
            .zip(tabulate(N, |i| i as u64))
            .zip(tabulate(N, |i| i as u64))
            .map(|((a, b), c)| a ^ b ^ c)
            .reduce(0, |a, b| a ^ b)
    });
    assert_eq!(single, (N / INTERVAL) as u64, "one block of {N} elements");
    assert_eq!(
        zipped, single,
        "a 3-way zip polled a different number of times"
    );
}

/// An inner sequence that passes every `len()` query through the probe
/// once `walking` is set: a `flatten` region walk asks each inner it
/// steps onto for its length.
struct Segment<'p> {
    len: usize,
    probe: &'p Probe,
    walking: &'p AtomicBool,
}

impl Seq for Segment<'_> {
    type Item = u64;
    type Block<'s>
        = RadBlock<'s, Self>
    where
        Self: 's;

    fn len(&self) -> usize {
        if self.walking.load(Ordering::Relaxed) {
            self.probe.see(());
        }
        self.len
    }

    fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
        let (lo, hi) = stream::block_bounds(self.len, bs, j);
        RadBlock::new(self, lo, hi)
    }
}

impl RadSeq for Segment<'_> {
    fn get(&self, i: usize) -> u64 {
        i as u64
    }
}

/// Stepping over an empty inner yields no element, so the drive loop's
/// per-chunk poll never comes while a region walks a long run of them:
/// the walk polls on its steps instead. Two elements with `N` empty
/// inners between them, consumed as one block, cancelled after `K`
/// steps.
#[test]
fn flatten_walk_over_empty_inners_stops_within_one_poll_chunk() {
    let _l = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let probe = Probe::new();
    let walking = AtomicBool::new(false);
    let segment = |len| Segment {
        len,
        probe: &probe,
        walking: &walking,
    };
    let mut inners = vec![segment(1)];
    inners.extend((0..N).map(|_| segment(0)));
    inners.push(segment(1));
    // Building the offsets asks every inner for its length; only the
    // walk's queries count.
    let flat = Flattened::from_inners(inners);
    assert_eq!(flat.len(), 2);
    walking.store(true, Ordering::Relaxed);
    let _bs = force_block_size(flat.len());
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        with_token(&probe.token, || flat.reduce(0, |a, b| a + b))
    }));
    std::panic::set_hook(prev);
    let steps = probe.seen.load(Ordering::Relaxed);
    assert!(steps >= K, "the walk took only {steps} steps");
    assert!(
        steps <= K + INTERVAL,
        "the walk took {steps} steps after cancelling at {K}; the bound is {}",
        K + INTERVAL
    );
    assert!(outcome.is_err(), "the cancelled walk returned normally");
}
