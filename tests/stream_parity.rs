//! Cross-instantiation parity for the indexed-stream core.
//!
//! Every lowering — the monomorphized static pipeline, the
//! vtable-erased [`BoxSeq`], and the dynamic [`DSeq`] — drives the same
//! canonical per-block loop in `bds_seq::stream`. These tests pin the
//! observables that loop owns, on the same seeded pipeline, and demand
//! they are *identical* across instantiations, not merely equivalent:
//!
//! * the geometry decisions the cost solver records
//!   ([`bds_cost::record_geometry`]);
//! * the number of cancellation polls the drive loop makes
//!   ([`bds_pool::ticker_polls`]);
//! * the exact byte budget at which a governed run trips
//!   [`Exceeded::Memory`].
//!
//! All three observables live in process-global counters, so the tests
//! serialize on one mutex.

use bds_cost::Calibration;
use bds_pool::{reset_ticker_polls, ticker_polls};
use bds_seq::dynseq::DSeq;
use bds_seq::erased::BoxSeq;
use bds_seq::prelude::*;
use bds_seq::sources::Forced;
use bds_seq::{force_block_size, run_governed, set_policy, Budget, Exceeded, Policy};

static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Master seed for the shared pipeline; every leg consumes the exact
/// same data.
const SEED: u64 = 0x5eed_0bd5;

/// splitmix64 — deterministic input data without depending on `rand`'s
/// vendored API surface.
fn seeded_input(n: usize) -> Vec<u64> {
    let mut x = SEED;
    (0..n)
        .map(|_| {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % 10_000
        })
        .collect()
}

/// The shared pipeline stage applied in every instantiation.
fn stage(x: u64) -> u64 {
    x.wrapping_mul(2_654_435_761).rotate_left(7) ^ 0x9e37
}

/// The shared static pipeline, built fresh per consumption. Owned
/// (`Forced`) source so the erased leg can box it (`BoxSeq` requires
/// `'static`); the monomorphized leg consumes the identical value.
fn pipe(xs: &[u64]) -> impl Seq<Item = u64> + 'static {
    Forced::from_vec(xs.to_vec()).map(stage)
}

/// Run `f` with a silent panic hook: governed cancellation unwinds
/// workers with a sentinel panic, and the default hook would print a
/// backtrace for each. The SERIAL lock makes the hook swap race-free.
fn quietly<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(prev);
    r
}

/// The monomorphized and erased instantiations must put the *same
/// questions* to the cost solver and get the same answers: identical
/// `record_geometry` decision logs for the same consumption sequence.
/// `BoxSeq` forwards `elem_cost`/`fixed_block_size` to the wrapped
/// pipeline, so any divergence here means one of the two is solving
/// geometry through a different path than the shared drive loop.
#[test]
fn geometry_decision_log_identical_mono_vs_erased() {
    let _l = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _pol = set_policy(Policy::Adaptive);
    let _cal = bds_cost::override_calibration(Calibration {
        ns_per_work: 1.0,
        block_overhead_ns: 100.0,
    });
    let xs = seeded_input(50_000);
    // The adaptive solver sizes blocks by the ambient pool's live
    // workers. A seeded pool reports its full width whatever its
    // workers are doing; an ordinary pool's gauge depends on timing.
    let pool = bds_pool::Pool::new_seeded(2, SEED);

    let rec = bds_cost::record_geometry();
    let (mono_vec, mono_red, mono_kept) = pool.install(|| {
        (
            pipe(&xs).to_vec(),
            pipe(&xs).reduce(0u64, |a, b| a ^ b),
            pipe(&xs).filter(|&v| v % 3 != 0).to_vec(),
        )
    });
    let mut mono_log = bds_cost::recorded_geometry();
    drop(rec);

    let rec = bds_cost::record_geometry();
    let (erased_vec, erased_red, erased_kept) = pool.install(|| {
        (
            BoxSeq::new(pipe(&xs)).to_vec(),
            BoxSeq::new(pipe(&xs)).reduce(0u64, |a, b| a ^ b),
            BoxSeq::new(pipe(&xs))
                .filter(|&v| v % 3 != 0)
                .to_vec(),
        )
    });
    let mut erased_log = bds_cost::recorded_geometry();
    drop(rec);

    assert_eq!(mono_vec, erased_vec);
    assert_eq!(mono_red, erased_red);
    assert_eq!(mono_kept, erased_kept);
    assert!(
        !mono_log.is_empty(),
        "Adaptive consumption must consult the solver at least once"
    );
    // Decisions may be resolved from pool workers; compare as multisets.
    mono_log.sort();
    erased_log.sort();
    assert_eq!(mono_log, erased_log, "geometry decision logs diverged");
}

/// All three instantiations must make the same number of cancellation
/// polls: the drive loop polls once per `PollTicker::INTERVAL` consumed
/// elements, a fresh ticker per block. Geometry is pinned so every leg
/// sees the same block seams.
#[test]
fn poll_tick_counts_identical_across_instantiations() {
    let _l = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // 2048-element blocks over 50_000 elements: 24 full blocks x 2
    // polls, trailing 848-element block x 0 — nonzero and deterministic.
    let _bs = force_block_size(2048);
    let xs = seeded_input(50_000);

    let polls_of = |run: &dyn Fn() -> u64| {
        reset_ticker_polls();
        let check = run();
        (check, ticker_polls())
    };

    let (mono_val, mono_polls) =
        polls_of(&|| pipe(&xs).reduce(0u64, |a, b| a ^ b));
    let (erased_val, erased_polls) =
        polls_of(&|| BoxSeq::new(pipe(&xs)).reduce(0u64, |a, b| a ^ b));
    let (dyn_val, dyn_polls) = polls_of(&|| {
        DSeq::from_vec(xs.clone())
            .map(stage)
            .reduce(0, |a, b| a ^ b)
    });

    assert_eq!(mono_val, erased_val);
    assert_eq!(mono_val, dyn_val);
    assert!(mono_polls > 0, "a 50k-element run must poll at least once");
    assert_eq!(
        mono_polls, erased_polls,
        "erased leg polled a different number of times"
    );
    assert_eq!(
        mono_polls, dyn_polls,
        "dynseq leg polled a different number of times"
    );

    // to_vec drives the same per-block loop — same counts again.
    let (_, mono_tv) = polls_of(&|| pipe(&xs).to_vec().len() as u64);
    let (_, erased_tv) =
        polls_of(&|| BoxSeq::new(pipe(&xs)).to_vec().len() as u64);
    let (_, dyn_tv) = polls_of(&|| DSeq::from_vec(xs.clone()).map(stage).to_vec().len() as u64);
    assert_eq!(mono_tv, erased_tv);
    assert_eq!(mono_tv, dyn_tv);
}

/// Memory-governed runs must trip at the *same byte budget*: the drive
/// loop owns all `charge_elems` accounting, so the smallest budget that
/// succeeds — found by binary search on the monomorphized leg — must be
/// exactly the smallest budget that succeeds on the erased leg, and one
/// byte less must fail with `Exceeded::Memory` on both.
#[test]
fn governed_memory_trip_point_identical_mono_vs_erased() {
    let _l = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _bs = force_block_size(1024);
    let xs = seeded_input(8_192);

    // Smallest budget (in bytes) for which `run` returns Ok.
    let trip_point = |run: &dyn Fn(usize) -> bool| -> usize {
        assert!(!run(0), "an 8k-element materialization must charge > 0");
        let mut lo = 0usize;
        let mut hi = 1usize;
        while !run(hi) {
            hi *= 2;
            assert!(hi < 1 << 30, "governed run never succeeded");
        }
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if run(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    };

    // Plain materialization: one up-front charge in the drive loop.
    let mono = |b: usize| {
        quietly(|| run_governed(Budget::unlimited().with_mem_bytes(b), || pipe(&xs).to_vec()).is_ok())
    };
    let erased = |b: usize| {
        quietly(|| {
            run_governed(Budget::unlimited().with_mem_bytes(b), || {
                BoxSeq::new(pipe(&xs)).to_vec()
            })
            .is_ok()
        })
    };
    let mono_trip = trip_point(&mono);
    let erased_trip = trip_point(&erased);
    assert_eq!(mono_trip, erased_trip, "to_vec trip points diverged");
    let under = Budget::unlimited().with_mem_bytes(mono_trip - 1);
    let mono_err = quietly(|| run_governed(under, || pipe(&xs).to_vec()));
    let erased_err = quietly(|| run_governed(under, || BoxSeq::new(pipe(&xs)).to_vec()));
    assert_eq!(mono_err, Err(Exceeded::Memory));
    assert_eq!(erased_err, Err(Exceeded::Memory));

    // Filter inside the governed region: per-block survivor charges plus
    // the final materialization — a multi-charge schedule whose *total*
    // is still a pure function of the element stream.
    let mono_f = |b: usize| {
        quietly(|| {
            run_governed(Budget::unlimited().with_mem_bytes(b), || {
                pipe(&xs).filter(|&v| v % 3 != 0).to_vec()
            })
            .is_ok()
        })
    };
    let erased_f = |b: usize| {
        quietly(|| {
            run_governed(Budget::unlimited().with_mem_bytes(b), || {
                BoxSeq::new(pipe(&xs))
                    .filter(|&v| v % 3 != 0)
                    .to_vec()
            })
            .is_ok()
        })
    };
    assert_eq!(
        trip_point(&mono_f),
        trip_point(&erased_f),
        "filtered trip points diverged"
    );
}
