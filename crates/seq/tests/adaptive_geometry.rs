//! Integration tests for the adaptive block-geometry policy: the block
//! count a consumption solves must be valid (`1..=len`), monotone in the
//! worker count, and never starve a pool on inputs far larger than the
//! machine.
//!
//! Geometry reads process-global state (the policy mode and the
//! calibration table) and the solver's decision log is process-global,
//! so every test here serializes on one mutex.

use std::sync::{Mutex, MutexGuard, OnceLock};

use bds_cost::geometry::TARGET_BLOCKS_PER_WORKER;
use bds_seq::prelude::*;

fn serial() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Block count an `n`-element tabulate+reduce pipeline solves for when
/// consumed under a `p`-thread pool: the one decision it puts to the
/// solver.
fn adaptive_blocks(n: usize, p: usize) -> usize {
    let pool = bds_pool::Pool::new(p);
    let rec = bds_cost::record_geometry();
    pool.install(|| {
        let sum = tabulate(n, |i| i as u64).reduce(0, |a, b| a + b);
        assert_eq!(sum, (n as u64 - 1) * n as u64 / 2);
    });
    let log = bds_cost::recorded_geometry();
    drop(rec);
    assert_eq!(log.len(), 1, "one consumption, one decision: {log:?}");
    log[0].num_blocks
}

#[test]
fn adaptive_block_count_is_valid_and_monotone_in_workers() {
    let _g = serial();
    let n = 1usize << 22;
    let mut prev = 0;
    for p in [1, 2, 4] {
        let nb = adaptive_blocks(n, p);
        assert!(
            (1..=n).contains(&nb),
            "P={p}: block count {nb} outside [1, {n}]"
        );
        assert!(
            nb >= prev,
            "block count must not shrink as workers grow: P={p} gave {nb}, previous pool gave {prev}"
        );
        prev = nb;
    }
}

#[test]
fn adaptive_never_starves_workers_on_large_inputs() {
    // Regression: for len ≫ procs the solver must hand every worker at
    // least one block (and stay within the 8-per-worker target).
    let _g = serial();
    let n = 1usize << 22;
    for p in [2, 4] {
        let nb = adaptive_blocks(n, p);
        assert!(nb >= p, "P={p}: only {nb} blocks for {n} elements");
        assert!(
            nb <= TARGET_BLOCKS_PER_WORKER * p,
            "P={p}: {nb} blocks exceeds the {TARGET_BLOCKS_PER_WORKER}-per-worker target"
        );
    }
}

#[test]
fn tiny_inputs_resolve_to_one_block() {
    // 64 elements cannot amortize even one extra block's overhead at the
    // calibration clamps, whatever this machine measures.
    let _g = serial();
    assert_eq!(adaptive_blocks(64, 4), 1);
}

#[test]
fn fixed_policy_matches_seed_heuristic() {
    // Policy::fixed(k) must reproduce the pre-adaptive geometry exactly:
    // bs = max(MIN_BLOCK, ceil(n / kP)).
    let _g = serial();
    let _p = bds_seq::set_policy(bds_seq::Policy::fixed(8));
    let pool = bds_pool::Pool::new(2);
    let n = 1usize << 20;
    // The solve a consumer makes, for any pipeline cost.
    let g = pool.install(|| bds_seq::stream::geometry(n, None, bds_cost::SIMPLE));
    let want_bs = n.div_ceil(8 * 2).max(bds_seq::MIN_BLOCK);
    assert_eq!(g.bs, want_bs);
    assert_eq!(g.nb, n.div_ceil(want_bs));
}

/// `sum_{i<n} (prefix_i + 1)` for the prefix sums of `i % 7`.
fn zipped_total(n: usize) -> u64 {
    let mut acc = 0u64;
    let mut t = n as u64; // the +1 per element from the fresh side
    for i in 0..n as u64 {
        t += acc;
        acc += i % 7;
    }
    t
}

#[test]
fn scan_zipped_with_fresh_side_streams_aligned_blocks_under_another_pool() {
    // A scan seeded under one pool and a fresh sequence consumed under
    // another: the consumer cuts both at the scan's fixed size, so the
    // blocks align whatever the second pool would have solved.
    let _g = serial();
    let n = 1usize << 20;
    let scanned = {
        let pool = bds_pool::Pool::new(4);
        pool.install(|| tabulate(n, |i| (i % 7) as u64).scan(0, |a, b| a + b).0)
    };
    let fixed = scanned.fixed_block_size();
    assert!(fixed.is_some());
    let pool = bds_pool::Pool::new(2);
    let (bs, total) = pool.install(|| {
        let z = (&scanned).zip_with(tabulate(n, |_| 1u64), |a, b| a + b);
        (z.fixed_block_size(), z.reduce(0, |a, b| a + b))
    });
    assert_eq!(bs, fixed, "the zip is cut at the scan's size");
    assert_eq!(total, zipped_total(n));
}

#[test]
fn scan_fixes_the_zip_across_thread_counts() {
    // The scan's fixed size must cut the zip whatever pool widths seeded
    // the scan and consume the zip — 1, 2, and the machine's full width
    // on either side, with the scan as either zip operand. Under
    // Adaptive policy the two pools generally solve different geometries
    // for the same length, so a cell that cut the fresh side at its own
    // size would trip the scan's block-size assertion.
    let _g = serial();
    let n = 1usize << 20;
    let max = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
        .max(2);
    let mut widths = vec![1, 2, max];
    widths.dedup();
    let want_total = zipped_total(n);
    for &p_pin in &widths {
        for &p_zip in &widths {
            let scanned = {
                let pool = bds_pool::Pool::new(p_pin);
                pool.install(|| tabulate(n, |i| (i % 7) as u64).scan(0, |a, b| a + b).0)
            };
            let pool = bds_pool::Pool::new(p_zip);
            let left = pool.install(|| {
                (&scanned)
                    .zip_with(tabulate(n, |_| 1u64), |a, b| a + b)
                    .reduce(0, |a, b| a + b)
            });
            assert_eq!(left, want_total, "pin pool {p_pin}, zip pool {p_zip}");
            let right = pool.install(|| {
                tabulate(n, |_| 1u64)
                    .zip_with(&scanned, |a, b| a + b)
                    .reduce(0, |a, b| a + b)
            });
            assert_eq!(right, want_total, "pin pool {p_pin}, zip pool {p_zip} (reversed)");
        }
    }
}

#[test]
fn policy_guard_restores_adaptive_default() {
    let _g = serial();
    {
        let _p = bds_seq::set_policy(bds_seq::Policy::fixed(4));
        assert_eq!(bds_seq::policy(), bds_seq::Policy::fixed(4));
    }
    assert_eq!(bds_seq::policy(), bds_seq::Policy::Adaptive);
}

/// A panic injected mid-pipeline must propagate cleanly through the
/// adaptive geometry path (cancellation and drop-safety are orthogonal
/// to how the block count was chosen).
#[cfg(feature = "fault-inject")]
#[test]
fn injected_panic_propagates_through_adaptive_path() {
    use bds_seq::faults;
    let _g = serial();
    let pool = bds_pool::Pool::new(4);
    let n = 1usize << 18;
    let _armed = faults::arm(n as u64 / 2);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.install(|| {
            tabulate(n, |i| {
                faults::poll_panic();
                i as u64
            })
            .reduce(0, |a, b| a + b)
        })
    }));
    let payload = result.expect_err("the armed fault must surface at the join");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(msg, "injected fault");
    // The pool stays usable after the unwound region.
    let ok = pool.install(|| tabulate(1000, |i| i).reduce(0, |a, b| a + b));
    assert_eq!(ok, 999 * 1000 / 2);
}
