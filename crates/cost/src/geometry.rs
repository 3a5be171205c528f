//! The block-geometry solver: from pipeline cost × input length ×
//! worker count to a concrete `(block_size, num_blocks)`.
//!
//! The paper's performance model (PAPER.md §4–5, Figs. 12–16) pulls in
//! two directions: more blocks feed the work-stealing pool (parallelism
//! and load balance), fewer blocks amortize per-block scheduling
//! overhead over longer sequential streams. [`solve`] balances the two:
//!
//! - an upper *usefulness* bound: each block should carry at least
//!   [`BALANCE_FACTOR`] × the per-block overhead worth of priced work,
//!   otherwise splitting costs more than it buys;
//! - an upper *parallelism* bound: beyond
//!   [`TARGET_BLOCKS_PER_WORKER`] × workers blocks, extra blocks only
//!   add overhead — the pool is already saturated with enough slack for
//!   load balancing;
//! - hard bounds: at least 1 block, at most `len` blocks.
//!
//! The priced work comes from the pipeline's accumulated
//! [`ElemCost`] (each adaptor contributes its per-element cost) and the
//! process [`Calibration`].
//!
//! # Examples
//!
//! ```
//! use bds_cost::{geometry, Calibration, SIMPLE};
//!
//! let cal = Calibration { ns_per_work: 1.0, block_overhead_ns: 1000.0 };
//! // A long, cheap pipeline on 4 workers: saturate the pool.
//! let g = geometry::solve(1 << 20, SIMPLE + SIMPLE, 4, &cal);
//! assert_eq!(g.num_blocks, 32); // 8 blocks per worker
//! // A tiny input: not worth splitting at all.
//! let g = geometry::solve(64, SIMPLE, 4, &cal);
//! assert_eq!(g.num_blocks, 1);
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::calibrate::Calibration;
use crate::model::ElemCost;

/// How many blocks per worker the solver aims for when the pipeline is
/// expensive enough to saturate the pool. Mirrors the seed heuristic's
/// `8 × procs` multiplier: enough slack for work stealing to balance
/// uneven blocks, few enough that per-block overhead stays negligible.
pub const TARGET_BLOCKS_PER_WORKER: usize = 8;

/// Minimum ratio of priced per-block work to per-block overhead: a
/// block must do at least this many multiples of its own scheduling
/// cost in real work, or the solver refuses to create it.
pub const BALANCE_FACTOR: f64 = 4.0;

/// A solved block geometry.
///
/// Invariants (for `len > 0`): `1 <= num_blocks <= len`,
/// `block_size >= 1`, and `block_size * num_blocks >= len` with
/// `block_size * (num_blocks - 1) < len` (no empty trailing block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Elements per block (the last block may be smaller).
    pub block_size: usize,
    /// Number of blocks covering `len` elements.
    pub num_blocks: usize,
}

/// One geometry decision made by [`solve`] while a
/// [`record_geometry`] guard was active: the solver's inputs and the
/// geometry it chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct GeometryDecision {
    /// Input length the solver was asked about.
    pub len: usize,
    /// Accumulated per-element work units of the pipeline.
    pub per_elem_work: u64,
    /// Worker count the decision assumed.
    pub workers: usize,
    /// Chosen elements-per-block.
    pub block_size: usize,
    /// Chosen number of blocks.
    pub num_blocks: usize,
}

/// Whether [`solve`] is currently appending to the decision log.
static RECORDING: AtomicBool = AtomicBool::new(false);

/// The decision log itself. Appends are mutex-ordered so decisions made
/// from pool workers interleave safely with the driving thread.
static DECISIONS: Mutex<Vec<GeometryDecision>> = Mutex::new(Vec::new());

/// RAII guard returned by [`record_geometry`]; stops recording on drop
/// (the log survives until the next [`record_geometry`] call so it can
/// still be read with [`recorded_geometry`]).
#[must_use = "dropping the guard immediately stops recording"]
pub struct GeometryRecording {
    _priv: (),
}

/// Start recording every [`solve`] decision process-wide, clearing any
/// previous log.
///
/// Recording is **process-global** and intended for a single driver at
/// a time (the `bds-check` replay verifier); overlapping recorders
/// would share one log. Read the log with [`recorded_geometry`].
pub fn record_geometry() -> GeometryRecording {
    DECISIONS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
    RECORDING.store(true, Ordering::Release);
    GeometryRecording { _priv: () }
}

impl Drop for GeometryRecording {
    fn drop(&mut self) {
        RECORDING.store(false, Ordering::Release);
    }
}

/// Snapshot the decisions recorded since the last [`record_geometry`]
/// call. Decisions appear in append order; callers comparing runs that
/// may resolve geometry from different threads should sort first.
pub fn recorded_geometry() -> Vec<GeometryDecision> {
    DECISIONS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Solve for block geometry given the input length, the pipeline's
/// accumulated per-element cost, the number of workers expected to be
/// available, and the process calibration.
///
/// Deterministic: same arguments, same answer. The number of blocks is
/// monotone non-decreasing in `workers` and always within `[1, len]`;
/// for inputs long enough to saturate the pool it is at least
/// `workers`. `len == 0` yields `block_size = 1, num_blocks = 0`
/// (a positive block size keeps downstream `ceil_div` arithmetic
/// well-defined).
pub fn solve(len: usize, per_elem: ElemCost, workers: usize, cal: &Calibration) -> Geometry {
    let g = solve_unrecorded(len, per_elem, workers, cal);
    record(len, per_elem, workers, g);
    g
}

/// Round `g.block_size` **up** to a multiple of `lane` (a SIMD lane
/// count) and recompute the block count, so every interior block
/// boundary falls on a lane boundary and only the final block carries a
/// scalar tail. The SIMD drivers in `bds_seq::simd` apply it to the one
/// geometry their consumption solved.
///
/// Without alignment, [`solve`] on small inputs happily emits block
/// sizes like 13 or 47 that straddle lane width — every block of a
/// vectorized kernel then pays a scalar prologue *and* epilogue, which
/// on a 4-block input erases most of the SIMD win. Rounding up can only
/// lower the block count, never violate the [`Geometry`] invariants:
/// the size is capped at `len` (a single block needs no interior
/// alignment) and the count recomputed as `len.div_ceil(block_size)`.
/// `lane <= 1`, a zero-length input and a single block are left alone.
pub fn align_to_lane(g: Geometry, len: usize, lane: usize) -> Geometry {
    let lane = lane.max(1);
    if len == 0 || lane == 1 || g.num_blocks <= 1 {
        return g;
    }
    let block_size = match g.block_size.checked_next_multiple_of(lane) {
        Some(aligned) => aligned.min(len),
        None => len,
    };
    let num_blocks = len.div_ceil(block_size);
    Geometry {
        block_size,
        num_blocks,
    }
}

fn solve_unrecorded(len: usize, per_elem: ElemCost, workers: usize, cal: &Calibration) -> Geometry {
    if len == 0 {
        return Geometry {
            block_size: 1,
            num_blocks: 0,
        };
    }
    let workers = workers.max(1);
    // Total priced pipeline time, in f64 to dodge u64 overflow on huge
    // len × cost products.
    let total_ns = len as f64 * per_elem.w.max(1) as f64 * cal.ns_per_work.max(f64::MIN_POSITIVE);
    // Usefulness bound: each block must amortize its scheduling cost.
    let per_block_floor_ns = BALANCE_FACTOR * cal.block_overhead_ns.max(1.0);
    let max_useful = ((total_ns / per_block_floor_ns) as usize).max(1);
    // Parallelism bound.
    let target = TARGET_BLOCKS_PER_WORKER.saturating_mul(workers);
    let nb = target.min(max_useful).clamp(1, len);
    // Round-trip through the block size so size × count tiles len
    // exactly the way the blocked iterators will.
    let block_size = len.div_ceil(nb);
    let num_blocks = len.div_ceil(block_size);
    Geometry {
        block_size,
        num_blocks,
    }
}

fn record(len: usize, per_elem: ElemCost, workers: usize, g: Geometry) {
    if RECORDING.load(Ordering::Acquire) {
        DECISIONS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(GeometryDecision {
                len,
                per_elem_work: per_elem.w,
                workers,
                block_size: g.block_size,
                num_blocks: g.num_blocks,
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SIMPLE;

    fn cal() -> Calibration {
        Calibration {
            ns_per_work: 1.0,
            block_overhead_ns: 1500.0,
        }
    }

    #[test]
    fn bounds_hold_across_lengths_and_workers() {
        let cal = cal();
        for len in [0usize, 1, 2, 7, 64, 1000, 1 << 16, 1 << 22] {
            for workers in [1usize, 2, 3, 8, 64] {
                let g = solve(len, SIMPLE, workers, &cal);
                if len == 0 {
                    assert_eq!(g.num_blocks, 0);
                    assert_eq!(g.block_size, 1);
                    continue;
                }
                assert!(g.num_blocks >= 1 && g.num_blocks <= len, "len={len} {g:?}");
                assert!(g.block_size >= 1);
                assert!(g.block_size * g.num_blocks >= len);
                assert!(g.block_size * (g.num_blocks - 1) < len);
            }
        }
    }

    #[test]
    fn num_blocks_monotone_in_workers() {
        let cal = cal();
        for len in [1usize, 100, 10_000, 1 << 20] {
            let mut prev = 0;
            for workers in 1..=16 {
                let nb = solve(len, SIMPLE, workers, &cal).num_blocks;
                assert!(nb >= prev, "len={len} workers={workers}: {nb} < {prev}");
                prev = nb;
            }
        }
    }

    #[test]
    fn saturating_input_never_starves_workers() {
        // len ≫ procs with real per-element work: the pool must get at
        // least one block per worker (regression for the fixed-k
        // heuristic's starvation at small k).
        let cal = cal();
        for workers in [1usize, 2, 4, 8, 32] {
            let g = solve(1 << 22, SIMPLE, workers, &cal);
            assert!(
                g.num_blocks >= workers,
                "workers={workers}: {:?}",
                g.num_blocks
            );
            assert_eq!(g.num_blocks, TARGET_BLOCKS_PER_WORKER * workers);
        }
    }

    #[test]
    fn tiny_or_cheap_input_stays_whole() {
        let cal = cal();
        // 64 simple elements ≈ 64ns of work vs 6µs of split cost.
        assert_eq!(solve(64, SIMPLE, 8, &cal).num_blocks, 1);
    }

    #[test]
    fn costlier_pipelines_split_sooner() {
        let cal = cal();
        let cheap = ElemCost { w: 1, s: 1, a: 0 };
        let heavy = ElemCost { w: 1000, s: 1000, a: 0 };
        let n = 50_000;
        let g_cheap = solve(n, cheap, 8, &cal);
        let g_heavy = solve(n, heavy, 8, &cal);
        assert!(g_heavy.num_blocks >= g_cheap.num_blocks);
        assert_eq!(g_heavy.num_blocks, 64);
    }

    #[test]
    fn recording_captures_decisions_and_stops_on_drop() {
        let cal = cal();
        let rec = record_geometry();
        let g = solve(10_000, SIMPLE, 4, &cal);
        let log = recorded_geometry();
        // Other tests may run solve concurrently; find our decision
        // rather than asserting the log length.
        assert!(log.iter().any(|d| d.len == 10_000
            && d.workers == 4
            && d.block_size == g.block_size
            && d.num_blocks == g.num_blocks));
        drop(rec);
        // A solve after the guard drops must not be recorded; use a
        // length no other test passes so concurrent solves can't
        // confuse the check.
        solve(31_337, SIMPLE, 5, &cal);
        assert!(!recorded_geometry().iter().any(|d| d.len == 31_337));
    }

    #[test]
    fn small_inputs_straddle_lanes_without_alignment() {
        // Regression: on small inputs the plain solver emits block
        // sizes that straddle lane width (every interior boundary then
        // splits a vector chunk), and the aligned geometry must not.
        let cal = cal();
        let heavy = ElemCost { w: 200, s: 200, a: 0 };
        let lane = 8;
        let mut straddled = 0;
        for len in 100..400usize {
            let plain = solve(len, heavy, 8, &cal);
            if plain.num_blocks > 1 && !plain.block_size.is_multiple_of(lane) {
                straddled += 1;
            }
            let aligned = align_to_lane(plain, len, lane);
            if aligned.num_blocks > 1 {
                assert_eq!(
                    aligned.block_size % lane,
                    0,
                    "len={len}: {aligned:?} straddles lane {lane}"
                );
            }
            // Geometry invariants survive alignment.
            assert!(aligned.num_blocks >= 1 && aligned.num_blocks <= len);
            assert!(aligned.block_size >= 1 && aligned.block_size <= len);
            assert!(aligned.block_size * aligned.num_blocks >= len);
            assert!(aligned.block_size * (aligned.num_blocks - 1) < len);
        }
        assert!(
            straddled > 0,
            "expected the unaligned solver to straddle somewhere in 100..400"
        );
    }

    #[test]
    fn lane_alignment_degenerate_cases() {
        let cal = cal();
        // lane <= 1 is a no-op.
        let g = solve(10_000, SIMPLE, 4, &cal);
        assert_eq!(align_to_lane(g, 10_000, 1), g);
        assert_eq!(align_to_lane(g, 10_000, 0), g);
        // Zero-length input keeps the sentinel geometry.
        let g = align_to_lane(solve(0, SIMPLE, 4, &cal), 0, 16);
        assert_eq!(g.num_blocks, 0);
        assert_eq!(g.block_size, 1);
        // A single block needs no interior alignment: size stays len.
        let g = solve(64, SIMPLE, 8, &cal);
        assert_eq!(g.num_blocks, 1);
        assert_eq!(align_to_lane(g, 64, 16), g);
        // Rounding up recomputes the block count ...
        let g = align_to_lane(
            Geometry {
                block_size: 60,
                num_blocks: 2,
            },
            65,
            64,
        );
        assert_eq!(g.num_blocks, 2);
        assert_eq!(g.block_size, 64);
        // ... and past len collapses to one block of len.
        let g = align_to_lane(
            Geometry {
                block_size: 60,
                num_blocks: 2,
            },
            63,
            64,
        );
        assert_eq!(g.num_blocks, 1);
        assert_eq!(g.block_size, 63);
    }

    #[test]
    fn no_overflow_on_extreme_products() {
        let cal = cal();
        let huge = ElemCost {
            w: u64::MAX,
            s: 1,
            a: 0,
        };
        let g = solve(usize::MAX, huge, usize::MAX, &cal);
        assert!(g.num_blocks >= 1);
    }
}
