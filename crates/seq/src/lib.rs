//! # bds-seq — parallel block-delayed sequences
//!
//! A Rust implementation of the PPoPP 2022 paper *"Parallel Block-Delayed
//! Sequences"* (Westrick, Rainey, Anderson, Blelloch): library-level loop
//! fusion for parallel collection operations, covering not just maps and
//! reduces but **scans, filters, and flattens**.
//!
//! ## The two representations
//!
//! * A **RAD** (random-access delayed sequence) is a function from index
//!   to value — the [`RadSeq`] trait. `tabulate` and `map` build RADs in
//!   O(1); fusing them is function composition ("index fusion").
//! * A **BID** (block-iterable delayed sequence) is the [`Seq`] trait's
//!   view: the sequence is split into equal blocks, each a sequential
//!   *stream* built in O(1). The consumer picks the block size and
//!   passes it to every block ([`Seq::block`]); only a scan, whose seeds
//!   belong to the size its eager phase ran under, fixes one
//!   ([`Seq::fixed_block_size`]). `scan`, `filter` and `flatten` produce
//!   BIDs: their block-based implementations have sequential inner loops, so
//!   the *output per block* can be a delayed stream that fuses with the
//!   next operation ("stream fusion within blocks, parallelism across
//!   blocks").
//!
//! Every RAD is also a BID (blocks of `get` calls), which is why
//! [`RadSeq`] is a subtrait of [`Seq`]. Conversion the other way requires
//! materializing ([`Seq::force`]).
//!
//! ## Example: the paper's best-cut kernel (Figure 4)
//!
//! ```
//! use bds_seq::prelude::*;
//!
//! let data: Vec<f64> = (0..10_000).map(|i| (i % 100) as f64).collect();
//! // map ∘ scan ∘ map ∘ reduce — fully fused: 2 passes over `data`,
//! // O(blocks) intermediate allocation.
//! let flags = from_slice(&data).map(|x| if x > 50.0 { 1u64 } else { 0 });
//! let (counts, _total) = flags.scan(0, |a, b| a + b);
//! let best = counts
//!     .map(|c| (c as f64) * 0.25)
//!     .reduce(f64::INFINITY, f64::min);
//! assert!(best <= 0.25);
//! ```
//!
//! ## Cost model and adaptive block geometry
//!
//! The companion crate `bds-cost` implements the paper's cost semantics
//! (work, span, allocations — Figure 11) so users can predict when
//! delaying wins and when a [`Seq::force`] is worth its extra pass.
//!
//! The same model drives the runtime. Every adaptor reports a per-element
//! cost ([`Seq::elem_cost`]); when a consumer runs, it adds its own cost
//! to the pipeline's and solves its geometry once ([`stream::geometry`]),
//! where the default [`Policy::Adaptive`] picks a block count from
//! cost × length × live workers (see `bds_cost::geometry`). The paper's
//! fixed `~8P blocks` heuristic remains available as [`Policy::fixed`]:
//!
//! ```
//! use bds_seq::prelude::*;
//!
//! // Pin the seed heuristic (8 blocks per worker) for this scope.
//! let _g = bds_seq::set_policy(bds_seq::Policy::fixed(8));
//! let total = tabulate(100_000, |i| i as u64).reduce(0, |a, b| a + b);
//! assert_eq!(total, 99_999 * 100_000 / 2);
//! // Dropping the guard restores the adaptive default.
//! ```
//!
//! See `docs/ARCHITECTURE.md` for the full geometry walkthrough.
//!
//! ## Failure semantics
//!
//! Pipelines run user closures on pool workers, in parallel, over
//! blocks. When one of them panics or fails:
//!
//! * **Panics propagate, nothing leaks.** A panic in any closure
//!   resurfaces at the consumer's join point with its original payload.
//!   Sibling blocks stop at their next block boundary (cooperative
//!   cancellation via `bds-pool`; nothing is interrupted mid-element),
//!   and every element materialized so far is dropped exactly once —
//!   all parallel buffer fills go through a drop-guard protocol that
//!   tracks initialized segments through unwinding.
//! * **Fallible consumers short-circuit.** [`Seq::try_reduce`] and
//!   [`Seq::try_filter_collect`] take closures returning `Result`; the
//!   first observed error cancels the remaining blocks and is returned.
//!   See [`fallible`] for the fine print on which error wins under
//!   races.
//! * **Failures can be injected deterministically.** The [`faults`]
//!   harness (behind the `fault-inject` feature; no-op stubs otherwise)
//!   fires a panic or an `Err` at exactly the Nth instrumented closure
//!   invocation, which is how the failure paths above are swept in CI.
//! * **Resource budgets govern whole pipelines.** [`run_governed`] runs
//!   any consumer under a [`Budget`] (deadline and/or memory ceiling)
//!   and returns [`Exceeded`] instead of a partial result: a watchdog
//!   cancels the run when the deadline passes, and materializing
//!   consumers charge allocations against the memory budget via
//!   fallible (`try_reserve`) growth. See [`governed`].

#![warn(missing_docs)]

pub mod adaptors;
pub mod counters;
pub mod dynseq;
pub mod erased;
pub mod fallible;
pub mod faults;
pub mod filter;
pub mod flatten;
pub mod governed;
pub mod policy;
pub mod profile;
pub mod scan;
pub mod simd;
pub mod sources;
pub mod stream;
pub mod traits;
mod util;

pub use adaptors::{map_with_index, Enumerate, Map, MapWithIndex, RevSeq, SkipSeq, TakeSeq, Zip, ZipWith};
pub use erased::{BoxRad, BoxSeq, ErasedRadSeq, ErasedSeq};
pub use filter::Filtered;
pub use flatten::{flatten, Flattened, RegionIter};
pub use governed::{run_governed, Budget, Exceeded};
pub use bds_pool::{
    recovery_counts, run_recovered, run_recovered_counting, BlockFailed, RecoveryCounts,
    RetryPolicy,
};
pub use policy::{
    block_size, block_size_costed, force_block_size, policy, set_policy, BlockSizeGuard, Policy,
    PolicyGuard, MIN_BLOCK,
};
pub use profile::{profile, profile_on, ProfileReport, Stage, StageReport};
pub use scan::{Scanned, ScannedIncl};
pub use simd::{force_level, SimdLevel, SimdLevelGuard};
pub use sources::{empty, from_slice, range, repeat, tabulate, Forced, FromSlice, Tabulate};
pub use traits::{RadBlock, RadSeq, Seq};

/// Everything needed to write pipelines: the traits plus constructors.
pub mod prelude {
    pub use crate::flatten::flatten;
    pub use crate::sources::{empty, from_slice, range, repeat, tabulate};
    pub use crate::traits::{RadSeq, Seq};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn reference_scan(xs: &[u64]) -> (Vec<u64>, u64) {
        let mut out = Vec::with_capacity(xs.len());
        let mut acc = 0u64;
        for &x in xs {
            out.push(acc);
            acc += x;
        }
        (out, acc)
    }

    #[test]
    fn tabulate_to_vec_identity() {
        let v = tabulate(10_000, |i| i).to_vec();
        assert!(v.iter().enumerate().all(|(i, &x)| x == i));
    }

    #[test]
    fn tabulate_empty() {
        let v: Vec<usize> = tabulate(0, |i| i).to_vec();
        assert!(v.is_empty());
    }

    #[test]
    fn map_fuses_and_is_correct() {
        let v = tabulate(5000, |i| i as u64).map(|x| x * x).to_vec();
        assert_eq!(v[70], 4900);
        assert_eq!(v.len(), 5000);
    }

    #[test]
    fn map_preserves_random_access() {
        let s = tabulate(100, |i| i as i64).map(|x| -x);
        assert_eq!(s.get(42), -42);
    }

    #[test]
    fn reduce_sums() {
        let total = tabulate(100_000, |i| i as u64).reduce(0, |a, b| a + b);
        assert_eq!(total, 99_999u64 * 100_000 / 2);
    }

    #[test]
    fn reduce_empty_returns_zero() {
        let total = tabulate(0, |i| i as u64).reduce(7, |a, b| a + b);
        assert_eq!(total, 7);
    }

    #[test]
    fn reduce_non_commutative_preserves_order() {
        let _guard = crate::policy::test_sync::test_force(16);
        let s = tabulate(200, |i| format!("{},", i));
        let joined = s.reduce(String::new(), |mut a, b| {
            a.push_str(&b);
            a
        });
        let want: String = (0..200).map(|i| format!("{},", i)).collect();
        assert_eq!(joined, want);
    }

    #[test]
    fn scan_exclusive_matches_reference() {
        let xs: Vec<u64> = (0..20_000).map(|i| (i * 31 + 7) % 997).collect();
        let (scanned, total) = from_slice(&xs).scan(0, |a, b| a + b);
        let got = scanned.to_vec();
        let (want, want_total) = reference_scan(&xs);
        assert_eq!(got, want);
        assert_eq!(total, want_total);
    }

    #[test]
    fn scan_inclusive_matches_reference() {
        let xs: Vec<u64> = (0..10_000).map(|i| i % 13).collect();
        let got = from_slice(&xs).scan_incl(0, |a, b| a + b).to_vec();
        let mut acc = 0;
        let want: Vec<u64> = xs
            .iter()
            .map(|x| {
                acc += x;
                acc
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn scan_of_scan_fuses() {
        // scan followed by scan: the second phase-1 streams through the
        // first's delayed phase 3.
        let n = 4096usize;
        let (s1, _) = tabulate(n, |_| 1u64).scan(0, |a, b| a + b);
        let (s2, total) = s1.scan(0, |a, b| a + b);
        // s1 = [0,1,2,...]; s2 = prefix sums of that = i(i-1)/2.
        let v = s2.to_vec();
        assert_eq!(v[10], 45);
        assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn filter_matches_retain() {
        let xs: Vec<u64> = (0..30_000).map(|i| (i * 17) % 1000).collect();
        let got = from_slice(&xs).filter(|&x| x < 250).to_vec();
        let want: Vec<u64> = xs.iter().copied().filter(|&x| x < 250).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn filter_none_and_all() {
        let xs: Vec<u32> = (0..5000).collect();
        assert!(from_slice(&xs).filter(|_| false).to_vec().is_empty());
        assert_eq!(from_slice(&xs).filter(|_| true).to_vec(), xs);
    }

    #[test]
    fn filter_op_maps_and_filters() {
        let got = tabulate(1000, |i| i as i64)
            .filter_op(|x| if x % 5 == 0 { Some(x * 2) } else { None })
            .to_vec();
        let want: Vec<i64> = (0..1000).filter(|x| x % 5 == 0).map(|x| x * 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn filtered_reduce_without_materializing() {
        let total = tabulate(100_000, |i| i as u64)
            .filter(|&x| x % 2 == 0)
            .reduce(0, |a, b| a + b);
        let want: u64 = (0..100_000u64).filter(|x| x % 2 == 0).sum();
        assert_eq!(total, want);
    }

    #[test]
    fn flatten_concatenates() {
        let inners: Vec<_> = (0..50)
            .map(|k| {
                crate::sources::Forced::from_vec((0..k).collect::<Vec<usize>>())
            })
            .collect();
        let flat = crate::flatten::Flattened::from_inners(inners);
        let got = flat.to_vec();
        let want: Vec<usize> = (0..50).flat_map(|k| 0..k).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn flatten_of_mapped_outer() {
        // flatten (map outPairs F) — the BFS shape.
        let frontier: Vec<usize> = vec![3, 0, 5, 1];
        let flat = flatten(
            from_slice(&frontier).map(|u| tabulate(u, move |v| (u, v))),
        );
        let got = flat.to_vec();
        let want: Vec<(usize, usize)> = frontier
            .iter()
            .flat_map(|&u| (0..u).map(move |v| (u, v)))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn flatten_with_empty_inners() {
        let inners: Vec<_> = [vec![], vec![1, 2], vec![], vec![], vec![3], vec![]]
            .into_iter()
            .map(crate::sources::Forced::from_vec)
            .collect();
        let flat = crate::flatten::Flattened::from_inners(inners);
        assert_eq!(flat.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn zip_pairs_elements() {
        let _l = crate::policy::test_sync::test_lock();
        let a = tabulate(1000, |i| i);
        let b = tabulate(1000, |i| 1000 - i);
        let v = a.zip(b).map(|(x, y)| x + y).to_vec();
        assert!(v.iter().all(|&s| s == 1000));
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn zip_unequal_lengths_panics() {
        let a = tabulate(10, |i| i);
        let b = tabulate(11, |i| i);
        let _ = a.zip(b);
    }

    #[test]
    fn zip_with_scanned_bid() {
        // zip(RAD, BID): the RAD side blockifies with matching structure.
        let _l = crate::policy::test_sync::test_lock();
        let n = 5000;
        let (scanned, _) = tabulate(n, |_| 1u64).scan(0, |a, b| a + b);
        let idx = tabulate(n, |i| i as u64);
        let v = scanned.zip_with(idx, |p, i| p == i).to_vec();
        assert!(v.into_iter().all(|ok| ok));
    }

    #[test]
    fn enumerate_attaches_indices() {
        let v = tabulate(3000, |i| i * 2).enumerate().to_vec();
        assert!(v.iter().all(|&(i, x)| x == i * 2));
    }

    #[test]
    fn take_skip_rev() {
        let s = tabulate(100, |i| i);
        assert_eq!(s.take(5).to_vec(), vec![0, 1, 2, 3, 4]);
        let s = tabulate(100, |i| i);
        assert_eq!(s.skip(97).to_vec(), vec![97, 98, 99]);
        let s = tabulate(5, |i| i);
        assert_eq!(s.rev().to_vec(), vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn force_then_reuse() {
        let forced = tabulate(10_000, |i| i as u64).map(|x| x + 1).force();
        let sum = forced.reduce(0, |a, b| a + b);
        let max = forced.reduce(0, u64::max);
        assert_eq!(sum, (1..=10_000u64).sum::<u64>());
        assert_eq!(max, 10_000);
    }

    #[test]
    fn count_elements() {
        let c = tabulate(10_000, |i| i).count(|&x| x % 7 == 0);
        assert_eq!(c, (0..10_000).filter(|x| x % 7 == 0).count());
    }

    #[test]
    fn bestcut_pipeline_end_to_end() {
        // The paper's Figure 4 shape: map, scan, map, reduce.
        let n = 10_000usize;
        let xs: Vec<u32> = (0..n as u32).map(|i| i % 10).collect();
        let is_end = from_slice(&xs).map(|x| u64::from(x == 0));
        let (end_counts, _) = is_end.scan(0, |a, b| a + b);
        let best = end_counts
            .map(|c| (c as f64 - 500.0).abs())
            .reduce(f64::INFINITY, f64::min);
        // Reference.
        let mut acc = 0u64;
        let mut want = f64::INFINITY;
        for &x in &xs {
            want = want.min((acc as f64 - 500.0).abs());
            acc += u64::from(x == 0);
        }
        assert_eq!(best, want);
    }

    #[test]
    fn range_and_repeat() {
        assert_eq!(range(5, 9).to_vec(), vec![5, 6, 7, 8]);
        assert_eq!(repeat(3u8, 4).to_vec(), vec![3, 3, 3, 3]);
        assert!(empty::<u8>().to_vec().is_empty());
    }

    #[test]
    fn seq_on_reference_does_not_consume() {
        let forced = tabulate(1000, |i| i as u64).force();
        let r = &forced;
        let s1 = r.reduce(0, |a, b| a + b);
        let s2 = r.map(|x| x).reduce(0, |a, b| a + b);
        assert_eq!(s1, s2);
    }
}
