//! Fallible eager consumers: short-circuiting variants of `reduce` and
//! `filter` for pipelines whose closures can fail ([`Seq::try_reduce`],
//! [`Seq::try_filter_collect`]).
//!
//! Both run their parallel phase through
//! [`bds_pool::apply_cancellable`], so the first block that returns
//! `Err` (or panics) cancels the region: sibling blocks stop at their
//! next block boundary instead of running to completion, and partial
//! output buffers drop their initialized elements exactly once (the
//! `PartialVec` protocol). The reported error is
//! deterministic — the one from the lowest failing block index — even
//! when several blocks fail concurrently; a real panic always wins over
//! an `Err` and is resumed at the join point.
//!
//! # Error counts under parallel evaluation
//!
//! Like their infallible counterparts, these operations may invoke the
//! fallible closure on *more* argument pairs than a sequential run
//! would (e.g. `try_reduce` combines per-block partial sums, a pairing
//! a left-to-right fold never forms). A failure anywhere in that tree
//! yields `Err`, so an operator that fails on some input may surface an
//! error that a purely sequential evaluation would not encounter.
//! Operators should be associative where they succeed, and fail
//! consistently.

use crate::flatten::Flattened;
use crate::sources::Forced;
use crate::stream;
use crate::traits::Seq;

/// Fallible filter, materialized; see [`Seq::try_filter_collect`].
/// Phase 1 is the core's [`stream::try_filter_parts`] packing loop;
/// phase 2 concatenates in parallel by reusing the flatten machinery
/// (its `to_vec` streams each output block out of the packed parts).
pub(crate) fn try_filter_collect<S, E, P>(seq: &S, pred: &P) -> Result<Vec<S::Item>, E>
where
    S: Seq + ?Sized,
    S::Item: Clone + Sync,
    P: Fn(&S::Item) -> Result<bool, E> + Send + Sync,
    E: Send,
{
    let parts = stream::try_filter_parts(seq, pred)?;
    let flat = Flattened::from_inners(parts.into_iter().map(Forced::from_vec).collect());
    Ok(flat.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn try_reduce_ok_matches_reduce() {
        let got: Result<u64, ()> =
            tabulate(50_000, |i| i as u64).try_reduce(0, |a, b| Ok(a + b));
        assert_eq!(got, Ok(49_999u64 * 50_000 / 2));
    }

    #[test]
    fn try_reduce_short_circuits() {
        let _g = crate::policy::test_sync::test_force(64);
        let calls = AtomicUsize::new(0);
        // 641 is *inside* block 10 (not its first element, which would
        // seed the fold and never reach `combine` as an argument).
        let got = tabulate(100_000, |i| i as u64).try_reduce(0, |a, b| {
            calls.fetch_add(1, Ordering::Relaxed);
            if b == 641 {
                Err("hit 641")
            } else {
                Ok(a + b)
            }
        });
        assert_eq!(got, Err("hit 641"));
        assert!(
            calls.load(Ordering::Relaxed) < 100_000,
            "siblings must be skipped, saw {} combines",
            calls.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn try_reduce_reported_error_is_a_real_failure() {
        // Many blocks fail concurrently. Which failing block is lowest
        // among those *observed* varies with scheduling (skipped blocks
        // never report — the barrier-based pool test pins down the
        // lowest-observed-wins rule), but the reported error must always
        // be a genuinely failing value.
        let _g = crate::policy::test_sync::test_force(16);
        for _ in 0..10 {
            let got = tabulate(10_000, |i| i).try_reduce(0, |a, b| {
                if b % 100 == 0 && b > 0 {
                    Err(b)
                } else {
                    Ok(a + b)
                }
            });
            let e = got.expect_err("some block must fail");
            assert!(e % 100 == 0 && e > 0, "reported {e}");
        }
    }

    #[test]
    fn try_reduce_empty_is_zero() {
        let got: Result<u64, &str> = tabulate(0, |_| 0u64).try_reduce(7, |_, _| Err("no"));
        assert_eq!(got, Ok(7));
    }

    #[test]
    fn try_filter_collect_ok_matches_filter() {
        let xs: Vec<u64> = (0..30_000).map(|i| (i * 17) % 1000).collect();
        let got = from_slice(&xs)
            .try_filter_collect(|&x| Ok::<bool, ()>(x < 250))
            .unwrap();
        let want: Vec<u64> = xs.iter().copied().filter(|&x| x < 250).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn try_filter_collect_propagates_error() {
        let got = tabulate(10_000, |i| i).try_filter_collect(|&x| {
            if x == 5_000 {
                Err("bad element")
            } else {
                Ok(x % 2 == 0)
            }
        });
        assert_eq!(got, Err("bad element"));
    }

    #[test]
    fn fallible_consumers_fuse_with_delayed_pipelines() {
        // try_reduce over map∘scan: errors surface through the fused
        // delayed phase-3 streams.
        let (prefix, _) = tabulate(5_000, |_| 1u64).scan(0, |a, b| a + b);
        let got = prefix
            .map(|p| p * 2)
            .try_reduce(0, |a, b| a.checked_add(b).ok_or("overflow"));
        let want: u64 = (0..5_000u64).map(|p| p * 2).sum();
        assert_eq!(got, Ok(want));
    }
}
