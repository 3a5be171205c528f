//! Filter with blockwise packing (Figure 10, lines 48-53).
//!
//! Phase 1 streams each input block through the predicate, packing the
//! survivors of that block into a small dense array (the paper's
//! `s.packToArray`). Phase 2 is exactly a [`flatten`] of those packed
//! arrays: the output is a BID whose blocks stream out of the packed
//! regions via `getRegion`. The survivors are therefore *never* copied
//! into one contiguous output array, and total allocation is just the
//! survivors plus O(b) offsets.
//!
//! [`flatten`]: crate::flatten::flatten

use crate::flatten::Flattened;
use crate::sources::Forced;
use crate::stream;
use crate::traits::Seq;

/// The delayed result of [`Seq::filter`] / [`Seq::filter_op`]: a flatten
/// over per-input-block packed survivor arrays.
pub type Filtered<T> = Flattened<Forced<T>>;

/// Keep the elements of `input` satisfying `pred`; see [`Seq::filter`].
pub(crate) fn filter<S, P>(input: &S, pred: &P) -> Filtered<S::Item>
where
    S: Seq + ?Sized,
    S::Item: Clone + Sync,
    P: Fn(&S::Item) -> bool + Send + Sync,
{
    filter_op(input, &|x| pred(&x).then_some(x))
}

/// Map through `f`, keeping `Some` results; see [`Seq::filter_op`]. One
/// instantiation of the indexed-stream core's [`stream::filter_parts`]
/// drive loop (which owns the geometry, profiling, and per-block
/// survivor charging), flattened.
///
/// `packToArray` in the paper uses a dynamically resized array so that
/// only as much memory as needed is allocated; the core's per-block
/// `Vec` is exactly that.
pub(crate) fn filter_op<S, U, F>(input: &S, f: &F) -> Filtered<U>
where
    S: Seq + ?Sized,
    U: Clone + Send + Sync,
    F: Fn(S::Item) -> Option<U> + Sync,
{
    let parts = stream::filter_parts(input, f);
    Flattened::from_inners(parts.into_iter().map(Forced::from_vec).collect())
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn filter_output_block_structure_over_survivors() {
        // 100 survivors out of 1000; output blocks cover survivor space.
        let _g = crate::policy::test_sync::test_force(16);
        let f = tabulate(1000, |i| i).filter(|&x| x % 10 == 0);
        assert_eq!(f.len(), 100);
        assert_eq!(f.num_inners(), 1000usize.div_ceil(16));
        let got: Vec<usize> = (0..7).flat_map(|j| f.block(j, 16)).collect();
        let want: Vec<usize> = (0..1000).filter(|x| x % 10 == 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn filter_of_filter_composes() {
        let f = tabulate(10_000, |i| i as u64)
            .filter(|&x| x % 2 == 0)
            .filter(|&x| x % 3 == 0);
        let want: Vec<u64> = (0..10_000).filter(|x| x % 6 == 0).collect();
        assert_eq!(f.to_vec(), want);
    }

    #[test]
    fn filter_on_scanned_bid_input() {
        // The filter's phase-1 packing streams through scan's delayed
        // phase 3 — the core BID-to-BID fusion.
        let _g = crate::policy::test_sync::test_force(32);
        let (s, _) = tabulate(500, |_| 1u64).scan(0, |a, b| a + b);
        let f = s.filter(|&p| p % 7 == 0);
        let want: Vec<u64> = (0..500).filter(|p| p % 7 == 0).collect();
        assert_eq!(f.to_vec(), want);
    }

    #[test]
    fn filter_op_type_change() {
        let f = tabulate(100, |i| i).filter_op(|x| (x < 3).then(|| format!("#{x}")));
        assert_eq!(f.to_vec(), vec!["#0", "#1", "#2"]);
    }

    #[test]
    fn filter_empty_input() {
        let f = tabulate(0, |i| i).filter(|_| true);
        assert!(f.is_empty());
        assert_eq!(f.reduce(0, |a, b| a + b), 0);
    }
}
