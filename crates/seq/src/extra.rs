//! Extensions beyond the paper's Figure 1 interface: append, unzip,
//! short-circuiting quantifiers, and extrema. All follow the same
//! delayed/blocked discipline as the core operations.

use crate::stream::{self, of_seq};
use crate::traits::{RadBlock, RadSeq, Seq};

// ---------------------------------------------------------------------
// Append
// ---------------------------------------------------------------------

/// Delayed concatenation of two random-access sequences. O(1) eager;
/// random access dispatches on the boundary.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct Append<A, B> {
    a: A,
    b: B,
}

/// Concatenate two RADs into a delayed sequence.
pub fn append<A, B>(a: A, b: B) -> Append<A, B>
where
    A: RadSeq,
    B: RadSeq<Item = A::Item>,
{
    Append { a, b }
}

impl<A, B> Seq for Append<A, B>
where
    A: RadSeq,
    B: RadSeq<Item = A::Item>,
{
    type Item = A::Item;
    type Block<'s>
        = RadBlock<'s, Self>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.a.len() + self.b.len()
    }

    fn elem_cost(&self) -> bds_cost::ElemCost {
        // Boundary dispatch plus the costlier side's element cost (a
        // block may land entirely in either side).
        let (a, b) = (self.a.elem_cost(), self.b.elem_cost());
        let worst = if a.w >= b.w { a } else { b };
        worst + bds_cost::SIMPLE
    }

    fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
        let (lo, hi) = stream::block_bounds(Seq::len(self), bs, j);
        RadBlock::new(self, lo, hi)
    }
    #[inline]
    fn fold_chunk<'s, Acc, F>(block: &mut Self::Block<'s>, n: usize, init: Acc, f: F) -> Acc
    where
        Self: 's,
        F: FnMut(Acc, A::Item) -> Acc,
    {
        block.fold_chunk(n, init, f)
    }
}

impl<A, B> RadSeq for Append<A, B>
where
    A: RadSeq,
    B: RadSeq<Item = A::Item>,
{
    #[inline]
    fn get(&self, i: usize) -> A::Item {
        if i < self.a.len() {
            self.a.get(i)
        } else {
            self.b.get(i - self.a.len())
        }
    }
}

// ---------------------------------------------------------------------
// Consumers
// ---------------------------------------------------------------------

/// Split a sequence of pairs into two materialized vectors in one fused
/// parallel pass.
pub fn unzip<S, A, B>(seq: &S) -> (Vec<A>, Vec<B>)
where
    S: Seq<Item = (A, B)>,
    A: Send,
    B: Send,
{
    stream::unzip(&of_seq(seq))
}

/// Does any element satisfy `pred`? Blocks short-circuit against a
/// shared flag, so a hit found anywhere stops the remaining streams
/// early.
pub fn any<S, P>(seq: &S, pred: P) -> bool
where
    S: Seq,
    P: Fn(&S::Item) -> bool + Send + Sync,
{
    stream::any(&of_seq(seq), &pred)
}

/// Do all elements satisfy `pred`? Dual of [`any`].
pub fn all<S, P>(seq: &S, pred: P) -> bool
where
    S: Seq,
    P: Fn(&S::Item) -> bool + Send + Sync,
{
    !any(seq, |x| !pred(x))
}

/// The maximum element by a key function, or `None` when empty. One
/// fused pass; ties keep the earliest element (so the result is
/// deterministic regardless of block structure).
pub fn max_by_key<S, K, F>(seq: &S, key: F) -> Option<S::Item>
where
    S: Seq,
    S::Item: Clone + Send + Sync,
    K: PartialOrd + Send,
    F: Fn(&S::Item) -> K + Send + Sync,
{
    stream::max_by_key(&of_seq(seq), &key)
}

/// The minimum element by a key function; see [`max_by_key`].
pub fn min_by_key<S, K, F>(seq: &S, key: F) -> Option<S::Item>
where
    S: Seq,
    S::Item: Clone + Send + Sync,
    K: PartialOrd + Send,
    F: Fn(&S::Item) -> K + Send + Sync,
{
    max_by_key(seq, |x| std::cmp::Reverse(OrdShim(key(x))))
}

/// Shim giving `PartialOrd` semantics to `Reverse` over arbitrary
/// partially ordered keys.
struct OrdShim<K>(K);

impl<K: PartialOrd> PartialEq for OrdShim<K> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<K: PartialOrd> PartialOrd for OrdShim<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.0.partial_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn append_concatenates() {
        let a = tabulate(100, |i| i);
        let b = tabulate(50, |i| 1000 + i);
        let s = append(a, b);
        assert_eq!(s.len(), 150);
        assert_eq!(s.get(99), 99);
        assert_eq!(s.get(100), 1000);
        let v = s.to_vec();
        assert_eq!(v[0], 0);
        assert_eq!(v[149], 1049);
    }

    #[test]
    fn append_empty_sides() {
        let v = append(tabulate(0, |i| i), tabulate(3, |i| i)).to_vec();
        assert_eq!(v, vec![0, 1, 2]);
        let v = append(tabulate(3, |i| i), tabulate(0, |i| i)).to_vec();
        assert_eq!(v, vec![0, 1, 2]);
    }

    #[test]
    fn append_feeds_scan() {
        let s = append(tabulate(10, |_| 1u64), tabulate(10, |_| 2u64));
        let (p, total) = s.scan(0, |a, b| a + b);
        assert_eq!(total, 30);
        let v = p.to_vec();
        assert_eq!(v[10], 10);
        assert_eq!(v[15], 20);
    }

    #[test]
    fn unzip_splits_pairs() {
        let s = tabulate(5000, |i| (i, i * 2));
        let (a, b) = unzip(&s);
        assert!(a.iter().enumerate().all(|(i, &x)| x == i));
        assert!(b.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn any_and_all() {
        let s = tabulate(100_000, |i| i);
        assert!(any(&s, |&x| x == 99_999));
        assert!(!any(&s, |&x| x == 100_000));
        assert!(all(&s, |&x| x < 100_000));
        assert!(!all(&s, |&x| x < 99_999));
    }

    #[test]
    fn any_on_empty_is_false_all_is_true() {
        let s = tabulate(0, |i| i);
        assert!(!any(&s, |_| true));
        assert!(all(&s, |_| false));
    }

    #[test]
    fn max_min_by_key() {
        let xs: Vec<i64> = vec![3, -7, 12, 5, -7, 12];
        let s = from_slice(&xs);
        assert_eq!(max_by_key(&s, |&x| x), Some(12));
        assert_eq!(min_by_key(&s, |&x| x), Some(-7));
        let empty: Vec<i64> = vec![];
        assert_eq!(max_by_key(&from_slice(&empty), |&x| x), None);
    }

    #[test]
    fn max_by_key_ties_take_earliest() {
        // Pairs with equal keys: the earliest index must win so the
        // result does not depend on block structure.
        let xs: Vec<(u64, usize)> = (0..10_000).map(|i| (7, i)).collect();
        for bs in [1usize, 13, 1000] {
            let _g = crate::policy::test_sync::test_force(bs);
            let got = max_by_key(&from_slice(&xs), |p| p.0);
            assert_eq!(got, Some((7, 0)), "bs {bs}");
        }
    }

    #[test]
    fn max_by_key_works_on_bid() {
        let (s, _) = tabulate(5000, |_| 1u64).scan(0, |a, b| a + b);
        assert_eq!(max_by_key(&s, |&x| x), Some(4999));
    }
}
