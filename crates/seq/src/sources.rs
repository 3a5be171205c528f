//! Source sequences: `tabulate`, borrowed slices, and forced (owned)
//! arrays.

use std::sync::Arc;

use crate::counters;
use crate::stream::{block_bounds, chunk_range};
use crate::traits::{RadBlock, RadSeq, Seq};

/// Fully delayed sequence defined by an index function (Figure 10 line
/// 19). Construction is O(1); all work is delayed — including the block
/// geometry, which each consumer solves under the *consuming* pool.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct Tabulate<F> {
    len: usize,
    f: F,
}

/// The paper's `tabulate n f`: the RAD `(0, n, f)`.
pub fn tabulate<T, F>(n: usize, f: F) -> Tabulate<F>
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    Tabulate { len: n, f }
}

/// Block stream of a [`Tabulate`]: applies the index function across a
/// contiguous index range. It polls nothing: the drive loop that
/// consumes it polls the ambient cancellation token once per chunk
/// ([`crate::stream`]).
pub struct TabulateBlock<'s, F> {
    f: &'s F,
    next: usize,
    end: usize,
}

impl<'s, T, F> Iterator for TabulateBlock<'s, F>
where
    F: Fn(usize) -> T,
{
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        if self.next >= self.end {
            return None;
        }
        let x = (self.f)(self.next);
        self.next += 1;
        Some(x)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.next;
        (n, Some(n))
    }
}

impl<T, F> Seq for Tabulate<F>
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    type Item = T;
    type Block<'s>
        = TabulateBlock<'s, F>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.len
    }

    fn block(&self, j: usize, bs: usize) -> TabulateBlock<'_, F> {
        let (lo, hi) = block_bounds(self.len, bs, j);
        TabulateBlock {
            f: &self.f,
            next: lo,
            end: hi,
        }
    }

    #[inline]
    fn fold_chunk<'s, A, G>(block: &mut Self::Block<'s>, n: usize, init: A, mut g: G) -> A
    where
        Self: 's,
        G: FnMut(A, T) -> A,
    {
        let mut acc = init;
        for i in chunk_range(&mut block.next, block.end, n) {
            acc = g(acc, (block.f)(i));
        }
        acc
    }
}

impl<T, F> RadSeq for Tabulate<F>
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    #[inline]
    fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        (self.f)(i)
    }
}

/// A borrowed slice viewed as a RAD (the paper's `RADfromArray`, Figure 9
/// line 15). Elements are cloned out on access.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct FromSlice<'a, T> {
    data: &'a [T],
}

/// View a slice as a random-access delayed sequence.
pub fn from_slice<T: Clone + Send + Sync>(data: &[T]) -> FromSlice<'_, T> {
    FromSlice { data }
}

/// Block `j` of `data` cut into blocks of `bs`.
fn slice_block<T>(data: &[T], j: usize, bs: usize) -> SliceBlock<'_, T> {
    let (lo, hi) = block_bounds(data.len(), bs, j);
    SliceBlock {
        inner: data[lo..hi].iter(),
    }
}

/// Block stream of a slice-backed sequence; counts element reads when the
/// `counters` feature is on. Like every leaf stream it polls nothing;
/// the drive loop that consumes it does.
pub struct SliceBlock<'s, T> {
    inner: std::slice::Iter<'s, T>,
}

impl<'s, T: Clone> SliceBlock<'s, T> {
    /// [`Seq::fold_chunk`] over the slice: one underflow check, then a
    /// slice loop.
    #[inline]
    fn fold_chunk<A>(&mut self, n: usize, init: A, mut f: impl FnMut(A, T) -> A) -> A {
        let rest = self.inner.as_slice();
        assert!(n <= rest.len(), "Seq invariant violated: block underflow");
        let (chunk, rest) = rest.split_at(n);
        self.inner = rest.iter();
        counters::count_reads(n);
        let mut acc = init;
        for x in chunk {
            acc = f(acc, x.clone());
        }
        acc
    }
}

impl<'s, T: Clone> Iterator for SliceBlock<'s, T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        let x = self.inner.next()?;
        counters::count_reads(1);
        Some(x.clone())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a, T: Clone + Send + Sync> Seq for FromSlice<'a, T> {
    type Item = T;
    type Block<'s>
        = SliceBlock<'s, T>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.data.len()
    }

    fn block(&self, j: usize, bs: usize) -> SliceBlock<'_, T> {
        slice_block(self.data, j, bs)
    }

    #[inline]
    fn fold_chunk<'s, A, F>(block: &mut Self::Block<'s>, n: usize, init: A, f: F) -> A
    where
        Self: 's,
        F: FnMut(A, T) -> A,
    {
        block.fold_chunk(n, init, f)
    }
}

impl<'a, T: Clone + Send + Sync> RadSeq for FromSlice<'a, T> {
    #[inline]
    fn get(&self, i: usize) -> T {
        counters::count_reads(1);
        self.data[i].clone()
    }
}

/// An owned, materialized sequence (the result of [`Seq::force`]).
///
/// Internally `Arc`-shared, so cloning a `Forced` is O(1); this mirrors
/// how forced sequences in the paper are freely shared after paying their
/// one-time materialization cost.
pub struct Forced<T> {
    data: Arc<Vec<T>>,
}

impl<T> Clone for Forced<T> {
    fn clone(&self) -> Self {
        Forced {
            data: Arc::clone(&self.data),
        }
    }
}

impl<T: Clone + Send + Sync> Forced<T> {
    /// Wrap an owned vector.
    pub fn from_vec(data: Vec<T>) -> Self {
        Forced {
            data: Arc::new(data),
        }
    }

    /// The underlying elements.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

impl<T: Clone + Send + Sync> Seq for Forced<T> {
    type Item = T;
    type Block<'s>
        = SliceBlock<'s, T>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.data.len()
    }

    fn block(&self, j: usize, bs: usize) -> SliceBlock<'_, T> {
        slice_block(&self.data, j, bs)
    }

    #[inline]
    fn fold_chunk<'s, A, F>(block: &mut Self::Block<'s>, n: usize, init: A, f: F) -> A
    where
        Self: 's,
        F: FnMut(A, T) -> A,
    {
        block.fold_chunk(n, init, f)
    }
}

impl<T: Clone + Send + Sync> RadSeq for Forced<T> {
    #[inline]
    fn get(&self, i: usize) -> T {
        counters::count_reads(1);
        self.data[i].clone()
    }
}

/// A contiguous range of `usize` as a sequence (`iota`).
pub fn range(lo: usize, hi: usize) -> Tabulate<impl Fn(usize) -> usize + Send + Sync> {
    let n = hi.saturating_sub(lo);
    tabulate(n, move |i| lo + i)
}

/// An empty sequence of any element type.
pub fn empty<T: Send + 'static>() -> Tabulate<impl Fn(usize) -> T + Send + Sync> {
    tabulate(0, |_| unreachable!("empty sequence has no elements"))
}

/// A sequence repeating `value` `n` times.
pub fn repeat<T: Clone + Send + Sync>(value: T, n: usize) -> Tabulate<impl Fn(usize) -> T + Send + Sync> {
    tabulate(n, move |_| value.clone())
}

// Blanket impls so borrowed sequences can be consumed without moving.
impl<S: Seq + ?Sized> Seq for &S {
    type Item = S::Item;
    type Block<'s>
        = S::Block<'s>
    where
        Self: 's;

    fn len(&self) -> usize {
        (**self).len()
    }

    fn fixed_block_size(&self) -> Option<usize> {
        (**self).fixed_block_size()
    }

    fn elem_cost(&self) -> bds_cost::ElemCost {
        (**self).elem_cost()
    }

    fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
        (**self).block(j, bs)
    }

    #[inline]
    fn fold_chunk<'s, A, F>(block: &mut Self::Block<'s>, n: usize, init: A, f: F) -> A
    where
        Self: 's,
        F: FnMut(A, S::Item) -> A,
    {
        S::fold_chunk(block, n, init, f)
    }
}

impl<S: RadSeq + ?Sized> RadSeq for &S {
    #[inline]
    fn get(&self, i: usize) -> S::Item {
        (**self).get(i)
    }
}

/// Keep `RadBlock` exported for downstream RAD implementors.
pub type GenericRadBlock<'s, S> = RadBlock<'s, S>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tabulate_blocks_follow_the_block_size_argument() {
        let s = tabulate(25, |i| i);
        let block = |j, bs| s.block(j, bs).collect::<Vec<_>>();
        assert_eq!(block(0, 10), (0..10).collect::<Vec<_>>());
        assert_eq!(block(2, 10), (20..25).collect::<Vec<_>>());
        assert_eq!(block(2, 12), vec![24]);
    }

    #[test]
    fn from_slice_clones_elements() {
        let owned = vec![String::from("a"), String::from("bb")];
        let s = from_slice(&owned);
        let v = s.to_vec();
        assert_eq!(v, owned);
    }

    #[test]
    fn forced_is_cheap_to_clone_and_shares() {
        let f = Forced::from_vec((0..1000u32).collect());
        let g = f.clone();
        assert_eq!(f.as_slice().as_ptr(), g.as_slice().as_ptr());
        assert_eq!(g.get(999), 999);
    }

    #[test]
    fn range_endpoints() {
        assert_eq!(range(3, 3).len(), 0);
        assert_eq!(range(0, 1).to_vec(), vec![0]);
        assert!(range(5, 2).is_empty());
    }

    #[test]
    fn seq_impl_on_reference_delegates() {
        let f = Forced::from_vec(vec![1u8, 2, 3]);
        let r: &Forced<u8> = &f;
        assert_eq!(Seq::len(&r), 3);
        assert_eq!(RadSeq::get(&r, 1), 2);
    }
}
