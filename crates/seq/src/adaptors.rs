//! Delayed adaptors: map, zip, zip-with, enumerate, take, skip, reverse.
//!
//! All of these cost O(1) eagerly — they only compose functions or
//! re-index — and preserve random access whenever their inputs have it
//! (Figure 10, lines 20-27).
//!
//! None holds a block size. Each reports its own per-element cost as
//! one [`SIMPLE`] application on top of its input's ([`Seq::elem_cost`]),
//! so the consumer solves its geometry against the *total* pipeline
//! cost and passes the block size it solved down through [`Seq::block`].
//! Adaptors that keep their input's positions forward its
//! [`Seq::fixed_block_size`]; a zip forwards either side's.
//!
//! Each also folds a chunk of its block ([`Seq::fold_chunk`]) through
//! its input's fold: a map composes its function into it, a zip
//! buffers its right side's chunk and then pushes its left side.

use bds_cost::{ElemCost, SIMPLE};

use crate::simd::CHUNK;
use crate::stream::{self, block_bounds};
use crate::traits::{RadBlock, RadSeq, Seq};
use crate::util::{chunk_space, ChunkBuf};

// ---------------------------------------------------------------------
// Map
// ---------------------------------------------------------------------

/// Delayed elementwise map (Figure 10 lines 20-21): RAD input composes
/// the index function, BID input composes a stream-map onto each block.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct Map<S, F> {
    input: S,
    f: F,
}

impl<S, F> Map<S, F> {
    pub(crate) fn new(input: S, f: F) -> Self {
        Map { input, f }
    }
}

/// Block stream of [`Map`]: the paper's `s.map g ∘ b`.
pub struct MapBlock<'s, I, F> {
    inner: I,
    f: &'s F,
}

impl<'s, I, F, U> Iterator for MapBlock<'s, I, F>
where
    I: Iterator,
    F: Fn(I::Item) -> U,
{
    type Item = U;

    #[inline]
    fn next(&mut self) -> Option<U> {
        self.inner.next().map(self.f)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<S, F, U> Seq for Map<S, F>
where
    S: Seq,
    U: Send,
    F: Fn(S::Item) -> U + Send + Sync,
{
    type Item = U;
    type Block<'s>
        = MapBlock<'s, S::Block<'s>, F>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.input.len()
    }

    fn fixed_block_size(&self) -> Option<usize> {
        self.input.fixed_block_size()
    }

    fn elem_cost(&self) -> ElemCost {
        self.input.elem_cost() + SIMPLE
    }

    fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
        MapBlock {
            inner: self.input.block(j, bs),
            f: &self.f,
        }
    }

    #[inline]
    fn fold_chunk<'s, A, G>(block: &mut Self::Block<'s>, n: usize, init: A, mut g: G) -> A
    where
        Self: 's,
        G: FnMut(A, U) -> A,
    {
        let f = block.f;
        S::fold_chunk(&mut block.inner, n, init, |acc, x| g(acc, f(x)))
    }
}

impl<S, F, U> RadSeq for Map<S, F>
where
    S: RadSeq,
    U: Send,
    F: Fn(S::Item) -> U + Send + Sync,
{
    #[inline]
    fn get(&self, i: usize) -> U {
        (self.f)(self.input.get(i))
    }
}

// ---------------------------------------------------------------------
// Zip / ZipWith
// ---------------------------------------------------------------------

fn check_zip_lengths(a_len: usize, b_len: usize) {
    assert_eq!(a_len, b_len, "zip requires equal lengths");
}

/// The fixed block size of a zip: either side's. Checked when the zip
/// is consumed, not when it is built, and it can only fail when *both*
/// sides are scans seeded under different block sizes: a side without
/// a fixed size is cut wherever the consumer says.
fn zip_fixed(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    if let (Some(x), Some(y)) = (a, b) {
        assert_eq!(
            x, y,
            "zip requires aligned blocks; scans seeded under different \
             block sizes cannot be zipped (force one side first)"
        );
    }
    a.or(b)
}

/// Fold the next `n` pairs of two aligned block streams through `f`.
///
/// The right side folds its chunk into a stack buffer with its own
/// loop, then the left side folds its chunk and takes the buffered
/// items in order: each side runs as one loop (a pull over a nested
/// stream, such as a `flatten` region, would re-enter it per element),
/// and within a chunk the right side is computed before the left. A
/// right side whose chunk would not fit the buffer's byte bound is
/// pulled pairwise instead, as `next()` does.
#[inline]
fn zip_fold<'s, A, B, Acc>(
    a: &mut A::Block<'s>,
    b: &mut B::Block<'s>,
    n: usize,
    init: Acc,
    f: impl FnMut(Acc, A::Item, B::Item) -> Acc,
) -> Acc
where
    A: Seq + 's,
    B: Seq + 's,
{
    if ChunkBuf::<B::Item>::FITS {
        zip_fold_buffered::<A, B, Acc>(a, b, n, init, f)
    } else {
        let mut f = f;
        stream::pull_chunk(a, n, init, |acc, x| {
            let y = b.next().expect("Seq invariant violated: block underflow");
            f(acc, x, y)
        })
    }
}

/// The buffered arm of [`zip_fold`]; its own function so that the buffer
/// takes stack space only where it is used.
#[inline]
fn zip_fold_buffered<'s, A, B, Acc>(
    a: &mut A::Block<'s>,
    b: &mut B::Block<'s>,
    n: usize,
    init: Acc,
    mut f: impl FnMut(Acc, A::Item, B::Item) -> Acc,
) -> Acc
where
    A: Seq + 's,
    B: Seq + 's,
{
    assert!(n <= CHUNK, "fold_chunk folds at most CHUNK elements");
    let mut space = chunk_space();
    let mut buf = ChunkBuf::new(&mut space);
    B::fold_chunk(b, n, (), |(), y| buf.push(y));
    assert!(
        buf.len() == n,
        "Seq invariant violated: zip sides yielded different counts"
    );
    A::fold_chunk(a, n, init, |acc, x| f(acc, x, buf.pop()))
}

/// Delayed zip (Figure 10 lines 22-27). Both sides must have the same
/// length, and every consumer cuts both at one block size, so the block
/// streams fuse pairwise.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: Seq, B: Seq> Zip<A, B> {
    pub(crate) fn new(a: A, b: B) -> Self {
        check_zip_lengths(a.len(), b.len());
        Zip { a, b }
    }
}

/// Block stream of [`Zip`]: both sides' blocks, pairwise.
pub struct ZipBlock<IA, IB> {
    a: IA,
    b: IB,
}

impl<IA: Iterator, IB: Iterator> Iterator for ZipBlock<IA, IB> {
    type Item = (IA::Item, IB::Item);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let x = self.a.next()?;
        let y = self.b.next()?;
        Some((x, y))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.a.size_hint()
    }
}

impl<A, B> Seq for Zip<A, B>
where
    A: Seq,
    B: Seq,
{
    type Item = (A::Item, B::Item);
    type Block<'s>
        = ZipBlock<A::Block<'s>, B::Block<'s>>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.a.len()
    }

    fn fixed_block_size(&self) -> Option<usize> {
        zip_fixed(self.a.fixed_block_size(), self.b.fixed_block_size())
    }

    fn elem_cost(&self) -> ElemCost {
        self.a.elem_cost() + self.b.elem_cost() + SIMPLE
    }

    fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
        ZipBlock {
            a: self.a.block(j, bs),
            b: self.b.block(j, bs),
        }
    }

    #[inline]
    fn fold_chunk<'s, Acc, G>(block: &mut Self::Block<'s>, n: usize, init: Acc, mut g: G) -> Acc
    where
        Self: 's,
        G: FnMut(Acc, Self::Item) -> Acc,
    {
        zip_fold::<A, B, Acc>(&mut block.a, &mut block.b, n, init, |acc, x, y| {
            g(acc, (x, y))
        })
    }
}

impl<A, B> RadSeq for Zip<A, B>
where
    A: RadSeq,
    B: RadSeq,
{
    #[inline]
    fn get(&self, i: usize) -> (A::Item, B::Item) {
        (self.a.get(i), self.b.get(i))
    }
}

/// Delayed zip-with: like [`Zip`] but combines the pair through `f`
/// immediately, avoiding tuple construction in fused loops.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct ZipWith<A, B, F> {
    a: A,
    b: B,
    f: F,
}

impl<A: Seq, B: Seq, F> ZipWith<A, B, F> {
    pub(crate) fn new(a: A, b: B, f: F) -> Self {
        check_zip_lengths(a.len(), b.len());
        ZipWith { a, b, f }
    }
}

/// Block stream of [`ZipWith`].
pub struct ZipWithBlock<'s, IA, IB, F> {
    a: IA,
    b: IB,
    f: &'s F,
}

impl<'s, IA, IB, F, U> Iterator for ZipWithBlock<'s, IA, IB, F>
where
    IA: Iterator,
    IB: Iterator,
    F: Fn(IA::Item, IB::Item) -> U,
{
    type Item = U;

    #[inline]
    fn next(&mut self) -> Option<U> {
        let x = self.a.next()?;
        let y = self.b.next()?;
        Some((self.f)(x, y))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.a.size_hint()
    }
}

impl<A, B, F, U> Seq for ZipWith<A, B, F>
where
    A: Seq,
    B: Seq,
    U: Send,
    F: Fn(A::Item, B::Item) -> U + Send + Sync,
{
    type Item = U;
    type Block<'s>
        = ZipWithBlock<'s, A::Block<'s>, B::Block<'s>, F>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.a.len()
    }

    fn fixed_block_size(&self) -> Option<usize> {
        zip_fixed(self.a.fixed_block_size(), self.b.fixed_block_size())
    }

    fn elem_cost(&self) -> ElemCost {
        self.a.elem_cost() + self.b.elem_cost() + SIMPLE
    }

    fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
        ZipWithBlock {
            a: self.a.block(j, bs),
            b: self.b.block(j, bs),
            f: &self.f,
        }
    }

    #[inline]
    fn fold_chunk<'s, Acc, G>(block: &mut Self::Block<'s>, n: usize, init: Acc, mut g: G) -> Acc
    where
        Self: 's,
        G: FnMut(Acc, U) -> Acc,
    {
        let f = block.f;
        zip_fold::<A, B, Acc>(&mut block.a, &mut block.b, n, init, |acc, x, y| {
            g(acc, f(x, y))
        })
    }
}

impl<A, B, F, U> RadSeq for ZipWith<A, B, F>
where
    A: RadSeq,
    B: RadSeq,
    U: Send,
    F: Fn(A::Item, B::Item) -> U + Send + Sync,
{
    #[inline]
    fn get(&self, i: usize) -> U {
        (self.f)(self.a.get(i), self.b.get(i))
    }
}

// ---------------------------------------------------------------------
// Enumerate
// ---------------------------------------------------------------------

/// Delayed index pairing: element `i` becomes `(i, x_i)`.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct Enumerate<S> {
    input: S,
}

impl<S: Seq> Enumerate<S> {
    pub(crate) fn new(input: S) -> Self {
        Enumerate { input }
    }
}

/// Block stream of [`Enumerate`].
pub struct EnumerateBlock<I> {
    inner: I,
    next_index: usize,
}

impl<I: Iterator> Iterator for EnumerateBlock<I> {
    type Item = (usize, I::Item);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let x = self.inner.next()?;
        let i = self.next_index;
        self.next_index += 1;
        Some((i, x))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<S: Seq> Seq for Enumerate<S> {
    type Item = (usize, S::Item);
    type Block<'s>
        = EnumerateBlock<S::Block<'s>>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.input.len()
    }

    fn fixed_block_size(&self) -> Option<usize> {
        self.input.fixed_block_size()
    }

    fn elem_cost(&self) -> ElemCost {
        self.input.elem_cost() + SIMPLE
    }

    fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
        EnumerateBlock {
            inner: self.input.block(j, bs),
            next_index: j * bs,
        }
    }

    #[inline]
    fn fold_chunk<'s, A, G>(block: &mut Self::Block<'s>, n: usize, init: A, mut g: G) -> A
    where
        Self: 's,
        G: FnMut(A, Self::Item) -> A,
    {
        let i0 = block.next_index;
        block.next_index += n;
        let (acc, _) = S::fold_chunk(&mut block.inner, n, (init, i0), |(acc, i), x| {
            (g(acc, (i, x)), i + 1)
        });
        acc
    }
}

impl<S: RadSeq> RadSeq for Enumerate<S> {
    #[inline]
    fn get(&self, i: usize) -> (usize, S::Item) {
        (i, self.input.get(i))
    }
}

// ---------------------------------------------------------------------
// Take / Skip / Rev (RAD-only re-indexings)
// ---------------------------------------------------------------------

/// Delayed prefix of a RAD.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct TakeSeq<S> {
    input: S,
    len: usize,
}

impl<S: RadSeq> TakeSeq<S> {
    pub(crate) fn new(input: S, k: usize) -> Self {
        let len = k.min(input.len());
        TakeSeq { input, len }
    }
}

impl<S: RadSeq> Seq for TakeSeq<S> {
    type Item = S::Item;
    type Block<'s>
        = RadBlock<'s, Self>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.len
    }

    fn elem_cost(&self) -> ElemCost {
        self.input.elem_cost() + SIMPLE
    }

    fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
        let (lo, hi) = block_bounds(self.len, bs, j);
        RadBlock::new(self, lo, hi)
    }
    #[inline]
    fn fold_chunk<'s, A, F>(block: &mut Self::Block<'s>, n: usize, init: A, f: F) -> A
    where
        Self: 's,
        F: FnMut(A, S::Item) -> A,
    {
        block.fold_chunk(n, init, f)
    }
}

impl<S: RadSeq> RadSeq for TakeSeq<S> {
    #[inline]
    fn get(&self, i: usize) -> S::Item {
        debug_assert!(i < self.len);
        self.input.get(i)
    }
}

/// Delayed suffix of a RAD (drop the first `k`). This is the paper's RAD
/// offset field `(i, n, f)` made explicit.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct SkipSeq<S> {
    input: S,
    offset: usize,
    len: usize,
}

impl<S: RadSeq> SkipSeq<S> {
    pub(crate) fn new(input: S, k: usize) -> Self {
        let offset = k.min(input.len());
        let len = input.len() - offset;
        SkipSeq { input, offset, len }
    }
}

impl<S: RadSeq> Seq for SkipSeq<S> {
    type Item = S::Item;
    type Block<'s>
        = RadBlock<'s, Self>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.len
    }

    fn elem_cost(&self) -> ElemCost {
        self.input.elem_cost() + SIMPLE
    }

    fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
        let (lo, hi) = block_bounds(self.len, bs, j);
        RadBlock::new(self, lo, hi)
    }
    #[inline]
    fn fold_chunk<'s, A, F>(block: &mut Self::Block<'s>, n: usize, init: A, f: F) -> A
    where
        Self: 's,
        F: FnMut(A, S::Item) -> A,
    {
        block.fold_chunk(n, init, f)
    }
}

impl<S: RadSeq> RadSeq for SkipSeq<S> {
    #[inline]
    fn get(&self, i: usize) -> S::Item {
        self.input.get(self.offset + i)
    }
}

/// Delayed reversal of a RAD.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct RevSeq<S> {
    input: S,
}

impl<S: RadSeq> RevSeq<S> {
    pub(crate) fn new(input: S) -> Self {
        RevSeq { input }
    }
}

impl<S: RadSeq> Seq for RevSeq<S> {
    type Item = S::Item;
    type Block<'s>
        = RadBlock<'s, Self>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.input.len()
    }

    fn elem_cost(&self) -> ElemCost {
        self.input.elem_cost() + SIMPLE
    }

    fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
        let (lo, hi) = block_bounds(self.input.len(), bs, j);
        RadBlock::new(self, lo, hi)
    }
    #[inline]
    fn fold_chunk<'s, A, F>(block: &mut Self::Block<'s>, n: usize, init: A, f: F) -> A
    where
        Self: 's,
        F: FnMut(A, S::Item) -> A,
    {
        block.fold_chunk(n, init, f)
    }
}

impl<S: RadSeq> RadSeq for RevSeq<S> {
    #[inline]
    fn get(&self, i: usize) -> S::Item {
        self.input.get(self.input.len() - 1 - i)
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn map_block_streams_match_to_vec() {
        let s = tabulate(5000, |i| i as u64).map(|x| x * 2);
        let collected: Vec<u64> = (0..5).flat_map(|j| s.block(j, 1000)).collect();
        assert_eq!(collected, s.to_vec());
    }

    #[test]
    fn map_block_size_hint_is_exact() {
        let s = tabulate(200, |i| i).map(|x| x);
        assert_eq!(s.block(0, 64).size_hint(), (64, Some(64)));
        assert_eq!(s.block(3, 64).size_hint().0, 200 % 64);
    }

    #[test]
    fn zip_blocks_align_at_any_size() {
        let z = tabulate(100, |i| i).zip(tabulate(100, |i| 100 - i));
        let total: usize = (0..4).map(|j| z.block(j, 32).count()).sum();
        assert_eq!(total, 100);
        assert!(z.block(3, 32).all(|(a, b)| a + b == 100));
    }

    #[test]
    fn zip_with_rad_access() {
        let a = tabulate(10, |i| i as i64);
        let b = tabulate(10, |i| 2 * i as i64);
        let z = a.zip_with(b, |x, y| y - x);
        assert_eq!(z.get(7), 7);
    }

    #[test]
    #[should_panic(expected = "aligned blocks")]
    fn zipping_scans_seeded_under_different_block_sizes_panics() {
        // A scan's seeds belong to the block size its seed pass ran
        // under, so two scans seeded under different forced sizes
        // cannot be cut at one size. The mismatch is caught when the zip
        // is consumed, not when it is built.
        let seeded = |bs| {
            let _g = crate::policy::test_sync::test_force(bs);
            tabulate(100, |i| i as u64).scan(0, |a, b| a + b).0
        };
        let z = seeded(16).zip(seeded(32));
        let _ = z.to_vec();
    }

    #[test]
    fn zip_of_free_sides_is_cut_where_the_consumer_says() {
        // Neither side holds a block size: the consumer solves one and
        // cuts both there.
        let _l = crate::policy::test_sync::test_lock();
        let a = tabulate(100, |i| i);
        let b = tabulate(100, |i| 99 - i);
        let z = a.zip(b);
        let v = z.map(|(x, y)| x + y).to_vec();
        assert!(v.into_iter().all(|s| s == 99));
    }

    #[test]
    fn enumerate_block_indices_are_global() {
        let s = tabulate(20, |i| i * 10).enumerate();
        let second_block: Vec<(usize, usize)> = s.block(1, 8).collect();
        assert_eq!(second_block[0], (8, 80));
    }

    #[test]
    fn take_of_bid_unsupported_but_rad_path_works() {
        // take/skip/rev are RAD-only re-indexings; chained they stay RAD.
        let s = tabulate(100, |i| i).skip(10).take(5).rev();
        assert_eq!(s.to_vec(), vec![14, 13, 12, 11, 10]);
        assert_eq!(s.get(0), 14);
    }

    #[test]
    fn take_beyond_len_clamps() {
        let s = tabulate(5, |i| i).take(100);
        assert_eq!(s.len(), 5);
        let s = tabulate(5, |i| i).skip(100);
        assert_eq!(s.len(), 0);
        assert!(s.to_vec().is_empty());
    }

    #[test]
    fn map_over_scanned_bid_keeps_block_structure() {
        let _g = crate::policy::test_sync::test_force(16);
        let (scanned, _) = tabulate(100, |_| 1u64).scan(0, |a, b| a + b);
        let mapped = scanned.map(|x| x * 10);
        assert_eq!(mapped.fixed_block_size(), Some(16));
        let v = mapped.to_vec();
        assert_eq!(v[17], 170);
    }
}

// ---------------------------------------------------------------------
// MapWithIndex
// ---------------------------------------------------------------------

/// Delayed map receiving the element's global index: `y_i = f(i, x_i)`.
/// O(1) eager; preserves random access.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct MapWithIndex<S, F> {
    input: S,
    f: F,
}

impl<S, F> MapWithIndex<S, F> {
    pub(crate) fn new(input: S, f: F) -> Self {
        MapWithIndex { input, f }
    }
}

/// Construct a [`MapWithIndex`] over any sequence.
pub fn map_with_index<S, U, F>(input: S, f: F) -> MapWithIndex<S, F>
where
    S: Seq,
    U: Send,
    F: Fn(usize, S::Item) -> U + Send + Sync,
{
    MapWithIndex::new(input, f)
}

/// Block stream of [`MapWithIndex`].
pub struct MapWithIndexBlock<'s, I, F> {
    inner: I,
    f: &'s F,
    next_index: usize,
}

impl<'s, I, F, U> Iterator for MapWithIndexBlock<'s, I, F>
where
    I: Iterator,
    F: Fn(usize, I::Item) -> U,
{
    type Item = U;

    #[inline]
    fn next(&mut self) -> Option<U> {
        let x = self.inner.next()?;
        let i = self.next_index;
        self.next_index += 1;
        Some((self.f)(i, x))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<S, F, U> Seq for MapWithIndex<S, F>
where
    S: Seq,
    U: Send,
    F: Fn(usize, S::Item) -> U + Send + Sync,
{
    type Item = U;
    type Block<'s>
        = MapWithIndexBlock<'s, S::Block<'s>, F>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.input.len()
    }

    fn fixed_block_size(&self) -> Option<usize> {
        self.input.fixed_block_size()
    }

    fn elem_cost(&self) -> ElemCost {
        self.input.elem_cost() + SIMPLE
    }

    fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
        MapWithIndexBlock {
            inner: self.input.block(j, bs),
            f: &self.f,
            next_index: j * bs,
        }
    }

    #[inline]
    fn fold_chunk<'s, A, G>(block: &mut Self::Block<'s>, n: usize, init: A, mut g: G) -> A
    where
        Self: 's,
        G: FnMut(A, U) -> A,
    {
        let f = block.f;
        let i0 = block.next_index;
        block.next_index += n;
        let (acc, _) = S::fold_chunk(&mut block.inner, n, (init, i0), |(acc, i), x| {
            (g(acc, f(i, x)), i + 1)
        });
        acc
    }
}

impl<S, F, U> RadSeq for MapWithIndex<S, F>
where
    S: RadSeq,
    U: Send,
    F: Fn(usize, S::Item) -> U + Send + Sync,
{
    #[inline]
    fn get(&self, i: usize) -> U {
        (self.f)(i, self.input.get(i))
    }
}

#[cfg(test)]
mod map_with_index_tests {
    use super::map_with_index;
    use crate::prelude::*;

    #[test]
    fn indices_are_global_and_values_pass_through() {
        let s = map_with_index(tabulate(5000, |i| i * 10), |i, x| x - 9 * i);
        let v = s.to_vec();
        assert!(v.iter().enumerate().all(|(i, &y)| y == i));
        assert_eq!(s.get(17), 17);
    }

    #[test]
    fn works_on_bid_input() {
        let _g = crate::policy::test_sync::test_force(16);
        let (scanned, _) = tabulate(100, |_| 1u64).scan(0, |a, b| a + b);
        let s = map_with_index(scanned, |i, prefix| prefix == i as u64);
        assert!(s.to_vec().into_iter().all(|ok| ok));
    }
}
