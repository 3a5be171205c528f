//! The two sequence representations as traits.
//!
//! The paper models a delayed sequence as a tagged union (Section 4):
//!
//! ```text
//! datatype α seq =
//!   | RAD of int × int × (int → α)      (* random-access delayed   *)
//!   | BID of int × (int → α stream)     (* block-iterable delayed  *)
//! ```
//!
//! In Rust (as in the paper's C++ version, which uses templates and
//! overloading) we encode the representation in the *type*: every
//! sequence implements [`Seq`] — the BID view: equal-sized blocks of a
//! size the consumer picks, each a sequential stream (`Iterator`) — and
//! those that additionally support O(1) random access implement
//! [`RadSeq`]. "Converting a RAD to a BID" (the paper's `BIDfromSeq`)
//! is then just using the `Seq` view of a `RadSeq` type; the compiler
//! statically resolves it, so the fusion relies only on ordinary
//! inlining, exactly like the paper's C++ library relies on GCC.
//!
//! A runtime tagged union faithful to the ML version is provided in
//! [`crate::dynseq`] for comparison.

use crate::adaptors::{Enumerate, Map, RevSeq, SkipSeq, TakeSeq, Zip, ZipWith};
use crate::stream;
use crate::filter::{self, Filtered};
use crate::scan::{self, Scanned, ScannedIncl};
use crate::sources::Forced;

/// A block-iterable delayed sequence (the paper's BID view).
///
/// A sequence of `len()` elements is consumed in blocks, each a
/// *stream*: a sequential iterator constructible in O(1). Parallel
/// consumers run across blocks and stream within each block.
///
/// # Geometry
///
/// The block size is an argument, chosen by the consumer: `block(j, bs)`
/// is block `j` of the sequence cut into blocks of `bs` elements. Each
/// consumption asks [`crate::stream`] for its geometry once, before its
/// block loop. A sequence whose blocks were fixed by an eager phase (a
/// scan's seeds belong to the block size its seed pass ran under)
/// reports that size through [`Seq::fixed_block_size`], and every
/// consumer cuts it there. Every other sequence is cut at whatever size
/// the [`crate::Policy`] solves for its length and total per-element
/// cost (its [`Seq::elem_cost`] plus the consumer's), under the
/// consuming pool. A random-access sequence consumed twice is therefore
/// solved twice, and may be cut differently each time; a scan keeps the
/// size it was seeded under.
///
/// # Invariant
/// For any `bs > 0` (equal to `fixed_block_size()` when that is
/// `Some`), `block(j, bs)` yields exactly `min(bs, len() - j*bs)`
/// elements, in order, and the concatenation of blocks
/// `0..ceil(len/bs)` is the sequence. Consumers (e.g. [`Seq::to_vec`])
/// rely on this for safety of their disjoint parallel writes.
pub trait Seq: Send + Sync {
    /// Element type.
    type Item: Send;
    /// The stream type of one block, borrowing the sequence.
    type Block<'s>: Iterator<Item = Self::Item>
    where
        Self: 's;

    /// Total number of elements.
    fn len(&self) -> usize;

    /// The `j`-th block's stream when the sequence is cut into blocks of
    /// `bs` elements, `j < ceil(len / bs)`. O(1) to construct (plus, for
    /// region-based sequences, an O(log) binary search).
    ///
    /// Block streams do not poll for cancellation: the consumers in
    /// [`crate::stream`] consume each block a chunk at a time and poll
    /// the ambient [`bds_pool::CancelToken`] once per chunk. A caller
    /// that iterates a block itself, outside those drive loops, gets no
    /// polling (a `flatten` region still polls while it steps over
    /// inner sequences).
    fn block(&self, j: usize, bs: usize) -> Self::Block<'_>;

    /// Fold the next `n` elements of `block` into `init` through `f`,
    /// in order, where `n` is at most [`crate::simd::CHUNK`]. The
    /// infallible consumers in [`crate::stream`] (reduce, `to_vec`,
    /// count, `for_each`, filter packing, scan seeds) consume a block
    /// by one call per chunk; the fallible ones pull it through
    /// `next()`.
    ///
    /// The default is that counted pull: `n` calls to `next()`. A
    /// sequence whose block can walk a chunk in a tighter loop
    /// overrides it: a leaf with a counted range or slice loop, an
    /// adaptor by forwarding to its input's fold, a `flatten` region
    /// with nested loops over whole inner ranges, a zip by buffering
    /// one side's chunk. An override must pass exactly `n` elements to
    /// `f`, the same ones `next()` would have yielded, leave `block`
    /// just past them, and panic with "Seq invariant violated: block
    /// underflow" when fewer than `n` are left. Consumers that write
    /// check the count, so a wrong one panics rather than corrupting a
    /// neighbouring block.
    ///
    /// An external sequence whose blocks are [`RadBlock`]s opts in by
    /// forwarding to [`RadBlock::fold_chunk`]:
    ///
    /// ```
    /// use bds_seq::prelude::*;
    /// use bds_seq::{stream::block_bounds, RadBlock};
    ///
    /// struct Squares(usize);
    ///
    /// impl Seq for Squares {
    ///     type Item = u64;
    ///     type Block<'s> = RadBlock<'s, Self>;
    ///
    ///     fn len(&self) -> usize {
    ///         self.0
    ///     }
    ///
    ///     fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
    ///         let (lo, hi) = block_bounds(self.0, bs, j);
    ///         RadBlock::new(self, lo, hi)
    ///     }
    ///
    ///     fn fold_chunk<'s, A, F>(block: &mut Self::Block<'s>, n: usize, init: A, f: F) -> A
    ///     where
    ///         Self: 's,
    ///         F: FnMut(A, u64) -> A,
    ///     {
    ///         block.fold_chunk(n, init, f)
    ///     }
    /// }
    ///
    /// impl RadSeq for Squares {
    ///     fn get(&self, i: usize) -> u64 {
    ///         (i * i) as u64
    ///     }
    /// }
    ///
    /// assert_eq!(Squares(4).to_vec(), vec![0, 1, 4, 9]);
    /// ```
    #[inline]
    fn fold_chunk<'s, A, F>(block: &mut Self::Block<'s>, n: usize, init: A, f: F) -> A
    where
        Self: 's,
        F: FnMut(A, Self::Item) -> A,
    {
        stream::pull_chunk(block, n, init, f)
    }

    /// The block size an eager phase fixed for this sequence, or `None`
    /// when any size works (the default). Adaptors forward their
    /// inputs'; zipping two different fixed sizes panics. A custom
    /// sequence that must be cut at one size reports it here too.
    fn fixed_block_size(&self) -> Option<usize> {
        None
    }

    /// Estimated cost of producing one element of this sequence,
    /// accumulated through the whole delayed pipeline (in the abstract
    /// units of [`bds_cost::model`]; one [`bds_cost::SIMPLE`] per
    /// source lookup or adaptor stage).
    ///
    /// Consulted by [`crate::Policy::Adaptive`] when a consumer solves
    /// its geometry: a costlier pipeline justifies more blocks. The
    /// default — appropriate for external implementations that don't
    /// track costs — prices the sequence as one simple pass.
    fn elem_cost(&self) -> bds_cost::ElemCost {
        bds_cost::SIMPLE
    }

    /// True if the sequence has no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ------------------------------------------------------------------
    // Delayed combinators (O(1) eager cost; Figure 10 lines 19-27).
    // ------------------------------------------------------------------

    /// Delayed elementwise map. O(1): composes `f` into the sequence.
    /// Preserves the representation: mapping a [`RadSeq`] yields a
    /// [`RadSeq`].
    fn map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: Send,
        F: Fn(Self::Item) -> U + Send + Sync,
    {
        Map::new(self, f)
    }

    /// Delayed zip. O(1). Requires equal lengths.
    ///
    /// # Panics
    /// Panics immediately if lengths differ. Block alignment is checked
    /// when the zip is *consumed*: both sides are cut at one block size,
    /// the fixed one if either side has one, so a mismatch can only
    /// arise when *both* sides are scans seeded under different block
    /// sizes.
    fn zip<B>(self, other: B) -> Zip<Self, B>
    where
        Self: Sized,
        B: Seq,
    {
        Zip::new(self, other)
    }

    /// Delayed zip-with. O(1).
    fn zip_with<B, U, F>(self, other: B, f: F) -> ZipWith<Self, B, F>
    where
        Self: Sized,
        B: Seq,
        U: Send,
        F: Fn(Self::Item, B::Item) -> U + Send + Sync,
    {
        ZipWith::new(self, other, f)
    }

    /// Delayed pairing of each element with its index. O(1).
    fn enumerate(self) -> Enumerate<Self>
    where
        Self: Sized,
    {
        Enumerate::new(self)
    }

    // ------------------------------------------------------------------
    // Eager consumers (Figure 10 lines 28-32; Figure 9 lines 5-16).
    // ------------------------------------------------------------------

    /// Two-phase block reduce (Figure 10 lines 28-32).
    ///
    /// `combine` must be associative and `zero` its identity. Eager work
    /// is the delayed work of the whole sequence plus O(b); only O(b)
    /// elements are allocated.
    ///
    /// ```
    /// use bds_seq::prelude::*;
    /// let total = tabulate(1_000, |i| i as u64).reduce(0, |a, b| a + b);
    /// assert_eq!(total, 999 * 1000 / 2);
    /// ```
    fn reduce<F>(&self, zero: Self::Item, combine: F) -> Self::Item
    where
        F: Fn(Self::Item, Self::Item) -> Self::Item + Send + Sync,
    {
        stream::reduce(self, zero, &combine)
    }

    /// Apply `f` to every element, in parallel across blocks (the paper's
    /// `applySeq`, Figure 9 lines 5-8).
    fn for_each<F>(&self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        stream::for_each(self, &f)
    }

    /// Materialize into a `Vec` (the paper's `toArray`, Figure 9 lines
    /// 9-14): one fused parallel traversal writing each block into its
    /// slot of a fresh buffer.
    fn to_vec(&self) -> Vec<Self::Item> {
        stream::to_vec(self)
    }

    /// Force all delayed computation into a materialized random-access
    /// sequence (Figure 9 line 16). Useful to avoid recomputing a delayed
    /// sequence consumed more than once; see the cost semantics for the
    /// trade-off.
    fn force(&self) -> Forced<Self::Item>
    where
        Self::Item: Clone + Sync,
    {
        Forced::from_vec(self.to_vec())
    }

    // ------------------------------------------------------------------
    // BID producers (Figure 10 lines 33-53).
    // ------------------------------------------------------------------

    /// Exclusive scan (Figure 10 lines 33-40). Eagerly runs phases 1-2 of
    /// the three-phase algorithm (allocating only O(b)); phase 3 is
    /// *delayed* in the returned BID, fusing with downstream consumers.
    ///
    /// Returns the scanned sequence and the total. `combine` must be
    /// associative with identity `zero` ("simple" in the paper's cost
    /// semantics).
    ///
    /// ```
    /// use bds_seq::prelude::*;
    /// let (prefix, total) = tabulate(100, |_| 1u64).scan(0, |a, b| a + b);
    /// assert_eq!(total, 100);
    /// // The scan output is still delayed; this map+reduce fuses with
    /// // its phase 3:
    /// assert_eq!(prefix.reduce(0, u64::max), 99);
    /// ```
    fn scan<F>(self, zero: Self::Item, combine: F) -> (Scanned<Self, F>, Self::Item)
    where
        Self: Sized,
        Self::Item: Clone + Sync,
        F: Fn(Self::Item, Self::Item) -> Self::Item + Send + Sync,
    {
        scan::scan(self, zero, combine)
    }

    /// Inclusive scan: element `i` of the output is the fold of elements
    /// `0..=i`. Same cost structure as [`Seq::scan`].
    fn scan_incl<F>(self, zero: Self::Item, combine: F) -> ScannedIncl<Self, F>
    where
        Self: Sized,
        Self::Item: Clone + Sync,
        F: Fn(Self::Item, Self::Item) -> Self::Item + Send + Sync,
    {
        scan::scan_incl(self, zero, combine)
    }

    /// Keep elements satisfying `pred` (Figure 10 lines 48-53). Eagerly
    /// packs survivors per block (allocating only survivors + O(b));
    /// the output is a BID whose blocks stream out of the packed regions,
    /// so survivors are never copied into one contiguous array.
    ///
    /// ```
    /// use bds_seq::prelude::*;
    /// let evens = tabulate(10, |i| i).filter(|&x| x % 2 == 0);
    /// assert_eq!(evens.len(), 5);
    /// assert_eq!(evens.to_vec(), vec![0, 2, 4, 6, 8]);
    /// ```
    fn filter<P>(self, pred: P) -> Filtered<Self::Item>
    where
        Self: Sized,
        Self::Item: Clone + Sync,
        P: Fn(&Self::Item) -> bool + Send + Sync,
    {
        filter::filter(&self, &pred)
    }

    /// The paper's `filterOp` (a.k.a. `mapMaybe`/`mapPartial`): map each
    /// element through `f`, keeping the `Some` results. Same costs as
    /// [`Seq::filter`].
    fn filter_op<U, F>(self, f: F) -> Filtered<U>
    where
        Self: Sized,
        U: Clone + Send + Sync,
        F: Fn(Self::Item) -> Option<U> + Send + Sync,
    {
        filter::filter_op(&self, &f)
    }

    // ------------------------------------------------------------------
    // Fallible consumers (short-circuiting; see crate::fallible).
    // ------------------------------------------------------------------

    /// Fallible [`Seq::reduce`]: the first block whose fold returns
    /// `Err` cancels the region — sibling blocks stop at their next
    /// block boundary — and that error is returned. When several blocks
    /// fail concurrently, the error from the lowest block index wins,
    /// deterministically. Partially accumulated per-block results are
    /// dropped exactly once.
    ///
    /// ```
    /// use bds_seq::prelude::*;
    /// let sum = tabulate(1_000, |i| i as u64)
    ///     .try_reduce(0u64, |a, b| a.checked_add(b).ok_or("overflow"));
    /// assert_eq!(sum, Ok(999 * 1000 / 2));
    /// ```
    fn try_reduce<E, F>(&self, zero: Self::Item, combine: F) -> Result<Self::Item, E>
    where
        F: Fn(Self::Item, Self::Item) -> Result<Self::Item, E> + Send + Sync,
        E: Send,
    {
        stream::try_reduce(self, zero, &combine)
    }

    /// Fallible filter, materialized into a `Vec`. The first predicate
    /// `Err` cancels the region (lowest block index wins); survivors
    /// packed by blocks that already finished are dropped.
    fn try_filter_collect<E, P>(&self, pred: P) -> Result<Vec<Self::Item>, E>
    where
        Self::Item: Clone + Sync,
        P: Fn(&Self::Item) -> Result<bool, E> + Send + Sync,
        E: Send,
    {
        crate::fallible::try_filter_collect(self, &pred)
    }

    // ------------------------------------------------------------------
    // Counting.
    // ------------------------------------------------------------------

    /// Count elements satisfying `pred` without materializing anything.
    fn count<P>(&self, pred: P) -> usize
    where
        P: Fn(&Self::Item) -> bool + Send + Sync,
    {
        stream::count(self, &pred)
    }
}

/// A random-access delayed sequence (the paper's RAD view): elements can
/// be retrieved independently by index in O(1) beyond their delayed cost.
pub trait RadSeq: Seq {
    /// The `i`-th element, `i < len()`.
    fn get(&self, i: usize) -> Self::Item;

    /// Delayed prefix of the first `k` elements (RAD-only extension).
    fn take(self, k: usize) -> TakeSeq<Self>
    where
        Self: Sized,
    {
        TakeSeq::new(self, k)
    }

    /// Delayed suffix dropping the first `k` elements (RAD-only
    /// extension).
    fn skip(self, k: usize) -> SkipSeq<Self>
    where
        Self: Sized,
    {
        SkipSeq::new(self, k)
    }

    /// Delayed reversal (RAD-only extension).
    fn rev(self) -> RevSeq<Self>
    where
        Self: Sized,
    {
        RevSeq::new(self)
    }
}

/// Generic block stream over any [`RadSeq`]: yields `get(lo..hi)`.
/// It polls nothing: the drive loop that consumes it polls the ambient
/// cancellation token once per chunk, so even a single huge block
/// observes cancellation within one poll chunk.
pub struct RadBlock<'s, S: RadSeq + ?Sized> {
    seq: &'s S,
    next: usize,
    end: usize,
}

impl<'s, S: RadSeq + ?Sized> RadBlock<'s, S> {
    /// Stream `seq.get(lo)..seq.get(hi)`. Public so external [`Seq`]
    /// implementations can use `RadBlock` as their block type.
    pub fn new(seq: &'s S, lo: usize, hi: usize) -> Self {
        RadBlock {
            seq,
            next: lo,
            end: hi,
        }
    }

    /// Fold the next `n` elements: one underflow check, then a counted
    /// loop of `get`s. What a [`Seq`] whose blocks are `RadBlock`s
    /// forwards its [`Seq::fold_chunk`] to.
    #[inline]
    pub fn fold_chunk<A>(&mut self, n: usize, init: A, mut f: impl FnMut(A, S::Item) -> A) -> A {
        let mut acc = init;
        for i in stream::chunk_range(&mut self.next, self.end, n) {
            acc = f(acc, self.seq.get(i));
        }
        acc
    }
}

impl<'s, S: RadSeq + ?Sized> Iterator for RadBlock<'s, S> {
    type Item = S::Item;

    #[inline]
    fn next(&mut self) -> Option<S::Item> {
        if self.next >= self.end {
            return None;
        }
        let x = self.seq.get(self.next);
        self.next += 1;
        Some(x)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.next;
        (n, Some(n))
    }
}

impl<'s, S: RadSeq + ?Sized> ExactSizeIterator for RadBlock<'s, S> {}
