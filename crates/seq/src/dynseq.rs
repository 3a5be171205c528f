//! A *dynamically dispatched* delayed sequence: a direct transcription of
//! the paper's ML tagged union (Section 4):
//!
//! ```text
//! datatype α seq =
//!   | RAD of int × int × (int → α)
//!   | BID of int × (int → α stream)
//! ```
//!
//! The statically dispatched trait layer in the rest of this crate is the
//! analogue of the paper's C++ template implementation; this module is
//! the analogue of the ML implementation, where the representation is a
//! runtime tag and the streams are boxed closures. It exists (a) to show
//! the technique is representation-faithful, and (b) as the subject of
//! the static-vs-dynamic dispatch ablation bench: fusion still *happens*
//! here (no intermediate arrays), but every element passes through an
//! indirect call, which is the overhead the compiler removes in the
//! static version.

use std::sync::Arc;

use crate::policy::block_size;
use crate::stream;
use crate::traits::Seq;
use crate::util::scan_sequential;

/// A boxed block stream. Like the static leaf streams it polls
/// nothing: every `DSeq` consumer runs one of the drive loops in
/// [`crate::stream`], which poll the ambient cancellation token once
/// per chunk of the block they pull.
pub type DynStream<T> = Box<dyn Iterator<Item = T> + Send>;

type IndexFn<T> = Arc<dyn Fn(usize) -> T + Send + Sync>;
type BlockFn<T> = Arc<dyn Fn(usize) -> DynStream<T> + Send + Sync>;

/// A [`DSeq::Bid`]'s fixed geometry and boxed block streams, borrowed
/// as a [`Seq`] so that the drive loops in [`crate::stream`] consume
/// it like any other sequence.
///
/// `DSeq` is deliberately *cost-blind*: a BID's block size is fixed when
/// [`DSeq::to_bid`] runs (via [`crate::policy::block_size`], with no
/// per-element cost input — the ML transcription has no cost model), so
/// the view reports it as its [`Seq::fixed_block_size`] and keeps the
/// default [`Seq::elem_cost`], which the drive loops never consult for
/// a fixed size.
struct BidStream<'a, T> {
    len: usize,
    bs: usize,
    b: &'a BlockFn<T>,
}

impl<T: Send + Sync + Clone + 'static> Seq for BidStream<'_, T> {
    type Item = T;
    type Block<'s>
        = DynStream<T>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.len
    }

    fn fixed_block_size(&self) -> Option<usize> {
        Some(self.bs)
    }

    fn block(&self, j: usize, bs: usize) -> DynStream<T> {
        debug_assert_eq!(bs, self.bs);
        (self.b)(j)
    }
}

/// The paper's tagged union of the two delayed representations.
///
/// ```
/// use bds_seq::dynseq::DSeq;
/// let (prefix, total) = DSeq::tabulate(1_000, |i| i as u64)
///     .map(|x| x % 7)
///     .scan(0, |a, b| a + b);
/// let evens = prefix.filter(|p| p % 2 == 0);
/// assert!(evens.len() > 0 && total > 0);
/// ```
pub enum DSeq<T> {
    /// `RAD(offset, len, f)`: element `i` is `f(offset + i)`.
    Rad {
        /// Index offset (the paper's `i`).
        offset: usize,
        /// Number of elements.
        len: usize,
        /// Index-to-value function.
        f: IndexFn<T>,
    },
    /// `BID(len, block_size, b)`: block `j` is the stream `b(j)`.
    Bid {
        /// Number of elements.
        len: usize,
        /// Elements per block (last may be shorter).
        bs: usize,
        /// Block-index-to-stream function.
        b: BlockFn<T>,
    },
}

impl<T> Clone for DSeq<T> {
    fn clone(&self) -> Self {
        match self {
            DSeq::Rad { offset, len, f } => DSeq::Rad {
                offset: *offset,
                len: *len,
                f: Arc::clone(f),
            },
            DSeq::Bid { len, bs, b } => DSeq::Bid {
                len: *len,
                bs: *bs,
                b: Arc::clone(b),
            },
        }
    }
}

impl<T: Send + Sync + Clone + 'static> DSeq<T> {
    /// `tabulate n f` (Figure 10 line 19): O(1), fully delayed.
    pub fn tabulate(n: usize, f: impl Fn(usize) -> T + Send + Sync + 'static) -> Self {
        DSeq::Rad {
            offset: 0,
            len: n,
            f: Arc::new(f),
        }
    }

    /// View a shared vector as a RAD (`RADfromArray`).
    pub fn from_vec(data: Vec<T>) -> Self {
        let data = Arc::new(data);
        let len = data.len();
        DSeq::Rad {
            offset: 0,
            len,
            f: Arc::new(move |i| data[i].clone()),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            DSeq::Rad { len, .. } | DSeq::Bid { len, .. } => *len,
        }
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical empty BID, returned by consumers whose result has
    /// no elements.
    fn empty_bid() -> Self {
        DSeq::Bid {
            len: 0,
            bs: 1,
            b: Arc::new(|_| Box::new(std::iter::empty())),
        }
    }

    /// `BIDfromSeq` (Figure 9 lines 1-4): reindex a RAD into blocks; a
    /// BID passes through unchanged.
    pub fn to_bid(self) -> Self {
        match self {
            bid @ DSeq::Bid { .. } => bid,
            DSeq::Rad { offset, len, f } => {
                let bs = block_size(len);
                DSeq::Bid {
                    len,
                    bs,
                    b: Arc::new(move |j| {
                        let lo = offset + j * bs;
                        let hi = offset + ((j + 1) * bs).min(len);
                        let f = Arc::clone(&f);
                        Box::new((lo..hi).map(move |i| f(i)))
                    }),
                }
            }
        }
    }

    /// `map` (Figure 10 lines 20-21): O(1), representation-preserving.
    pub fn map<U: Send + Sync + Clone + 'static>(
        self,
        g: impl Fn(T) -> U + Send + Sync + 'static,
    ) -> DSeq<U> {
        match self {
            DSeq::Rad { offset, len, f } => DSeq::Rad {
                offset,
                len,
                f: Arc::new(move |i| g(f(i))),
            },
            DSeq::Bid { len, bs, b } => {
                let g = Arc::new(g);
                DSeq::Bid {
                    len,
                    bs,
                    b: Arc::new(move |j| {
                        let g = Arc::clone(&g);
                        Box::new(b(j).map(move |x| g(x)))
                    }),
                }
            }
        }
    }

    /// `BIDfromSeq` with an imposed block size: a RAD is reblocked to
    /// `bs` instead of asking the current policy; a BID passes through
    /// unchanged (its geometry was fixed when its eager phase ran).
    fn into_bid_with(self, bs: usize) -> Self {
        match self {
            bid @ DSeq::Bid { .. } => bid,
            DSeq::Rad { offset, len, f } => DSeq::Bid {
                len,
                bs: bs.max(1),
                b: Arc::new(move |j| {
                    let bs = bs.max(1);
                    let lo = offset + j * bs;
                    let hi = offset + ((j + 1) * bs).min(len);
                    let f = Arc::clone(&f);
                    Box::new((lo..hi).map(move |i| f(i)))
                }),
            },
        }
    }

    /// `zip` (Figure 10 lines 22-27): RAD×RAD stays RAD; otherwise both
    /// sides become BIDs and blocks are zipped pairwise.
    ///
    /// Alignment follows the static library's rule that a fixed block
    /// size wins: a side that is already a BID had its block size fixed
    /// when its eager phase ran, so a still-RAD partner adopts that size
    /// rather than asking the current policy (which, under
    /// `Policy::Adaptive`, may legitimately answer differently at a later
    /// time).
    ///
    /// # Panics
    /// Panics if lengths differ, or if two BIDs have misaligned blocks.
    pub fn zip<U: Send + Sync + Clone + 'static>(self, other: DSeq<U>) -> DSeq<(T, U)> {
        assert_eq!(self.len(), other.len(), "zip requires equal lengths");
        match (self, other) {
            (
                DSeq::Rad { offset, len, f },
                DSeq::Rad {
                    offset: offset2,
                    f: f2,
                    ..
                },
            ) => DSeq::Rad {
                offset: 0,
                len,
                f: Arc::new(move |k| (f(offset + k), f2(offset2 + k))),
            },
            (a, b) => {
                let pinned = match (&a, &b) {
                    (DSeq::Bid { bs, .. }, DSeq::Rad { .. })
                    | (DSeq::Rad { .. }, DSeq::Bid { bs, .. }) => Some(*bs),
                    _ => None,
                };
                let (a, b) = match pinned {
                    Some(bs) => (a.into_bid_with(bs), b.into_bid_with(bs)),
                    None => (a.to_bid(), b.to_bid()),
                };
                let (DSeq::Bid { len, bs, b: ba }, DSeq::Bid { bs: bs2, b: bb, .. }) = (a, b)
                else {
                    unreachable!("to_bid returns Bid")
                };
                assert_eq!(bs, bs2, "zip requires aligned blocks");
                DSeq::Bid {
                    len,
                    bs,
                    b: Arc::new(move |j| Box::new(ba(j).zip(bb(j)))),
                }
            }
        }
    }

    /// Two-phase `reduce` (Figure 10 lines 28-32): one instantiation of
    /// the indexed-stream core's [`stream::reduce`] drive loop.
    pub fn reduce(self, zero: T, f: impl Fn(T, T) -> T + Send + Sync) -> T {
        let bid = self.to_bid();
        let DSeq::Bid { len, bs, b } = &bid else {
            unreachable!()
        };
        stream::reduce(
            &BidStream {
                len: *len,
                bs: *bs,
                b,
            },
            zero,
            &f,
        )
    }

    /// Three-phase `scan` with delayed phase 3 (Figure 10 lines 33-40).
    /// Exclusive; returns the scanned BID and the total.
    pub fn scan(
        self,
        zero: T,
        f: impl Fn(T, T) -> T + Send + Sync + 'static,
    ) -> (DSeq<T>, T) {
        let bid = self.to_bid();
        let DSeq::Bid { len, bs, b } = bid else {
            unreachable!()
        };
        // Phases 1-2: the core's shared seeds loop (block sums fused
        // with the input's streams, then a sequential scan of the sums).
        let (_, seeds, total) = stream::scan_seeds(&BidStream { len, bs, b: &b }, zero, &f);
        if seeds.is_empty() {
            return (DSeq::empty_bid(), total);
        }
        let f = Arc::new(f);
        let seeds = Arc::new(seeds);
        // Phase 3: delayed per-block rescan.
        let out = DSeq::Bid {
            len,
            bs,
            b: Arc::new(move |j| {
                let f = Arc::clone(&f);
                let mut acc = seeds[j].clone();
                Box::new(b(j).map(move |x| {
                    let next = f(acc.clone(), x);
                    std::mem::replace(&mut acc, next)
                }))
            }),
        };
        (out, total)
    }

    /// Blockwise-packing `filter` (Figure 10 lines 48-53): one
    /// instantiation of the core's [`stream::filter_parts`] drive loop
    /// (which owns the survivor packing and per-block memory charging),
    /// then exposes the packed regions as a BID via `getRegion` —
    /// survivors are never copied to a contiguous array.
    pub fn filter(self, pred: impl Fn(&T) -> bool + Send + Sync) -> DSeq<T> {
        let bid = self.to_bid();
        let DSeq::Bid { len, bs, b } = &bid else {
            unreachable!()
        };
        if *len == 0 {
            return DSeq::empty_bid();
        }
        let parts = stream::filter_parts(
            &BidStream {
                len: *len,
                bs: *bs,
                b,
            },
            &|x| pred(&x).then_some(x),
        );
        DSeq::flatten_parts(parts)
    }

    /// `flatten` over a vector of delayed inner sequences (Figure 10
    /// lines 44-47): as in the paper, every inner is first forced to RAD
    /// (`a.map RADfromSeq`, line 45) so blocks can start mid-inner; the
    /// output is a BID over the concatenation.
    pub fn flatten(inners: Vec<DSeq<T>>) -> DSeq<T> {
        let parts: Vec<Vec<T>> = inners.into_iter().map(DSeq::to_vec).collect();
        DSeq::flatten_parts(parts)
    }

    /// `flatten` (Figure 10 lines 44-47) over materialized inner arrays.
    pub fn flatten_parts(parts: Vec<Vec<T>>) -> DSeq<T> {
        let lengths: Vec<usize> = parts.iter().map(Vec::len).collect();
        let (mut offsets, total) = scan_sequential(&lengths, 0usize, &|a, b| a + b);
        offsets.push(total);
        let parts = Arc::new(parts);
        let offsets = Arc::new(offsets);
        let bs = block_size(total);
        DSeq::Bid {
            len: total,
            bs,
            b: Arc::new(move |j| {
                let lo = j * bs;
                let hi = (lo + bs).min(total);
                let part = offsets.partition_point(|&o| o <= lo) - 1;
                Box::new(RegionStream {
                    parts: Arc::clone(&parts),
                    part,
                    within: lo - offsets[part],
                    remaining: hi - lo,
                    ticker: bds_pool::PollTicker::new(),
                })
            }),
        }
    }

    /// `filterOp` / `mapMaybe`: map through `g`, keeping `Some`s. Same
    /// blockwise packing as [`DSeq::filter`].
    pub fn filter_op<U: Send + Sync + Clone + 'static>(
        self,
        g: impl Fn(T) -> Option<U> + Send + Sync,
    ) -> DSeq<U> {
        let bid = self.to_bid();
        let DSeq::Bid { len, bs, b } = &bid else {
            unreachable!()
        };
        if *len == 0 {
            return DSeq::empty_bid();
        }
        let parts = stream::filter_parts(
            &BidStream {
                len: *len,
                bs: *bs,
                b,
            },
            &g,
        );
        DSeq::flatten_parts(parts)
    }

    /// The paper's `applySeq` (Figure 9 lines 5-8): one instantiation
    /// of the core's [`stream::for_each`] drive loop.
    pub fn for_each(self, f: impl Fn(T) + Send + Sync) {
        let bid = self.to_bid();
        let DSeq::Bid { len, bs, b } = &bid else {
            unreachable!()
        };
        stream::for_each(
            &BidStream {
                len: *len,
                bs: *bs,
                b,
            },
            &f,
        );
    }

    /// `toArray` (Figure 9 lines 9-14): one instantiation of the core's
    /// [`stream::to_vec`] drive loop (which owns the budget-charged
    /// allocation and the block overflow/underflow asserts).
    pub fn to_vec(self) -> Vec<T> {
        let bid = self.to_bid();
        let DSeq::Bid { len, bs, b } = &bid else {
            unreachable!()
        };
        stream::to_vec(&BidStream {
            len: *len,
            bs: *bs,
            b,
        })
    }

    /// `force` (Figure 9 line 16): fully evaluate into a fresh RAD.
    pub fn force(self) -> DSeq<T> {
        DSeq::from_vec(self.to_vec())
    }

    /// Prefix of the first `k` elements (`k` is clamped to the length).
    /// O(1) on a RAD (it just shrinks its length); a BID is **forced
    /// first**, then cut. Forcing is the uniform fault-surfacing rule
    /// for index-space cuts (see DESIGN.md): every fused closure in a
    /// block-iterable stream observes its whole input before the cut,
    /// exactly as the static library's `Seq::force().take(..)` does —
    /// a lazily truncated block stream would instead skip closure
    /// applications (and their panics) past the cut.
    pub fn take(self, k: usize) -> DSeq<T> {
        let k = k.min(self.len());
        match self {
            DSeq::Rad { offset, f, .. } => DSeq::Rad { offset, len: k, f },
            bid @ DSeq::Bid { .. } => {
                let mut v = bid.to_vec();
                v.truncate(k);
                DSeq::from_vec(v)
            }
        }
    }

    /// Drop the first `k` elements (`k` is clamped to the length). O(1)
    /// on a RAD (the paper's explicit offset field); a BID is **forced
    /// first**, then cut — the same uniform fault-surfacing rule as
    /// [`DSeq::take`]. (The previous lazy block-splicing suffix ran
    /// skipped elements through `Iterator::skip` on only *some* blocks,
    /// so whether a fused closure fired on a dropped element depended
    /// on block geometry.)
    pub fn skip(self, k: usize) -> DSeq<T> {
        let k = k.min(self.len());
        match self {
            DSeq::Rad { offset, len, f } => DSeq::Rad {
                offset: offset + k,
                len: len - k,
                f,
            },
            bid @ DSeq::Bid { .. } => {
                let mut v = bid.to_vec();
                if k < v.len() {
                    v.drain(..k);
                } else {
                    v.clear();
                }
                DSeq::from_vec(v)
            }
        }
    }

    /// Reverse. O(1) on a RAD (index flip); a BID is materialized
    /// first, since block streams only run forward — reversal is a
    /// random-access operation, as in the paper.
    pub fn rev(self) -> DSeq<T> {
        match self {
            DSeq::Rad { offset, len, f } => DSeq::Rad {
                offset: 0,
                len,
                f: Arc::new(move |i| f(offset + len - 1 - i)),
            },
            bid @ DSeq::Bid { .. } => {
                let mut v = bid.to_vec();
                v.reverse();
                DSeq::from_vec(v)
            }
        }
    }

    /// Inclusive three-phase `scan`: element `i` of the result is the
    /// fold of elements `0..=i`. Implemented directly (not as an
    /// exclusive scan zipped with the input): under an adaptive policy
    /// two separate geometry resolutions of the same length could
    /// legitimately disagree, so the rescan reuses the one geometry its
    /// own phase 1 fixed.
    pub fn scan_incl(self, zero: T, f: impl Fn(T, T) -> T + Send + Sync + 'static) -> DSeq<T> {
        let bid = self.to_bid();
        let DSeq::Bid { len, bs, b } = bid else {
            unreachable!()
        };
        // Phases 1-2: the core's shared seeds loop; the exclusive
        // prefix of block sums is each block's incoming prefix.
        let (_, seeds, _total) = stream::scan_seeds(&BidStream { len, bs, b: &b }, zero, &f);
        if seeds.is_empty() {
            return DSeq::empty_bid();
        }
        let f = Arc::new(f);
        let seeds = Arc::new(seeds);
        // Phase 3: delayed per-block rescan, emitting the accumulator
        // *after* folding in each element.
        DSeq::Bid {
            len,
            bs,
            b: Arc::new(move |j| {
                let f = Arc::clone(&f);
                let mut acc = seeds[j].clone();
                Box::new(b(j).map(move |x| {
                    acc = f(acc.clone(), x);
                    acc.clone()
                }))
            }),
        }
    }

    /// Number of elements satisfying `pred`: one instantiation of the
    /// core's two-phase [`stream::count`] drive loop.
    pub fn count(self, pred: impl Fn(&T) -> bool + Send + Sync) -> usize {
        let bid = self.to_bid();
        let DSeq::Bid { len, bs, b } = &bid else {
            unreachable!()
        };
        stream::count(
            &BidStream {
                len: *len,
                bs: *bs,
                b,
            },
            &pred,
        )
    }

    /// Fallible [`DSeq::filter`]: the predicate may reject the whole
    /// pipeline with `Err`. One instantiation of the core's
    /// [`stream::try_filter_parts`] drive loop: the first failing block
    /// cancels the region (sibling blocks stop at their next poll
    /// boundary) and the error from the lowest failing block index
    /// wins, matching the static library's deterministic-error rule.
    pub fn try_filter_collect<E: Send>(
        self,
        pred: impl Fn(&T) -> Result<bool, E> + Send + Sync,
    ) -> Result<Vec<T>, E> {
        let bid = self.to_bid();
        let DSeq::Bid { len, bs, b } = &bid else {
            unreachable!()
        };
        if *len == 0 {
            return Ok(Vec::new());
        }
        let parts = stream::try_filter_parts(
            &BidStream {
                len: *len,
                bs: *bs,
                b,
            },
            &pred,
        )?;
        Ok(parts.concat())
    }

    /// Fallible two-phase [`DSeq::reduce`]: one instantiation of the
    /// core's [`stream::try_reduce`] drive loop (lowest failing block
    /// index's error wins).
    pub fn try_reduce<E: Send>(
        self,
        zero: T,
        f: impl Fn(T, T) -> Result<T, E> + Send + Sync,
    ) -> Result<T, E> {
        let bid = self.to_bid();
        let DSeq::Bid { len, bs, b } = &bid else {
            unreachable!()
        };
        stream::try_reduce(
            &BidStream {
                len: *len,
                bs: *bs,
                b,
            },
            zero,
            &f,
        )
    }
}

/// `getRegion` stream over `Arc`-shared parts (owned flavor of
/// [`crate::flatten::RegionIter`]). Like its static counterpart it
/// ticks its own [`bds_pool::PollTicker`] on each step to the next
/// part, the one move that yields no element: one region can span many
/// empty parts.
struct RegionStream<T> {
    parts: Arc<Vec<Vec<T>>>,
    part: usize,
    within: usize,
    remaining: usize,
    ticker: bds_pool::PollTicker,
}

impl<T: Clone> Iterator for RegionStream<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            let part = self.parts.get(self.part)?;
            if self.within < part.len() {
                let x = part[self.within].clone();
                self.within += 1;
                self.remaining -= 1;
                return Some(x);
            }
            self.part += 1;
            self.within = 0;
            self.ticker.tick();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tabulate_map_reduce() {
        let s = DSeq::tabulate(10_000, |i| i as u64);
        let total = s.map(|x| x * 2).reduce(0, |a, b| a + b);
        assert_eq!(total, 9_999 * 10_000);
    }

    #[test]
    fn scan_matches_reference() {
        let n = 5_000usize;
        let s = DSeq::tabulate(n, |i| (i % 7) as u64);
        let (scanned, total) = s.scan(0, |a, b| a + b);
        let got = scanned.to_vec();
        let mut acc = 0u64;
        for (i, g) in got.iter().enumerate() {
            assert_eq!(*g, acc, "index {i}");
            acc += (i % 7) as u64;
        }
        assert_eq!(total, acc);
    }

    #[test]
    fn filter_matches_reference() {
        let n = 8_192usize;
        let s = DSeq::tabulate(n, |i| i as u64);
        let kept = s.filter(|&x| x % 3 == 0).to_vec();
        let want: Vec<u64> = (0..n as u64).filter(|x| x % 3 == 0).collect();
        assert_eq!(kept, want);
    }

    #[test]
    fn zip_rad_rad_stays_rad() {
        let a = DSeq::tabulate(100, |i| i);
        let b = DSeq::tabulate(100, |i| 2 * i);
        let z = a.zip(b);
        assert!(matches!(z, DSeq::Rad { .. }));
        let v = z.to_vec();
        assert_eq!(v[17], (17, 34));
    }

    #[test]
    fn zip_with_bid_goes_blockwise() {
        let a = DSeq::tabulate(3000, |i| i as u64);
        let (scanned, _) = a.scan(0, |x, y| x + y);
        let idx = DSeq::tabulate(3000, |i| i as u64);
        let z = scanned.zip(idx);
        assert!(matches!(z, DSeq::Bid { .. }));
        let v = z.to_vec();
        // prefix sum of 0..i is i(i-1)/2
        assert_eq!(v[10], (45, 10));
    }

    #[test]
    fn scan_then_filter_fuses() {
        let n = 4_096usize;
        let s = DSeq::tabulate(n, |i| 1u64.wrapping_mul(i as u64 % 3));
        let (scanned, _) = s.scan(0, |a, b| a + b);
        let odd_prefixes = scanned.filter(|x| x % 2 == 1);
        let got = odd_prefixes.clone().reduce(0, |a, b| a + b);
        // Reference.
        let mut acc = 0u64;
        let mut want = 0u64;
        let mut count = 0usize;
        for i in 0..n {
            if acc % 2 == 1 {
                want += acc;
                count += 1;
            }
            acc += (i % 3) as u64;
        }
        assert_eq!(got, want);
        assert_eq!(odd_prefixes.len(), count);
    }

    #[test]
    fn flatten_of_delayed_inners() {
        let inners: Vec<DSeq<u64>> = (0..20u64)
            .map(|k| DSeq::tabulate(k as usize, move |i| k * 100 + i as u64))
            .collect();
        let flat = DSeq::flatten(inners);
        let want: Vec<u64> = (0..20u64)
            .flat_map(|k| (0..k).map(move |i| k * 100 + i))
            .collect();
        assert_eq!(flat.clone().to_vec(), want);
        // And it fuses onward: filter the flattened stream.
        let odds = flat.filter(|x| x % 2 == 1).to_vec();
        let want_odds: Vec<u64> = want.iter().copied().filter(|x| x % 2 == 1).collect();
        assert_eq!(odds, want_odds);
    }

    #[test]
    fn flatten_parts_round_trips() {
        let parts = vec![vec![1, 2, 3], vec![], vec![4], vec![], vec![5, 6]];
        let flat = DSeq::flatten_parts(parts);
        assert_eq!(flat.clone().to_vec(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(flat.len(), 6);
    }

    #[test]
    fn empty_sequences_are_fine() {
        let s: DSeq<u64> = DSeq::tabulate(0, |_| unreachable!());
        assert_eq!(s.clone().reduce(0, |a, b| a + b), 0);
        assert_eq!(s.clone().to_vec(), Vec::<u64>::new());
        let (scanned, total) = s.clone().scan(0, |a, b| a + b);
        assert_eq!(total, 0);
        assert!(scanned.to_vec().is_empty());
        assert!(s.filter(|_| true).to_vec().is_empty());
    }

    #[test]
    fn filter_op_keeps_some() {
        let s = DSeq::tabulate(4096, |i| i as u64);
        let got = s.filter_op(|x| (x % 9 == 0).then_some(x / 9)).to_vec();
        let want: Vec<u64> = (0..4096 / 9 + 1).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn for_each_visits_everything() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let total = AtomicU64::new(0);
        DSeq::tabulate(10_000, |i| i as u64)
            .map(|x| x + 1)
            .for_each(|x| {
                total.fetch_add(x, Ordering::Relaxed);
            });
        assert_eq!(total.load(Ordering::Relaxed), (1..=10_000u64).sum::<u64>());
    }

    #[test]
    fn take_skip_rev_on_both_representations() {
        let want: Vec<u64> = (0..5000u64).collect();
        // RAD: all O(1) re-indexings.
        let r = DSeq::tabulate(5000, |i| i as u64);
        assert_eq!(r.clone().take(100).to_vec(), want[..100]);
        assert_eq!(r.clone().skip(4900).to_vec(), want[4900..]);
        let mut rev_want = want.clone();
        rev_want.reverse();
        assert_eq!(r.clone().rev().to_vec(), rev_want);
        assert_eq!(r.clone().take(9999).to_vec(), want); // clamped
        assert!(r.skip(9999).to_vec().is_empty()); // clamped
        // BID (scan output): take truncates, skip splices blocks.
        let scanned = |n: usize| DSeq::tabulate(n, |_| 1u64).scan_incl(0, |a, b| a + b);
        let incl: Vec<u64> = (1..=5000u64).collect();
        assert_eq!(scanned(5000).take(137).to_vec(), incl[..137]);
        for k in [0usize, 1, 7, 1000, 4999, 5000] {
            assert_eq!(scanned(5000).skip(k).to_vec(), incl[k..], "skip {k}");
        }
        let mut incl_rev = incl.clone();
        incl_rev.reverse();
        assert_eq!(scanned(5000).rev().to_vec(), incl_rev);
    }

    #[test]
    fn scan_incl_matches_reference() {
        let n = 4_096usize;
        let s = DSeq::tabulate(n, |i| (i % 5) as u64);
        let got = s.scan_incl(0, |a, b| a + b).to_vec();
        let mut acc = 0u64;
        for (i, g) in got.iter().enumerate() {
            acc += (i % 5) as u64;
            assert_eq!(*g, acc, "index {i}");
        }
        assert!(DSeq::<u64>::tabulate(0, |_| 0)
            .scan_incl(0, |a, b| a + b)
            .to_vec()
            .is_empty());
    }

    #[test]
    fn count_and_try_consumers() {
        let s = DSeq::tabulate(10_000, |i| i as u64);
        assert_eq!(s.clone().count(|&x| x % 3 == 0), 3334);
        let ok: Result<Vec<u64>, &str> = s.clone().try_filter_collect(|&x| Ok(x % 2 == 0));
        assert_eq!(ok.unwrap().len(), 5000);
        let err: Result<Vec<u64>, u64> = s
            .clone()
            .try_filter_collect(|&x| if x == 7777 { Err(x) } else { Ok(true) });
        assert_eq!(err.unwrap_err(), 7777);
        let total: Result<u64, &str> = s.clone().try_reduce(0, |a, b| Ok(a + b));
        assert_eq!(total.unwrap(), 9_999u64 * 10_000 / 2);
        let empty: Result<u64, &str> = DSeq::tabulate(0, |_| 0u64).try_reduce(5, |a, b| Ok(a + b));
        assert_eq!(empty.unwrap(), 5);
    }

    #[test]
    fn zip_aligns_free_rad_to_pinned_bid_side() {
        use crate::policy::{set_policy, Policy};
        // Serialize against other tests that touch the global policy.
        let _lock = crate::policy::test_sync::test_lock();
        // Build the BID side under one fixed policy, then flip the
        // policy before zipping: the RAD side must adopt the BID's
        // pinned block size instead of asking the (changed) policy.
        let guard = set_policy(Policy::Fixed(1));
        let (scanned, _) = DSeq::tabulate(3000, |i| i as u64).scan(0, |a, b| a + b);
        drop(guard);
        let _guard = set_policy(Policy::Fixed(4));
        let idx = DSeq::tabulate(3000, |i| i as u64);
        for (zipped, flipped) in [(scanned.clone().zip(idx.clone()), false),
            (idx.zip(scanned), true)]
        {
            let v = if flipped {
                zipped.map(|(a, b)| (b, a)).to_vec()
            } else {
                zipped.to_vec()
            };
            assert_eq!(v[10], (45, 10));
            assert_eq!(v.len(), 3000);
        }
    }

    #[test]
    fn force_pins_delayed_work() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let evals = Arc::new(AtomicUsize::new(0));
        let e2 = Arc::clone(&evals);
        let s = DSeq::tabulate(2048, move |i| {
            e2.fetch_add(1, Ordering::Relaxed);
            i as u64
        });
        let forced = s.force();
        assert_eq!(evals.load(Ordering::Relaxed), 2048);
        let _ = forced.clone().reduce(0, |a, b| a + b);
        let _ = forced.reduce(0, |a, b| a.max(b));
        // No further evaluations of the original index function.
        assert_eq!(evals.load(Ordering::Relaxed), 2048);
    }
}
