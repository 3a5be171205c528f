//! Flatten with a blocked *output* iteration space (Figure 3; Figure 10
//! lines 41-47).
//!
//! `flatten` concatenates a sequence of inner (random-access) sequences.
//! Instead of copying into one array, the output index space is cut into
//! equal blocks; each output block binary-searches the inner-offsets
//! array for its starting position (the paper's `getRegion`) and then
//! streams left-to-right across adjacent inner sequences. Eager work is
//! proportional to the number of *inner sequences* only; the per-element
//! walk is delayed.

use crate::counters;
use crate::profile;
use crate::stream::block_bounds;
use crate::traits::{RadSeq, Seq};
use crate::util::array_scan_exclusive;

/// The delayed result of [`flatten`]: a BID over the concatenation of
/// `inners`.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct Flattened<Inner> {
    inners: Vec<Inner>,
    /// Exclusive prefix sums of inner lengths, plus the total at the end
    /// (`offsets.len() == inners.len() + 1`).
    offsets: Vec<usize>,
    len: usize,
}

/// Flatten a sequence of random-access inner sequences.
///
/// The outer sequence is materialized eagerly (the paper forces all inner
/// sequences to RAD, Figure 10 line 45 — here the `Inner: RadSeq` bound
/// makes that a compile-time fact), and the inner lengths are scanned to
/// produce the offsets. Both cost O(|outer|); everything per-element is
/// delayed.
///
/// ```
/// use bds_seq::prelude::*;
/// // Triangle: inner k is [0, 1, ..., k-1]; never materialized.
/// let tri = flatten(tabulate(5, |k| tabulate(k, |i| i)));
/// assert_eq!(tri.len(), 10);
/// assert_eq!(tri.to_vec(), vec![0, 0, 1, 0, 1, 2, 0, 1, 2, 3]);
/// ```
pub fn flatten<S, Inner>(outer: S) -> Flattened<Inner>
where
    S: Seq<Item = Inner>,
    Inner: RadSeq,
{
    let inners = outer.to_vec();
    Flattened::from_inners(inners)
}

impl<Inner: RadSeq> Flattened<Inner> {
    /// Build directly from a vector of inner sequences.
    pub fn from_inners(inners: Vec<Inner>) -> Self {
        let _span = profile::span(profile::Stage::FlattenEager);
        let lengths: Vec<usize> = inners.iter().map(|s| s.len()).collect();
        counters::count_reads(inners.len());
        let (mut offsets, total) = array_scan_exclusive(&lengths, 0usize, &|a, b| a + b);
        offsets.push(total);
        profile::record_segments(profile::Stage::FlattenEager, total, inners.len());
        Flattened {
            inners,
            offsets,
            len: total,
        }
    }

    /// The offset of inner sequence `p` in the flattened output.
    pub fn offset_of(&self, p: usize) -> usize {
        self.offsets[p]
    }

    /// Number of inner sequences.
    pub fn num_inners(&self) -> usize {
        self.inners.len()
    }
}

/// Block stream of [`Flattened`]: the paper's `getRegion` walk. Starts at
/// a binary-searched (inner, within) position and streams `remaining`
/// elements across adjacent inner sequences, skipping empties. A drive
/// loop's chunk fold ([`Seq::fold_chunk`]) walks it as nested loops: a
/// counted loop over each whole inner range the chunk covers.
///
/// The drive loop that consumes the walk polls once per chunk of
/// *elements*, but stepping to the next inner yields no element: a
/// region over many empty inners could otherwise run unpolled for as
/// long as it likes. So the walk ticks its own
/// [`bds_pool::PollTicker`] on each step to the next inner, and on
/// nothing else.
pub struct RegionIter<'s, Inner: RadSeq> {
    inners: &'s [Inner],
    part: usize,
    within: usize,
    remaining: usize,
    ticker: bds_pool::PollTicker,
}

impl<'s, Inner: RadSeq> Iterator for RegionIter<'s, Inner> {
    type Item = Inner::Item;

    #[inline]
    fn next(&mut self) -> Option<Inner::Item> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            let inner = self.inners.get(self.part)?;
            if self.within < inner.len() {
                let x = inner.get(self.within);
                self.within += 1;
                self.remaining -= 1;
                return Some(x);
            }
            self.part += 1;
            self.within = 0;
            self.ticker.tick();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<Inner: RadSeq> RegionIter<'_, Inner> {
    /// Fold the next `n` elements: the same walk as `next()`, with the
    /// elements of each inner taken by one counted loop over the range
    /// the chunk covers. Steps to the next inner, which `next()` takes
    /// when it finds the current one used up, happen (and tick) at the
    /// same points.
    #[inline]
    fn fold_chunk<A>(&mut self, n: usize, init: A, mut f: impl FnMut(A, Inner::Item) -> A) -> A {
        assert!(
            n <= self.remaining,
            "Seq invariant violated: block underflow"
        );
        self.remaining -= n;
        let mut left = n;
        let mut acc = init;
        while left > 0 {
            let Some(inner) = self.inners.get(self.part) else {
                panic!("Seq invariant violated: block underflow");
            };
            let len = inner.len();
            if self.within < len {
                let take = (len - self.within).min(left);
                for k in self.within..self.within + take {
                    acc = f(acc, inner.get(k));
                }
                self.within += take;
                left -= take;
            } else {
                self.part += 1;
                self.within = 0;
                self.ticker.tick();
            }
        }
        acc
    }
}

impl<Inner: RadSeq> Seq for Flattened<Inner> {
    type Item = Inner::Item;
    type Block<'s>
        = RegionIter<'s, Inner>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.len
    }

    fn elem_cost(&self) -> bds_cost::ElemCost {
        // One SIMPLE for the region walk, plus the inner sequences' own
        // per-element cost (all inners share a type, so the first is
        // representative; empty flattens price as simple).
        self.inners
            .first()
            .map_or(bds_cost::ElemCost::ZERO, |i| i.elem_cost())
            + bds_cost::SIMPLE
    }

    /// The blocked output space is the concatenation, re-cut from `bs`
    /// on every call (the paper's `getRegion`), so any block size works.
    fn block(&self, j: usize, bs: usize) -> RegionIter<'_, Inner> {
        let (lo, hi) = block_bounds(self.len, bs, j);
        // Binary search: the last inner whose offset is <= lo. Runs of
        // equal offsets (empty inners) are skipped by taking the last.
        let part = self.offsets.partition_point(|&o| o <= lo) - 1;
        RegionIter {
            inners: &self.inners,
            part,
            within: lo - self.offsets[part],
            remaining: hi - lo,
            ticker: bds_pool::PollTicker::new(),
        }
    }
    #[inline]
    fn fold_chunk<'s, A, F>(block: &mut Self::Block<'s>, n: usize, init: A, f: F) -> A
    where
        Self: 's,
        F: FnMut(A, Inner::Item) -> A,
    {
        block.fold_chunk(n, init, f)
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::Flattened;
    use crate::sources::Forced;

    fn inners(sizes: &[usize]) -> Vec<Forced<usize>> {
        sizes
            .iter()
            .map(|&k| Forced::from_vec((0..k).collect()))
            .collect()
    }

    #[test]
    fn blocks_start_mid_inner() {
        // Tiny blocks, so boundaries land inside inner sequences.
        let f = Flattened::from_inners(inners(&[5, 0, 7, 1]));
        assert_eq!(f.len(), 13);
        let got: Vec<usize> = (0..5).flat_map(|j| f.block(j, 3)).collect();
        let want: Vec<usize> = [5, 0, 7, 1].iter().flat_map(|&k| 0..k).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn leading_and_trailing_empties() {
        let _g = crate::policy::test_sync::test_force(4);
        let f = Flattened::from_inners(inners(&[0, 0, 3, 0, 0, 2, 0]));
        assert_eq!(f.to_vec(), vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn all_empty_inners() {
        let f = Flattened::from_inners(inners(&[0, 0, 0]));
        assert_eq!(f.len(), 0);
        assert!(f.to_vec().is_empty());
    }

    #[test]
    fn no_inners_at_all() {
        let f = Flattened::from_inners(inners(&[]));
        assert!(f.is_empty());
        assert!(f.to_vec().is_empty());
    }

    #[test]
    fn offsets_accessors() {
        let f = Flattened::from_inners(inners(&[2, 3]));
        assert_eq!(f.num_inners(), 2);
        assert_eq!(f.offset_of(0), 0);
        assert_eq!(f.offset_of(1), 2);
        assert_eq!(f.offset_of(2), 5);
    }

    #[test]
    fn flatten_of_delayed_inners_defers_work() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let calls = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&calls);
        // Inner sequences are tabulates whose evaluation we can count.
        let outer = tabulate(10, move |k| {
            let c3 = Arc::clone(&c2);
            tabulate(k, move |i| {
                c3.fetch_add(1, Ordering::Relaxed);
                i
            })
        });
        let f = flatten(outer);
        // Eager flatten work touched only lengths, not elements.
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        let n = f.len();
        assert_eq!(n, 45);
        let _ = f.reduce(0, |a, b| a + b);
        assert_eq!(calls.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn region_iter_size_hint() {
        let f = Flattened::from_inners(inners(&[10]));
        assert_eq!(f.block(0, 4).size_hint(), (4, Some(4)));
        assert_eq!(f.block(2, 4).size_hint(), (2, Some(2)));
    }
}
