//! Scan with a delayed third phase (Figure 10, lines 33-40).
//!
//! The classic three-phase block scan (Figure 2) is: (1) sum each block;
//! (2) scan the block sums; (3) rescan each block seeded by its offset.
//! The key move of the paper is that phase 3 *need not run now*: its
//! inner loops are sequential per block, so the output can be a BID whose
//! block streams perform the phase-3 work lazily, fusing with whatever
//! consumes the scan. Only phases 1-2 run eagerly, allocating O(b).
//!
//! The seeds of phase 2 belong to the block size phases 1-2 ran under,
//! so a scan is the one kind of sequence that fixes its geometry
//! ([`Seq::fixed_block_size`]): every consumer of its output cuts it at
//! that size, and block `j`'s phase 3 starts from seed `j`.

use crate::stream;
use crate::traits::Seq;

/// The delayed result of an exclusive [`Seq::scan`]: element `i` is the
/// fold of elements `0..i` (so element 0 is `zero`).
#[must_use = "delayed sequences do nothing until consumed"]
pub struct Scanned<S: Seq, F>
where
    S::Item: Clone,
{
    input: S,
    /// The block size phases 1-2 ran under.
    bs: usize,
    /// Exclusive prefix of block sums: the starting accumulator of each
    /// block (phase 2's output).
    seeds: Vec<S::Item>,
    f: F,
}

/// The delayed result of an inclusive [`Seq::scan_incl`]: element `i` is
/// the fold of elements `0..=i`.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct ScannedIncl<S: Seq, F>
where
    S::Item: Clone,
{
    input: S,
    bs: usize,
    seeds: Vec<S::Item>,
    f: F,
}

/// Exclusive scan; see [`Seq::scan`].
pub(crate) fn scan<S, F>(input: S, zero: S::Item, f: F) -> (Scanned<S, F>, S::Item)
where
    S: Seq,
    S::Item: Clone + Sync,
    F: Fn(S::Item, S::Item) -> S::Item + Send + Sync,
{
    let (bs, seeds, total) = stream::scan_seeds(&input, zero, &f);
    (
        Scanned {
            input,
            bs,
            seeds,
            f,
        },
        total,
    )
}

/// Inclusive scan; see [`Seq::scan_incl`].
pub(crate) fn scan_incl<S, F>(input: S, zero: S::Item, f: F) -> ScannedIncl<S, F>
where
    S: Seq,
    S::Item: Clone + Sync,
    F: Fn(S::Item, S::Item) -> S::Item + Send + Sync,
{
    let (bs, seeds, _total) = stream::scan_seeds(&input, zero, &f);
    ScannedIncl {
        input,
        bs,
        seeds,
        f,
    }
}

/// Block stream of [`Scanned`]: phase 3, exclusive flavor.
pub struct ScanBlock<'s, I, T, F> {
    inner: I,
    acc: T,
    f: &'s F,
}

impl<'s, I, T, F> Iterator for ScanBlock<'s, I, T, F>
where
    I: Iterator<Item = T>,
    T: Clone,
    F: Fn(T, T) -> T,
{
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        let x = self.inner.next()?;
        let next_acc = (self.f)(self.acc.clone(), x);
        Some(std::mem::replace(&mut self.acc, next_acc))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Block stream of [`ScannedIncl`]: phase 3, inclusive flavor.
pub struct ScanInclBlock<'s, I, T, F> {
    inner: I,
    acc: T,
    f: &'s F,
}

impl<'s, I, T, F> Iterator for ScanInclBlock<'s, I, T, F>
where
    I: Iterator<Item = T>,
    T: Clone,
    F: Fn(T, T) -> T,
{
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        let x = self.inner.next()?;
        self.acc = (self.f)(self.acc.clone(), x);
        Some(self.acc.clone())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<S, F> Seq for Scanned<S, F>
where
    S: Seq,
    S::Item: Clone + Sync,
    F: Fn(S::Item, S::Item) -> S::Item + Send + Sync,
{
    type Item = S::Item;
    type Block<'s>
        = ScanBlock<'s, S::Block<'s>, S::Item, F>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.input.len()
    }

    fn fixed_block_size(&self) -> Option<usize> {
        Some(self.bs)
    }

    fn elem_cost(&self) -> bds_cost::ElemCost {
        self.input.elem_cost() + bds_cost::SIMPLE
    }

    fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
        assert_eq!(
            bs, self.bs,
            "scan blocks are fixed at the size they were seeded under"
        );
        ScanBlock {
            inner: self.input.block(j, bs),
            acc: self.seeds[j].clone(),
            f: &self.f,
        }
    }
    /// Phase 3 over a chunk: the running prefix rides in the fold's
    /// accumulator, through the input's own chunk fold.
    #[inline]
    fn fold_chunk<'s, A, G>(block: &mut Self::Block<'s>, n: usize, init: A, mut g: G) -> A
    where
        Self: 's,
        G: FnMut(A, S::Item) -> A,
    {
        let f = block.f;
        let seed = block.acc.clone();
        let (prefix, acc) = S::fold_chunk(&mut block.inner, n, (seed, init), |(p, acc), x| {
            let next = f(p.clone(), x);
            (next, g(acc, p))
        });
        block.acc = prefix;
        acc
    }
}

impl<S, F> Seq for ScannedIncl<S, F>
where
    S: Seq,
    S::Item: Clone + Sync,
    F: Fn(S::Item, S::Item) -> S::Item + Send + Sync,
{
    type Item = S::Item;
    type Block<'s>
        = ScanInclBlock<'s, S::Block<'s>, S::Item, F>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.input.len()
    }

    fn fixed_block_size(&self) -> Option<usize> {
        Some(self.bs)
    }

    fn elem_cost(&self) -> bds_cost::ElemCost {
        self.input.elem_cost() + bds_cost::SIMPLE
    }

    fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
        assert_eq!(
            bs, self.bs,
            "scan blocks are fixed at the size they were seeded under"
        );
        ScanInclBlock {
            inner: self.input.block(j, bs),
            acc: self.seeds[j].clone(),
            f: &self.f,
        }
    }
    /// Phase 3 over a chunk, as for [`Scanned`].
    #[inline]
    fn fold_chunk<'s, A, G>(block: &mut Self::Block<'s>, n: usize, init: A, mut g: G) -> A
    where
        Self: 's,
        G: FnMut(A, S::Item) -> A,
    {
        let f = block.f;
        let seed = block.acc.clone();
        let (prefix, acc) = S::fold_chunk(&mut block.inner, n, (seed, init), |(p, acc), x| {
            let next = f(p, x);
            (next.clone(), g(acc, next))
        });
        block.acc = prefix;
        acc
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn scan_blocks_are_independently_replayable() {
        // A BID block stream must be reconstructible: calling block(j)
        // twice yields the same elements (delayed = pure).
        let _g = crate::policy::test_sync::test_force(32);
        let (s, _) = tabulate(200, |i| i as u64).scan(0, |a, b| a + b);
        for j in 0..7 {
            let once: Vec<u64> = s.block(j, 32).collect();
            let twice: Vec<u64> = s.block(j, 32).collect();
            assert_eq!(once, twice, "block {j}");
        }
    }

    #[test]
    fn scan_seed_of_each_block_is_prefix_of_prior_blocks() {
        let _g = crate::policy::test_sync::test_force(16);
        let xs: Vec<u64> = (0..100).map(|i| i % 5).collect();
        let (s, _) = from_slice(&xs).scan(0, |a, b| a + b);
        for j in 0..7 {
            let first = s.block(j, 16).next().unwrap();
            let want: u64 = xs[..j * 16].iter().sum();
            assert_eq!(first, want, "block {j}");
        }
    }

    #[test]
    fn scan_with_max_operator() {
        // Non-plus monoid: running maximum.
        let xs: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let got = from_slice(&xs).scan_incl(0, u64::max).to_vec();
        assert_eq!(got, vec![3, 3, 4, 4, 5, 9, 9, 9, 9, 9, 9]);
    }

    #[test]
    fn scan_total_equals_reduce() {
        let xs: Vec<u64> = (0..5000).map(|i| i * 3 % 101).collect();
        let (_, total) = from_slice(&xs).scan(0, |a, b| a + b);
        let sum = from_slice(&xs).reduce(0, |a, b| a + b);
        assert_eq!(total, sum);
    }

    #[test]
    fn scan_size_hints() {
        let _g = crate::policy::test_sync::test_force(8);
        let (s, _) = tabulate(20, |i| i as u64).scan(0, |a, b| a + b);
        assert_eq!(s.block(0, 8).size_hint(), (8, Some(8)));
        assert_eq!(s.block(2, 8).size_hint(), (4, Some(4)));
    }

    #[test]
    #[should_panic(expected = "seeded under")]
    fn scan_blocks_refuse_another_block_size() {
        let _g = crate::policy::test_sync::test_force(8);
        let (s, _) = tabulate(20, |i| i as u64).scan(0, |a, b| a + b);
        let _ = s.block(0, 10);
    }
}
