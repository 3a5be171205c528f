//! Object-safe type erasure for delayed pipelines.
//!
//! [`Seq`] is not object-safe: its GAT block type (`Seq::Block<'s>`)
//! and generic combinators rule out `dyn Seq`. That is the right
//! trade for fused static pipelines, but interpreters that build
//! pipelines *at runtime* — the `bds-check` differential harness
//! lowering a random AST, or any plugin-style composition — need a
//! single concrete type per element that can hold "some delayed
//! sequence" stage after stage without the type growing.
//!
//! This module provides that bridge:
//!
//! * [`ErasedSeq`] / [`ErasedRadSeq`] — object-safe mirrors of the
//!   [`Seq`] / [`RadSeq`] surface, with blocks erased to boxed
//!   iterators. `elem_cost` and `fixed_block_size` are forwarded, so a
//!   consumer solves the *same* geometry for an erased pipeline as for
//!   the static one, and the block size it solved is passed through
//!   the box to every block.
//! * [`BoxSeq`] / [`BoxRad`] — owning boxes over those traits that
//!   implement [`Seq`] (and [`RadSeq`]) themselves, so an erased
//!   stage composes with every static adaptor and consumer. The
//!   monomorphization cost stays linear in the number of adaptors:
//!   each static adaptor is instantiated once at `BoxSeq<T>` /
//!   `BoxRad<T>` instead of once per pipeline shape.
//!
//! Because [`BoxSeq`] and [`BoxRad`] implement [`Seq`], they get the
//! erased lowering's consumer loops for free: every consumer default
//! calls the drive loops of [`crate::stream`] with the box itself, as
//! the monomorphized pipelines call them with theirs — the erased leg
//! runs the *identical* drive loop, only the block streams are boxed.
//!
//! The price is one virtual `next` call per element per erased layer —
//! a block stream is a boxed iterator, and every element crosses the
//! box — plus an allocation per block stream. Stacking `k` `BoxSeq`
//! layers costs `k` virtual calls per element. For correctness
//! harnesses that is irrelevant; for performance-critical code, keep
//! the static types, or run whole chunks per virtual call as
//! [`ChunkedStream`](crate::stream::ChunkedStream) interpreters do.
//!
//! # Examples
//!
//! ```
//! use bds_seq::prelude::*;
//! use bds_seq::erased::BoxSeq;
//!
//! // The runtime decides the stage chain; the type stays `BoxSeq<u64>`.
//! let mut s = BoxSeq::new(bds_seq::sources::tabulate(100, |i| i as u64));
//! for _ in 0..3 {
//!     s = BoxSeq::new(s.map(|x| x + 1));
//! }
//! assert_eq!(s.reduce(0, |a, b| a + b), (0..100u64).map(|x| x + 3).sum());
//! ```

use bds_cost::ElemCost;

use crate::traits::{RadSeq, Seq};

/// Object-safe mirror of [`Seq`]: the same length, fixed-size and cost
/// surface, with the block stream erased to a boxed iterator.
///
/// Implemented automatically for every [`Seq`]; consume it through
/// [`BoxSeq`], which carries the `dyn` object and re-implements
/// [`Seq`] on top.
pub trait ErasedSeq<T>: Send + Sync {
    /// [`Seq::len`].
    fn len(&self) -> usize;
    /// True when the sequence has no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// [`Seq::fixed_block_size`].
    fn fixed_block_size(&self) -> Option<usize>;
    /// [`Seq::elem_cost`].
    fn elem_cost(&self) -> ElemCost;
    /// [`Seq::block`], erased to a boxed iterator.
    fn boxed_block(&self, j: usize, bs: usize) -> Box<dyn Iterator<Item = T> + '_>;
}

impl<S: Seq> ErasedSeq<S::Item> for S {
    fn len(&self) -> usize {
        Seq::len(self)
    }

    fn fixed_block_size(&self) -> Option<usize> {
        Seq::fixed_block_size(self)
    }

    fn elem_cost(&self) -> ElemCost {
        Seq::elem_cost(self)
    }

    fn boxed_block(&self, j: usize, bs: usize) -> Box<dyn Iterator<Item = S::Item> + '_> {
        Box::new(Seq::block(self, j, bs))
    }
}

/// Object-safe mirror of [`RadSeq`]: [`ErasedSeq`] plus random access.
/// Consume it through [`BoxRad`].
pub trait ErasedRadSeq<T>: ErasedSeq<T> {
    /// [`RadSeq::get`].
    fn get_at(&self, i: usize) -> T;
}

impl<S: RadSeq> ErasedRadSeq<S::Item> for S {
    fn get_at(&self, i: usize) -> S::Item {
        RadSeq::get(self, i)
    }
}

/// An owned, type-erased delayed sequence (the paper's BID shape with
/// the concrete pipeline type hidden).
///
/// `BoxSeq<T>` implements [`Seq`], so it composes with every static
/// adaptor and consumer; wrap the result of such a composition in
/// [`BoxSeq::new`] again to keep the running type fixed. The erased
/// pipeline's cost and fixed block size are forwarded, so zips and
/// consumers see it exactly as they see the static one.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct BoxSeq<T> {
    inner: Box<dyn ErasedSeq<T>>,
}

impl<T: Send> BoxSeq<T> {
    /// Erase `seq` behind a `BoxSeq`.
    pub fn new<S>(seq: S) -> Self
    where
        S: Seq<Item = T> + 'static,
    {
        BoxSeq {
            inner: Box::new(seq),
        }
    }
}

impl<T: Send> Seq for BoxSeq<T> {
    type Item = T;
    type Block<'s>
        = Box<dyn Iterator<Item = T> + 's>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn fixed_block_size(&self) -> Option<usize> {
        self.inner.fixed_block_size()
    }

    fn elem_cost(&self) -> ElemCost {
        self.inner.elem_cost()
    }

    fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
        self.inner.boxed_block(j, bs)
    }
}

/// An owned, type-erased random-access delayed sequence (the paper's
/// RAD shape). Implements [`RadSeq`], so `take`/`skip`/`rev`/`get`
/// stay available after erasure; [`BoxRad::into_seq`] forgets random
/// access when a pipeline leaves the RAD subset.
#[must_use = "delayed sequences do nothing until consumed"]
pub struct BoxRad<T> {
    inner: Box<dyn ErasedRadSeq<T>>,
}

impl<T: Send> BoxRad<T> {
    /// Erase `seq` behind a `BoxRad`.
    pub fn new<S>(seq: S) -> Self
    where
        S: RadSeq<Item = T> + 'static,
    {
        BoxRad {
            inner: Box::new(seq),
        }
    }

    /// Forget random access, keeping only the block-iterable surface.
    pub fn into_seq(self) -> BoxSeq<T> {
        BoxSeq { inner: self.inner }
    }
}

impl<T: Send> Seq for BoxRad<T> {
    type Item = T;
    type Block<'s>
        = Box<dyn Iterator<Item = T> + 's>
    where
        Self: 's;

    fn len(&self) -> usize {
        ErasedSeq::len(&*self.inner)
    }

    fn fixed_block_size(&self) -> Option<usize> {
        self.inner.fixed_block_size()
    }

    fn elem_cost(&self) -> ElemCost {
        self.inner.elem_cost()
    }

    fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
        self.inner.boxed_block(j, bs)
    }
}

impl<T: Send> RadSeq for BoxRad<T> {
    fn get(&self, i: usize) -> T {
        self.inner.get_at(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::{from_slice, tabulate};

    #[test]
    fn boxed_pipeline_matches_static() {
        let data: Vec<u64> = (0..500).map(|i| i * 3 + 1).collect();
        let stat: Vec<u64> = from_slice(&data).map(|x| x ^ 0xAB).to_vec();
        let forced = crate::sources::Forced::from_vec(data.clone());
        let erased: Vec<u64> = BoxSeq::new(BoxSeq::new(forced).map(|x| x ^ 0xAB)).to_vec();
        assert_eq!(stat, erased);
    }

    #[test]
    fn box_rad_keeps_random_access_and_reindexing() {
        let r = BoxRad::new(tabulate(100, |i| i as u64));
        assert_eq!(r.get(7), 7);
        let taken = BoxRad::new(r.take(10));
        let revd = BoxRad::new(taken.rev());
        assert_eq!(revd.to_vec(), (0..10u64).rev().collect::<Vec<_>>());
    }

    #[test]
    fn erasure_forwards_a_scans_fixed_block_size() {
        // A scan's fixed block size survives erasure, so a zip with a
        // fresh side is still cut at the size the scan was seeded under.
        let (scanned, _total) = tabulate(3000, |i| i as u64).scan(0, |a, b| a + b);
        let fixed = Seq::fixed_block_size(&scanned);
        assert!(fixed.is_some());
        let erased = BoxSeq::new(scanned);
        assert_eq!(Seq::fixed_block_size(&erased), fixed);
        // Zipping the erased scan against a fresh source must align
        // (the scan's blocks panic at any other size).
        let fresh = tabulate(3000, |i| i as u64);
        let v = erased.zip_with(fresh, |a, b| a + b).to_vec();
        assert_eq!(v.len(), 3000);
    }

    #[test]
    fn erased_consumers_cover_the_seq_surface() {
        let s = BoxSeq::new(tabulate(200, |i| i as u64));
        assert_eq!(s.count(|x| x % 2 == 0), 100);
        let s = BoxSeq::new(tabulate(200, |i| i as u64));
        assert_eq!(s.reduce(0, |a, b| a + b), 199 * 200 / 2);
        let s = BoxSeq::new(tabulate(10, |i| i as u64));
        let evens: Result<Vec<u64>, ()> = s.try_filter_collect(|x| Ok(x % 2 == 0));
        assert_eq!(evens.unwrap(), vec![0, 2, 4, 6, 8]);
    }
}
