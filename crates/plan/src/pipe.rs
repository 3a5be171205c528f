//! The erased pipeline builder.
//!
//! A [`Pipe`] records a source and a stage list as data — each closure
//! wrapped by its builder method into a typed chunk kernel (see
//! [`crate::kernel`]) and tagged with an [`ElemCost`] annotation —
//! without running anything. Execution happens later, in
//! [`Pipe::execute`], steered by a [`Plan`](crate::Plan) the optimizer
//! produced from the pipe's [`shape`](Pipe::shape).
//!
//! Stages are homogeneous (`T -> T`): the plan cache keys on shape, and
//! letting each stage change the element type would push type identity
//! into the key. The differential checker and the service workloads both
//! run on `u64` streams, so this costs no expressiveness where it
//! matters; heterogeneous pipelines stay with the static combinators.

use std::sync::Arc;

use bds_cost::{ElemCost, SIMPLE};

use crate::kernel::{self, ChunkFn, FillFn, IndexedFn, ScanFn};
use crate::shape::{cost_class, ConsumerKind, PlanShape, SourceKind, StageKey, StageKind};

/// Type-erased consumer closures.
pub(crate) type PredFn<T> = Arc<dyn Fn(&T) -> bool + Send + Sync>;
pub(crate) type CombineFn<T> = Arc<dyn Fn(T, T) -> T + Send + Sync>;

/// A pipeline source, captured as data.
pub(crate) enum SourceOp<T> {
    /// `tabulate(n, f)` with a per-element cost annotation.
    Tabulate(usize, FillFn<T>, ElemCost),
    /// Pre-materialised input, shared by reference between clones and
    /// runs.
    FromVec(Arc<Vec<T>>),
}

/// A pipeline stage, captured as data.
pub(crate) enum StageOp<T> {
    /// Element-wise transform.
    Map(ChunkFn<T>, ElemCost),
    /// Element-wise transform that also receives the element's index.
    MapIdx(IndexedFn<T>, ElemCost),
    /// Keep elements satisfying the predicate.
    Filter(ChunkFn<T>, ElemCost),
    /// Combined transform-and-keep.
    FilterMap(ChunkFn<T>, ElemCost),
    /// Exclusive prefix combine from the given identity.
    Scan(T, ScanFn<T>, ElemCost),
    /// Inclusive prefix combine from the given identity.
    ScanIncl(T, ScanFn<T>, ElemCost),
    /// Keep the first `k` elements.
    Take(usize),
    /// Drop the first `k` elements.
    Skip(usize),
    /// Reverse the stream.
    Rev,
}

impl<T> StageOp<T> {
    pub(crate) fn key(&self) -> StageKey {
        let (kind, cost) = match self {
            StageOp::Map(_, c) => (StageKind::Map, *c),
            StageOp::MapIdx(_, c) => (StageKind::MapIdx, *c),
            StageOp::Filter(_, c) => (StageKind::Filter, *c),
            StageOp::FilterMap(_, c) => (StageKind::FilterMap, *c),
            StageOp::Scan(_, _, c) => (StageKind::Scan, *c),
            StageOp::ScanIncl(_, _, c) => (StageKind::ScanIncl, *c),
            StageOp::Take(_) => (StageKind::Take, ElemCost::ZERO),
            StageOp::Skip(_) => (StageKind::Skip, ElemCost::ZERO),
            StageOp::Rev => (StageKind::Rev, ElemCost::ZERO),
        };
        StageKey {
            kind,
            cost_class: cost_class(cost),
        }
    }
}

impl<T: Clone> Clone for StageOp<T> {
    fn clone(&self) -> Self {
        match self {
            StageOp::Map(f, c) => StageOp::Map(f.clone(), *c),
            StageOp::MapIdx(f, c) => StageOp::MapIdx(f.clone(), *c),
            StageOp::Filter(p, c) => StageOp::Filter(p.clone(), *c),
            StageOp::FilterMap(f, c) => StageOp::FilterMap(f.clone(), *c),
            StageOp::Scan(z, f, c) => StageOp::Scan(z.clone(), f.clone(), *c),
            StageOp::ScanIncl(z, f, c) => StageOp::ScanIncl(z.clone(), f.clone(), *c),
            StageOp::Take(k) => StageOp::Take(*k),
            StageOp::Skip(k) => StageOp::Skip(*k),
            StageOp::Rev => StageOp::Rev,
        }
    }
}

/// A pipeline consumer, captured as data.
pub enum ConsumerOp<T> {
    /// Materialise into a `Vec`.
    Collect,
    /// Order-preserving reduce with the given identity and combiner.
    Reduce(T, CombineFn<T>, ElemCost),
    /// Count elements satisfying the predicate.
    Count(PredFn<T>, ElemCost),
}

impl<T> ConsumerOp<T> {
    /// The closure-agnostic kind of this consumer (the piece of it that
    /// enters a [`PlanShape`]).
    pub fn kind(&self) -> ConsumerKind {
        match self {
            ConsumerOp::Collect => ConsumerKind::Collect,
            ConsumerOp::Reduce(..) => ConsumerKind::Reduce,
            ConsumerOp::Count(..) => ConsumerKind::Count,
        }
    }
}

/// What a consumed pipeline produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Consumed<T> {
    /// Result of [`ConsumerOp::Collect`].
    Vec(Vec<T>),
    /// Result of [`ConsumerOp::Reduce`].
    Scalar(T),
    /// Result of [`ConsumerOp::Count`].
    Num(usize),
}

/// An unexecuted pipeline: a source plus a stage list, captured as data.
pub struct Pipe<T> {
    pub(crate) source: SourceOp<T>,
    pub(crate) stages: Vec<StageOp<T>>,
}

impl<T: Clone> Clone for Pipe<T> {
    fn clone(&self) -> Self {
        Pipe {
            source: match &self.source {
                SourceOp::Tabulate(n, f, c) => SourceOp::Tabulate(*n, f.clone(), *c),
                SourceOp::FromVec(v) => SourceOp::FromVec(v.clone()),
            },
            stages: self.stages.clone(),
        }
    }
}

impl<T: Send + Sync + Clone + 'static> Pipe<T> {
    /// Pipeline fed by `tabulate(n, f)`, priced as one simple pass.
    pub fn tabulate(n: usize, f: impl Fn(usize) -> T + Send + Sync + 'static) -> Pipe<T> {
        Pipe::tabulate_costed(n, f, SIMPLE)
    }

    /// [`Pipe::tabulate`] with an explicit per-element cost annotation.
    pub fn tabulate_costed(
        n: usize,
        f: impl Fn(usize) -> T + Send + Sync + 'static,
        cost: ElemCost,
    ) -> Pipe<T> {
        Pipe {
            source: SourceOp::Tabulate(n, kernel::tabulate(f), cost),
            stages: Vec::new(),
        }
    }

    /// Pipeline fed by pre-materialised data.
    pub fn from_vec(data: Vec<T>) -> Pipe<T> {
        Pipe {
            source: SourceOp::FromVec(Arc::new(data)),
            stages: Vec::new(),
        }
    }

    /// Append an element-wise transform, priced as one simple pass.
    pub fn map(self, f: impl Fn(T) -> T + Send + Sync + 'static) -> Pipe<T> {
        self.map_costed(f, SIMPLE)
    }

    /// [`Pipe::map`] with an explicit cost annotation.
    pub fn map_costed(
        mut self,
        f: impl Fn(T) -> T + Send + Sync + 'static,
        cost: ElemCost,
    ) -> Pipe<T> {
        self.stages.push(StageOp::Map(kernel::map(f), cost));
        self
    }

    /// Append an index-aware element-wise transform.
    pub fn map_idx(self, f: impl Fn(usize, T) -> T + Send + Sync + 'static) -> Pipe<T> {
        self.map_idx_costed(f, SIMPLE)
    }

    /// [`Pipe::map_idx`] with an explicit cost annotation.
    pub fn map_idx_costed(
        mut self,
        f: impl Fn(usize, T) -> T + Send + Sync + 'static,
        cost: ElemCost,
    ) -> Pipe<T> {
        self.stages.push(StageOp::MapIdx(kernel::map_idx(f), cost));
        self
    }

    /// Append a filter, priced as one simple pass.
    pub fn filter(self, pred: impl Fn(&T) -> bool + Send + Sync + 'static) -> Pipe<T> {
        self.filter_costed(pred, SIMPLE)
    }

    /// [`Pipe::filter`] with an explicit cost annotation.
    pub fn filter_costed(
        mut self,
        pred: impl Fn(&T) -> bool + Send + Sync + 'static,
        cost: ElemCost,
    ) -> Pipe<T> {
        self.stages.push(StageOp::Filter(kernel::filter(pred), cost));
        self
    }

    /// Append a combined transform-and-keep stage.
    pub fn filter_map(self, f: impl Fn(T) -> Option<T> + Send + Sync + 'static) -> Pipe<T> {
        self.filter_map_costed(f, SIMPLE)
    }

    /// [`Pipe::filter_map`] with an explicit cost annotation.
    pub fn filter_map_costed(
        mut self,
        f: impl Fn(T) -> Option<T> + Send + Sync + 'static,
        cost: ElemCost,
    ) -> Pipe<T> {
        self.stages.push(StageOp::FilterMap(kernel::filter_map(f), cost));
        self
    }

    /// Append an exclusive prefix combine (`zero` must be the combiner's
    /// identity, and the combiner associative, as everywhere in this
    /// workspace).
    pub fn scan(mut self, zero: T, f: impl Fn(T, T) -> T + Send + Sync + 'static) -> Pipe<T> {
        self.stages.push(StageOp::Scan(zero, kernel::scan(f), SIMPLE));
        self
    }

    /// Append an inclusive prefix combine.
    pub fn scan_incl(mut self, zero: T, f: impl Fn(T, T) -> T + Send + Sync + 'static) -> Pipe<T> {
        self.stages
            .push(StageOp::ScanIncl(zero, kernel::scan(f), SIMPLE));
        self
    }

    /// Keep the first `k` elements.
    pub fn take(mut self, k: usize) -> Pipe<T> {
        self.stages.push(StageOp::Take(k));
        self
    }

    /// Drop the first `k` elements.
    pub fn skip(mut self, k: usize) -> Pipe<T> {
        self.stages.push(StageOp::Skip(k));
        self
    }

    /// Reverse the stream.
    pub fn rev(mut self) -> Pipe<T> {
        self.stages.push(StageOp::Rev);
        self
    }

    /// Source length (stages may shrink or permute, never grow).
    pub fn source_len(&self) -> usize {
        match &self.source {
            SourceOp::Tabulate(n, ..) => *n,
            SourceOp::FromVec(v) => v.len(),
        }
    }

    /// The closure-agnostic cache key for this pipeline under the given
    /// consumer.
    pub fn shape(&self, consumer: ConsumerKind) -> PlanShape {
        PlanShape {
            source: match &self.source {
                SourceOp::Tabulate(..) => SourceKind::Tabulate,
                SourceOp::FromVec(_) => SourceKind::FromVec,
            },
            len_class: bds_cost::ceil_log2(self.source_len() as u64) as u8,
            stages: self.stages.iter().map(StageOp::key).collect(),
            consumer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_ignores_closures_and_amounts() {
        let a = Pipe::tabulate(1000, |i| i as u64)
            .map(|x| x + 1)
            .filter(|&x| x % 2 == 0)
            .take(10);
        let b = Pipe::tabulate(1000, |i| (i * 17) as u64)
            .map(|x| x.wrapping_mul(31))
            .filter(|&x| x > 5)
            .take(999);
        assert_eq!(
            a.shape(ConsumerKind::Collect),
            b.shape(ConsumerKind::Collect)
        );
        assert_ne!(
            a.shape(ConsumerKind::Collect),
            b.shape(ConsumerKind::Reduce)
        );
    }

    #[test]
    fn shape_sees_cost_classes_and_length_classes() {
        let cheap = Pipe::tabulate(1 << 10, |i| i as u64).map(|x| x);
        let costly = Pipe::tabulate(1 << 10, |i| i as u64)
            .map_costed(|x| x, bds_cost::ElemCost { w: 64, s: 1, a: 0 });
        assert_ne!(
            cheap.shape(ConsumerKind::Collect),
            costly.shape(ConsumerKind::Collect)
        );
        let longer = Pipe::tabulate(1 << 20, |i| i as u64).map(|x| x);
        assert_ne!(
            cheap.shape(ConsumerKind::Collect),
            longer.shape(ConsumerKind::Collect)
        );
    }
}
