//! The erased pipeline builder.
//!
//! A [`Pipe`] records a source and a stage list as data — each closure
//! wrapped by its builder method into a typed chunk kernel (see
//! [`crate::kernel`]) — without running anything. Execution happens
//! later, in [`Pipe::execute`], steered by a [`Plan`](crate::Plan) the
//! optimizer produced from the pipe's [`shape`](Pipe::shape). Every
//! stage is priced as one simple function application, as in the
//! paper's cost semantics; the executor adds that cost per stage.
//!
//! Stages are homogeneous (`T -> T`): the plan cache keys on shape, and
//! letting each stage change the element type would push type identity
//! into the key. The differential checker and the service workloads both
//! run on `u64` streams, so this costs no expressiveness where it
//! matters; heterogeneous pipelines stay with the static combinators.

use std::sync::Arc;

use bds_cost::ElemCost;

use crate::kernel::{self, ChunkFn, FillFn, IndexedFn, ScanFn};
use crate::shape::{ConsumerKind, PlanShape, SourceKind, StageKind};

/// Type-erased consumer closures.
pub(crate) type PredFn<T> = Arc<dyn Fn(&T) -> bool + Send + Sync>;
pub(crate) type CombineFn<T> = Arc<dyn Fn(T, T) -> T + Send + Sync>;

/// A pipeline source, captured as data.
#[derive(Clone)]
pub(crate) enum SourceOp<T> {
    /// `tabulate(n, f)`.
    Tabulate(usize, FillFn<T>),
    /// Pre-materialised input, shared by reference between clones and
    /// runs.
    FromVec(Arc<Vec<T>>),
}

/// A pipeline stage, captured as data.
#[derive(Clone)]
pub(crate) enum StageOp<T> {
    /// Element-wise transform.
    Map(ChunkFn<T>),
    /// Element-wise transform that also receives the element's index.
    MapIdx(IndexedFn<T>),
    /// Keep elements satisfying the predicate.
    Filter(ChunkFn<T>),
    /// Combined transform-and-keep.
    FilterMap(ChunkFn<T>),
    /// Exclusive prefix combine from the given identity.
    Scan(T, ScanFn<T>),
    /// Inclusive prefix combine from the given identity.
    ScanIncl(T, ScanFn<T>),
    /// Keep the first `k` elements.
    Take(usize),
    /// Drop the first `k` elements.
    Skip(usize),
    /// Reverse the stream.
    Rev,
}

impl<T> StageOp<T> {
    pub(crate) fn kind(&self) -> StageKind {
        match self {
            StageOp::Map(_) => StageKind::Map,
            StageOp::MapIdx(_) => StageKind::MapIdx,
            StageOp::Filter(_) => StageKind::Filter,
            StageOp::FilterMap(_) => StageKind::FilterMap,
            StageOp::Scan(..) => StageKind::Scan,
            StageOp::ScanIncl(..) => StageKind::ScanIncl,
            StageOp::Take(_) => StageKind::Take,
            StageOp::Skip(_) => StageKind::Skip,
            StageOp::Rev => StageKind::Rev,
        }
    }
}

/// A pipeline consumer, captured as data.
///
/// The [`ElemCost`] of `Reduce` and `Count` is not read: the chunked
/// drive loops that run a plan's consumer price it themselves. It stays
/// for now because the `perfbench` benchmark builds these variants with
/// it.
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
#[derive(Clone)]
pub struct Pipe<T> {
    pub(crate) source: SourceOp<T>,
    pub(crate) stages: Vec<StageOp<T>>,
}

impl<T: Send + Sync + Clone + 'static> Pipe<T> {
    /// Pipeline fed by `tabulate(n, f)`.
    pub fn tabulate(n: usize, f: impl Fn(usize) -> T + Send + Sync + 'static) -> Pipe<T> {
        Pipe {
            source: SourceOp::Tabulate(n, kernel::tabulate(f)),
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

    /// Append an element-wise transform.
    pub fn map(mut self, f: impl Fn(T) -> T + Send + Sync + 'static) -> Pipe<T> {
        self.stages.push(StageOp::Map(kernel::map(f)));
        self
    }

    /// Append an index-aware element-wise transform.
    pub fn map_idx(mut self, f: impl Fn(usize, T) -> T + Send + Sync + 'static) -> Pipe<T> {
        self.stages.push(StageOp::MapIdx(kernel::map_idx(f)));
        self
    }

    /// Append a filter.
    pub fn filter(mut self, pred: impl Fn(&T) -> bool + Send + Sync + 'static) -> Pipe<T> {
        self.stages.push(StageOp::Filter(kernel::filter(pred)));
        self
    }

    /// Append a combined transform-and-keep stage.
    pub fn filter_map(mut self, f: impl Fn(T) -> Option<T> + Send + Sync + 'static) -> Pipe<T> {
        self.stages.push(StageOp::FilterMap(kernel::filter_map(f)));
        self
    }

    /// Append an exclusive prefix combine (`zero` must be the combiner's
    /// identity, and the combiner associative, as everywhere in this
    /// workspace).
    pub fn scan(mut self, zero: T, f: impl Fn(T, T) -> T + Send + Sync + 'static) -> Pipe<T> {
        self.stages.push(StageOp::Scan(zero, kernel::scan(f)));
        self
    }

    /// Append an inclusive prefix combine.
    pub fn scan_incl(mut self, zero: T, f: impl Fn(T, T) -> T + Send + Sync + 'static) -> Pipe<T> {
        self.stages.push(StageOp::ScanIncl(zero, kernel::scan(f)));
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
    fn source_len(&self) -> usize {
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
            stages: self.stages.iter().map(StageOp::kind).collect(),
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
    fn shape_sees_length_classes() {
        let short = Pipe::tabulate(1 << 10, |i| i as u64).map(|x| x);
        let longer = Pipe::tabulate(1 << 20, |i| i as u64).map(|x| x);
        assert_ne!(
            short.shape(ConsumerKind::Collect),
            longer.shape(ConsumerKind::Collect)
        );
    }
}
