//! Closure-agnostic pipeline shapes — the plan-cache key.
//!
//! A [`PlanShape`] is everything the optimizer is allowed to look at:
//! stage kinds in order, their cost classes, the source kind and length
//! class, and the consumer kind. Two pipelines with different closures
//! but the same shape get the same plan; nothing derived from a closure
//! (addresses, captures, `take`/`skip` amounts) may enter the key, or
//! cached plans would leak one caller's identity into another's.

use bds_cost::ElemCost;

/// Kind of pipeline source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// `tabulate(n, f)` — a random-access generator.
    Tabulate,
    /// Pre-materialised input data.
    FromVec,
}

/// Kind of a pipeline stage, stripped of its closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Element-wise transform.
    Map,
    /// Element-wise transform that also sees the element's index.
    MapIdx,
    /// Keep elements satisfying a predicate.
    Filter,
    /// Combined transform-and-keep (`filter_op` in the paper's terms).
    FilterMap,
    /// Exclusive prefix combine.
    Scan,
    /// Inclusive prefix combine.
    ScanIncl,
    /// Keep the first `k` elements.
    Take,
    /// Drop the first `k` elements.
    Skip,
    /// Reverse the sequence.
    Rev,
}

impl StageKind {
    /// Index-space stage (`take`/`skip`/`rev`): narrows the window a
    /// segment reads, so a chain of them composes into one window.
    pub fn is_cut(self) -> bool {
        matches!(self, StageKind::Take | StageKind::Skip | StageKind::Rev)
    }

    /// Stage whose per-element work is a straight-line loop with no
    /// loop-carried dependency — the shape the `bds_seq::simd` fast
    /// paths (and LLVM's autovectorizer) can lower at vector width.
    /// Scans carry their accumulator between elements and cuts are
    /// index-space gathers, so neither qualifies.
    pub fn is_vectorizable(self) -> bool {
        matches!(
            self,
            StageKind::Map | StageKind::MapIdx | StageKind::Filter | StageKind::FilterMap
        )
    }
}

/// One stage's contribution to the cache key: its kind plus the
/// magnitude class of its per-element cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageKey {
    /// Which combinator this stage is.
    pub kind: StageKind,
    /// `ceil(log2(work))` of the stage's [`ElemCost`]; index-space
    /// stages are class 0. Bucketing by magnitude keeps the key stable
    /// under small cost-annotation drift while still letting the
    /// optimizer distinguish "cheap filter" from "expensive map".
    pub cost_class: u8,
}

/// Kind of pipeline consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConsumerKind {
    /// Materialise the final stream into a `Vec`.
    Collect,
    /// Order-preserving associative reduce.
    Reduce,
    /// Count elements satisfying a predicate.
    Count,
}

/// The plan-cache key: everything the optimizer may observe about a
/// pipeline, and nothing it may not (see module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanShape {
    /// Source kind.
    pub source: SourceKind,
    /// `ceil(log2(source length))` — the optimizer's parallelism
    /// decision needs magnitude, not the exact length.
    pub len_class: u8,
    /// Per-stage keys, in pipeline order.
    pub stages: Vec<StageKey>,
    /// Consumer kind.
    pub consumer: ConsumerKind,
}

/// Bucket a per-element cost annotation into its magnitude class.
pub(crate) fn cost_class(cost: ElemCost) -> u8 {
    bds_cost::ceil_log2(cost.w.max(1)) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_classes_bucket_by_magnitude() {
        assert_eq!(cost_class(ElemCost { w: 0, s: 0, a: 0 }), 0);
        assert_eq!(cost_class(ElemCost { w: 1, s: 1, a: 0 }), 0);
        assert_eq!(cost_class(ElemCost { w: 2, s: 1, a: 0 }), 1);
        assert_eq!(cost_class(ElemCost { w: 3, s: 1, a: 0 }), 2);
        assert_eq!(cost_class(ElemCost { w: 64, s: 1, a: 0 }), 6);
    }

    #[test]
    fn stage_kind_classes_are_disjoint_where_required() {
        for kind in [
            StageKind::Map,
            StageKind::MapIdx,
            StageKind::Filter,
            StageKind::FilterMap,
            StageKind::Scan,
            StageKind::ScanIncl,
            StageKind::Take,
            StageKind::Skip,
            StageKind::Rev,
        ] {
            if kind.is_cut() {
                assert!(!kind.is_vectorizable());
            }
        }
        assert!(StageKind::MapIdx.is_vectorizable());
        assert!(!StageKind::Scan.is_vectorizable());
        assert!(!StageKind::ScanIncl.is_vectorizable());
    }
}
