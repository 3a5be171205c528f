//! The plan optimizer: a pure function from shape to lowering choice.
//!
//! [`optimize`] is deliberately a pure function of `(shape, workers)`
//! and the process calibration — nothing about a concrete pipeline's
//! closures, data, or cut amounts enters here. That purity is what makes
//! the [`PlanCache`](crate::PlanCache) sound: any pipeline with the same
//! shape may execute any plan the optimizer produced for that shape.
//!
//! Its one decision is the [`ExecMode`], from one geometry solve that
//! prices the source and every stage as one simple application each, as
//! the executor does. The executor runs every stage as written (back to
//! back over each chunk) and composes a chain of cuts into one window
//! itself, so nothing else is left to rewrite; see DESIGN.md ("Plan
//! legality") for why that is safe under faults, cancellation, and
//! budgets.

use bds_cost::ElemCost;

use crate::shape::PlanShape;

/// How a plan is lowered at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Run the blocks under the solved geometry on the pool.
    Parallel,
    /// Run as one block in the caller. Chosen only when the whole
    /// pipeline's geometry collapses to a single block *and* the shape
    /// has no index-space stages (a cut's demand-narrowing semantics
    /// must not silently become evaluate-everything; see DESIGN.md).
    Sequential,
}

/// An execution recipe for every pipeline of one shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The shape this plan was derived from (and is keyed under).
    pub shape: PlanShape,
    /// Whole-pipeline lowering choice.
    pub mode: ExecMode,
}

/// Work-class discount applied when every stage of a shape is
/// vectorizable: a conservative ×4 (the 64-bit AVX2 lane count — the
/// narrowest win the dispatcher would bother with). Cheaper effective
/// per-element work means the geometry solver picks larger blocks,
/// which is exactly what vector kernels want: long straight runs.
fn vector_work_discount() -> u64 {
    bds_cost::lanes::lanes(bds_cost::lanes::AVX2_VECTOR_BYTES, 8) as u64
}

/// Produce the optimized plan for `shape` on a pool of `workers`.
pub fn optimize(shape: PlanShape, workers: usize) -> Plan {
    let mode = pick_mode(&shape, workers);
    Plan { shape, mode }
}

/// The plan for `shape` in a mode the caller picks. The differential
/// checker uses this as the unoptimized reference leg.
pub fn identity_plan(shape: PlanShape, mode: ExecMode) -> Plan {
    Plan { shape, mode }
}

fn pick_mode(shape: &PlanShape, workers: usize) -> ExecMode {
    if shape.stages.iter().any(|k| k.is_cut()) {
        return ExecMode::Parallel;
    }
    let len = 1usize << u32::from(shape.len_class).min(62);
    // The source and every stage cost one simple application each.
    let mut work = 1 + shape.stages.len() as u64;
    // A fully vectorizable pipeline retires elements lane-parallel, so
    // its effective per-element work is a lane factor cheaper; pricing
    // that in here biases the solver toward the larger blocks vector
    // kernels want.
    if !shape.stages.is_empty() && shape.stages.iter().all(|k| k.is_vectorizable()) {
        work = (work / vector_work_discount()).max(1);
    }
    let per_elem = ElemCost {
        w: work,
        s: 1,
        a: 0,
    };
    let cal = bds_cost::calibration();
    let g = bds_cost::geometry::solve(len, per_elem, workers.max(1), &cal);
    if g.num_blocks <= 1 {
        ExecMode::Sequential
    } else {
        ExecMode::Parallel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{ConsumerKind, SourceKind, StageKind};

    fn shape_of(stages: Vec<StageKind>) -> PlanShape {
        PlanShape {
            source: SourceKind::Tabulate,
            len_class: 20,
            stages,
            consumer: ConsumerKind::Collect,
        }
    }

    #[test]
    fn vector_discount_is_a_sane_lane_count() {
        assert_eq!(vector_work_discount(), 4);
    }

    #[test]
    fn tiny_cut_free_shapes_go_sequential_and_cuts_force_parallel() {
        let _pin = bds_cost::override_calibration(bds_cost::Calibration {
            ns_per_work: 1.0,
            block_overhead_ns: 100.0,
        });
        let mut tiny = shape_of(vec![StageKind::Map]);
        tiny.len_class = 2;
        assert_eq!(optimize(tiny.clone(), 8).mode, ExecMode::Sequential);
        tiny.stages.push(StageKind::Take);
        assert_eq!(optimize(tiny, 8).mode, ExecMode::Parallel);
        let big = shape_of(vec![StageKind::Map]);
        assert_eq!(optimize(big, 8).mode, ExecMode::Parallel);
    }

    #[test]
    fn identity_plan_keeps_the_shape_and_mode() {
        let shape = shape_of(vec![StageKind::Map, StageKind::Take, StageKind::Skip]);
        let plan = identity_plan(shape.clone(), ExecMode::Sequential);
        assert_eq!(plan.shape, shape);
        assert_eq!(plan.mode, ExecMode::Sequential);
    }
}
