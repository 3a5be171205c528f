//! The plan optimizer: pure shape-to-plan rewriting.
//!
//! [`optimize`] is deliberately a pure function of `(shape, workers)`
//! and the process calibration — nothing about a concrete pipeline's
//! closures, data, or cut amounts enters here. That purity is what makes
//! the [`PlanCache`](crate::PlanCache) sound: any pipeline with the same
//! shape may execute any plan the optimizer produced for that shape.
//!
//! See the crate docs for the rewrite catalogue and DESIGN.md ("Plan
//! rewrite legality") for why each rewrite is safe under faults,
//! cancellation, and budgets.

use bds_cost::ElemCost;

use crate::shape::{PlanShape, StageKey, StageKind};

/// How a plan's steps are lowered at execution time.
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

/// One step of a plan. Steps reference stages of the *original*
/// pipeline by index — a plan never owns closures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanStep {
    /// Run the original stage as written.
    Stage(usize),
    /// Adjacent `map`/`filter`/`filter_map` stages fused into one
    /// pass; indices in pipeline order. The executor runs them back to
    /// back over each chunk, as it runs every stage.
    FusedFilterMap(Vec<usize>),
    /// Adjacent `take`/`skip`/`rev` stages collapsed into one composed
    /// `(offset, len, reversed)` index gather; indices in pipeline
    /// order.
    Gather(Vec<usize>),
}

/// An optimized execution recipe for every pipeline of one shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The shape this plan was derived from (and is keyed under).
    pub shape: PlanShape,
    /// Rewritten steps, in execution order.
    pub steps: Vec<PlanStep>,
    /// Whole-pipeline lowering choice.
    pub mode: ExecMode,
}

impl Plan {
    /// Whether step `i` remains a straight-line per-element loop after
    /// rewriting — the shape the SIMD fast paths can lower. A single
    /// stage inherits its kind's [`StageKind::is_vectorizable`]; a
    /// fused `filter_op` run is always vectorizable (fusable kinds are
    /// a subset of vectorizable kinds, so fusion can only *keep* a run
    /// vectorizable, never break it); a gather is index-space, not an
    /// element loop.
    pub fn step_vectorizable(&self, i: usize) -> bool {
        match &self.steps[i] {
            PlanStep::Stage(s) => self.shape.stages[*s].kind.is_vectorizable(),
            PlanStep::FusedFilterMap(_) => true,
            PlanStep::Gather(_) => false,
        }
    }

    /// How many of this plan's steps are vectorizable — surfaced in
    /// plan statistics so benchmark reports can say how much of a
    /// pipeline the SIMD tiers could touch.
    pub fn vectorizable_steps(&self) -> usize {
        (0..self.steps.len()).filter(|&i| self.step_vectorizable(i)).count()
    }
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
    let steps = rewrite_steps(&shape.stages);
    let mode = pick_mode(&shape, workers);
    Plan { shape, steps, mode }
}

/// The no-rewrite plan: every stage as written, in the given mode. The
/// differential checker uses this as the unoptimized reference leg.
pub fn identity_plan(shape: PlanShape, mode: ExecMode) -> Plan {
    let steps = (0..shape.stages.len()).map(PlanStep::Stage).collect();
    Plan { shape, steps, mode }
}

fn rewrite_steps(keys: &[StageKey]) -> Vec<PlanStep> {
    let mut steps = Vec::with_capacity(keys.len());
    let mut i = 0;
    while i < keys.len() {
        if keys[i].kind.is_cut() {
            let mut j = i + 1;
            while j < keys.len() && keys[j].kind.is_cut() {
                j += 1;
            }
            if j - i >= 2 {
                steps.push(PlanStep::Gather((i..j).collect()));
            } else {
                steps.push(PlanStep::Stage(i));
            }
            i = j;
        } else if keys[i].kind.is_fusable() {
            let mut j = i + 1;
            while j < keys.len() && keys[j].kind.is_fusable() {
                j += 1;
            }
            let run = &keys[i..j];
            if j - i >= 2 && run.iter().any(|k| k.kind.is_filterish()) && fusion_pays(run) {
                steps.push(PlanStep::FusedFilterMap((i..j).collect()));
            } else {
                steps.extend((i..j).map(PlanStep::Stage));
            }
            i = j;
        } else {
            steps.push(PlanStep::Stage(i));
            i += 1;
        }
    }
    steps
}

/// Fusing turns N streamed passes into one but serialises the run's
/// element work inside a single `filter_op` closure. That trade wins
/// when the filter runs early relative to the expensive work (the fused
/// pass drops elements before later stages would have paid for them) or
/// when the run is all filter-kind stages; it loses when a cheap run of
/// maps hides behind an expensive filter, so we gate on cost classes.
/// (The chunk interpreter in `exec` runs fused and unfused runs the
/// same way; the gate only decides how the plan records the run.)
fn fusion_pays(run: &[StageKey]) -> bool {
    let min_filter = run
        .iter()
        .filter(|k| k.kind.is_filterish())
        .map(|k| k.cost_class)
        .min();
    let max_map = run
        .iter()
        .filter(|k| k.kind == StageKind::Map)
        .map(|k| k.cost_class)
        .max();
    match (min_filter, max_map) {
        (Some(f), Some(m)) => f <= m,
        (Some(_), None) => true,
        (None, _) => false,
    }
}

fn pick_mode(shape: &PlanShape, workers: usize) -> ExecMode {
    if shape.stages.iter().any(|k| k.kind.is_cut()) {
        return ExecMode::Parallel;
    }
    let len = 1usize << u32::from(shape.len_class).min(62);
    let mut work: u64 = 1 + shape
        .stages
        .iter()
        .map(|k| 1u64 << u32::from(k.cost_class).min(62))
        .sum::<u64>();
    // A fully vectorizable pipeline retires elements lane-parallel, so
    // its effective per-element work is a lane factor cheaper; pricing
    // that in here biases the solver toward the larger blocks vector
    // kernels want.
    if !shape.stages.is_empty() && shape.stages.iter().all(|k| k.kind.is_vectorizable()) {
        work = (work / vector_work_discount()).max(1);
    }
    let per_elem = ElemCost { w: work, s: 1, a: 0 };
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
    use crate::shape::{ConsumerKind, SourceKind};

    fn key(kind: StageKind, cost_class: u8) -> StageKey {
        StageKey { kind, cost_class }
    }

    fn shape_of(stages: Vec<StageKey>) -> PlanShape {
        PlanShape {
            source: SourceKind::Tabulate,
            len_class: 20,
            stages,
            consumer: ConsumerKind::Collect,
        }
    }

    #[test]
    fn vectorizable_metadata_tracks_rewrites() {
        let plan = optimize(
            shape_of(vec![
                key(StageKind::Map, 2),
                key(StageKind::Filter, 0),
                key(StageKind::Scan, 1),
                key(StageKind::Take, 0),
                key(StageKind::Skip, 0),
                key(StageKind::MapIdx, 0),
            ]),
            8,
        );
        // map+filter fuse (filter class ≤ map class) and stay
        // vectorizable; the scan is not; the cut pair gathers; the
        // trailing map_idx is vectorizable on its own.
        assert_eq!(
            plan.steps,
            vec![
                PlanStep::FusedFilterMap(vec![0, 1]),
                PlanStep::Stage(2),
                PlanStep::Gather(vec![3, 4]),
                PlanStep::Stage(5),
            ]
        );
        assert!(plan.step_vectorizable(0));
        assert!(!plan.step_vectorizable(1));
        assert!(!plan.step_vectorizable(2));
        assert!(plan.step_vectorizable(3));
        assert_eq!(plan.vectorizable_steps(), 2);
    }

    #[test]
    fn vector_discount_is_a_sane_lane_count() {
        assert_eq!(vector_work_discount(), 4);
    }

    #[test]
    fn adjacent_cuts_collapse_into_one_gather() {
        let plan = optimize(
            shape_of(vec![
                key(StageKind::Map, 0),
                key(StageKind::Take, 0),
                key(StageKind::Rev, 0),
                key(StageKind::Skip, 0),
                key(StageKind::Map, 0),
            ]),
            8,
        );
        assert_eq!(
            plan.steps,
            vec![
                PlanStep::Stage(0),
                PlanStep::Gather(vec![1, 2, 3]),
                PlanStep::Stage(4),
            ]
        );
    }

    #[test]
    fn lone_cut_stays_a_stage() {
        let plan = optimize(
            shape_of(vec![key(StageKind::Map, 0), key(StageKind::Take, 0)]),
            8,
        );
        assert_eq!(plan.steps, vec![PlanStep::Stage(0), PlanStep::Stage(1)]);
    }

    #[test]
    fn map_filter_runs_fuse_when_the_filter_is_cheap_enough() {
        let plan = optimize(
            shape_of(vec![
                key(StageKind::Map, 3),
                key(StageKind::Filter, 1),
                key(StageKind::FilterMap, 0),
            ]),
            8,
        );
        assert_eq!(plan.steps, vec![PlanStep::FusedFilterMap(vec![0, 1, 2])]);
    }

    #[test]
    fn expensive_filter_over_cheap_maps_does_not_fuse() {
        let plan = optimize(
            shape_of(vec![key(StageKind::Map, 0), key(StageKind::Filter, 5)]),
            8,
        );
        assert_eq!(plan.steps, vec![PlanStep::Stage(0), PlanStep::Stage(1)]);
    }

    #[test]
    fn pure_map_runs_never_fuse() {
        let plan = optimize(
            shape_of(vec![key(StageKind::Map, 0), key(StageKind::Map, 0)]),
            8,
        );
        assert_eq!(plan.steps, vec![PlanStep::Stage(0), PlanStep::Stage(1)]);
    }

    #[test]
    fn map_idx_breaks_fusion_runs() {
        let plan = optimize(
            shape_of(vec![
                key(StageKind::Filter, 0),
                key(StageKind::MapIdx, 0),
                key(StageKind::Filter, 0),
            ]),
            8,
        );
        assert_eq!(
            plan.steps,
            vec![PlanStep::Stage(0), PlanStep::Stage(1), PlanStep::Stage(2)]
        );
    }

    #[test]
    fn tiny_cut_free_shapes_go_sequential_and_cuts_force_parallel() {
        let _pin = bds_cost::override_calibration(bds_cost::Calibration {
            ns_per_work: 1.0,
            block_overhead_ns: 100.0,
        });
        let mut tiny = shape_of(vec![key(StageKind::Map, 0)]);
        tiny.len_class = 2;
        assert_eq!(optimize(tiny.clone(), 8).mode, ExecMode::Sequential);
        tiny.stages.push(key(StageKind::Take, 0));
        assert_eq!(optimize(tiny, 8).mode, ExecMode::Parallel);
        let big = shape_of(vec![key(StageKind::Map, 4)]);
        assert_eq!(optimize(big, 8).mode, ExecMode::Parallel);
    }

    #[test]
    fn identity_plan_preserves_every_stage() {
        let shape = shape_of(vec![
            key(StageKind::Map, 0),
            key(StageKind::Take, 0),
            key(StageKind::Skip, 0),
        ]);
        let plan = identity_plan(shape, ExecMode::Parallel);
        assert_eq!(
            plan.steps,
            vec![PlanStep::Stage(0), PlanStep::Stage(1), PlanStep::Stage(2)]
        );
    }
}
