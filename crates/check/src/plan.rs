//! The plan-optimizer lowering: AST pipelines through `bds-plan`.
//!
//! Every checked pipeline is additionally lowered twice through the
//! plan layer — once under the **optimized** plan a shared shape-keyed
//! [`bds_plan::PlanCache`] hands out, and once under
//! [`bds_plan::identity_plan`] pinned to the parallel executor — and
//! both must match the sequential oracle cell-for-cell, faults
//! included. Because the cache is keyed on shape, pipelines in one fuzz
//! run constantly *share* plans; a plan that were only accidentally
//! correct for the pipeline that first populated the cache would be
//! caught by the next same-shaped pipeline with different closures.
//!
//! Two pipeline families are excluded from the plan legs (returning
//! `None` from [`build_case`]):
//!
//! - `Err`-mode faults: the plan layer has no `try_` consumers, so the
//!   `Err(FAULT_ERR)` channel cannot surface through it.
//! - Faulted `Flatten` sources: the plan layer lowers `flatten` as
//!   pre-materialised input, which is *random-access*, while the
//!   canonical lowering treats a flatten as block-iterable. The values
//!   agree everywhere; the **demand windows** under a downstream cut do
//!   not (DESIGN.md, "Failure semantics"), so a poisoned closure could
//!   legitimately fire in one and not the other. Fault-free flatten
//!   pipelines stay in.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bds_plan::{Consumed, ConsumerOp, Pipe, Plan, PlanShape};

use crate::ast::{Consumer, Outcome, Pipeline, Source, Stage};
use crate::eval::{comb_fn, filter_op_fn, map_fn, pred_fn};

/// Whether the runner adds the plan legs to the configuration matrix
/// (on by default; `--plan off` clears it so CI can A/B the optimizer).
static PLAN_LEGS: AtomicBool = AtomicBool::new(true);

/// Enable or disable the plan legs process-wide.
pub fn set_plan_legs(on: bool) {
    PLAN_LEGS.store(on, Ordering::Relaxed);
}

/// True when the plan legs are enabled.
pub fn plan_legs_enabled() -> bool {
    PLAN_LEGS.load(Ordering::Relaxed)
}

/// One AST pipeline lowered to the plan layer: the erased pipe plus its
/// consumer, ready to execute under any plan of the matching shape.
pub struct PlanCase {
    /// The erased pipeline (closures poisoned exactly like every other
    /// lowering's, via the shared closure builders in [`crate::eval`]).
    pub pipe: Pipe<u64>,
    /// The lowered consumer.
    pub consumer: ConsumerOp<u64>,
}

impl PlanCase {
    /// The case's plan-cache key.
    pub fn shape(&self) -> PlanShape {
        self.pipe.shape(self.consumer.kind())
    }

    /// Execute under `plan` and convert to the checker's outcome type.
    pub fn eval(&self, plan: &Plan) -> Outcome {
        match self.pipe.execute(plan, &self.consumer) {
            Consumed::Vec(v) => Outcome::Value(v),
            Consumed::Scalar(x) => Outcome::Scalar(x),
            Consumed::Num(n) => Outcome::Num(n),
        }
    }
}

/// Lower an AST pipeline to the plan layer, or `None` when the case is
/// outside the plan legs' scope (see module docs).
pub fn build_case(p: &Pipeline) -> Option<PlanCase> {
    let mut pipe = match &p.source {
        Source::Iota(n) => Pipe::tabulate(*n, |i| i as u64),
        Source::TabAffine { n, a, b } => {
            let (a, b) = (*a, *b);
            Pipe::tabulate(*n, move |i| a.wrapping_mul(i as u64).wrapping_add(b))
        }
        Source::FromVec(v) => Pipe::from_vec(v.clone()),
        Source::Flatten(_) => {
            if p.fault.is_some() {
                return None;
            }
            Pipe::from_vec(p.source.eval())
        }
    };
    for (i, stage) in p.stages.iter().enumerate() {
        let poison = p.stage_panic_poison(i);
        pipe = match stage {
            Stage::Map(op) => pipe.map(map_fn(*op, poison)),
            Stage::ZipIota(zc) => {
                let zc = *zc;
                pipe.map_idx(move |i, x| zc.apply(x, i as u64))
            }
            Stage::ZipData(zc, data) => {
                let zc = *zc;
                let data = data.clone();
                pipe.map_idx(move |i, x| zc.apply(x, data[i % data.len()]))
            }
            Stage::Filter(pr) => pipe.filter(pred_fn(*pr, poison)),
            Stage::FilterOp(pr, m) => pipe.filter_map(filter_op_fn(*pr, *m, poison)),
            Stage::Scan(c) => pipe.scan(c.identity(), comb_fn(*c)),
            Stage::ScanIncl(c) => pipe.scan_incl(c.identity(), comb_fn(*c)),
            Stage::Take(k) => pipe.take(*k),
            Stage::Skip(k) => pipe.skip(*k),
            Stage::Rev => pipe.rev(),
        };
    }
    let consumer = match &p.consumer {
        Consumer::ToVec | Consumer::Force => ConsumerOp::Collect,
        Consumer::Reduce(c) | Consumer::TryReduce(c) => {
            // `TryReduce`'s combiner is total, so its oracle outcome is
            // the `Ok` scalar — the same value a plain reduce computes.
            ConsumerOp::Reduce(c.identity(), c.closure(), bds_cost::SIMPLE)
        }
        Consumer::Count(pr) => ConsumerOp::Count(
            Arc::new(pred_fn(*pr, p.consumer_panic_poison())),
            bds_cost::SIMPLE,
        ),
        Consumer::FilterCollect(pr) => {
            pipe = pipe.filter(pred_fn(*pr, p.consumer_panic_poison()));
            ConsumerOp::Collect
        }
        Consumer::TryFilterCollect(pr) => {
            if p.consumer_err_poison().is_some() {
                return None;
            }
            // The panic-or-clean path of a fallible filter-collect is a
            // trailing filter; the predicate still sees every final
            // element exactly once, so the poison semantics carry over.
            pipe = pipe.filter(pred_fn(*pr, p.consumer_panic_poison()));
            ConsumerOp::Collect
        }
    };
    Some(PlanCase { pipe, consumer })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Fault, FaultMode, FaultSite, PredOp};
    use crate::eval::eval_oracle;
    use crate::runner::run_catching;
    use bds_plan::{identity_plan, optimize, ExecMode};

    #[test]
    fn err_mode_and_faulted_flatten_cases_are_skipped() {
        let err_case = Pipeline {
            source: Source::Iota(16),
            stages: vec![],
            consumer: Consumer::TryFilterCollect(PredOp::Lt(100)),
            fault: Some(Fault {
                site: FaultSite::Consumer,
                poison: 3,
                mode: FaultMode::Err,
            }),
        };
        assert!(build_case(&err_case).is_none());
        let flat_faulted = Pipeline {
            source: Source::Flatten(vec![vec![1, 2], vec![3]]),
            stages: vec![Stage::Map(crate::ast::MapOp::AddC(1))],
            consumer: Consumer::ToVec,
            fault: Some(Fault {
                site: FaultSite::Stage(0),
                poison: 2,
                mode: FaultMode::Panic,
            }),
        };
        assert!(build_case(&flat_faulted).is_none());
        assert!(build_case(&flat_faulted.without_fault()).is_some());
    }

    #[test]
    fn plan_legs_match_the_oracle_over_generated_pipelines() {
        let _lock = crate::test_sync::lock();
        let _cal = crate::calibration_pin();
        let _quiet = crate::runner::QuietPanics::install();
        let cache = bds_plan::PlanCache::new(64);
        let mut checked = 0;
        for k in 0..120u64 {
            let p = crate::gen::gen_pipeline(bds_bench::seed::subseed(9009, k));
            let Some(case) = build_case(&p) else { continue };
            let want = run_catching(|| eval_oracle(&p));
            let shape = case.shape();
            let (opt, _) = cache.plan(shape.clone(), 2);
            let raw = identity_plan(shape.clone(), ExecMode::Parallel);
            let seq = optimize(shape, 1);
            for (leg, plan) in [("plan", &*opt), ("planraw", &raw), ("plan1", &seq)] {
                let got = run_catching(|| case.eval(plan));
                assert_eq!(got, want, "{leg} diverged on subseed {k}: {p:?}");
            }
            checked += 1;
        }
        assert!(checked > 60, "only {checked} of 120 cases were in scope");
        assert!(cache.hits() > 0, "shape sharing never happened");
    }
}
