//! The divergence checker: configuration matrix, comparison, shrinking,
//! and deterministic replay.
//!
//! For each pipeline the sequential oracle is evaluated once, then
//! every evaluator runs under every configuration in the matrix
//!
//! ```text
//!   geometry ∈ {Adaptive, Fixed(1), Fixed(8), Fixed(32), Forced(1), Forced(7)}
//!   threads  ∈ {1, 2, max_procs()}   (deduplicated)
//! ```
//!
//! and any outcome that differs from the oracle's is a [`Divergence`].
//! The `array`/`rad` baselines ignore the block-size policy (they use
//! their own grain heuristic), so they run once per thread count —
//! under the `Adaptive` leg — rather than once per geometry.
//!
//! Determinism: the whole run holds a [`bds_cost::override_calibration`]
//! pin so `Adaptive` geometry never depends on measured timings, and
//! every pool is created with [`Pool::new_seeded`], which seeds each
//! worker's steal-victim RNG and pins its width report. Replaying a
//! case ([`run_case_recorded`]) uses *fresh* seeded pools plus
//! [`bds_cost::record_geometry`], so two replays of the same subseed
//! produce identical outcome vectors and identical (sorted) geometry
//! logs — which [`verify_determinism`] asserts, and the fuzz loop
//! samples periodically.

use std::panic::{self, AssertUnwindSafe};

use bds_cost::{record_geometry, recorded_geometry, GeometryDecision};
use bds_pool::Pool;
use bds_seq::{force_block_size, set_policy, BlockSizeGuard, Policy, PolicyGuard};

use crate::ast::{Outcome, Pipeline, Source, Stage, FAULT_MARKER};
use crate::ast::{Consumer, Fault, FaultSite};
use crate::eval;

/// One block-geometry leg of the configuration matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geom {
    /// Cost-model-driven block sizes (pinned by the run's calibration
    /// override).
    Adaptive,
    /// `Policy::Fixed(k)`: the fixed `ceil(n / (k·P))` heuristic
    /// (floored at `MIN_BLOCK` by the policy layer).
    Fixed(usize),
    /// `force_block_size(k)`: a raw block-size override that bypasses
    /// the `MIN_BLOCK` floor, so small inputs really do split into
    /// many blocks.
    Forced(usize),
}

impl Geom {
    /// The geometry legs every pipeline is checked under.
    pub fn all() -> [Geom; 6] {
        [
            Geom::Adaptive,
            Geom::Fixed(1),
            Geom::Fixed(8),
            Geom::Fixed(32),
            Geom::Forced(1),
            Geom::Forced(7),
        ]
    }
}

/// RAII holder for one geometry leg's policy/override guard.
pub(crate) enum GeomGuard {
    Policy { _guard: PolicyGuard },
    Block { _guard: BlockSizeGuard },
}

pub(crate) fn apply_geom(g: Geom) -> GeomGuard {
    match g {
        Geom::Adaptive => GeomGuard::Policy {
            _guard: set_policy(Policy::Adaptive),
        },
        Geom::Fixed(k) => GeomGuard::Policy {
            _guard: set_policy(Policy::Fixed(k)),
        },
        Geom::Forced(k) => GeomGuard::Block {
            _guard: force_block_size(k),
        },
    }
}

/// The thread-count legs: 1, 2 and `max_procs()`, deduplicated (on a
/// small machine `max_procs()` may itself be 2).
pub fn thread_counts() -> Vec<usize> {
    let mut t = vec![1, 2, bds_bench::max_procs()];
    t.sort_unstable();
    t.dedup();
    t
}

type EvalFn = fn(&Pipeline) -> Outcome;

const EVALS: [(&str, EvalFn); 4] = [
    ("array", eval::eval_array as EvalFn),
    ("rad", eval::eval_rad as EvalFn),
    ("delay", eval::eval_delay as EvalFn),
    ("dynseq", eval::eval_dynseq as EvalFn),
];

/// The evaluators exercised under a geometry leg: all four under
/// `Adaptive`, only the policy-sensitive `delay`/`dynseq` under the
/// other legs (the baselines would just repeat themselves).
fn evals_for(geom: Geom) -> &'static [(&'static str, EvalFn)] {
    match geom {
        Geom::Adaptive => &EVALS,
        _ => &EVALS[2..],
    }
}

/// One evaluator/configuration pair whose outcome differed from the
/// oracle's.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which evaluator diverged.
    pub eval: &'static str,
    /// Under which geometry leg.
    pub geom: Geom,
    /// Under how many pool threads.
    pub threads: usize,
    /// What it produced.
    pub got: Outcome,
    /// What the oracle produced.
    pub want: Outcome,
}

impl Divergence {
    /// One-line description for reports.
    pub fn describe(&self) -> String {
        format!(
            "{} under {:?} x {} threads: got {}, want {}",
            self.eval,
            self.geom,
            self.threads,
            self.got.brief(),
            self.want.brief(),
        )
    }
}

/// Run a fallible evaluation, classifying panics: a payload carrying
/// [`FAULT_MARKER`] is an *injected* fault surfacing (expected when the
/// pipeline has a panic-mode fault); anything else is a real bug in the
/// library under test.
pub fn run_catching(f: impl FnOnce() -> Outcome) -> Outcome {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(o) => o,
        Err(payload) => {
            let injected = payload
                .downcast_ref::<&str>()
                .map(|s| s.contains(FAULT_MARKER))
                .or_else(|| {
                    payload
                        .downcast_ref::<String>()
                        .map(|s| s.contains(FAULT_MARKER))
                })
                .unwrap_or(false);
            Outcome::Panicked { injected }
        }
    }
}

/// A cache of seeded pools, one per thread count, shared across the
/// fuzz loop. The pool seed mixes the run seed with the thread count so
/// differently-sized pools draw decorrelated steal sequences.
pub struct Pools {
    seed: u64,
    pools: Vec<(usize, Pool)>,
    /// The shared shape-keyed plan cache the "plan" legs draw from.
    /// Living here gives it the same lifecycle as the pools: shared
    /// across one fuzz loop (so same-shaped pipelines exercise plan
    /// *sharing*), fresh per recorded replay (so replay stays
    /// bit-for-bit — the cache's LRU ticks are part of the schedule).
    plan_cache: bds_plan::PlanCache,
}

/// Plans held per matrix pass for one pipeline's plan legs.
const PLAN_CACHE_CAPACITY: usize = 64;

impl Pools {
    /// Create an empty cache whose pools derive from `seed`.
    pub fn new(seed: u64) -> Pools {
        Pools {
            seed,
            pools: Vec::new(),
            plan_cache: bds_plan::PlanCache::new(PLAN_CACHE_CAPACITY),
        }
    }

    /// The cached seeded pool for `threads`, creating it on first use.
    pub fn get(&mut self, threads: usize) -> &Pool {
        if let Some(i) = self.pools.iter().position(|(t, _)| *t == threads) {
            return &self.pools[i].1;
        }
        let pool = Pool::new_seeded(threads, self.seed ^ threads as u64);
        self.pools.push((threads, pool));
        &self.pools.last().unwrap().1
    }
}

/// Evaluate `p` under the full configuration matrix and return every
/// divergence from the sequential oracle (empty = the pipeline agrees
/// everywhere).
pub fn check_pipeline(p: &Pipeline, pools: &mut Pools) -> Vec<Divergence> {
    collect_outcomes(p, pools).1
}

/// The labelled outcome vector of a full matrix pass plus its
/// divergences. The label order is deterministic (threads outer,
/// geometry middle, evaluator inner), which replay relies on.
fn collect_outcomes(
    p: &Pipeline,
    pools: &mut Pools,
) -> (Vec<(String, Outcome)>, Vec<Divergence>) {
    let want = run_catching(|| eval::eval_oracle(p));
    crate::coverage::record_leg(p, "oracle", None);
    let mut outcomes = vec![("oracle".to_string(), want.clone())];
    let mut divs = Vec::new();
    let plan_case = if crate::plan::plan_legs_enabled() {
        crate::plan::build_case(p)
    } else {
        None
    };
    for threads in thread_counts() {
        // Resolve the plans before borrowing the pool: "plan" comes
        // from the shared shape-keyed cache (the first leg optimizes,
        // later legs and later same-shaped pipelines share), "planraw"
        // is the identity plan pinned to the parallel executor, so the
        // executor is checked whatever mode the optimizer picks.
        let plans = plan_case.as_ref().map(|case| {
            let shape = case.shape();
            let (optimized, _hit) = pools.plan_cache.plan(shape.clone(), threads);
            let raw = bds_plan::identity_plan(shape, bds_plan::ExecMode::Parallel);
            (optimized, raw)
        });
        let pool = pools.get(threads);
        for geom in Geom::all() {
            let _g = apply_geom(geom);
            for &(name, f) in evals_for(geom) {
                let got = run_catching(|| pool.install(|| f(p)));
                crate::coverage::record_leg(p, name, Some(geom));
                outcomes.push((format!("{name}/{geom:?}/p{threads}"), got.clone()));
                if got != want {
                    divs.push(Divergence {
                        eval: name,
                        geom,
                        threads,
                        got,
                        want: want.clone(),
                    });
                }
            }
            if let (Some(case), Some((optimized, raw))) = (plan_case.as_ref(), plans.as_ref()) {
                let legs: [(&'static str, &bds_plan::Plan); 2] =
                    [("plan", optimized), ("planraw", raw)];
                for (name, plan) in legs {
                    let got = run_catching(|| pool.install(|| case.eval(plan)));
                    crate::coverage::record_leg(p, name, Some(geom));
                    outcomes.push((format!("{name}/{geom:?}/p{threads}"), got.clone()));
                    if got != want {
                        divs.push(Divergence {
                            eval: name,
                            geom,
                            threads,
                            got,
                            want: want.clone(),
                        });
                    }
                }
            }
        }
    }
    (outcomes, divs)
}

// ---------------------------------------------------------------------
// Shrinking.
// ---------------------------------------------------------------------

/// Greedily shrink a diverging pipeline to a local minimum: repeatedly
/// apply the first simplification (drop a stage, drop the fault, halve
/// or simplify the source, simplify the consumer) that still diverges,
/// until none does.
pub fn shrink(p: &Pipeline, pools: &mut Pools) -> Pipeline {
    let mut cur = p.clone();
    loop {
        let next = candidates(&cur)
            .into_iter()
            .find(|c| !check_pipeline(c, pools).is_empty());
        match next {
            Some(c) => cur = c,
            None => return cur,
        }
    }
}

fn candidates(p: &Pipeline) -> Vec<Pipeline> {
    let mut out = Vec::new();
    // Drop each stage (remapping the fault site past the hole).
    for i in 0..p.stages.len() {
        let mut q = p.clone();
        q.stages.remove(i);
        q.fault = remap_fault(p.fault, i);
        out.push(q);
    }
    // Drop the fault.
    if p.fault.is_some() {
        out.push(p.without_fault());
    }
    // Halve the source.
    if p.source.len() > 1 {
        let mut q = p.clone();
        q.source = halve_source(&p.source);
        out.push(q);
    }
    // Simplify the source shape to a plain iota of the same length.
    if !matches!(p.source, Source::Iota(_)) {
        let mut q = p.clone();
        q.source = Source::Iota(p.source.len());
        out.push(q);
    }
    // Simplify the consumer to a plain materialization (dropping a
    // consumer-sited fault along with its predicate).
    if p.consumer != Consumer::ToVec {
        let mut q = p.clone();
        q.consumer = Consumer::ToVec;
        if matches!(
            q.fault,
            Some(Fault {
                site: FaultSite::Consumer,
                ..
            })
        ) {
            q.fault = None;
        }
        out.push(q);
    }
    out
}

fn remap_fault(fault: Option<Fault>, removed: usize) -> Option<Fault> {
    match fault {
        Some(Fault {
            site: FaultSite::Stage(s),
            ..
        }) if s == removed => None,
        Some(Fault {
            site: FaultSite::Stage(s),
            poison,
            mode,
        }) if s > removed => Some(Fault {
            site: FaultSite::Stage(s - 1),
            poison,
            mode,
        }),
        other => other,
    }
}

fn halve_source(s: &Source) -> Source {
    match s {
        Source::Iota(n) => Source::Iota(n / 2),
        Source::TabAffine { n, a, b } => Source::TabAffine {
            n: n / 2,
            a: *a,
            b: *b,
        },
        Source::FromVec(v) => Source::FromVec(v[..v.len() / 2].to_vec()),
        Source::Flatten(parts) => {
            if parts.len() > 1 {
                Source::Flatten(parts[..parts.len() / 2].to_vec())
            } else {
                Source::Flatten(
                    parts
                        .iter()
                        .map(|inner| inner[..inner.len() / 2].to_vec())
                        .collect(),
                )
            }
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic replay.
// ---------------------------------------------------------------------

/// One recorded matrix pass: the labelled outcome of every
/// evaluator/configuration pair plus the (sorted) block-geometry
/// decision log.
pub struct CaseRun {
    /// `(label, outcome)` per matrix cell, in deterministic order.
    pub outcomes: Vec<(String, Outcome)>,
    /// Every divergence from the oracle.
    pub divergences: Vec<Divergence>,
    /// The sorted geometry decisions the pass solved.
    pub geometry: Vec<GeometryDecision>,
}

/// Run the full matrix for `p` with **fresh** seeded pools derived from
/// `seed`, recording every geometry decision. Two calls with the same
/// arguments produce identical [`CaseRun`]s — that is the determinism
/// contract [`verify_determinism`] checks.
pub fn run_case_recorded(p: &Pipeline, seed: u64) -> CaseRun {
    let mut pools = Pools::new(seed);
    let rec = record_geometry();
    let (outcomes, divergences) = collect_outcomes(p, &mut pools);
    let mut geometry = recorded_geometry();
    drop(rec);
    geometry.sort();
    CaseRun {
        outcomes,
        divergences,
        geometry,
    }
}

/// Replay `p` twice from fresh seeded pools and verify both passes
/// agree bit-for-bit on every outcome and on the recorded geometry.
pub fn verify_determinism(p: &Pipeline, seed: u64) -> Result<CaseRun, String> {
    let a = run_case_recorded(p, seed);
    let b = run_case_recorded(p, seed);
    if a.outcomes != b.outcomes {
        let diff = a
            .outcomes
            .iter()
            .zip(&b.outcomes)
            .find(|(x, y)| x != y)
            .map(|((l, x), (_, y))| format!("{l}: {} vs {}", x.brief(), y.brief()))
            .unwrap_or_else(|| "outcome vectors differ in length".into());
        return Err(format!("replay outcomes differ: {diff}"));
    }
    if a.geometry != b.geometry {
        return Err(format!(
            "replay geometry logs differ: {} vs {} decisions",
            a.geometry.len(),
            b.geometry.len(),
        ));
    }
    Ok(a)
}

/// Silence panic output for the duration of a fuzz run (injected
/// faults panic on purpose; the default hook would spam stderr), and
/// restore the previous hook on drop.
pub struct QuietPanics {
    prev: Option<PanicHook>,
}

/// The boxed hook type `std::panic::take_hook` hands back.
type PanicHook = Box<dyn Fn(&panic::PanicHookInfo<'_>) + Send + Sync>;

impl QuietPanics {
    /// Install the silent hook.
    pub fn install() -> QuietPanics {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        QuietPanics { prev: Some(prev) }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            panic::set_hook(prev);
        }
    }
}

/// Debug-assert the generator's fault legality invariants (documented
/// in `crate::gen`) hold for a pipeline before it is checked.
pub fn assert_fault_legal(p: &Pipeline) {
    let Some(fault) = p.fault else { return };
    match fault.site {
        FaultSite::Stage(i) => {
            // Cuts after the site are legal: the uniform fault
            // semantics (demand-narrowing RAD, force-at-cut BID — see
            // `crate::eval::demand_windows`) makes every lowering agree
            // on whether a downstream-cut poison fires.
            debug_assert!(matches!(
                p.stages.get(i),
                Some(Stage::Map(_) | Stage::Filter(_) | Stage::FilterOp(..))
            ));
        }
        FaultSite::Consumer => {
            debug_assert!(matches!(
                p.consumer,
                Consumer::Count(_) | Consumer::FilterCollect(_) | Consumer::TryFilterCollect(_)
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CombOp, MapOp};

    #[test]
    fn clean_pipeline_has_no_divergence() {
        let _lock = crate::test_sync::lock();
        let _cal = crate::calibration_pin();
        let p = crate::gen::gen_pipeline(12345);
        let mut pools = Pools::new(99);
        assert!(check_pipeline(&p, &mut pools).is_empty());
    }

    #[test]
    fn replay_is_bit_for_bit() {
        let _lock = crate::test_sync::lock();
        let _cal = crate::calibration_pin();
        let p = crate::gen::gen_pipeline(777);
        verify_determinism(&p, 777).expect("same seed must replay identically");
    }

    #[test]
    fn shrinker_reaches_a_local_minimum() {
        // A synthetic always-diverging check is hard to fake without a
        // real bug, so shrink a pipeline against a *stricter* predicate:
        // here, just verify candidates() remaps fault indices sanely.
        let p = Pipeline {
            source: Source::Iota(10),
            stages: vec![
                Stage::Map(MapOp::AddC(1)),
                Stage::Scan(CombOp::Add),
                Stage::Map(MapOp::AddC(2)),
            ],
            consumer: Consumer::ToVec,
            fault: Some(Fault {
                site: FaultSite::Stage(2),
                poison: 3,
                mode: crate::ast::FaultMode::Panic,
            }),
        };
        for c in candidates(&p) {
            assert_fault_legal(&c);
            if c.stages.len() == 2 {
                if let Some(Fault {
                    site: FaultSite::Stage(s),
                    ..
                }) = c.fault
                {
                    assert!(s < c.stages.len());
                }
            }
        }
    }
}
