//! Retry differential checks: block-granular fault recovery must be
//! *invisible* in values and *typed* in failures.
//!
//! For a pipeline carrying a panic-mode injected fault, each retried
//! lowering (`delay`, `dynseq` — the two that run on `bds-pool` and
//! therefore have block-granular recovery) is evaluated under every
//! geometry leg in two modes:
//!
//! 1. **Transient** — the fault's fire budget is capped at one (see
//!    [`FaultFireLimit`]): the poisoned closure panics on its first
//!    poison hit and heals. Under `RetryPolicy::default()` the faulted
//!    block is re-executed and the run must complete with a value
//!    **bit-identical** to the same lowering's unfaulted run, with at
//!    least one `block_retries` tick and zero quarantines — recovery
//!    salvages the job without re-running the pipeline.
//! 2. **Deterministic** — the fault always fires. The faulted block
//!    fails every attempt, so the run must surface exactly one typed
//!    [`BlockFailed`](bds_pool::BlockFailed) with
//!    `attempts == max_attempts` — never an escaped panic, never an
//!    `Ok` (the generator guarantees the poison is demanded, so the
//!    fault cannot silently miss).
//!
//! Both modes reuse the same poisoned closures as the plain
//! differential legs — the only knob is the process-wide fire budget —
//! so what is checked is precisely the recovery layer's contract, not
//! a parallel fault model. Disable with `--retry off`.

use std::sync::atomic::{AtomicBool, Ordering};

use bds_pool::{recovery_counts, run_recovered, RetryPolicy};

use crate::ast::{FaultFireLimit, FaultMode, Outcome, Pipeline};
use crate::coverage;
use crate::eval;
use crate::runner::{apply_geom, run_catching, Geom, Pools};

/// Whether the periodic retry legs run (the `--retry on|off` flag).
static RETRY_LEGS: AtomicBool = AtomicBool::new(true);

/// Turn the retry legs on or off for the process.
pub fn set_retry_legs(on: bool) {
    RETRY_LEGS.store(on, Ordering::SeqCst);
}

/// Are the retry legs enabled?
pub fn retry_legs_enabled() -> bool {
    RETRY_LEGS.load(Ordering::SeqCst)
}

/// The retried lowerings: only evaluators that execute on `bds-pool`
/// have block-granular recovery (the `array`/`rad` baselines have no
/// block structure to retry).
#[allow(clippy::type_complexity)]
const RETRY_EVALS: [(&str, fn(&Pipeline) -> Outcome); 2] = [
    ("delay", eval::eval_delay),
    ("dynseq", eval::eval_dynseq),
];

/// Retry budget for the deterministic leg — small enough to quarantine
/// fast, larger than one so the attempts accounting is observable.
const MAX_ATTEMPTS: usize = 3;

/// One violated recovery invariant.
#[derive(Debug, Clone)]
pub struct RetryViolation {
    /// Which lowering misbehaved.
    pub eval: &'static str,
    /// Under which geometry leg.
    pub geom: Geom,
    /// Which fault mode it was under (`transient` / `deterministic`).
    pub leg: &'static str,
    /// What went wrong.
    pub detail: String,
}

impl RetryViolation {
    /// One-line description for reports.
    pub fn describe(&self) -> String {
        format!(
            "{} under {:?}, {} fault: {}",
            self.eval, self.geom, self.leg, self.detail
        )
    }
}

/// Check the recovery invariants for `p`. Pipelines without a
/// panic-mode fault are skipped (there is nothing to retry: `Err`-mode
/// faults are return values, which recovery deliberately never
/// absorbs). Returns every violation found.
pub fn check_retry(p: &Pipeline, pools: &mut Pools) -> Vec<RetryViolation> {
    if p.fault.map(|f| f.mode) != Some(FaultMode::Panic) {
        return Vec::new();
    }
    let clean = p.without_fault();
    let mut violations = Vec::new();
    let pool = pools.get(2);
    for (name, f) in RETRY_EVALS {
        for geom in Geom::all() {
            let _g = apply_geom(geom);
            let want = run_catching(|| pool.install(|| f(&clean)));
            if matches!(want, Outcome::Panicked { .. }) {
                violations.push(RetryViolation {
                    eval: name,
                    geom,
                    leg: "unfaulted",
                    detail: "fault-free pipeline panicked".into(),
                });
                continue;
            }

            // Transient: one fire, then the fault heals. The block
            // retry must absorb it without a value change.
            {
                let _limit = FaultFireLimit::set(1);
                let before = recovery_counts();
                let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    pool.install(|| run_recovered(RetryPolicy::default(), || f(p)))
                }));
                let d = recovery_counts().saturating_sub(&before);
                match got {
                    Err(_) => violations.push(RetryViolation {
                        eval: name,
                        geom,
                        leg: "transient",
                        detail: "panic escaped run_recovered".into(),
                    }),
                    Ok(Err(bf)) => violations.push(RetryViolation {
                        eval: name,
                        geom,
                        leg: "transient",
                        detail: format!("one-shot fault was quarantined: {bf}"),
                    }),
                    Ok(Ok(value)) if value != want => violations.push(RetryViolation {
                        eval: name,
                        geom,
                        leg: "transient",
                        detail: format!(
                            "recovered value diverged: got {}, want {}",
                            value.brief(),
                            want.brief(),
                        ),
                    }),
                    Ok(Ok(_)) => {
                        if d.block_retries == 0 {
                            // The generator guarantees the poison is
                            // demanded, so the fault fired — a clean
                            // completion without a retry tick means the
                            // fire escaped block recovery somewhere.
                            violations.push(RetryViolation {
                                eval: name,
                                geom,
                                leg: "transient",
                                detail: "completed without a block_retries tick".into(),
                            });
                        } else {
                            coverage::record_retry_cell("transient:recovered", name, geom);
                        }
                    }
                }
                if d.quarantines != 0 {
                    violations.push(RetryViolation {
                        eval: name,
                        geom,
                        leg: "transient",
                        detail: format!("{} quarantine(s) for a one-shot fault", d.quarantines),
                    });
                }
            }

            // Deterministic: the fault fires on every attempt, so the
            // faulted block must be quarantined as one typed error.
            {
                let before = recovery_counts();
                let policy = RetryPolicy::default().with_max_attempts(MAX_ATTEMPTS);
                let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    pool.install(|| run_recovered(policy, || f(p)))
                }));
                let d = recovery_counts().saturating_sub(&before);
                match got {
                    Err(_) => violations.push(RetryViolation {
                        eval: name,
                        geom,
                        leg: "deterministic",
                        detail: "panic escaped run_recovered".into(),
                    }),
                    Ok(Ok(value)) => violations.push(RetryViolation {
                        eval: name,
                        geom,
                        leg: "deterministic",
                        detail: format!(
                            "always-firing fault completed with {}",
                            value.brief()
                        ),
                    }),
                    Ok(Err(bf)) if bf.attempts != MAX_ATTEMPTS => {
                        violations.push(RetryViolation {
                            eval: name,
                            geom,
                            leg: "deterministic",
                            detail: format!(
                                "quarantined after {} attempts, expected {MAX_ATTEMPTS}",
                                bf.attempts
                            ),
                        });
                    }
                    Ok(Err(_)) => {
                        if d.quarantines == 0 {
                            violations.push(RetryViolation {
                                eval: name,
                                geom,
                                leg: "deterministic",
                                detail: "BlockFailed surfaced without a quarantine tick".into(),
                            });
                        } else {
                            coverage::record_retry_cell("deterministic:quarantined", name, geom);
                        }
                    }
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::QuietPanics;

    #[test]
    fn retry_invariants_hold_over_a_seed_sweep() {
        let _lock = crate::test_sync::lock();
        let _cal = crate::calibration_pin();
        let _quiet = QuietPanics::install();
        let mut pools = Pools::new(13);
        let mut faulted = 0;
        let mut k = 0u64;
        // Sweep until a handful of panic-faulted pipelines have been
        // through both legs (the generator faults ~1/3 of pipelines).
        while faulted < 6 {
            let subseed = bds_bench::seed::subseed(13, k);
            k += 1;
            let p = crate::gen::gen_pipeline(subseed);
            if p.fault.map(|f| f.mode) != Some(FaultMode::Panic) {
                continue;
            }
            faulted += 1;
            let violations = check_retry(&p, &mut pools);
            assert!(
                violations.is_empty(),
                "seed {subseed}: {:?}",
                violations
                    .iter()
                    .map(RetryViolation::describe)
                    .collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn unfaulted_and_err_faulted_pipelines_are_skipped() {
        let _lock = crate::test_sync::lock();
        let mut pools = Pools::new(17);
        let p = Pipeline {
            source: crate::ast::Source::Iota(64),
            stages: vec![],
            consumer: crate::ast::Consumer::ToVec,
            fault: None,
        };
        assert!(check_retry(&p, &mut pools).is_empty());
    }
}
