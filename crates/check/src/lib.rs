//! # bds-check — differential correctness harness
//!
//! Seeded random-pipeline fuzzing across the three implementations this
//! repo compares (`array`, `rad`, the static block-delayed `bds-seq`)
//! plus the dynamic [`bds_seq::dynseq::DSeq`] union, against a
//! straight-line sequential oracle — under a matrix of block-geometry
//! policies and pool widths, with optional fault injection and
//! bit-for-bit deterministic replay.
//!
//! ## Structure
//!
//! - [`ast`]: the pipeline AST (sources, stages, consumers, faults) and
//!   the [`ast::Outcome`] type evaluations are compared on.
//! - [`gen`]: the seeded generator — one subseed, one pipeline.
//! - [`eval`]: five lowerings of one AST, sharing one closure-builder
//!   layer so injected faults behave identically everywhere.
//! - [`plan`]: a sixth and seventh lowering through the `bds-plan`
//!   optimizer — the optimized plan (drawn from a shared shape-keyed
//!   cache, so pipelines constantly *share* plans) and the identity
//!   plan pinned to parallel mode on the same executor. Disable with
//!   `--plan off`.
//! - [`runner`]: the configuration matrix, divergence checker, greedy
//!   shrinker, and deterministic replay/recording.
//!
//! ## Replaying a failure
//!
//! Every failing case prints `BDS_CHECK_SEED=<subseed>`. Re-run just
//! that case — same pipeline, same seeded schedule, same geometry —
//! with:
//!
//! ```text
//! cargo run -p bds-check -- --replay <subseed>
//! ```
//!
//! or set the environment variable `BDS_CHECK_SEED=<subseed>` and rerun
//! the harness; it fuzzes with that master seed.

#![warn(missing_docs)]

pub mod ast;
pub mod coverage;
pub mod eval;
pub mod gen;
pub mod governed;
pub mod plan;
pub mod retry;
pub mod runner;
pub mod service;
pub mod simd;

use ast::Pipeline;
use runner::{check_pipeline, shrink, verify_determinism, Divergence, Pools, QuietPanics};

/// Pin the cost-model calibration for the duration of a run so
/// `Adaptive` geometry decisions are pure functions of (length,
/// cost-annotation, worker count) — never of measured timings. Hold the
/// returned guard for the whole run.
pub fn calibration_pin() -> bds_cost::CalibrationOverride {
    bds_cost::override_calibration(bds_cost::Calibration {
        ns_per_work: 1.0,
        block_overhead_ns: 100.0,
    })
}

/// One failing case of a fuzz run.
pub struct FailureReport {
    /// The subseed that generated the pipeline (replay with
    /// `--replay <subseed>`).
    pub subseed: u64,
    /// The generated pipeline.
    pub pipeline: Pipeline,
    /// Its greedily shrunk local minimum (`None` when the failure was a
    /// determinism violation rather than a divergence).
    pub shrunk: Option<Pipeline>,
    /// Every diverging matrix cell of the original pipeline.
    pub divergences: Vec<Divergence>,
    /// Set when the periodic replay self-check found two runs of the
    /// same subseed disagreeing.
    pub determinism_error: Option<String>,
    /// Violations of the resource-governance invariants found by the
    /// periodic governed sweep (see [`governed::check_governed`]).
    pub governed_violations: Vec<String>,
    /// Violations of the service delivery invariants found by the
    /// periodic served sweep (see [`service::check_service`]).
    pub service_violations: Vec<String>,
    /// Divergences between the forced-scalar oracle and the CPU's SIMD
    /// dispatch levels found by the periodic SIMD sweep (see
    /// [`simd::check_simd`]).
    pub simd_violations: Vec<String>,
    /// Violations of the block-recovery invariants found by the
    /// periodic retry sweep (see [`retry::check_retry`]).
    pub retry_violations: Vec<String>,
}

/// The summary of a fuzz run.
pub struct FuzzReport {
    /// The master seed the run derived its subseeds from.
    pub master: u64,
    /// How many pipelines were generated and checked.
    pub checked: usize,
    /// Every failing case, in discovery order.
    pub failures: Vec<FailureReport>,
}

impl FuzzReport {
    /// True when every pipeline agreed everywhere and every sampled
    /// replay was deterministic.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// How often the fuzz loop replays a case twice to verify determinism
/// (in addition to checking correctness of every case).
const SELF_CHECK_PERIOD: usize = 128;

/// How often the fuzz loop additionally runs the case (fault-free)
/// under expired/short deadlines and tiny memory budgets, asserting
/// each governed lowering either refuses with the matching
/// [`bds_pool::Exceeded`] variant or completes with the full value.
const GOVERNED_CHECK_PERIOD: usize = 16;

/// How often the fuzz loop additionally serves the case (fault-free)
/// through a `bds_service::Service` across two tenants and a budget
/// mix, with worker crashes injected between submissions, asserting
/// every accepted ticket resolves to exactly the oracle's value or a
/// clean typed refusal (see [`service::check_service`]).
const SERVICE_CHECK_PERIOD: usize = 32;

/// How often the fuzz loop additionally runs the SIMD differential
/// sweep: the case's subseed feeds [`simd::check_simd`], which compares
/// every `bds_seq::simd` driver the workloads run at forced scalar
/// against a plain-iterator oracle and against every dispatch level the
/// CPU supports, bit-for-bit.
const SIMD_CHECK_PERIOD: usize = 64;

/// How often the fuzz loop additionally runs the case's panic-mode
/// fault under a `RetryPolicy`, both as a one-shot transient fault
/// (must recover to the unfaulted value) and as an always-firing
/// deterministic fault (must quarantine as one typed `BlockFailed`) —
/// see [`retry::check_retry`]. Cases without a panic-mode fault skip
/// the leg.
const RETRY_CHECK_PERIOD: usize = 16;

/// Fuzz `count` pipelines derived from `master`, checking each against
/// the oracle under the full configuration matrix. Failing cases are
/// shrunk and reported on stderr (with their `BDS_CHECK_SEED`) as they
/// are found; progress goes to stderr every 1000 pipelines when
/// `verbose`.
pub fn run_fuzz(master: u64, count: usize, verbose: bool) -> FuzzReport {
    let _cal = calibration_pin();
    let _quiet = QuietPanics::install();
    coverage::reset();
    let mut pools = Pools::new(master);
    let mut failures = Vec::new();
    for k in 0..count {
        let subseed = bds_bench::seed::subseed(master, k as u64);
        let pipeline = gen::gen_pipeline(subseed);
        runner::assert_fault_legal(&pipeline);
        let divergences = check_pipeline(&pipeline, &mut pools);
        if !divergences.is_empty() {
            let shrunk = shrink(&pipeline, &mut pools);
            report_failure(subseed, &pipeline, Some(&shrunk), &divergences, None, &[], &[], &[], &[]);
            failures.push(FailureReport {
                subseed,
                pipeline,
                shrunk: Some(shrunk),
                divergences,
                determinism_error: None,
                governed_violations: Vec::new(),
                service_violations: Vec::new(),
                simd_violations: Vec::new(),
                retry_violations: Vec::new(),
            });
        } else if k % SELF_CHECK_PERIOD == SELF_CHECK_PERIOD / 2 {
            if let Err(e) = verify_determinism(&pipeline, subseed) {
                report_failure(subseed, &pipeline, None, &[], Some(&e), &[], &[], &[], &[]);
                failures.push(FailureReport {
                    subseed,
                    pipeline,
                    shrunk: None,
                    divergences: Vec::new(),
                    determinism_error: Some(e),
                    governed_violations: Vec::new(),
                    service_violations: Vec::new(),
                    simd_violations: Vec::new(),
                    retry_violations: Vec::new(),
                });
            }
        } else if k % SERVICE_CHECK_PERIOD == SERVICE_CHECK_PERIOD * 3 / 4 {
            let violations = service::check_service(&pipeline, subseed);
            if !violations.is_empty() {
                let described: Vec<String> = violations
                    .iter()
                    .map(service::ServiceViolation::describe)
                    .collect();
                report_failure(subseed, &pipeline, None, &[], None, &[], &described, &[], &[]);
                failures.push(FailureReport {
                    subseed,
                    pipeline,
                    shrunk: None,
                    divergences: Vec::new(),
                    determinism_error: None,
                    governed_violations: Vec::new(),
                    service_violations: described,
                    simd_violations: Vec::new(),
                    retry_violations: Vec::new(),
                });
            }
        } else if k % GOVERNED_CHECK_PERIOD == GOVERNED_CHECK_PERIOD / 2 {
            let violations = governed::check_governed(&pipeline, &mut pools, subseed);
            if !violations.is_empty() {
                let described: Vec<String> = violations
                    .iter()
                    .map(governed::GovernViolation::describe)
                    .collect();
                report_failure(subseed, &pipeline, None, &[], None, &described, &[], &[], &[]);
                failures.push(FailureReport {
                    subseed,
                    pipeline,
                    shrunk: None,
                    divergences: Vec::new(),
                    determinism_error: None,
                    governed_violations: described,
                    service_violations: Vec::new(),
                    simd_violations: Vec::new(),
                    retry_violations: Vec::new(),
                });
            }
        } else if k % SIMD_CHECK_PERIOD == SIMD_CHECK_PERIOD * 3 / 4 {
            let pool = bds_pool::Pool::new_seeded(3, subseed);
            let violations = pool.install(|| simd::check_simd(subseed));
            if !violations.is_empty() {
                report_failure(subseed, &pipeline, None, &[], None, &[], &[], &violations, &[]);
                failures.push(FailureReport {
                    subseed,
                    pipeline,
                    shrunk: None,
                    divergences: Vec::new(),
                    determinism_error: None,
                    governed_violations: Vec::new(),
                    service_violations: Vec::new(),
                    simd_violations: violations,
                    retry_violations: Vec::new(),
                });
            }
        } else if retry::retry_legs_enabled()
            && k % RETRY_CHECK_PERIOD == RETRY_CHECK_PERIOD / 4
        {
            let violations = retry::check_retry(&pipeline, &mut pools);
            if !violations.is_empty() {
                let described: Vec<String> = violations
                    .iter()
                    .map(retry::RetryViolation::describe)
                    .collect();
                report_failure(subseed, &pipeline, None, &[], None, &[], &[], &[], &described);
                failures.push(FailureReport {
                    subseed,
                    pipeline,
                    shrunk: None,
                    divergences: Vec::new(),
                    determinism_error: None,
                    governed_violations: Vec::new(),
                    service_violations: Vec::new(),
                    simd_violations: Vec::new(),
                    retry_violations: described,
                });
            }
        }
        if verbose && (k + 1) % 1000 == 0 {
            eprintln!(
                "bds-check: {}/{} pipelines checked, {} failure(s)",
                k + 1,
                count,
                failures.len(),
            );
        }
    }
    FuzzReport {
        master,
        checked: count,
        failures,
    }
}

#[allow(clippy::too_many_arguments)]
fn report_failure(
    subseed: u64,
    pipeline: &Pipeline,
    shrunk: Option<&Pipeline>,
    divergences: &[Divergence],
    determinism_error: Option<&str>,
    governed_violations: &[String],
    service_violations: &[String],
    simd_violations: &[String],
    retry_violations: &[String],
) {
    eprintln!("bds-check: FAILURE  BDS_CHECK_SEED={subseed}");
    eprintln!("  pipeline: {pipeline:?}");
    if let Some(e) = determinism_error {
        eprintln!("  determinism: {e}");
    }
    for d in divergences {
        eprintln!("  diverged: {}", d.describe());
    }
    for v in governed_violations {
        eprintln!("  governed: {v}");
    }
    for v in service_violations {
        eprintln!("  served: {v}");
    }
    for v in simd_violations {
        eprintln!("  simd: {v}");
    }
    for v in retry_violations {
        eprintln!("  retry: {v}");
    }
    if let Some(s) = shrunk {
        eprintln!("  shrunk:   {s:?}");
    }
    eprintln!("  replay:   cargo run -p bds-check -- --replay {subseed}");
}

/// Replay one subseed: regenerate its pipeline, run the full matrix
/// twice from fresh seeded pools with geometry recording, verify the
/// two passes agree bit-for-bit, and report any divergence from the
/// oracle. Returns `true` when the case is clean (deterministic and
/// divergence-free).
pub fn replay(subseed: u64) -> bool {
    let _cal = calibration_pin();
    let _quiet = QuietPanics::install();
    let pipeline = gen::gen_pipeline(subseed);
    eprintln!("bds-check: replaying BDS_CHECK_SEED={subseed}");
    eprintln!("  pipeline: {pipeline:?}");
    match verify_determinism(&pipeline, subseed) {
        Err(e) => {
            eprintln!("  NOT deterministic: {e}");
            false
        }
        Ok(run) => {
            eprintln!(
                "  deterministic: {} matrix cells, {} geometry decisions, both passes identical",
                run.outcomes.len(),
                run.geometry.len(),
            );
            if run.divergences.is_empty() {
                eprintln!("  no divergence from the oracle");
                true
            } else {
                for d in &run.divergences {
                    eprintln!("  diverged: {}", d.describe());
                }
                false
            }
        }
    }
}

/// Serializes tests that touch process-global state (policy guards,
/// geometry recording, panic hooks) within this crate's test binary.
#[cfg(test)]
pub(crate) mod test_sync {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();

    pub(crate) fn lock() -> MutexGuard<'static, ()> {
        LOCK.get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_fuzz_run_is_clean() {
        let _lock = test_sync::lock();
        let report = run_fuzz(42, 40, false);
        assert_eq!(report.checked, 40);
        assert!(
            report.clean(),
            "divergences: {:?}",
            report
                .failures
                .iter()
                .flat_map(|f| f.divergences.iter().map(|d| d.describe()))
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn replay_of_a_clean_seed_is_clean() {
        let _lock = test_sync::lock();
        assert!(replay(bds_bench::seed::subseed(42, 3)));
    }
}
