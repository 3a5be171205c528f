//! Service differential checks: a pipeline served through
//! [`bds_service::Service`] must deliver exactly the ungoverned value
//! or a clean typed refusal — never a partial, lost, or duplicated
//! response — even while workers are being crashed underneath it.
//!
//! For a (fault-free) pipeline, the sequential oracle is computed
//! inline, then the pipeline's `delay` evaluation is submitted to a
//! fresh two-worker service across two tenants under three budgets:
//!
//! 1. **Unlimited** — the ticket must resolve to exactly the oracle's
//!    outcome.
//! 2. **Random short deadline** — either a fail-fast
//!    [`Rejected::Deadline`] at submit, a typed
//!    `Err(ServiceError::Exceeded(Deadline))` through the ticket, or
//!    the full oracle value (the complete-result-wins-the-race rule).
//! 3. **Random tiny memory budget** — the full value or
//!    `Err(ServiceError::Exceeded(Memory))`; memory budgets are not
//!    admission-checkable, so a rejection here is a violation.
//!
//! A worker crash is injected between submissions, so the whole batch
//! runs against a pool that is killing and respawning workers; the
//! delivery contract must hold anyway. Every accepted ticket is waited
//! on — a lost response would hang the check, a duplicated one panics
//! inside `bds-service` (its exactly-once tripwire), and a partial one
//! diverges from the oracle.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use bds_service::{
    Budget, Exceeded, Rejected, Service, ServiceConfig, ServiceError, Ticket,
};

use crate::ast::{Outcome, Pipeline};
use crate::eval;
use crate::runner::run_catching;

/// One violated service-delivery invariant.
#[derive(Debug, Clone)]
pub struct ServiceViolation {
    /// Which tenant's request misbehaved.
    pub tenant: &'static str,
    /// Which budget leg it was under.
    pub leg: &'static str,
    /// What went wrong.
    pub detail: String,
}

impl ServiceViolation {
    /// One-line description for reports.
    pub fn describe(&self) -> String {
        format!("tenant {} under {}: {}", self.tenant, self.leg, self.detail)
    }
}

const TENANTS: [&str; 2] = ["alpha", "beta"];
const LEGS: [&str; 3] = ["unlimited", "short-deadline", "tiny-memory"];

/// Check the service delivery invariants for `p` (with any injected
/// fault stripped — the classification below assumes the pipeline
/// itself neither panics nor trips except through its budget). Returns
/// every violation found.
pub fn check_service(p: &Pipeline, subseed: u64) -> Vec<ServiceViolation> {
    let p = p.without_fault();
    let mut rng = SmallRng::seed_from_u64(subseed ^ 0x0073_6572_7669_6365); // "service"
    let short_deadline = Duration::from_micros(rng.gen_range(50..2_000));
    let mem_budget = rng.gen_range(1..=4096usize);

    let mut violations = Vec::new();
    let oracle = run_catching(|| eval::eval_oracle(&p));
    if matches!(oracle, Outcome::Panicked { .. }) {
        violations.push(ServiceViolation {
            tenant: "-",
            leg: "oracle",
            detail: "fault-free pipeline panicked in the oracle".into(),
        });
        return violations;
    }

    // A small service under churn: two workers, crashes injected
    // between submissions. The breaker threshold is effectively
    // disabled — the pipeline is fault-free, so any panic is a bug we
    // want surfaced as a Panicked response, not masked by CircuitOpen.
    let svc = Service::new(ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        max_concurrent: 2,
        // Under the pinned check calibration (ns_per_work = 1.0) the cold
        // deadline estimate is ~4 µs per request ahead; short-deadline
        // legs may be refused at admission, which the matcher below
        // tolerates.
        breaker: bds_service::BreakerConfig {
            trip_after: u32::MAX,
            ..Default::default()
        },
    });

    // (tenant, leg, ticket) for every accepted submission.
    let mut accepted: Vec<(&'static str, &'static str, Ticket<Outcome>)> = Vec::new();
    for (i, tenant_name) in TENANTS.iter().enumerate() {
        let tenant = svc.tenant(tenant_name);
        for (j, leg) in LEGS.iter().enumerate() {
            let budget = match *leg {
                "unlimited" => Budget::unlimited(),
                "short-deadline" => Budget::unlimited().with_deadline(short_deadline),
                _ => Budget::unlimited().with_mem_bytes(mem_budget),
            };
            let pipeline = p.clone();
            // Chaos between every submission: kill alternating workers
            // while requests are queued and in flight.
            svc.inject_worker_crash((i * LEGS.len() + j) % 2);
            match svc.submit(tenant, budget, move || eval::eval_delay(&pipeline)) {
                Ok(ticket) => accepted.push((tenant_name, leg, ticket)),
                Err(Rejected::Deadline) if *leg == "short-deadline" => {
                    // Fail-fast admission is a legitimate refusal for a
                    // deadline the queue estimate says is unmeetable.
                }
                Err(rejected) => violations.push(ServiceViolation {
                    tenant: tenant_name,
                    leg,
                    detail: format!("unexpected rejection: {rejected:?}"),
                }),
            }
        }
    }

    for (tenant, leg, ticket) in accepted {
        let response = ticket.wait();
        match (leg, response) {
            // Any leg that completes must deliver exactly the oracle's
            // value — a partial or reordered result is the one thing a
            // served pipeline may never produce.
            (_, Ok(value)) => {
                if value != oracle {
                    violations.push(ServiceViolation {
                        tenant,
                        leg,
                        detail: format!(
                            "served value diverged: got {}, want {}",
                            value.brief(),
                            oracle.brief(),
                        ),
                    });
                }
            }
            ("unlimited", Err(e)) => violations.push(ServiceViolation {
                tenant,
                leg,
                detail: format!("unlimited budget errored: {e}"),
            }),
            ("short-deadline", Err(ServiceError::Exceeded(Exceeded::Deadline))) => {}
            ("tiny-memory", Err(ServiceError::Exceeded(Exceeded::Memory))) => {}
            (_, Err(e)) => violations.push(ServiceViolation {
                tenant,
                leg,
                detail: format!("wrong error variant: {e}"),
            }),
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_invariants_hold_over_a_seed_sweep() {
        let _lock = crate::test_sync::lock();
        let _cal = crate::calibration_pin();
        let _quiet = crate::runner::QuietPanics::install();
        for k in 0..16u64 {
            let subseed = bds_bench::seed::subseed(11, k);
            let p = crate::gen::gen_pipeline(subseed);
            let violations = check_service(&p, subseed);
            assert!(
                violations.is_empty(),
                "seed {subseed}: {:?}",
                violations
                    .iter()
                    .map(ServiceViolation::describe)
                    .collect::<Vec<_>>(),
            );
        }
    }
}
