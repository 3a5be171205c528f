//! Service integration: per-tenant plan caches over `bds-service`.
//!
//! The service layer deliberately knows nothing about plans (the
//! dependency points this way: `bds-plan` → `bds-service`). A
//! [`TenantPlanner`] pairs a [`PlanCache`] with the tenant's counter
//! slot in the pool-stats registry, so cache hits and misses surface in
//! [`bds_pool::PoolStats::tenants`] next to the admission ledger the
//! service already keeps — one snapshot shows both how a tenant's
//! requests were admitted and how often their pipeline shapes re-used a
//! plan.

use std::sync::Arc;

use bds_service::{Budget, Rejected, Service, Tenant, Ticket};

use crate::cache::PlanCache;
use crate::optimize::Plan;
use crate::pipe::{Consumed, ConsumerOp, Pipe};
use crate::shape::{ConsumerKind, PlanShape};

/// One tenant's plan cache, wired into the pool's statistics registry.
#[derive(Debug)]
pub struct TenantPlanner {
    cache: PlanCache,
    slot: bds_pool::TenantSlot,
    workers: usize,
}

impl TenantPlanner {
    /// A planner for tenant `name` on `svc`, holding at most `capacity`
    /// plans.
    pub fn new(svc: &Service, name: &str, capacity: usize) -> TenantPlanner {
        TenantPlanner {
            cache: PlanCache::new(capacity),
            slot: svc.tenant_slot(name),
            workers: svc.workers(),
        }
    }

    /// The plan for `shape`, counting the lookup against the tenant's
    /// `plan_hits`/`plan_misses` stats.
    pub fn plan(&self, shape: PlanShape) -> Arc<Plan> {
        let (plan, hit) = self.cache.plan(shape, self.workers);
        if hit {
            self.slot.note_plan_hit();
        } else {
            self.slot.note_plan_miss();
        }
        plan
    }

    /// The underlying cache (for occupancy and hit/miss introspection).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }
}

/// Plan `pipe` through `planner` and submit its reduction to `svc`.
///
/// Planning happens in the caller before admission — a rejected request
/// never runs pipeline code, but its plan stays cached for the retry.
pub fn submit_reduce<T>(
    svc: &Service,
    tenant: Tenant,
    planner: &TenantPlanner,
    budget: Budget,
    pipe: Pipe<T>,
    zero: T,
    combine: impl Fn(T, T) -> T + Send + Sync + 'static,
) -> Result<Ticket<T>, Rejected>
where
    T: Send + Sync + Clone + 'static,
{
    let plan = planner.plan(pipe.shape(ConsumerKind::Reduce));
    let consumer = ConsumerOp::Reduce(zero, Arc::new(combine), bds_cost::SIMPLE);
    svc.submit(tenant, budget, move || {
        match pipe.execute(&plan, &consumer) {
            Consumed::Scalar(x) => x,
            _ => unreachable!("reduce plan produced a non-scalar"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_service::{block_on, ServiceConfig};

    #[test]
    fn planned_submissions_surface_hits_in_pool_stats() {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let tenant = svc.tenant("planner");
        let planner = TenantPlanner::new(&svc, "planner", 8);
        let mut totals = Vec::new();
        for round in 0..6u64 {
            let pipe = Pipe::tabulate(1 << 12, move |i| i as u64 + round)
                .map(|x| x * 3)
                .filter(|&x| x % 2 == 0);
            let ticket = submit_reduce(
                &svc,
                tenant,
                &planner,
                Budget::unlimited(),
                pipe,
                0,
                |a, b| a + b,
            )
            .expect("admitted");
            totals.push(block_on(ticket).expect("completed"));
        }
        for (round, total) in totals.iter().enumerate() {
            let expect: u64 = (0..1u64 << 12)
                .map(|i| (i + round as u64) * 3)
                .filter(|x| x % 2 == 0)
                .sum();
            assert_eq!(*total, expect);
        }
        // Six same-shape submissions: one optimizer run, five reuses.
        assert_eq!(planner.cache().misses(), 1);
        assert_eq!(planner.cache().hits(), 5);
        let stats = svc.stats();
        let t = stats
            .tenants
            .iter()
            .find(|t| t.name == "planner")
            .expect("tenant registered");
        assert_eq!(t.plan_misses, 1);
        assert_eq!(t.plan_hits, 5);
        assert_eq!(t.plan_hit_rate(), Some(5.0 / 6.0));
    }

    #[test]
    fn different_consumers_are_different_shapes() {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let planner = TenantPlanner::new(&svc, "shapes", 8);
        let pipe = Pipe::tabulate(256, |i| i as u64).map(|x| x + 1);
        let collect = planner.plan(pipe.shape(ConsumerKind::Collect));
        let count = planner.plan(pipe.shape(ConsumerKind::Count));
        assert_ne!(collect.shape, count.shape);
        assert_eq!(planner.cache().misses(), 2);
        let same = planner.plan(pipe.shape(ConsumerKind::Count));
        assert!(Arc::ptr_eq(&count, &same), "one plan per shape");
        assert_eq!(planner.cache().hits(), 1);
    }
}
