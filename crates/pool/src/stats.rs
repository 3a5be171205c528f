//! Per-worker scheduler statistics.
//!
//! Every worker owns one cache-line-padded `WorkerCounters` slot in the
//! registry and bumps it with `Relaxed` atomics from its own thread only,
//! so the counters cost a handful of uncontended fetch-adds per *job*
//! (a job is a whole block of a delayed sequence — thousands of element
//! operations), cheap enough to stay on in release builds.
//!
//! Snapshots are taken with [`crate::Pool::stats`] (or
//! [`crate::pool_stats`] for the ambient pool) and are internally
//! consistent only in quiescence; while work is in flight they are a
//! best-effort racy read, which is all a profiler needs.
//!
//! Accounting invariant (tested in `tests/stats.rs`): every job executed
//! by a worker was found exactly one way, so
//! `local_pops + injector_pops + steals == jobs_executed`
//! whenever the pool is quiescent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Padded, per-worker atomic counters (one slot per worker thread).
///
/// The 128-byte alignment keeps two workers' slots off one cache line
/// (64-byte lines, plus spatial prefetch pairing on x86).
#[repr(align(128))]
#[derive(Default)]
pub(crate) struct WorkerCounters {
    /// Jobs this worker found and ran through the scheduler
    /// (`find_work` → `execute`). Inline-run `join` fast paths are not
    /// scheduler events and are not counted.
    pub(crate) jobs_executed: AtomicU64,
    /// Successful pops from the worker's own LIFO deque inside
    /// `find_work`.
    pub(crate) local_pops: AtomicU64,
    /// Jobs taken from the external-submission injector queue.
    pub(crate) injector_pops: AtomicU64,
    /// Successful steals from a peer's deque.
    pub(crate) steals: AtomicU64,
    /// Victim probes that came up empty (one per peer scanned without
    /// finding work; a full idle sweep over `P-1` peers adds `P-1`).
    pub(crate) failed_steals: AtomicU64,
    /// Times the worker gave up spinning and blocked on the sleep
    /// condvar.
    pub(crate) parks: AtomicU64,
    /// Parks that ended by notification (as opposed to the 1 ms timeout
    /// used as a lost-wakeup backstop).
    pub(crate) unparks: AtomicU64,
    /// Approximate nanoseconds spent blocked on the sleep condvar. This
    /// undercounts idleness (spinning in `find_work` is not included)
    /// but tracks the "worker had nothing to do" signal.
    pub(crate) idle_ns: AtomicU64,
    /// Main-loop iterations: bumped once per trip around the worker's
    /// top-level loop. A liveness signal — a worker whose heartbeat has
    /// stopped advancing is either wedged inside one job or dead.
    pub(crate) heartbeats: AtomicU64,
    /// Gauge, not a counter: 1 while the worker's top-level `main_loop`
    /// frame is inside `job.execute()`, 0 otherwise. Read by
    /// [`crate::Pool::live_workers`] to estimate how many workers are
    /// free for new work; deliberately excluded from [`snapshot`] — it
    /// is instantaneous state, not an accumulated statistic.
    ///
    /// [`snapshot`]: Self::snapshot
    pub(crate) busy: AtomicU64,
}

impl WorkerCounters {
    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> WorkerStats {
        WorkerStats {
            jobs_executed: self.jobs_executed.load(Ordering::Relaxed),
            local_pops: self.local_pops.load(Ordering::Relaxed),
            injector_pops: self.injector_pops.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            failed_steals: self.failed_steals.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            unparks: self.unparks.load(Ordering::Relaxed),
            idle_ns: self.idle_ns.load(Ordering::Relaxed),
            heartbeats: self.heartbeats.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of one worker's scheduler counters; see `WorkerCounters`
/// field docs for what each number means.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs found and executed through the scheduler.
    pub jobs_executed: u64,
    /// Successful pops from the worker's own deque.
    pub local_pops: u64,
    /// Jobs taken from the injector (external submissions).
    pub injector_pops: u64,
    /// Successful steals from peers.
    pub steals: u64,
    /// Empty victim probes while hunting for work.
    pub failed_steals: u64,
    /// Times the worker blocked on the sleep condvar.
    pub parks: u64,
    /// Parks ended by notification rather than timeout.
    pub unparks: u64,
    /// Approximate nanoseconds spent parked.
    pub idle_ns: u64,
    /// Main-loop iterations (liveness heartbeat).
    pub heartbeats: u64,
}

impl WorkerStats {
    /// Jobs acquired from any source; equals [`WorkerStats::jobs_executed`]
    /// in quiescence.
    pub fn jobs_found(&self) -> u64 {
        self.local_pops + self.injector_pops + self.steals
    }

    fn add(&mut self, other: &WorkerStats) {
        self.jobs_executed += other.jobs_executed;
        self.local_pops += other.local_pops;
        self.injector_pops += other.injector_pops;
        self.steals += other.steals;
        self.failed_steals += other.failed_steals;
        self.parks += other.parks;
        self.unparks += other.unparks;
        self.idle_ns += other.idle_ns;
        self.heartbeats += other.heartbeats;
    }

    fn saturating_sub(&self, other: &WorkerStats) -> WorkerStats {
        WorkerStats {
            jobs_executed: self.jobs_executed.saturating_sub(other.jobs_executed),
            local_pops: self.local_pops.saturating_sub(other.local_pops),
            injector_pops: self.injector_pops.saturating_sub(other.injector_pops),
            steals: self.steals.saturating_sub(other.steals),
            failed_steals: self.failed_steals.saturating_sub(other.failed_steals),
            parks: self.parks.saturating_sub(other.parks),
            unparks: self.unparks.saturating_sub(other.unparks),
            idle_ns: self.idle_ns.saturating_sub(other.idle_ns),
            heartbeats: self.heartbeats.saturating_sub(other.heartbeats),
        }
    }
}

/// Per-tenant submission counters, shared between the registry (which
/// snapshots them into [`PoolStats::tenants`]) and the [`TenantSlot`]
/// handles a multi-tenant front-end increments through. All fields are
/// relaxed atomics: monotone counters, exact in quiescence.
#[derive(Debug, Default)]
pub(crate) struct TenantCounters {
    name: String,
    submitted: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_deadline: AtomicU64,
    rejected_breaker: AtomicU64,
    panicked: AtomicU64,
    exceeded: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    block_retries: AtomicU64,
}

impl TenantCounters {
    pub(crate) fn new(name: &str) -> TenantCounters {
        TenantCounters {
            name: name.to_string(),
            ..TenantCounters::default()
        }
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn snapshot(&self) -> TenantStats {
        TenantStats {
            name: self.name.clone(),
            submitted: self.submitted.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            rejected_breaker: self.rejected_breaker.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            exceeded: self.exceeded.load(Ordering::Relaxed),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            block_retries: self.block_retries.load(Ordering::Relaxed),
        }
    }
}

/// A cloneable handle to one tenant's counter slot in a pool's
/// statistics (see [`crate::Pool::tenant_slot`]). A multi-tenant
/// front-end calls the `note_*` methods at its admission and completion
/// points; the counts surface in [`PoolStats::tenants`].
#[derive(Debug, Clone)]
pub struct TenantSlot(Arc<TenantCounters>);

impl TenantSlot {
    pub(crate) fn new(counters: Arc<TenantCounters>) -> TenantSlot {
        TenantSlot(counters)
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        self.0.name()
    }

    /// A request was submitted (counted before any admission decision).
    pub fn note_submitted(&self) {
        WorkerCounters::bump(&self.0.submitted);
    }

    /// A request passed admission and was queued.
    pub fn note_admitted(&self) {
        WorkerCounters::bump(&self.0.admitted);
    }

    /// A response was delivered (success, budget trip, or panic — every
    /// admitted request is counted here exactly once when it resolves).
    pub fn note_completed(&self) {
        WorkerCounters::bump(&self.0.completed);
    }

    /// A submission was refused because the tenant's queue was full.
    pub fn note_rejected_queue_full(&self) {
        WorkerCounters::bump(&self.0.rejected_queue_full);
    }

    /// A submission was refused because its deadline could not be met.
    pub fn note_rejected_deadline(&self) {
        WorkerCounters::bump(&self.0.rejected_deadline);
    }

    /// A submission was refused by the tenant's circuit breaker.
    pub fn note_rejected_breaker(&self) {
        WorkerCounters::bump(&self.0.rejected_breaker);
    }

    /// An admitted request's closure panicked (also counted in
    /// `completed`: the panic was delivered as a typed response).
    pub fn note_panicked(&self) {
        WorkerCounters::bump(&self.0.panicked);
    }

    /// An admitted request tripped its budget (also counted in
    /// `completed`).
    pub fn note_exceeded(&self) {
        WorkerCounters::bump(&self.0.exceeded);
    }

    /// A pipeline submission reused a cached execution plan for its
    /// shape (no optimizer run was needed).
    pub fn note_plan_hit(&self) {
        WorkerCounters::bump(&self.0.plan_hits);
    }

    /// A pipeline submission had no cached plan for its shape and paid
    /// for an optimizer run.
    pub fn note_plan_miss(&self) {
        WorkerCounters::bump(&self.0.plan_misses);
    }

    /// A request's run re-executed `n` blocks after transient faults
    /// (see [`crate::run_recovered_counting`]). Distinct from
    /// [`note_panicked`](Self::note_panicked): a recovered block never
    /// strikes the tenant's circuit breaker.
    pub fn note_block_retries(&self, n: u64) {
        if n > 0 {
            self.0.block_retries.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Snapshot of one tenant's counters; see [`TenantSlot`] for when each
/// is incremented.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant name (the key: stable across snapshots).
    pub name: String,
    /// Requests submitted, before any admission decision.
    pub submitted: u64,
    /// Requests that passed admission and were queued.
    pub admitted: u64,
    /// Responses delivered (one per admitted request, eventually).
    pub completed: u64,
    /// Submissions refused: tenant queue full.
    pub rejected_queue_full: u64,
    /// Submissions refused: deadline unmeetable at admission time.
    pub rejected_deadline: u64,
    /// Submissions refused: circuit breaker open.
    pub rejected_breaker: u64,
    /// Admitted requests whose closure panicked.
    pub panicked: u64,
    /// Admitted requests that tripped their budget.
    pub exceeded: u64,
    /// Pipeline submissions that reused a cached execution plan.
    pub plan_hits: u64,
    /// Pipeline submissions that paid for an optimizer run.
    pub plan_misses: u64,
    /// Blocks re-executed after transient faults across this tenant's
    /// requests. Distinct from `panicked`: recovered blocks never
    /// strike the breaker.
    pub block_retries: u64,
}

impl TenantStats {
    /// Fraction of plan lookups served from the cache, or `None` if the
    /// tenant never looked a plan up.
    pub fn plan_hit_rate(&self) -> Option<f64> {
        let total = self.plan_hits + self.plan_misses;
        (total > 0).then(|| self.plan_hits as f64 / total as f64)
    }

    /// Submissions refused for any reason.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full + self.rejected_deadline + self.rejected_breaker
    }

    fn saturating_sub(&self, other: &TenantStats) -> TenantStats {
        TenantStats {
            name: self.name.clone(),
            submitted: self.submitted.saturating_sub(other.submitted),
            admitted: self.admitted.saturating_sub(other.admitted),
            completed: self.completed.saturating_sub(other.completed),
            rejected_queue_full: self
                .rejected_queue_full
                .saturating_sub(other.rejected_queue_full),
            rejected_deadline: self
                .rejected_deadline
                .saturating_sub(other.rejected_deadline),
            rejected_breaker: self
                .rejected_breaker
                .saturating_sub(other.rejected_breaker),
            panicked: self.panicked.saturating_sub(other.panicked),
            exceeded: self.exceeded.saturating_sub(other.exceeded),
            plan_hits: self.plan_hits.saturating_sub(other.plan_hits),
            plan_misses: self.plan_misses.saturating_sub(other.plan_misses),
            block_retries: self.block_retries.saturating_sub(other.block_retries),
        }
    }
}

/// Snapshot of a whole pool's scheduler counters, one entry per worker,
/// plus pool-level resilience counters.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Per-worker snapshots, indexed by worker id.
    pub workers: Vec<WorkerStats>,
    /// Workers that crashed (unexpected unwind out of the main loop —
    /// e.g. via the crash-injection hook) and were respawned by the
    /// registry. Cumulative over the pool's lifetime.
    pub respawns: u64,
    /// Block-recovery counters (retries, quarantines, recovered runs).
    /// Process-wide, like the governance trip counters: recovery state
    /// lives on tokens, not pools, so the snapshot reports the
    /// process's cumulative [`crate::recovery_counts`].
    pub recovery: crate::recovery::RecoveryCounts,
    /// Per-tenant submission counters, one entry per slot created with
    /// [`crate::Pool::tenant_slot`], in creation order. Empty unless a
    /// multi-tenant front-end is using the pool.
    pub tenants: Vec<TenantStats>,
}

impl PoolStats {
    /// Number of workers in the snapshotted pool.
    pub fn num_threads(&self) -> usize {
        self.workers.len()
    }

    /// Sum of all workers' counters.
    pub fn total(&self) -> WorkerStats {
        let mut acc = WorkerStats::default();
        for w in &self.workers {
            acc.add(w);
        }
        acc
    }

    /// Per-field difference `self - baseline` (saturating), for measuring
    /// one region of interest between two snapshots of the same pool.
    pub fn since(&self, baseline: &PoolStats) -> PoolStats {
        let workers = self
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| match baseline.workers.get(i) {
                Some(b) => w.saturating_sub(b),
                None => *w,
            })
            .collect();
        let tenants = self
            .tenants
            .iter()
            .map(|t| match baseline.tenants.iter().find(|b| b.name == t.name) {
                Some(b) => t.saturating_sub(b),
                None => t.clone(),
            })
            .collect();
        PoolStats {
            workers,
            respawns: self.respawns.saturating_sub(baseline.respawns),
            recovery: self.recovery.saturating_sub(&baseline.recovery),
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_and_since_subtracts() {
        let w = |j, s| WorkerStats {
            jobs_executed: j,
            steals: s,
            ..Default::default()
        };
        let before = PoolStats {
            workers: vec![w(1, 0), w(2, 1)],
            ..Default::default()
        };
        let after = PoolStats {
            workers: vec![w(5, 2), w(7, 3)],
            respawns: 1,
            ..Default::default()
        };
        assert_eq!(after.total().jobs_executed, 12);
        let d = after.since(&before);
        assert_eq!(d.total().jobs_executed, 9);
        assert_eq!(d.total().steals, 4);
        assert_eq!(d.num_threads(), 2);
        assert_eq!(d.respawns, 1);
    }

    #[test]
    fn tenant_since_matches_by_name() {
        let t = |name: &str, submitted, completed| TenantStats {
            name: name.to_string(),
            submitted,
            completed,
            ..Default::default()
        };
        let before = PoolStats {
            tenants: vec![t("a", 10, 8)],
            ..Default::default()
        };
        let after = PoolStats {
            tenants: vec![t("a", 15, 12), t("b", 3, 3)],
            ..Default::default()
        };
        let d = after.since(&before);
        assert_eq!(d.tenants[0], t("a", 5, 4));
        // "b" appeared after the baseline: reported whole.
        assert_eq!(d.tenants[1], t("b", 3, 3));
    }

    #[test]
    fn tenant_rejected_sums_reasons() {
        let t = TenantStats {
            rejected_queue_full: 1,
            rejected_deadline: 2,
            rejected_breaker: 3,
            ..Default::default()
        };
        assert_eq!(t.rejected(), 6);
    }

    #[test]
    fn plan_counters_snapshot_and_rate() {
        let slot = TenantSlot::new(Arc::new(TenantCounters::new("t")));
        assert_eq!(slot.0.snapshot().plan_hit_rate(), None);
        slot.note_plan_miss();
        slot.note_plan_hit();
        slot.note_plan_hit();
        slot.note_plan_hit();
        let snap = slot.0.snapshot();
        assert_eq!(snap.plan_hits, 3);
        assert_eq!(snap.plan_misses, 1);
        assert_eq!(snap.plan_hit_rate(), Some(0.75));
        let diff = snap.saturating_sub(&snap);
        assert_eq!(diff.plan_hits, 0);
        assert_eq!(diff.plan_misses, 0);
    }

    #[test]
    fn jobs_found_sums_sources() {
        let s = WorkerStats {
            local_pops: 3,
            injector_pops: 2,
            steals: 5,
            ..Default::default()
        };
        assert_eq!(s.jobs_found(), 10);
    }
}
