//! The service proper: admission, per-tenant queues, and deficit
//! round-robin dispatch on request completion.
//!
//! ## Request lifecycle
//!
//! ```text
//! submit ──► admission ──► tenant queue ──► DRR pick ──► pool job ──► one typed response
//!              │                               ▲            │         per ticket: Ok(value),
//!              ├─ Rejected::QueueFull          └────────────┘         Err(Exceeded),
//!              ├─ Rejected::Deadline        the finishing job         Err(Panicked),
//!              └─ Rejected::CircuitOpen     picks the next; submit    Err(BlockFailed)
//!                                           picks if a slot is free
//! ```
//!
//! No thread watches the queues. A request starts when one of the
//! `max_concurrent` dispatch slots is free: `submit` starts it at once
//! if one is, and otherwise a finishing request, in its own pool job,
//! hands its slot to the next request the DRR picker chooses.
//! Both decisions are made under the state lock, so a queued request
//! always has a running predecessor that will start it.
//!
//! Every request the service *accepts* (returns `Ok(Ticket)`) resolves
//! to exactly one [`Response`](crate::Response) — on success, budget
//! trip, panic, worker crash-and-respawn, or service drop (the pool's
//! teardown runs every request still queued). Nothing is lost, nothing
//! is delivered twice, and a refusal is always a typed [`Rejected`] at
//! submit time.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bds_pool::{
    run_governed, run_recovered_counting, Budget, Pool, PoolStats, RetryPolicy, Spawner, TenantSlot,
};
use parking_lot::{Mutex, MutexGuard};

use crate::breaker::{Breaker, BreakerConfig};
use crate::ticket::{Shared, ServiceError, Ticket};

/// Why a submission was refused (fail-fast, before any work ran).
///
/// The counterpart of [`ServiceError`]: `Rejected` means *no ticket was
/// issued* — the request never consumed pool time and the caller may
/// retry. `QueueFull` and `CircuitOpen` are transient; `Deadline` is
/// not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The tenant's bounded queue is at capacity — backpressure,
    /// instead of unbounded buffering.
    QueueFull,
    /// The request's deadline cannot be met given the current queue
    /// depth and the observed service time; rejecting now is cheaper
    /// than running work guaranteed to trip
    /// [`Exceeded::Deadline`](bds_pool::Exceeded::Deadline).
    Deadline,
    /// The tenant's circuit breaker is open after repeated panics;
    /// retry after the hinted cool-down.
    CircuitOpen {
        /// Time until the breaker half-opens and admits a probe.
        retry_after: Duration,
    },
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull => write!(f, "tenant queue full"),
            Rejected::Deadline => write!(f, "deadline unmeetable at admission"),
            Rejected::CircuitOpen { retry_after } => {
                write!(f, "circuit breaker open (retry after {retry_after:?})")
            }
        }
    }
}

impl std::error::Error for Rejected {}

/// Configuration for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads in the service's pool.
    pub workers: usize,
    /// Per-tenant queue bound; submissions past it get
    /// [`Rejected::QueueFull`].
    pub queue_capacity: usize,
    /// Requests dispatched (running or injected) concurrently, across
    /// all tenants; the rest wait in their tenant queues.
    pub max_concurrent: usize,
    /// Deficit round-robin quantum: a tenant with weight `w` may
    /// dispatch `quantum * w` consecutive requests before the cursor
    /// moves on.
    pub quantum: u32,
    /// Circuit-breaker tuning, applied per tenant.
    pub breaker: BreakerConfig,
    /// Abstract work units a typical request is expected to cost, used
    /// to seed deadline-aware admission **before the first completion**
    /// calibrates the service-time EWMA: while the EWMA is cold the
    /// per-request estimate is `bds_cost` `ns_per_work ×
    /// cold_start_work` nanoseconds. Without this seed a cold service
    /// estimated zero delay and admitted an entire first burst of
    /// requests that could not possibly meet their deadlines.
    pub cold_start_work: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ServiceConfig {
            workers,
            queue_capacity: 1024,
            max_concurrent: 2 * workers,
            quantum: 1,
            breaker: BreakerConfig::default(),
            cold_start_work: DEFAULT_COLD_START_WORK,
        }
    }
}

/// Default [`ServiceConfig::cold_start_work`]: a few thousand work
/// units — the cost of a small pipeline — keeps the cold estimate in
/// the microsecond range on real hardware, so only genuinely
/// unmeetable deadlines are refused before the EWMA warms up.
pub const DEFAULT_COLD_START_WORK: u64 = 4096;

/// A registered tenant of a [`Service`]; obtain one with
/// [`Service::tenant`]. Copyable — hand it to whatever submits on the
/// tenant's behalf. Valid only for the service that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tenant {
    idx: usize,
}

/// One queued request: the type-erased execution closure (budget,
/// user closure, ticket completion, and counter updates are all baked
/// in at submit time).
struct Request {
    run: Box<dyn FnOnce() + Send>,
}

struct TenantState {
    name: String,
    weight: u32,
    /// Remaining DRR credit; topped up to `quantum * weight` when the
    /// cursor reaches this tenant with work queued and no credit left.
    deficit: u64,
    queue: VecDeque<Request>,
    breaker: Arc<Breaker>,
    slot: TenantSlot,
    /// Block-granular [`RetryPolicy`] applied to this tenant's
    /// requests; `None` (the default) runs them unretried. Recovered
    /// blocks count in [`TenantStats::block_retries`]
    /// (`bds_pool::TenantStats`) and never strike the circuit breaker —
    /// only quarantines and escaped panics do.
    retry: Option<RetryPolicy>,
}

struct DispatchState {
    tenants: Vec<TenantState>,
    /// DRR cursor over `tenants` (modulo its length).
    cursor: usize,
    /// Requests sitting in tenant queues.
    queued: usize,
    /// Requests dispatched and not yet completed: the service's one
    /// admission gate, at most `max_concurrent`.
    inflight: usize,
}

/// The state a service shares with every request closure. It holds a
/// [`Spawner`], not the pool: a request closure can outlive the
/// service's own handle on this state, and whoever drops the last
/// owner of a pool joins its workers, which a pool worker cannot do to
/// itself.
struct Inner {
    cfg: ServiceConfig,
    state: Mutex<DispatchState>,
    /// Starts dispatched requests on the service's pool.
    spawner: Spawner,
    /// EWMA of request service time (ns), for deadline-aware
    /// admission. 0 until the first completion.
    ewma_ns: AtomicU64,
}

/// Expected queueing delay in nanoseconds: `per_request_ns` for each of
/// the `ahead` requests already admitted, divided across the `lanes`
/// that execute at once.
///
/// The multiply runs in `u128`: the old `saturating_mul(..) / lanes`
/// capped the *product* at `u64::MAX` before dividing, so a large EWMA
/// times a deep queue silently shrank to `u64::MAX / lanes` — an
/// **under**-estimate exactly when the backlog was worst, letting the
/// deadline gate admit doomed requests. Only the final quotient is
/// clamped.
fn queue_delay_ns(per_request_ns: u64, ahead: u64, lanes: u64) -> u64 {
    let wide = u128::from(per_request_ns) * u128::from(ahead) / u128::from(lanes.max(1));
    u64::try_from(wide).unwrap_or(u64::MAX)
}

impl Inner {
    /// Expected queueing delay for a newly admitted request: everything
    /// ahead of it, divided across the lanes that execute at once, at
    /// the observed service time. Those are `min(workers,
    /// max_concurrent)`: up to `max_concurrent` requests are dispatched,
    /// but only `workers` of them run at a time, so dividing by the
    /// dispatch slots alone would expect a fraction of the real wait
    /// and admit requests that then trip their deadlines. Until a first
    /// completion calibrates the EWMA, the
    /// per-request time is seeded from the `bds_cost` calibration table
    /// (`ns_per_work × cold_start_work`) instead of the old optimistic
    /// zero, which admitted a cold service's whole first burst
    /// regardless of deadlines. An idle service (nothing queued or in
    /// flight) still estimates zero either way.
    fn estimated_start_delay(&self, st: &DispatchState) -> Duration {
        let mut per_request_ns = self.ewma_ns.load(Ordering::Relaxed);
        if per_request_ns == 0 {
            let seed = bds_cost::calibration().ns_per_work * self.cfg.cold_start_work as f64;
            // f64 -> u64 `as` saturates; a sub-nanosecond seed rounds
            // up to 1 so "cold" is never mistaken for "calibrated zero".
            per_request_ns = (seed as u64).max(1);
        }
        let ahead = st.queued + st.inflight;
        let lanes = self.cfg.workers.min(self.cfg.max_concurrent).max(1) as u64;
        Duration::from_nanos(queue_delay_ns(per_request_ns, ahead as u64, lanes))
    }

    /// Completion bookkeeping, called by the execution closure on the
    /// worker that finished the request: frees its slot and hands it to
    /// the next queued request, if any.
    fn note_finished(&self, elapsed: Duration) {
        self.note_service_time(elapsed);
        let mut st = self.state.lock();
        st.inflight -= 1;
        self.dispatch(st);
    }

    /// Fold one request's run time into the service-time EWMA, alpha =
    /// 1/8. A sample counts for at most 4× the current estimate: a host
    /// stall inflates every request that runs across it, and
    /// [`Inner::estimated_start_delay`] multiplies the estimate by the
    /// backlog that builds up meanwhile, so one unbounded stall refuses
    /// feasible requests for seconds. A real slowdown still shows, at up
    /// to 1.375× per sample. Racy read-modify-write is fine: this is a
    /// smoothed estimate, not an invariant.
    fn note_service_time(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        let old = self.ewma_ns.load(Ordering::Relaxed);
        let new = if old == 0 {
            ns
        } else {
            let ns = ns.min(old.saturating_mul(4));
            old - old / 8 + ns / 8
        };
        self.ewma_ns.store(new.max(1), Ordering::Relaxed);
    }

    /// Start the request [`pick`] chooses if a dispatch slot is free,
    /// releasing the state lock before spawning it.
    ///
    /// `submit` calls this after queueing and every request after
    /// finishing, so `queued > 0` implies `inflight == max_concurrent`
    /// whenever the lock is free: every queued request has a running
    /// predecessor whose completion will start it. The pool's teardown
    /// runs queued jobs and the jobs they spawn, so the chain also
    /// completes when the service is dropped.
    fn dispatch(&self, mut st: MutexGuard<'_, DispatchState>) {
        if st.inflight >= self.cfg.max_concurrent {
            return;
        }
        let Some(req) = pick(&mut st, self.cfg.quantum) else {
            return;
        };
        st.queued -= 1;
        st.inflight += 1;
        drop(st);
        self.spawner.spawn(req.run);
    }
}

/// Pop the next request under weighted deficit round-robin.
///
/// Starvation-freedom: the cursor advances past a tenant once its
/// credit (`quantum * weight`) is spent, so with `T` non-empty queues a
/// tenant of weight `w` is guaranteed `quantum * w` dispatches out of
/// every `quantum * Σw` — one hot tenant cannot monopolize dispatch no
/// matter how fast it submits. Empty queues lose their credit (classic
/// DRR: you cannot bank fairness while idle).
fn pick(st: &mut DispatchState, quantum: u32) -> Option<Request> {
    let n = st.tenants.len();
    for _ in 0..n {
        let i = st.cursor % n;
        let t = &mut st.tenants[i];
        if t.queue.is_empty() {
            t.deficit = 0;
            st.cursor = st.cursor.wrapping_add(1);
            continue;
        }
        if t.deficit == 0 {
            t.deficit = u64::from(quantum) * u64::from(t.weight);
        }
        t.deficit -= 1;
        let req = t.queue.pop_front().expect("non-empty queue");
        if t.deficit == 0 {
            st.cursor = st.cursor.wrapping_add(1);
        }
        return Some(req);
    }
    None
}

/// Stringify a panic payload (the conventional `&str`/`String` cases).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// An async, multi-tenant execution front-end over a
/// [`bds_pool::Pool`].
///
/// Submitted closures run under their [`Budget`] on the service's pool;
/// the caller gets a [`Ticket`] future immediately. Admission is
/// bounded and fair: per-tenant bounded queues, weighted deficit
/// round-robin dispatch, deadline-aware fail-fast, and a per-tenant
/// circuit breaker. See the crate docs for an end-to-end example.
///
/// Dropping the service **drains** it: everything already accepted
/// runs to completion before the drop returns — an accepted ticket
/// never dangles. The pool's own drop does this: its workers exit only
/// once they find no work, each finishing request has started its
/// successor by then, and the teardown runs whatever is left on the
/// dropping thread.
pub struct Service {
    inner: Arc<Inner>,
    /// Owned here alone (requests hold only a [`Spawner`]), so the pool
    /// is always torn down by the thread that drops the service.
    pool: Pool,
}

impl Service {
    /// Start a service on a pool of `cfg.workers` threads.
    ///
    /// # Panics
    /// Panics if any of `workers`, `queue_capacity`, `max_concurrent`,
    /// `quantum`, `cold_start_work`, or `breaker.trip_after` is zero.
    pub fn new(cfg: ServiceConfig) -> Service {
        assert!(cfg.workers > 0, "a service needs at least one worker");
        assert!(cfg.queue_capacity > 0, "queue_capacity must be at least 1");
        assert!(cfg.max_concurrent > 0, "max_concurrent must be at least 1");
        assert!(cfg.quantum > 0, "quantum must be at least 1");
        assert!(
            cfg.cold_start_work > 0,
            "cold_start_work must be at least 1 (a zero hint would \
             re-open the cold-start admission hole)"
        );
        let pool = Pool::new(cfg.workers);
        let inner = Arc::new(Inner {
            cfg,
            state: Mutex::new(DispatchState {
                tenants: Vec::new(),
                cursor: 0,
                queued: 0,
                inflight: 0,
            }),
            spawner: pool.spawner(),
            ewma_ns: AtomicU64::new(0),
        });
        Service { inner, pool }
    }

    /// Register (or look up) a tenant with weight 1.
    pub fn tenant(&self, name: &str) -> Tenant {
        self.tenant_with_weight(name, 1)
    }

    /// Register a tenant with a DRR `weight` (its fair share relative
    /// to other tenants). Registering an existing name returns the
    /// original tenant unchanged (the weight argument is ignored).
    ///
    /// # Panics
    /// Panics if `weight == 0`.
    pub fn tenant_with_weight(&self, name: &str, weight: u32) -> Tenant {
        assert!(weight > 0, "a tenant weight of 0 would starve it");
        let mut st = self.inner.state.lock();
        if let Some(idx) = st.tenants.iter().position(|t| t.name == name) {
            return Tenant { idx };
        }
        st.tenants.push(TenantState {
            name: name.to_string(),
            weight,
            deficit: 0,
            queue: VecDeque::new(),
            breaker: Arc::new(Breaker::new(self.inner.cfg.breaker.clone())),
            slot: self.pool.tenant_slot(name),
            retry: None,
        });
        Tenant {
            idx: st.tenants.len() - 1,
        }
    }

    /// Set (or clear, with `None`) the block-granular [`RetryPolicy`]
    /// for `tenant`'s future submissions. Under a policy, a transiently
    /// panicking block inside a request is re-executed in place instead
    /// of failing the whole request; a deterministically failing block
    /// quarantines the request with a typed
    /// [`ServiceError::BlockFailed`]. Recovered blocks are counted per
    /// tenant (`block_retries` in [`PoolStats::tenants`]) and do *not*
    /// strike the circuit breaker; quarantines do.
    ///
    /// Already-queued requests keep the policy they were submitted
    /// under.
    ///
    /// # Panics
    /// Panics if `tenant` was issued by a different service.
    pub fn set_tenant_retry(&self, tenant: Tenant, policy: Option<RetryPolicy>) {
        let mut st = self.inner.state.lock();
        let t = st
            .tenants
            .get_mut(tenant.idx)
            .expect("Tenant handle used on a service that did not issue it");
        t.retry = policy;
    }

    /// Submit `f` to run under `budget` on behalf of `tenant`.
    ///
    /// Fail-fast admission, in order: queue bound, deadline feasibility
    /// (given queue depth and the observed service time), circuit
    /// breaker. An admitted request starts at once if a dispatch slot
    /// is free, and otherwise waits in its tenant's queue.
    ///
    /// On `Ok`, the returned [`Ticket`] resolves to
    /// exactly one [`Response`](crate::Response): `Ok(value)`,
    /// `Err(ServiceError::Exceeded(_))` on a budget trip,
    /// `Err(ServiceError::Panicked(_))` if `f` panicked, or — under a
    /// per-tenant [`RetryPolicy`] (see [`Service::set_tenant_retry`]) —
    /// `Err(ServiceError::BlockFailed(_))` when a block failed
    /// deterministically and was quarantined.
    ///
    /// # Panics
    /// Panics if `tenant` was issued by a different service.
    pub fn submit<R, F>(&self, tenant: Tenant, budget: Budget, f: F) -> Result<Ticket<R>, Rejected>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let inner = &self.inner;
        let now = Instant::now();
        let mut st = inner.state.lock();
        let est = inner.estimated_start_delay(&st);
        let t = st
            .tenants
            .get_mut(tenant.idx)
            .expect("Tenant handle used on a service that did not issue it");
        t.slot.note_submitted();
        if t.queue.len() >= inner.cfg.queue_capacity {
            t.slot.note_rejected_queue_full();
            return Err(Rejected::QueueFull);
        }
        if let Some(at) = budget.deadline {
            if now + est >= at {
                t.slot.note_rejected_deadline();
                return Err(Rejected::Deadline);
            }
        }
        if let Err(retry_after) = t.breaker.check(now) {
            t.slot.note_rejected_breaker();
            return Err(Rejected::CircuitOpen { retry_after });
        }

        let shared = Shared::new();
        let ticket = Ticket::new(Arc::clone(&shared));
        let breaker = Arc::clone(&t.breaker);
        let slot = t.slot.clone();
        let retry = t.retry;
        let done = Arc::clone(inner);
        let run: Box<dyn FnOnce() + Send> = Box::new(move || {
            let started = Instant::now();
            // The catch_unwind boundary is what turns a panicking
            // request into a typed response instead of a crashed
            // worker. AssertUnwindSafe: `f` is consumed either way, and
            // run_governed's partial state is reclaimed by its own drop
            // guards. Under a tenant RetryPolicy the recovery layer
            // nests *outside* the budget, so every block attempt is
            // charged and a retry storm trips `Exceeded` honestly.
            let outcome = match retry {
                None => {
                    catch_unwind(AssertUnwindSafe(|| run_governed(budget, f))).map(|r| (Ok(r), 0))
                }
                Some(policy) => catch_unwind(AssertUnwindSafe(|| {
                    run_recovered_counting(policy, || run_governed(budget, f))
                })),
            };
            let elapsed = started.elapsed();
            let response = match outcome {
                Ok((Ok(Ok(value)), retried)) => {
                    // Recovered blocks are a separate ledger from
                    // breaker strikes: a retried-then-completed request
                    // clears strikes like any success.
                    slot.note_block_retries(retried);
                    breaker.on_success();
                    Ok(value)
                }
                Ok((Ok(Err(exceeded)), retried)) => {
                    // A budget trip is the budget working, not the
                    // tenant crashing: it clears breaker strikes.
                    slot.note_block_retries(retried);
                    breaker.on_success();
                    slot.note_exceeded();
                    Err(ServiceError::Exceeded(exceeded))
                }
                Ok((Err(block_failed), retried)) => {
                    // Deterministic block failure: quarantined after
                    // max_attempts. Strikes the breaker like a panic —
                    // it *is* repeated panicking user code — but
                    // surfaces typed, never as an escaped payload.
                    slot.note_block_retries(retried);
                    breaker.on_panic(Instant::now());
                    slot.note_panicked();
                    Err(ServiceError::BlockFailed(block_failed))
                }
                Err(payload) => {
                    breaker.on_panic(Instant::now());
                    slot.note_panicked();
                    Err(ServiceError::Panicked(panic_message(payload)))
                }
            };
            shared.complete(response);
            slot.note_completed();
            done.note_finished(elapsed);
        });
        t.queue.push_back(Request { run });
        t.slot.note_admitted();
        st.queued += 1;
        inner.dispatch(st);
        Ok(ticket)
    }

    /// Snapshot the underlying pool's statistics — per-worker scheduler
    /// counters, respawns, and the per-tenant counters this
    /// service maintains ([`PoolStats::tenants`]).
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// The pool-registry counter slot for tenant `name` (registering it
    /// in the stats registry if needed). Layers *outside* the request
    /// path — e.g. a per-tenant plan cache — bump tenant-scoped
    /// counters through this slot and they surface in
    /// [`PoolStats::tenants`] next to the admission ledger.
    pub fn tenant_slot(&self, name: &str) -> TenantSlot {
        self.pool.tenant_slot(name)
    }

    /// Number of pool workers this service executes on (the configured
    /// [`ServiceConfig::workers`]). Plan-level geometry decisions size
    /// their parallelism against this.
    pub fn workers(&self) -> usize {
        self.inner.cfg.workers
    }

    /// Requests currently waiting in tenant queues.
    pub fn queued(&self) -> usize {
        self.inner.state.lock().queued
    }

    /// Requests currently dispatched and not yet completed.
    pub fn inflight(&self) -> usize {
        self.inner.state.lock().inflight
    }

    /// Number of pool workers serving requests.
    pub fn num_workers(&self) -> usize {
        self.pool.num_threads()
    }

    /// Fault-injection hook: crash pool worker `index` (it respawns;
    /// see [`bds_pool::Pool::inject_worker_crash`]). Because the crash
    /// hook fires between jobs — never mid-job — and crashed workers'
    /// queues are salvaged by their replacements, in-flight and queued
    /// requests survive: their tickets still resolve normally.
    ///
    /// # Panics
    /// Panics if `index >= num_workers()`.
    pub fn inject_worker_crash(&self, index: usize) {
        self.pool.inject_worker_crash(index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ticket::block_on;
    use std::sync::atomic::AtomicUsize;

    fn small(workers: usize) -> Service {
        Service::new(ServiceConfig {
            workers,
            queue_capacity: 64,
            max_concurrent: workers,
            quantum: 1,
            breaker: BreakerConfig::default(),
            cold_start_work: 4096,
        })
    }

    #[test]
    fn submit_and_wait_round_trip() {
        let svc = small(2);
        let tenant = svc.tenant("t");
        let ticket = svc
            .submit(tenant, Budget::unlimited(), || 21 * 2)
            .expect("admitted");
        assert_eq!(ticket.wait(), Ok(42));
    }

    #[test]
    fn submit_and_await_round_trip() {
        let svc = small(2);
        let tenant = svc.tenant("t");
        let ticket = svc
            .submit(tenant, Budget::unlimited(), || String::from("async"))
            .expect("admitted");
        assert_eq!(block_on(ticket), Ok(String::from("async")));
    }

    #[test]
    fn expired_deadline_rejected_at_submit() {
        let svc = small(2);
        let tenant = svc.tenant("t");
        let budget = Budget::unlimited().deadline_at(Instant::now() - Duration::from_millis(1));
        let err = svc.submit(tenant, budget, || 1).unwrap_err();
        assert_eq!(err, Rejected::Deadline);
        let stats = svc.stats();
        assert_eq!(stats.tenants[0].rejected_deadline, 1);
    }

    #[test]
    fn queue_full_is_a_typed_rejection() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            max_concurrent: 1,
            quantum: 1,
            breaker: BreakerConfig::default(),
            cold_start_work: 4096,
        });
        let tenant = svc.tenant("t");
        let gate = Arc::new(AtomicUsize::new(0));
        // One request occupies the single lane...
        let g = Arc::clone(&gate);
        let blocker = svc
            .submit(tenant, Budget::unlimited(), move || {
                while g.load(Ordering::SeqCst) == 0 {
                    std::hint::spin_loop();
                }
            })
            .expect("admitted");
        // ...two fill the queue; the third must be refused.
        let mut queued = Vec::new();
        let mut refused = 0;
        for _ in 0..8 {
            match svc.submit(tenant, Budget::unlimited(), || ()) {
                Ok(t) => queued.push(t),
                Err(Rejected::QueueFull) => refused += 1,
                Err(other) => panic!("unexpected rejection: {other:?}"),
            }
        }
        assert!(refused > 0, "the bounded queue never pushed back");
        gate.store(1, Ordering::SeqCst);
        assert_eq!(blocker.wait(), Ok(()));
        for t in queued {
            assert_eq!(t.wait(), Ok(()));
        }
        assert_eq!(svc.stats().tenants[0].rejected_queue_full, refused);
    }

    #[test]
    fn panics_become_typed_responses_and_trip_the_breaker() {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            max_concurrent: 2,
            quantum: 1,
            breaker: BreakerConfig {
                trip_after: 2,
                cool_down: Duration::from_millis(40),
                max_cool_down: Duration::from_secs(1),
            },
            cold_start_work: 4096,
        });
        let tenant = svc.tenant("crashy");
        for _ in 0..2 {
            let t = svc
                .submit(tenant, Budget::unlimited(), || -> u32 { panic!("kaboom") })
                .expect("admitted");
            match t.wait() {
                Err(ServiceError::Panicked(msg)) => assert!(msg.contains("kaboom")),
                other => panic!("expected a panic response, got {other:?}"),
            }
        }
        // Breaker open: fail-fast with a retry hint.
        match svc.submit(tenant, Budget::unlimited(), || 1u32) {
            Err(Rejected::CircuitOpen { retry_after }) => {
                assert!(retry_after <= Duration::from_millis(40));
            }
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        // After the cool-down, the half-open probe succeeds and closes
        // the breaker again.
        std::thread::sleep(Duration::from_millis(60));
        let probe = svc
            .submit(tenant, Budget::unlimited(), || 7u32)
            .expect("half-open probe admitted");
        assert_eq!(probe.wait(), Ok(7));
        let healed = svc
            .submit(tenant, Budget::unlimited(), || 8u32)
            .expect("breaker closed after probe success");
        assert_eq!(healed.wait(), Ok(8));
        let stats = svc.stats();
        assert_eq!(stats.tenants[0].panicked, 2);
        assert!(stats.tenants[0].rejected_breaker >= 1);
        // The pool healed too: panics were caught at the request
        // boundary, not by crashing workers.
        assert_eq!(stats.respawns, 0);
    }

    #[test]
    fn tenant_retry_recovers_transient_block_faults_without_breaker_strikes() {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            max_concurrent: 2,
            quantum: 1,
            breaker: BreakerConfig {
                trip_after: 1, // one strike would open it — recovery must not strike
                ..BreakerConfig::default()
            },
            cold_start_work: 4096,
        });
        let tenant = svc.tenant("flaky");
        svc.set_tenant_retry(tenant, Some(bds_pool::RetryPolicy::default()));
        let fires = Arc::new(AtomicUsize::new(1));
        let f = Arc::clone(&fires);
        let ticket = svc
            .submit(tenant, Budget::unlimited(), move || {
                let total = AtomicUsize::new(0);
                bds_pool::apply(8, |j| {
                    bds_pool::recover_block(j, || {
                        let fired = j == 3
                            && f.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                                n.checked_sub(1)
                            })
                            .is_ok();
                        if fired {
                            panic!("transient fault at block 3");
                        }
                        total.fetch_add(j, Ordering::SeqCst);
                    });
                });
                total.load(Ordering::SeqCst)
            })
            .expect("admitted");
        assert_eq!(ticket.wait(), Ok((0..8).sum()));
        let stats = svc.stats();
        assert_eq!(stats.tenants[0].block_retries, 1, "the recovered block is counted");
        assert_eq!(stats.tenants[0].panicked, 0, "recovery is not a panic");
        // The breaker (trip_after: 1) must still admit: retried blocks
        // are a separate ledger from strikes.
        let ok = svc.submit(tenant, Budget::unlimited(), || 1u32).expect("breaker closed");
        assert_eq!(ok.wait(), Ok(1));
    }

    #[test]
    fn tenant_retry_quarantines_deterministic_faults_as_typed_responses() {
        let svc = small(2);
        let tenant = svc.tenant("doomed");
        svc.set_tenant_retry(
            tenant,
            Some(bds_pool::RetryPolicy::default().with_max_attempts(3)),
        );
        let attempts = Arc::new(AtomicUsize::new(0));
        let a = Arc::clone(&attempts);
        let ticket = svc
            .submit(tenant, Budget::unlimited(), move || {
                bds_pool::apply(4, |j| {
                    bds_pool::recover_block(j, || {
                        if j == 2 {
                            a.fetch_add(1, Ordering::SeqCst);
                            panic!("deterministic fault at block 2");
                        }
                    });
                });
            })
            .expect("admitted");
        match ticket.wait() {
            Err(ServiceError::BlockFailed(bf)) => {
                assert_eq!(bf.ordinal, 2);
                assert_eq!(bf.attempts, 3);
            }
            other => panic!("expected a typed quarantine, got {other:?}"),
        }
        assert_eq!(attempts.load(Ordering::SeqCst), 3, "exactly max_attempts executions");
        let stats = svc.stats();
        assert_eq!(stats.tenants[0].block_retries, 2, "attempts 2 and 3 were retries");
        assert_eq!(stats.tenants[0].panicked, 1, "quarantine strikes like a panic");
        // Workers survived: the fault was caught at block granularity.
        assert_eq!(stats.respawns, 0);
        let ok = svc.submit(tenant, Budget::unlimited(), || 5u32).expect("admitted");
        assert_eq!(ok.wait(), Ok(5));
    }

    #[test]
    fn budget_trips_do_not_trip_the_breaker() {
        let svc = Service::new(ServiceConfig {
            breaker: BreakerConfig {
                trip_after: 1,
                ..BreakerConfig::default()
            },
            ..ServiceConfig::default()
        });
        let tenant = svc.tenant("t");
        for _ in 0..3 {
            // An expired-at-execution deadline: admitted (no service
            // history yet -> optimistic), runs, trips.
            let budget = Budget::unlimited().deadline_at(Instant::now() + Duration::from_micros(1));
            if let Ok(ticket) = svc.submit(tenant, budget, || {
                std::thread::sleep(Duration::from_millis(5));
            }) {
                let r = ticket.wait();
                assert!(
                    matches!(r, Err(ServiceError::Exceeded(_)) | Ok(())),
                    "unexpected {r:?}"
                );
            }
            // Either way the breaker must still admit.
            let ok = svc.submit(tenant, Budget::unlimited(), || 1).unwrap();
            assert_eq!(ok.wait(), Ok(1));
        }
    }

    #[test]
    fn fairness_hot_tenant_cannot_starve_quiet_one() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            queue_capacity: 256,
            max_concurrent: 1, // single lane: dispatch order is visible
            quantum: 1,
            breaker: BreakerConfig::default(),
            cold_start_work: 4096,
        });
        let hot = svc.tenant("hot");
        let quiet = svc.tenant("quiet");
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let gate = Arc::new(AtomicUsize::new(0));
        // Wedge the lane so everything below queues up before dispatch.
        let g = Arc::clone(&gate);
        let wedge = svc
            .submit(hot, Budget::unlimited(), move || {
                while g.load(Ordering::SeqCst) == 0 {
                    std::hint::spin_loop();
                }
            })
            .unwrap();
        let mut tickets = Vec::new();
        for _ in 0..40 {
            let order = Arc::clone(&order);
            tickets.push(
                svc.submit(hot, Budget::unlimited(), move || order.lock().push("hot"))
                    .unwrap(),
            );
        }
        for _ in 0..5 {
            let order = Arc::clone(&order);
            tickets.push(
                svc.submit(quiet, Budget::unlimited(), move || order.lock().push("quiet"))
                    .unwrap(),
            );
        }
        gate.store(1, Ordering::SeqCst);
        wedge.wait().unwrap();
        for t in tickets {
            t.wait().unwrap();
        }
        let order = order.lock();
        // DRR with equal weights alternates: all 5 quiet requests must
        // have dispatched within the first ~10 slots, not after the 40
        // hot ones.
        let last_quiet = order
            .iter()
            .rposition(|s| *s == "quiet")
            .expect("quiet ran");
        assert!(
            last_quiet < 15,
            "quiet tenant starved: last dispatch at position {last_quiet} of {}",
            order.len()
        );
    }

    #[test]
    fn weighted_tenants_get_proportional_share() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            queue_capacity: 256,
            max_concurrent: 1,
            quantum: 1,
            breaker: BreakerConfig::default(),
            cold_start_work: 4096,
        });
        let heavy = svc.tenant_with_weight("heavy", 3);
        let light = svc.tenant_with_weight("light", 1);
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let gate = Arc::new(AtomicUsize::new(0));
        let g = Arc::clone(&gate);
        let wedge = svc
            .submit(light, Budget::unlimited(), move || {
                while g.load(Ordering::SeqCst) == 0 {
                    std::hint::spin_loop();
                }
            })
            .unwrap();
        let mut tickets = Vec::new();
        for _ in 0..30 {
            let o = Arc::clone(&order);
            tickets.push(
                svc.submit(heavy, Budget::unlimited(), move || o.lock().push("heavy"))
                    .unwrap(),
            );
            let o = Arc::clone(&order);
            tickets.push(
                svc.submit(light, Budget::unlimited(), move || o.lock().push("light"))
                    .unwrap(),
            );
        }
        gate.store(1, Ordering::SeqCst);
        wedge.wait().unwrap();
        for t in tickets {
            t.wait().unwrap();
        }
        let order = order.lock();
        // In the first 20 dispatches, weight-3 heavy should get about
        // 3x the light tenant's share (15 vs 5).
        let heavy_early = order[..20].iter().filter(|s| **s == "heavy").count();
        assert!(
            (12..=18).contains(&heavy_early),
            "weight-3 tenant got {heavy_early}/20 early dispatches"
        );
    }

    #[test]
    fn drop_drains_accepted_work() {
        let completed = Arc::new(AtomicUsize::new(0));
        let tickets: Vec<Ticket<usize>> = {
            let svc = small(2);
            let tenant = svc.tenant("t");
            (0..50)
                .map(|i| {
                    let completed = Arc::clone(&completed);
                    svc.submit(tenant, Budget::unlimited(), move || {
                        completed.fetch_add(1, Ordering::SeqCst);
                        i
                    })
                    .expect("admitted")
                })
                .collect()
            // Service drops here with most requests still queued.
        };
        assert_eq!(completed.load(Ordering::SeqCst), 50);
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait(), Ok(i));
        }
    }

    #[test]
    fn responses_survive_worker_crashes() {
        // Deep queue: this test hammers one tenant far faster than two
        // workers drain it, and backpressure is not what's under test.
        let svc = Service::new(ServiceConfig {
            workers: 2,
            queue_capacity: 4096,
            max_concurrent: 2,
            quantum: 1,
            breaker: BreakerConfig::default(),
            cold_start_work: 4096,
        });
        let tenant = svc.tenant("t");
        let mut tickets = Vec::new();
        for wave in 0..10 {
            for i in 0..20u64 {
                tickets.push((
                    wave * 20 + i,
                    svc.submit(tenant, Budget::unlimited(), move || {
                        std::hint::black_box((0..500).sum::<u64>());
                        wave * 20 + i
                    })
                    .expect("admitted"),
                ));
            }
            svc.inject_worker_crash((wave % 2) as usize);
        }
        for (expected, ticket) in tickets {
            assert_eq!(ticket.wait(), Ok(expected), "lost or corrupted response");
        }
        assert!(svc.stats().respawns > 0, "crashes should have been injected");
    }

    #[test]
    fn tenant_handles_are_stable_and_deduplicated() {
        let svc = small(1);
        let a = svc.tenant("a");
        let b = svc.tenant("b");
        let a2 = svc.tenant_with_weight("a", 9); // ignored: already registered
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn cold_start_estimate_rejects_unmeetable_deadlines() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            queue_capacity: 64,
            max_concurrent: 1,
            quantum: 1,
            breaker: BreakerConfig::default(),
            // Absurdly expensive requests: even at the minimum
            // calibrated ns_per_work the seeded estimate is seconds.
            cold_start_work: 1 << 40,
        });
        let tenant = svc.tenant("t");
        // An idle cold service has nothing ahead, so even a huge
        // per-request seed estimates zero delay: admit.
        let gate = Arc::new(AtomicUsize::new(0));
        let g = Arc::clone(&gate);
        let wedge = svc
            .submit(tenant, Budget::unlimited(), move || {
                while g.load(Ordering::SeqCst) == 0 {
                    std::hint::spin_loop();
                }
            })
            .expect("idle cold service must admit");
        // One request ahead and the EWMA still cold: the old code
        // estimated zero here and admitted a request that could not
        // start for seconds; the calibration seed refuses it.
        let budget =
            Budget::unlimited().deadline_at(Instant::now() + Duration::from_millis(50));
        assert_eq!(
            svc.submit(tenant, budget, || 1).unwrap_err(),
            Rejected::Deadline
        );
        assert_eq!(svc.stats().tenants[0].rejected_deadline, 1);
        gate.store(1, Ordering::SeqCst);
        assert_eq!(wedge.wait(), Ok(()));
    }

    #[test]
    fn deadline_estimate_counts_workers_not_dispatch_slots() {
        // Four dispatch slots but one worker: requests ahead run one at
        // a time, so the wait is the whole backlog, not a quarter of it.
        let svc = Service::new(ServiceConfig {
            workers: 1,
            queue_capacity: 64,
            max_concurrent: 4,
            quantum: 1,
            breaker: BreakerConfig::default(),
            cold_start_work: 4096,
        });
        let tenant = svc.tenant("t");
        // A calibrated service time of 1 s per request.
        svc.inner.ewma_ns.store(1_000_000_000, Ordering::Relaxed);
        let gate = Arc::new(AtomicUsize::new(0));
        let g = Arc::clone(&gate);
        let wedge = svc
            .submit(tenant, Budget::unlimited(), move || {
                while g.load(Ordering::SeqCst) == 0 {
                    std::hint::spin_loop();
                }
            })
            .expect("an idle service admits");
        // One request ahead: the real wait is ~1 s. Divided by the four
        // slots it would be 250 ms, inside this 500 ms deadline.
        let budget = Budget::unlimited().deadline_at(Instant::now() + Duration::from_millis(500));
        let late = svc.submit(tenant, budget, || 1);
        // Release the wedge before asserting, so a failure cannot leave
        // the service's drop waiting on it.
        gate.store(1, Ordering::SeqCst);
        assert_eq!(wedge.wait(), Ok(()));
        assert_eq!(late.err(), Some(Rejected::Deadline));
    }

    #[test]
    fn a_host_stall_does_not_inflate_the_deadline_estimate() {
        // A host stall makes every request that runs across it look
        // slow. Calibrated at 40 µs, four 200 ms completions must not
        // push a 1024-deep backlog on 2 workers past a 1 s deadline;
        // taken unbounded they estimate about 42 s.
        let svc = small(2);
        svc.inner.ewma_ns.store(40_000, Ordering::Relaxed);
        for _ in 0..4 {
            svc.inner.note_service_time(Duration::from_millis(200));
        }
        let backlog = DispatchState {
            tenants: Vec::new(),
            cursor: 0,
            queued: 1024,
            inflight: 0,
        };
        let est = svc.inner.estimated_start_delay(&backlog);
        assert!(est < Duration::from_secs(1), "estimated {est:?}");
    }

    #[test]
    fn queue_delay_survives_large_ewma_times_deep_queue() {
        // 2^62 ns EWMA x 8 ahead / 4 lanes: exact answer 2^63. The old
        // saturate-then-divide capped the product at u64::MAX before
        // dividing and returned 2^62 — a 2x under-estimate precisely
        // when the backlog was deepest.
        assert_eq!(queue_delay_ns(1 << 62, 8, 4), 1 << 63);
        // A quotient past u64::MAX clamps instead of wrapping.
        assert_eq!(queue_delay_ns(u64::MAX, 8, 2), u64::MAX);
        // Degenerate lane counts never divide by zero.
        assert_eq!(queue_delay_ns(100, 3, 0), 300);
    }
}
