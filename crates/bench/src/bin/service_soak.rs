//! Service soak: sustain four tenants × 256 outstanding requests each
//! (1024 concurrent governed pipelines) against a `bds_service::Service`
//! while a chaos thread crashes a pool worker every 250 ms, and hold the
//! delivery claims for the whole run:
//!
//! - **no lost responses** — every accepted ticket resolves (a lost one
//!   would hang the drain and trip the watchdog below);
//! - **no duplicated responses** — `bds-service`'s exactly-once tripwire
//!   panics the run if a ticket completes twice;
//! - **no partial responses** — every `Ok` is bit-identical to the
//!   pipeline's known value;
//! - **typed refusals only** — tight-deadline requests either fail fast
//!   at admission, trip as `Exceeded::Deadline`, or deliver the full
//!   value; nothing else is acceptable;
//! - **the admission ledger balances** — per tenant,
//!   `submitted == (admitted == completed) + rejected` at quiescence;
//! - **no tenant starves** — every tenant's completion share is within
//!   2x of its fair share, both bounds;
//! - **the plan cache stays warm** — each tenant cycles through
//!   [`SHAPES`] distinct pipeline shapes resolved through a per-tenant
//!   `bds_plan::TenantPlanner`, so after one optimizer run per shape
//!   every later submission must hit the cache: the per-tenant hit rate
//!   at quiescence must be ≥ 0.9 (it is (n − SHAPES) / n in practice);
//! - **block recovery salvages faulted requests** — every tenant runs
//!   under a [`RetryPolicy`], and roughly every 100th request carries a
//!   one-shot transient block fault; each such admitted request must
//!   still deliver its exact value (covered by the no-partial claim),
//!   with `recovered_jobs > 0` and zero quarantines over the run.
//!
//! Flags: `--seconds <n>` (duration, default 30), `--procs <p>` (pool
//! width, default 3), `--no-plan-cache` (A/B leg: plan every request
//! from a cold planner, skipping the hit-rate claim), `--json <path>`
//! (machine-readable results in the `bds-bench/v2` schema with the
//! `svc` and `plan` blocks populated: sustained QPS and p50/p99
//! submit-to-response latency next to the gov counters and the
//! aggregated plan-cache hits/misses).
//!
//! Exit status is non-zero if any claim is violated, so CI can run this
//! binary directly as a gate.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bds_bench::{arg_value, has_flag};
use bds_bench::json::{
    GovCounters, JsonReport, PlanCounters, Record, RecoveryCounters, SvcCounters,
};
use bds_plan::{submit_reduce, Pipe, TenantPlanner};
use bds_pool::govern::trip_counts;
use bds_pool::{recovery_counts, RetryPolicy};
use bds_service::{
    Budget, Exceeded, Rejected, Service, ServiceConfig, ServiceError, Ticket,
};

/// Outstanding requests each tenant's driver keeps in flight.
const WINDOW: usize = 256;
/// Tenants (and driver threads).
const TENANTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
/// Every Nth request runs under a tight deadline instead of an
/// unlimited budget, exercising fail-fast admission and in-flight
/// deadline trips under load.
const TIGHT_EVERY: u64 = 16;
/// The tight deadline. Far below the queueing delay of a 1024-deep
/// backlog on purpose: most of these must be refused or tripped, and
/// the claim is that the refusal is always clean and typed.
const TIGHT_DEADLINE: Duration = Duration::from_millis(2);
/// Problem size of the pipeline each request runs.
const N: usize = 4096;
/// Distinct pipeline shapes each tenant cycles through. Shape `k % 4`
/// is rebuilt from scratch (fresh closures) for every request, so plan
/// reuse is purely shape-keyed — exactly the production pattern the
/// plan cache exists for.
const SHAPES: u64 = 4;
/// Plans each tenant's cache may hold — comfortably above [`SHAPES`],
/// so a warm run never evicts.
const PLAN_CAPACITY: usize = 8;
/// Roughly one in `FAULT_EVERY` requests carries a transient block
/// fault (every `FAULT_EVERY / SHAPES`-th shape-0 submission).
const FAULT_EVERY: u64 = 100;
/// The element whose block carries the injected fault.
const FAULT_ELEM: usize = 1234;

/// Build shape `k`'s pipeline, fresh closures every call. The shapes
/// exercise the optimizer's main rewrites under load: plain tabulate
/// (sequential-vs-parallel mode pick), a fusable map+filter run, a
/// gather-collapsible rev/skip/take cut chain, and a map+scan prefix.
fn build_pipe(shape: u64) -> Pipe<u64> {
    match shape % SHAPES {
        0 => Pipe::tabulate(N, |i| (i as u64).wrapping_mul(31).wrapping_add(7)),
        1 => Pipe::tabulate(N, |i| i as u64)
            .map(|x| x.wrapping_mul(0x9e37_79b9))
            .filter(|&x| x % 3 != 0),
        2 => Pipe::tabulate(N, |i| i as u64).rev().skip(7).take(N / 2),
        _ => Pipe::tabulate(N, |i| i as u64)
            .map(|x| x ^ 0x5bd1)
            .scan(0, |a, b| a.wrapping_add(b)),
    }
}

/// The known reduction value of each shape, so a partial or corrupted
/// response is detectable. Mirrors [`build_pipe`] with plain iterators.
fn expected_values() -> [u64; SHAPES as usize] {
    let v0 = (0..N as u64)
        .map(|i| i.wrapping_mul(31).wrapping_add(7))
        .fold(0u64, u64::wrapping_add);
    let v1 = (0..N as u64)
        .map(|x| x.wrapping_mul(0x9e37_79b9))
        .filter(|&x| x % 3 != 0)
        .fold(0u64, u64::wrapping_add);
    let v2 = (0..N as u64)
        .rev()
        .skip(7)
        .take(N / 2)
        .fold(0u64, u64::wrapping_add);
    // Shape 3 reduces the *exclusive* prefix scan of the mapped input.
    let mut acc = 0u64;
    let mut v3 = 0u64;
    for x in (0..N as u64).map(|x| x ^ 0x5bd1) {
        v3 = v3.wrapping_add(acc);
        acc = acc.wrapping_add(x);
    }
    [v0, v1, v2, v3]
}

/// Shape 0's pipeline with a one-shot transient block fault riding the
/// closure: the first time [`FAULT_ELEM`] streams, it panics; the block
/// retry under the tenant's [`RetryPolicy`] recomputes it cleanly, so
/// the delivered value is identical to the unfaulted shape 0. The fire
/// token is request-local by construction (it is captured in this
/// request's fresh closure), so concurrent requests and
/// rejected-at-admission submissions can never pool fires into one
/// block and escalate a transient fault to a quarantine. The shape key
/// is unchanged — plan reuse keys on structure, never closure identity.
fn build_faulted_pipe() -> Pipe<u64> {
    let fires = Arc::new(AtomicU64::new(1));
    Pipe::tabulate(N, move |i| {
        if i == FAULT_ELEM
            && fires
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| left.checked_sub(1))
                .is_ok()
        {
            panic!("service_soak: injected transient block fault");
        }
        (i as u64).wrapping_mul(31).wrapping_add(7)
    })
}

/// Submit shape `shape`'s pipeline. With a shared planner the plan
/// comes from the tenant's warm cache; without one (`--no-plan-cache`)
/// every request plans from a cold single-slot planner — the A/B
/// baseline that pays the optimizer on every submission.
fn submit_one(
    svc: &Service,
    tenant: bds_service::Tenant,
    planner: Option<&TenantPlanner>,
    name: &str,
    budget: Budget,
    shape: u64,
    fault: bool,
) -> Result<Ticket<u64>, Rejected> {
    let pipe = if fault { build_faulted_pipe() } else { build_pipe(shape) };
    match planner {
        Some(p) => submit_reduce(svc, tenant, p, budget, pipe, 0, |a, b| a.wrapping_add(b)),
        None => {
            let cold = TenantPlanner::new(svc, name, 1);
            submit_reduce(svc, tenant, &cold, budget, pipe, 0, |a, b| a.wrapping_add(b))
        }
    }
}

/// One in-flight request as the driver tracks it.
struct Outstanding {
    submitted_at: Instant,
    tight: bool,
    expected: u64,
    ticket: Ticket<u64>,
}

struct DriverOut {
    latencies_s: Vec<f64>,
    violations: Vec<String>,
}

/// Drive one tenant: keep [`WINDOW`] requests outstanding until `stop`,
/// then drain. Latency is measured submit-to-response, so it includes
/// queueing — the number a caller of the service would see.
fn drive(
    svc: &Service,
    name: &str,
    planner: Option<&TenantPlanner>,
    stop: &AtomicBool,
    high_water: &AtomicU64,
    faulted: &AtomicU64,
) -> DriverOut {
    let tenant = svc.tenant(name);
    let expected = expected_values();
    let mut window: VecDeque<Outstanding> = VecDeque::with_capacity(WINDOW);
    let mut out = DriverOut {
        latencies_s: Vec::new(),
        violations: Vec::new(),
    };
    let mut k = 0u64;
    let mut shape0_subs = 0u64;
    let flag = |violations: &mut Vec<String>, msg: String| {
        if violations.len() < 64 {
            violations.push(format!("tenant {name}: {msg}"));
        }
    };
    loop {
        let draining = stop.load(Ordering::Relaxed);
        if !draining && window.len() < WINDOW {
            let tight = k % TIGHT_EVERY == TIGHT_EVERY - 1;
            let budget = if tight {
                Budget::unlimited().with_deadline(TIGHT_DEADLINE)
            } else {
                Budget::unlimited()
            };
            let shape = k % SHAPES;
            k += 1;
            // Every `FAULT_EVERY / SHAPES`-th shape-0 submission carries
            // the transient fault (tight requests never land on shape 0,
            // so a faulted request is never deliberately deadline-tripped
            // and must deliver its full value).
            let fault = !tight && shape == 0 && {
                shape0_subs += 1;
                (shape0_subs - 1).is_multiple_of(FAULT_EVERY / SHAPES)
            };
            match submit_one(svc, tenant, planner, name, budget, shape, fault) {
                Ok(ticket) => {
                    if fault {
                        faulted.fetch_add(1, Ordering::Relaxed);
                    }
                    window.push_back(Outstanding {
                        submitted_at: Instant::now(),
                        tight,
                        expected: expected[(shape % SHAPES) as usize],
                        ticket,
                    });
                    // Track the fleet-wide concurrent high water mark
                    // (outstanding = accepted and not yet resolved).
                    let total: u64 = window.len() as u64;
                    let mut seen = high_water.load(Ordering::Relaxed);
                    while total > seen {
                        match high_water.compare_exchange_weak(
                            seen,
                            total,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => break,
                            Err(cur) => seen = cur,
                        }
                    }
                    continue;
                }
                Err(Rejected::Deadline) if tight => continue, // clean fail-fast
                Err(Rejected::QueueFull) => {
                    // Transient backpressure: fall through and retire
                    // the oldest request before re-offering.
                }
                Err(other) => {
                    flag(&mut out.violations, format!("unexpected rejection: {other:?}"));
                    continue;
                }
            }
        }
        let Some(oldest) = window.pop_front() else {
            if draining {
                return out;
            }
            continue;
        };
        let response = oldest.ticket.wait();
        out.latencies_s
            .push(oldest.submitted_at.elapsed().as_secs_f64());
        match response {
            Ok(v) if v == oldest.expected => {}
            Ok(v) => flag(
                &mut out.violations,
                format!(
                    "partial/corrupt value: got {v:#x}, want {:#x}",
                    oldest.expected
                ),
            ),
            Err(ServiceError::Exceeded(Exceeded::Deadline)) if oldest.tight => {}
            Err(e) => flag(&mut out.violations, format!("unexpected error: {e}")),
        }
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    // Crash injection unwinds workers with sentinel panics; the default
    // hook would print a backtrace for each. Silence it for the run.
    std::panic::set_hook(Box::new(|_| {}));

    let seconds: u64 = arg_value("--seconds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(30)
        .max(1);
    let procs: usize = arg_value("--procs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(2);
    let plan_cache = !has_flag("--no-plan-cache");

    let svc = Service::new(ServiceConfig {
        workers: procs,
        // Deep enough that a full driver window fits queued; QueueFull
        // then only appears transiently, as designed backpressure.
        queue_capacity: 2 * WINDOW,
        max_concurrent: 2 * procs,
        quantum: 1,
        breaker: bds_service::BreakerConfig::default(),
        cold_start_work: bds_service::DEFAULT_COLD_START_WORK,
    });
    // Every tenant runs under the default retry policy: transient block
    // faults are absorbed by block-granular retry instead of striking
    // the breaker or surfacing as panics.
    for &name in TENANTS.iter() {
        let t = svc.tenant(name);
        svc.set_tenant_retry(t, Some(RetryPolicy::default()));
    }
    let trips_before = trip_counts();
    let recovery_before = recovery_counts();
    let planners: Option<Vec<TenantPlanner>> = plan_cache.then(|| {
        TENANTS
            .iter()
            .map(|&name| TenantPlanner::new(&svc, name, PLAN_CAPACITY))
            .collect()
    });

    eprintln!(
        "service_soak: {seconds}s, {} tenants x {WINDOW} outstanding on {procs} workers, \
         crash every 250 ms, plan cache {}",
        TENANTS.len(),
        if plan_cache { "on" } else { "OFF" },
    );

    let stop = AtomicBool::new(false);
    let high_water = AtomicU64::new(0);
    let crashes = AtomicU64::new(0);
    let faulted = AtomicU64::new(0);
    let started = Instant::now();
    let outs: Vec<DriverOut> = std::thread::scope(|scope| {
        let chaos = scope.spawn(|| {
            let mut k = 0usize;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(250));
                svc.inject_worker_crash(k % procs);
                crashes.fetch_add(1, Ordering::Relaxed);
                k += 1;
            }
        });
        let (svc, stop, high_water, faulted) = (&svc, &stop, &high_water, &faulted);
        let planners = &planners;
        let drivers: Vec<_> = TENANTS
            .iter()
            .enumerate()
            .map(|(i, &name)| {
                let planner = planners.as_ref().map(|ps| &ps[i]);
                scope.spawn(move || drive(svc, name, planner, stop, high_water, faulted))
            })
            .collect();
        std::thread::sleep(Duration::from_secs(seconds));
        stop.store(true, Ordering::Relaxed);
        let outs = drivers.into_iter().map(|d| d.join().unwrap()).collect();
        chaos.join().unwrap();
        outs
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut failures: Vec<String> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    for out in outs {
        failures.extend(out.violations);
        latencies.extend(out.latencies_s);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());

    // Quiescent ledger: every driver has drained its window, so per
    // tenant everything submitted was either rejected at admission or
    // delivered through its ticket.
    let stats = svc.stats();
    let mut tenant_completions: Vec<(String, u64, u64)> = Vec::new();
    let mut submitted = 0u64;
    let mut completed = 0u64;
    let mut rejected = 0u64;
    for t in &stats.tenants {
        if t.submitted != t.completed + t.rejected() {
            failures.push(format!(
                "tenant {}: ledger out of balance: {} submitted != {} completed + {} rejected",
                t.name,
                t.submitted,
                t.completed,
                t.rejected(),
            ));
        }
        if t.admitted != t.completed {
            failures.push(format!(
                "tenant {}: lost responses: {} admitted but {} completed",
                t.name, t.admitted, t.completed,
            ));
        }
        submitted += t.submitted;
        completed += t.completed;
        rejected += t.rejected();
        tenant_completions.push((t.name.clone(), t.completed, t.block_retries));
    }

    // Fairness: with identical offered load, each tenant's completion
    // share must be within 2x of fair share, both bounds.
    let fair = completed as f64 / TENANTS.len() as f64;
    for (name, done, _) in &tenant_completions {
        let share = *done as f64;
        if share < fair / 2.0 || share > fair * 2.0 {
            failures.push(format!(
                "tenant {name} starved or hogged: {share} completions vs fair share {fair:.0}"
            ));
        }
    }

    let concurrent_per_tenant = high_water.load(Ordering::Relaxed);
    // Each driver independently reached its high water; the fleet claim
    // (>= 1k concurrent) holds when every window filled at least once.
    if concurrent_per_tenant < WINDOW as u64 {
        failures.push(format!(
            "offered concurrency never reached the target: per-tenant high water \
             {concurrent_per_tenant} < {WINDOW}"
        ));
    }
    if stats.respawns == 0 && crashes.load(Ordering::Relaxed) > 0 {
        failures.push("crashes were injected but no worker respawned".into());
    }

    // Recovery claim: every admitted faulted request was salvaged by a
    // block retry — never quarantined, never lost (the ledger above
    // already proves delivery; the no-partial claim proves the value).
    let recovery = RecoveryCounters::from(recovery_counts().saturating_sub(&recovery_before));
    let admitted_faulted = faulted.load(Ordering::Relaxed);
    let tenant_block_retries: u64 = stats.tenants.iter().map(|t| t.block_retries).sum();
    if recovery.quarantines != 0 {
        failures.push(format!(
            "transient faults must never quarantine: {} quarantines over the run",
            recovery.quarantines
        ));
    }
    if admitted_faulted > 0 && recovery.recovered_jobs == 0 {
        failures.push(format!(
            "{admitted_faulted} faulted requests admitted but zero recovered jobs — \
             block recovery dead"
        ));
    }

    // Plan-cache claim: with per-tenant caches on, each tenant pays the
    // optimizer once per shape and every later lookup (admitted or
    // rejected — planning precedes admission) must hit the cache.
    let mut plan = PlanCounters::default();
    for t in &stats.tenants {
        plan.hits += t.plan_hits;
        plan.misses += t.plan_misses;
        if plan_cache {
            match t.plan_hit_rate() {
                Some(r) if r >= 0.9 => {}
                r => failures.push(format!(
                    "tenant {}: plan-cache hit rate {} below the 0.9 floor",
                    t.name,
                    r.map(|x| format!("{x:.3}")).unwrap_or_else(|| "n/a".into()),
                )),
            }
        }
    }
    plan.entries = planners
        .as_ref()
        .map(|ps| ps.iter().map(|p| p.cache().len() as u64).sum())
        .unwrap_or(0);

    let trips = trip_counts();
    let gov = GovCounters {
        respawns: stats.respawns,
        deadline_trips: trips.deadline.saturating_sub(trips_before.deadline),
        mem_trips: trips.memory.saturating_sub(trips_before.memory),
    };
    let qps = completed as f64 / elapsed;
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };

    eprintln!(
        "service_soak: {submitted} submitted, {completed} completed, {rejected} rejected; \
         {:.0} qps, p50 {:.1} ms, p99 {:.1} ms; {} crashes, {} respawns, \
         trips: {} deadline / {} memory; plan cache: {} hits / {} misses ({:.3} hit rate)",
        qps,
        p50 * 1e3,
        p99 * 1e3,
        crashes.load(Ordering::Relaxed),
        gov.respawns,
        gov.deadline_trips,
        gov.mem_trips,
        plan.hits,
        plan.misses,
        plan.hit_rate(),
    );
    eprintln!(
        "service_soak: recovery: {admitted_faulted} faulted requests admitted, \
         {} block retries ({} per-tenant), {} recovered jobs, {} quarantines",
        recovery.block_retries,
        tenant_block_retries,
        recovery.recovered_jobs,
        recovery.quarantines,
    );

    if let Some(path) = arg_value("--json") {
        let mut rep = JsonReport::new("service_soak", &format!("{seconds}s"));
        rep.push(Record {
            op: "service_soak".into(),
            library: "service".into(),
            n: N,
            procs,
            policy: None,
            mean_s: mean,
            min_s: percentile(&latencies, 0.0),
            stddev_s: 0.0,
            repeats: latencies.len(),
            peak_bytes: 0,
            block_size: 0,
            num_blocks: 0,
            sched: Some(stats.total()),
            gov: Some(gov),
            svc: Some(SvcCounters {
                qps,
                p50_s: p50,
                p99_s: p99,
                submitted,
                completed,
                rejected,
                tenants: tenant_completions,
            }),
            plan: Some(plan),
            recovery: Some(recovery),
        });
        rep.write(&path).expect("writing service_soak JSON");
        eprintln!("service_soak: wrote {path}");
    }

    drop(svc);
    if failures.is_empty() {
        eprintln!("service_soak: clean shutdown, all claims held");
    } else {
        failures.truncate(32);
        for f in &failures {
            eprintln!("service_soak: VIOLATION: {f}");
        }
        std::process::exit(1);
    }
}
