//! The layer ledger: fixed probes that every traced run makes, whatever
//! its workload, timing calls into one layer at a time from outside.
//!
//! * The layer rungs: each served template, and one 2^20-element
//!   map→filter→reduce, alone through each successive public entry
//!   point (hand loop; static `bds-seq` in `Pool::install`;
//!   `Pipe::execute`; the same in `run_governed` + `run_recovered`;
//!   `Service::submit` + `Ticket::wait`).
//! * Scheduler, cost-model and plan-cache micro-probes.
//! * Every bulk pipeline at its benchmark size against its sequential
//!   reference, on 1 and 2 workers, and against its unfused `array`
//!   version.
//! * For the bulk workloads, a short served open loop, so the served
//!   path's spans and counters are in every traced run.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bds_plan::{Consumed, PlanShape, TenantPlanner};
use bds_pool::{run_governed, run_recovered, Pool, RetryPolicy};
use bds_seq::profile::profile_on;
use bds_seq::Seq;
use bds_service::{Budget, Service};

use crate::bulk::{self, Case, Pipeline, ALL, WORKERS};
use crate::report::Report;
use crate::rng::Rng;
use crate::served::{self, Consts, NAMES, TEMPLATES};
use crate::stats::median;
use crate::trace::Tracer;

/// Served open loop run by bulk workloads' traced runs.
const PROBE_SECS: f64 = 3.0;
/// Repetitions per rung at 4096 elements, and at 2^20.
const RUNG_REPS: usize = 200;
const BIG_RUNG_REPS: usize = 15;
/// Repetitions of each bulk pipeline variant.
const PIPE_REPS: usize = 3;
/// Elements per block of the block-overhead probe.
const OVERHEAD_PROBE_BLOCK: usize = 16;
/// Track of ledger spans in the trace viewer.
const TRACK: u32 = 2;
/// Operation ids of ledger spans start here, clear of bulk passes.
const OP_BASE: u64 = 1 << 40;

pub fn run(seed: u64, served_probe: bool, report: &mut Report, tracer: &mut Tracer) {
    // The traced phase's profiling refined the block-overhead estimate;
    // start every ledger from the same, unrefined calibration.
    bds_cost::calibrate::reset_block_overhead();
    cost(report);
    pool(report);
    rungs(seed, report, tracer);
    pipelines(seed, report, tracer);
    if served_probe {
        served::report_probe(seed, PROBE_SECS, report, tracer);
        report.line(format!(
            "svc.*, plan.hit_ratio and loadgen.* above come from a {PROBE_SECS} s served probe"
        ));
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of `batches` timings of `calls` calls each, per call, in ns.
fn per_call_ns(batches: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let xs: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for i in 0..calls {
                f(i);
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&xs)
}

fn cost(r: &mut Report) {
    let cal = bds_cost::calibration();
    r.layer("cost.ns_per_work", cal.ns_per_work);
    // The calibration learns per-block overhead only from profiled runs
    // whose blocks are nearly empty; make such runs, read the estimate,
    // and forget it again so the later probes see the default.
    let pool = Pool::new(WORKERS);
    {
        let _block = bds_seq::force_block_size(OVERHEAD_PROBE_BLOCK);
        for _ in 0..20 {
            profile_on(&pool, || {
                pool.install(|| {
                    bds_seq::tabulate(1 << 16, |i| i as u64).reduce(0, u64::wrapping_add)
                })
            });
        }
    }
    r.layer(
        "cost.block_overhead_ns",
        bds_cost::calibration().block_overhead_ns,
    );
    bds_cost::calibrate::reset_block_overhead();
    let solve = per_call_ns(20, 10_000, |i| {
        black_box(bds_cost::solve_geometry(
            black_box(4096 + i),
            bds_cost::SIMPLE,
            WORKERS,
            &cal,
        ));
    });
    r.layer("cost.solve_ns", solve);
}

fn pool(r: &mut Report) {
    let pool = Pool::new(WORKERS);
    pool.install(|| ());
    // Idle: the workers have had a millisecond to park since the last job.
    let install: Vec<f64> = (0..200)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(1));
            let start = Instant::now();
            pool.install(|| black_box(()));
            us(start.elapsed())
        })
        .collect();
    r.layer("pool.install_us", median(&install));
    let apply: Vec<f64> = (0..50)
        .map(|_| {
            pool.install(|| {
                let start = Instant::now();
                bds_pool::apply(1024, |i| {
                    black_box(i);
                });
                start.elapsed().as_nanos() as f64 / 1024.0
            })
        })
        .collect();
    r.layer("pool.apply_ns_per_block", median(&apply));
    let join = pool.install(|| {
        per_call_ns(20, 1000, |i| {
            black_box(bds_pool::join(|| black_box(i), || black_box(i + 1)));
        })
    });
    r.layer("pool.join_ns", join);
}

/// Median µs of one template at one size through every rung.
struct Rungs {
    hand: f64,
    seq: f64,
    pipe: f64,
    /// `Pipe::execute` inside `run_recovered` + `run_governed`.
    governed: f64,
    service: f64,
    submit: f64,
}

fn budget() -> Budget {
    Budget::unlimited().with_deadline(served::DEADLINE)
}

#[allow(clippy::too_many_arguments)]
fn measure_rungs(
    pool: &Pool,
    svc: &Service,
    tenant: bds_service::Tenant,
    t: usize,
    c: Consts,
    n: usize,
    reps: usize,
    r: &mut Report,
) -> Rungs {
    let expected = served::hand(t, c, n);
    let (pipe, consumer) = served::pipe(t, c, n);
    let plan = Arc::new(bds_plan::optimize(pipe.shape(consumer.kind()), WORKERS));
    let mut xs: [Vec<f64>; 6] = Default::default();
    let check = |r: &mut Report, out: Result<Consumed<u64>, String>| {
        let ok = out.and_then(|out| {
            if out == expected {
                Ok(())
            } else {
                Err("differs from the hand loop".into())
            }
        });
        r.outcome(NAMES[t], ok);
    };
    let exec = || pipe.execute(&plan, &consumer);
    for _ in 0..reps {
        let start = Instant::now();
        let out = black_box(served::hand(t, c, n));
        xs[0].push(us(start.elapsed()));
        check(r, Ok(out));

        let start = Instant::now();
        let out = pool.install(|| served::static_seq(t, c, n));
        xs[1].push(us(start.elapsed()));
        check(r, Ok(out));

        let start = Instant::now();
        let out = pool.install(exec);
        xs[2].push(us(start.elapsed()));
        check(r, Ok(out));

        let start = Instant::now();
        let out =
            pool.install(|| run_recovered(RetryPolicy::default(), || run_governed(budget(), exec)));
        xs[3].push(us(start.elapsed()));
        check(
            r,
            out.map_err(|e| e.to_string())
                .and_then(|o| o.map_err(|e| e.to_string())),
        );

        let (p, k) = served::pipe(t, c, n);
        let plan = Arc::clone(&plan);
        let start = Instant::now();
        let ticket = svc.submit(tenant, budget(), move || p.execute(&plan, &k));
        let submitted = Instant::now();
        let out = ticket
            .map_err(|e| e.to_string())
            .and_then(|t| t.wait().map_err(|e| e.to_string()));
        xs[4].push(us(start.elapsed()));
        xs[5].push(us(submitted - start));
        check(r, out);
    }
    let [hand, seq, pipe, governed, service, submit] = xs.map(|x| median(&x));
    Rungs {
        hand,
        seq,
        pipe,
        governed,
        service,
        submit,
    }
}

/// The governance and recovery regions around a trivial body, timed
/// inside an installed closure so only the wrapper is measured.
fn wrappers(pool: &Pool, r: &mut Report) {
    let (governed, recovered) = pool.install(|| {
        let governed = per_call_ns(20, 1000, |i| {
            black_box(run_governed(budget(), || black_box(i)).ok());
        });
        let recovered = per_call_ns(20, 1000, |i| {
            black_box(run_recovered(RetryPolicy::default(), || black_box(i)).ok());
        });
        (governed, recovered)
    });
    r.layer("govern.wrap_us", governed / 1e3);
    r.layer("recovery.wrap_us", recovered / 1e3);
}

fn rungs(seed: u64, r: &mut Report, tracer: &mut Tracer) {
    let pool = Pool::new(WORKERS);
    wrappers(&pool, r);
    let svc = Service::new(served::service_config());
    let tenant = svc.tenant("ledger");
    svc.set_tenant_retry(tenant, Some(RetryPolicy::default()));
    let mut rng = Rng::derive(seed, 200);
    let consts: Vec<Consts> = (0..TEMPLATES).map(|t| Consts::draw(t, &mut rng)).collect();
    let n = served::SIZES[0];
    r.line(format!(
        "layer rungs, median us at n={n}: template | hand loop | bds-seq in install | Pipe::execute | +governed+recovered | Service round trip"
    ));
    let mut sums = [0.0; 5];
    let mut first = None;
    for t in 0..TEMPLATES {
        let start = Instant::now();
        let m = measure_rungs(&pool, &svc, tenant, t, consts[t], n, RUNG_REPS, r);
        tracer.span(
            "rungs",
            OP_BASE + t as u64,
            None,
            TRACK,
            start,
            Instant::now(),
        );
        for (s, v) in sums
            .iter_mut()
            .zip([m.hand, m.seq, m.pipe, m.governed, m.service])
        {
            *s += v / TEMPLATES as f64;
        }
        r.line(format!(
            "  {:<24} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            NAMES[t], m.hand, m.seq, m.pipe, m.governed, m.service
        ));
        first.get_or_insert(m);
    }
    let m = first.expect("at least one template");
    for (name, v) in ["hand", "seq", "pipe", "governed", "service"]
        .iter()
        .zip(sums)
    {
        r.layer(&format!("ladder.{name}_us"), v);
    }
    r.layer("plan.erased_tax_4k", m.pipe / m.seq);
    r.layer("svc.roundtrip_us", m.service);
    r.layer("svc.submit_us", m.submit);

    let big = 1 << 20;
    let start = Instant::now();
    let b = measure_rungs(&pool, &svc, tenant, 0, consts[0], big, BIG_RUNG_REPS, r);
    tracer.span(
        "rungs",
        OP_BASE + TEMPLATES as u64,
        None,
        TRACK,
        start,
        Instant::now(),
    );
    r.layer("plan.erased_tax_1m", b.pipe / b.seq);
    r.line(format!(
        "  {:<24} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}   (n=2^20)",
        NAMES[0], b.hand, b.seq, b.pipe, b.governed, b.service
    ));

    let planner = TenantPlanner::new(&svc, "ledger", 2 * TEMPLATES);
    let shapes: Vec<PlanShape> = (0..TEMPLATES)
        .map(|t| {
            let (p, k) = served::pipe(t, consts[t], n);
            p.shape(k.kind())
        })
        .collect();
    for s in &shapes {
        planner.plan(s.clone());
    }
    let batch = |calls: usize| -> Vec<PlanShape> {
        (0..calls).map(|i| shapes[i % TEMPLATES].clone()).collect()
    };
    let timed_batches = |calls: usize, f: &dyn Fn(PlanShape)| -> f64 {
        let xs: Vec<f64> = (0..20)
            .map(|_| {
                let shapes = batch(calls);
                let start = Instant::now();
                for s in shapes {
                    f(s);
                }
                start.elapsed().as_nanos() as f64 / calls as f64
            })
            .collect();
        median(&xs)
    };
    r.layer(
        "plan.lookup_ns",
        timed_batches(1000, &|s| drop(black_box(planner.plan(s)))),
    );
    r.layer(
        "plan.optimize_us",
        timed_batches(100, &|s| drop(black_box(bds_plan::optimize(s, WORKERS)))) / 1e3,
    );
    served::retire(&svc);
}

/// A timed variant of a bulk pipeline: span name, pool, entry point.
type Variant<'a> = (&'static str, &'a Pool, fn(&Case) -> bulk::Output);

fn pipelines(seed: u64, r: &mut Report, tracer: &mut Tracer) {
    let p1 = Pool::new(1);
    let p2 = Pool::new(WORKERS);
    r.line("bulk pipelines, median ms: pipeline | sequential reference | 1 worker | 2 workers | array on 2 workers");
    for (i, p) in ALL.into_iter().enumerate() {
        let op = OP_BASE + 1 + (TEMPLATES + i) as u64;
        let root_start = Instant::now();
        let case = Case::new(p, seed, &p2);
        let mut xs: [Vec<f64>; 5] = Default::default();
        let mut spans = Vec::new();
        for _ in 0..PIPE_REPS {
            let start = Instant::now();
            let out = case.reference();
            xs[0].push(start.elapsed().as_secs_f64());
            spans.push(("kernel", start, Instant::now()));
            r.outcome(p.name(), case.check(&out));
            drop(out);
            let variants: [Variant; 3] = [
                ("p1", &p1, Case::run),
                ("p2", &p2, Case::run),
                ("array", &p2, Case::run_array),
            ];
            for (i, (name, pool, f)) in variants.into_iter().enumerate() {
                let start = Instant::now();
                let (s, _, ok) = bulk::timed(pool, &case, f);
                spans.push((name, start, Instant::now()));
                xs[i + 1].push(s);
                r.outcome(p.name(), ok);
            }
            if p == Pipeline::Wc {
                let start = Instant::now();
                let (s, _, ok) = bulk::timed(&p1, &case, Case::run_scalar_wc);
                spans.push(("scalar_p1", start, Instant::now()));
                xs[4].push(s);
                r.outcome(p.name(), ok);
            }
        }
        let root = tracer.span(p.name(), op, None, TRACK, root_start, Instant::now());
        for (name, a, b) in spans {
            tracer.span(name, op, Some(root), TRACK, a, b);
        }
        let [kernel, one, two, array, scalar] =
            xs.map(|x| if x.is_empty() { 0.0 } else { median(&x) });
        let per_elem = 1e9 / case.elements as f64;
        let name = p.name();
        r.layer(&format!("kernel.{name}.ns_per_elem"), kernel * per_elem);
        r.layer(&format!("seq.{name}.ns_per_elem_p1"), one * per_elem);
        r.layer(&format!("seq.{name}.tax_ratio"), one / kernel);
        r.layer(&format!("seq.{name}.speedup_p2"), one / two);
        r.layer(&format!("baseline.{name}.array_over_delay"), array / two);
        if p == Pipeline::Wc {
            r.layer("simd.wc_speedup_p1", scalar / one);
        }
        r.line(format!(
            "  {name:<12} {:>9.2} {:>9.2} {:>9.2} {:>9.2}   ({} elements)",
            kernel * 1e3,
            one * 1e3,
            two * 1e3,
            array * 1e3,
            case.elements
        ));
    }
}
