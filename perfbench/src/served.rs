//! The served workload: four equal-weight tenants submit small planned
//! pipelines through `TenantPlanner::plan` + `Service::submit`.
//!
//! Requests are drawn from a catalog of eight pipeline templates, each
//! written three ways: a hand-written loop (which is also the oracle
//! every response is checked against), static `bds-seq` combinators,
//! and a `bds-plan` `Pipe`. Sizes are mostly 4096 with a tail to 2^16,
//! and every tenant sees more distinct shapes (template × size class)
//! than its plan cache holds, drawn with skew.
//!
//! One sender thread drives the load, sleeping between sends. It parks
//! with a timeout until the next send is due and is unparked by the
//! waker of any ticket that resolves, so it never spins on the CPUs the
//! service runs on.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use bds_cost::SIMPLE;
use bds_plan::{Consumed, ConsumerOp, ExecMode, Pipe, TenantPlanner};
use bds_pool::RetryPolicy;
use bds_seq::map_with_index;
use bds_seq::prelude::*;
use bds_service::{Budget, Service, ServiceConfig, Tenant, Ticket};

use crate::bulk::WORKERS;
use crate::loadgen::Schedule;
use crate::phase::{Phase, STAGES};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{self, ratio};
use crate::trace::Tracer;

const TENANTS: usize = 4;
pub const TEMPLATES: usize = 8;
pub const SIZES: [usize; 5] = [1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16];
const SIZE_WEIGHTS: [f64; 5] = [0.92, 0.03, 0.025, 0.015, 0.01];
/// Template popularity by rank (Zipf, exponent 1).
const RANK_WEIGHTS: [f64; TEMPLATES] = [
    1.0,
    1.0 / 2.0,
    1.0 / 3.0,
    1.0 / 4.0,
    1.0 / 5.0,
    1.0 / 6.0,
    1.0 / 7.0,
    1.0 / 8.0,
];
/// Plans each tenant's cache holds: fewer than its 40 shapes.
const PLAN_CAPACITY: usize = 8;
/// Service pool admission: two requests per worker.
const MAX_CONCURRENT: usize = 2 * WORKERS;
/// Open-loop rate, fixed: about 40% of the closed-loop capacity of the
/// stack when this benchmark was introduced, on a 2-CPU host.
const RATE: f64 = 4800.0;
/// Outstanding requests in the saturated closed loop: enough that the
/// service keeps a backlog while the sender is descheduled.
const WINDOW: usize = 64;
/// Time slice over which the saturated loop's throughput is taken
/// before averaging the middle half of the slices: a burst of
/// interference (a descheduled virtual CPU) slows the slices it falls
/// in, which then drop out with the slowest quarter.
const SLICE: Duration = Duration::from_millis(10);
/// Shares of the run spent in the open loop and in the unloaded
/// (one outstanding request) closed loop; the rest is the saturated
/// closed loop.
const OPEN_SHARE: f64 = 0.3;
const UNLOADED_SHARE: f64 = 0.3;
/// Generous per-request deadline: far above any latency seen, so it
/// only fires if the service stalls.
pub const DEADLINE: Duration = Duration::from_secs(1);
/// Requests sent, checked and discarded during set-up.
const WARMUP: usize = 2000;

pub const NAMES: [&str; TEMPLATES] = [
    "map_filter_reduce",
    "map_count",
    "filter_map_collect",
    "scan_map_max",
    "scan_incl_count",
    "gather_map_collect",
    "filter_map_reduce",
    "map_idx_filter_collect",
];

/// Filter moduli per template: fixed, so the work a template does (its
/// selectivity) does not depend on the seed.
const MODULI: [u64; TEMPLATES] = [5, 4, 3, 6, 7, 5, 4, 3];

/// Constants one tenant's template is instantiated with. The seed picks
/// the values; the amount of work is fixed by the template.
#[derive(Clone, Copy, Debug)]
pub struct Consts {
    a: u64,
    b: u64,
    m: u64,
    s: u32,
}

impl Consts {
    pub fn draw(template: usize, rng: &mut Rng) -> Consts {
        Consts {
            a: rng.next_u64() | 1,
            b: rng.next_u64(),
            m: MODULI[template],
            s: rng.range(7, 29) as u32,
        }
    }
}

fn src(c: Consts, i: usize) -> u64 {
    (i as u64).wrapping_mul(c.a).wrapping_add(c.b)
}
fn small(c: Consts, i: usize) -> u64 {
    src(c, i) >> 56
}
fn mix(c: Consts, x: u64) -> u64 {
    x ^ (x >> c.s)
}
fn keep(c: Consts, x: u64) -> bool {
    !x.is_multiple_of(c.m)
}
fn add(a: u64, b: u64) -> u64 {
    a.wrapping_add(b)
}
fn max(a: u64, b: u64) -> u64 {
    a.max(b)
}

/// Template `t` as a hand-written sequential loop: the bar for the
/// layer rungs and the oracle for every served response.
pub fn hand(t: usize, c: Consts, n: usize) -> Consumed<u64> {
    use Consumed::*;
    match t {
        0 => Scalar(
            (0..n)
                .map(|i| mix(c, src(c, i)))
                .filter(|&x| keep(c, x))
                .fold(0, add),
        ),
        1 => Num((0..n)
            .map(|i| mix(c, src(c, i)))
            .filter(|&x| keep(c, x))
            .count()),
        2 => Vec((0..n)
            .map(|i| src(c, i))
            .filter(|&x| keep(c, x))
            .map(|x| mix(c, x))
            .collect()),
        3 => Scalar(
            (0..n)
                .scan(0u64, |acc, i| {
                    let before = *acc;
                    *acc = add(*acc, small(c, i));
                    Some(before)
                })
                .map(|x| mix(c, x))
                .fold(0, max),
        ),
        4 => Num((0..n)
            .scan(0u64, |acc, i| {
                *acc = add(*acc, small(c, i));
                Some(*acc)
            })
            .filter(|&x| keep(c, x))
            .count()),
        5 => Vec((0..n)
            .rev()
            .skip(n / 8)
            .take(n / 2)
            .map(|i| mix(c, src(c, i)))
            .collect()),
        6 => Scalar(
            (0..n)
                .filter_map(|i| {
                    let x = src(c, i);
                    keep(c, x).then(|| mix(c, x))
                })
                .fold(0, add),
        ),
        _ => Vec((0..n)
            .map(|i| src(c, i) ^ i as u64)
            .filter(|&x| keep(c, x))
            .collect()),
    }
}

/// Template `t` through static `bds-seq` combinators, on the ambient
/// pool.
pub fn static_seq(t: usize, c: Consts, n: usize) -> Consumed<u64> {
    use Consumed::*;
    let source = move |i| src(c, i);
    let keep = move |x: &u64| keep(c, *x);
    let mix = move |x| mix(c, x);
    match t {
        0 => Scalar(tabulate(n, source).map(mix).filter(keep).reduce(0, add)),
        1 => Num(tabulate(n, source).map(mix).count(keep)),
        2 => Vec(tabulate(n, source).filter(keep).map(mix).to_vec()),
        3 => {
            let (prefix, _) = tabulate(n, move |i| small(c, i)).scan(0, add);
            Scalar(prefix.map(mix).reduce(0, max))
        }
        4 => Num(tabulate(n, move |i| small(c, i))
            .scan_incl(0, add)
            .count(keep)),
        5 => Vec(tabulate(n, source)
            .rev()
            .skip(n / 8)
            .take(n / 2)
            .map(mix)
            .to_vec()),
        6 => Scalar(
            tabulate(n, source)
                .filter_op(move |x| keep(&x).then(|| mix(x)))
                .reduce(0, add),
        ),
        _ => Vec(map_with_index(tabulate(n, source), |i, x| x ^ i as u64)
            .filter(keep)
            .to_vec()),
    }
}

/// Template `t` as an erased `bds-plan` pipeline and its consumer.
pub fn pipe(t: usize, c: Consts, n: usize) -> (Pipe<u64>, ConsumerOp<u64>) {
    let source = move |i| src(c, i);
    let keep = move |x: &u64| keep(c, *x);
    let mix = move |x| mix(c, x);
    let reduce = |f: fn(u64, u64) -> u64| ConsumerOp::Reduce(0, Arc::new(f), SIMPLE);
    let count = ConsumerOp::Count(Arc::new(keep), SIMPLE);
    match t {
        0 => (Pipe::tabulate(n, source).map(mix).filter(keep), reduce(add)),
        1 => (Pipe::tabulate(n, source).map(mix), count),
        2 => (
            Pipe::tabulate(n, source).filter(keep).map(mix),
            ConsumerOp::Collect,
        ),
        3 => (
            Pipe::tabulate(n, move |i| small(c, i))
                .scan(0, add)
                .map(mix),
            reduce(max),
        ),
        4 => (
            Pipe::tabulate(n, move |i| small(c, i)).scan_incl(0, add),
            count,
        ),
        5 => (
            Pipe::tabulate(n, source)
                .rev()
                .skip(n / 8)
                .take(n / 2)
                .map(mix),
            ConsumerOp::Collect,
        ),
        6 => (
            Pipe::tabulate(n, source).filter_map(move |x| keep(&x).then(|| mix(x))),
            reduce(add),
        ),
        _ => (
            Pipe::tabulate(n, source)
                .map_idx(|i, x| x ^ i as u64)
                .filter(keep),
            ConsumerOp::Collect,
        ),
    }
}

pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        max_concurrent: MAX_CONCURRENT,
        ..ServiceConfig::default()
    }
}

/// A request of the served sequence.
#[derive(Clone, Copy, Debug)]
struct Req {
    tenant: usize,
    template: usize,
    size: usize,
}

/// What a request's closure hands back: the pipeline's answer and when
/// the closure ran.
struct Done {
    out: Consumed<u64>,
    start: Instant,
    end: Instant,
}

/// A sent request awaiting its ticket.
struct Pending {
    req: Req,
    marks: Marks,
    ticket: Ticket<Done>,
}

/// The instants that bound one request's spans.
#[derive(Clone, Copy, Debug)]
struct Marks {
    /// Position in its loop's send sequence.
    k: u64,
    due: Instant,
    /// The sender started on it.
    sent: Instant,
    /// Its `Pipe` was built.
    built: Instant,
    /// `TenantPlanner::plan` returned.
    planned: Instant,
    /// `Service::submit` returned.
    submitted: Instant,
    /// The request closure started and ended on a worker.
    exec_start: Instant,
    exec_end: Instant,
    /// The sender saw the ticket resolved.
    resolved: Instant,
}

/// One finished request, kept by traced runs.
#[derive(Clone, Copy, Debug)]
struct Record {
    marks: Marks,
    template: usize,
    n: usize,
    ok: bool,
    /// Sent by the open loop (the served-path percentiles use these).
    open: bool,
}

pub struct Served {
    svc: Service,
    tenants: Vec<Tenant>,
    planners: Vec<TenantPlanner>,
    consts: Vec<[Consts; TEMPLATES]>,
    /// Per tenant, templates in popularity order (fixed, not seeded).
    ranking: Vec<[usize; TEMPLATES]>,
    expected: Vec<Consumed<u64>>,
    stream: Rng,
    waker: Waker,
    /// Sequential-mode plans among requests sent.
    sequential: u64,
    sent: u64,
    sent_elements: u64,
    /// `queued()` and `inflight()` summed at each open-loop send.
    gauges: (f64, f64, u64),
    heap: HeapWindows,
}

/// Peak extra heap per window of [`HEAP_WINDOW`], over a baseline
/// taken when measurement starts.
struct HeapWindows {
    baseline: usize,
    window_start: Instant,
    windows: Vec<f64>,
}

const HEAP_WINDOW: Duration = Duration::from_millis(50);

impl HeapWindows {
    fn start(&mut self) {
        self.baseline = bds_metrics::heap_stats().live;
        bds_metrics::reset_peak();
        self.window_start = Instant::now();
        self.windows.clear();
    }

    /// Close the current window if it has run its length.
    fn sample(&mut self) {
        if self.window_start.elapsed() >= HEAP_WINDOW {
            let peak = bds_metrics::heap_stats().peak.saturating_sub(self.baseline);
            self.windows.push(peak as f64 / (1 << 20) as f64);
            bds_metrics::reset_peak();
            self.window_start = Instant::now();
        }
    }

    fn median_mib(&self) -> f64 {
        if self.windows.is_empty() {
            0.0
        } else {
            stats::median(&self.windows)
        }
    }
}

/// Have the kernel end this thread's timed sleeps within a microsecond
/// rather than the default 50 µs timer slack, so the open-loop sender
/// keeps to its schedule.
fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, ...) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only
        // changes the calling thread's timer slack.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1u64);
        }
    }
}

struct Unpark(std::thread::Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

fn expected_index(tenant: usize, template: usize, size: usize) -> usize {
    (tenant * TEMPLATES + template) * SIZES.len() + size
}

impl Served {
    /// Constants, oracle answers, the service and planners, calibration,
    /// and `WARMUP` checked requests.
    pub fn setup(seed: u64, report: &mut Report) -> Served {
        let mut rng = Rng::derive(seed, 100);
        let consts: Vec<[Consts; TEMPLATES]> = (0..TENANTS)
            .map(|_| std::array::from_fn(|t| Consts::draw(t, &mut rng)))
            .collect();
        // Tenant k favours template 2k most, then the rest in order.
        let ranking = (0..TENANTS)
            .map(|k| std::array::from_fn(|rank| (rank + 2 * k) % TEMPLATES))
            .collect();
        let mut expected = Vec::new();
        for tenant in consts.iter() {
            for (t, c) in tenant.iter().enumerate() {
                expected.extend(SIZES.iter().map(|&n| hand(t, *c, n)));
            }
        }
        bds_cost::calibration();
        let svc = Service::new(service_config());
        let names: Vec<String> = (0..TENANTS).map(|k| format!("tenant{k}")).collect();
        let tenants: Vec<Tenant> = names.iter().map(|name| svc.tenant(name)).collect();
        for &t in &tenants {
            svc.set_tenant_retry(t, Some(RetryPolicy::default()));
        }
        let planners = names
            .iter()
            .map(|name| TenantPlanner::new(&svc, name, PLAN_CAPACITY))
            .collect();
        let mut s = Served {
            svc,
            tenants,
            planners,
            consts,
            ranking,
            expected,
            stream: Rng::derive(seed, 101),
            waker: Waker::from(Arc::new(Unpark(std::thread::current()))),
            sequential: 0,
            sent: 0,
            sent_elements: 0,
            gauges: (0.0, 0.0, 0),
            heap: HeapWindows {
                baseline: 0,
                window_start: Instant::now(),
                windows: Vec::new(),
            },
        };
        s.closed_loop(WINDOW, Duration::ZERO, Some(WARMUP), report, None);
        s.sequential = 0;
        s.sent = 0;
        s.sent_elements = 0;
        s
    }

    fn next_req(&mut self) -> Req {
        let tenant = self.stream.below(TENANTS as u64) as usize;
        let rank = self.stream.weighted(&RANK_WEIGHTS);
        Req {
            tenant,
            template: self.ranking[tenant][rank],
            size: self.stream.weighted(&SIZE_WEIGHTS),
        }
    }

    /// Build, plan and submit one request. A rejected request resolves
    /// at once as a failure.
    fn send(&mut self, req: Req, k: u64, due: Instant, report: &mut Report) -> Option<Pending> {
        let sent = Instant::now();
        let (pipe, consumer) = pipe(
            req.template,
            self.consts[req.tenant][req.template],
            SIZES[req.size],
        );
        let built = Instant::now();
        let plan = self.planners[req.tenant].plan(pipe.shape(consumer.kind()));
        let planned = Instant::now();
        self.sent += 1;
        self.sent_elements += SIZES[req.size] as u64;
        self.sequential += u64::from(plan.mode == ExecMode::Sequential);
        let submitted = self.svc.submit(
            self.tenants[req.tenant],
            Budget::unlimited().with_deadline(DEADLINE),
            move || {
                let start = Instant::now();
                let out = pipe.execute(&plan, &consumer);
                Done {
                    out,
                    start,
                    end: Instant::now(),
                }
            },
        );
        let marks = Marks {
            k,
            due,
            sent,
            built,
            planned,
            submitted: Instant::now(),
            exec_start: sent,
            exec_end: sent,
            resolved: sent,
        };
        match submitted {
            Ok(ticket) => Some(Pending { req, marks, ticket }),
            Err(rejected) => {
                report.outcome("served request", Err(format!("rejected: {rejected}")));
                None
            }
        }
    }

    /// Poll a fresh ticket once so its waker can unpark the sender; a
    /// request that already resolved is finished at once.
    fn launch(
        &mut self,
        req: Req,
        k: u64,
        due: Instant,
        pending: &mut Vec<Pending>,
        report: &mut Report,
        done: &mut impl FnMut(Req, Marks, bool),
    ) {
        let Some(mut p) = self.send(req, k, due, report) else {
            let mut marks = Marks::at(k, due);
            marks.resolved = Instant::now();
            done(req, marks, false);
            return;
        };
        let mut cx = Context::from_waker(&self.waker);
        match Pin::new(&mut p.ticket).poll(&mut cx) {
            Poll::Pending => pending.push(p),
            Poll::Ready(resp) => {
                let (marks, ok) = self.finish(p.req, p.marks, resp, report);
                done(p.req, marks, ok);
            }
        }
    }

    /// Check one resolved request against the oracle and complete its
    /// marks.
    fn finish(
        &self,
        req: Req,
        mut marks: Marks,
        resp: bds_service::Response<Done>,
        report: &mut Report,
    ) -> (Marks, bool) {
        marks.resolved = Instant::now();
        let checked = match resp {
            Ok(done) => {
                marks.exec_start = done.start;
                marks.exec_end = done.end;
                if done.out == self.expected[expected_index(req.tenant, req.template, req.size)] {
                    Ok(())
                } else {
                    Err(format!(
                        "{} response differs from the oracle",
                        NAMES[req.template]
                    ))
                }
            }
            Err(e) => Err(format!("{} failed: {e}", NAMES[req.template])),
        };
        let ok = checked.is_ok();
        report.outcome("served request", checked);
        (marks, ok)
    }

    /// Finish every request whose ticket has resolved.
    fn harvest(
        &self,
        pending: &mut Vec<Pending>,
        report: &mut Report,
        done: &mut impl FnMut(Req, Marks, bool),
    ) {
        let mut i = 0;
        while i < pending.len() {
            if pending[i].ticket.is_ready() {
                let Pending { req, marks, ticket } = pending.swap_remove(i);
                let (marks, ok) = self.finish(req, marks, ticket.wait(), report);
                done(req, marks, ok);
            } else {
                i += 1;
            }
        }
    }

    /// Send at [`RATE`] for `seconds`, whatever the service does. Pushes
    /// each request's latency from its due time (ms; a failed request is
    /// infinitely late) and the sender's lateness (ms).
    fn open_loop(
        &mut self,
        seconds: f64,
        latency: &mut Vec<f64>,
        lateness: &mut Vec<f64>,
        report: &mut Report,
        mut records: Option<&mut Vec<Record>>,
    ) {
        tighten_timer_slack();
        let total = (seconds * RATE) as u64;
        let reqs: Vec<Req> = (0..total).map(|_| self.next_req()).collect();
        let mut pending = Vec::with_capacity(64);
        let sched = Schedule::new(Instant::now(), RATE);
        let mut done = |req: Req, m: Marks, ok: bool| {
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            latency.push(if ok {
                ms(sched.latency(m.k, m.resolved))
            } else {
                f64::INFINITY
            });
            lateness.push(ms(sched.lateness(m.k, m.sent)));
            if let Some(r) = records.as_deref_mut() {
                r.push(Record::new(req, m, ok, true));
            }
        };
        let mut k = 0;
        loop {
            self.heap.sample();
            self.harvest(&mut pending, report, &mut done);
            while k < total && sched.due(k) <= Instant::now() {
                self.gauges.0 += self.svc.queued() as f64;
                self.gauges.1 += self.svc.inflight() as f64;
                self.gauges.2 += 1;
                self.launch(
                    reqs[k as usize],
                    k,
                    sched.due(k),
                    &mut pending,
                    report,
                    &mut done,
                );
                k += 1;
            }
            if k < total {
                let wait = sched.due(k).saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::park_timeout(wait);
                }
            } else if pending.is_empty() {
                break;
            } else {
                std::thread::park_timeout(IDLE_PARK);
            }
        }
    }

    /// Keep `window` requests outstanding for `dur`, or until `count`
    /// requests were sent. Returns what completed correctly within
    /// `dur`: the count, the input elements per [`SLICE`], and each
    /// request's send-to-resolved latency in ms (a failed request is
    /// infinitely late).
    fn closed_loop(
        &mut self,
        window: usize,
        dur: Duration,
        count: Option<usize>,
        report: &mut Report,
        mut records: Option<&mut Vec<Record>>,
    ) -> Closed {
        let start = Instant::now();
        let end = start + dur;
        let slices = (dur.as_nanos() / SLICE.as_nanos()) as usize;
        let mut out = Closed {
            completed: 0,
            elements: vec![0; slices],
            latency: Vec::new(),
        };
        let mut done = |req: Req, m: Marks, ok: bool| {
            let slice = (m.resolved.saturating_duration_since(start).as_nanos() / SLICE.as_nanos())
                as usize;
            if slice < slices {
                let ms = (m.resolved - m.due).as_secs_f64() * 1e3;
                out.latency.push(if ok { ms } else { f64::INFINITY });
                if ok {
                    out.completed += 1;
                    out.elements[slice] += SIZES[req.size] as u64;
                }
            }
            if let Some(r) = records.as_deref_mut() {
                r.push(Record::new(req, m, ok, false));
            }
        };
        let mut pending = Vec::with_capacity(window);
        let mut k = 0u64;
        loop {
            self.heap.sample();
            self.harvest(&mut pending, report, &mut done);
            let sending = match count {
                Some(c) => (k as usize) < c,
                None => Instant::now() < end,
            };
            if sending {
                while pending.len() < window && count.is_none_or(|c| (k as usize) < c) {
                    let req = self.next_req();
                    self.launch(req, k, Instant::now(), &mut pending, report, &mut done);
                    k += 1;
                }
            } else if pending.is_empty() {
                break;
            }
            std::thread::park_timeout(IDLE_PARK);
        }
        out
    }

    /// The timed run: an open loop at [`RATE`], then a closed loop with
    /// one request outstanding (unloaded latency), then a closed loop of
    /// [`WINDOW`] outstanding requests (throughput). With a tracer, also
    /// reports the layer counters and per-request spans.
    ///
    /// The gated latencies come from the unloaded loop: a descheduled
    /// virtual CPU delays the one request in flight there, while in the
    /// open loop it backs up every request due during the stall.
    pub fn measure(&mut self, seconds: f64, report: &mut Report, tracer: Option<&mut Tracer>) {
        let open_secs = seconds * OPEN_SHARE;
        let unloaded = Duration::from_secs_f64(seconds * UNLOADED_SHARE);
        let saturated = Duration::from_secs_f64(seconds * (1.0 - OPEN_SHARE - UNLOADED_SHARE));
        let expect = (open_secs * RATE) as usize + 16;
        let (mut latency, mut lateness) = (Vec::with_capacity(expect), Vec::with_capacity(expect));
        let mut records = tracer.is_some().then(|| Vec::with_capacity(expect * 8));
        let before = self.svc.stats();
        let phase = tracer.is_some().then(|| Phase::begin(self.svc.stats()));
        self.heap.start();
        let mut run = |s: &mut Served| {
            s.open_loop(
                open_secs,
                &mut latency,
                &mut lateness,
                report,
                records.as_mut(),
            );
            let one = s.closed_loop(1, unloaded, None, report, records.as_mut());
            let many = s.closed_loop(WINDOW, saturated, None, report, records.as_mut());
            (one, many)
        };
        // Profiling feeds block-overhead observations back into the
        // calibration, so only traced runs profile.
        let ((one, many), prof) = if tracer.is_some() {
            let (r, prof) = bds_seq::profile::profile(|| run(self));
            (r, Some(prof))
        } else {
            (run(self), None)
        };
        let peak = self.heap.median_mib();
        let after = self.svc.stats();

        let rates: Vec<f64> = many
            .elements
            .iter()
            .map(|&e| e as f64 / SLICE.as_secs_f64() / 1e6)
            .collect();
        let cap = seconds * 1e3;
        let open = stats::sorted(latency);
        let unloaded_ms = stats::sorted(one.latency);
        let pct = |xs: &[f64], p| {
            if xs.is_empty() {
                cap
            } else {
                stats::percentile(xs, p).min(cap)
            }
        };
        report.e2e("melem_s", stats::interquartile_mean(&rates));
        report.e2e("p50_ms", pct(&unloaded_ms, 50.0));
        report.e2e("p90_ms", pct(&unloaded_ms, 90.0));
        report.e2e("peak_heap_mib", peak);
        report.line(format!(
            "serve_p50_ms = {:.4} ms, serve_p90_ms = {:.4} ms (open loop at {RATE} req/s, {} requests, due time to resolved; not gated)",
            pct(&open, 50.0),
            pct(&open, 90.0),
            open.len()
        ));
        if let Some(p) = stats::tail_percentile(open.len()) {
            report.line(format!(
                "serve_p{p}_ms = {:.4} ms (open loop, not gated)",
                pct(&open, p)
            ));
        }
        report.line(format!(
            "unloaded latency (one request outstanding, {} requests): p50 {:.4} ms, p90 {:.4} ms",
            unloaded_ms.len(),
            pct(&unloaded_ms, 50.0),
            pct(&unloaded_ms, 90.0)
        ));
        let secs = saturated.as_secs_f64();
        report.line(format!(
            "serve_rps = {:.1} req/s (closed loop, window {WINDOW}, {} requests); melem_s = interquartile mean over {} ms slices",
            many.completed as f64 / secs,
            many.completed,
            SLICE.as_millis()
        ));
        report.line(format!(
            "peak_heap_mib = {peak:.3} MiB (median over {} windows of {} ms of the peak extra heap)",
            self.heap.windows.len(),
            HEAP_WINDOW.as_millis()
        ));
        let late = stats::sorted(lateness.clone());
        report.line(format!(
            "loadgen lateness: p50 {:.4} ms, p99 {:.4} ms, max {:.4} ms (one sleeping sender thread)",
            stats::percentile(&late, 50.0),
            stats::percentile(&late, 99.0),
            late.last().copied().unwrap_or(0.0)
        ));
        if let (Some(phase), Some(tracer), Some(records), Some(prof)) =
            (phase, tracer, records, prof)
        {
            let mut stage_ns = [0u64; STAGES.len()];
            for (k, stage) in STAGES.iter().enumerate() {
                stage_ns[k] = prof.stage(*stage).map_or(0, |s| s.total_ns);
            }
            phase.finish(
                after.clone(),
                WORKERS,
                self.sent,
                self.sent_elements,
                stage_ns,
                report,
            );
            self.path_metrics(&records, &lateness, &after.since(&before), report, tracer);
        }
    }

    /// The served-path metrics over `records` (open-loop requests for the
    /// span percentiles), with spans for the first requests.
    fn path_metrics(
        &self,
        records: &[Record],
        lateness: &[f64],
        delta: &bds_pool::PoolStats,
        r: &mut Report,
        tracer: &mut Tracer,
    ) {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let open: Vec<&Record> = records.iter().filter(|x| x.open && x.ok).collect();
        let split =
            |f: &dyn Fn(&Marks) -> f64| stats::sorted(open.iter().map(|x| f(&x.marks)).collect());
        let queue = split(&|m| us(m.exec_start.saturating_duration_since(m.submitted)));
        let exec = split(&|m| us(m.exec_end - m.exec_start));
        let wake = split(&|m| us(m.resolved.saturating_duration_since(m.exec_end)));
        for (name, xs) in [("queue", &queue), ("exec", &exec), ("wake", &wake)] {
            let (p50, p90) = if xs.is_empty() {
                (0.0, 0.0)
            } else {
                (stats::percentile(xs, 50.0), stats::percentile(xs, 90.0))
            };
            r.layer(&format!("svc.{name}_us.p50"), p50);
            r.layer(&format!("svc.{name}_us.p90"), p90);
        }
        let (queued, inflight, samples) = self.gauges;
        r.layer("svc.queued_mean", ratio(queued, samples as f64));
        r.layer("svc.inflight_mean", ratio(inflight, samples as f64));
        let ours: Vec<&bds_pool::TenantStats> = delta
            .tenants
            .iter()
            .filter(|t| t.name.starts_with("tenant"))
            .collect();
        let sum =
            |f: fn(&bds_pool::TenantStats) -> u64| ours.iter().map(|t| f(t)).sum::<u64>() as f64;
        r.layer("svc.rejected.queue_full", sum(|t| t.rejected_queue_full));
        r.layer("svc.rejected.deadline", sum(|t| t.rejected_deadline));
        r.layer("svc.rejected.breaker", sum(|t| t.rejected_breaker));
        let mean = sum(|t| t.completed) / ours.len().max(1) as f64;
        let least = ours.iter().map(|t| t.completed).min().unwrap_or(0) as f64;
        r.layer("svc.fair_share_min", ratio(least, mean));
        let (hits, misses) = (sum(|t| t.plan_hits), sum(|t| t.plan_misses));
        r.layer("plan.hit_ratio", ratio(hits, hits + misses));
        r.layer("plan.hits", hits);
        r.layer("plan.lookups", hits + misses);
        r.layer(
            "plan.sequential_share",
            ratio(self.sequential as f64, self.sent as f64),
        );
        let late = stats::sorted(lateness.to_vec());
        r.layer(
            "loadgen.late_p99_ms",
            if late.is_empty() {
                0.0
            } else {
                stats::percentile(&late, 99.0)
            },
        );
        r.layer("loadgen.late_max_ms", late.last().copied().unwrap_or(0.0));

        // Spans: each request's children tile its due-to-resolved time.
        let mut roots = Vec::new();
        for (i, rec) in records.iter().take(EXPORT_REQUESTS).enumerate() {
            let m = rec.marks;
            let op = OP_BASE + i as u64;
            let track = 10 + (i % 16) as u32;
            let root = tracer.span(NAMES[rec.template], op, None, track, m.due, m.resolved);
            tracer.arg(root, "n", rec.n as f64);
            tracer.arg(root, "ok", f64::from(u8::from(rec.ok)));
            roots.push(root);
            // A worker may start the request before submit returns; the
            // submit span then ends where execution starts.
            let submit_end = m.submitted.min(m.exec_start).max(m.planned);
            let cuts = [
                ("late", m.due, m.sent),
                ("build", m.sent, m.built),
                ("plan", m.built, m.planned),
                ("submit", m.planned, submit_end),
                ("queue", submit_end, m.exec_start),
                ("exec", m.exec_start, m.exec_end),
                ("wake", m.exec_end, m.resolved),
            ];
            if rec.ok {
                for (name, a, b) in cuts {
                    tracer.span(name, op, Some(root), track, a, b);
                }
            }
        }
        let self_ns = crate::trace::self_times(&tracer.spans);
        let worst = roots
            .iter()
            .zip(records)
            .filter(|(_, rec)| rec.ok)
            .map(|(&id, _)| self_ns[id as usize])
            .max()
            .unwrap_or(0);
        r.line(format!(
            "request spans: {} of {} requests exported; largest untiled share of a request = {worst} ns",
            roots.len(),
            records.len()
        ));
    }
}

impl Drop for Served {
    /// A request's closure lets go of the service just after its ticket
    /// resolves. Dropping the service before every closure has returned
    /// can leave a pool worker running the pool's own shutdown, which
    /// then fails to join that worker; so wait for quiescence first.
    fn drop(&mut self) {
        retire(&self.svc);
    }
}

/// Wait until `svc` has no queued or running request, plus a grace
/// period for the last closures to return.
pub fn retire(svc: &Service) {
    while svc.queued() > 0 || svc.inflight() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));
}

impl Marks {
    fn at(k: u64, due: Instant) -> Marks {
        let now = Instant::now();
        Marks {
            k,
            due,
            sent: now,
            built: now,
            planned: now,
            submitted: now,
            exec_start: now,
            exec_end: now,
            resolved: now,
        }
    }
}

impl Record {
    fn new(req: Req, marks: Marks, ok: bool, open: bool) -> Record {
        Record {
            marks,
            template: req.template,
            n: SIZES[req.size],
            ok,
            open,
        }
    }
}

/// What a closed loop completed.
struct Closed {
    completed: u64,
    elements: Vec<u64>,
    latency: Vec<f64>,
}

/// Sender park when nothing is due: a backstop, since ticket wakers
/// unpark it as soon as a request resolves.
const IDLE_PARK: Duration = Duration::from_millis(1);
/// Requests whose spans are written to the trace file.
const EXPORT_REQUESTS: usize = 10_000;
/// Operation ids of served requests start here, after bulk passes.
const OP_BASE: u64 = 1 << 32;

/// A short open loop at [`RATE`] on a fresh service, reporting the
/// served-path metrics, so that traced runs of the bulk workloads
/// report them too.
pub fn report_probe(seed: u64, seconds: f64, report: &mut Report, tracer: &mut Tracer) {
    let mut s = Served::setup(seed, report);
    let (mut latency, mut lateness, mut records) = (Vec::new(), Vec::new(), Vec::new());
    let before = s.svc.stats();
    s.open_loop(
        seconds,
        &mut latency,
        &mut lateness,
        report,
        Some(&mut records),
    );
    let delta = s.svc.stats().since(&before);
    s.path_metrics(&records, &lateness, &delta, report, tracer);
}
