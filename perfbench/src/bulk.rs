//! The bulk workloads: one caller drives a 2-worker `Pool` in a closed
//! loop over fixed pipelines from `bds-workloads`, and every output is
//! checked against its crate's sequential reference.
//!
//! `bulk-fold` runs pipelines that fold to a scalar (bestcut, primes,
//! wc through its SIMD kernel); `bulk-emit` runs pipelines whose
//! consumers write (bignum-add, tokens, bfs).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bds_graph::{CsrGraph, Vertex};
use bds_pool::Pool;
use bds_seq::profile::profile_on;
use bds_workloads::{bestcut, bfs, bignum, primes, tokens, wc};

use crate::phase::{Phase, STAGES};
use crate::report::Report;
use crate::rng::{self, Rng};
use crate::stats;
use crate::trace::Tracer;

/// Workers of every pool the benchmark builds (the host has 2 CPUs).
pub const WORKERS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pipeline {
    Bestcut,
    Primes,
    Wc,
    BignumAdd,
    Tokens,
    Bfs,
}
use Pipeline::*;

pub const FOLD: [Pipeline; 3] = [Bestcut, Primes, Wc];
pub const EMIT: [Pipeline; 3] = [BignumAdd, Tokens, Bfs];
pub const ALL: [Pipeline; 6] = [Bestcut, Primes, Wc, BignumAdd, Tokens, Bfs];

impl Pipeline {
    pub fn name(self) -> &'static str {
        match self {
            Bestcut => "bestcut",
            Primes => "primes",
            Wc => "wc",
            BignumAdd => "bignum_add",
            Tokens => "tokens",
            Bfs => "bfs",
        }
    }

    /// bfs is measured per edge, everything else per input element.
    pub fn rate_name(self) -> String {
        match self {
            Bfs => "bfs.medge_s".into(),
            p => format!("{}.melem_s", p.name()),
        }
    }

    fn rate_unit(self) -> &'static str {
        if self == Bfs {
            "Medge/s"
        } else {
            "Melem/s"
        }
    }
}

// Input sizes. bestcut's 2^24 events take 128 MiB, more than the 105 MiB
// L3 of the 2-CPU host the benchmark was sized for.
const BESTCUT_N: usize = 1 << 24;
const PRIMES_N: usize = 1 << 24;
const WC_N: usize = 1 << 24;
const BIGNUM_N: usize = 1 << 24;
const TOKENS_N: usize = 1 << 24;
const BFS_SCALE: u32 = 19;
const BFS_EDGE_FACTOR: usize = 16;

enum Input {
    Events(Vec<u64>),
    Limit(usize),
    Text(Vec<u8>),
    Operands(Vec<u8>, Vec<u8>),
    Graph(CsrGraph, Vertex),
}

#[derive(Debug, PartialEq)]
pub enum Output {
    Cut(f64),
    Primes(primes::PrimesResult),
    Wc(wc::WcResult),
    Sum(Vec<u8>, bool),
    Tokens(Vec<(u32, u32)>),
    Parents(Vec<Vertex>),
}

/// One pipeline with its generated input and reference output.
pub struct Case {
    pub pipeline: Pipeline,
    input: Input,
    expected: Output,
    /// Input elements (edges for bfs).
    pub elements: u64,
}

impl Case {
    /// Generate the input from `seed` and compute the reference output.
    pub fn new(pipeline: Pipeline, seed: u64, pool: &Pool) -> Case {
        let mut rng = Rng::derive(seed, pipeline as u64 + 1);
        let input = match pipeline {
            Bestcut => Input::Events(rng::u64s(BESTCUT_N, &mut rng)),
            // primes has no data; the seed moves its bound.
            Primes => Input::Limit(PRIMES_N - rng.below(1 << 16) as usize),
            Wc => Input::Text(rng::text(WC_N, &mut rng)),
            Tokens => Input::Text(rng::text(TOKENS_N, &mut rng)),
            BignumAdd => {
                let a = rng::digits(BIGNUM_N, &mut rng);
                Input::Operands(a, rng::digits(BIGNUM_N, &mut rng))
            }
            Bfs => {
                let edges = rng::rmat_edges(BFS_SCALE, BFS_EDGE_FACTOR, &mut rng);
                let g = pool.install(|| CsrGraph::from_edges(1 << BFS_SCALE, &edges));
                let source = (0..g.num_vertices() as Vertex)
                    .max_by_key(|&v| g.degree(v))
                    .expect("the graph has vertices");
                Input::Graph(g, source)
            }
        };
        let elements = match &input {
            Input::Events(e) => e.len(),
            Input::Limit(n) => *n,
            Input::Text(t) => t.len(),
            Input::Operands(a, _) => a.len(),
            Input::Graph(g, _) => g.num_edges(),
        } as u64;
        let mut case = Case {
            pipeline,
            input,
            expected: Output::Cut(0.0),
            elements,
        };
        case.expected = case.reference();
        case
    }

    /// The crate's sequential reference (`bfs_sequential` for bfs): the
    /// hand-written bar the fused pipeline is measured against.
    pub fn reference(&self) -> Output {
        match &self.input {
            Input::Events(e) => Output::Cut(bestcut::reference(e)),
            Input::Limit(n) => {
                let ps = primes::reference(*n);
                Output::Primes(primes::PrimesResult {
                    count: ps.len(),
                    sum: ps.iter().sum(),
                })
            }
            Input::Text(t) if self.pipeline == Wc => Output::Wc(wc::reference(t)),
            Input::Text(t) => Output::Tokens(tokens::reference(t)),
            Input::Operands(a, b) => {
                let (d, c) = bignum::reference(a, b);
                Output::Sum(d, c)
            }
            Input::Graph(g, s) => Output::Parents(bds_graph::bfs_sequential(g, *s).0),
        }
    }

    /// The library pipeline on the ambient pool; wc runs its dispatched
    /// SIMD kernel.
    pub fn run(&self) -> Output {
        match &self.input {
            Input::Events(e) => Output::Cut(bestcut::run_delay(e)),
            Input::Limit(n) => Output::Primes(primes::run_delay(*n)),
            Input::Text(t) if self.pipeline == Wc => Output::Wc(wc::run_simd(t)),
            Input::Text(t) => Output::Tokens(tokens::run_delay(t)),
            Input::Operands(a, b) => {
                let (d, c) = bignum::run_delay(a, b);
                Output::Sum(d, c)
            }
            Input::Graph(g, s) => Output::Parents(bfs::run_delay(g, *s)),
        }
    }

    /// The unfused `array` version, every stage materialized.
    pub fn run_array(&self) -> Output {
        match &self.input {
            Input::Events(e) => Output::Cut(bestcut::run_array(e)),
            Input::Limit(n) => Output::Primes(primes::run_array(*n)),
            Input::Text(t) if self.pipeline == Wc => Output::Wc(wc::run_array(t)),
            Input::Text(t) => Output::Tokens(tokens::run_array(t)),
            Input::Operands(a, b) => {
                let (d, c) = bignum::run_array(a, b);
                Output::Sum(d, c)
            }
            Input::Graph(g, s) => Output::Parents(bfs::run_array(g, *s)),
        }
    }

    /// wc through the scalar fused pipeline (the SIMD kernel's baseline).
    pub fn run_scalar_wc(&self) -> Output {
        match &self.input {
            Input::Text(t) => Output::Wc(wc::run_delay(t)),
            _ => unreachable!("only wc has a scalar variant"),
        }
    }

    /// bfs parent arrays legitimately differ between runs, so they are
    /// validated against the graph; everything else must equal the
    /// reference exactly.
    pub fn check(&self, out: &Output) -> Result<(), String> {
        match (&self.input, out) {
            (Input::Graph(g, s), Output::Parents(p)) => bds_graph::validate_bfs(g, *s, p),
            _ if *out == self.expected => Ok(()),
            _ => Err(format!(
                "{} differs from its sequential reference",
                self.pipeline.name()
            )),
        }
    }
}

/// Run `f` on `pool`, timing it and measuring its peak extra heap.
/// Returns (seconds, peak bytes, checked outcome).
pub fn timed(
    pool: &Pool,
    case: &Case,
    f: impl Fn(&Case) -> Output + Sync,
) -> (f64, usize, Result<(), String>) {
    bds_metrics::reset_peak();
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| pool.install(|| f(case))));
    let secs = start.elapsed().as_secs_f64();
    let peak = bds_metrics::heap_stats().peak_since_reset;
    let checked = match &out {
        Ok(out) => case.check(out),
        Err(_) => Err(format!("{} panicked", case.pipeline.name())),
    };
    (secs, peak, checked)
}

pub struct Bulk {
    pool: Pool,
    cases: Vec<Case>,
}

/// Inputs, references, the pool, calibration, and one checked warm-up
/// pass of every pipeline.
pub fn setup(pipelines: &[Pipeline], seed: u64, report: &mut Report) -> Bulk {
    let pool = Pool::new(WORKERS);
    bds_cost::calibration();
    let cases: Vec<Case> = pipelines
        .iter()
        .map(|&p| Case::new(p, seed, &pool))
        .collect();
    for case in &cases {
        let (_, _, ok) = timed(&pool, case, Case::run);
        report.outcome(case.pipeline.name(), ok);
    }
    Bulk { pool, cases }
}

/// Timed closed loop: rounds of one pass per pipeline until `seconds`
/// have passed. With a tracer, each pass is profiled and recorded as a
/// span, and the phase's layer counters are reported.
pub fn measure(b: &Bulk, seconds: f64, report: &mut Report, mut tracer: Option<&mut Tracer>) {
    let n = b.cases.len();
    let mut secs: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut peaks: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut rounds = Vec::new();
    let mut stage_ns = [0u64; STAGES.len()];
    let phase = tracer.is_some().then(|| Phase::begin(b.pool.stats()));
    let mut passes = 0u64;
    let mut elements = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let mut round = 0.0;
        for (i, case) in b.cases.iter().enumerate() {
            let t0 = Instant::now();
            let (s, peak, ok) = match tracer.as_deref_mut() {
                None => timed(&b.pool, case, Case::run),
                Some(tracer) => {
                    let (r, prof) = profile_on(&b.pool, || timed(&b.pool, case, Case::run));
                    let id = tracer.span(case.pipeline.name(), passes, None, 1, t0, Instant::now());
                    tracer.arg(id, "elements", case.elements as f64);
                    for (k, stage) in STAGES.iter().enumerate() {
                        if let Some(st) = prof.stage(*stage) {
                            stage_ns[k] += st.total_ns;
                            tracer.arg(id, stage.label(), st.total_ns as f64);
                        }
                    }
                    r
                }
            };
            passes += 1;
            elements += case.elements;
            round += if ok.is_ok() { s } else { f64::INFINITY };
            if ok.is_ok() {
                secs[i].push(s);
                peaks[i].push(peak as f64);
            }
            report.outcome(case.pipeline.name(), ok);
        }
        rounds.push(round);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    if let Some(phase) = phase {
        phase.finish(b.pool.stats(), WORKERS, passes, elements, stage_ns, report);
    }

    let mut rates = Vec::new();
    let mut peak_bytes = 0.0;
    for (i, case) in b.cases.iter().enumerate() {
        if secs[i].is_empty() {
            continue;
        }
        let rate = case.elements as f64 / stats::median(&secs[i]) / 1e6;
        let peak = stats::median(&peaks[i]);
        rates.push(rate);
        peak_bytes += peak;
        report.line(format!(
            "{} = {rate:.3} {} (median of {} passes; peak extra heap {:.1} MiB)",
            case.pipeline.rate_name(),
            case.pipeline.rate_unit(),
            secs[i].len(),
            peak / MIB
        ));
    }
    let rounds = stats::sorted(rounds);
    let pct = |p| (stats::percentile(&rounds, p) * 1e3).min(wall_ms);
    report.e2e(
        "melem_s",
        if rates.len() == n {
            stats::geomean(&rates)
        } else {
            0.0
        },
    );
    report.e2e("p50_ms", pct(50.0));
    report.e2e("p90_ms", pct(90.0));
    report.e2e("peak_heap_mib", peak_bytes / MIB);
    report.line(format!(
        "peak_heap_mib = {:.2} MiB (sum over pipelines of one pass's peak extra heap)",
        peak_bytes / MIB
    ));
    if let Some(p) = stats::tail_percentile(rounds.len()) {
        report.line(format!(
            "round p{p} = {:.3} ms over {} rounds (not gated)",
            pct(p),
            rounds.len()
        ));
    }
}

const MIB: f64 = (1 << 20) as f64;
