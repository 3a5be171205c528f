//! Golden geometry log: every block-geometry decision the benchmark
//! workloads put to the cost solver.
//!
//! The calibration is pinned and the pool is seeded (a seeded pool
//! reports its full width to the solver), so each decision is a pure
//! function of `(len, cost, workers)` and the log of one run is fixed.
//! The lists below were recorded from the workloads as they stand; a
//! change to how geometry is chosen or threaded must leave them
//! unchanged unless it means to move block traffic.
//!
//! The log is process-global, so this file holds a single test.

use bds_cost::Calibration;
use bds_graph::{CsrGraph, Vertex};
use bds_pool::Pool;
use bds_workloads::{bestcut, bfs, bignum, primes, tokens, wc};

const N: usize = 1 << 16;
const SEED: u64 = 0x6E0;

/// `(len, per_elem_work, workers, block_size, num_blocks)`.
type Row = (usize, u64, usize, usize, usize);

/// A deterministic edge list over `2^12` vertices: a SplitMix64 stream,
/// so the graph does not depend on any generator in the workspace.
fn edges() -> (usize, Vec<(Vertex, Vertex)>) {
    let v = 1usize << 12;
    let mut state = SEED;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let edges = (0..N)
        .map(|_| {
            let r = next();
            ((r % v as u64) as Vertex, ((r >> 32) % v as u64) as Vertex)
        })
        .collect();
    (v, edges)
}

/// The sorted decision log of one run of `f` on `pool`.
fn log(pool: &Pool, f: impl FnOnce() + Send) -> Vec<Row> {
    let rec = bds_cost::record_geometry();
    pool.install(f);
    let mut log = bds_cost::recorded_geometry();
    drop(rec);
    log.sort();
    log.into_iter()
        .map(|d| {
            (
                d.len,
                d.per_elem_work,
                d.workers,
                d.block_size,
                d.num_blocks,
            )
        })
        .collect()
}

#[test]
fn benchmark_workloads_put_fixed_questions_to_the_solver() {
    let _policy = bds_seq::set_policy(bds_seq::Policy::Adaptive);
    let _cal = bds_cost::override_calibration(Calibration {
        ns_per_work: 1.0,
        block_overhead_ns: 1500.0,
    });
    let pool = Pool::new_seeded(2, SEED);
    let events = bestcut::generate(bestcut::Params { n: N, seed: SEED });
    let text = wc::generate(wc::Params { n: N, seed: SEED });
    let words = tokens::generate(tokens::Params { n: N, seed: SEED });
    let (a, b) = bignum::generate(bignum::Params { n: N, seed: SEED });
    let (v, edge_list) = edges();
    let graph = pool.install(|| CsrGraph::from_edges(v, &edge_list));

    let runs: [(&str, Vec<Row>, &[Row]); 7] = [
        (
            "bestcut",
            log(&pool, || {
                let _ = bestcut::run_delay(&events);
            }),
            BESTCUT,
        ),
        (
            "primes",
            log(&pool, || {
                let _ = primes::run_delay(N);
            }),
            PRIMES,
        ),
        (
            "wc",
            log(&pool, || {
                let _ = wc::run_delay(&text);
            }),
            WC,
        ),
        (
            "wc simd",
            log(&pool, || {
                let _ = wc::run_simd(&text);
            }),
            WC_SIMD,
        ),
        (
            "tokens",
            log(&pool, || {
                let _ = tokens::run_delay(&words);
            }),
            TOKENS,
        ),
        (
            "bignum",
            log(&pool, || {
                let _ = bignum::run_delay(&a, &b);
            }),
            BIGNUM,
        ),
        (
            "bfs",
            log(&pool, || {
                let _ = bfs::run_delay(&graph, 0);
            }),
            BFS,
        ),
    ];
    for (name, got, want) in runs {
        assert_eq!(got, want, "{name}: geometry decisions moved");
    }
}

const BESTCUT: &[Row] = &[(65536, 3, 2, 4096, 16)];
const PRIMES: &[Row] = &[
    (16, 1, 2, 16, 1),
    (6542, 3, 2, 2181, 3),
    (65536, 2, 2, 4096, 16),
];
const WC: &[Row] = &[(65536, 2, 2, 4096, 16)];
const WC_SIMD: &[Row] = &[(65536, 1, 2, 6554, 10)];
const TOKENS: &[Row] = &[
    (16, 1, 2, 16, 1),
    (16, 1, 2, 16, 1),
    (8258, 6, 2, 1033, 8),
    (65536, 2, 2, 4096, 16),
    (65536, 2, 2, 4096, 16),
];
const BIGNUM: &[Row] = &[(65536, 5, 2, 4096, 16)];
const BFS: &[Row] = &[
    (1, 1, 2, 1, 1),
    (1, 1, 2, 1, 1),
    (1, 1, 2, 1, 1),
    (1, 1, 2, 1, 1),
    (1, 4, 2, 1, 1),
    (3, 1, 2, 3, 1),
    (13, 1, 2, 13, 1),
    (16, 1, 2, 16, 1),
    (19, 1, 2, 19, 1),
    (19, 4, 2, 19, 1),
    (19, 4, 2, 19, 1),
    (285, 1, 2, 285, 1),
    (285, 4, 2, 285, 1),
    (298, 4, 2, 298, 1),
    (1238, 1, 2, 1238, 1),
    (1238, 4, 2, 1238, 1),
    (2553, 1, 2, 2553, 1),
    (2553, 4, 2, 2553, 1),
    (4522, 4, 2, 1508, 3),
    (19736, 4, 2, 1519, 13),
    (40961, 4, 2, 2561, 16),
];
