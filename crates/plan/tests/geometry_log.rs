//! Golden geometry log for the plan executor: every block-geometry
//! decision the four seam-test shapes put to the cost solver, under a
//! pinned calibration and a seeded two-worker pool, through every
//! consumer and both sources.
//!
//! The log is process-global, so this file holds a single test.

use std::sync::Arc;

use bds_cost::{Calibration, SIMPLE};
use bds_plan::{identity_plan, ConsumerOp, ExecMode, Pipe};
use bds_pool::Pool;

const N: usize = 1 << 16;

/// `(len, per_elem_work, workers, block_size, num_blocks)`.
type Row = (usize, u64, usize, usize, usize);

fn tab(i: usize) -> u64 {
    (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40
}

fn source(from_vec: bool) -> Pipe<u64> {
    if from_vec {
        Pipe::from_vec((0..N).map(tab).collect())
    } else {
        Pipe::tabulate(N, tab)
    }
}

fn leading_gather(p: Pipe<u64>) -> Pipe<u64> {
    p.skip(3)
        .rev()
        .take(N * 2 / 3)
        .map_idx(|i, x| x ^ i as u64)
        .map(|x| x * 5)
        .filter(|x| x % 2 == 0)
}

fn scan_after_filter(p: Pipe<u64>) -> Pipe<u64> {
    p.map(|x| x % 1000)
        .filter(|x| x % 3 != 0)
        .scan(0, u64::wrapping_add)
        .map(|x| x / 2)
        .scan_incl(0, u64::max)
}

fn map_idx_after_filter(p: Pipe<u64>) -> Pipe<u64> {
    p.filter_map(|x| (x % 5 != 0).then_some(x + 1))
        .map_idx(|i, x| x.wrapping_mul(i as u64 + 1))
        .filter(|x| x % 7 != 0)
        .map_idx(|i, x| x ^ (i as u64) << 3)
}

fn cut_after_filter(p: Pipe<u64>) -> Pipe<u64> {
    p.filter(|x| x % 4 != 1)
        .map_idx(|i, x| x + i as u64)
        .take(N / 2 + 1)
        .rev()
        .map_idx(|i, x| x ^ i as u64)
        .skip(2)
        .scan(0, u64::wrapping_add)
}

/// The sorted decision log of running `build` over both sources into
/// every consumer, in parallel mode.
fn log(pool: &Pool, build: fn(Pipe<u64>) -> Pipe<u64>) -> Vec<Row> {
    let consumers = [
        ConsumerOp::Collect,
        ConsumerOp::Reduce(0, Arc::new(u64::wrapping_add), SIMPLE),
        ConsumerOp::Count(Arc::new(|x: &u64| x.is_multiple_of(3)), SIMPLE),
    ];
    let pipes = [build(source(false)), build(source(true))];
    let rec = bds_cost::record_geometry();
    pool.install(|| {
        for p in &pipes {
            for c in &consumers {
                let plan = identity_plan(p.shape(c.kind()), ExecMode::Parallel);
                let _ = p.execute(&plan, c);
            }
        }
    });
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
fn seam_shapes_put_fixed_questions_to_the_solver() {
    let _policy = bds_seq::set_policy(bds_seq::Policy::Adaptive);
    let _cal = bds_cost::override_calibration(Calibration {
        ns_per_work: 1.0,
        block_overhead_ns: 1500.0,
    });
    let pool = Pool::new_seeded(2, 0x6E0);
    let runs: [(&str, Vec<Row>, &[Row]); 4] = [
        ("leading gather", log(&pool, leading_gather), LEADING_GATHER),
        (
            "scan after filter",
            log(&pool, scan_after_filter),
            SCAN_AFTER_FILTER,
        ),
        (
            "map_idx after filter",
            log(&pool, map_idx_after_filter),
            MAP_IDX_AFTER_FILTER,
        ),
        (
            "cut after filter",
            log(&pool, cut_after_filter),
            CUT_AFTER_FILTER,
        ),
    ];
    for (name, got, want) in runs {
        assert_eq!(got, want, "{name}: geometry decisions moved");
    }
}

const LEADING_GATHER: &[Row] = &[(43690, 5, 2, 2731, 16); 6];
const SCAN_AFTER_FILTER: &[Row] = &[(65536, 7, 2, 4096, 16); 6];
const MAP_IDX_AFTER_FILTER: &[Row] = &[(65536, 6, 2, 4096, 16); 6];
const CUT_AFTER_FILTER: &[Row] = &[
    (32767, 4, 2, 2048, 16),
    (32767, 4, 2, 2048, 16),
    (32767, 4, 2, 2048, 16),
    (32767, 4, 2, 2048, 16),
    (32767, 4, 2, 2048, 16),
    (32767, 4, 2, 2048, 16),
    (65536, 4, 2, 4096, 16),
    (65536, 4, 2, 4096, 16),
    (65536, 4, 2, 4096, 16),
    (65536, 4, 2, 4096, 16),
    (65536, 4, 2, 4096, 16),
    (65536, 4, 2, 4096, 16),
];
