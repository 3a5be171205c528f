//! Layer counters over one traced workload phase, read from the
//! counters the layers already expose: pool scheduler stats, the
//! process-wide `PollTicker` count, the geometry decision log, profile
//! stage times, and the governance and recovery counters.

use std::time::Instant;

use bds_cost::GeometryRecording;
use bds_pool::govern::{trip_counts, TripCounts};
use bds_pool::{recovery_counts, ticker_polls, PoolStats, RecoveryCounts};
use bds_seq::profile::Stage;

use crate::report::Report;
use crate::stats::{self, ratio};

/// Profiled stages reported as `seq.stage_share.<label>`.
pub const STAGES: [Stage; 6] = [
    Stage::ScanEager,
    Stage::FilterEager,
    Stage::FlattenEager,
    Stage::Force,
    Stage::Reduce,
    Stage::Count,
];

pub struct Phase {
    stats: PoolStats,
    polls: u64,
    trips: TripCounts,
    recovery: RecoveryCounts,
    start: Instant,
    _geometry: GeometryRecording,
}

impl Phase {
    /// Snapshot every counter and start logging geometry decisions.
    pub fn begin(stats: PoolStats) -> Phase {
        Phase {
            stats,
            polls: ticker_polls(),
            trips: trip_counts(),
            recovery: recovery_counts(),
            _geometry: bds_cost::record_geometry(),
            start: Instant::now(),
        }
    }

    /// Report the phase's deltas per operation (`ops` passes or
    /// requests over `elements` input elements).
    pub fn finish(
        self,
        stats: PoolStats,
        workers: usize,
        ops: u64,
        elements: u64,
        stage_ns: [u64; 6],
        r: &mut Report,
    ) {
        let wall_ns = self.start.elapsed().as_nanos() as f64;
        let geometry = bds_cost::recorded_geometry();
        drop(self._geometry);
        let ops = ops as f64;
        let w = stats.since(&self.stats).total();
        r.layer("pool.jobs_per_op", ratio(w.jobs_executed as f64, ops));
        r.layer("pool.steals_per_op", ratio(w.steals as f64, ops));
        r.layer(
            "pool.steal_hit_ratio",
            ratio(w.steals as f64, (w.steals + w.failed_steals) as f64),
        );
        r.layer("pool.parks_per_op", ratio(w.parks as f64, ops));
        r.layer(
            "pool.idle_share",
            ratio(w.idle_ns as f64, workers as f64 * wall_ns),
        );
        let polls = ticker_polls() - self.polls;
        r.layer(
            "seq.ticker_polls_per_kelem",
            ratio(polls as f64, elements as f64 / 1e3),
        );
        r.layer("seq.consumes_per_op", ratio(geometry.len() as f64, ops));
        let median_of = |f: fn(&bds_cost::GeometryDecision) -> usize| {
            if geometry.is_empty() {
                0.0
            } else {
                stats::median(&geometry.iter().map(|d| f(d) as f64).collect::<Vec<_>>())
            }
        };
        r.layer("seq.blocks_per_consume_p50", median_of(|d| d.num_blocks));
        r.layer("seq.block_elems_p50", median_of(|d| d.block_size));
        // Stage time is a total per op plus each stage's share of it: a
        // stage a workload never runs reads as a zero share, not as a
        // constant zero time.
        let total_ns: u64 = stage_ns.iter().sum();
        r.layer("seq.stage_ms", ratio(total_ns as f64 / 1e6, ops));
        for (stage, ns) in STAGES.iter().zip(stage_ns) {
            r.layer(
                &format!("seq.stage_share.{}", stage_key(*stage)),
                ratio(ns as f64, total_ns as f64),
            );
        }
        let trips = trip_counts();
        r.layer(
            "govern.trips",
            ((trips.deadline + trips.memory) - (self.trips.deadline + self.trips.memory)) as f64,
        );
        let rec = recovery_counts().saturating_sub(&self.recovery);
        r.layer("recovery.block_retries", rec.block_retries as f64);
        r.layer("recovery.quarantines", rec.quarantines as f64);
        r.line(format!(
            "phase: {ops} ops, {} geometry decisions, {polls} ticker polls, {} jobs, {} steals",
            geometry.len(),
            w.jobs_executed,
            w.steals
        ));
    }
}

fn stage_key(stage: Stage) -> &'static str {
    match stage {
        Stage::ScanEager => "scan_eager",
        Stage::FilterEager => "filter_eager",
        Stage::FlattenEager => "flatten_eager",
        Stage::Force => "force",
        Stage::Reduce => "reduce",
        Stage::Count => "count",
        Stage::ForEach => "for_each",
    }
}
