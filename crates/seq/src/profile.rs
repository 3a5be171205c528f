//! Pipeline profiling: per-stage spans, block-geometry recording, and a
//! [`profile`] entry point combining stage timings with scheduler and
//! heap statistics.
//!
//! The paper's argument is quantitative: fusion wins show up as fewer
//! eager phases, fewer materialized arrays, and block counts tracking
//! `8P`. This module makes those claims observable. The library's eager
//! phases (scan's phases 1-2, filter's packing, flatten's offset scan)
//! and delayed consumers (`reduce`, `to_vec`/`force`, `for_each`,
//! `count`) each record a *span* — wall time plus the block geometry they
//! ran with — into a small table of relaxed atomics.
//!
//! Everything is compiled in (no feature gate) but dormant: while no
//! [`profile`] call is active, a span is one relaxed load and a branch,
//! taken once per *pipeline stage invocation* (not per element or per
//! block), so the overhead is unmeasurable and the instrumentation can
//! stay on in release builds.
//!
//! ```
//! use bds_seq::prelude::*;
//! use bds_seq::profile;
//!
//! let (total, report) = profile::profile(|| {
//!     tabulate(100_000, |i| i as u64)
//!         .map(|x| x * 2)
//!         .scan(0, |a, b| a + b)
//!         .0
//!         .reduce(0, u64::max)
//! });
//! assert!(total > 0);
//! assert!(report.stage(profile::Stage::ScanEager).is_some());
//! println!("{}", report.render());
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// A pipeline stage the library instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `scan`/`scan_incl` phases 1-2: per-block sums + sequential scan.
    ScanEager,
    /// `filter`/`filter_op` packing: streaming survivors per block.
    FilterEager,
    /// `flatten` offset construction (lengths + exclusive scan).
    FlattenEager,
    /// Materialization (`to_vec`/`force`): the delayed consumption that
    /// writes every element into a fresh buffer.
    Force,
    /// Delayed consumption by `reduce`.
    Reduce,
    /// Delayed consumption by `for_each`.
    ForEach,
    /// Delayed consumption by `count`.
    Count,
}

/// All stages, in render order.
pub const STAGES: [Stage; 7] = [
    Stage::ScanEager,
    Stage::FilterEager,
    Stage::FlattenEager,
    Stage::Force,
    Stage::Reduce,
    Stage::ForEach,
    Stage::Count,
];

impl Stage {
    #[inline]
    fn index(self) -> usize {
        match self {
            Stage::ScanEager => 0,
            Stage::FilterEager => 1,
            Stage::FlattenEager => 2,
            Stage::Force => 3,
            Stage::Reduce => 4,
            Stage::ForEach => 5,
            Stage::Count => 6,
        }
    }

    /// Human-readable label used by [`ProfileReport::render`].
    pub fn label(self) -> &'static str {
        match self {
            Stage::ScanEager => "scan (eager 1-2)",
            Stage::FilterEager => "filter (eager pack)",
            Stage::FlattenEager => "flatten (eager offsets)",
            Stage::Force => "force/to_vec (delayed)",
            Stage::Reduce => "reduce (delayed)",
            Stage::ForEach => "for_each (delayed)",
            Stage::Count => "count (delayed)",
        }
    }
}

const NUM_STAGES: usize = STAGES.len();

#[derive(Default)]
struct StageSlot {
    calls: AtomicU64,
    total_ns: AtomicU64,
    elements: AtomicU64,
    blocks: AtomicU64,
    /// Block size most recently recorded for this stage (0 = none).
    block_size: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn slots() -> &'static [StageSlot; NUM_STAGES] {
    static SLOTS: [StageSlot; NUM_STAGES] = [
        StageSlot {
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            elements: AtomicU64::new(0),
            blocks: AtomicU64::new(0),
            block_size: AtomicU64::new(0),
        },
        StageSlot {
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            elements: AtomicU64::new(0),
            blocks: AtomicU64::new(0),
            block_size: AtomicU64::new(0),
        },
        StageSlot {
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            elements: AtomicU64::new(0),
            blocks: AtomicU64::new(0),
            block_size: AtomicU64::new(0),
        },
        StageSlot {
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            elements: AtomicU64::new(0),
            blocks: AtomicU64::new(0),
            block_size: AtomicU64::new(0),
        },
        StageSlot {
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            elements: AtomicU64::new(0),
            blocks: AtomicU64::new(0),
            block_size: AtomicU64::new(0),
        },
        StageSlot {
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            elements: AtomicU64::new(0),
            blocks: AtomicU64::new(0),
            block_size: AtomicU64::new(0),
        },
        StageSlot {
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            elements: AtomicU64::new(0),
            blocks: AtomicU64::new(0),
            block_size: AtomicU64::new(0),
        },
    ];
    &SLOTS
}

/// Is a [`profile`] region currently active?
#[inline]
pub fn profiling_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// RAII span: created at a stage's entry, records wall time on drop.
/// Inert (no clock read) while profiling is disabled.
pub struct SpanGuard {
    stage: Stage,
    start: Option<Instant>,
}

/// Open a span for `stage`. One relaxed load when profiling is off.
#[inline]
pub fn span(stage: Stage) -> SpanGuard {
    SpanGuard {
        stage,
        start: profiling_enabled().then(Instant::now),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let slot = &slots()[self.stage.index()];
            slot.calls.fetch_add(1, Ordering::Relaxed);
            slot.total_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// Record the block geometry a stage ran with: `len` elements in `nb`
/// blocks of `bs`. No-op while profiling is disabled.
#[inline]
pub fn record_geometry(stage: Stage, len: usize, bs: usize, nb: usize) {
    if !profiling_enabled() {
        return;
    }
    let slot = &slots()[stage.index()];
    slot.elements.fetch_add(len as u64, Ordering::Relaxed);
    slot.blocks.fetch_add(nb as u64, Ordering::Relaxed);
    slot.block_size.store(bs as u64, Ordering::Relaxed);
}

/// Record segment structure for stages whose unit is an inner sequence
/// rather than a block (flatten: `len` total elements over `nparts`
/// inner sequences). Leaves the block size unresolved on purpose —
/// flatten's *output* geometry stays lazy until a consumer runs.
#[inline]
pub fn record_segments(stage: Stage, len: usize, nparts: usize) {
    if !profiling_enabled() {
        return;
    }
    let slot = &slots()[stage.index()];
    slot.elements.fetch_add(len as u64, Ordering::Relaxed);
    slot.blocks.fetch_add(nparts as u64, Ordering::Relaxed);
}

fn reset_slots() {
    for slot in slots() {
        slot.calls.store(0, Ordering::Relaxed);
        slot.total_ns.store(0, Ordering::Relaxed);
        slot.elements.store(0, Ordering::Relaxed);
        slot.blocks.store(0, Ordering::Relaxed);
        slot.block_size.store(0, Ordering::Relaxed);
    }
}

/// One stage's accumulated numbers within a [`profile`] region.
#[derive(Debug, Clone, Copy)]
pub struct StageReport {
    /// Which stage.
    pub stage: Stage,
    /// Times the stage ran.
    pub calls: u64,
    /// Total wall nanoseconds across those calls.
    pub total_ns: u64,
    /// Total elements processed (delayed lengths as seen by the stage).
    pub elements: u64,
    /// Total blocks (or, for flatten, inner segments) traversed.
    pub blocks: u64,
    /// Block size of the most recent call (0 when not applicable).
    pub block_size: u64,
}

/// Everything observed during one [`profile`] region.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Wall time of the whole region in nanoseconds.
    pub wall_ns: u64,
    /// Per-stage numbers, only stages that ran.
    pub stages: Vec<StageReport>,
    /// Scheduler-counter delta of the profiled pool over the region.
    pub sched: bds_pool::PoolStats,
    /// Heap statistics at region end (`peak_since_reset` measures the
    /// region, assuming the binary installs
    /// `bds_metrics::CountingAlloc`).
    pub heap: bds_metrics::HeapStats,
    /// Element-traffic counters `(reads, writes, allocs)` over the
    /// region; all zero unless the `counters` feature is enabled.
    pub traffic: (u64, u64, u64),
}

impl ProfileReport {
    /// The report row for `stage`, if it ran.
    pub fn stage(&self, stage: Stage) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// Render the report as fixed-width tables (stages, then scheduler
    /// and heap summaries).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut t = bds_metrics::Table::new(vec![
            "stage", "calls", "time ms", "elements", "blocks", "blk size",
        ]);
        for s in &self.stages {
            t.row(vec![
                s.stage.label().to_string(),
                s.calls.to_string(),
                format!("{:.3}", s.total_ns as f64 / 1e6),
                s.elements.to_string(),
                s.blocks.to_string(),
                if s.block_size == 0 {
                    "-".to_string()
                } else {
                    s.block_size.to_string()
                },
            ]);
        }
        out.push_str(&t.render());

        let total = self.sched.total();
        out.push_str(&format!(
            "\nscheduler (P = {}): jobs {}  local {}  injected {}  steals {}  \
             failed-steals {}  parks {}  idle {:.3} ms\n",
            self.sched.num_threads(),
            total.jobs_executed,
            total.local_pops,
            total.injector_pops,
            total.steals,
            total.failed_steals,
            total.parks,
            total.idle_ns as f64 / 1e6,
        ));
        out.push_str(&format!(
            "heap: peak-since-reset {}  live {}  total-allocated {}\n",
            bds_metrics::fmt_mb(self.heap.peak_since_reset) + " MB",
            bds_metrics::fmt_mb(self.heap.live) + " MB",
            bds_metrics::fmt_mb(self.heap.total_allocated as usize) + " MB",
        ));
        let (r, w, a) = self.traffic;
        if (r, w, a) != (0, 0, 0) {
            out.push_str(&format!(
                "element traffic: reads {r}  writes {w}  allocs {a}\n"
            ));
        }
        out.push_str(&format!("wall: {:.3} ms\n", self.wall_ns as f64 / 1e6));
        out
    }
}

fn collect(wall_ns: u64, sched: bds_pool::PoolStats) -> ProfileReport {
    let stages: Vec<StageReport> = STAGES
        .iter()
        .filter_map(|&stage| {
            let slot = &slots()[stage.index()];
            let calls = slot.calls.load(Ordering::Relaxed);
            let elements = slot.elements.load(Ordering::Relaxed);
            if calls == 0 && elements == 0 {
                return None;
            }
            Some(StageReport {
                stage,
                calls,
                total_ns: slot.total_ns.load(Ordering::Relaxed),
                elements,
                blocks: slot.blocks.load(Ordering::Relaxed),
                block_size: slot.block_size.load(Ordering::Relaxed),
            })
        })
        .collect();
    // Feedback into the adaptive geometry model: each stage that ran with
    // known geometry and a measured wall time refines the calibrated
    // per-block overhead (EWMA; see `bds_cost::calibrate`). Pricing the
    // element work at one SIMPLE unit is safe because `observe_stage`
    // discards observations whose residual could plausibly be mispriced
    // element work — only stages with nearly empty blocks, where the
    // per-block scheduling cost is actually measurable, feed back.
    for s in &stages {
        if s.blocks > 0 && s.elements > 0 && s.total_ns > 0 {
            bds_cost::calibrate::observe_stage(s.elements, s.blocks, s.total_ns, 1);
        }
    }
    ProfileReport {
        wall_ns,
        stages,
        sched,
        heap: bds_metrics::heap_stats(),
        traffic: crate::counters::snapshot(),
    }
}

/// Profile `f` against the *ambient* pool (the enclosing pool when
/// called from a worker, otherwise the global pool). Use
/// [`profile_on`] when the closure installs into an explicit [`Pool`].
///
/// Not reentrant: a nested `profile` region resets the shared stage
/// table and the outer report will only cover stages that ran after the
/// inner region began.
///
/// [`Pool`]: bds_pool::Pool
pub fn profile<R>(f: impl FnOnce() -> R) -> (R, ProfileReport) {
    profile_impl(None, f)
}

/// Profile `f`, attributing scheduler statistics to `pool` (which `f` is
/// expected to `install` into).
pub fn profile_on<R>(pool: &bds_pool::Pool, f: impl FnOnce() -> R) -> (R, ProfileReport) {
    profile_impl(Some(pool), f)
}

fn profile_impl<R>(pool: Option<&bds_pool::Pool>, f: impl FnOnce() -> R) -> (R, ProfileReport) {
    reset_slots();
    crate::counters::reset();
    let sched_before = match pool {
        Some(p) => p.stats(),
        None => bds_pool::pool_stats(),
    };
    bds_metrics::reset_peak();
    ENABLED.store(true, Ordering::SeqCst);
    let start = Instant::now();
    // Disable on the way out even if `f` panics, so a failed profiled
    // region cannot leave the process-global instrumentation hot.
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            ENABLED.store(false, Ordering::SeqCst);
        }
    }
    let disarm = Disarm;
    let result = f();
    let wall_ns = start.elapsed().as_nanos() as u64;
    drop(disarm);
    let sched_after = match pool {
        Some(p) => p.stats(),
        None => bds_pool::pool_stats(),
    };
    (result, collect(wall_ns, sched_after.since(&sched_before)))
}

// Behavioral tests live in `tests/profile.rs`: the stage table and the
// enabled flag are process-global, so they need a test binary where no
// unrelated pipelines run concurrently. Only pure helpers are unit
// tested here.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_are_dense_and_distinct() {
        let mut seen = [false; NUM_STAGES];
        for s in STAGES {
            assert!(!seen[s.index()], "duplicate index for {s:?}");
            seen[s.index()] = true;
            assert!(!s.label().is_empty());
        }
        assert!(seen.iter().all(|&b| b));
    }
}
