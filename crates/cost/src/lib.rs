//! # bds-cost — the paper's cost semantics, executable
//!
//! Section 5 of *Parallel Block-Delayed Sequences* defines a cost
//! semantics so users can reason about fused pipelines without knowing
//! the implementation: every operation has **eager** work/span/allocation
//! costs plus **delayed** per-index costs carried by its output sequence
//! (Figure 11). This crate implements that semantics:
//!
//! * [`model`] — the Figure 11 table as a composable [`model::Model`];
//! * [`rw`] — the Figure 5 read/write accounting for the best-cut
//!   pipeline (`8n + O(b)` unfused vs `2n + O(b)` fused vs `4n + O(b)`
//!   with a forced first map);
//! * [`bfs_bounds`] — the Section 5.1 worked example: delayed BFS costs
//!   `O(N+M)` work, `O(D(log N + B))` span, `O(N + M/B)` allocations;
//! * [`calibrate`] — a per-process microbenchmark mapping abstract work
//!   units onto nanoseconds, refined at runtime by profiling feedback;
//! * [`geometry`] — the block-geometry solver turning pipeline cost ×
//!   input length × worker count into `(block_size, num_blocks)`. This
//!   is what `bds-seq`'s adaptive policy calls at consumption time.
//!
//! The model is not just descriptive: `bds-seq` accumulates an
//! [`ElemCost`] along each delayed pipeline and hands it to
//! [`geometry::solve`] to pick block geometry.
//!
//! # Examples
//!
//! ```
//! use bds_cost::{geometry, Calibration, ElemCost, SIMPLE};
//!
//! // Two stacked maps over a million elements on 4 workers.
//! let per_elem = SIMPLE + SIMPLE;
//! let cal = Calibration { ns_per_work: 1.0, block_overhead_ns: 1500.0 };
//! let g = geometry::solve(1_000_000, per_elem, 4, &cal);
//! assert!(g.num_blocks >= 4); // saturates the pool
//! assert!(g.block_size * g.num_blocks >= 1_000_000);
//! ```

#![warn(missing_docs)]

pub mod bfs_bounds;
pub mod calibrate;
pub mod geometry;
pub mod lanes;
pub mod model;
pub mod rw;

pub use calibrate::{calibration, override_calibration, Calibration, CalibrationOverride};
pub use geometry::{
    align_to_lane, record_geometry, recorded_geometry, solve as solve_geometry, Geometry,
    GeometryDecision, GeometryRecording,
};
pub use lanes::lane_count;
pub use model::{ceil_log2, Cost, ElemCost, Model, Repr, SeqCost, SIMPLE};
pub use rw::{bestcut_force_first_map, bestcut_fused, bestcut_normal, RwRow, RwTable};
