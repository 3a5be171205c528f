//! # bds-plan — pipeline plans, a rewrite optimizer, and a plan cache
//!
//! The static combinators in [`bds_seq`] decide their lowering locally:
//! each adaptor picks a representation (random-access delayed or
//! block-iterable delayed) as it is applied, with no view of the stages
//! downstream. This crate adds the missing whole-pipeline step. A
//! [`Pipe`] captures the stage list *without running it*; an optimizer
//! rewrites the captured plan before anything is consumed; and because
//! the optimizer is a pure function of the pipeline's **shape** — stage
//! kinds, arities, and cost classes, never the closures themselves —
//! its output can be cached and shared across every pipeline with the
//! same shape ([`PlanCache`]).
//!
//! ## Rewrites
//!
//! * **Gather collapse** — a chain of two or more adjacent
//!   `take`/`skip`/`rev` stages is collapsed into one composed
//!   `(offset, len, reversed)` index gather. The static library pays a
//!   force at the first cut on a block-iterable stream and then walks
//!   the remaining cuts one adaptor at a time; the plan pays the same
//!   single force and *one* composed cut.
//! * **Filter–map fusion** — a maximal run of adjacent
//!   `map`/`filter`/`filter_map` stages containing at least one
//!   filter-kind stage is marked as one fused pass. The executor runs
//!   every stage this way — back to back over each chunk, never
//!   materialising the stream between them — so the step records the
//!   optimizer's decision rather than changing execution.
//! * **Lowering choice** — the plan consults
//!   [`bds_cost::geometry::solve`] once for the whole pipeline: shapes
//!   whose geometry collapses to a single block run as one block in the
//!   caller ([`ExecMode::Sequential`]), everything else runs under the
//!   solved geometry on the pool ([`ExecMode::Parallel`]). Sequential
//!   mode is only ever chosen for cut-free shapes so that the demand
//!   semantics of index-space ops (DESIGN.md, "Failure semantics") are
//!   preserved bit-for-bit.
//!
//! ## Execution
//!
//! [`Pipe::execute`] is one block interpreter. Each builder method
//! wraps its closure, while its concrete type is still known, in a
//! kernel over a chunk of up to 1024 elements; a block fills a chunk
//! from the source, runs every stage's kernel over it, and hands it to
//! the consumer. A stage costs one virtual call per chunk, not one per
//! element, and the blocks run through the chunked drive loops of
//! [`bds_seq::stream`].
//!
//! ## What is shared and what is not
//!
//! A cached [`Plan`] holds stage *indices* and a mode — never closures.
//! [`Pipe::execute`] runs the pipe's own stage list on every call, so
//! two pipelines sharing a plan can never observe each other's
//! captures.
//!
//! ```
//! use bds_plan::{ConsumerKind, Pipe, PlanCache};
//!
//! let cache = PlanCache::new(32);
//! let total: u64 = Pipe::tabulate(1 << 14, |i| i as u64)
//!     .map(|x| x * 3)
//!     .filter(|&x| x % 2 == 0)
//!     .reduce_with(&cache, 1, 0, |a, b| a + b);
//! assert_eq!(total, (0..1u64 << 14).map(|x| x * 3).filter(|x| x % 2 == 0).sum());
//! // A second pipeline with the same shape reuses the cached plan.
//! assert_eq!(cache.misses(), 1);
//! ```

#![warn(missing_docs)]

mod cache;
mod exec;
mod kernel;
mod optimize;
mod pipe;
mod service;
mod shape;

pub use cache::PlanCache;
pub use optimize::{identity_plan, optimize, ExecMode, Plan, PlanStep};
pub use pipe::{Consumed, ConsumerOp, Pipe};
pub use service::{submit_collect, submit_count, submit_reduce, TenantPlanner};
pub use shape::{ConsumerKind, PlanShape, SourceKind, StageKey, StageKind};
