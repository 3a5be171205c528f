//! # bds-plan — pipeline plans, a lowering optimizer, and a plan cache
//!
//! The static combinators in [`bds_seq`] decide their lowering locally:
//! each adaptor picks a representation (random-access delayed or
//! block-iterable delayed) as it is applied, with no view of the stages
//! downstream. This crate adds the missing whole-pipeline step. A
//! [`Pipe`] captures the stage list *without running it*; an optimizer
//! chooses how the whole pipeline runs before anything is consumed; and
//! because the optimizer is a pure function of the pipeline's **shape**
//! — stage kinds, arities, and cost classes, never the closures
//! themselves — its output can be cached and shared across every
//! pipeline with the same shape ([`PlanCache`]).
//!
//! ## The optimizer's decision
//!
//! The plan consults [`bds_cost::geometry::solve`] once for the whole
//! pipeline: shapes whose geometry collapses to a single block run as
//! one block in the caller ([`ExecMode::Sequential`]), everything else
//! runs on the pool under the geometry each segment solves when it is
//! consumed ([`ExecMode::Parallel`]). Sequential mode is only ever
//! chosen for cut-free shapes so that the demand semantics of
//! index-space ops (DESIGN.md, "Failure semantics") are preserved
//! bit-for-bit.
//!
//! Nothing else needs rewriting, because the executor already runs
//! every pipeline in its cheapest form: adjacent `map`/`filter`/
//! `filter_map` stages run back to back over each chunk, never
//! materialising the stream between them, and a chain of adjacent
//! `take`/`skip`/`rev` stages composes into one window of the input, so
//! the plan pays at most the single force the static library pays at a
//! cut on a block-iterable stream.
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
//! A cached [`Plan`] holds a shape and a mode — never closures.
//! [`Pipe::execute`] runs the pipe's own stage list on every call, so
//! two pipelines sharing a plan can never observe each other's
//! captures.
//!
//! ```
//! use std::sync::Arc;
//! use bds_plan::{Consumed, ConsumerKind, ConsumerOp, Pipe, PlanCache};
//!
//! let cache = PlanCache::new(32);
//! let pipe = Pipe::tabulate(1 << 14, |i| i as u64)
//!     .map(|x| x * 3)
//!     .filter(|&x| x % 2 == 0);
//! let (plan, _) = cache.plan(pipe.shape(ConsumerKind::Reduce), 1);
//! let sum = ConsumerOp::Reduce(0, Arc::new(|a: u64, b: u64| a + b), bds_cost::SIMPLE);
//! let want = (0..1u64 << 14).map(|x| x * 3).filter(|x| x % 2 == 0).sum();
//! assert_eq!(pipe.execute(&plan, &sum), Consumed::Scalar(want));
//! // A second pipeline with the same shape reuses the cached plan.
//! let other = Pipe::tabulate(1 << 14, |i| i as u64)
//!     .map(|x| x + 1)
//!     .filter(|&x| x > 7);
//! let (_, hit) = cache.plan(other.shape(ConsumerKind::Reduce), 1);
//! assert!(hit);
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
pub use optimize::{identity_plan, optimize, ExecMode, Plan};
pub use pipe::{Consumed, ConsumerOp, Pipe};
pub use service::{submit_collect, submit_count, submit_reduce, TenantPlanner};
pub use shape::{ConsumerKind, PlanShape, SourceKind, StageKey, StageKind};
