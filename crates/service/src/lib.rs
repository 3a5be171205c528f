//! # bds-service — async multi-tenant pipeline service
//!
//! An execution front-end over [`bds_pool`]: callers **submit** governed
//! closures and immediately get back a [`Ticket`] — a future parked on
//! the pool's latches, not on an OS thread. Robustness is the design
//! center:
//!
//! * **Fair admission** — per-tenant bounded queues drained by weighted
//!   deficit round-robin; a hot tenant cannot starve a quiet one.
//! * **Backpressure** — a full tenant queue is a typed
//!   [`Rejected::QueueFull`], never unbounded buffering.
//! * **Deadline-aware admission** — requests whose deadline cannot be
//!   met given queue depth and the observed service time fail fast with
//!   [`Rejected::Deadline`] instead of burning pool time.
//! * **Circuit breaking** — a tenant whose requests keep panicking is
//!   cut off ([`Rejected::CircuitOpen`]) and probed back to health on a
//!   doubling, capped cool-down schedule.
//! * **Chaos-proof delivery** — every accepted ticket resolves exactly
//!   once, to the real value or a typed [`ServiceError`], even while
//!   workers are being crashed and respawned underneath it.
//!
//! ```
//! use bds_service::{block_on, Budget, Service, ServiceConfig};
//!
//! let svc = Service::new(ServiceConfig::default());
//! let tenant = svc.tenant("analytics");
//! let ticket = svc
//!     .submit(tenant, Budget::unlimited(), || (1..=100u64).sum::<u64>())
//!     .expect("admitted");
//! assert_eq!(block_on(ticket), Ok(5050));
//! ```
//!
//! The two error channels are deliberately distinct: [`Rejected`] means
//! the request was refused *before* any work ran (the caller may submit
//! it again); [`ServiceError`] arrives *through the ticket* and means
//! the request ran but produced no value (budget trip or panic). There
//! is no third outcome: no lost tickets, no duplicated deliveries, no
//! partial results. Faults inside a request are retried per block
//! under a tenant's [`RetryPolicy`](bds_pool::RetryPolicy) (see
//! [`Service::set_tenant_retry`]).

#![warn(missing_docs)]

mod breaker;
mod service;
mod ticket;

pub use breaker::BreakerConfig;
pub use service::{Rejected, Service, ServiceConfig, Tenant, DEFAULT_COLD_START_WORK};
pub use ticket::{block_on, Response, ServiceError, Ticket};

// Re-exported so call sites can build budgets and match budget trips
// without a direct bds-pool dependency.
pub use bds_pool::{Budget, Exceeded};
