//! Governed consumers: run a pipeline under a resource [`Budget`]
//! (deadline and/or memory) and surface [`Exceeded`] instead of a
//! partial result.
//!
//! The machinery lives in `bds-pool` ([`bds_pool::run_governed`]): a
//! budget installs a governed [`bds_pool::CancelToken`] for the dynamic
//! extent of the consumer, a shared watchdog thread cancels the token
//! when the deadline passes, and materializing consumers charge their
//! allocations against the memory budget (see `PartialVec` in this
//! crate). Cancellation is cooperative — the drive loops in
//! [`crate::stream`] poll once per [`bds_pool::PollTicker::INTERVAL`]
//! elements of the block they consume — so a governed run stops within one
//! poll chunk per worker, unwinds, drops everything it materialized, and
//! returns `Err`.
//!
//! Two rules worth knowing:
//!
//! * **A complete result wins the race.** If the pipeline finishes
//!   before any worker observes the deadline trip, the value is returned
//!   as `Ok` even if the wall clock has passed the deadline.
//! * **Budgets nest.** A governed run inside another governed run (or
//!   inside a plain cancellation scope) trips only itself; the outer
//!   scope keeps running.
//!
//! Any consumer runs governed by wrapping it in [`run_governed`]:
//! `Ok(value)` if the pipeline completed within the budget,
//! `Err(Exceeded::Deadline)` or `Err(Exceeded::Memory)` if the budget
//! tripped first. On `Err`, everything materialized so far has already
//! been dropped (the same drop-guard protocol that makes panics
//! leak-free).
//!
//! ```
//! use bds_seq::prelude::*;
//! use bds_seq::{run_governed, Budget, Exceeded};
//!
//! // A generous budget: completes normally.
//! let v = run_governed(Budget::unlimited().with_mem_bytes(1 << 20), || {
//!     tabulate(10_000, |i| i as u64).to_vec()
//! })
//! .unwrap();
//! assert_eq!(v.len(), 10_000);
//!
//! // An impossible memory budget: the materialization is refused, no
//! // partial buffer escapes.
//! let err = run_governed(Budget::unlimited().with_mem_bytes(1), || {
//!     tabulate(10_000, |i| i as u64).to_vec()
//! });
//! assert_eq!(err.unwrap_err(), Exceeded::Memory);
//! ```

pub use bds_pool::{run_governed, Budget, Exceeded};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use std::time::{Duration, Instant};

    #[test]
    fn unlimited_budget_is_a_no_op() {
        let v = run_governed(Budget::unlimited(), || {
            tabulate(5000, |i| i as u64).map(|x| x + 1).to_vec()
        })
        .unwrap();
        assert_eq!(v.len(), 5000);
        assert_eq!(v[0], 1);
    }

    #[test]
    fn expired_deadline_refuses_the_run() {
        let err = run_governed(
            Budget::unlimited().deadline_at(Instant::now() - Duration::from_millis(1)),
            || tabulate(100_000, |i| i as u64).reduce(0, |a, b| a + b),
        )
        .unwrap_err();
        assert_eq!(err, Exceeded::Deadline);
    }

    #[test]
    fn tiny_memory_budget_refuses_materialization() {
        let err = run_governed(Budget::unlimited().with_mem_bytes(16), || {
            tabulate(100_000, |i| i as u64).to_vec()
        })
        .unwrap_err();
        assert_eq!(err, Exceeded::Memory);
    }

    #[test]
    fn reduce_does_not_charge_per_element() {
        // reduce materializes only O(blocks); a budget big enough for
        // the block sums but far smaller than n elements still passes.
        let got = run_governed(Budget::unlimited().with_mem_bytes(1 << 16), || {
            tabulate(100_000, |i| i as u64).reduce(0, |a, b| a + b)
        })
        .unwrap();
        assert_eq!(got, 99_999u64 * 100_000 / 2);
    }

    #[test]
    fn governed_filter_collect_charges_survivors() {
        // All 50k survivors charged against a 1KiB budget: must trip.
        let err = run_governed(Budget::unlimited().with_mem_bytes(1024), || {
            tabulate(50_000, |i| i as u64).filter(|_| true).to_vec()
        })
        .unwrap_err();
        assert_eq!(err, Exceeded::Memory);
    }

    #[test]
    fn force_governed_roundtrip() {
        let f = run_governed(Budget::unlimited().with_mem_bytes(1 << 20), || {
            tabulate(1000, |i| i as u32).force()
        })
        .unwrap();
        assert_eq!(f.as_slice().len(), 1000);
    }

    #[test]
    fn deadline_trips_a_long_for_each() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let seen = AtomicUsize::new(0);
        let err = run_governed(
            Budget::unlimited().with_deadline(Duration::from_millis(10)),
            || {
                tabulate(usize::MAX / 2, |i| i).for_each(|_| {
                    seen.fetch_add(1, Ordering::Relaxed);
                })
            },
        )
        .unwrap_err();
        assert_eq!(err, Exceeded::Deadline);
        // Some prefix ran, but nowhere near all of it.
        assert!(seen.load(Ordering::Relaxed) < usize::MAX / 4);
    }
}
