//! Block-granular fault recovery: transient-fault retry and
//! poisoned-block quarantine.
//!
//! The block-delayed representation makes every materialization a set
//! of independently computed, disjoint block writes — which means a
//! failed block is re-executable in isolation. [`run_recovered`]
//! installs a [`RetryPolicy`] on the ambient cancellation token, and
//! the stream core's drive loops wrap each pure block body in
//! [`recover_block`]: a panicking block is re-executed at once into its
//! already-reserved disjoint output region, a block that is still
//! failing after [`RetryPolicy::max_attempts`] executions is
//! **quarantined**, and the run surfaces exactly one typed
//! [`BlockFailed`] instead of an escaped panic or a partial result.
//!
//! Recovery composes with the rest of the failure machinery rather than
//! replacing it:
//!
//! * **Budgets** ([`run_governed`](crate::run_governed)): each attempt
//!   re-charges its allocations, so a retry storm trips
//!   `Exceeded::Memory` honestly; block writers discard (never record)
//!   their partial segment on unwind, so nothing is double-reclaimed.
//! * **Cancellation**: retried blocks poll the ambient token between
//!   attempts and abandon the region instead of retrying into a
//!   cancelled run; the [`Cancelled`](crate::cancel::Cancelled)
//!   sentinel is never treated as a fault.
//! * **Worker crash/respawn**: an injected crash fires between jobs, so
//!   a block whose attempt is in flight simply completes on a surviving
//!   or respawned worker — tier 2 of the recovery ladder (see
//!   `docs/ARCHITECTURE.md`) is independent of tier 1.
//! * **Side effects**: `for_each`-style consumers are never retried
//!   (re-running an effectful block would double-apply its effects):
//!   their blocks do not run under [`recover_block`], so a fault in one
//!   propagates as a plain panic.
//!
//! Geometry is pinned before the drive loop fans out, so a retried
//! block re-executes with the same block size and bounds — results are
//! bit-identical to an unfaulted run.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::cancel::{self, CancelToken};

/// How [`run_recovered`] treats a panicking block: every panic is
/// retried at once, until the block has run `max_attempts` times.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total executions a block may consume (first run + retries) before
    /// it is quarantined. `1` means quarantine on first failure (typed
    /// [`BlockFailed`], no re-execution); `0` is treated as `1`.
    pub max_attempts: usize,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 3 }
    }
}

impl RetryPolicy {
    /// Set [`RetryPolicy::max_attempts`].
    pub fn with_max_attempts(mut self, n: usize) -> RetryPolicy {
        self.max_attempts = n;
        self
    }
}

/// Typed failure of one quarantined block: the pipeline's output for a
/// run in which some block kept failing. Exactly one is surfaced per
/// [`run_recovered`] (the lowest failing block ordinal, if several
/// raced), never an escaped panic, never a partial result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockFailed {
    /// Index of the quarantined block within its drive loop's geometry.
    pub ordinal: usize,
    /// Executions the block consumed before quarantine: the policy's
    /// `max_attempts` (at least 1).
    pub attempts: usize,
}

impl std::fmt::Display for BlockFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "block {} quarantined after {} attempt{}",
            self.ordinal,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" }
        )
    }
}

impl std::error::Error for BlockFailed {}

/// Process-wide recovery counters, exported next to the governance trip
/// counters in benchmark harnesses and [`PoolStats`](crate::PoolStats).
static BLOCK_RETRIES: AtomicU64 = AtomicU64::new(0);
static QUARANTINES: AtomicU64 = AtomicU64::new(0);
static RECOVERED_JOBS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide block-recovery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounts {
    /// Individual block re-executions after a transient fault.
    pub block_retries: u64,
    /// Blocks quarantined after exhausting their attempts; each
    /// corresponds to one surfaced [`BlockFailed`].
    pub quarantines: u64,
    /// [`run_recovered`] runs that completed successfully *after* at
    /// least one block retry — faults absorbed invisibly.
    pub recovered_jobs: u64,
}

impl RecoveryCounts {
    /// Per-field difference `self - baseline` (saturating), for
    /// measuring one region between two snapshots.
    pub fn saturating_sub(&self, other: &RecoveryCounts) -> RecoveryCounts {
        RecoveryCounts {
            block_retries: self.block_retries.saturating_sub(other.block_retries),
            quarantines: self.quarantines.saturating_sub(other.quarantines),
            recovered_jobs: self.recovered_jobs.saturating_sub(other.recovered_jobs),
        }
    }
}

/// Snapshot the process-wide recovery counters (cumulative since
/// process start).
pub fn recovery_counts() -> RecoveryCounts {
    RecoveryCounts {
        block_retries: BLOCK_RETRIES.load(Ordering::Relaxed),
        quarantines: QUARANTINES.load(Ordering::Relaxed),
        recovered_jobs: RECOVERED_JOBS.load(Ordering::Relaxed),
    }
}

/// Shared recovery state of one [`run_recovered`] region. Hangs off the
/// recovering token (and all its descendants), so block bodies on
/// stolen workers find their policy with no extra plumbing — the same
/// inheritance the governance context uses.
///
/// Public only for the `loom` model-checking facade; not a stable API.
#[derive(Debug)]
pub struct RetryCtx {
    policy: RetryPolicy,
    /// Lowest-ordinal quarantined block, if any: the one failure the
    /// enclosing [`run_recovered`] surfaces.
    failed: Mutex<Option<BlockFailed>>,
    /// Block re-executions inside this region.
    retried: AtomicU64,
}

impl RetryCtx {
    pub(crate) fn new(policy: RetryPolicy) -> RetryCtx {
        RetryCtx {
            policy,
            failed: Mutex::new(None),
            retried: AtomicU64::new(0),
        }
    }

    pub(crate) fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Record a quarantined block; among concurrent quarantines the
    /// lowest block ordinal wins, so the surfaced failure is
    /// deterministic even when several blocks raced to fail.
    pub(crate) fn record_failure(&self, failure: BlockFailed) {
        let mut slot = self.failed.lock().unwrap_or_else(|p| p.into_inner());
        match &*slot {
            Some(prev) if prev.ordinal <= failure.ordinal => {}
            _ => *slot = Some(failure),
        }
    }

    pub(crate) fn take_failure(&self) -> Option<BlockFailed> {
        self.failed.lock().unwrap_or_else(|p| p.into_inner()).take()
    }

    pub(crate) fn note_retried(&self) {
        self.retried.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn retried(&self) -> u64 {
        self.retried.load(Ordering::Relaxed)
    }
}

/// The retry context of the ambient token, if the current thread is
/// inside a [`run_recovered`] region.
fn ambient_retry_ctx() -> Option<Arc<RetryCtx>> {
    cancel::current_token().and_then(|t| t.retry_ctx())
}

/// Run one block body under the ambient [`RetryPolicy`], if any.
///
/// The canonical per-block wrap used by the drive loops in
/// `bds_seq::stream` for **pure block writes** (materializations,
/// per-block folds): the block's output region is disjoint and its
/// writer discards partial content on unwind, so re-execution is
/// idempotent. Outside a [`run_recovered`] region (or with
/// `max_attempts <= 1` only in the sense that quarantine is immediate)
/// behavior is unchanged except that failures become quarantines.
///
/// Protocol per attempt:
/// * `body` returning normally (including `Err` values — those are
///   results, not faults) ends the loop.
/// * A [`Cancelled`](crate::cancel::Cancelled) sentinel is resumed
///   unchanged: cancellation is never retried against.
/// * Any other panic on the last allowed attempt quarantines the block
///   (records the [`BlockFailed`], cancels the region so siblings stop
///   at their next boundary, and abandons via the sentinel); on an
///   earlier one the block is re-executed at once.
pub fn recover_block<R>(ordinal: usize, body: impl Fn() -> R) -> R {
    match ambient_retry_ctx() {
        Some(ctx) => retry_loop(&ctx, ordinal, body),
        None => body(),
    }
}

fn retry_loop<R>(ctx: &RetryCtx, ordinal: usize, body: impl Fn() -> R) -> R {
    let max_attempts = ctx.policy().max_attempts.max(1);
    let mut attempt = 0usize;
    loop {
        attempt += 1;
        let payload = match catch_unwind(AssertUnwindSafe(&body)) {
            Ok(value) => return value,
            Err(payload) => payload,
        };
        if cancel::is_cancellation(&*payload) {
            // Cancellation (budget trip, sibling failure, enclosing
            // region) is not a block fault: abandon, never retry.
            resume_unwind(payload);
        }
        if attempt >= max_attempts {
            quarantine(ctx, BlockFailed { ordinal, attempts: attempt });
        }
        if cancel::cancellation_requested() {
            // The run was cancelled while this block was failing:
            // don't retry into a dead region.
            cancel::abort_region();
        }
        // Re-execute this block only. The output region is untouched
        // (writers discard on unwind), geometry is pinned by the caller,
        // and budgets re-charge naturally on the next attempt.
        BLOCK_RETRIES.fetch_add(1, Ordering::Relaxed);
        ctx.note_retried();
    }
}

/// Quarantine the block: record the typed failure, cancel the region so
/// sibling blocks stop at their next boundary, and abandon this block
/// via the sentinel (the enclosing [`run_recovered`] surfaces the
/// recorded [`BlockFailed`]).
fn quarantine(ctx: &RetryCtx, failure: BlockFailed) -> ! {
    ctx.record_failure(failure);
    QUARANTINES.fetch_add(1, Ordering::Relaxed);
    if let Some(token) = cancel::current_token() {
        token.cancel();
    }
    cancel::abort_region()
}

/// Run `f` with block-granular fault recovery under `policy`: a
/// recovering [`CancelToken`] is installed as the ambient token, and
/// every pure block the stream core's drive loops execute inside `f` is
/// wrapped in [`recover_block`].
///
/// * If every block completes (possibly after retries),
///   `Ok(value)` — a run that absorbed at least one retry also bumps
///   the process-wide `recovered_jobs` counter.
/// * If some block was quarantined, exactly one typed
///   `Err(`[`BlockFailed`]`)` for the lowest failing ordinal; partial
///   buffers were reclaimed by their drop guards on the way out.
/// * Panics outside the drive loops (or with retry exhausted *and* no
///   context — impossible here) propagate unchanged, as does the
///   cancellation sentinel raised on behalf of an enclosing region.
///
/// Nesting: the token is a child of the ambient one, so an enclosing
/// cancellation or budget trip stops the recovered region, while a
/// quarantine here never cancels the enclosing region. Combine with
/// [`run_governed`](crate::run_governed) in either order; budgets are
/// charged once per attempt either way.
pub fn run_recovered<R>(policy: RetryPolicy, f: impl FnOnce() -> R) -> Result<R, BlockFailed> {
    run_recovered_counting(policy, f).0
}

/// [`run_recovered`], also returning how many block re-executions the
/// run performed — the hook multi-tenant front-ends use to account
/// retried blocks per tenant, distinct from breaker strikes.
pub fn run_recovered_counting<R>(
    policy: RetryPolicy,
    f: impl FnOnce() -> R,
) -> (Result<R, BlockFailed>, u64) {
    let ctx = Arc::new(RetryCtx::new(policy));
    let token = match cancel::current_token() {
        Some(parent) => parent.child_retrying(Arc::clone(&ctx)),
        None => CancelToken::new_retrying(Arc::clone(&ctx)),
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| cancel::with_token(&token, f)));
    let retried = ctx.retried();
    let result = match outcome {
        Ok(value) => match ctx.take_failure() {
            // A quarantine was recorded but a sibling protocol layer
            // (e.g. `apply_cancellable`'s lowest-block-index `Err`)
            // absorbed the sentinel: the quarantine still wins — the
            // value is partial.
            Some(failure) => Err(failure),
            None => {
                if retried > 0 {
                    RECOVERED_JOBS.fetch_add(1, Ordering::Relaxed);
                }
                Ok(value)
            }
        },
        Err(payload) => match ctx.take_failure() {
            // The quarantine's abandon-unwind (sentinel under
            // `apply_cancellable`, raw panic propagation under plain
            // `apply`) reached the join: surface the typed failure.
            Some(failure) => Err(failure),
            // Not ours: a real panic from `f`, or the sentinel raised
            // on behalf of an enclosing cancelled/governed region.
            None => resume_unwind(payload),
        },
    };
    (result, retried)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pool;

    #[test]
    fn fault_free_run_passes_value_through() {
        let pool = Pool::new(2);
        let r = pool.install(|| run_recovered(RetryPolicy::default(), || 41 + 1));
        assert_eq!(r, Ok(42));
    }

    #[test]
    fn lowest_ordinal_quarantine_wins() {
        let pool = Pool::new(4);
        for _ in 0..10 {
            let barrier = std::sync::Barrier::new(4);
            let r: Result<(), BlockFailed> = pool.install(|| {
                run_recovered(RetryPolicy::default().with_max_attempts(1), || {
                    crate::apply(4, |j| {
                        recover_block(j, || {
                            barrier.wait();
                            if j % 2 == 1 {
                                panic!("fault");
                            }
                        })
                    });
                })
            });
            assert_eq!(r, Err(BlockFailed { ordinal: 1, attempts: 1 }));
        }
    }

    #[test]
    fn outside_run_recovered_blocks_propagate_panics() {
        let pool = Pool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                crate::apply(4, |j| {
                    recover_block(j, || {
                        if j == 2 {
                            panic!("no ambient policy");
                        }
                    })
                })
            })
        }));
        assert!(caught.is_err());
        assert_eq!(pool.install(|| 5), 5);
    }

    #[test]
    fn retry_composes_with_governed_budget() {
        use crate::{run_governed, Budget, Exceeded};
        let pool = Pool::new(2);
        // A retry storm must still trip the memory budget honestly:
        // each attempt charges, so the cumulative charge crosses the
        // limit and the run reports Exceeded::Memory, not a partial Ok.
        let r = pool.install(|| {
            run_recovered(RetryPolicy::default().with_max_attempts(8), || {
                run_governed(Budget::unlimited().with_mem_bytes(4096), || {
                    crate::apply(2, |j| {
                        recover_block(j, || {
                            if j == 1 {
                                crate::govern::charge_or_abort(1024);
                                panic!("transient, but each attempt charges 1 KiB");
                            }
                        })
                    });
                })
            })
        });
        match r {
            Ok(Err(Exceeded::Memory)) => {}
            other => panic!("expected a memory trip, got {other:?}"),
        }
    }

    #[test]
    fn block_failed_formats_attempts() {
        assert_eq!(
            BlockFailed { ordinal: 7, attempts: 3 }.to_string(),
            "block 7 quarantined after 3 attempts"
        );
        assert_eq!(
            BlockFailed { ordinal: 0, attempts: 1 }.to_string(),
            "block 0 quarantined after 1 attempt"
        );
    }
}
