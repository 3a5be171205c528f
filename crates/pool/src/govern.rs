//! Resource governance: deadlines and memory budgets for pipeline runs.
//!
//! A [`Budget`] bounds one region of work in wall-clock time and/or
//! charged heap bytes. [`run_governed`] installs a governed
//! [`CancelToken`] around a closure: a lazy global
//! watchdog thread cancels the token when the deadline passes, and
//! allocation sites charge bytes via [`try_charge`] /
//! [`charge_or_abort`], cancelling the token when the memory budget is
//! exhausted. Either way the loop primitives stop at their next block
//! boundary (or within one poll chunk inside a long sequential block —
//! see [`PollTicker`](crate::cancel::PollTicker)), partial buffers are
//! reclaimed by their drop guards, and the caller gets
//! `Err(Exceeded::Deadline)` or `Err(Exceeded::Memory)` instead of a
//! partial result.
//!
//! Governance composes with the existing cancellation protocol rather
//! than replacing it: tripping a budget is exactly a cancellation whose
//! *cause* is recorded on the shared governance context, and
//! [`run_governed`] classifies the resulting [`Cancelled`] sentinel at
//! the join point.
//!
//! [`Cancelled`]: crate::cancel::Cancelled

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::cancel::{self, CancelToken};

/// Resource bounds for one governed run. Both limits are optional; an
/// unlimited budget makes [`run_governed`] equivalent to
/// [`with_token`](crate::with_token) with a fresh token.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Absolute wall-clock instant after which the run is cancelled and
    /// reported as [`Exceeded::Deadline`].
    pub deadline: Option<Instant>,
    /// Maximum heap bytes the run may *charge* (cumulative across the
    /// run's materializations; freed buffers are not refunded). Charged
    /// allocations past this limit cancel the run, which is reported as
    /// [`Exceeded::Memory`].
    pub mem_bytes: Option<usize>,
}

impl Budget {
    /// A budget with no limits.
    pub const fn unlimited() -> Budget {
        Budget {
            deadline: None,
            mem_bytes: None,
        }
    }

    /// Set the deadline to `after` from now.
    pub fn with_deadline(mut self, after: Duration) -> Budget {
        self.deadline = Some(Instant::now() + after);
        self
    }

    /// Set the deadline to the absolute instant `at`.
    pub fn deadline_at(mut self, at: Instant) -> Budget {
        self.deadline = Some(at);
        self
    }

    /// Set the memory budget to `bytes` charged heap bytes.
    pub fn with_mem_bytes(mut self, bytes: usize) -> Budget {
        self.mem_bytes = Some(bytes);
        self
    }
}

/// Why a governed run was cut short.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exceeded {
    /// The wall-clock deadline passed before the run completed.
    Deadline,
    /// The run tried to charge more heap bytes than its budget allows.
    Memory,
}

impl std::fmt::Display for Exceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exceeded::Deadline => write!(f, "deadline exceeded"),
            Exceeded::Memory => write!(f, "memory budget exceeded"),
        }
    }
}

impl std::error::Error for Exceeded {}

/// Shared cause-of-cancellation record for one governed run. Hangs off
/// the governed token (and all its descendants), so any thread holding
/// the ambient token can charge memory against the run.
#[derive(Debug)]
pub(crate) struct GovernCtx {
    mem_limit: Option<usize>,
    mem_charged: AtomicUsize,
    mem_hit: AtomicBool,
    deadline_hit: AtomicBool,
}

impl GovernCtx {
    fn new(mem_limit: Option<usize>) -> GovernCtx {
        GovernCtx {
            mem_limit,
            mem_charged: AtomicUsize::new(0),
            mem_hit: AtomicBool::new(false),
            deadline_hit: AtomicBool::new(false),
        }
    }

    fn mem_hit(&self) -> bool {
        self.mem_hit.load(Ordering::Acquire)
    }

    fn deadline_hit(&self) -> bool {
        self.deadline_hit.load(Ordering::Acquire)
    }

    fn note_deadline(&self) {
        if !self.deadline_hit.swap(true, Ordering::AcqRel) {
            DEADLINE_TRIPS.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn note_mem(&self) {
        if !self.mem_hit.swap(true, Ordering::AcqRel) {
            MEM_TRIPS.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charge `bytes` against the budget; `Err(Exceeded::Memory)` once
    /// the cumulative charge passes the limit.
    fn charge(&self, bytes: usize) -> Result<(), Exceeded> {
        let total = self
            .mem_charged
            .fetch_add(bytes, Ordering::Relaxed)
            .saturating_add(bytes);
        match self.mem_limit {
            Some(limit) if total > limit => Err(Exceeded::Memory),
            _ => Ok(()),
        }
    }
}

/// Process-wide counts of budget trips, exported by benchmark harnesses
/// (soak job) alongside the pool's respawn counter.
static DEADLINE_TRIPS: AtomicU64 = AtomicU64::new(0);
static MEM_TRIPS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide governance trip counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TripCounts {
    /// Governed runs cut short by their deadline.
    pub deadline: u64,
    /// Governed runs cut short by their memory budget.
    pub memory: u64,
}

/// Snapshot the process-wide counts of governed runs that tripped a
/// deadline or a memory budget (cumulative since process start).
pub fn trip_counts() -> TripCounts {
    TripCounts {
        deadline: DEADLINE_TRIPS.load(Ordering::Relaxed),
        memory: MEM_TRIPS.load(Ordering::Relaxed),
    }
}

/// Charge `bytes` of imminent heap allocation against the ambient
/// governed run's memory budget.
///
/// No-op `Ok(())` when the current thread is not inside a governed run
/// or the run has no memory limit. On exhaustion the governed token is
/// cancelled (so sibling blocks stop at their next boundary) and
/// `Err(Exceeded::Memory)` is returned; the caller decides whether to
/// propagate an error or abandon the region (see [`charge_or_abort`]).
pub fn try_charge(bytes: usize) -> Result<(), Exceeded> {
    let Some(token) = cancel::current_token() else {
        return Ok(());
    };
    let Some(ctx) = token.govern_ctx() else {
        return Ok(());
    };
    match ctx.charge(bytes) {
        Ok(()) => Ok(()),
        Err(e) => {
            ctx.note_mem();
            token.cancel();
            Err(e)
        }
    }
}

/// Record a *real* allocator failure (`try_reserve` returned an error)
/// against the ambient governed run.
///
/// Returns `true` when a governed run absorbed the failure — its token
/// is cancelled and the caller should abandon the region (the enclosing
/// [`run_governed`] reports `Err(Exceeded::Memory)`). Returns `false`
/// when no governance is in effect; the caller falls back to panicking,
/// as an ungoverned out-of-memory always did.
pub fn note_alloc_failure() -> bool {
    let Some(token) = cancel::current_token() else {
        return false;
    };
    let Some(ctx) = token.govern_ctx() else {
        return false;
    };
    ctx.note_mem();
    token.cancel();
    true
}

/// [`try_charge`], abandoning the region with the
/// [`Cancelled`](crate::cancel::Cancelled) sentinel when the budget is
/// exhausted. The hook used by infallible materializing consumers: the
/// sentinel unwinds through their drop guards (reclaiming partial
/// buffers) up to the enclosing [`run_governed`], which reports
/// `Err(Exceeded::Memory)`.
pub fn charge_or_abort(bytes: usize) {
    if try_charge(bytes).is_err() {
        cancel::abort_region();
    }
}

/// One registered deadline, waiting on the watchdog thread.
struct WatchdogEntry {
    id: u64,
    deadline: Instant,
    ctx: Arc<GovernCtx>,
    token: CancelToken,
}

struct Watchdog {
    entries: Mutex<Vec<WatchdogEntry>>,
    cond: Condvar,
}

fn watchdog() -> &'static Watchdog {
    static WATCHDOG: OnceLock<&'static Watchdog> = OnceLock::new();
    WATCHDOG.get_or_init(|| {
        let dog: &'static Watchdog = Box::leak(Box::new(Watchdog {
            entries: Mutex::new(Vec::new()),
            cond: Condvar::new(),
        }));
        std::thread::Builder::new()
            .name("bds-govern-watchdog".into())
            .spawn(move || watchdog_main(dog))
            .expect("failed to spawn governance watchdog");
        dog
    })
}

fn watchdog_main(dog: &'static Watchdog) {
    let mut entries = dog.entries.lock();
    loop {
        let now = Instant::now();
        // Fire everything that is due, keep the rest.
        entries.retain(|e| {
            if e.deadline <= now {
                e.ctx.note_deadline();
                e.token.cancel();
                false
            } else {
                true
            }
        });
        match entries.iter().map(|e| e.deadline).min() {
            Some(next) => {
                let _ = dog
                    .cond
                    .wait_for(&mut entries, next.saturating_duration_since(Instant::now()));
            }
            None => dog.cond.wait(&mut entries),
        }
    }
}

/// RAII deregistration of a deadline from the watchdog.
struct DeadlineGuard {
    id: u64,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        let dog = watchdog();
        let mut entries = dog.entries.lock();
        entries.retain(|e| e.id != self.id);
        // No need to wake the watchdog for a removal: it only ever
        // sleeps *longer* than necessary by one spurious wakeup.
    }
}

fn register_deadline(deadline: Instant, ctx: Arc<GovernCtx>, token: CancelToken) -> DeadlineGuard {
    static NEXT_ID: AtomicU64 = AtomicU64::new(0);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let dog = watchdog();
    {
        let mut entries = dog.entries.lock();
        entries.push(WatchdogEntry {
            id,
            deadline,
            ctx,
            token,
        });
    }
    dog.cond.notify_all();
    DeadlineGuard { id }
}

/// Run `f` under `budget`: a governed [`CancelToken`]
/// is installed as the ambient token, the deadline (if any) is armed on
/// the global watchdog thread, and charged allocations (see
/// [`try_charge`]) count against the memory budget.
///
/// * If `f` completes without any of its work being skipped, its value
///   is returned — even when the deadline fired just after the last
///   block finished: a complete result is never discarded.
/// * If a budget tripped and work was skipped, `Err(Exceeded::…)` names
///   the cause. Materializing consumers reclaim their partial buffers
///   on the way out (drop guards); side-effecting consumers
///   (`for_each`) may have applied a prefix of their effects.
/// * Panics from `f` propagate unchanged; an enclosing cancelled region
///   is re-raised as the sentinel so the outer protocol handles it.
///
/// The token nests: inside an enclosing cancelled region the governed
/// region stops too, while a budget trip here never cancels the
/// enclosing region.
pub fn run_governed<R>(budget: Budget, f: impl FnOnce() -> R) -> Result<R, Exceeded> {
    let ctx = Arc::new(GovernCtx::new(budget.mem_bytes));
    let token = match cancel::current_token() {
        Some(parent) => parent.child_governed(Arc::clone(&ctx)),
        None => CancelToken::new_governed(Arc::clone(&ctx)),
    };
    let _deadline_guard = budget.deadline.map(|at| {
        if at <= Instant::now() {
            // Already expired: trip deterministically without a
            // watchdog round-trip.
            ctx.note_deadline();
            token.cancel();
            None
        } else {
            Some(register_deadline(at, Arc::clone(&ctx), token.clone()))
        }
    });
    let outcome = catch_unwind(AssertUnwindSafe(|| cancel::with_token(&token, f)));
    match outcome {
        Ok(value) => {
            if token.skipped_blocks() == 0 {
                return Ok(value);
            }
            // Work was skipped: the value is partial. Name the cause.
            if ctx.mem_hit() {
                Err(Exceeded::Memory)
            } else if ctx.deadline_hit() {
                Err(Exceeded::Deadline)
            } else {
                // Skips caused by an enclosing cancelled region:
                // abandon upwards, as an un-governed region would.
                cancel::abort_region()
            }
        }
        Err(payload) => {
            if !cancel::is_cancellation(&*payload) {
                resume_unwind(payload);
            }
            if ctx.mem_hit() {
                Err(Exceeded::Memory)
            } else if ctx.deadline_hit() {
                Err(Exceeded::Deadline)
            } else {
                // Sentinel raised on behalf of an enclosing region.
                resume_unwind(payload)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pool;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn unlimited_budget_passes_value_through() {
        let pool = Pool::new(2);
        let r = pool.install(|| run_governed(Budget::unlimited(), || 41 + 1));
        assert_eq!(r, Ok(42));
    }

    #[test]
    fn expired_deadline_trips_before_any_block() {
        let pool = Pool::new(2);
        let ran = AtomicUsize::new(0);
        let budget = Budget::default().deadline_at(Instant::now() - Duration::from_millis(1));
        let r = pool.install(|| {
            run_governed(budget, || {
                crate::apply(64, |_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
                7
            })
        });
        assert_eq!(r, Err(Exceeded::Deadline));
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn watchdog_cancels_a_running_loop() {
        let pool = Pool::new(2);
        let budget = Budget::default().with_deadline(Duration::from_millis(5));
        let started = Instant::now();
        let r = pool.install(|| {
            run_governed(budget, || {
                crate::apply(1 << 20, |_| {
                    std::hint::black_box((0..50).sum::<u64>());
                });
            })
        });
        assert_eq!(r, Err(Exceeded::Deadline));
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "cancellation must not take unboundedly long"
        );
    }

    #[test]
    fn memory_charge_trips_budget() {
        let pool = Pool::new(2);
        let budget = Budget::default().with_mem_bytes(1024);
        let r = pool.install(|| {
            run_governed(budget, || {
                charge_or_abort(512); // fits
                charge_or_abort(4096); // exceeds -> aborts
                unreachable!("charge past the budget must abort");
            })
        });
        assert_eq!(r, Err(Exceeded::Memory));
    }

    #[test]
    fn try_charge_without_governance_is_free() {
        assert_eq!(try_charge(usize::MAX), Ok(()));
    }

    #[test]
    fn complete_result_wins_a_deadline_race() {
        // Deadline armed but generous: the run completes first and the
        // value must come through even though a watchdog entry existed.
        let budget = Budget::default().with_deadline(Duration::from_secs(3600));
        assert_eq!(run_governed(budget, || "done"), Ok("done"));
    }

    #[test]
    fn trip_counts_increase_on_deadline_trip() {
        let before = trip_counts();
        let budget = Budget::default().deadline_at(Instant::now() - Duration::from_millis(1));
        let r = run_governed(budget, || {
            crate::apply(8, |_| {});
        });
        assert_eq!(r, Err(Exceeded::Deadline));
        assert!(trip_counts().deadline > before.deadline);
    }

    #[test]
    fn nested_budget_trip_stays_contained() {
        let pool = Pool::new(2);
        let r = pool.install(|| {
            run_governed(Budget::unlimited(), || {
                let inner = run_governed(Budget::default().with_mem_bytes(1), || {
                    charge_or_abort(1024);
                });
                assert_eq!(inner, Err(Exceeded::Memory));
                // The outer region is still healthy.
                let done = AtomicUsize::new(0);
                crate::apply(16, |_| {
                    done.fetch_add(1, Ordering::Relaxed);
                });
                done.load(Ordering::Relaxed)
            })
        });
        assert_eq!(r, Ok(16));
    }
}
