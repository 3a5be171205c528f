//! Cooperative cross-block cancellation.
//!
//! A [`CancelToken`] is a shared flag observed by the loop primitives
//! ([`apply`](crate::apply), [`parallel_for`](crate::parallel_for),
//! [`parallel_for_grain`](crate::parallel_for_grain)) at **block
//! granularity**: once the token is cancelled, sibling chunks that have
//! not started yet are skipped (and counted), while chunks already
//! running finish normally. Nothing is interrupted mid-element.
//!
//! Tokens propagate *structurally*, not by thread identity: a loop
//! primitive reads the ambient token once on the thread that enters it,
//! carries the token through its own fork-join recursion, and
//! re-installs it around each leaf chunk so that nested loop primitives
//! called from inside `f(i)` — possibly on a stolen worker thread —
//! inherit it.
//!
//! [`apply_cancellable`] builds the failure protocol on top: the first
//! block that returns `Err` or panics flips the token, remaining blocks
//! are skipped at their next block boundary, and the failure is
//! reported at the join point — a real panic payload wins over an
//! `Err`, and among `Err`s the one from the lowest block index is kept.
//!
//! Secondary aborts use the [`Cancelled`] sentinel payload: work that
//! notices cancellation mid-way and cannot produce a meaningful result
//! (e.g. a partially materialized buffer) panics with `Cancelled` to
//! abandon the region. `apply_cancellable` filters these in favor of
//! the recorded primary failure.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct CancelState {
    cancelled: AtomicBool,
    /// Leaf chunks skipped because this token (or an ancestor) was
    /// cancelled. Ancestors are incremented too, so an outer token
    /// observes skips that happened inside nested regions.
    skipped: AtomicU64,
    parent: Option<Arc<CancelState>>,
    /// The governed run this token belongs to, if any (see
    /// [`crate::govern`]). Children inherit it, so memory charges made
    /// on stolen workers reach the right budget with no extra plumbing.
    govern: Option<Arc<crate::govern::GovernCtx>>,
    /// The recovering run this token belongs to, if any (see
    /// [`crate::recovery`]). Children inherit it, so block bodies on
    /// stolen workers find their retry policy the same way they find
    /// their budget.
    retry: Option<Arc<crate::recovery::RetryCtx>>,
}

impl CancelState {
    fn is_cancelled(&self) -> bool {
        if self.cancelled.load(Ordering::Acquire) {
            return true;
        }
        let mut cur = self.parent.as_deref();
        while let Some(state) = cur {
            if state.cancelled.load(Ordering::Acquire) {
                return true;
            }
            cur = state.parent.as_deref();
        }
        false
    }
}

/// A shared cancellation flag observed by the loop primitives at block
/// granularity. Cheap to clone (one `Arc`).
#[derive(Debug, Clone)]
pub struct CancelToken {
    state: Arc<CancelState>,
}

impl CancelToken {
    /// A fresh, un-cancelled token with no parent.
    pub fn new() -> CancelToken {
        CancelToken {
            state: Arc::new(CancelState {
                cancelled: AtomicBool::new(false),
                skipped: AtomicU64::new(0),
                parent: None,
                govern: None,
                retry: None,
            }),
        }
    }

    /// A child token: cancelled when either it or `self` is cancelled.
    /// Cancelling the child does *not* cancel `self` — failures inside
    /// a nested region stay contained in it. The child inherits the
    /// parent's governed and recovering runs (if any), so nested
    /// regions keep charging the same budget and retrying under the
    /// same policy.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            state: Arc::new(CancelState {
                cancelled: AtomicBool::new(false),
                skipped: AtomicU64::new(0),
                parent: Some(Arc::clone(&self.state)),
                govern: self.state.govern.clone(),
                retry: self.state.retry.clone(),
            }),
        }
    }

    /// A fresh parentless token bound to a governed run.
    pub(crate) fn new_governed(ctx: Arc<crate::govern::GovernCtx>) -> CancelToken {
        CancelToken {
            state: Arc::new(CancelState {
                cancelled: AtomicBool::new(false),
                skipped: AtomicU64::new(0),
                parent: None,
                govern: Some(ctx),
                retry: None,
            }),
        }
    }

    /// A child of `self` bound to a *new* governed run: inner budgets
    /// shadow outer ones, while cancellation still flows downward from
    /// the parent. The recovering run (if any) is inherited unchanged,
    /// so `run_recovered(run_governed(..))` and the reverse nesting
    /// both see one retry policy and one budget.
    pub(crate) fn child_governed(&self, ctx: Arc<crate::govern::GovernCtx>) -> CancelToken {
        CancelToken {
            state: Arc::new(CancelState {
                cancelled: AtomicBool::new(false),
                skipped: AtomicU64::new(0),
                parent: Some(Arc::clone(&self.state)),
                govern: Some(ctx),
                retry: self.state.retry.clone(),
            }),
        }
    }

    /// A fresh parentless token bound to a recovering run.
    pub(crate) fn new_retrying(ctx: Arc<crate::recovery::RetryCtx>) -> CancelToken {
        CancelToken {
            state: Arc::new(CancelState {
                cancelled: AtomicBool::new(false),
                skipped: AtomicU64::new(0),
                parent: None,
                govern: None,
                retry: Some(ctx),
            }),
        }
    }

    /// A child of `self` bound to a *new* recovering run: an inner
    /// retry policy shadows an outer one, while cancellation still
    /// flows downward and the governed run (if any) is inherited.
    pub(crate) fn child_retrying(&self, ctx: Arc<crate::recovery::RetryCtx>) -> CancelToken {
        CancelToken {
            state: Arc::new(CancelState {
                cancelled: AtomicBool::new(false),
                skipped: AtomicU64::new(0),
                parent: Some(Arc::clone(&self.state)),
                govern: self.state.govern.clone(),
                retry: Some(ctx),
            }),
        }
    }

    /// The governed run this token (via inheritance) belongs to.
    pub(crate) fn govern_ctx(&self) -> Option<Arc<crate::govern::GovernCtx>> {
        self.state.govern.clone()
    }

    /// The recovering run this token (via inheritance) belongs to.
    pub(crate) fn retry_ctx(&self) -> Option<Arc<crate::recovery::RetryCtx>> {
        self.state.retry.clone()
    }

    /// Request cancellation. Sibling blocks stop at their next block
    /// boundary; blocks already running are not interrupted.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::Release);
    }

    /// True once [`cancel`](CancelToken::cancel) has been called on this
    /// token or any ancestor.
    pub fn is_cancelled(&self) -> bool {
        self.state.is_cancelled()
    }

    /// Number of leaf chunks the loop primitives skipped on behalf of
    /// this token, including skips inside nested child regions.
    pub fn skipped_blocks(&self) -> u64 {
        self.state.skipped.load(Ordering::Relaxed)
    }

    pub(crate) fn note_skipped(&self, chunks: u64) {
        self.state.skipped.fetch_add(chunks, Ordering::Relaxed);
        let mut cur = self.state.parent.as_deref();
        while let Some(state) = cur {
            state.skipped.fetch_add(chunks, Ordering::Relaxed);
            cur = state.parent.as_deref();
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// The token governing work started from the current thread, if any.
pub fn current_token() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().clone())
}

/// True if the ambient token (if any) has been cancelled. The hook used
/// by consumers that must abandon partial work at a safe point.
pub fn cancellation_requested() -> bool {
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .map(|t| t.is_cancelled())
            .unwrap_or(false)
    })
}

/// Restores the previously installed token on drop.
pub(crate) struct TokenGuard {
    prev: Option<CancelToken>,
}

impl Drop for TokenGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

pub(crate) fn install(token: Option<CancelToken>) -> TokenGuard {
    let prev = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), token));
    TokenGuard { prev }
}

/// Run `f` with `token` as the ambient cancellation token; the loop
/// primitives called (transitively) by `f` observe it at block
/// boundaries. The previous ambient token is restored afterwards.
pub fn with_token<R>(token: &CancelToken, f: impl FnOnce() -> R) -> R {
    let _guard = install(Some(token.clone()));
    f()
}

/// Run `f` with **no** ambient cancellation token, restoring the
/// previous one afterwards.
///
/// Inside a shield the loop primitives never skip blocks, so code whose
/// soundness depends on every iteration running (e.g. builders that
/// `set_len` over a buffer they assume fully written) stays correct
/// even when called from a cancelled region. The shielded work runs to
/// completion; cancellation takes effect again once the shield exits.
pub fn shield<R>(f: impl FnOnce() -> R) -> R {
    let _guard = install(None);
    f()
}

/// Sentinel panic payload for secondary aborts: work that observes
/// cancellation and has no meaningful result panics with `Cancelled`
/// to abandon the region. [`apply_cancellable`] filters these in favor
/// of the primary failure.
#[derive(Debug)]
pub struct Cancelled;

/// Abandon the current cancelled region by panicking with the
/// [`Cancelled`] sentinel.
///
/// Must only be called when cancellation has actually been requested
/// (see [`cancellation_requested`]): the sentinel is swallowed by the
/// enclosing [`apply_cancellable`] on the assumption that a primary
/// failure was recorded or an ancestor region is unwinding.
pub fn abort_region() -> ! {
    std::panic::panic_any(Cancelled)
}

/// Is this panic payload the [`Cancelled`] sentinel?
pub fn is_cancellation(payload: &(dyn Any + Send)) -> bool {
    payload.is::<Cancelled>()
}

/// Amortized cancellation poll for long sequential loops.
///
/// The loop primitives only observe a [`CancelToken`] at block
/// boundaries, so a single huge block (a forced geometry, a `flatten`
/// region spanning many segments, a scan's sequential phase) could run
/// for an unbounded time after cancellation. A loop that walks a block
/// owns a `PollTicker` and counts the elements it consumes: every
/// [`INTERVAL`](PollTicker::INTERVAL) elements the ticker checks the
/// ambient token and abandons the region via [`abort_region`] if
/// cancellation was requested — bounding cancellation latency by one
/// poll chunk regardless of block geometry.
///
/// In `bds-seq` the owners are the drive loops, not the element
/// iterators: a loop pulls each block at most `INTERVAL` elements at a
/// time and calls [`tick_n`](PollTicker::tick_n) once per chunk, so the
/// thread-local token read happens once per chunk and the per-element
/// path carries no ticker at all. The chunked and SIMD kernels do the
/// same; per-element [`tick`](PollTicker::tick) is for loops that
/// cannot count ahead (a `flatten` region stepping over empty inner
/// sequences).
#[derive(Debug, Clone)]
pub struct PollTicker {
    left: u32,
}

/// Cancellation polls performed by every [`PollTicker`] in the process
/// since the last [`reset_ticker_polls`]. One relaxed increment per
/// [`PollTicker::INTERVAL`] counted elements — cheap enough to keep on
/// unconditionally, and deterministic for a fixed block geometry (each
/// block's loop owns a fresh ticker, so the count is a pure function
/// of the block lengths, independent of scheduling). In `bds-seq` that
/// is one poll per `INTERVAL` consumed elements per block, whatever the
/// shape of the stream. The parity tests use it to assert that
/// different instantiations of the stream core poll identically.
static TICKER_POLLS: AtomicU64 = AtomicU64::new(0);

/// Total ambient-token polls by all `PollTicker`s since the last
/// [`reset_ticker_polls`].
pub fn ticker_polls() -> u64 {
    TICKER_POLLS.load(Ordering::Relaxed)
}

/// Reset the process-wide [`ticker_polls`] counter to zero.
pub fn reset_ticker_polls() {
    TICKER_POLLS.store(0, Ordering::Relaxed);
}

impl PollTicker {
    /// Elements between ambient-token polls.
    pub const INTERVAL: u32 = 1024;

    /// A fresh ticker, due to poll after [`INTERVAL`](Self::INTERVAL)
    /// elements.
    pub const fn new() -> PollTicker {
        PollTicker {
            left: Self::INTERVAL,
        }
    }

    /// Count one element; on every `INTERVAL`-th call, poll the ambient
    /// token and abandon the region (sentinel panic) if cancellation
    /// was requested.
    #[inline]
    pub fn tick(&mut self) {
        self.left -= 1;
        if self.left == 0 {
            self.left = Self::INTERVAL;
            TICKER_POLLS.fetch_add(1, Ordering::Relaxed);
            if cancellation_requested() {
                abort_region();
            }
        }
    }

    /// Count `n` elements at once — the bulk counterpart of
    /// [`tick`](Self::tick) for loops that process a whole chunk of
    /// elements between polls (the drive loops and the SIMD fast paths
    /// in `bds-seq`).
    ///
    /// Equivalent to `n` calls to `tick` except that crossing several
    /// poll boundaries in one bulk step polls the ambient token once,
    /// not once per boundary: what `tick` guarantees — and what this
    /// preserves — is the *latency* bound (at most `INTERVAL` elements
    /// of work after cancellation before the region is abandoned),
    /// provided callers keep `n` at or below
    /// [`INTERVAL`](Self::INTERVAL).
    #[inline]
    pub fn tick_n(&mut self, n: usize) {
        let left = u64::from(self.left);
        let n = n as u64;
        if n < left {
            self.left -= n as u32;
            return;
        }
        let past = (n - left) % u64::from(Self::INTERVAL);
        self.left = Self::INTERVAL - past as u32;
        TICKER_POLLS.fetch_add(1, Ordering::Relaxed);
        if cancellation_requested() {
            abort_region();
        }
    }
}

impl Default for PollTicker {
    fn default() -> Self {
        PollTicker::new()
    }
}

/// First failure observed across the blocks of one `apply_cancellable`.
struct FailureCell<E> {
    /// Lowest-block-index `Err` so far.
    err: Mutex<Option<(usize, E)>>,
    /// Lowest-block-index real (non-sentinel) panic so far.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
}

impl<E> FailureCell<E> {
    fn new() -> Self {
        FailureCell {
            err: Mutex::new(None),
            panic: Mutex::new(None),
        }
    }

    fn record_err(&self, block: usize, e: E) {
        let mut slot = self.err.lock().unwrap_or_else(|p| p.into_inner());
        match &*slot {
            Some((prev, _)) if *prev <= block => {}
            _ => *slot = Some((block, e)),
        }
    }

    fn record_panic(&self, block: usize, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock().unwrap_or_else(|p| p.into_inner());
        match &*slot {
            Some((prev, _)) if *prev <= block => {}
            _ => *slot = Some((block, payload)),
        }
    }
}

/// Run `f(i)` for every `0 <= i < n` like [`apply`](crate::apply), with
/// the failure protocol of the crate: the first block that returns
/// `Err` or panics cancels the region, sibling blocks stop at their
/// next block boundary, and the failure is reported here at the join
/// point.
///
/// * A real panic in any block wins: it is resumed by this call (the
///   one from the lowest block index, if several raced).
/// * Otherwise the `Err` from the lowest failing block index is
///   returned — deterministic even though later blocks may also have
///   failed concurrently.
/// * [`Cancelled`] sentinel panics from nested work are filtered.
/// * If an *enclosing* region was cancelled while this one ran (and no
///   local failure occurred), the sentinel is re-raised so the
///   enclosing `apply_cancellable` handles it.
///
/// The region uses a child of the ambient token, so failures here do
/// not cancel the enclosing region, while an enclosing cancellation
/// stops this region at its next block boundary.
pub fn apply_cancellable<E, F>(n: usize, f: F) -> Result<(), E>
where
    F: Fn(usize) -> Result<(), E> + Sync,
    E: Send,
{
    let token = match current_token() {
        Some(parent) => parent.child(),
        None => CancelToken::new(),
    };
    let failures = FailureCell::new();

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        with_token(&token, || {
            crate::apply(n, |i| {
                match catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        token.cancel();
                        failures.record_err(i, e);
                    }
                    Err(payload) => {
                        token.cancel();
                        if !is_cancellation(&*payload) {
                            failures.record_panic(i, payload);
                        }
                    }
                }
            })
        })
    }));
    if let Err(payload) = outcome {
        // Not from `f` (every block is caught above): the pool itself
        // unwound. Propagate as-is.
        resume_unwind(payload);
    }

    let panicked = {
        let mut slot = failures.panic.lock().unwrap_or_else(|p| p.into_inner());
        slot.take()
    };
    if let Some((_, payload)) = panicked {
        resume_unwind(payload);
    }
    let erred = {
        let mut slot = failures.err.lock().unwrap_or_else(|p| p.into_inner());
        slot.take()
    };
    if let Some((_, e)) = erred {
        return Err(e);
    }
    if token.is_cancelled() {
        // No local failure, yet cancelled: the enclosing region was
        // cancelled while we ran. Abandon upwards.
        abort_region();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pool;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn err_short_circuits_and_skips_siblings() {
        let pool = Pool::new(4);
        let ran = AtomicUsize::new(0);
        let token = CancelToken::new();
        let r: Result<(), &str> = pool.install(|| {
            with_token(&token, || {
                apply_cancellable(1000, |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 3 {
                        Err("block 3 failed")
                    } else {
                        Ok(())
                    }
                })
            })
        });
        assert_eq!(r, Err("block 3 failed"));
        assert!(
            token.skipped_blocks() > 0,
            "expected skipped sibling blocks, ran {} of 1000",
            ran.load(Ordering::Relaxed)
        );
        assert!(ran.load(Ordering::Relaxed) < 1000);
    }

    #[test]
    fn lowest_block_index_error_wins() {
        let pool = Pool::new(4);
        for _ in 0..20 {
            // All four blocks rendezvous, so both failures (blocks 1
            // and 3) are recorded concurrently; the reported error must
            // deterministically be the lower block index.
            let barrier = std::sync::Barrier::new(4);
            let r: Result<(), usize> = pool.install(|| {
                apply_cancellable(4, |i| {
                    barrier.wait();
                    if i % 2 == 1 {
                        Err(i)
                    } else {
                        Ok(())
                    }
                })
            });
            assert_eq!(r, Err(1));
        }
    }

    #[test]
    fn reported_error_is_a_real_failure_under_races() {
        let pool = Pool::new(4);
        for _ in 0..20 {
            let r: Result<(), usize> = pool.install(|| {
                apply_cancellable(64, |i| if i % 2 == 1 { Err(i) } else { Ok(()) })
            });
            // Which odd block loses the race varies; that a failing
            // block is reported does not.
            let i = r.expect_err("some block must fail");
            assert_eq!(i % 2, 1);
        }
    }

    #[test]
    fn panic_wins_over_err() {
        let pool = Pool::new(2);
        // Both blocks must actually start (cancellation only skips
        // blocks that have not begun), so rendezvous before failing:
        // block 0 returns Err while block 1 panics.
        let barrier = std::sync::Barrier::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                apply_cancellable::<&str, _>(2, |i| {
                    barrier.wait();
                    if i == 1 {
                        panic!("block 1 exploded");
                    }
                    Err("block 0 erred")
                })
            })
        }));
        let payload = caught.expect_err("panic must propagate over Err");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "block 1 exploded");
        assert_eq!(pool.install(|| 5), 5, "pool must survive");
    }

    #[test]
    fn success_path_reports_no_skips() {
        let pool = Pool::new(4);
        let token = CancelToken::new();
        let r: Result<(), ()> =
            pool.install(|| with_token(&token, || apply_cancellable(500, |_| Ok(()))));
        assert_eq!(r, Ok(()));
        assert_eq!(token.skipped_blocks(), 0);
    }

    #[test]
    fn plain_apply_observes_ambient_cancellation() {
        let pool = Pool::new(4);
        let token = CancelToken::new();
        token.cancel();
        let ran = AtomicUsize::new(0);
        pool.install(|| {
            with_token(&token, || {
                crate::apply(100, |_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            })
        });
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert_eq!(token.skipped_blocks(), 100);
    }

    #[test]
    fn shield_suppresses_ambient_cancellation() {
        let pool = Pool::new(4);
        let token = CancelToken::new();
        token.cancel();
        let ran = AtomicUsize::new(0);
        pool.install(|| {
            with_token(&token, || {
                shield(|| {
                    crate::apply(100, |_| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    })
                })
            })
        });
        assert_eq!(ran.load(Ordering::Relaxed), 100);
        assert_eq!(token.skipped_blocks(), 0);
    }

    #[test]
    fn tick_n_matches_tick_budget() {
        // With no ambient token, tick_n is pure bookkeeping; its
        // remaining budget must agree with n single ticks at every
        // chunk size, including exact multiples of the interval.
        for chunk in [1usize, 7, 64, 1023, 1024, 1025, 4096] {
            let mut bulk = PollTicker::new();
            let mut single = PollTicker::new();
            for _ in 0..3 {
                bulk.tick_n(chunk);
                for _ in 0..chunk {
                    single.tick();
                }
                assert_eq!(bulk.left, single.left, "chunk {chunk}");
            }
        }
    }

    #[test]
    fn tick_n_aborts_within_one_interval_of_cancellation() {
        let token = CancelToken::new();
        token.cancel();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_token(&token, || {
                let mut t = PollTicker::new();
                // Chunked ticking must poll at the same ~INTERVAL
                // granularity as per-element ticking: two 512-element
                // chunks cross the first boundary.
                t.tick_n(512);
                t.tick_n(512);
                unreachable!("poll at the interval boundary must abort");
            })
        }));
        let payload = caught.expect_err("cancelled region must abort");
        assert!(is_cancellation(&*payload));
    }

    #[test]
    fn child_cancellation_stays_contained() {
        let parent = CancelToken::new();
        let child = parent.child();
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled());
        let grandchild = child.child();
        assert!(grandchild.is_cancelled());
    }

    #[test]
    fn nested_cancellable_regions_contain_failures() {
        let pool = Pool::new(4);
        // Inner failures must not cancel the outer region: every outer
        // block completes even though each inner region fails.
        let outer_done = AtomicUsize::new(0);
        let r: Result<(), &str> = pool.install(|| {
            apply_cancellable(8, |_| {
                let inner: Result<(), &str> =
                    apply_cancellable(8, |j| if j == 0 { Err("inner") } else { Ok(()) });
                assert_eq!(inner, Err("inner"));
                outer_done.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
        });
        assert_eq!(r, Ok(()));
        assert_eq!(outer_done.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn outer_cancellation_aborts_inner_region() {
        let pool = Pool::new(2);
        let token = CancelToken::new();
        token.cancel();
        // The inner region sees only pre-cancelled ambient state: it
        // runs nothing and abandons upwards with the sentinel.
        let caught = pool.install(|| {
            catch_unwind(AssertUnwindSafe(|| {
                with_token(&token, || {
                    apply_cancellable::<(), _>(16, |_| Ok(()))
                })
            }))
        });
        let payload = caught.expect_err("must abandon via sentinel");
        assert!(is_cancellation(&*payload));
    }
}
