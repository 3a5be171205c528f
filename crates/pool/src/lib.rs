//! # bds-pool — fork-join substrate for block-delayed sequences
//!
//! The paper's library needs exactly one parallel primitive, `apply`
//! (Figure 7): run `f(i)` for every `0 <= i < n` in parallel. The paper
//! inherits it from the ParlayLib / MPL work-stealing schedulers; this
//! crate reproduces that substrate: a work-stealing fork-join pool with
//!
//! * [`join`] — run two closures, potentially in parallel, with the
//!   classic stack-job + helping-waiter protocol;
//! * [`parallel_for`] / [`parallel_for_grain`] — divide-and-conquer loops
//!   with granularity control;
//! * [`apply`] — the paper's primitive (grain 1: each index is expected to
//!   be a coarse unit such as one block);
//! * [`Pool`] — an explicitly sized pool, so benchmark harnesses can sweep
//!   the processor count `P` (Figure 15).
//!
//! Calls made while not on a pool thread transparently run on a lazily
//! created global pool sized by [`std::thread::available_parallelism`].
//!
//! Each worker owns a LIFO deque that idle peers steal from, written
//! against the `crossbeam-deque` Chase-Lev API. In this offline build
//! that API is served by `vendor/crossbeam-deque`, a `Mutex<VecDeque>`
//! stand-in: every push, pop and steal takes a lock. It is not a
//! lock-free Chase-Lev deque.
//!
//! ```
//! let total: u64 = bds_pool::Pool::new(2).install(|| {
//!     let (a, b) = bds_pool::join(|| 1u64 + 1, || 40u64);
//!     a + b
//! });
//! assert_eq!(total, 42);
//! ```

pub mod cancel;
pub mod govern;
mod job;
mod latch;
pub mod recovery;
mod registry;
pub mod stats;

pub use cancel::{apply_cancellable, CancelToken, PollTicker};
pub use cancel::{reset_ticker_polls, shield, ticker_polls, with_token};
pub use govern::{run_governed, Budget, Exceeded};
pub use latch::{AsyncLatch, Latch};
pub use recovery::{
    recover_block, recovery_counts, run_recovered, run_recovered_counting, BlockFailed,
    RecoveryCounts, RetryPolicy,
};
pub use stats::{PoolStats, TenantSlot, TenantStats, WorkerStats};

/// Model-checking facade: exposes the internal synchronization
/// primitives so `tests/loom.rs` can explore their interleavings under
/// `loom`. Compiled only with `--features loom`; this is test-only API
/// with no stability guarantee.
#[cfg(feature = "loom")]
pub mod model_check {
    pub use crate::latch::{Latch, LockLatch, SpinLatch};

    use crate::cancel::CancelToken;
    use crate::recovery::{BlockFailed, RetryCtx, RetryPolicy};
    use std::sync::Arc;

    /// Record `chunks` skipped leaf chunks against `token`, exactly as
    /// the cancellable loop primitives do (incrementing every ancestor
    /// too), so models can check the counter under contention.
    pub fn note_skipped(token: &CancelToken, chunks: u64) {
        token.note_skipped(chunks);
    }

    /// A fresh recovery context under the default policy, for modeling
    /// concurrent quarantine recording.
    pub fn retry_ctx() -> Arc<RetryCtx> {
        Arc::new(RetryCtx::new(RetryPolicy::default()))
    }

    /// Record a quarantined block against `ctx`, exactly as the retry
    /// loop does: among concurrent records the lowest ordinal wins.
    pub fn record_block_failure(ctx: &RetryCtx, ordinal: usize, attempts: usize) {
        ctx.record_failure(BlockFailed { ordinal, attempts });
    }

    /// Take the recorded quarantine, as `run_recovered`'s join does.
    pub fn take_block_failure(ctx: &RetryCtx) -> Option<BlockFailed> {
        ctx.take_failure()
    }
}

use std::sync::{Arc, OnceLock};

use job::{HeapJob, StackJob};
use latch::{LockLatch, SpinLatch};
use registry::{Registry, WorkerThread};

/// A fixed-size work-stealing thread pool.
///
/// Dropping the pool terminates its workers (after in-flight work
/// completes; [`Pool::install`] blocks until its closure is done, so there
/// is never dangling work at drop time).
pub struct Pool {
    registry: Arc<Registry>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Create a pool with exactly `num_threads` workers.
    ///
    /// # Panics
    /// Panics if `num_threads == 0`.
    pub fn new(num_threads: usize) -> Pool {
        let (registry, handles) = Registry::new(num_threads, None);
        Pool { registry, handles }
    }

    /// Number of placement groups the workers are partitioned into:
    /// always 1. The pool steals from every peer alike.
    pub fn num_groups(&self) -> usize {
        1
    }

    /// Create a pool in **deterministic mode**: every worker's
    /// steal-victim RNG is derived from `seed` (SplitMix64 per worker
    /// index), and [`Pool::live_workers`] reports `num_threads`
    /// unconditionally instead of the racy busy-gauge estimate.
    ///
    /// Two pools built with the same `(num_threads, seed)` probe steal
    /// victims in the same order and feed identical worker counts into
    /// cost-model geometry decisions, so a quiescent `install` replays
    /// the same schedule shape and block geometry run-to-run. (OS
    /// timing still decides which probe wins a race, but every
    /// schedule-*dependent* computation in this workspace — block
    /// geometry, zip alignment — sees identical inputs.) This is the
    /// replay hook behind `bds-check`'s `BDS_CHECK_SEED`.
    ///
    /// # Panics
    /// Panics if `num_threads == 0`.
    pub fn new_seeded(num_threads: usize, seed: u64) -> Pool {
        let (registry, handles) = Registry::new(num_threads, Some(seed));
        Pool { registry, handles }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.registry.num_threads()
    }

    /// Run `f` inside the pool and return its result.
    ///
    /// While `f` runs, `join`/`parallel_for`/`apply` calls it makes use
    /// this pool's workers. If the calling thread is already a worker of
    /// this pool, `f` runs directly. Otherwise `f` is injected as a root
    /// job, queued behind whatever the pool is already running, and
    /// starts with no ambient cancellation token, wherever it runs.
    pub fn install<F, R>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        if let Some(worker) = WorkerThread::current() {
            if Arc::ptr_eq(worker.registry(), &self.registry) {
                return f();
            }
        }
        let job = StackJob::new(
            move || {
                // An injected root, like a spawned job: a worker waiting
                // on a join latch may run it nested inside another job,
                // whose token must not leak into it.
                let _root = cancel::install(None);
                f()
            },
            LockLatch::new(),
        );
        // SAFETY: we block on the latch below, so the stack frame (and the
        // job in it) outlives the unique execution of the JobRef.
        let job_ref = unsafe { job.as_job_ref() };
        self.registry.inject(job_ref);
        job.latch().wait();
        // SAFETY: latch observed set; executor's writes are visible and we
        // are the unique owner collecting the result.
        unsafe { job.into_result() }
    }

    /// Spawn a fire-and-forget job on the pool: `f` runs on some worker,
    /// at some point, without blocking the caller. The asynchronous
    /// counterpart of [`Pool::install`] — submission is non-blocking, and
    /// completion is communicated through whatever `f` captured (e.g. an
    /// [`AsyncLatch`] a future is parked on; `bds-service` builds its
    /// ticket protocol this way).
    ///
    /// The pool queues every spawn: a scheduler that spawns bounds its
    /// own concurrency. A panic that escapes `f` unwinds the executing
    /// worker, which is detected and respawned (counted in
    /// [`PoolStats::respawns`]) — catch panics inside `f` if they are an
    /// expected outcome.
    ///
    /// Jobs still queued when the pool is dropped are run (degraded,
    /// sequentially) on the dropping thread, so a spawned job is never
    /// silently lost; panics from such teardown runs are swallowed. The
    /// drain also runs jobs that those jobs spawn.
    ///
    /// `f` starts with no ambient cancellation token, wherever it runs.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        spawn_on(&self.registry, f);
    }

    /// A handle that spawns onto this pool without owning it, for jobs
    /// that spawn their own successors (see [`Spawner`]).
    pub fn spawner(&self) -> Spawner {
        Spawner {
            registry: Arc::clone(&self.registry),
        }
    }

    /// Get or create the named per-tenant counter slot of this pool's
    /// statistics. Slots are keyed by name (the same name returns the
    /// same slot) and surface in [`PoolStats::tenants`]; the handle is
    /// how a multi-tenant front-end records admission and completion
    /// events against the pool it runs on.
    pub fn tenant_slot(&self, name: &str) -> TenantSlot {
        self.registry.tenant_slot(name)
    }

    /// Snapshot the pool's per-worker scheduler counters.
    ///
    /// Cheap (`P` relaxed loads per counter) and safe to call at any
    /// time; while work is in flight the snapshot is a best-effort racy
    /// read, and in quiescence it is exact. See [`stats::WorkerStats`]
    /// for field meanings and the accounting invariant.
    pub fn stats(&self) -> PoolStats {
        self.registry.stats()
    }

    /// Estimate how many of this pool's workers are free to pick up new
    /// top-level work right now: `num_threads()` minus the workers
    /// currently executing a job, never below 1.
    ///
    /// When called *from* one of this pool's workers, that worker does
    /// not count itself as busy (it is asking on behalf of work it is
    /// about to schedule), so from the closure of a plain
    /// [`Pool::install`] on a quiescent pool the answer is exactly
    /// [`Pool::num_threads`] — deterministic, which is what the adaptive
    /// block-geometry policy in `bds-seq` relies on. While unrelated
    /// work is in flight the estimate is a best-effort racy read.
    ///
    /// ```
    /// let pool = bds_pool::Pool::new(3);
    /// assert_eq!(pool.live_workers(), 3); // quiescent
    /// assert_eq!(pool.install(|| pool.live_workers()), 3); // self excluded
    /// ```
    pub fn live_workers(&self) -> usize {
        let me = WorkerThread::current().and_then(|w| {
            Arc::ptr_eq(w.registry(), &self.registry).then(|| w.index())
        });
        self.registry.live_workers(me)
    }

    /// Fault-injection hook: ask worker `index` to crash (panic out of
    /// its main loop). The registry detects the unwind, salvages the
    /// worker's deque, respawns a replacement at the same index, and
    /// counts the incident in [`PoolStats::respawns`]. Queued and
    /// in-flight work on *other* workers is unaffected; the crashing
    /// worker itself is between jobs when it dies (the hook is polled
    /// at the top of the main loop, never mid-job).
    ///
    /// # Panics
    /// Panics if `index >= num_threads()`.
    pub fn inject_worker_crash(&self, index: usize) {
        assert!(index < self.num_threads(), "worker index out of range");
        self.registry.request_worker_crash(index);
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.registry.begin_terminate();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        // Workers respawned after a crash are reaped separately; loop,
        // because a respawned worker may itself have crashed and
        // spawned a successor before exiting.
        loop {
            let respawned = self.registry.drain_respawned();
            if respawned.is_empty() {
                break;
            }
            for handle in respawned {
                let _ = handle.join();
            }
        }
        // Every worker has exited. Jobs spawned with `Pool::spawn` that
        // no worker ever picked up would leak their boxes (and leave
        // their completion latches unset forever); run them here,
        // degraded, instead. Panics are swallowed: unwinding out of a
        // destructor aborts if we are already panicking, and a teardown
        // job's panic has no owner left to report to.
        while let Some(job) = self.registry.pop_injected() {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // SAFETY: the injector owned this JobRef; we are its
                // unique executor.
                run_degraded(|| unsafe { job.execute() })
            }));
        }
    }
}

/// Spawns jobs onto a [`Pool`] without owning it; obtained from
/// [`Pool::spawner`]. A job that holds a spawner can start its own
/// successor from whichever worker runs it: dropping the spawner joins
/// nothing, whereas a worker that dropped the last [`Pool`] would have
/// to join itself.
///
/// Spawns land exactly as [`Pool::spawn`]'s do, including the teardown
/// drain, so a job spawned while the pool is being dropped still runs.
/// A job spawned after the pool's drop has returned is never run; its
/// closure leaks.
#[derive(Clone)]
pub struct Spawner {
    registry: Arc<Registry>,
}

impl Spawner {
    /// [`Pool::spawn`] through this handle.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        spawn_on(&self.registry, f);
    }
}

/// The body of [`Pool::spawn`] and [`Spawner::spawn`].
fn spawn_on<F>(registry: &Registry, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let job = HeapJob::new(move || {
        // A spawned job is a root of its own. A worker waiting on a
        // join latch may run it nested inside another job, whose
        // token (and with it a budget or retry context) must not
        // leak into it.
        let _root = cancel::install(None);
        f()
    });
    // SAFETY: the injected JobRef is executed exactly once — by a
    // worker, or by `Pool::drop`'s teardown drain after every worker
    // has exited.
    let job_ref = unsafe { job.into_job_ref() };
    registry.inject(job_ref);
}

thread_local! {
    /// Set while `Pool::drop`'s teardown drain runs a leftover job on
    /// the dropping thread: `join` runs both sides sequentially instead
    /// of touching any pool, so the drained job never starts the global
    /// pool.
    static DEGRADED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn run_degraded<R>(f: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            DEGRADED.with(|d| d.set(self.0));
        }
    }
    let prev = DEGRADED.with(|d| d.replace(true));
    let _reset = Reset(prev);
    f()
}

fn is_degraded() -> bool {
    DEGRADED.with(|d| d.get())
}

fn global_pool() -> &'static Pool {
    static_global_pool_cell().get_or_init(|| {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Pool::new(n)
    })
}

/// Number of workers in the pool the current thread would execute on: the
/// enclosing pool when called from inside [`Pool::install`] (or a worker),
/// otherwise the global pool.
pub fn current_num_threads() -> usize {
    match WorkerThread::current() {
        Some(worker) => worker.registry().num_threads(),
        None if is_degraded() => 1,
        None => global_pool().num_threads(),
    }
}

/// True if the lazily created global pool has been spawned. Lets tests
/// assert that purely delayed construction does not touch the scheduler.
pub fn global_pool_exists() -> bool {
    static_global_pool_cell().get().is_some()
}

fn static_global_pool_cell() -> &'static OnceLock<Pool> {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    &GLOBAL
}

/// [`Pool::live_workers`] of the pool the current thread would execute
/// on: the enclosing pool from inside [`Pool::install`] (or a worker),
/// otherwise the global pool (spawning it if needed). The calling
/// worker never counts itself busy, so the common quiescent case
/// deterministically equals [`current_num_threads`]; the estimate only
/// dips below that when *other* installs are running concurrently on
/// the same pool.
pub fn current_live_workers() -> usize {
    match WorkerThread::current() {
        Some(worker) => worker.registry().live_workers(Some(worker.index())),
        None if is_degraded() => 1,
        None => global_pool().live_workers(),
    }
}

/// Scheduler statistics of the pool the current thread would execute on:
/// the enclosing pool from inside [`Pool::install`] (or a worker),
/// otherwise the global pool (spawning it if needed).
pub fn pool_stats() -> PoolStats {
    match WorkerThread::current() {
        Some(worker) => worker.registry().stats(),
        None => global_pool().stats(),
    }
}

/// Execute `oper_a` and `oper_b`, potentially in parallel, and return both
/// results. Panics in either closure propagate after both have finished.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    match WorkerThread::current() {
        Some(worker) => join_on_worker(worker, oper_a, oper_b),
        // Degraded mode (teardown drain): stay on the calling thread.
        None if is_degraded() => (oper_a(), oper_b()),
        None => global_pool().install(|| join(oper_a, oper_b)),
    }
}

fn join_on_worker<A, B, RA, RB>(worker: &WorkerThread, oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let job_b = StackJob::new(oper_b, SpinLatch::new());
    // SAFETY: this frame does not return until job_b has either been run
    // inline (after popping its JobRef back, so it is never executed by a
    // thief) or its latch has been set by the thief.
    let job_b_ref = unsafe { job_b.as_job_ref() };
    worker.push(job_b_ref);

    let result_a = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(oper_a)) {
        Ok(result) => result,
        Err(payload) => {
            // `a` panicked. Before unwinding we must neutralize job_b: pop
            // it back (never ran) or wait for the thief to finish with it.
            match worker.pop() {
                Some(job) if job == job_b_ref => {}
                Some(other) => {
                    // Not ours: restore the invariant by running it (it
                    // references a frame above ours, which cannot unwind
                    // before we do). Expected unreachable under the LIFO
                    // discipline, kept for defense in depth.
                    unsafe { other.execute() };
                    worker.wait_until(job_b.latch());
                }
                None => worker.wait_until(job_b.latch()),
            }
            std::panic::resume_unwind(payload);
        }
    };

    // Fast path: job_b still on top of our deque — run it inline.
    match worker.pop() {
        Some(job) if job == job_b_ref => {
            // SAFETY: we popped the unique JobRef, so no thief can run it.
            let result_b = unsafe { job_b.run_inline() };
            return (result_a, result_b);
        }
        Some(other) => {
            // See note above: kept for safety, expected unreachable.
            unsafe { other.execute() };
        }
        None => {}
    }
    worker.wait_until(job_b.latch());
    // SAFETY: latch set; unique owner collects (or re-raises a panic from
    // the thief).
    let result_b = unsafe { job_b.into_result() };
    (result_a, result_b)
}

/// Run `f(i)` for each `i` in `lo..hi` in parallel, recursing down to
/// chunks of at most `grain` consecutive indices which run sequentially.
///
/// If an ambient [`CancelToken`] is installed (see
/// [`cancel::with_token`] and [`apply_cancellable`]) it is checked at
/// every chunk boundary: once cancelled, chunks that have not started
/// are skipped and counted on the token. Without a token the loop runs
/// unconditionally, with no synchronization beyond the joins.
pub fn parallel_for_grain<F>(lo: usize, hi: usize, grain: usize, f: &F)
where
    F: Fn(usize) + Sync,
{
    let grain = grain.max(1);
    if hi <= lo {
        return;
    }
    match cancel::current_token() {
        Some(token) => pfg_cancellable(lo, hi, grain, f, &token),
        None => pfg_plain(lo, hi, grain, f),
    }
}

fn pfg_plain<F>(lo: usize, hi: usize, grain: usize, f: &F)
where
    F: Fn(usize) + Sync,
{
    if hi - lo <= grain {
        for i in lo..hi {
            f(i);
        }
        return;
    }
    let mid = lo + (hi - lo) / 2;
    join(
        || pfg_plain(lo, mid, grain, f),
        || pfg_plain(mid, hi, grain, f),
    );
}

fn pfg_cancellable<F>(lo: usize, hi: usize, grain: usize, f: &F, token: &CancelToken)
where
    F: Fn(usize) + Sync,
{
    if token.is_cancelled() {
        // Count the leaf chunks this subtree would have run.
        token.note_skipped((hi - lo).div_ceil(grain) as u64);
        return;
    }
    if hi - lo <= grain {
        // Re-install the token on this (possibly stolen) worker thread
        // so nested loop primitives inside `f` inherit it.
        let _ambient = cancel::install(Some(token.clone()));
        for i in lo..hi {
            f(i);
        }
        return;
    }
    let mid = lo + (hi - lo) / 2;
    join(
        || pfg_cancellable(lo, mid, grain, f, token),
        || pfg_cancellable(mid, hi, grain, f, token),
    );
}

/// Run `f(i)` for each `i` in `0..n` in parallel with an automatic grain
/// of roughly `n / (8 * P)`, suitable for element-wise loops.
pub fn parallel_for<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let p = current_num_threads();
    let grain = (n / (8 * p)).clamp(1, 4096);
    parallel_for_grain(0, n, grain, &f);
}

/// The paper's `apply` (Figure 7): run `f(i)` for every `0 <= i < n`, each
/// index as its own parallel task. Callers are expected to make each index
/// coarse (e.g. one *block* of a block-delayed sequence).
pub fn apply<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    parallel_for_grain(0, n, 1, &f);
}

/// Fold `0..n` in parallel: map each grain-sized chunk sequentially with
/// `fold(lo, hi)`, then combine chunk results with `combine`. Used by the
/// eager array baselines.
///
/// Each chunk runs under the caller's ambient [`CancelToken`], if any,
/// on whichever worker runs it, so a [`recover_block`] or a budget
/// inside `fold` sees the caller's region.
pub fn parallel_reduce<T, FOLD, COMBINE>(
    n: usize,
    grain: usize,
    identity: T,
    fold: &FOLD,
    combine: &COMBINE,
) -> T
where
    T: Send,
    FOLD: Fn(usize, usize) -> T + Sync,
    COMBINE: Fn(T, T) -> T + Sync,
{
    fn rec<T, FOLD, COMBINE>(
        lo: usize,
        hi: usize,
        grain: usize,
        fold: &FOLD,
        combine: &COMBINE,
        token: Option<&CancelToken>,
    ) -> T
    where
        T: Send,
        FOLD: Fn(usize, usize) -> T + Sync,
        COMBINE: Fn(T, T) -> T + Sync,
    {
        if hi - lo <= grain {
            // A stolen chunk runs on a thread that does not hold the
            // caller's token: re-install it, as `pfg_cancellable` does.
            let _ambient = token.map(|t| cancel::install(Some(t.clone())));
            return fold(lo, hi);
        }
        let mid = lo + (hi - lo) / 2;
        let (left, right) = join(
            || rec(lo, mid, grain, fold, combine, token),
            || rec(mid, hi, grain, fold, combine, token),
        );
        combine(left, right)
    }
    let grain = grain.max(1);
    if n == 0 {
        return identity;
    }
    let token = cancel::current_token();
    let folded = rec(0, n, grain, fold, combine, token.as_ref());
    combine(identity, folded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn join_returns_both_results() {
        let pool = Pool::new(2);
        let (a, b) = pool.install(|| join(|| 2 + 2, || "ok"));
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn join_outside_pool_uses_global() {
        let (a, b) = join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn nested_joins_compute_fib() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        let pool = Pool::new(4);
        assert_eq!(pool.install(|| fib(20)), 6765);
    }

    #[test]
    fn parallel_for_touches_every_index_once() {
        let n = 10_000;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let pool = Pool::new(4);
        pool.install(|| {
            parallel_for(n, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn apply_touches_every_index_once() {
        let n = 2_000;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let pool = Pool::new(3);
        pool.install(|| {
            apply(n, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn apply_zero_is_noop() {
        let pool = Pool::new(1);
        pool.install(|| apply(0, |_| panic!("must not run")));
    }

    #[test]
    fn parallel_reduce_sums() {
        let pool = Pool::new(4);
        let total = pool.install(|| {
            parallel_reduce(
                1_000_001,
                64,
                0u64,
                &|lo, hi| (lo..hi).map(|i| i as u64).sum(),
                &|a, b| a + b,
            )
        });
        assert_eq!(total, 1_000_000u64 * 1_000_001 / 2);
    }

    #[test]
    fn parallel_reduce_chunks_run_under_the_callers_token() {
        let pool = Pool::new(2);
        let token = CancelToken::new();
        let stolen = std::sync::atomic::AtomicBool::new(false);
        let with_token = pool.install(|| {
            cancel::with_token(&token, || {
                parallel_reduce(
                    2,
                    1,
                    0usize,
                    &|lo, _| {
                        if lo == 0 {
                            // Chunk 1 now runs on the other worker.
                            let deadline = std::time::Instant::now()
                                + std::time::Duration::from_secs(10);
                            while !stolen.load(Ordering::SeqCst) {
                                assert!(std::time::Instant::now() < deadline, "never stolen");
                                std::hint::spin_loop();
                            }
                        } else {
                            stolen.store(true, Ordering::SeqCst);
                        }
                        usize::from(cancel::current_token().is_some())
                    },
                    &|a, b| a + b,
                )
            })
        });
        assert_eq!(with_token, 2, "a stolen chunk lost the caller's token");
    }

    #[test]
    fn work_actually_spreads_across_threads() {
        let pool = Pool::new(4);
        let seen = Mutex::new(std::collections::HashSet::new());
        pool.install(|| {
            parallel_for_grain(0, 4096, 1, &|i| {
                seen.lock().unwrap().insert(std::thread::current().id());
                if i == 0 {
                    // Wait, for at most 10 s, until a peer has run an
                    // index: the indices are too cheap for a parked peer
                    // to wake before this worker has run them all.
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while seen.lock().unwrap().len() < 2 && std::time::Instant::now() < deadline {
                        std::hint::spin_loop();
                    }
                }
                std::hint::black_box((0..200).sum::<u64>());
            })
        });
        assert!(
            seen.lock().unwrap().len() > 1,
            "expected multi-thread execution"
        );
    }

    #[test]
    fn install_is_reentrant_for_same_pool() {
        let pool = Pool::new(2);
        let r = pool.install(|| pool.install(|| 7));
        assert_eq!(r, 7);
    }

    #[test]
    fn panic_in_join_b_propagates() {
        let pool = Pool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                join(|| 1, || -> i32 { panic!("b exploded") });
            })
        }));
        assert!(r.is_err());
        // Pool must still be usable afterwards.
        assert_eq!(pool.install(|| 5), 5);
    }

    #[test]
    fn panic_in_join_a_propagates_after_b_finishes() {
        let pool = Pool::new(2);
        let b_ran = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                join(
                    || -> i32 {
                        // Hold the panic until b has been stolen and run,
                        // so this deterministically exercises the
                        // wait-for-thief path of the panic protocol (the
                        // pop-back path discards b unexecuted).
                        while b_ran.load(Ordering::SeqCst) == 0 {
                            std::hint::spin_loop();
                        }
                        panic!("a exploded")
                    },
                    || b_ran.fetch_add(1, Ordering::SeqCst),
                );
            })
        }));
        assert!(r.is_err());
        assert_eq!(b_ran.load(Ordering::SeqCst), 1);
        assert_eq!(pool.install(|| 5), 5);
    }

    #[test]
    fn single_thread_pool_still_correct() {
        let pool = Pool::new(1);
        let total = pool.install(|| {
            parallel_reduce(
                10_000,
                16,
                0u64,
                &|lo, hi| (lo..hi).map(|i| i as u64).sum(),
                &|a, b| a + b,
            )
        });
        assert_eq!(total, 9_999u64 * 10_000 / 2);
    }

    #[test]
    fn many_pools_can_coexist() {
        let pools: Vec<Pool> = (1..=4).map(Pool::new).collect();
        for (k, pool) in pools.iter().enumerate() {
            let n = 1000 * (k + 1);
            let counter = AtomicUsize::new(0);
            pool.install(|| {
                apply(n, |_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                })
            });
            assert_eq!(counter.load(Ordering::Relaxed), n);
        }
    }

    #[test]
    fn seeded_pool_reports_full_width_and_computes_correctly() {
        let pool = Pool::new_seeded(2, 42);
        // Deterministic mode: live_workers is pinned to num_threads
        // even while another install is in flight.
        assert_eq!(pool.live_workers(), 2);
        let total = pool.install(|| {
            let inside = pool.live_workers();
            assert_eq!(inside, 2);
            parallel_reduce(
                10_000,
                64,
                0u64,
                &|lo, hi| (lo..hi).map(|i| i as u64).sum(),
                &|a, b| a + b,
            )
        });
        assert_eq!(total, 9_999u64 * 10_000 / 2);
        // Same seed, same answer (results are deterministic by design;
        // this exercises the seeded construction path end-to-end).
        let pool2 = Pool::new_seeded(2, 42);
        let total2 = pool2.install(|| {
            parallel_reduce(
                10_000,
                64,
                0u64,
                &|lo, hi| (lo..hi).map(|i| i as u64).sum(),
                &|a, b| a + b,
            )
        });
        assert_eq!(total, total2);
    }

    /// The teardown drain's degraded mode: a leftover job runs on the
    /// dropping thread, sequentially, and still observes cancellation.
    #[test]
    fn degraded_runs_stay_on_the_calling_thread() {
        run_degraded(|| {
            assert_eq!(current_num_threads(), 1);
            let caller = std::thread::current().id();
            let (a, b) = join(|| std::thread::current().id(), || std::thread::current().id());
            assert_eq!((a, b), (caller, caller));

            let token = CancelToken::new();
            token.cancel();
            let ran = AtomicUsize::new(0);
            cancel::with_token(&token, || {
                apply(100, |_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            });
            assert_eq!(ran.load(Ordering::Relaxed), 0);
            assert_eq!(token.skipped_blocks(), 100);
        });
        assert!(!is_degraded(), "the flag outlived its run");
    }

    #[test]
    fn current_num_threads_reports_enclosing_pool() {
        let pool = Pool::new(3);
        assert_eq!(pool.install(current_num_threads), 3);
    }

    #[test]
    fn live_workers_quiescent_and_inside_install() {
        let pool = Pool::new(3);
        assert_eq!(pool.live_workers(), 3);
        // From inside install, the executing worker excludes itself.
        assert_eq!(pool.install(|| pool.live_workers()), 3);
        assert_eq!(pool.install(current_live_workers), 3);
        // Quiescent again afterwards. The busy gauge clears just *after*
        // install's latch is set, so poll briefly rather than assert
        // instantly.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while pool.live_workers() != 3 {
            assert!(std::time::Instant::now() < deadline, "gauge never cleared");
            std::hint::spin_loop();
        }
    }

    #[test]
    fn live_workers_sees_busy_peers() {
        let pool = Pool::new(2);
        let started = std::sync::Arc::new(AtomicUsize::new(0));
        let release = std::sync::Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            let (started2, release2) = (started.clone(), release.clone());
            let pool_ref = &pool;
            s.spawn(move || {
                pool_ref.install(|| {
                    started2.store(1, Ordering::SeqCst);
                    while release2.load(Ordering::SeqCst) == 0 {
                        std::hint::spin_loop();
                    }
                });
            });
            while started.load(Ordering::SeqCst) == 0 {
                std::hint::spin_loop();
            }
            // One worker is pinned inside the spinning job; from this
            // external (non-worker) thread it must show up as busy.
            assert_eq!(pool.live_workers(), 1);
            release.store(1, Ordering::SeqCst);
        });
        // The gauge clears just *after* install's latch is set, so poll
        // briefly rather than assert instantly.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while pool.live_workers() != 2 {
            assert!(std::time::Instant::now() < deadline, "gauge never cleared");
            std::hint::spin_loop();
        }
    }
}
