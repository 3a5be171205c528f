//! The worker registry: deques, stealing, sleeping, and the helping
//! `join` loop.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use crossbeam_utils::Backoff;
use parking_lot::{Condvar, Mutex};

use crate::job::JobRef;
use crate::latch::SpinLatch;
use crate::stats::{PoolStats, TenantCounters, TenantSlot, WorkerCounters};

/// Shared state of one thread pool.
pub(crate) struct Registry {
    stealers: Vec<Stealer<JobRef>>,
    injector: Injector<JobRef>,
    sleep_mutex: Mutex<()>,
    sleep_cond: Condvar,
    idle_workers: AtomicUsize,
    terminate: AtomicBool,
    num_threads: usize,
    /// `Some(seed)` puts the pool in deterministic mode: worker steal
    /// RNGs are derived from the seed and [`Registry::live_workers`]
    /// reports `num_threads` unconditionally, so schedule-dependent
    /// decisions replay bit-for-bit. See [`crate::Pool::new_seeded`].
    seed: Option<u64>,
    /// One padded counter slot per worker; written by that worker only.
    counters: Vec<WorkerCounters>,
    /// Crash-injection flags, one per worker slot: when set, that worker
    /// panics out of its main loop at the next iteration (then the flag
    /// is cleared and the registry respawns the worker). Test/fault
    /// hook; see [`crate::Pool::inject_worker_crash`].
    kill_requests: Vec<AtomicBool>,
    /// Workers respawned after an unexpected unwind out of `main_loop`.
    respawns: AtomicU64,
    /// Join handles of respawned workers, reaped by `Pool::drop`.
    respawned: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Named per-tenant counter slots handed out by
    /// [`Registry::tenant_slot`]; snapshotted into
    /// [`PoolStats::tenants`]. Small (one entry per tenant) and touched
    /// only on slot creation and snapshot, so a mutex is fine.
    tenants: Mutex<Vec<Arc<TenantCounters>>>,
}

thread_local! {
    /// Pointer to the `WorkerThread` owned by this OS thread, if it is a
    /// pool worker. Null otherwise.
    static WORKER: Cell<*const WorkerThread> = const { Cell::new(std::ptr::null()) };
}

/// Per-worker state, owned by its OS thread and reachable from TLS.
pub(crate) struct WorkerThread {
    worker: Worker<JobRef>,
    registry: Arc<Registry>,
    index: usize,
    /// xorshift state for randomized steal order.
    rng: Cell<u64>,
}

impl Registry {
    /// Spawn `num_threads` workers and return the shared registry plus the
    /// join handles (kept by the `Pool` so drop can reap them).
    pub(crate) fn new(
        num_threads: usize,
        seed: Option<u64>,
    ) -> (Arc<Registry>, Vec<std::thread::JoinHandle<()>>) {
        assert!(num_threads > 0, "a pool needs at least one thread");
        let workers: Vec<Worker<JobRef>> =
            (0..num_threads).map(|_| Worker::new_lifo()).collect();
        let stealers = workers.iter().map(Worker::stealer).collect();
        let registry = Arc::new(Registry {
            stealers,
            injector: Injector::new(),
            sleep_mutex: Mutex::new(()),
            sleep_cond: Condvar::new(),
            idle_workers: AtomicUsize::new(0),
            terminate: AtomicBool::new(false),
            num_threads,
            seed,
            counters: (0..num_threads).map(|_| WorkerCounters::default()).collect(),
            kill_requests: (0..num_threads).map(|_| AtomicBool::new(false)).collect(),
            respawns: AtomicU64::new(0),
            respawned: Mutex::new(Vec::new()),
            tenants: Mutex::new(Vec::new()),
        });
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(index, worker)| {
                let registry = Arc::clone(&registry);
                std::thread::Builder::new()
                    .name(format!("bds-pool-{index}"))
                    .spawn(move || worker_main(worker, registry, index))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        (registry, handles)
    }

    pub(crate) fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Push a job from an external thread.
    pub(crate) fn inject(&self, job: JobRef) {
        self.injector.push(job);
        self.notify_workers();
    }

    pub(crate) fn begin_terminate(&self) {
        self.terminate.store(true, Ordering::SeqCst);
        // Grab the lock so no worker can be between its idle re-check and
        // its wait when we notify.
        let _guard = self.sleep_mutex.lock();
        self.sleep_cond.notify_all();
    }

    fn notify_workers(&self) {
        if self.idle_workers.load(Ordering::SeqCst) > 0 {
            let _guard = self.sleep_mutex.lock();
            self.sleep_cond.notify_all();
        }
    }

    fn terminating(&self) -> bool {
        self.terminate.load(Ordering::SeqCst)
    }

    fn any_visible_work(&self) -> bool {
        !self.injector.is_empty() || self.stealers.iter().any(|s| !s.is_empty())
    }

    /// Snapshot every worker's counters (racy while work is in flight;
    /// exact in quiescence).
    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.counters.iter().map(WorkerCounters::snapshot).collect(),
            respawns: self.respawns.load(Ordering::Relaxed),
            recovery: crate::recovery::recovery_counts(),
            tenants: self
                .tenants
                .lock()
                .iter()
                .map(|t| t.snapshot())
                .collect(),
        }
    }

    /// Ask worker `index` to crash: it panics out of its main loop at
    /// the next iteration (within ~1 ms even when idle, thanks to the
    /// park timeout) and the registry respawns it onto the same deque.
    pub(crate) fn request_worker_crash(&self, index: usize) {
        self.kill_requests[index].store(true, Ordering::Release);
        // Wake a parked target promptly; a busy one polls on its next
        // main-loop iteration.
        let _guard = self.sleep_mutex.lock();
        self.sleep_cond.notify_all();
    }

    fn poll_crash(&self, index: usize) {
        if self.kill_requests[index].swap(false, Ordering::AcqRel) {
            std::panic::panic_any(InjectedCrash);
        }
    }

    /// Get or create the named per-tenant counter slot.
    pub(crate) fn tenant_slot(&self, name: &str) -> TenantSlot {
        let mut tenants = self.tenants.lock();
        if let Some(existing) = tenants.iter().find(|t| t.name() == name) {
            return TenantSlot::new(Arc::clone(existing));
        }
        let counters = Arc::new(TenantCounters::new(name));
        tenants.push(Arc::clone(&counters));
        TenantSlot::new(counters)
    }

    /// Respawn a crashed worker onto its old deque (stealers keep
    /// working: they share the deque's backing store). No-op once the
    /// pool is terminating. The new handle is parked in `respawned` for
    /// `Pool::drop` to reap.
    fn respawn_worker(self: &Arc<Registry>, worker: Worker<JobRef>, index: usize) {
        if self.terminating() {
            return;
        }
        self.respawns.fetch_add(1, Ordering::Relaxed);
        let registry = Arc::clone(self);
        if let Ok(handle) = std::thread::Builder::new()
            .name(format!("bds-pool-{index}"))
            .spawn(move || worker_main(worker, registry, index))
        {
            self.respawned.lock().push(handle);
        }
    }

    /// Take the handles of workers respawned so far (drop-time reaping;
    /// call in a loop until empty, since a respawned worker may itself
    /// crash and respawn a successor).
    pub(crate) fn drain_respawned(&self) -> Vec<std::thread::JoinHandle<()>> {
        std::mem::take(&mut *self.respawned.lock())
    }

    /// Pop one job from the injector, if any. Only used by `Pool::drop`
    /// after every worker has exited, to run leftover spawned jobs
    /// rather than leak them.
    pub(crate) fn pop_injected(&self) -> Option<JobRef> {
        loop {
            match self.injector.steal() {
                Steal::Success(job) => return Some(job),
                Steal::Empty => return None,
                Steal::Retry => continue,
            }
        }
    }

    /// Estimate how many workers are free to pick up new top-level work:
    /// `num_threads` minus the workers whose main loop is currently
    /// inside a job, never below 1. `me` (a worker index) is excluded
    /// from the busy count so a worker sizing work for *itself* counts
    /// its own slot as available — from a quiescent pool, or from the
    /// closure of a plain `install`, the answer is exactly
    /// `num_threads`, which keeps geometry decisions deterministic in
    /// the common case.
    pub(crate) fn live_workers(&self, me: Option<usize>) -> usize {
        if self.seed.is_some() {
            // Deterministic mode: the busy-gauge read is racy (a thief
            // may not have cleared its gauge yet after finishing), so a
            // seeded pool reports its full width unconditionally —
            // geometry decisions become pure functions of their other
            // inputs.
            return self.num_threads;
        }
        let busy_others = self
            .counters
            .iter()
            .enumerate()
            .filter(|(i, c)| Some(*i) != me && c.busy.load(Ordering::Relaxed) != 0)
            .count();
        self.num_threads.saturating_sub(busy_others).max(1)
    }
}

/// Panic payload of an injected worker crash (the fault-injection hook
/// behind [`crate::Pool::inject_worker_crash`]).
struct InjectedCrash;

/// RAII: marks a worker's `busy` gauge for the span of one top-level
/// job execution, clearing it even if the job unwinds.
struct BusyGuard<'a>(&'a WorkerCounters);

impl<'a> BusyGuard<'a> {
    fn new(counters: &'a WorkerCounters) -> Self {
        counters.busy.store(1, Ordering::Relaxed);
        BusyGuard(counters)
    }
}

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.busy.store(0, Ordering::Relaxed);
    }
}

/// SplitMix64 finalizer: decorrelates per-worker RNG streams derived
/// from one pool seed.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn worker_main(worker: Worker<JobRef>, registry: Arc<Registry>, index: usize) {
    // xorshift64* needs a nonzero state; `| 1` guarantees it either way.
    let rng_seed = match registry.seed {
        Some(seed) => splitmix64(seed ^ (index as u64 + 1)) | 1,
        None => 0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(index as u64 + 1) | 1,
    };
    let me = WorkerThread {
        worker,
        registry,
        index,
        rng: Cell::new(rng_seed),
    };
    WORKER.with(|w| w.set(&me as *const WorkerThread));
    // Job panics are caught at the join point and never unwind the main
    // loop; anything that *does* unwind here is a crashed worker — the
    // injected-crash hook, or a scheduler bug. Either way: salvage the
    // deque (stealers share its backing store, so queued jobs survive)
    // and respawn a replacement at the same index.
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| me.main_loop()));
    WORKER.with(|w| w.set(std::ptr::null()));
    if outcome.is_err() {
        let WorkerThread {
            worker, registry, ..
        } = me;
        registry.respawn_worker(worker, index);
    }
}

impl WorkerThread {
    /// The `WorkerThread` of the current OS thread, if any.
    ///
    /// SAFETY of the returned reference: a worker's `WorkerThread` lives
    /// for the whole life of its thread's main loop, and the reference is
    /// only used from that same thread.
    pub(crate) fn current() -> Option<&'static WorkerThread> {
        WORKER.with(|w| {
            let ptr = w.get();
            if ptr.is_null() {
                None
            } else {
                Some(unsafe { &*ptr })
            }
        })
    }

    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// This worker's index within its registry.
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// Push a job onto the local LIFO deque, waking a sleeper if any.
    pub(crate) fn push(&self, job: JobRef) {
        self.worker.push(job);
        self.registry.notify_workers();
    }

    /// Pop the most recently pushed local job.
    pub(crate) fn pop(&self) -> Option<JobRef> {
        self.worker.pop()
    }

    fn next_victim(&self) -> usize {
        // xorshift64*
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        (x % self.registry.num_threads as u64) as usize
    }

    /// This worker's counter slot.
    #[inline]
    fn counters(&self) -> &WorkerCounters {
        &self.registry.counters[self.index]
    }

    /// Find a job: local deque, then injector, then steal from a peer.
    ///
    /// Every `Some` return bumps exactly one acquisition counter
    /// (local/injector/steal) *and* `jobs_executed` — both call sites run
    /// the job immediately — which is the accounting invariant the stats
    /// tests check.
    pub(crate) fn find_work(&self) -> Option<JobRef> {
        let counters = self.counters();
        if let Some(job) = self.worker.pop() {
            WorkerCounters::bump(&counters.local_pops);
            WorkerCounters::bump(&counters.jobs_executed);
            return Some(job);
        }
        loop {
            match self.registry.injector.steal_batch_and_pop(&self.worker) {
                Steal::Success(job) => {
                    WorkerCounters::bump(&counters.injector_pops);
                    WorkerCounters::bump(&counters.jobs_executed);
                    return Some(job);
                }
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        let n = self.registry.num_threads;
        let start = self.next_victim();
        // One randomized sweep over the peers: each is probed at most
        // once, so an empty sweep adds `P-1` failed steals.
        for k in 0..n {
            let victim = (start + k) % n;
            if victim == self.index {
                continue;
            }
            loop {
                match self.registry.stealers[victim].steal() {
                    Steal::Success(job) => {
                        WorkerCounters::bump(&counters.steals);
                        WorkerCounters::bump(&counters.jobs_executed);
                        return Some(job);
                    }
                    Steal::Empty => {
                        WorkerCounters::bump(&counters.failed_steals);
                        break;
                    }
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

    fn main_loop(&self) {
        loop {
            WorkerCounters::bump(&self.counters().heartbeats);
            self.registry.poll_crash(self.index);
            if let Some(job) = self.find_work() {
                // The gauge covers the whole job tree: nested joins and
                // helping all happen inside this frame, so one flag per
                // worker suffices.
                let _busy = BusyGuard::new(self.counters());
                // SAFETY: ownership of the JobRef means we are its unique
                // executor.
                unsafe { job.execute() };
                continue;
            }
            if self.registry.terminating() {
                return;
            }
            // Go idle. The timeout makes a lost wakeup merely a latency
            // blip, never a hang.
            let mut guard = self.registry.sleep_mutex.lock();
            if self.registry.any_visible_work() || self.registry.terminating() {
                continue;
            }
            self.registry.idle_workers.fetch_add(1, Ordering::SeqCst);
            let counters = self.counters();
            WorkerCounters::bump(&counters.parks);
            let parked_at = Instant::now();
            let wait = self
                .registry
                .sleep_cond
                .wait_for(&mut guard, Duration::from_millis(1));
            counters
                .idle_ns
                .fetch_add(parked_at.elapsed().as_nanos() as u64, Ordering::Relaxed);
            if !wait.timed_out() {
                WorkerCounters::bump(&counters.unparks);
            }
            self.registry.idle_workers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Busy-wait for `latch`, executing other jobs meanwhile (the classic
    /// "helping" loop that makes nested fork-join deadlock-free).
    pub(crate) fn wait_until(&self, latch: &SpinLatch) {
        let backoff = Backoff::new();
        while !latch.probe() {
            if let Some(job) = self.find_work() {
                // SAFETY: unique executor, as above.
                unsafe { job.execute() };
                backoff.reset();
            } else {
                backoff.snooze();
            }
        }
    }
}
