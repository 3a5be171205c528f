//! Resource-governance soak: hammer small pools with concurrent
//! governed pipelines under worker-crash injection, and hold the
//! overload claims for the whole run:
//!
//! - every deadline-budgeted run comes back within **2x its deadline**;
//! - every memory-budgeted run refuses with `Exceeded::Memory`, never a
//!   partial result;
//! - every sufficiently-budgeted run returns the exact ungoverned value
//!   (crashes degrade parallelism, never correctness);
//! - every retry-legged run (a transient block fault injected roughly
//!   every 100th leg, under `RetryPolicy`) returns the exact unfaulted
//!   value with zero quarantines — block recovery salvages the job
//!   (`recovered_jobs > 0` over the round);
//! - workers killed mid-run are respawned (`PoolStats::respawns`);
//! - the counting allocator's live-byte gauge returns to its pre-soak
//!   baseline at exit — nothing governed leaks.
//!
//! `procs + 1` drivers run the legs. Each driver runs its deadline legs
//! on a 2-worker pool of its own, so a deadline leg never queues behind
//! another leg or runs nested inside one: its latency is the
//! cancellation latency the 2x claim is about, not a wait for a
//! neighbour's 100 ms. The memory, sufficient and retry legs of every
//! driver share one `procs`-wide pool. Every ~250 ms a crash injector
//! kills a worker of one of these pools, picked pseudo-randomly.
//!
//! Flags: `--seconds <n>` (duration, default 60), `--procs <p>` (width
//! of the shared pool, default 3), `--json <path>` (machine-readable
//! results in the `bds-bench/v2` schema, with the `gov` counter block
//! populated; the record's `repeats` is the deadline-leg count).
//!
//! Exit status is non-zero if any claim is violated, so CI can run this
//! binary directly as a gate.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bds_bench::json::{GovCounters, JsonReport, Record, RecoveryCounters};
use bds_bench::{arg_value, seed::splitmix64};
use bds_metrics::{heap_stats, CountingAlloc};
use bds_pool::{
    govern::trip_counts, recovery_counts, run_governed, Budget, Exceeded, Pool, PoolStats,
    RetryPolicy,
};
use bds_seq::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One driver's share of the hammering: cycle deadline, memory,
/// sufficient-budget and retry legs until `stop`, recording violations
/// instead of panicking (the panic hook is silenced for the whole soak).
struct Driver<'a> {
    /// This driver's own pool, which runs its deadline legs and nothing
    /// else.
    deadline_pool: &'a Pool,
    /// The pool every driver's other legs share.
    shared: &'a Pool,
    stop: &'a AtomicBool,
    violations: &'a Mutex<Vec<String>>,
    deadline_runs: &'a Mutex<Vec<f64>>,
    runs: &'a AtomicU64,
    /// Retry legs taken across all drivers; every `FAULT_EVERY`-th one
    /// injects a transient block fault.
    retry_legs: &'a AtomicU64,
    /// Retry legs that actually carried an injected fault.
    faulted_legs: &'a AtomicU64,
}

/// One in `FAULT_EVERY` retry legs carries a transient block fault.
const FAULT_EVERY: u64 = 100;

/// Deadline for the deadline leg. Generous relative to the poll
/// interval on purpose: the soak oversubscribes the machine (drivers +
/// all pools' workers + watchdog on however few cores CI has), so the
/// absolute scheduling jitter can reach tens of milliseconds — the
/// claim under test is the 2x *ratio* under overload. The tight-latency claim (10 ms
/// deadline, 2x bound, quiet machine) is pinned by `tests/governed.rs`.
const DEADLINE: Duration = Duration::from_millis(100);

impl Driver<'_> {
    fn run(&self, lane: u64) {
        let want_sum: u64 = (0..100_000u64).sum();
        let mut k = lane;
        while !self.stop.load(Ordering::Relaxed) {
            self.runs.fetch_add(1, Ordering::Relaxed);
            match k % 4 {
                0 => self.deadline_leg(),
                1 => self.memory_leg(),
                2 => self.sufficient_leg(want_sum),
                _ => self.retry_leg(want_sum),
            }
            k += 1;
        }
    }

    fn flag(&self, msg: String) {
        self.violations.lock().unwrap().push(msg);
    }

    /// A deadline over a pipeline that would take seconds: must refuse
    /// as `Deadline` within 2x the deadline. The input must stay far
    /// (>10x) above what the host can reduce inside the deadline, or
    /// the leg races its own completion: complete-result-wins would
    /// legitimately return `Ok` just under the wire, and near-complete
    /// runs drag the cancellation observation past the 2x bound. The
    /// index is passed through `black_box` for the same reason: the
    /// drive loop's counted pull lets the optimizer fold a pure index
    /// function a chunk at a time in closed form, which would finish
    /// the whole input inside the deadline.
    fn deadline_leg(&self) {
        let started = Instant::now();
        let r = self.deadline_pool.install(|| {
            run_governed(Budget::unlimited().with_deadline(DEADLINE), || {
                tabulate(2_000_000_000usize, |i| {
                    std::hint::black_box(i as u64).wrapping_mul(31).wrapping_add(7)
                })
                .reduce(0, |a, b| a.wrapping_add(b))
            })
        });
        let elapsed = started.elapsed();
        if r != Err(Exceeded::Deadline) {
            self.flag(format!("deadline leg returned {r:?}, expected Err(Deadline)"));
        }
        if elapsed > DEADLINE * 2 {
            self.flag(format!("deadline overshoot: {elapsed:?} > 2x {DEADLINE:?}"));
        }
        self.deadline_runs.lock().unwrap().push(elapsed.as_secs_f64());
    }

    /// A 64 KiB budget under a ~8 MB materialization: must refuse as
    /// `Memory`.
    fn memory_leg(&self) {
        let r = self.shared.install(|| {
            run_governed(Budget::unlimited().with_mem_bytes(64 * 1024), || {
                tabulate(1_000_000usize, |i| i as u64)
                    .map(|x| x.wrapping_mul(3))
                    .to_vec()
            })
        });
        if r != Err(Exceeded::Memory) {
            let brief = r.as_ref().map(Vec::len);
            self.flag(format!("memory leg returned {brief:?}, expected Err(Memory)"));
        }
    }

    /// Generous budgets change nothing: exact ungoverned value, even
    /// while workers are being crashed and other legs share the pool.
    fn sufficient_leg(&self, want: u64) {
        let r = self.shared.install(|| {
            run_governed(
                Budget::unlimited()
                    .with_deadline(Duration::from_secs(60))
                    .with_mem_bytes(64 << 20),
                || tabulate(100_000usize, |i| i as u64).reduce(0, |a, b| a + b),
            )
        });
        if r != Ok(want) {
            self.flag(format!("sufficient leg returned {r:?}, expected Ok({want})"));
        }
    }

    /// A retried pipeline: every `FAULT_EVERY`-th such leg injects a
    /// one-shot transient block fault, which `RetryPolicy` must absorb
    /// with a single block retry — the exact unfaulted value comes back,
    /// never a quarantine, a lost result, or a partial one. The fault
    /// token is leg-local so crashes and concurrent legs around this run
    /// cannot pile multiple fires onto one attempt and escalate it to a
    /// quarantine.
    fn retry_leg(&self, want: u64) {
        let nth = self.retry_legs.fetch_add(1, Ordering::Relaxed);
        let faulted = nth.is_multiple_of(FAULT_EVERY);
        if faulted {
            self.faulted_legs.fetch_add(1, Ordering::Relaxed);
        }
        let fires = AtomicU64::new(u64::from(faulted));
        let r = self.shared.install(|| {
            bds_pool::run_recovered(RetryPolicy::default(), || {
                tabulate(100_000usize, |i| {
                    if i == 500
                        && fires
                            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                                left.checked_sub(1)
                            })
                            .is_ok()
                    {
                        panic!("soak: injected transient block fault");
                    }
                    i as u64
                })
                .reduce(0, |a, b| a + b)
            })
        });
        if r != Ok(want) {
            self.flag(format!(
                "retry leg (faulted={faulted}) returned {r:?}, expected Ok({want})"
            ));
        }
    }
}

/// Everything one soak round leaves behind, reduced to scalars (plus the
/// violation strings, which are empty — and therefore heap-free — on a
/// clean round).
struct Outcome {
    violations: Vec<String>,
    gov: GovCounters,
    recovery: RecoveryCounters,
    faulted_legs: u64,
    sched: bds_pool::WorkerStats,
    crashes: u64,
    total_runs: u64,
    deadline_legs: usize,
    mean_s: f64,
    min_s: f64,
    stddev_s: f64,
    worst_s: f64,
}

/// One full soak round: fresh pools, `procs + 1` concurrent drivers, a
/// crash injected every ~250 ms, all bookkeeping freed before return.
///
/// The warm-up round and the measured round both go through here, so
/// every lazily-initialized process global (the deadline watchdog and
/// its entry vector, the unwind path's one-time state, the thread
/// parker's global table at full thread count) is allocated before the
/// measured round snapshots its leak baseline.
fn soak_round(seconds: u64, procs: usize) -> Outcome {
    let trips_before = trip_counts();
    let recovery_before = recovery_counts();
    let shared = Pool::new(procs);
    // Two workers, not `procs`: with one pool per driver, every extra
    // worker oversubscribes the host further and stretches the deadline
    // legs' worst latency.
    let deadline_pools: Vec<Pool> = (0..=procs).map(|_| Pool::new(2)).collect();
    let pools: Vec<&Pool> = std::iter::once(&shared).chain(&deadline_pools).collect();
    let stop = AtomicBool::new(false);
    let violations = Mutex::new(Vec::new());
    let deadline_runs = Mutex::new(Vec::new());
    let runs = AtomicU64::new(0);
    let crashes = AtomicU64::new(0);
    let retry_legs = AtomicU64::new(0);
    let faulted_legs = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for (lane, deadline_pool) in deadline_pools.iter().enumerate() {
            let driver = Driver {
                deadline_pool,
                shared: &shared,
                stop: &stop,
                violations: &violations,
                deadline_runs: &deadline_runs,
                runs: &runs,
                retry_legs: &retry_legs,
                faulted_legs: &faulted_legs,
            };
            scope.spawn(move || driver.run(lane as u64));
        }
        // Crash injector: kill a pseudo-random worker of a
        // pseudo-random pool every ~250 ms.
        let deadline = Instant::now() + Duration::from_secs(seconds);
        let mut rng = 0x5eed_50a4_u64 ^ seconds;
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(250));
            rng = splitmix64(rng);
            let pool = pools[(rng % pools.len() as u64) as usize];
            pool.inject_worker_crash(((rng >> 32) % pool.num_threads() as u64) as usize);
            crashes.fetch_add(1, Ordering::Relaxed);
        }
        stop.store(true, Ordering::Relaxed);
    });

    let stats: Vec<PoolStats> = pools.iter().map(|p| p.stats()).collect();
    let trips = trip_counts();
    let gov = GovCounters {
        respawns: stats.iter().map(|s| s.respawns).sum(),
        deadline_trips: trips.deadline - trips_before.deadline,
        mem_trips: trips.memory - trips_before.memory,
    };
    let sched = PoolStats {
        workers: stats.into_iter().flat_map(|s| s.workers).collect(),
        ..PoolStats::default()
    }
    .total();
    drop(deadline_pools);
    drop(shared);

    let lat = deadline_runs.into_inner().unwrap();
    let (mean_s, min_s, stddev_s) = summarize(&lat);
    let worst_s = lat.iter().cloned().fold(0.0f64, f64::max);
    let deadline_legs = lat.len();
    drop(lat);

    let crashes = crashes.load(Ordering::Relaxed);
    let recovery = RecoveryCounters::from(recovery_counts().saturating_sub(&recovery_before));
    let faulted = faulted_legs.load(Ordering::Relaxed);
    let mut violations = violations.into_inner().unwrap();
    if gov.respawns == 0 && crashes > 0 {
        violations.push("no worker respawn recorded despite injected crashes".into());
    }
    if gov.deadline_trips == 0 || gov.mem_trips == 0 {
        violations.push(format!(
            "budget trips not exercised: deadline={}, memory={}",
            gov.deadline_trips, gov.mem_trips
        ));
    }
    if recovery.quarantines != 0 {
        violations.push(format!(
            "transient faults must never quarantine: {} quarantines over the round",
            recovery.quarantines
        ));
    }
    if faulted > 0 && recovery.recovered_jobs == 0 {
        violations.push(format!(
            "{faulted} faulted retry legs but zero recovered jobs — block recovery dead"
        ));
    }
    Outcome {
        violations,
        gov,
        recovery,
        faulted_legs: faulted,
        sched,
        crashes,
        total_runs: runs.load(Ordering::Relaxed),
        deadline_legs,
        mean_s,
        min_s,
        stddev_s,
        worst_s,
    }
}

fn main() {
    // Cancellation unwinds workers with sentinel panics; the default
    // hook would symbolize a backtrace for each (slow, and its symbol
    // cache stays live, corrupting the leak baseline). Silence it for
    // the whole soak, before the baseline snapshot.
    std::panic::set_hook(Box::new(|_| {}));

    let seconds: u64 = arg_value("--seconds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
        .max(1);
    let procs: usize = arg_value("--procs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(2);
    // Warm-up round: identical code path, results discarded.
    eprintln!("soak: warm-up round (1s, same pools)");
    drop(soak_round(1, procs));
    bds_metrics::reset_peak();
    let live_before = quiescent_live();

    eprintln!(
        "soak: {seconds}s on a {procs}-worker shared pool, {} drivers with a 2-worker \
         deadline pool each",
        procs + 1
    );
    let out = soak_round(seconds, procs);
    let peak = heap_stats().peak_since_reset;

    let mut failures = out.violations;
    // The violation strings above are live heap too, so the leak check
    // is only meaningful on an otherwise-clean round — which is the case
    // that matters: on a dirty round the exit status is already failing.
    if failures.is_empty() {
        let live_after = settle_to(live_before);
        if live_after != live_before {
            failures.push(format!(
                "leak: {} live bytes at exit ({live_before} -> {live_after})",
                live_after.saturating_sub(live_before)
            ));
        }
    }

    eprintln!(
        "soak: {} governed runs ({} deadline-legged, mean {:.1} ms, worst {:.1} ms), \
         {} crashes injected, {} respawns, trips: {} deadline / {} memory",
        out.total_runs,
        out.deadline_legs,
        out.mean_s * 1e3,
        out.worst_s * 1e3,
        out.crashes,
        out.gov.respawns,
        out.gov.deadline_trips,
        out.gov.mem_trips,
    );
    eprintln!(
        "soak: recovery: {} faulted retry legs, {} block retries, {} recovered jobs, \
         {} quarantines",
        out.faulted_legs,
        out.recovery.block_retries,
        out.recovery.recovered_jobs,
        out.recovery.quarantines,
    );

    if let Some(path) = arg_value("--json") {
        let mut rep = JsonReport::new("soak", &format!("{seconds}s"));
        rep.push(Record {
            op: "soak".into(),
            library: "delay".into(),
            n: out.total_runs as usize,
            procs,
            policy: None,
            mean_s: out.mean_s,
            min_s: out.min_s,
            stddev_s: out.stddev_s,
            repeats: out.deadline_legs,
            peak_bytes: peak,
            block_size: 0,
            num_blocks: 0,
            sched: Some(out.sched),
            gov: Some(out.gov),
            svc: None,
            plan: None,
            recovery: Some(out.recovery),
        });
        rep.write(&path).expect("writing soak JSON");
        eprintln!("soak: wrote {path}");
    }

    if failures.is_empty() {
        eprintln!("soak: clean shutdown, all claims held");
    } else {
        // Report every distinct violation once (the same overshoot can
        // repeat thousands of times; cap the noise).
        failures.truncate(32);
        for f in &failures {
            eprintln!("soak: VIOLATION: {f}");
        }
        std::process::exit(1);
    }
}

/// The live-byte gauge once it has stopped moving: a worker that crashed
/// on the injector's final tick can still be exiting (releasing its
/// thread bookkeeping) after the pool is dropped, so an instantaneous
/// read races it. Waits for a 250 ms window with no change, bounded at
/// 3 s.
fn quiescent_live() -> usize {
    let mut last = heap_stats().live;
    let mut stable_since = Instant::now();
    let deadline = Instant::now() + Duration::from_secs(3);
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
        let live = heap_stats().live;
        if live != last {
            last = live;
            stable_since = Instant::now();
        } else if stable_since.elapsed() >= Duration::from_millis(250) {
            break;
        }
    }
    last
}

/// Wait (up to 2 s) for the live-byte gauge to return to `target`,
/// returning the last reading — `target` on a clean run, the leaked
/// level otherwise.
fn settle_to(target: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let live = heap_stats().live;
        if live == target || Instant::now() >= deadline {
            return live;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Mean / min / population stddev of a latency sample, seconds.
fn summarize(xs: &[f64]) -> (f64, f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, min, var.sqrt())
}
