//! A worker waiting on a join latch helps by running other pool jobs,
//! and request jobs are among them. Each request is one pool job, so a
//! helping worker runs a nested request and then returns to its own
//! join. A job that kept picking requests until the queues were empty
//! would hold the enclosing request until the whole backlog had run.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bds_service::{Budget, Service, ServiceConfig};

thread_local! {
    /// Set while R1 runs on this thread: a request that sees it runs
    /// nested inside R1, on R1's worker, while R1 waits on its join.
    static IN_R1: Cell<bool> = const { Cell::new(false) };
}

fn wait_for(flag: &AtomicBool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !flag.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "the other side never got there");
        std::hint::spin_loop();
    }
}

#[test]
fn a_helping_worker_runs_a_nested_request_then_returns_to_its_join() {
    const LAST: usize = 40;
    let svc = Service::new(ServiceConfig {
        workers: 2,
        max_concurrent: 2,
        ..ServiceConfig::default()
    });
    let tenant = svc.tenant("t");
    let nested = Arc::new(Mutex::new(Vec::new()));
    let block1_running = Arc::new(AtomicBool::new(false));
    let r2_started = Arc::new(AtomicBool::new(false));
    let block1_done = Arc::new(AtomicBool::new(false));
    let all_submitted = Arc::new(AtomicBool::new(false));
    let note = {
        let nested = Arc::clone(&nested);
        move |r: usize| {
            if IN_R1.with(Cell::get) {
                nested.lock().unwrap().push(r);
            }
        }
    };

    // R1 forks two blocks. Block 0 returns once block 1 runs on the
    // other worker, so R1's worker then waits on the join for block 1,
    // which returns only after R2 has started.
    let r1 = {
        let (running, started, done) = (
            Arc::clone(&block1_running),
            Arc::clone(&r2_started),
            Arc::clone(&block1_done),
        );
        svc.submit(tenant, Budget::unlimited(), move || {
            IN_R1.with(|c| c.set(true));
            bds_pool::apply(2, |j| {
                if j == 0 {
                    wait_for(&running);
                } else {
                    running.store(true, Ordering::SeqCst);
                    wait_for(&started);
                    done.store(true, Ordering::SeqCst);
                }
            });
            IN_R1.with(|c| c.set(false));
        })
        .expect("admitted")
    };
    wait_for(&block1_running);

    // Both workers are now occupied by R1, so only R1's worker, helping
    // while it waits on its join, can run R2. R2 returns only once
    // R3..R40 are queued, so a job that kept picking requests would
    // find them all.
    let r2 = {
        let (note, started, done, submitted) = (
            note.clone(),
            Arc::clone(&r2_started),
            Arc::clone(&block1_done),
            Arc::clone(&all_submitted),
        );
        svc.submit(tenant, Budget::unlimited(), move || {
            note(2);
            started.store(true, Ordering::SeqCst);
            wait_for(&done);
            wait_for(&submitted);
        })
        .expect("admitted")
    };
    let rest: Vec<_> = (3..=LAST)
        .map(|r| {
            let note = note.clone();
            svc.submit(tenant, Budget::unlimited(), move || note(r))
                .expect("admitted")
        })
        .collect();
    all_submitted.store(true, Ordering::SeqCst);

    r1.wait().expect("R1 completed");
    r2.wait().expect("R2 completed");
    for ticket in rest {
        ticket.wait().expect("completed");
    }

    let nested = nested.lock().unwrap();
    assert!(nested.contains(&2), "R2 did not run nested under R1's join");
    // R1's worker re-checks its join latch after every job, so only a
    // worker that sets block 1's latch late (descheduled right after its
    // last store) can leave it running one or two more requests first.
    // A job that drained the queues runs all of R2..R40 nested.
    assert!(
        nested.len() < LAST / 2,
        "R1's worker ran {} of the {} requests nested under its join: \
         it drained the backlog instead of returning ({nested:?})",
        nested.len(),
        LAST - 1
    );
}
