//! Submitting block-delayed pipelines: a request closure runs a `Seq`
//! consumer, and its internal `apply` fork-join executes on the
//! service's workers.
//!
//! The pipeline moves into the closure, so it must be `Send + 'static`
//! (owned sources like `tabulate` and `Forced` qualify; borrowed
//! `from_slice` views do not — `force` them first).

use std::time::{Duration, Instant};

use bds_seq::prelude::*;
use bds_service::{block_on, Budget, Exceeded, Rejected, Service, ServiceConfig, ServiceError};

fn service() -> Service {
    Service::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
}

#[test]
fn submitted_to_vec_matches_inline() {
    let svc = service();
    let tenant = svc.tenant("t");
    let expected: Vec<u64> = tabulate(10_000, |i| i as u64).map(|x| x * 3 + 1).to_vec();
    let pipeline = tabulate(10_000, |i| i as u64).map(|x| x * 3 + 1);
    let ticket = svc
        .submit(tenant, Budget::unlimited(), move || pipeline.to_vec())
        .expect("admitted");
    assert_eq!(ticket.wait(), Ok(expected));
}

#[test]
fn submitted_fused_pipeline_matches_inline() {
    // A filter + scan pipeline exercises the non-trivial BID path on
    // the service's pool.
    let svc = service();
    let tenant = svc.tenant("t");
    let inline = tabulate(4096, |i| i as u64)
        .filter(|x| x % 3 == 0)
        .scan(0, |a, b| a + b)
        .0
        .to_vec();
    let pipeline = tabulate(4096, |i| i as u64)
        .filter(|x| x % 3 == 0)
        .scan(0, |a, b| a + b)
        .0;
    let ticket = svc
        .submit(tenant, Budget::unlimited(), move || pipeline.to_vec())
        .expect("admitted");
    assert_eq!(ticket.wait(), Ok(inline));
}

#[test]
fn submitted_force_is_shareable_afterwards() {
    let svc = service();
    let tenant = svc.tenant("t");
    let pipeline = tabulate(2048, |i| i as u32);
    let forced = svc
        .submit(tenant, Budget::unlimited(), move || pipeline.force())
        .expect("admitted")
        .wait()
        .expect("completed");
    assert_eq!(forced.as_slice().len(), 2048);
    // The forced result plugs straight back into a new pipeline.
    let total: u32 = forced.reduce(0, |a, b| a + b);
    assert_eq!(total, (0..2048).sum::<u32>());
}

#[test]
fn submitted_for_each_runs_every_element() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let svc = service();
    let tenant = svc.tenant("t");
    let sum = Arc::new(AtomicU64::new(0));
    let s = Arc::clone(&sum);
    let pipeline = tabulate(5000, |i| i as u64);
    let ticket = svc
        .submit(tenant, Budget::unlimited(), move || {
            pipeline.for_each(move |x| {
                s.fetch_add(x, Ordering::Relaxed);
            })
        })
        .expect("admitted");
    assert_eq!(ticket.wait(), Ok(()));
    assert_eq!(sum.load(Ordering::Relaxed), (0..5000).sum::<u64>());
}

#[test]
fn budget_trip_arrives_through_the_ticket() {
    let svc = service();
    let tenant = svc.tenant("t");
    let pipeline = tabulate(100_000, |i| i as u64);
    let err = svc
        .submit(tenant, Budget::unlimited().with_mem_bytes(16), move || {
            pipeline.to_vec()
        })
        .expect("admitted")
        .wait()
        .unwrap_err();
    assert_eq!(err, ServiceError::Exceeded(Exceeded::Memory));
}

#[test]
fn tickets_are_awaitable() {
    let svc = service();
    let tenant = svc.tenant("t");
    let pipeline = tabulate(1000, |i| i as u64);
    let ticket = svc
        .submit(tenant, Budget::unlimited(), move || {
            pipeline.reduce(0, |a, b| a + b)
        })
        .expect("admitted");
    assert_eq!(block_on(ticket), Ok((0..1000).sum::<u64>()));
}

#[test]
fn expired_deadline_is_rejected_at_submit() {
    let svc = service();
    let tenant = svc.tenant("t");
    let pipeline = tabulate(1000, |i| i);
    let r = svc.submit(
        tenant,
        Budget::unlimited().deadline_at(Instant::now() - Duration::from_millis(1)),
        move || pipeline.to_vec(),
    );
    assert!(matches!(r, Err(Rejected::Deadline)));
}
