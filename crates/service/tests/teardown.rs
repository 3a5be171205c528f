//! Dropping a `Service` tears its pool down on the dropping thread.
//!
//! Each request's closure shares the service's state until it returns.
//! When that shared state owned the pool, the closure could end up as
//! its last owner, and the pool's shutdown then ran on one of the
//! pool's own workers, which cannot join itself ("failed to join
//! thread: Resource deadlock avoided"). The owner's `drop` returned
//! normally, so only the worker's panic showed it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use bds_service::{Budget, Service, ServiceConfig};

static PANICS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn dropping_a_service_never_panics_a_worker() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        prev(info);
    }));
    for cycle in 0..1000u64 {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let tenant = svc.tenant("cycle");
        let ticket = svc
            .submit(tenant, Budget::unlimited(), move || cycle * 3)
            .expect("admitted");
        assert_eq!(ticket.wait().expect("completed"), cycle * 3);
        drop(svc);
    }
    // A worker of the last service may still be returning from its job.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        PANICS.load(Ordering::SeqCst),
        0,
        "a thread panicked while services were torn down"
    );
}
