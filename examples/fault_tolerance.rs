//! Failure semantics in action: fallible pipelines, panic containment,
//! and cross-block cancellation.
//!
//!     cargo run --release --example fault_tolerance
//!
//! With the deterministic fault-injection harness compiled in, the demo
//! also arms a fault at a chosen closure invocation:
//!
//!     cargo run --release --example fault_tolerance --features fault-inject

use std::panic::{catch_unwind, AssertUnwindSafe};

use bds_pool::CancelToken;
use bds_seq::prelude::*;

fn main() {
    // 1. Fallible reduce: checked arithmetic short-circuits instead of
    // wrapping silently. The first observed overflow cancels sibling
    // blocks at their next block boundary.
    let small = tabulate(10_000, |i| i as u64)
        .try_reduce(0u64, |a, b| a.checked_add(b).ok_or("overflow"));
    let huge = tabulate(10_000, |_| u64::MAX / 2)
        .try_reduce(0u64, |a, b| a.checked_add(b).ok_or("overflow"));
    println!("try_reduce small sum : {small:?}");
    println!("try_reduce huge sum  : {huge:?}");

    // 2. A panic inside a pipeline closure resurfaces at the join with
    // its original payload; the pool survives and stays usable.
    let caught = catch_unwind(AssertUnwindSafe(|| {
        tabulate(100_000, |i| i)
            .map(|x| {
                if x == 77_777 {
                    panic!("element 77777 exploded");
                }
                x * 2
            })
            .reduce(0, |a, b| a + b)
    }));
    let payload = caught.expect_err("the panic must propagate");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or("<opaque>");
    println!("panic resurfaced     : {msg:?}");
    let after = tabulate(1_000, |i| i as u64).reduce(0, |a, b| a + b);
    println!("pool still works     : sum(0..1000) = {after}");

    // 3. Cancellation is observable: under an ambient token, a failing
    // fallible consumer skips sibling blocks that had not started.
    let token = CancelToken::new();
    let r = bds_pool::with_token(&token, || {
        tabulate(1_000_000, |i| i as u64)
            .try_reduce(0u64, |a, b| if b == 5 { Err("poisoned element") } else { Ok(a + b) })
    });
    println!(
        "cancelled pipeline   : {r:?}, skipped {} sibling blocks",
        token.skipped_blocks()
    );

    // 4. Fallible workloads: `wc` rejects binary input mid-count, with
    // the offending byte, instead of producing a garbage result.
    let clean = b"one two\nthree four five\n".to_vec();
    let mut dirty = clean.clone();
    dirty[9] = 0x07; // a BEL byte: not text
    println!("wc on clean text     : {:?}", bds_workloads::wc::try_run_delay(&clean));
    println!("wc on binary input   : {:?}", bds_workloads::wc::try_run_delay(&dirty));

    // 5. `grep` refuses NUL bytes (the classic binary-file signal),
    // detected inside the newline-filter predicate at no extra pass.
    let hay = b"needle here\nnothing\nanother needle\n".to_vec();
    let mut bin = hay.clone();
    bin[15] = 0x00;
    println!("grep on clean text   : {:?}", bds_workloads::grep::try_run_delay(&hay, b"needle"));
    println!("grep on binary input : {:?}", bds_workloads::grep::try_run_delay(&bin, b"needle"));

    // 6. Deterministic fault injection (only with --features
    // fault-inject; a no-op build prints the unfired path).
    let swept = {
        let _armed = bds_seq::faults::arm(500);
        tabulate(1_000, |i| i as u64).try_reduce(0u64, |a, b| {
            if bds_seq::faults::poll() {
                Err("injected at the 500th operator call")
            } else {
                Ok(a + b)
            }
        })
    };
    println!("injected fault       : {swept:?}");
}
