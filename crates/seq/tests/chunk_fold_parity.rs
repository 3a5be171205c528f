//! `Seq::fold_chunk` parity over every library block stream: folding a
//! block in chunks of seeded random sizes yields exactly the elements
//! its `next()` yields, in order, and leaves nothing behind; folding
//! past the block's end panics with the underflow message.
//!
//! The drive loops consume every block through `fold_chunk`, one call
//! per chunk of at most `CHUNK` elements, and the library's streams
//! override it with their own loops (counted ranges, slice loops,
//! nested region loops, buffered zips, a scan's running prefix), so each
//! override is checked here against the `next()` it replaces.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use bds_seq::prelude::*;
use bds_seq::simd::CHUNK;
use bds_seq::{map_with_index, Flattened, Forced};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The panic hook is process-global; the tests silence it one at a time.
static HOOK: Mutex<()> = Mutex::new(());

const N: usize = 3000;
/// Random chunk splits tried per block.
const SEEDS: u64 = 6;

/// Chunk sizes in `1..=CHUNK` summing to `len`: often tiny, so chunk
/// ends land at and around every inner and block boundary.
fn splits(rng: &mut SmallRng, len: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut left = len;
    while left > 0 {
        let hi = left.min(CHUNK);
        let c = if rng.gen_bool(0.5) {
            rng.gen_range(1..=hi.min(5))
        } else {
            rng.gen_range(1..=hi)
        };
        out.push(c);
        left -= c;
    }
    out
}

fn collect_chunk<S: Seq>(b: &mut S::Block<'_>, n: usize, into: Vec<S::Item>) -> Vec<S::Item> {
    S::fold_chunk(b, n, into, |mut v, x| {
        v.push(x);
        v
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Check every block of `s` cut at `bs` (at the fixed size, if `s` has
/// one).
fn check<S>(what: &str, s: &S, bs: usize)
where
    S: Seq,
    S::Item: PartialEq + Debug,
{
    let bs = s.fixed_block_size().unwrap_or(bs);
    for j in 0..s.len().div_ceil(bs) {
        let want: Vec<S::Item> = s.block(j, bs).collect();
        for seed in 0..SEEDS {
            let mut rng = SmallRng::seed_from_u64(seed << 32 | j as u64);
            let mut b = s.block(j, bs);
            let mut got = Vec::new();
            for c in splits(&mut rng, want.len()) {
                got = collect_chunk::<S>(&mut b, c, got);
            }
            assert_eq!(got, want, "{what}, bs {bs}: block {j}, seed {seed}");
            assert!(
                b.next().is_none(),
                "{what}, bs {bs}: block {j} still yields after its chunks"
            );
        }
        // Consume all but a tail of the block, then fold one past it.
        let tail = want.len().min(CHUNK - 1);
        let mut b = s.block(j, bs);
        let mut rng = SmallRng::seed_from_u64(j as u64);
        for c in splits(&mut rng, want.len() - tail) {
            collect_chunk::<S>(&mut b, c, Vec::new());
        }
        let over = catch_unwind(AssertUnwindSafe(|| {
            S::fold_chunk(&mut b, tail + 1, 0usize, |k, _| k + 1)
        }));
        let msg = over.map_err(|p| panic_message(&*p));
        assert!(
            matches!(&msg, Err(m) if m.contains("Seq invariant violated: block underflow")),
            "{what}, bs {bs}: folding past block {j} gave {msg:?}"
        );
    }
}

/// [`check`] at a block size that cuts every few elements, one that
/// straddles a chunk, and one block for the whole sequence.
fn check_sizes<S>(what: &str, s: &S)
where
    S: Seq,
    S::Item: PartialEq + Debug,
{
    for bs in [7, CHUNK + 76, s.len().max(1)] {
        check(what, s, bs);
    }
}

fn quietly(body: impl FnOnce()) {
    let _l = HOOK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = catch_unwind(AssertUnwindSafe(body));
    std::panic::set_hook(prev);
    if let Err(p) = r {
        std::panic::resume_unwind(p);
    }
}

fn values() -> Vec<u64> {
    (0..N as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9) % 1000)
        .collect()
}

#[test]
fn leaves_fold_like_their_next() {
    quietly(|| {
        let xs = values();
        check_sizes("tabulate", &tabulate(N, |i| i as u64 * 3));
        check_sizes("from_slice", &from_slice(&xs));
        check_sizes("forced", &Forced::from_vec(xs.clone()));
        check_sizes("take", &tabulate(N + 50, |i| i as u64).take(N));
        check_sizes("skip", &tabulate(N + 50, |i| i as u64).skip(50));
        check_sizes("rev", &from_slice(&xs).rev());
        check_sizes("borrowed", &&from_slice(&xs));
    });
}

#[test]
fn maps_and_indices_fold_like_their_next() {
    quietly(|| {
        let xs = values();
        check_sizes("map", &from_slice(&xs).map(|x| x * 7 + 1));
        check_sizes(
            "map_with_index",
            &map_with_index(from_slice(&xs), |i, x| (i as u64) ^ x),
        );
        check_sizes("enumerate", &from_slice(&xs).enumerate());
        check_sizes("map over borrowed", &(&from_slice(&xs)).map(|x| x + 1));
    });
}

#[test]
fn zips_fold_like_their_next() {
    quietly(|| {
        let xs = values();
        check_sizes("zip", &tabulate(N, |i| i as u64).zip(from_slice(&xs)));
        check_sizes(
            "zip_with",
            &from_slice(&xs).zip_with(tabulate(N, |i| i as u32), |x, y| x + u64::from(y)),
        );
        check_sizes(
            "3-way zip",
            &tabulate(N, |i| i)
                .zip(from_slice(&xs))
                .zip(tabulate(N, |i| i as u8)),
        );
        // A right side too large for the chunk buffer is pulled.
        check_sizes(
            "zip, unbuffered right side",
            &tabulate(N, |i| i).zip(tabulate(N, |i| [i as u64; 4])),
        );
    });
}

#[test]
fn scans_fold_like_their_next() {
    quietly(|| {
        let xs = values();
        for bs in [7, CHUNK + 76, N] {
            let g = bds_seq::force_block_size(bs);
            let (scan, _) = from_slice(&xs).scan(0, |a, b| a + b);
            let incl = from_slice(&xs).scan_incl(0, |a, b| a + b);
            let zipped = from_slice(&xs)
                .zip_with(tabulate(N, |i| i as u64), |x, y| x ^ y)
                .scan(0, |a, b| a.wrapping_mul(3) ^ b)
                .0;
            drop(g);
            check("scan", &scan, bs);
            check("scan_incl", &incl, bs);
            check("scan of a zip", &zipped, bs);
            check(
                "zip of a scan",
                &scan.zip_with(from_slice(&xs), |p, x| p + x),
                bs,
            );
        }
    });
}

#[test]
fn region_walks_fold_like_their_next() {
    quietly(|| {
        // Inner lengths with runs of empties, singletons, and inners
        // longer than a chunk, so blocks and chunks start and end
        // mid-inner and on every kind of seam.
        let mut rng = SmallRng::seed_from_u64(42);
        let mut lens = vec![0, 0, 3, 0, 1, 1, 0, 2 * CHUNK + 9, 0, 0, 0, 5];
        while lens.iter().sum::<usize>() < N {
            lens.push(match rng.gen_range(0..4) {
                0 => 0,
                1 => rng.gen_range(1..4),
                2 => rng.gen_range(4..40),
                _ => rng.gen_range(40..400),
            });
        }
        lens.extend([0, 0]);
        let mut next = 0u64;
        let inners: Vec<Forced<u64>> = lens
            .iter()
            .map(|&k| {
                next += k as u64;
                Forced::from_vec((next - k as u64..next).collect())
            })
            .collect();
        let flat = Flattened::from_inners(inners);
        check_sizes("region walk", &flat);
        check_sizes(
            "delayed inners",
            &flatten(tabulate(200, |k| {
                tabulate(k % 37, move |i| (k * 100 + i) as u64)
            })),
        );
        // The tokens shape: a zip of two filters, two region walks.
        let xs = values();
        let evens = from_slice(&xs).filter(|x| x % 2 == 0);
        let odds = tabulate(evens.len(), |i| i as u64 * 2 + 1);
        check_sizes("filter", &evens);
        // Survivors too large for the packing buffer are pushed one by
        // one; the packed parts must hold the same elements.
        let wide = from_slice(&xs).map(|x| [x; 4]).filter(|w| w[0] % 3 == 0);
        let want: Vec<[u64; 4]> = xs.iter().filter(|x| *x % 3 == 0).map(|&x| [x; 4]).collect();
        assert_eq!(wide.to_vec(), want);
        check_sizes("filter of wide items", &wide);
        check_sizes("zip of region walks", &(&evens).zip(&evens));
        check_sizes("region walk zip rad", &(&evens).zip(odds));
    });
}
