//! Defensive-invariant tests: the `Seq` contract says every block yields
//! exactly its share of elements. The consumers' disjoint parallel
//! writes are only safe because `to_vec` *verifies* this at
//! runtime — these tests implement deliberately broken sequences and
//! check that the library refuses them (panics) instead of corrupting
//! memory.

use block_delayed_sequences::seq::stream::block_bounds;
use block_delayed_sequences::seq::{RadBlock, RadSeq, Seq};

/// A sequence that lies: `block(j, bs)` yields one element too few.
/// Like the others here it fixes its block size, so a consumer walks
/// `len / bs` blocks of it.
struct ShortBlocks {
    len: usize,
    bs: usize,
}

impl Seq for ShortBlocks {
    type Item = usize;
    type Block<'s>
        = std::iter::Take<std::ops::Range<usize>>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.len
    }

    fn fixed_block_size(&self) -> Option<usize> {
        Some(self.bs)
    }

    fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
        let (lo, hi) = block_bounds(self.len, bs, j);
        // One short (when non-empty).
        (lo..hi).take((hi - lo).saturating_sub(1))
    }
}

/// A sequence that lies the other way: an extra element per block.
struct LongBlocks {
    len: usize,
    bs: usize,
}

impl Seq for LongBlocks {
    type Item = usize;
    type Block<'s>
        = std::ops::Range<usize>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.len
    }

    fn fixed_block_size(&self) -> Option<usize> {
        Some(self.bs)
    }

    fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
        let (lo, hi) = block_bounds(self.len, bs, j);
        lo..hi + 1
    }
}

fn expect_panic<F: FnOnce() + std::panic::UnwindSafe>(f: F, what: &str) {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence expected panics
    let r = std::panic::catch_unwind(f);
    std::panic::set_hook(hook);
    assert!(r.is_err(), "{what} should have panicked");
}

#[test]
fn to_vec_rejects_underflowing_blocks() {
    expect_panic(
        || {
            let s = ShortBlocks { len: 100, bs: 10 };
            let _ = s.to_vec();
        },
        "to_vec on underflowing blocks",
    );
}

#[test]
fn to_vec_rejects_overflowing_blocks() {
    expect_panic(
        || {
            let s = LongBlocks { len: 100, bs: 10 };
            let _ = s.to_vec();
        },
        "to_vec on overflowing blocks",
    );
}

/// A correct custom Seq implementation built on `RadBlock` works with
/// every consumer — the extension point the library promises. It fixes
/// its own block size, so every consumer below crosses block seams.
struct Fibonacci {
    len: usize,
    bs: usize,
}

impl Seq for Fibonacci {
    type Item = u64;
    type Block<'s>
        = RadBlock<'s, Self>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.len
    }

    fn fixed_block_size(&self) -> Option<usize> {
        Some(self.bs)
    }

    fn block(&self, j: usize, bs: usize) -> Self::Block<'_> {
        let (lo, hi) = block_bounds(self.len, bs, j);
        RadBlock::new(self, lo, hi)
    }
}

impl RadSeq for Fibonacci {
    fn get(&self, i: usize) -> u64 {
        // Closed form via fast doubling would be overkill; iterate.
        let (mut a, mut b) = (0u64, 1u64);
        for _ in 0..i {
            let next = a.wrapping_add(b);
            a = b;
            b = next;
        }
        a
    }
}

#[test]
fn custom_seq_composes_with_library_ops() {
    let fib = Fibonacci { len: 30, bs: 8 };
    let v = fib.to_vec();
    assert_eq!(&v[..8], &[0, 1, 1, 2, 3, 5, 8, 13]);
    let fib = Fibonacci { len: 30, bs: 8 };
    let evens = fib.filter(|&x| x % 2 == 0).to_vec();
    assert_eq!(&evens[..5], &[0, 2, 8, 34, 144]);
    let fib = Fibonacci { len: 20, bs: 8 };
    let (prefix, total) = fib.scan(0, |a, b| a + b);
    // Seeded across 3 blocks of the custom sequence's own size.
    assert_eq!(prefix.fixed_block_size(), Some(8));
    assert_eq!(total, prefix.to_vec().last().unwrap() + 4181);
}
