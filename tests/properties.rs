//! Property-based tests (proptest) of the core library invariants.
//!
//! Every delayed operation must agree with its obvious sequential
//! specification for arbitrary inputs and arbitrary block sizes — block
//! boundaries are the main source of subtle bugs in block-based
//! implementations, so the block size is itself a generated input.

use block_delayed_sequences::prelude::*;
use block_delayed_sequences::seq::dynseq::DSeq;
use block_delayed_sequences::seq::{force_block_size, Flattened, Forced};
use proptest::prelude::*;

/// `force_block_size` is process-global; serialize tests that set it so
/// concurrent test threads cannot observe each other's overrides
/// (which would, e.g., misalign a zip's two sides).
static BLOCK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Field order is load-bearing: struct fields drop in declaration
/// order, so the block-size override (`_guard`) must be declared
/// *before* the mutex guard (`_lock`) — the override is restored first,
/// and only then is the lock released. The reverse order would unlock
/// while the forced block size is still in effect, leaking it into
/// whichever test grabs the lock (or runs unlocked in parallel) next.
struct SerialBlock {
    _guard: block_delayed_sequences::seq::BlockSizeGuard,
    _lock: std::sync::MutexGuard<'static, ()>,
}

fn lock_block_size(bs: usize) -> SerialBlock {
    let lock = BLOCK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    SerialBlock {
        _guard: force_block_size(bs),
        _lock: lock,
    }
}

/// Strategy: a vector plus a block size in a bug-hunting range.
fn vec_and_block() -> impl Strategy<Value = (Vec<u64>, usize)> {
    (
        prop::collection::vec(0u64..1000, 0..800),
        prop_oneof![Just(1usize), 2usize..9, 63usize..66, 1000usize..1100],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn to_vec_is_identity((xs, bs) in vec_and_block()) {
        let _g = lock_block_size(bs);
        prop_assert_eq!(from_slice(&xs).to_vec(), xs);
    }

    #[test]
    fn map_matches_iterator((xs, bs) in vec_and_block()) {
        let _g = lock_block_size(bs);
        let got = from_slice(&xs).map(|x| x.wrapping_mul(3) ^ 7).to_vec();
        let want: Vec<u64> = xs.iter().map(|x| x.wrapping_mul(3) ^ 7).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn scan_matches_prefix_sums((xs, bs) in vec_and_block()) {
        let _g = lock_block_size(bs);
        let (s, total) = from_slice(&xs).scan(0, |a, b| a + b);
        let got = s.to_vec();
        let mut acc = 0u64;
        let mut want = Vec::with_capacity(xs.len());
        for &x in &xs {
            want.push(acc);
            acc += x;
        }
        prop_assert_eq!(got, want);
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn scan_incl_matches((xs, bs) in vec_and_block()) {
        let _g = lock_block_size(bs);
        let got = from_slice(&xs).scan_incl(0, |a, b| a + b).to_vec();
        let mut acc = 0u64;
        let want: Vec<u64> = xs.iter().map(|&x| { acc += x; acc }).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn filter_matches_std_filter((xs, bs) in vec_and_block()) {
        let _g = lock_block_size(bs);
        let got = from_slice(&xs).filter(|&x| x % 3 == 1).to_vec();
        let want: Vec<u64> = xs.iter().copied().filter(|&x| x % 3 == 1).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn filter_len_matches_count((xs, bs) in vec_and_block()) {
        let _g = lock_block_size(bs);
        let f = from_slice(&xs).filter(|&x| x < 500);
        prop_assert_eq!(f.len(), xs.iter().filter(|&&x| x < 500).count());
    }

    #[test]
    fn reduce_matches_fold((xs, bs) in vec_and_block()) {
        let _g = lock_block_size(bs);
        let got = from_slice(&xs).reduce(0, |a, b| a + b);
        prop_assert_eq!(got, xs.iter().sum::<u64>());
    }

    #[test]
    fn reduce_order_preserved_for_noncommutative((xs, bs) in vec_and_block()) {
        // Matrix-multiply-like operator: associative, NOT commutative.
        // (a, b) ⊕ (c, d) = (a*c, b*c + d) — affine composition on u64
        // with wrapping arithmetic.
        let _g = lock_block_size(bs);
        let comb = |x: (u64, u64), y: (u64, u64)| {
            (x.0.wrapping_mul(y.0), x.1.wrapping_mul(y.0).wrapping_add(y.1))
        };
        let got = from_slice(&xs).map(|v| (v | 1, v)).reduce((1, 0), comb);
        let want = xs.iter().map(|&v| (v | 1, v)).fold((1, 0), comb);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn zip_matches_iterator_zip((xs, bs) in vec_and_block()) {
        let _g = lock_block_size(bs);
        let ys: Vec<u64> = xs.iter().map(|x| x + 1).collect();
        let got = from_slice(&xs).zip(from_slice(&ys)).to_vec();
        let want: Vec<(u64, u64)> =
            xs.iter().copied().zip(ys.iter().copied()).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn flatten_matches_concat(
        (parts, bs) in (
            prop::collection::vec(prop::collection::vec(0u64..100, 0..40), 0..60),
            prop_oneof![Just(1usize), 2usize..9, 500usize..600],
        )
    ) {
        let _g = lock_block_size(bs);
        let inners: Vec<Forced<u64>> =
            parts.iter().cloned().map(Forced::from_vec).collect();
        let got = Flattened::from_inners(inners).to_vec();
        let want: Vec<u64> = parts.concat();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn scan_then_filter_then_reduce((xs, bs) in vec_and_block()) {
        // Fusion chains must equal the unfused sequential composition.
        let _g = lock_block_size(bs);
        let (s, _) = from_slice(&xs).scan(0, |a, b| a + b);
        let got = s.filter(|&p| p % 2 == 0).reduce(0, |a, b| a + b);
        let mut acc = 0u64;
        let mut want = 0u64;
        for &x in &xs {
            if acc.is_multiple_of(2) {
                want += acc;
            }
            acc += x;
        }
        prop_assert_eq!(got, want);
    }

    #[test]
    fn dynseq_equals_static((xs, bs) in vec_and_block()) {
        let _g = lock_block_size(bs);
        let (s, st) = from_slice(&xs).map(|x| x % 7).scan(0, |a, b| a + b);
        let stat = s.filter(|&v| v % 2 == 1).to_vec();
        let (d, dt) = DSeq::from_vec(xs.clone()).map(|x| x % 7).scan(0, |a, b| a + b);
        let dynamic = d.filter(|&v| v % 2 == 1).to_vec();
        prop_assert_eq!(stat, dynamic);
        prop_assert_eq!(st, dt);
    }

    #[test]
    fn filter_op_equals_filter_plus_map((xs, bs) in vec_and_block()) {
        let _g = lock_block_size(bs);
        let a = from_slice(&xs)
            .filter_op(|x| (x % 5 == 0).then_some(x * 2))
            .to_vec();
        let b = from_slice(&xs)
            .filter(|&x| x % 5 == 0)
            .map(|x| x * 2)
            .to_vec();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn take_skip_partition((xs, bs) in vec_and_block(), k in 0usize..900) {
        let _g = lock_block_size(bs);
        let head = from_slice(&xs).take(k).to_vec();
        let tail = from_slice(&xs).skip(k).to_vec();
        let mut whole = head;
        whole.extend(tail);
        prop_assert_eq!(whole, xs);
    }

    #[test]
    fn rev_rev_is_identity((xs, bs) in vec_and_block()) {
        let _g = lock_block_size(bs);
        let got = from_slice(&xs).rev().rev().to_vec();
        prop_assert_eq!(got, xs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn enumerate_indices_are_dense((xs, bs) in vec_and_block()) {
        let _g = lock_block_size(bs);
        let got = from_slice(&xs).enumerate().to_vec();
        for (k, (i, x)) in got.iter().enumerate() {
            prop_assert_eq!(k, *i);
            prop_assert_eq!(*x, xs[k]);
        }
    }

    #[test]
    fn sorted_dedup_pipeline_matches_btreeset(
        (xs, bs) in vec_and_block(),
    ) {
        // A whole mini-application as a property: sort + boundary filter
        // equals the set of distinct values.
        let _g = lock_block_size(bs);
        let mut sorted = xs.clone();
        bds_sort_shim(&mut sorted);
        let got = tabulate(sorted.len(), |i| i)
            .filter(|&i| i == 0 || sorted[i] != sorted[i - 1])
            .map(|i| sorted[i])
            .to_vec();
        let want: Vec<u64> = std::collections::BTreeSet::from_iter(xs.iter().copied())
            .into_iter()
            .collect();
        prop_assert_eq!(got, want);
    }
}

/// Local alias so the property above reads clearly.
fn bds_sort_shim(v: &mut [u64]) {
    bds_sort::sort(v);
}
