//! **bignum-add** (BID set): add two big numbers stored as little-endian
//! base-256 digit arrays.
//!
//! The classic parallel formulation: compute digit-wise sums, classify
//! each position's carry behaviour as *generate* / *propagate* / *kill*,
//! and resolve all carries with a **scan** under the associative
//! "rightmost non-propagate wins" operator. The delayed version fuses the
//! zip and classification into the scan's phase 1, and the final
//! digit-fixup map into its delayed phase 3.

use bds_baseline::{array, rad};
use bds_seq::prelude::*;

/// Carry state at a position: the scan operator is `combine(left, right)
/// = if right == Propagate { left } else { right }`, which is
/// associative. The constants are chosen so that both `classify` and
/// `combine` can be computed without a branch: the digits are random,
/// so a branch on them mispredicts about half the time.
pub type Carry = u8;
/// No carry out of this position regardless of carry in.
pub const KILL: Carry = 0;
/// Carry out of this position regardless of carry in.
pub const GEN: Carry = 1;
/// Carry out equals carry in.
pub const PROP: Carry = 2;

/// Benchmark parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Digits per operand (paper: 500M bytes; scaled default 8M).
    pub n: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n: 8_000_000,
            seed: 0xB16,
        }
    }
}

/// Generate two operands.
pub fn generate(p: Params) -> (Vec<u8>, Vec<u8>) {
    (
        crate::inputs::random_bignum(p.n, p.seed),
        crate::inputs::random_bignum(p.n, p.seed ^ 0xFFFF),
    )
}

/// The carry class of a digit sum `0..=510`: `KILL` below `0xFF`,
/// `PROP` at it, `GEN` above it, as two flag bits.
#[inline]
fn classify(sum: u16) -> Carry {
    u8::from(sum > 0xFF) | u8::from(sum == 0xFF) << 1
}

/// The scan operator: `left` where `right` propagates, else `right`,
/// as a mask select.
#[inline]
fn combine(left: Carry, right: Carry) -> Carry {
    let keep_left = 0u8.wrapping_sub(u8::from(right == PROP));
    (left & keep_left) | (right & !keep_left)
}

#[inline]
fn fix_digit(sum: u16, carry_in: Carry) -> u8 {
    debug_assert_ne!(carry_in, PROP, "exclusive scan from KILL resolves all PROPs");
    (sum + u16::from(carry_in == GEN)) as u8
}

/// Sequential schoolbook reference. Returns `(digits, carry_out)`.
pub fn reference(a: &[u8], b: &[u8]) -> (Vec<u8>, bool) {
    assert_eq!(a.len(), b.len());
    let mut out = Vec::with_capacity(a.len());
    let mut carry = 0u16;
    for (&x, &y) in a.iter().zip(b) {
        let s = u16::from(x) + u16::from(y) + carry;
        out.push(s as u8);
        carry = s >> 8;
    }
    (out, carry != 0)
}

/// `array` version: sums, carry classes, scanned carries, and fixed
/// digits are all materialized arrays.
pub fn run_array(a: &[u8], b: &[u8]) -> (Vec<u8>, bool) {
    let sums = array::zip_with(a, b, |&x, &y| u16::from(x) + u16::from(y));
    let classes = array::map(&sums, |&s| classify(s));
    let (carries, last) = array::scan(&classes, KILL, combine);
    let digits = array::zip_with(&sums, &carries, |&s, &c| fix_digit(s, c));
    (digits, last == GEN)
}

/// `rad` version: the zip and classification fuse into the scan's reads,
/// but the scanned carries land in a real array re-read by the fixup.
pub fn run_rad(a: &[u8], b: &[u8]) -> (Vec<u8>, bool) {
    let sums = rad::from_slice(a).zip(rad::from_slice(b));
    let (carries, last) = sums
        .map(|(x, y)| classify(u16::from(x) + u16::from(y)))
        .scan(KILL, combine);
    let digits = rad::from_slice(a)
        .zip(rad::from_slice(b))
        .zip(rad::from_slice(&carries))
        .map(|((x, y), c)| fix_digit(u16::from(x) + u16::from(y), c))
        .to_vec();
    (digits, last == GEN)
}

/// `delay` version (ours): only the final digits are materialized; the
/// carries exist solely as phase-3 block streams. The digit sums are
/// evaluated twice (once per fused pass), the paper's Section 3
/// trade-off.
pub fn run_delay(a: &[u8], b: &[u8]) -> (Vec<u8>, bool) {
    let classes = from_slice(a)
        .zip_with(from_slice(b), |x, y| u16::from(x) + u16::from(y))
        .map(classify);
    let (carries, last) = classes.scan(KILL, combine);
    let sums_again = from_slice(a).zip_with(from_slice(b), |x, y| u16::from(x) + u16::from(y));
    let digits = carries
        .zip_with(sums_again, |c, s| fix_digit(s, c))
        .to_vec();
    (digits, last == GEN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn operands(n: usize) -> (Vec<u8>, Vec<u8>) {
        generate(Params { n, seed: 99 })
    }

    #[test]
    fn all_versions_match_reference() {
        let (a, b) = operands(30_000);
        let want = reference(&a, &b);
        assert_eq!(run_array(&a, &b), want);
        assert_eq!(run_rad(&a, &b), want);
        assert_eq!(run_delay(&a, &b), want);
    }

    #[test]
    fn long_carry_chain() {
        // 0xFF...F + 0x00...1 = 0x00...0 with carry out.
        let n = 10_000;
        let a = vec![0xFFu8; n];
        let mut b = vec![0u8; n];
        b[0] = 1;
        let (digits, carry) = run_delay(&a, &b);
        assert!(carry);
        assert!(digits.iter().all(|&d| d == 0));
        assert_eq!(run_array(&a, &b), (digits.clone(), carry));
        assert_eq!(run_rad(&a, &b), (digits, carry));
    }

    #[test]
    fn no_carry_case() {
        let a = vec![1u8; 5000];
        let b = vec![2u8; 5000];
        let (digits, carry) = run_delay(&a, &b);
        assert!(!carry);
        assert!(digits.iter().all(|&d| d == 3));
    }

    #[test]
    fn single_digit() {
        let (digits, carry) = run_delay(&[200], &[100]);
        assert_eq!(digits, vec![44]);
        assert!(carry);
    }

    #[test]
    fn classify_matches_three_way_compare_on_every_sum() {
        for sum in 0..=510u16 {
            let want = match sum.cmp(&0xFF) {
                std::cmp::Ordering::Less => KILL,
                std::cmp::Ordering::Equal => PROP,
                std::cmp::Ordering::Greater => GEN,
            };
            assert_eq!(classify(sum), want, "sum {sum}");
        }
    }

    #[test]
    fn combine_matches_select_on_every_pair() {
        for left in [KILL, GEN, PROP] {
            for right in [KILL, GEN, PROP] {
                let want = if right == PROP { left } else { right };
                assert_eq!(combine(left, right), want, "({left},{right})");
            }
        }
    }

    #[test]
    fn carry_operator_is_associative() {
        for a in [KILL, GEN, PROP] {
            for b in [KILL, GEN, PROP] {
                for c in [KILL, GEN, PROP] {
                    assert_eq!(
                        combine(combine(a, b), c),
                        combine(a, combine(b, c)),
                        "({a},{b},{c})"
                    );
                }
            }
        }
    }
}
