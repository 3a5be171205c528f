//! Differential legs for the `bds_seq::simd` drivers the workloads run.
//!
//! Every leg runs the *same* seeded input through the four parallel
//! drivers — `par_wc_count` (wc), `par_positions_eq` (grep), and a
//! straight-line `par_map`/`par_tabulate` (grep, mandelbrot, image) —
//! at [`SimdLevel::Scalar`] (the oracle leg) and at every other level
//! the CPU supports, via [`bds_seq::force_level`]. The scalar leg must
//! match a plain-iterator oracle, and every other level the scalar
//! leg, **bit-for-bit**: the byte kernels count with integer adds and
//! map/tabulate apply their closure elementwise. Lengths are drawn to
//! straddle lane and chunk boundaries — off-by-one at a seam is exactly
//! the bug class this sweep exists to catch.

use bds_bench::seed::splitmix64;
use bds_seq::simd::{self, SimdLevel};

/// Lengths that exercise the interesting seams: empty, single, one
/// each side of a byte lane and a `u64` lane, one each side of the poll
/// chunk, and a couple of seeded "random" sizes.
fn lengths(seed: u64) -> Vec<usize> {
    let mut v = vec![0, 1];
    for seam in [
        bds_cost::lane_count::<u8>(),
        bds_cost::lane_count::<u64>(),
        simd::CHUNK,
    ] {
        v.extend([seam - 1, seam, seam + 1]);
    }
    v.push(1 + (splitmix64(seed) % 50_000) as usize);
    v.push(1 + (splitmix64(seed ^ 1) % 200_000) as usize);
    v
}

fn gen_u64(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| splitmix64(seed ^ i)).collect()
}

fn gen_bytes(seed: u64, n: usize) -> Vec<u8> {
    (0..n as u64)
        .map(|i| {
            let b = splitmix64(seed ^ i) as u8;
            // Bias in plenty of newlines/spaces so wc/grep legs count
            // something.
            match b % 11 {
                0 => b'\n',
                1 | 2 => b' ',
                3 => b'\t',
                _ => b'a' + b % 26,
            }
        })
        .collect()
}

/// The straight-line element function of the map/tabulate legs: branch
/// free, so it autovectorizes at the wider levels.
fn mix(x: u64) -> u64 {
    (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

fn is_space(b: u8) -> bool {
    b == b' ' || b == b'\n' || b == b'\t'
}

/// One leg's outputs: each driver on the leg's input.
#[derive(PartialEq)]
struct Outputs {
    wc: (u64, u64),
    positions: Vec<usize>,
    map: Vec<u64>,
    tabulate: Vec<u64>,
}

impl Outputs {
    /// The drivers, at the active dispatch level.
    fn drivers(ints: &[u64], bytes: &[u8], seed: u64) -> Outputs {
        Outputs {
            wc: simd::par_wc_count(bytes),
            positions: simd::par_positions_eq(bytes, b'\n'),
            map: simd::par_map(ints, mix),
            tabulate: simd::par_tabulate(ints.len(), |i| mix(i as u64 ^ seed)),
        }
    }

    /// The same outputs from plain iterators.
    fn oracle(ints: &[u64], bytes: &[u8], seed: u64) -> Outputs {
        let lines = bytes.iter().filter(|&&b| b == b'\n').count() as u64;
        let words = bytes.split(|&b| is_space(b)).filter(|w| !w.is_empty()).count() as u64;
        Outputs {
            wc: (lines, words),
            positions: (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect(),
            map: ints.iter().map(|&x| mix(x)).collect(),
            tabulate: (0..ints.len()).map(|i| mix(i as u64 ^ seed)).collect(),
        }
    }

    /// Names of the drivers whose outputs differ from `other`'s.
    fn differing(&self, other: &Outputs) -> Vec<&'static str> {
        [
            ("par_wc_count", self.wc != other.wc),
            ("par_positions_eq", self.positions != other.positions),
            ("par_map", self.map != other.map),
            ("par_tabulate", self.tabulate != other.tabulate),
        ]
        .into_iter()
        .filter_map(|(name, differs)| differs.then_some(name))
        .collect()
    }
}

/// Run every differential leg for one subseed on the installed pool.
/// Returns human-readable violations (empty = clean). Forces dispatch
/// levels process-wide, so callers must not run this concurrently with
/// other SIMD work.
pub fn check_simd(subseed: u64) -> Vec<String> {
    let mut violations = Vec::new();
    for (li, &n) in lengths(subseed).iter().enumerate() {
        let seed = splitmix64(subseed ^ (li as u64) << 32);
        let ints = gen_u64(seed, n);
        let bytes = gen_bytes(seed, n);
        let scalar = {
            let _g = simd::force_level(SimdLevel::Scalar);
            Outputs::drivers(&ints, &bytes, seed)
        };
        let oracle = Outputs::oracle(&ints, &bytes, seed);
        for name in scalar.differing(&oracle) {
            violations.push(format!("n={n}: scalar {name} diverged from the iterator oracle"));
        }
        for level in simd::supported_levels() {
            if level == SimdLevel::Scalar {
                continue;
            }
            let _g = simd::force_level(level);
            let got = Outputs::drivers(&ints, &bytes, seed);
            for name in got.differing(&scalar) {
                violations.push(format!("n={n} level={}: {name} diverged from scalar", level.name()));
            }
        }
    }
    violations
}

/// The dedicated `--simd` sweep: `rounds` seeded [`check_simd`] passes
/// on a fresh pool, reporting violations as they appear. Returns every
/// `(subseed, violation)` pair.
pub fn run_simd_sweep(master: u64, rounds: usize, verbose: bool) -> Vec<(u64, String)> {
    let _cal = crate::calibration_pin();
    let pool = bds_pool::Pool::new_seeded(3, master);
    let mut all = Vec::new();
    pool.install(|| {
        for k in 0..rounds {
            let subseed = bds_bench::seed::subseed(master, k as u64);
            for v in check_simd(subseed) {
                eprintln!("bds-check: SIMD FAILURE  BDS_CHECK_SEED={subseed}  {v}");
                all.push((subseed, v));
            }
            if verbose && (k + 1) % 10 == 0 {
                eprintln!("bds-check: {}/{rounds} SIMD rounds, {} violation(s)", k + 1, all.len());
            }
        }
    });
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn seeded_rounds_are_clean() {
        let _l = crate::test_sync::lock();
        let pool = bds_pool::Pool::new(2);
        pool.install(|| {
            for k in 0..2 {
                let subseed = bds_bench::seed::subseed(0x51AD, k);
                assert_eq!(check_simd(subseed), Vec::<String>::new());
            }
        });
    }

    #[test]
    fn lengths_cover_the_seams() {
        let ls = lengths(7);
        assert!(ls.contains(&0));
        assert!(ls.contains(&(simd::CHUNK - 1)));
        assert!(ls.contains(&(simd::CHUNK + 1)));
        for lane in [bds_cost::lane_count::<u8>(), bds_cost::lane_count::<u64>()] {
            assert!(ls.contains(&(lane - 1)) && ls.contains(&(lane + 1)));
        }
    }

    #[test]
    fn a_wrong_driver_is_named() {
        let (ints, bytes) = (gen_u64(3, 100), gen_bytes(3, 100));
        let good = Outputs::oracle(&ints, &bytes, 3);
        let mut bad = Outputs::oracle(&ints, &bytes, 3);
        bad.positions.pop();
        bad.tabulate[7] ^= 1;
        assert_eq!(bad.differing(&good), ["par_positions_eq", "par_tabulate"]);
    }
}
