//! Seeded input generation. Every input of every workload is drawn from
//! a SplitMix64 stream derived from the `--seed` argument, so one seed
//! fixes the arrays, the text, the R-MAT graph and the served request
//! sequence, and the library under test only ever sees the generated
//! data.

/// SplitMix64: tiny, fast, and statistically fine for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for input `stream` of run `seed`.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias is negligible here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Index drawn with probability proportional to `weights[i]`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// Uniform random `u64`s.
pub fn u64s(n: usize, rng: &mut Rng) -> Vec<u64> {
    (0..n).map(|_| rng.next_u64()).collect()
}

/// ASCII text: lowercase words of 2 to 12 letters (mean 7) separated by
/// spaces, broken into lines of about 60 characters.
pub fn text(n: usize, rng: &mut Rng) -> Vec<u8> {
    let mut out = Vec::with_capacity(n + 16);
    let mut col = 0;
    while out.len() < n {
        let word = rng.range(2, 12) as usize;
        for _ in 0..word {
            out.push(b'a' + rng.below(26) as u8);
        }
        col += word + 1;
        if col > 60 {
            out.push(b'\n');
            col = 0;
        } else {
            out.push(b' ');
        }
    }
    out.truncate(n);
    out
}

/// Base-256 digits with 30% `0xFF`, so carries propagate over long runs.
pub fn digits(n: usize, rng: &mut Rng) -> Vec<u8> {
    (0..n)
        .map(|_| {
            let x = rng.next_u64();
            if x % 10 < 3 {
                0xFF
            } else {
                (x >> 32) as u8
            }
        })
        .collect()
}

/// R-MAT edge list with the standard skew (a, b, c, d) = (0.57, 0.19,
/// 0.19, 0.05): `edge_factor << scale` directed edges over `1 << scale`
/// vertices. Each level picks a quadrant from 16 bits of a draw.
pub fn rmat_edges(scale: u32, edge_factor: usize, rng: &mut Rng) -> Vec<(u32, u32)> {
    const A: u64 = 37_355; // 0.57 * 65536
    const AB: u64 = A + 12_452; // + 0.19
    const ABC: u64 = AB + 12_452; // + 0.19
    let m = edge_factor << scale;
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut u, mut v) = (0u32, 0u32);
        let mut bits = 0u64;
        for level in 0..scale {
            if level % 4 == 0 {
                bits = rng.next_u64();
            }
            let r = bits & 0xFFFF;
            bits >>= 16;
            u <<= 1;
            v <<= 1;
            if r >= ABC {
                u |= 1;
                v |= 1;
            } else if r >= AB {
                u |= 1;
            } else if r >= A {
                v |= 1;
            }
        }
        edges.push((u, v));
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        let a: Vec<u64> = u64s(8, &mut Rng::derive(7, 1));
        assert_eq!(a, u64s(8, &mut Rng::derive(7, 1)));
        assert_ne!(a, u64s(8, &mut Rng::derive(8, 1)));
        assert_ne!(a, u64s(8, &mut Rng::derive(7, 2)));
    }

    #[test]
    fn text_has_the_requested_length_and_word_shape() {
        let t = text(10_000, &mut Rng::derive(1, 0));
        assert_eq!(t.len(), 10_000);
        assert!(t
            .iter()
            .all(|&c| c.is_ascii_lowercase() || c == b' ' || c == b'\n'));
        let words = t
            .split(|&c| c == b' ' || c == b'\n')
            .filter(|w| !w.is_empty())
            .count();
        assert!((1_000..1_500).contains(&words), "{words} words");
    }

    #[test]
    fn rmat_edges_stay_in_range() {
        let e = rmat_edges(10, 4, &mut Rng::derive(3, 0));
        assert_eq!(e.len(), 4 << 10);
        assert!(e.iter().all(|&(u, v)| u < 1024 && v < 1024));
    }
}
