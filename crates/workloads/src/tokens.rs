//! **tokens** (BID set): split a character array into words.
//!
//! PBBS-style: a token *starts* at `i` when `text[i]` is non-space and
//! `text[i-1]` is space (or `i == 0`), and *ends* at `i` when `text[i]`
//! is non-space and `text[i+1]` is space (or `i == n-1`). Both position
//! sequences are **filters** over the index range; zipping them gives the
//! `(start, end)` ranges. The delayed version keeps starts and ends as
//! BIDs — packed per block — and fuses the zip into the single output
//! materialization; array/rad materialize the two position arrays first.

use bds_baseline::{array, rad};
use bds_seq::prelude::*;

/// Benchmark parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Characters (paper: 500M, average word length 7; scaled default
    /// 8M).
    pub n: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n: 8_000_000,
            seed: 0x707,
        }
    }
}

/// Generate the text.
pub fn generate(p: Params) -> Vec<u8> {
    crate::inputs::random_text(p.n, p.seed)
}

// The predicates combine their tests with non-short-circuit `|`/`&`:
// the text is random, so a branch per test would mispredict often. The
// neighbour reads are clamped into the text, and the edge tests decide
// the result wherever the clamp bites.

#[inline]
fn is_space(c: u8) -> bool {
    (c == b' ') | (c == b'\n') | (c == b'\t')
}

#[inline]
fn is_start(text: &[u8], i: usize) -> bool {
    !is_space(text[i]) & ((i == 0) | is_space(text[i.saturating_sub(1)]))
}

#[inline]
fn is_end(text: &[u8], i: usize) -> bool {
    let last = text.len() - 1;
    !is_space(text[i]) & ((i == last) | is_space(text[(i + 1).min(last)]))
}

/// Sequential reference: the token `(start, end)` ranges (inclusive
/// `start`, inclusive `end`).
pub fn reference(text: &[u8]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut start: Option<usize> = None;
    for (i, &c) in text.iter().enumerate() {
        if !is_space(c) {
            if start.is_none() {
                start = Some(i);
            }
            if i + 1 == text.len() || is_space(text[i + 1]) {
                out.push((start.unwrap() as u32, i as u32));
                start = None;
            }
        }
    }
    out
}

/// `array` version: start positions, end positions, and the zipped
/// ranges are three materialized arrays.
pub fn run_array(text: &[u8]) -> Vec<(u32, u32)> {
    let idx = array::tabulate(text.len(), |i| i as u32);
    let starts = array::filter(&idx, |&i| is_start(text, i as usize));
    let ends = array::filter(&idx, |&i| is_end(text, i as usize));
    array::zip_with(&starts, &ends, |&s, &e| (s, e))
}

/// `rad` version: the index generation fuses into the filters' packing,
/// but starts/ends still land in contiguous arrays before the zip.
pub fn run_rad(text: &[u8]) -> Vec<(u32, u32)> {
    let starts = rad::tabulate(text.len(), |i| i as u32)
        .filter(|&i| is_start(text, i as usize));
    let ends = rad::tabulate(text.len(), |i| i as u32)
        .filter(|&i| is_end(text, i as usize));
    let pairs = rad::from_slice(&starts)
        .zip(rad::from_slice(&ends))
        .to_vec();
    pairs
}

/// `delay` version (ours): starts and ends stay BIDs; the zip streams
/// both packed representations straight into the single output array.
pub fn run_delay(text: &[u8]) -> Vec<(u32, u32)> {
    let starts = tabulate(text.len(), |i| i as u32).filter(|&i| is_start(text, i as usize));
    let ends = tabulate(text.len(), |i| i as u32).filter(|&i| is_end(text, i as usize));
    starts.zip(ends).to_vec()
}

/// Checksum used by the harness: token count and total token length.
pub fn checksum(tokens: &[(u32, u32)]) -> (usize, u64) {
    (
        tokens.len(),
        tokens.iter().map(|&(s, e)| u64::from(e - s + 1)).sum(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The predicates with short-circuit `||`/`&&`: the oracle the
    /// branch-free forms must equal.
    fn is_space_sc(c: u8) -> bool {
        c == b' ' || c == b'\n' || c == b'\t'
    }

    fn is_start_sc(text: &[u8], i: usize) -> bool {
        !is_space_sc(text[i]) && (i == 0 || is_space_sc(text[i - 1]))
    }

    fn is_end_sc(text: &[u8], i: usize) -> bool {
        !is_space_sc(text[i]) && (i + 1 == text.len() || is_space_sc(text[i + 1]))
    }

    fn assert_predicates_agree(text: &[u8]) {
        for i in 0..text.len() {
            assert_eq!(
                is_start(text, i),
                is_start_sc(text, i),
                "start {text:?} @ {i}"
            );
            assert_eq!(is_end(text, i), is_end_sc(text, i), "end {text:?} @ {i}");
        }
    }

    #[test]
    fn predicates_match_short_circuit_forms_on_every_byte() {
        for a in 0..=255u8 {
            assert_eq!(is_space(a), is_space_sc(a), "byte {a}");
            // A 1-byte input: position 0 is also the last position.
            assert_predicates_agree(&[a]);
            for b in 0..=255u8 {
                // Every byte at position 0 and at the last position,
                // beside every neighbour...
                assert_predicates_agree(&[a, b]);
                // ...and in the middle, between two equal neighbours.
                assert_predicates_agree(&[b, a, b]);
            }
        }
    }

    #[test]
    fn all_versions_match_reference() {
        let text = generate(Params {
            n: 50_000,
            seed: 21,
        });
        let want = reference(&text);
        assert_eq!(run_array(&text), want);
        assert_eq!(run_rad(&text), want);
        assert_eq!(run_delay(&text), want);
    }

    #[test]
    fn hand_written_cases() {
        let text = b"ab  cd\ne ";
        let want = vec![(0u32, 1u32), (4, 5), (7, 7)];
        assert_eq!(reference(text), want);
        assert_eq!(run_delay(text), want);
        assert_eq!(run_array(text), want);
    }

    #[test]
    fn all_spaces_and_empty() {
        assert!(run_delay(b"   \n\t ").is_empty());
        assert!(run_delay(b"").is_empty());
        assert!(run_array(b"   ").is_empty());
    }

    #[test]
    fn single_token_spans_whole_input() {
        assert_eq!(run_delay(b"abcdef"), vec![(0, 5)]);
    }

    #[test]
    fn token_at_both_boundaries() {
        assert_eq!(run_delay(b"x y"), vec![(0, 0), (2, 2)]);
    }

    #[test]
    fn average_token_length_near_seven() {
        let text = generate(Params {
            n: 200_000,
            seed: 3,
        });
        let (count, total) = checksum(&run_delay(&text));
        let mean = total as f64 / count as f64;
        assert!((mean - 7.0).abs() < 1.0, "mean {mean}");
    }
}
