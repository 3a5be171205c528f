//! **wc** (RAD set): count lines, words, and bytes of a text, like Unix
//! `wc`.
//!
//! Each position maps to a `(line, word, byte)` increment triple — word
//! starts are detected by peeking at the previous character, which is
//! random access, hence RAD — and one fused reduce adds them. The array
//! version materializes the 24-byte triple per input byte (the paper's
//! ~16× space blowup and up to 19× slowdown).

use bds_baseline::array;
use bds_seq::prelude::*;

/// Benchmark parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Characters (paper: 500M; scaled default 8M).
    pub n: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n: 8_000_000,
            seed: 0x3C,
        }
    }
}

/// Generate the text.
pub fn generate(p: Params) -> Vec<u8> {
    crate::inputs::random_text(p.n, p.seed)
}

/// The `wc` result triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WcResult {
    /// Newline count.
    pub lines: u64,
    /// Word count.
    pub words: u64,
    /// Byte count.
    pub bytes: u64,
}

#[inline]
fn is_space(c: u8) -> bool {
    c == b' ' || c == b'\n' || c == b'\t'
}

#[inline]
fn triple(text: &[u8], i: usize) -> (u64, u64, u64) {
    let c = text[i];
    let line = u64::from(c == b'\n');
    let word = u64::from(!is_space(c) && (i == 0 || is_space(text[i - 1])));
    (line, word, 1)
}

#[inline]
fn add3(a: (u64, u64, u64), b: (u64, u64, u64)) -> (u64, u64, u64) {
    (a.0 + b.0, a.1 + b.1, a.2 + b.2)
}

/// Sequential reference.
pub fn reference(text: &[u8]) -> WcResult {
    let lines = text.iter().filter(|&&c| c == b'\n').count() as u64;
    let words = text
        .split(|&c| is_space(c))
        .filter(|w| !w.is_empty())
        .count() as u64;
    WcResult {
        lines,
        words,
        bytes: text.len() as u64,
    }
}

/// `array` version: materializes the triple array.
pub fn run_array(text: &[u8]) -> WcResult {
    let triples = array::tabulate(text.len(), |i| triple(text, i));
    let (lines, words, bytes) = array::reduce(&triples, (0, 0, 0), add3);
    WcResult {
        lines,
        words,
        bytes,
    }
}

/// `delay` version (ours): one fused tabulate+reduce pass, O(b)
/// allocation.
pub fn run_delay(text: &[u8]) -> WcResult {
    let (lines, words, bytes) =
        tabulate(text.len(), |i| triple(text, i)).reduce((0, 0, 0), add3);
    WcResult {
        lines,
        words,
        bytes,
    }
}


/// Error from [`try_run_delay`]: the input contained a byte that is not
/// printable text (an ASCII control byte other than `\n`, `\r`, `\t`).
///
/// The reported position is a genuinely offending byte, but when several
/// bytes are bad it is the first one *observed* — blocks cancelled by an
/// earlier failure never report (see `bds_seq::fallible`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WcError {
    /// Offset of an offending byte.
    pub pos: usize,
    /// The byte itself.
    pub byte: u8,
}

/// Per-byte counting step that also validates: control bytes (other than
/// whitespace) mean the input is binary, not text, and poison the run.
/// Polls the fault-injection harness so the root `fault_injection` sweep
/// can fail this closure at any invocation.
fn checked_triple(text: &[u8], i: usize) -> Result<(u64, u64, u64), WcError> {
    let c = text[i];
    if bds_seq::faults::poll() {
        return Err(WcError { pos: i, byte: c });
    }
    if c < 0x20 && c != b'\n' && c != b'\r' && c != b'\t' {
        return Err(WcError { pos: i, byte: c });
    }
    Ok(triple(text, i))
}

/// Fallible `delay` version: the same fused tabulate+reduce pipeline as
/// [`run_delay`], but every byte is validated as it is counted. The
/// first control byte aborts the whole pipeline — sibling blocks stop at
/// their next block boundary via the pool's cancel token — instead of
/// producing a garbage count for binary input.
pub fn try_run_delay(text: &[u8]) -> Result<WcResult, WcError> {
    let folded = tabulate(text.len(), |i| checked_triple(text, i))
        .try_reduce(Ok((0, 0, 0)), |a, b| {
            let (a, b) = (a?, b?);
            Ok(Ok(add3(a, b)))
        })?;
    let (lines, words, bytes) = folded.expect("combine propagates inner errors");
    Ok(WcResult {
        lines,
        words,
        bytes,
    })
}

/// SIMD version: the per-block counting loops run through
/// `bds_seq::simd`'s dispatched byte kernels (`\n` counts via
/// compare+sum, word starts via the shifted-mask zip) over lane-aligned
/// blocks on the ambient pool. Respects `BDS_SIMD` and
/// [`bds_seq::force_level`]; bit-identical to [`run_delay`] at every
/// dispatch level (integer counting only).
pub fn run_simd(text: &[u8]) -> WcResult {
    let (lines, words) = bds_seq::simd::par_wc_count(text);
    WcResult {
        lines,
        words,
        bytes: text.len() as u64,
    }
}

/// `rad` version: tabulate+reduce fused, as in `delay` (no BID ops).
pub fn run_rad(text: &[u8]) -> WcResult {
    use bds_baseline::rad;
    let (lines, words, bytes) = rad::tabulate(text.len(), |i| triple(text, i))
        .reduce((0, 0, 0), add3);
    WcResult { lines, words, bytes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rad_version_agrees() {
        let text = generate(Params { n: 100_000, seed: 5 });
        assert_eq!(run_rad(&text), reference(&text));
    }


    #[test]
    fn versions_match_reference() {
        let text = generate(Params {
            n: 300_000,
            seed: 12,
        });
        let want = reference(&text);
        assert_eq!(run_array(&text), want);
        assert_eq!(run_delay(&text), want);
        assert_eq!(run_simd(&text), want);
    }

    #[test]
    fn hand_counted() {
        let text = b"one two\nthree\n four";
        let want = WcResult {
            lines: 2,
            words: 4,
            bytes: 19,
        };
        assert_eq!(reference(text), want);
        assert_eq!(run_delay(text), want);
        assert_eq!(run_array(text), want);
    }

    #[test]
    fn empty_text() {
        let want = WcResult {
            lines: 0,
            words: 0,
            bytes: 0,
        };
        assert_eq!(run_delay(b""), want);
        assert_eq!(run_array(b""), want);
    }

    #[test]
    fn only_whitespace() {
        let r = run_delay(b" \n\t \n");
        assert_eq!(r.lines, 2);
        assert_eq!(r.words, 0);
        assert_eq!(r.bytes, 5);
    }

    #[test]
    fn try_run_delay_agrees_on_clean_text() {
        let text = generate(Params {
            n: 200_000,
            seed: 77,
        });
        assert_eq!(try_run_delay(&text), Ok(reference(&text)));
    }

    #[test]
    fn try_run_delay_rejects_binary_input() {
        let mut text = generate(Params { n: 50_000, seed: 3 });
        text[31_337] = 0x00;
        let err = try_run_delay(&text).unwrap_err();
        assert_eq!(err, WcError { pos: 31_337, byte: 0x00 });
    }

    #[test]
    fn try_run_delay_reports_a_real_offender() {
        // Several bad bytes: which one is reported depends on block
        // scheduling, but it must be one of them.
        let mut text = generate(Params { n: 80_000, seed: 9 });
        for &pos in &[100usize, 40_000, 79_999] {
            text[pos] = 0x01;
        }
        let err = try_run_delay(&text).unwrap_err();
        assert_eq!(err.byte, 0x01);
        assert!([100usize, 40_000, 79_999].contains(&err.pos));
    }

    #[test]
    fn try_run_delay_empty_is_ok() {
        assert_eq!(
            try_run_delay(b""),
            Ok(WcResult {
                lines: 0,
                words: 0,
                bytes: 0
            })
        );
    }
}
