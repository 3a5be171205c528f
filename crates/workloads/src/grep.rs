//! **grep** (RAD set): find all lines containing a pattern.
//!
//! Lines are located by filtering newline positions; each line is then
//! scanned for the pattern (a sequential inner loop — nested parallelism
//! over lines of very different lengths), and matching lines are kept.
//! The result is the total matched-line character count plus the count
//! (the harness checksum; returning the concatenated lines would only
//! add an identical copy to every version).

use bds_baseline::array;
use bds_seq::prelude::*;

/// Benchmark parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Characters (paper: 843M; scaled default 8M).
    pub n: usize,
    /// Pattern to search for.
    pub pattern: Vec<u8>,
    /// Fraction of lines containing the pattern (paper: ~3%).
    pub match_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n: 8_000_000,
            pattern: b"xqzzyx".to_vec(),
            match_fraction: 0.03,
            seed: 0x62E9,
        }
    }
}

/// Generate the text.
pub fn generate(p: &Params) -> Vec<u8> {
    crate::inputs::text_with_pattern(p.n, &p.pattern, p.match_fraction, p.seed)
}

/// Result: matching line count and their total length in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrepResult {
    /// Number of matching lines.
    pub lines: usize,
    /// Total bytes across matching lines (excluding newlines).
    pub bytes: u64,
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    if needle.is_empty() || hay.len() < needle.len() {
        return needle.is_empty();
    }
    hay.windows(needle.len()).any(|w| w == needle)
}

/// Line `k` spans `starts[k] .. ends[k]` (end exclusive).
fn line_bounds(newlines: &[u32], k: usize, n: usize) -> (usize, usize) {
    let start = if k == 0 {
        0
    } else {
        newlines[k - 1] as usize + 1
    };
    let end = if k < newlines.len() {
        newlines[k] as usize
    } else {
        n
    };
    (start, end)
}

fn num_lines(newlines: &[u32], n: usize) -> usize {
    // A trailing segment after the last newline counts as a line if
    // non-empty.
    let trailing = match newlines.last() {
        Some(&last) => (last as usize) < n.saturating_sub(1),
        None => n > 0,
    };
    newlines.len() + usize::from(trailing)
}

/// Sequential reference.
pub fn reference(text: &[u8], pattern: &[u8]) -> GrepResult {
    let mut lines = 0usize;
    let mut bytes = 0u64;
    for line in text.split(|&c| c == b'\n') {
        if !line.is_empty() && contains(line, pattern) {
            lines += 1;
            bytes += line.len() as u64;
        }
    }
    GrepResult { lines, bytes }
}

/// `array` version: newline positions, per-line match flags, and the
/// surviving line lengths are all materialized arrays.
pub fn run_array(text: &[u8], pattern: &[u8]) -> GrepResult {
    let n = text.len();
    let idx = array::tabulate(n, |i| i as u32);
    let newlines = array::filter(&idx, |&i| text[i as usize] == b'\n');
    let nl = num_lines(&newlines, n);
    let flags = array::tabulate(nl, |k| {
        let (s, e) = line_bounds(&newlines, k, n);
        (contains(&text[s..e], pattern) && e > s) as u8
    });
    let lens = array::tabulate(nl, |k| {
        let (s, e) = line_bounds(&newlines, k, n);
        (e - s) as u64
    });
    let matched = array::zip_with(&flags, &lens, |&f, &l| if f == 1 { l } else { 0 });
    let bytes = array::reduce(&matched, 0, |a, b| a + b);
    let ones = array::map(&flags, |&f| f as usize);
    let lines = array::reduce(&ones, 0, |a, b| a + b);
    GrepResult { lines, bytes }
}

/// `delay` version (ours): newline positions are forced once (they are
/// consumed many times); everything per-line fuses into two reduces with
/// no intermediate arrays.
pub fn run_delay(text: &[u8], pattern: &[u8]) -> GrepResult {
    let n = text.len();
    let newlines = tabulate(n, |i| i as u32)
        .filter(|&i| text[i as usize] == b'\n')
        .force();
    let nls = newlines.as_slice();
    let nl = num_lines(nls, n);
    let (lines, bytes) = tabulate(nl, |k| {
        let (s, e) = line_bounds(nls, k, n);
        if e > s && contains(&text[s..e], pattern) {
            (1usize, (e - s) as u64)
        } else {
            (0, 0)
        }
    })
    .reduce((0, 0), |(c1, b1), (c2, b2)| (c1 + c2, b1 + b2));
    GrepResult { lines, bytes }
}


/// Error from [`try_run_delay`]: the haystack contained a NUL byte —
/// the classic "binary file" signal that real `grep` refuses to scan.
///
/// The position is a genuine NUL offset, but when several are present it
/// is the first one *observed*; blocks cancelled by an earlier failure
/// never report (see `bds_seq::fallible`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinaryInput {
    /// Offset of a NUL byte.
    pub pos: usize,
}

/// Fallible `delay` version: like [`run_delay`], but NUL bytes poison
/// the run. Validation happens inside the newline-filter predicate (via
/// [`Seq::try_filter_collect`]), so detecting binary input costs no
/// extra pass — the same streamed read that locates line boundaries
/// rejects bad bytes, and the first failure cancels sibling blocks at
/// their next block boundary. The predicate also polls the
/// fault-injection harness so the root `fault_injection` sweep can fail
/// it at any invocation.
pub fn try_run_delay(text: &[u8], pattern: &[u8]) -> Result<GrepResult, BinaryInput> {
    let n = text.len();
    let newlines: Vec<u32> = tabulate(n, |i| i as u32).try_filter_collect(|&i| {
        let c = text[i as usize];
        if c == 0 || bds_seq::faults::poll() {
            Err(BinaryInput { pos: i as usize })
        } else {
            Ok(c == b'\n')
        }
    })?;
    let nl = num_lines(&newlines, n);
    let (lines, bytes) = tabulate(nl, |k| {
        let (s, e) = line_bounds(&newlines, k, n);
        if e > s && contains(&text[s..e], pattern) {
            (1usize, (e - s) as u64)
        } else {
            (0, 0)
        }
    })
    .reduce((0, 0), |(c1, b1), (c2, b2)| (c1 + c2, b1 + b2));
    Ok(GrepResult { lines, bytes })
}

/// SIMD version: the newline scan — the byte-bound phase — runs
/// through `bds_seq::simd`'s dispatched `par_positions_eq` kernel
/// (vectorized count, exact-size allocation, match-only extraction);
/// positions are narrowed to `u32` with a vectorized `par_map` so the
/// per-line phase is byte-for-byte the same as [`run_delay`]'s.
/// Bit-identical to [`run_delay`] at every dispatch level.
pub fn run_simd(text: &[u8], pattern: &[u8]) -> GrepResult {
    use bds_seq::simd;
    let n = text.len();
    let positions = simd::par_positions_eq(text, b'\n');
    let newlines: Vec<u32> = simd::par_map(&positions, |p| p as u32);
    drop(positions);
    let nl = num_lines(&newlines, n);
    let (lines, bytes) = tabulate(nl, |k| {
        let (s, e) = line_bounds(&newlines, k, n);
        if e > s && contains(&text[s..e], pattern) {
            (1usize, (e - s) as u64)
        } else {
            (0, 0)
        }
    })
    .reduce((0, 0), |(c1, b1), (c2, b2)| (c1 + c2, b1 + b2));
    GrepResult { lines, bytes }
}

/// `rad` version: the newline filter materializes (as in `array`) but
/// the per-line flag/length computations fuse into the reduces.
pub fn run_rad(text: &[u8], pattern: &[u8]) -> GrepResult {
    use bds_baseline::rad;
    let n = text.len();
    let newlines = rad::tabulate(n, |i| i as u32).filter(|&i| text[i as usize] == b'\n');
    let nl = num_lines(&newlines, n);
    let (lines, bytes) = rad::tabulate(nl, |k| {
        let (s, e) = line_bounds(&newlines, k, n);
        if e > s && contains(&text[s..e], pattern) {
            (1usize, (e - s) as u64)
        } else {
            (0, 0)
        }
    })
    .reduce((0, 0), |(c1, b1), (c2, b2)| (c1 + c2, b1 + b2));
    GrepResult { lines, bytes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rad_version_agrees() {
        let p = Params { n: 80_000, ..Default::default() };
        let text = generate(&p);
        assert_eq!(run_rad(&text, &p.pattern), reference(&text, &p.pattern));
    }


    #[test]
    fn versions_match_reference() {
        let p = Params {
            n: 100_000,
            ..Default::default()
        };
        let text = generate(&p);
        let want = reference(&text, &p.pattern);
        assert!(want.lines > 0, "generator produced no matches");
        assert_eq!(run_array(&text, &p.pattern), want);
        assert_eq!(run_delay(&text, &p.pattern), want);
        assert_eq!(run_simd(&text, &p.pattern), want);
    }

    #[test]
    fn hand_written() {
        let text = b"hello world\nneedle here\nnothing\nneedle again";
        let want = reference(text, b"needle");
        assert_eq!(want.lines, 2);
        assert_eq!(run_delay(text, b"needle"), want);
        assert_eq!(run_array(text, b"needle"), want);
    }

    #[test]
    fn no_matches() {
        let text = b"aaa\nbbb\nccc";
        let r = run_delay(text, b"zzz");
        assert_eq!(r.lines, 0);
        assert_eq!(r.bytes, 0);
        assert_eq!(run_array(text, b"zzz"), r);
    }

    #[test]
    fn trailing_newline_and_empty_lines() {
        let text = b"x\n\ny\n";
        let want = reference(text, b"x");
        assert_eq!(run_delay(text, b"x"), want);
        assert_eq!(run_array(text, b"x"), want);
    }

    #[test]
    fn empty_input() {
        let r = run_delay(b"", b"x");
        assert_eq!(r.lines, 0);
        assert_eq!(run_array(b"", b"x"), r);
    }

    #[test]
    fn try_run_delay_agrees_on_clean_text() {
        let p = Params {
            n: 120_000,
            ..Default::default()
        };
        let text = generate(&p);
        assert_eq!(
            try_run_delay(&text, &p.pattern),
            Ok(reference(&text, &p.pattern))
        );
    }

    #[test]
    fn try_run_delay_rejects_nul_bytes() {
        let p = Params {
            n: 60_000,
            ..Default::default()
        };
        let mut text = generate(&p);
        text[42_001] = 0x00;
        assert_eq!(
            try_run_delay(&text, &p.pattern),
            Err(BinaryInput { pos: 42_001 })
        );
    }

    #[test]
    fn try_run_delay_reports_a_real_nul() {
        let p = Params {
            n: 60_000,
            ..Default::default()
        };
        let mut text = generate(&p);
        let bad = [7usize, 30_000, 59_999];
        for &pos in &bad {
            text[pos] = 0x00;
        }
        let err = try_run_delay(&text, &p.pattern).unwrap_err();
        assert!(bad.contains(&err.pos), "reported {}", err.pos);
    }

    #[test]
    fn try_run_delay_empty_is_ok() {
        assert_eq!(
            try_run_delay(b"", b"x"),
            Ok(GrepResult { lines: 0, bytes: 0 })
        );
    }
}
