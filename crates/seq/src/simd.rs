//! SIMD fast paths for the byte-scanning and elementwise kernels.
//!
//! Block-delayed execution turns pipelines into straight-line
//! sequential loops over blocks — exactly the shape autovectorization
//! wants. This module supplies vector-width-dispatched kernels for the
//! inner loops the workloads run — byte scanning for `wc` and `grep`,
//! and elementwise map/tabulate for `grep`, `mandelbrot` and `image` —
//! and four parallel drivers ([`par_wc_count`], [`par_positions_eq`],
//! [`par_map`], [`par_tabulate`]) that run them on the ambient
//! `bds-pool`.
//!
//! ## Dispatch ladder
//!
//! A process-wide [`SimdLevel`] is resolved once, in order of
//! precedence:
//!
//! 1. a programmatic [`force_level`] guard (tests and `bds-check`
//!    differential legs), capped at what the CPU supports;
//! 2. the `BDS_SIMD` environment variable — `off`/`scalar`, `avx2`,
//!    `avx512`, or `auto` — also capped at CPU support;
//! 3. runtime feature detection (`is_x86_feature_detected!`), yielding
//!    [`SimdLevel::Scalar`] on non-x86-64 targets.
//!
//! Kernels are *not* hand-written intrinsics: each is a plain Rust loop
//! compiled three times — once at the baseline target, once under
//! `#[target_feature(enable = "avx2")]`, once under the AVX-512
//! features — and LLVM autovectorizes the annotated copies. The match
//! on [`SimdLevel`] picks the copy whose features the CPU was verified
//! to have, which is the safety argument for every `unsafe` call in
//! this module.
//!
//! ## The drivers are block loops of the stream core
//!
//! Each driver is an instantiation of the block loops in
//! [`crate::stream`], in the spirit of indexed stream fusion: the
//! consumer's index space drives one loop, and a SIMD kernel is only
//! what runs inside a chunk. A driver therefore follows the core's
//! per-block protocol:
//!
//! * **Geometry** — solved once per consumption by
//!   [`stream::geometry`], then rounded up to a multiple of the widest
//!   lane count of the element type ([`bds_cost::align_to_lane`]) so no
//!   vector straddles a block seam, and recorded for the profiler under
//!   the driver's profile span.
//! * **Cancellation** — every block walks its range in chunks of at
//!   most [`CHUNK`] (= [`bds_pool::PollTicker::INTERVAL`]) elements and
//!   ticks once per chunk, the same poll-latency bound as the stream
//!   core's chunk loop.
//! * **Memory budgets** — outputs are allocated once, through the
//!   `PartialVec` protocol (`crate::util`) that charges any ambient
//!   budget, exactly as `to_vec` charges.
//! * **Recovery** — every block body runs under
//!   [`bds_pool::recover_block`], so under [`bds_pool::run_recovered`]
//!   a transient fault re-executes only its block.
//!
//! ## Determinism across levels
//!
//! The byte kernels count with integer adds and map/tabulate apply the
//! caller's closure elementwise, so every level produces bit-identical
//! output; `bds-check --simd` asserts it against the forced-scalar leg.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use bds_cost::SIMPLE;
use bds_pool::PollTicker;

use crate::counters;
use crate::profile::{self, Stage};
use crate::stream::{self, block_bounds, Geometry};
use crate::util::{scan_sequential, BlockWriter};

/// Elements per poll chunk: the cancellation interval, so one `tick_n`
/// per chunk preserves the poll-latency bound exactly.
pub const CHUNK: usize = PollTicker::INTERVAL as usize;

/// How wide the dispatched kernels may go. Ordered: wider levels
/// compare greater, so capping a request at CPU support is `min`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Baseline codegen, no feature-gated copies: the oracle leg for
    /// differential checks.
    Scalar,
    /// 256-bit integer and float vectors (`avx2`, implies `fma` is
    /// *not* assumed — we enable only what we check).
    Avx2,
    /// 512-bit vectors (`avx512f` + `avx512bw` + `avx512dq` +
    /// `avx512vl`).
    Avx512,
}

impl SimdLevel {
    /// Stable lowercase name, matching the `BDS_SIMD` spellings.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

fn encode(l: SimdLevel) -> usize {
    match l {
        SimdLevel::Scalar => 1,
        SimdLevel::Avx2 => 2,
        SimdLevel::Avx512 => 3,
    }
}

fn decode(v: usize) -> SimdLevel {
    match v {
        1 => SimdLevel::Scalar,
        2 => SimdLevel::Avx2,
        3 => SimdLevel::Avx512,
        _ => unreachable!("corrupt SimdLevel encoding: {v}"),
    }
}

/// What the CPU actually supports, probed once per process.
pub fn detected_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512dq")
                && is_x86_feature_detected!("avx512vl")
            {
                return SimdLevel::Avx512;
            }
            if is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    })
}

/// The levels this CPU can run, narrowest first — what `bds-check`
/// iterates when forcing legs.
pub fn supported_levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512]
        .into_iter()
        .filter(|&l| l <= detected_level())
        .collect()
}

/// Programmatic override; 0 = none. Takes precedence over `BDS_SIMD`.
static FORCE: AtomicUsize = AtomicUsize::new(0);
/// Resolved `BDS_SIMD`/detection default; 0 = not yet resolved.
static MODE: AtomicUsize = AtomicUsize::new(0);

fn resolved_default() -> SimdLevel {
    match MODE.load(Ordering::Relaxed) {
        0 => {
            let detected = detected_level();
            let level = match std::env::var("BDS_SIMD").ok().as_deref() {
                Some("off") | Some("scalar") => SimdLevel::Scalar,
                Some("avx2") => SimdLevel::Avx2.min(detected),
                Some("avx512") => SimdLevel::Avx512.min(detected),
                _ => detected,
            };
            // Benign race: everyone computes the same value from the
            // same env + CPU; first store wins, all agree.
            match MODE.compare_exchange(0, encode(level), Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => level,
                Err(v) => decode(v),
            }
        }
        v => decode(v),
    }
}

/// The level the kernels will dispatch *right now*: the active
/// [`force_level`] override if any, else the resolved `BDS_SIMD` /
/// detection default. Never exceeds [`detected_level`], which is the
/// soundness invariant every `unsafe` kernel call relies on.
pub fn active_level() -> SimdLevel {
    match FORCE.load(Ordering::Relaxed) {
        0 => resolved_default(),
        v => decode(v),
    }
}

/// RAII guard restoring the previous override on drop; see
/// [`force_level`].
pub struct SimdLevelGuard {
    previous: usize,
    applied: SimdLevel,
}

impl SimdLevelGuard {
    /// The level actually applied — `min(requested, detected)`.
    pub fn applied(&self) -> SimdLevel {
        self.applied
    }
}

impl Drop for SimdLevelGuard {
    fn drop(&mut self) {
        FORCE.store(self.previous, Ordering::Relaxed);
    }
}

/// Force a dispatch level process-wide until the guard drops, capped at
/// what the CPU supports (requesting AVX-512 on an AVX2 machine forces
/// AVX2 — read [`SimdLevelGuard::applied`] when exactness matters).
/// Like [`crate::policy::force_block_size`], concurrent guards with
/// different levels are a logic error (last writer wins); tests
/// serialize on a shared lock.
pub fn force_level(level: SimdLevel) -> SimdLevelGuard {
    let applied = level.min(detected_level());
    let previous = FORCE.swap(encode(applied), Ordering::Relaxed);
    SimdLevelGuard { previous, applied }
}

// ---------------------------------------------------------------------
// Byte-scanning kernels (grep / wc)
// ---------------------------------------------------------------------

mod bytes {
    /// Matches-per-chunk count; compiles to `pcmpeqb`+`psadbw`-style
    /// code under the vector features.
    #[inline(always)]
    pub fn count_eq_body(chunk: &[u8], needle: u8) -> u64 {
        let mut n: u64 = 0;
        for &b in chunk {
            n += u64::from(b == needle);
        }
        n
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_eq_avx2(chunk: &[u8], needle: u8) -> u64 {
        count_eq_body(chunk, needle)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn count_eq_avx512(chunk: &[u8], needle: u8) -> u64 {
        count_eq_body(chunk, needle)
    }

    /// Word-count kernel for `wc`: counts word *starts* inside `chunk`
    /// given the byte immediately before it (`prev`, `None` at the
    /// start of input). A word start is a non-space whose predecessor
    /// is a space (or the input boundary).
    ///
    /// Written as an elementwise zip of `chunk` with its one-shifted
    /// self — a pure mask expression with no loop-carried dependency —
    /// plus a boundary term, so the loop vectorizes; the naive
    /// `prev_is_space` formulation is a serial chain.
    #[inline(always)]
    pub fn word_starts_body(chunk: &[u8], prev: Option<u8>) -> u64 {
        #[inline(always)]
        fn space(b: u8) -> bool {
            b == b' ' || b == b'\n' || b == b'\t'
        }
        if chunk.is_empty() {
            return 0;
        }
        let boundary = u64::from(!space(chunk[0]) && prev.is_none_or(space));
        let mut n: u64 = 0;
        let shifted = &chunk[..chunk.len() - 1];
        for (&cur, &prev) in chunk[1..].iter().zip(shifted) {
            n += u64::from(!space(cur) && space(prev));
        }
        boundary + n
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub unsafe fn word_starts_avx2(chunk: &[u8], prev: Option<u8>) -> u64 {
        word_starts_body(chunk, prev)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn word_starts_avx512(chunk: &[u8], prev: Option<u8>) -> u64 {
        word_starts_body(chunk, prev)
    }
}

#[inline]
fn count_eq_chunk(level: SimdLevel, chunk: &[u8], needle: u8) -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the module dispatch invariant — `level` never exceeds
    // `detected_level()`.
    match level {
        SimdLevel::Scalar => bytes::count_eq_body(chunk, needle),
        SimdLevel::Avx2 => unsafe { bytes::count_eq_avx2(chunk, needle) },
        SimdLevel::Avx512 => unsafe { bytes::count_eq_avx512(chunk, needle) },
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = level;
        bytes::count_eq_body(chunk, needle)
    }
}

#[inline]
fn word_starts_chunk(level: SimdLevel, chunk: &[u8], prev: Option<u8>) -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: dispatch invariant, as above.
    match level {
        SimdLevel::Scalar => bytes::word_starts_body(chunk, prev),
        SimdLevel::Avx2 => unsafe { bytes::word_starts_avx2(chunk, prev) },
        SimdLevel::Avx512 => unsafe { bytes::word_starts_avx512(chunk, prev) },
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = level;
        bytes::word_starts_body(chunk, prev)
    }
}

// ---------------------------------------------------------------------
// Map / tabulate chunk kernels (generic; monomorphized under each
// feature set so simple arithmetic closures autovectorize)
// ---------------------------------------------------------------------

#[inline(always)]
fn map_chunk_body<T: Copy, U: Send, F: Fn(T) -> U>(chunk: &[T], w: &mut BlockWriter<'_, U>, f: &F) {
    for &x in chunk {
        w.push(f(x));
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn map_chunk_avx2<T: Copy, U: Send, F: Fn(T) -> U>(
    chunk: &[T],
    w: &mut BlockWriter<'_, U>,
    f: &F,
) {
    map_chunk_body(chunk, w, f)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
unsafe fn map_chunk_avx512<T: Copy, U: Send, F: Fn(T) -> U>(
    chunk: &[T],
    w: &mut BlockWriter<'_, U>,
    f: &F,
) {
    map_chunk_body(chunk, w, f)
}

#[inline(always)]
fn tab_chunk_body<U: Send, F: Fn(usize) -> U>(lo: usize, hi: usize, w: &mut BlockWriter<'_, U>, f: &F) {
    for i in lo..hi {
        w.push(f(i));
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tab_chunk_avx2<U: Send, F: Fn(usize) -> U>(
    lo: usize,
    hi: usize,
    w: &mut BlockWriter<'_, U>,
    f: &F,
) {
    tab_chunk_body(lo, hi, w, f)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
unsafe fn tab_chunk_avx512<U: Send, F: Fn(usize) -> U>(
    lo: usize,
    hi: usize,
    w: &mut BlockWriter<'_, U>,
    f: &F,
) {
    tab_chunk_body(lo, hi, w, f)
}

// ---------------------------------------------------------------------
// Parallel drivers: instantiations of the stream core's block loops
// ---------------------------------------------------------------------

/// The geometry of one SIMD consumption of `n` elements of `T`: the
/// core's one policy solve, rounded up by [`bds_cost::align_to_lane`]
/// to a multiple of `T`'s widest lane count, and recorded under
/// `stage`.
fn lane_aligned<T>(stage: Stage, n: usize) -> Geometry {
    let g = stream::geometry(n, None, SIMPLE);
    let aligned = bds_cost::align_to_lane(
        bds_cost::Geometry {
            block_size: g.bs,
            num_blocks: g.nb,
        },
        n,
        bds_cost::lane_count::<T>(),
    );
    let g = Geometry::new(n, aligned.block_size);
    if n > 0 {
        stream::record(stage, g);
    }
    g
}

/// Walk `lo..hi` a [`CHUNK`] at a time, ticking the cancellation
/// ticker once per chunk, as the core's chunk loop does.
#[inline]
fn for_chunks(lo: usize, hi: usize, mut f: impl FnMut(usize, usize)) {
    let mut ticker = PollTicker::new();
    let mut c = lo;
    while c < hi {
        let end = (c + CHUNK).min(hi);
        f(c, end);
        ticker.tick_n(end - c);
        c = end;
    }
}

/// Line and word counts of one block of text, given the byte before it
/// (`None` at input start): a word spanning the seam between two
/// blocks is counted by the block that holds its first byte.
fn wc_block(level: SimdLevel, text: &[u8], lo: usize, hi: usize) -> (u64, u64) {
    let mut prev = lo.checked_sub(1).map(|i| text[i]);
    let (mut lines, mut words) = (0, 0);
    for_chunks(lo, hi, |c, e| {
        let chunk = &text[c..e];
        lines += count_eq_chunk(level, chunk, b'\n');
        words += word_starts_chunk(level, chunk, prev);
        prev = chunk.last().copied();
    });
    (lines, words)
}

/// Line and word counts of `text` — the `wc` hot loop, vectorized and
/// block-parallel. Returns `(lines, words)`; lines are `\n` counts, a
/// word is a maximal run of non-space bytes (space = ` `, `\n`, `\t`),
/// both exactly as `bds_workloads::wc` defines them. Blocks are counted
/// independently and the partials summed in block order.
pub fn par_wc_count(text: &[u8]) -> (u64, u64) {
    if text.is_empty() {
        return (0, 0);
    }
    let level = active_level();
    counters::count_reads(text.len());
    let _span = profile::span(Stage::Reduce);
    let g = lane_aligned::<u8>(Stage::Reduce, text.len());
    stream::blockwise(g, |j| {
        let (lo, hi) = block_bounds(g.len, g.bs, j);
        wc_block(level, text, lo, hi)
    })
    .into_iter()
    .fold((0, 0), |(l, w), (bl, bw)| (l + bl, w + bw))
}

/// Indices of every byte of `hay` equal to `needle`, in one exact
/// allocation: a vectorized count pass sizes each block's share, an
/// exclusive scan of the counts places it, and a fill pass writes block
/// `j`'s positions at the offset its count pass scanned, re-walking
/// only the chunks that hold a match.
pub fn par_positions_eq(hay: &[u8], needle: u8) -> Vec<usize> {
    let level = active_level();
    counters::count_reads(hay.len());
    let _span = profile::span(Stage::FilterEager);
    let g = lane_aligned::<u8>(Stage::FilterEager, hay.len());
    let counts = stream::blockwise(g, |j| {
        let (lo, hi) = block_bounds(g.len, g.bs, j);
        let mut n = 0;
        for_chunks(lo, hi, |c, e| {
            n += count_eq_chunk(level, &hay[c..e], needle) as usize;
        });
        n
    });
    let (offsets, total) = scan_sequential(&counts, 0, &|a, b| a + b);
    let range = |j: usize| (offsets[j], offsets[j] + counts[j]);
    stream::materialize_ranges(total, g.nb, range, |j, w| {
        let (lo, hi) = block_bounds(g.len, g.bs, j);
        for_chunks(lo, hi, |c, e| {
            let matches = count_eq_chunk(level, &hay[c..e], needle) as usize;
            if matches == 0 {
                return;
            }
            assert!(
                w.count() + matches <= counts[j],
                "par_positions_eq: fill pass overran its count"
            );
            for (i, &b) in hay[c..e].iter().enumerate() {
                if b == needle {
                    w.push(c + i);
                }
            }
        });
    })
}

/// Block-parallel SIMD map: `out[i] = f(xs[i])`. The closure is
/// monomorphized inside each feature-gated chunk kernel, so simple
/// arithmetic closures autovectorize at the dispatched width. The
/// output is one budget-charged buffer written by the core's
/// materializing block loop.
pub fn par_map<T, U, F>(xs: &[T], f: F) -> Vec<U>
where
    T: Copy + Sync,
    U: Send,
    F: Fn(T) -> U + Send + Sync,
{
    let level = active_level();
    counters::count_reads(xs.len());
    let _span = profile::span(Stage::Force);
    let g = lane_aligned::<U>(Stage::Force, xs.len());
    stream::materialize(g, |j, w| {
        let (lo, hi) = block_bounds(g.len, g.bs, j);
        for_chunks(lo, hi, |c, e| {
            let chunk = &xs[c..e];
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch invariant — level ≤ detected.
            match level {
                SimdLevel::Scalar => map_chunk_body(chunk, w, &f),
                SimdLevel::Avx2 => unsafe { map_chunk_avx2(chunk, w, &f) },
                SimdLevel::Avx512 => unsafe { map_chunk_avx512(chunk, w, &f) },
            }
            #[cfg(not(target_arch = "x86_64"))]
            map_chunk_body(chunk, w, &f);
        });
    })
}

/// Block-parallel SIMD tabulate: `out[i] = f(i)` for `i in 0..n`. Same
/// contract as [`par_map`]; this is the index-space variant the
/// mandelbrot and image workloads build on.
pub fn par_tabulate<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Send + Sync,
{
    let level = active_level();
    let _span = profile::span(Stage::Force);
    let g = lane_aligned::<U>(Stage::Force, n);
    stream::materialize(g, |j, w| {
        let (lo, hi) = block_bounds(g.len, g.bs, j);
        for_chunks(lo, hi, |c, e| {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch invariant — level ≤ detected.
            match level {
                SimdLevel::Scalar => tab_chunk_body(c, e, w, &f),
                SimdLevel::Avx2 => unsafe { tab_chunk_avx2(c, e, w, &f) },
                SimdLevel::Avx512 => unsafe { tab_chunk_avx512(c, e, w, &f) },
            }
            #[cfg(not(target_arch = "x86_64"))]
            tab_chunk_body(c, e, w, &f);
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_sync::test_lock;

    #[test]
    fn level_ordering_and_names() {
        assert!(SimdLevel::Scalar < SimdLevel::Avx2);
        assert!(SimdLevel::Avx2 < SimdLevel::Avx512);
        assert_eq!(SimdLevel::Avx512.name(), "avx512");
    }

    #[test]
    fn supported_levels_starts_at_scalar() {
        let levels = supported_levels();
        assert_eq!(levels[0], SimdLevel::Scalar);
        assert!(levels.iter().all(|&l| l <= detected_level()));
        assert_eq!(*levels.last().unwrap(), detected_level());
    }

    #[test]
    fn force_guard_caps_and_restores() {
        let _l = test_lock();
        let before = active_level();
        {
            let g = force_level(SimdLevel::Scalar);
            assert_eq!(g.applied(), SimdLevel::Scalar);
            assert_eq!(active_level(), SimdLevel::Scalar);
            // Nested guard: request the moon, get at most the CPU.
            {
                let g2 = force_level(SimdLevel::Avx512);
                assert!(g2.applied() <= detected_level());
                assert_eq!(active_level(), g2.applied());
            }
            assert_eq!(active_level(), SimdLevel::Scalar);
        }
        assert_eq!(active_level(), before);
    }

    #[test]
    fn word_starts_handles_chunk_seams() {
        let _l = test_lock();
        // A word spanning the CHUNK boundary must count once; a space
        // just before the boundary must start a new word after it.
        let mut text = vec![b'x'; CHUNK - 1];
        text.push(b'y'); // continues across the seam
        text.extend_from_slice(b"zz more");
        let (_, words) = par_wc_count(&text);
        assert_eq!(words, 2);
        let mut text = vec![b'x'; CHUNK - 1];
        text.push(b' ');
        text.extend_from_slice(b"after");
        let (_, words) = par_wc_count(&text);
        assert_eq!(words, 2);
    }

    #[test]
    fn par_map_and_tabulate_match_scalar() {
        let _l = test_lock();
        let pool = bds_pool::Pool::new(3);
        pool.install(|| {
            let xs: Vec<u32> = (0..150_000u32).collect();
            for level in supported_levels() {
                let _g = force_level(level);
                let out = par_map(&xs, |x| x.wrapping_mul(3).wrapping_add(7));
                assert_eq!(out.len(), xs.len());
                assert!(out
                    .iter()
                    .zip(&xs)
                    .all(|(&o, &x)| o == x.wrapping_mul(3).wrapping_add(7)));
                let tab = par_tabulate(100_001, |i| (i as u64) << 1);
                assert_eq!(tab.len(), 100_001);
                assert!(tab.iter().enumerate().all(|(i, &v)| v == (i as u64) << 1));
            }
        });
    }

    #[test]
    fn par_wc_and_positions_match_naive() {
        let _l = test_lock();
        let pool = bds_pool::Pool::new(3);
        pool.install(|| {
            for n in [0usize, 1, CHUNK - 1, CHUNK + 1, 20_000, 400_000] {
                let text: Vec<u8> = (0..n as u32)
                    .map(|i| match i % 13 {
                        0 => b'\n',
                        1 | 4 => b' ',
                        2 => b'\t',
                        k => b'a' + (k as u8),
                    })
                    .collect();
                let naive_nl = text.iter().filter(|&&b| b == b'\n').count() as u64;
                let naive_words = text
                    .split(|&b| b == b' ' || b == b'\n' || b == b'\t')
                    .filter(|w| !w.is_empty())
                    .count() as u64;
                let naive_pos: Vec<usize> =
                    text.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i).collect();
                for level in supported_levels() {
                    let _g = force_level(level);
                    assert_eq!(par_wc_count(&text), (naive_nl, naive_words), "level {level:?} n {n}");
                    assert_eq!(par_positions_eq(&text, b'\n'), naive_pos, "level {level:?} n {n}");
                }
            }
        });
    }

    #[test]
    fn geometry_is_lane_aligned_for_parallel_runs() {
        let _l = test_lock();
        let g = lane_aligned::<u64>(Stage::Force, 100_003);
        if g.nb > 1 {
            assert_eq!(g.bs % bds_cost::lane_count::<u64>(), 0);
        }
        assert!(g.bs * g.nb >= 100_003);
        assert!(g.bs * (g.nb - 1) < 100_003);
    }

    /// The output is charged once: a budget of 1.5× its bytes admits
    /// the SIMD drivers exactly as it admits `to_vec`.
    #[test]
    fn outputs_are_charged_once() {
        use crate::governed::{run_governed, Budget};
        use crate::traits::Seq;
        let n = 100_000;
        let budget = || Budget::unlimited().with_mem_bytes(n * std::mem::size_of::<u64>() * 3 / 2);
        let want: Vec<u64> = (0..n as u64).map(|i| i * 3).collect();
        let pool = bds_pool::Pool::new(2);
        let xs: Vec<u32> = (0..n as u32).collect();
        pool.install(|| {
            let to_vec = run_governed(budget(), || crate::sources::tabulate(n, |i| i as u64 * 3).to_vec());
            let tab = run_governed(budget(), || par_tabulate(n, |i| i as u64 * 3));
            let map = run_governed(budget(), || par_map(&xs, |x| u64::from(x) * 3));
            for (what, got) in [("to_vec", to_vec), ("par_tabulate", tab), ("par_map", map)] {
                let got = got.unwrap_or_else(|e| panic!("{what} under 1.5x its output: {e:?}"));
                assert!(got == want, "{what} returned a wrong output");
            }
        });
    }

    /// A block that panics once is re-executed into its own region: the
    /// recovered run returns the full, unfaulted output.
    #[test]
    fn a_transient_panic_retries_its_block() {
        use std::sync::atomic::AtomicBool;
        let n = 100_000;
        let fired = AtomicBool::new(false);
        let pool = bds_pool::Pool::new(2);
        let got = pool.install(|| {
            bds_pool::run_recovered(bds_pool::RetryPolicy::default(), || {
                par_tabulate(n, |i| {
                    if i == n / 2 && !fired.swap(true, Ordering::Relaxed) {
                        panic!("transient fault at {i}");
                    }
                    i as u64 * 3
                })
            })
        });
        assert!(fired.load(Ordering::Relaxed));
        let got = got.expect("the transient fault was recovered");
        assert!(got.iter().enumerate().all(|(i, &x)| x == i as u64 * 3) && got.len() == n);
    }
}
