//! SIMD fast paths for the hot per-block kernels.
//!
//! Block-delayed execution turns pipelines into straight-line sequential
//! loops over blocks — exactly the shape autovectorization wants. This
//! module supplies vector-width-dispatched kernels for the primitive
//! inner loops (`sum`/`min`/`max` over machine ints and floats, byte
//! scanning for the grep/wc workloads, and elementwise map/tabulate)
//! plus parallel drivers that run them block-parallel on the ambient
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
//! ## Semantics the fast paths must preserve
//!
//! * **Cancellation** — every driver walks its input in chunks of at
//!   most [`CHUNK`] (= [`bds_pool::PollTicker::INTERVAL`]) elements and
//!   calls [`bds_pool::PollTicker::tick_n`] between chunks, so the
//!   cooperative-cancellation latency bound (poll at least once per
//!   1024 elements) is identical to the drive loops of
//!   [`crate::stream`], which pull block streams the same way.
//! * **Fault injection** — the `try_` drivers poll
//!   [`crate::faults::poll`] once per chunk, *on the scalar and the
//!   SIMD path alike*: both legs of a differential check traverse the
//!   same chunk structure, so an injected fault lands at the same chunk
//!   ordinal regardless of level and the legs stay comparable
//!   bit-for-bit (ints) or ULP-for-ULP (floats).
//! * **Memory budgets** — every materializing driver allocates through
//!   the same `PartialVec` protocol (`crate::util`) as the eager
//!   consumers, so governed runs charge the budget identically.
//!
//! ## Determinism across levels
//!
//! Integer kernels use wrapping adds and min/max — fully associative
//! and commutative — so every level produces bit-identical results.
//! Float summation is reassociated (that is the entire speedup): the
//! vector tiers keep eight partial accumulators per chunk. Results are
//! deterministic *per level and geometry* but differ across levels by
//! accumulated rounding; differential checks bound the drift in ULPs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::util::{build_vec, BlockWriter};
use bds_pool::PollTicker;

/// Elements per poll chunk: the cancellation interval, so one `tick_n`
/// per chunk preserves the poll-latency bound exactly.
pub const CHUNK: usize = PollTicker::INTERVAL as usize;

/// How wide the dispatched kernels may go. Ordered: wider levels
/// compare greater, so capping a request at CPU support is `min`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Baseline codegen, no feature-gated copies. Float reductions at
    /// this level are plain left folds (chunk-at-a-time), making it the
    /// oracle leg for differential checks.
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

    /// Vector width in bytes this level dispatches (16 reported for
    /// scalar: baseline x86-64 codegen still has SSE2).
    pub fn vector_bytes(self) -> usize {
        match self {
            SimdLevel::Scalar => bds_cost::lanes::SSE2_VECTOR_BYTES,
            SimdLevel::Avx2 => bds_cost::lanes::AVX2_VECTOR_BYTES,
            SimdLevel::Avx512 => bds_cost::lanes::AVX512_VECTOR_BYTES,
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

/// Error returned by `try_` drivers when the [`crate::faults`] injector
/// fires on one of their per-chunk polls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interrupted {
    /// Index of the first element of the chunk whose poll fired.
    pub at: usize,
}

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at chunk starting at element {}", self.at)
    }
}

impl std::error::Error for Interrupted {}

// ---------------------------------------------------------------------
// Element traits and per-type kernel instantiations
// ---------------------------------------------------------------------

mod sealed {
    pub trait Sealed {}
}

/// A primitive element the SIMD reduction kernels cover. Sealed: the
/// per-type kernels are compiled here, under this module's dispatch
/// invariant.
pub trait SimdElem: Copy + Send + Sync + PartialEq + std::fmt::Debug + sealed::Sealed + 'static {
    /// Additive identity of [`SimdElem::add`].
    const ZERO: Self;
    /// The combine the sum kernels implement: wrapping add for ints,
    /// IEEE `+` for floats.
    fn add(self, rhs: Self) -> Self;
    #[doc(hidden)]
    fn sum_chunk(level: SimdLevel, chunk: &[Self]) -> Self;
}

/// A [`SimdElem`] with a total order, enabling the min/max kernels
/// (integers only: float min/max NaN semantics are not worth the
/// differential-check ambiguity).
pub trait SimdOrd: SimdElem + Ord {
    #[doc(hidden)]
    fn min_chunk(level: SimdLevel, chunk: &[Self]) -> Self;
    #[doc(hidden)]
    fn max_chunk(level: SimdLevel, chunk: &[Self]) -> Self;
}

/// Dispatch a per-chunk kernel: `$body` is the inline-always baseline
/// copy, `$avx2`/`$avx512` its feature-gated clones.
///
/// SAFETY (of the generated `unsafe` calls): [`active_level`] and
/// [`force_level`] cap every level at [`detected_level`], so the AVX2
/// arm only runs after `is_x86_feature_detected!("avx2")` returned
/// true, and likewise for AVX-512.
macro_rules! dispatch {
    ($level:expr, $chunk:expr, $body:path, $avx2:path, $avx512:path) => {{
        #[cfg(target_arch = "x86_64")]
        match $level {
            SimdLevel::Scalar => $body($chunk),
            SimdLevel::Avx2 => unsafe { $avx2($chunk) },
            SimdLevel::Avx512 => unsafe { $avx512($chunk) },
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = $level;
            $body($chunk)
        }
    }};
}

macro_rules! feature_clones {
    ($t:ty, $body:path, $avx2:ident, $avx512:ident) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        pub unsafe fn $avx2(chunk: &[$t]) -> $t {
            $body(chunk)
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
        pub unsafe fn $avx512(chunk: &[$t]) -> $t {
            $body(chunk)
        }
    };
}

macro_rules! int_simd {
    ($t:ty, $m:ident) => {
        mod $m {
            #[inline(always)]
            pub fn sum_body(chunk: &[$t]) -> $t {
                let mut acc: $t = 0;
                for &x in chunk {
                    acc = acc.wrapping_add(x);
                }
                acc
            }
            #[inline(always)]
            pub fn min_body(chunk: &[$t]) -> $t {
                let mut m = chunk[0];
                for &x in &chunk[1..] {
                    m = if x < m { x } else { m };
                }
                m
            }
            #[inline(always)]
            pub fn max_body(chunk: &[$t]) -> $t {
                let mut m = chunk[0];
                for &x in &chunk[1..] {
                    m = if x > m { x } else { m };
                }
                m
            }
            feature_clones!($t, sum_body, sum_avx2, sum_avx512);
            feature_clones!($t, min_body, min_avx2, min_avx512);
            feature_clones!($t, max_body, max_avx2, max_avx512);
        }

        impl sealed::Sealed for $t {}

        impl SimdElem for $t {
            const ZERO: Self = 0;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                self.wrapping_add(rhs)
            }
            #[inline]
            fn sum_chunk(level: SimdLevel, chunk: &[Self]) -> Self {
                dispatch!(level, chunk, $m::sum_body, $m::sum_avx2, $m::sum_avx512)
            }
        }

        impl SimdOrd for $t {
            #[inline]
            fn min_chunk(level: SimdLevel, chunk: &[Self]) -> Self {
                dispatch!(level, chunk, $m::min_body, $m::min_avx2, $m::min_avx512)
            }
            #[inline]
            fn max_chunk(level: SimdLevel, chunk: &[Self]) -> Self {
                dispatch!(level, chunk, $m::max_body, $m::max_avx2, $m::max_avx512)
            }
        }
    };
}

int_simd!(u8, u8_kernels);
int_simd!(u32, u32_kernels);
int_simd!(u64, u64_kernels);
int_simd!(i32, i32_kernels);
int_simd!(i64, i64_kernels);

macro_rules! float_simd {
    ($t:ty, $m:ident) => {
        mod $m {
            /// Plain left fold — the scalar/oracle semantics.
            #[inline(always)]
            pub fn sum_scalar(chunk: &[$t]) -> $t {
                let mut acc: $t = 0.0;
                for &x in chunk {
                    acc += x;
                }
                acc
            }
            /// Eight-way reassociated sum. LLVM will not reassociate
            /// IEEE adds on its own, so the parallel accumulators are
            /// spelled out; under AVX2/AVX-512 each becomes (part of) a
            /// vector register and the loop vectorizes.
            #[inline(always)]
            pub fn sum_wide(chunk: &[$t]) -> $t {
                const WAY: usize = 8;
                let mut acc = [0.0 as $t; WAY];
                let mut it = chunk.chunks_exact(WAY);
                for c in it.by_ref() {
                    for k in 0..WAY {
                        acc[k] += c[k];
                    }
                }
                let mut total: $t = 0.0;
                for k in 0..WAY {
                    total += acc[k];
                }
                for &x in it.remainder() {
                    total += x;
                }
                total
            }
            feature_clones!($t, sum_wide, sum_avx2, sum_avx512);
        }

        impl sealed::Sealed for $t {}

        impl SimdElem for $t {
            const ZERO: Self = 0.0;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                self + rhs
            }
            #[inline]
            fn sum_chunk(level: SimdLevel, chunk: &[Self]) -> Self {
                dispatch!(level, chunk, $m::sum_scalar, $m::sum_avx2, $m::sum_avx512)
            }
        }
    };
}

float_simd!(f32, f32_kernels);
float_simd!(f64, f64_kernels);

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
// Sequential drivers: chunked, cancellation-polled
// ---------------------------------------------------------------------

#[inline]
fn sum_with_level<T: SimdElem>(level: SimdLevel, xs: &[T]) -> T {
    let mut ticker = PollTicker::new();
    let mut acc = T::ZERO;
    for chunk in xs.chunks(CHUNK) {
        ticker.tick_n(chunk.len());
        acc = acc.add(T::sum_chunk(level, chunk));
    }
    acc
}

/// Sum `xs` at the active dispatch level, polling cancellation every
/// [`CHUNK`] elements. Integer sums wrap; float sums are reassociated
/// at the vector levels (see the module docs).
pub fn sum<T: SimdElem>(xs: &[T]) -> T {
    crate::counters::count_reads(xs.len());
    sum_with_level(active_level(), xs)
}

/// [`sum`] with a per-chunk fault-injection poll: both the scalar and
/// SIMD legs traverse identical chunk structure, so an armed
/// [`crate::faults`] countdown fires at the same chunk regardless of
/// level.
pub fn try_sum<T: SimdElem>(xs: &[T]) -> Result<T, Interrupted> {
    let level = active_level();
    crate::counters::count_reads(xs.len());
    let mut ticker = PollTicker::new();
    let mut acc = T::ZERO;
    let mut at = 0;
    for chunk in xs.chunks(CHUNK) {
        ticker.tick_n(chunk.len());
        if crate::faults::poll() {
            return Err(Interrupted { at });
        }
        acc = acc.add(T::sum_chunk(level, chunk));
        at += chunk.len();
    }
    Ok(acc)
}

macro_rules! minmax_driver {
    ($name:ident, $chunk_fn:ident, $fold:ident, $doc:literal) => {
        #[doc = $doc]
        pub fn $name<T: SimdOrd>(xs: &[T]) -> Option<T> {
            let level = active_level();
            crate::counters::count_reads(xs.len());
            let mut ticker = PollTicker::new();
            let mut best: Option<T> = None;
            for chunk in xs.chunks(CHUNK) {
                ticker.tick_n(chunk.len());
                let m = T::$chunk_fn(level, chunk);
                best = Some(match best {
                    None => m,
                    Some(b) => b.$fold(m),
                });
            }
            best
        }
    };
}

minmax_driver!(
    min,
    min_chunk,
    min,
    "Minimum of `xs` at the active dispatch level (`None` when empty), polling cancellation every [`CHUNK`] elements."
);
minmax_driver!(
    max,
    max_chunk,
    max,
    "Maximum of `xs` at the active dispatch level (`None` when empty), polling cancellation every [`CHUNK`] elements."
);

/// Count bytes equal to `needle` — the grep/wc newline counter.
pub fn count_eq(hay: &[u8], needle: u8) -> u64 {
    let level = active_level();
    crate::counters::count_reads(hay.len());
    let mut ticker = PollTicker::new();
    let mut n = 0;
    for chunk in hay.chunks(CHUNK) {
        ticker.tick_n(chunk.len());
        n += count_eq_chunk(level, chunk, needle);
    }
    n
}

/// [`count_eq`] with a per-chunk fault-injection poll.
pub fn try_count_eq(hay: &[u8], needle: u8) -> Result<u64, Interrupted> {
    let level = active_level();
    crate::counters::count_reads(hay.len());
    let mut ticker = PollTicker::new();
    let mut n = 0;
    let mut at = 0;
    for chunk in hay.chunks(CHUNK) {
        ticker.tick_n(chunk.len());
        if crate::faults::poll() {
            return Err(Interrupted { at });
        }
        n += count_eq_chunk(level, chunk, needle);
        at += chunk.len();
    }
    Ok(n)
}

/// Indices of every byte equal to `needle`, memchr-style: a vectorized
/// count pass sizes the exact allocation (charged against any ambient
/// memory budget), then only chunks known to contain matches are
/// re-walked scalar to extract positions.
pub fn positions_eq(hay: &[u8], needle: u8) -> Vec<usize> {
    let level = active_level();
    let total = count_eq(hay, needle) as usize;
    crate::util::charge_elems::<usize>(total);
    crate::counters::count_allocs(total);
    let mut out = Vec::with_capacity(total);
    let mut ticker = PollTicker::new();
    for (c, chunk) in hay.chunks(CHUNK).enumerate() {
        ticker.tick_n(chunk.len());
        if count_eq_chunk(level, chunk, needle) == 0 {
            continue;
        }
        let base = c * CHUNK;
        for (i, &b) in chunk.iter().enumerate() {
            if b == needle {
                out.push(base + i);
            }
        }
    }
    debug_assert_eq!(out.len(), total);
    out
}

/// Line and word counts of `text` in one chunked pass — the `wc` hot
/// loop, vectorized. Returns `(lines, words)`; lines are `\n` counts,
/// a word is a maximal run of non-space bytes (space = ` `, `\n`,
/// `\t`), both exactly as `bds_workloads::wc` defines them.
pub fn wc_count(text: &[u8]) -> (u64, u64) {
    wc_count_with_prev(text, None)
}

/// [`wc_count`] of a text *slice*, given the byte immediately before it
/// (`None` at input start). This is the block kernel parallel callers
/// compose: a word spanning the seam between two blocks is counted by
/// whichever block contains its first byte.
pub fn wc_count_with_prev(text: &[u8], mut prev: Option<u8>) -> (u64, u64) {
    let level = active_level();
    crate::counters::count_reads(text.len());
    let mut ticker = PollTicker::new();
    let (mut lines, mut words) = (0, 0);
    for chunk in text.chunks(CHUNK) {
        ticker.tick_n(chunk.len());
        lines += count_eq_chunk(level, chunk, b'\n');
        words += word_starts_chunk(level, chunk, prev);
        prev = chunk.last().copied();
    }
    (lines, words)
}

#[inline(always)]
fn count_where_body<F: Fn(u8) -> bool>(chunk: &[u8], f: &F) -> u64 {
    let mut n: u64 = 0;
    for &b in chunk {
        n += u64::from(f(b));
    }
    n
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn count_where_avx2<F: Fn(u8) -> bool>(chunk: &[u8], f: &F) -> u64 {
    count_where_body(chunk, f)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
unsafe fn count_where_avx512<F: Fn(u8) -> bool>(chunk: &[u8], f: &F) -> u64 {
    count_where_body(chunk, f)
}

/// Count bytes satisfying `f` — the validation scan of the fallible
/// workload paths. The predicate is monomorphized into each
/// feature-gated chunk kernel, so branch-free byte predicates (range
/// and equality tests) autovectorize to compare+mask ops.
pub fn count_where<F: Fn(u8) -> bool + Send + Sync>(hay: &[u8], f: F) -> u64 {
    let level = active_level();
    crate::counters::count_reads(hay.len());
    let mut ticker = PollTicker::new();
    let mut n = 0;
    for chunk in hay.chunks(CHUNK) {
        ticker.tick_n(chunk.len());
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch invariant — level ≤ detected.
        match level {
            SimdLevel::Scalar => n += count_where_body(chunk, &f),
            SimdLevel::Avx2 => n += unsafe { count_where_avx2(chunk, &f) },
            SimdLevel::Avx512 => n += unsafe { count_where_avx512(chunk, &f) },
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            n += count_where_body(chunk, &f);
        }
    }
    n
}

/// [`wc_count`] with a per-chunk fault-injection poll.
pub fn try_wc_count(text: &[u8]) -> Result<(u64, u64), Interrupted> {
    let level = active_level();
    crate::counters::count_reads(text.len());
    let mut ticker = PollTicker::new();
    let (mut lines, mut words) = (0, 0);
    let mut prev: Option<u8> = None;
    let mut at = 0;
    for chunk in text.chunks(CHUNK) {
        ticker.tick_n(chunk.len());
        if crate::faults::poll() {
            return Err(Interrupted { at });
        }
        lines += count_eq_chunk(level, chunk, b'\n');
        words += word_starts_chunk(level, chunk, prev);
        prev = chunk.last().copied();
        at += chunk.len();
    }
    Ok((lines, words))
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
// Parallel drivers
// ---------------------------------------------------------------------

/// Lane-aligned block geometry for `n` elements of `T`: the policy
/// (adaptive solver, fixed heuristic, or an active
/// [`crate::policy::force_block_size`] override) picks a block size,
/// then [`bds_cost::align_to_lane`] rounds it up to a multiple of `T`'s
/// widest lane count so no vector register straddles a block seam.
fn lane_geometry<T>(n: usize, per_elem: bds_cost::ElemCost) -> bds_cost::Geometry {
    let bs = crate::policy::block_size_costed(n, per_elem);
    let g = bds_cost::Geometry {
        block_size: bs,
        num_blocks: crate::policy::num_blocks(n, bs),
    };
    bds_cost::align_to_lane(g, n, bds_cost::lane_count::<T>())
}

/// Block-parallel [`sum`]: lane-aligned blocks fan out over the ambient
/// pool, each block runs the chunked SIMD sum (polling cancellation),
/// and the per-block partials are folded in block order — deterministic
/// for a given level and geometry.
pub fn par_sum<T: SimdElem>(xs: &[T]) -> T {
    if xs.is_empty() {
        return T::ZERO;
    }
    let level = active_level();
    crate::counters::count_reads(xs.len());
    let g = lane_geometry::<T>(xs.len(), bds_cost::SIMPLE);
    if g.num_blocks <= 1 {
        return sum_with_level(level, xs);
    }
    let sums = build_vec(g.num_blocks, |pv| {
        bds_pool::apply(g.num_blocks, |j| {
            let lo = j * g.block_size;
            let hi = (lo + g.block_size).min(xs.len());
            pv.writer(j).push(sum_with_level(level, &xs[lo..hi]));
        });
    });
    let mut acc = T::ZERO;
    for s in sums {
        acc = acc.add(s);
    }
    acc
}

macro_rules! par_minmax_driver {
    ($name:ident, $seq:ident, $chunk_fn:ident, $fold:ident, $doc:literal) => {
        #[doc = $doc]
        pub fn $name<T: SimdOrd>(xs: &[T]) -> Option<T> {
            if xs.is_empty() {
                return None;
            }
            let g = lane_geometry::<T>(xs.len(), bds_cost::SIMPLE);
            if g.num_blocks <= 1 {
                return $seq(xs);
            }
            let level = active_level();
            crate::counters::count_reads(xs.len());
            let bests = build_vec(g.num_blocks, |pv| {
                bds_pool::apply(g.num_blocks, |j| {
                    let lo = j * g.block_size;
                    let hi = (lo + g.block_size).min(xs.len());
                    let block = &xs[lo..hi];
                    let mut ticker = PollTicker::new();
                    let mut best: Option<T> = None;
                    for chunk in block.chunks(CHUNK) {
                        ticker.tick_n(chunk.len());
                        let m = T::$chunk_fn(level, chunk);
                        best = Some(match best {
                            None => m,
                            Some(b) => b.$fold(m),
                        });
                    }
                    pv.writer(j)
                        .push(best.expect("lane-aligned geometry produced an empty block"));
                });
            });
            bests.into_iter().reduce(|a, b| a.$fold(b))
        }
    };
}

par_minmax_driver!(
    par_min,
    min,
    min_chunk,
    min,
    "Block-parallel [`min`] over lane-aligned blocks on the ambient pool."
);
par_minmax_driver!(
    par_max,
    max,
    max_chunk,
    max,
    "Block-parallel [`max`] over lane-aligned blocks on the ambient pool."
);

/// Block-parallel [`count_eq`] — the parallel newline counter.
pub fn par_count_eq(hay: &[u8], needle: u8) -> u64 {
    if hay.is_empty() {
        return 0;
    }
    let g = lane_geometry::<u8>(hay.len(), bds_cost::SIMPLE);
    if g.num_blocks <= 1 {
        return count_eq(hay, needle);
    }
    let level = active_level();
    crate::counters::count_reads(hay.len());
    let counts = build_vec(g.num_blocks, |pv| {
        bds_pool::apply(g.num_blocks, |j| {
            let lo = j * g.block_size;
            let hi = (lo + g.block_size).min(hay.len());
            let block = &hay[lo..hi];
            let mut ticker = PollTicker::new();
            let mut n = 0;
            for chunk in block.chunks(CHUNK) {
                ticker.tick_n(chunk.len());
                n += count_eq_chunk(level, chunk, needle);
            }
            pv.writer(j).push(n);
        });
    });
    counts.into_iter().sum()
}

/// Block-parallel [`wc_count`]: lane-aligned blocks fan out over the
/// ambient pool, each counting its slice with [`wc_count_with_prev`]
/// (seam byte = the last byte of the previous block), partials summed
/// in block order.
pub fn par_wc_count(text: &[u8]) -> (u64, u64) {
    if text.is_empty() {
        return (0, 0);
    }
    let g = lane_geometry::<u8>(text.len(), bds_cost::SIMPLE);
    if g.num_blocks <= 1 {
        return wc_count(text);
    }
    let partials = build_vec(g.num_blocks, |pv| {
        bds_pool::apply(g.num_blocks, |j| {
            let lo = j * g.block_size;
            let hi = (lo + g.block_size).min(text.len());
            let prev = if lo == 0 { None } else { Some(text[lo - 1]) };
            pv.writer(j).push(wc_count_with_prev(&text[lo..hi], prev));
        });
    });
    partials
        .into_iter()
        .fold((0, 0), |(l, w), (bl, bw)| (l + bl, w + bw))
}

/// Block-parallel [`positions_eq`]: phase 1 counts matches per block
/// (vectorized), phase 2 exclusive-scans the counts into output
/// offsets, phase 3 extracts each block's positions into its exact
/// slot of one budget-charged allocation.
pub fn par_positions_eq(hay: &[u8], needle: u8) -> Vec<usize> {
    if hay.is_empty() {
        return Vec::new();
    }
    let level = active_level();
    let g = lane_geometry::<u8>(hay.len(), bds_cost::SIMPLE);
    let nb = g.num_blocks;
    let block = |j: usize| {
        let lo = j * g.block_size;
        (lo, (lo + g.block_size).min(hay.len()))
    };
    let counts = build_vec(nb, |pv| {
        bds_pool::apply(nb, |j| {
            let (lo, hi) = block(j);
            let mut ticker = PollTicker::new();
            let mut n = 0usize;
            for chunk in hay[lo..hi].chunks(CHUNK) {
                ticker.tick_n(chunk.len());
                n += count_eq_chunk(level, chunk, needle) as usize;
            }
            pv.writer(j).push(n);
        });
    });
    let (offsets, total) =
        crate::util::array_scan_exclusive(&counts, 0usize, &|a: &usize, b: &usize| a + b);
    crate::util::charge_elems::<usize>(total);
    crate::counters::count_allocs(total);
    build_vec(total, |pv| {
        bds_pool::apply(nb, |j| {
            let (lo, hi) = block(j);
            let mut w = pv.writer(offsets[j]);
            let mut ticker = PollTicker::new();
            let mut base = lo;
            for chunk in hay[lo..hi].chunks(CHUNK) {
                ticker.tick_n(chunk.len());
                if count_eq_chunk(level, chunk, needle) > 0 {
                    for (i, &b) in chunk.iter().enumerate() {
                        if b == needle {
                            w.push(base + i);
                        }
                    }
                }
                base += chunk.len();
            }
        });
    })
}

/// Block-parallel SIMD map: `out[i] = f(xs[i])`. The closure is
/// monomorphized inside each feature-gated chunk kernel, so simple
/// arithmetic closures autovectorize at the dispatched width. Allocates
/// through the `PartialVec` protocol of `crate::util` (budget-charged,
/// panic-safe) and polls cancellation every [`CHUNK`] elements.
pub fn par_map<T, U, F>(xs: &[T], f: F) -> Vec<U>
where
    T: Copy + Sync,
    U: Send,
    F: Fn(T) -> U + Send + Sync,
{
    let level = active_level();
    crate::counters::count_reads(xs.len());
    crate::util::charge_elems::<U>(xs.len());
    let g = lane_geometry::<U>(xs.len(), bds_cost::SIMPLE);
    build_vec(xs.len(), |pv| {
        bds_pool::apply(g.num_blocks, |j| {
            let lo = j * g.block_size;
            let hi = (lo + g.block_size).min(xs.len());
            let mut w = pv.writer(lo);
            let mut ticker = PollTicker::new();
            for chunk in xs[lo..hi].chunks(CHUNK) {
                ticker.tick_n(chunk.len());
                #[cfg(target_arch = "x86_64")]
                // SAFETY: dispatch invariant — level ≤ detected.
                match level {
                    SimdLevel::Scalar => map_chunk_body(chunk, &mut w, &f),
                    SimdLevel::Avx2 => unsafe { map_chunk_avx2(chunk, &mut w, &f) },
                    SimdLevel::Avx512 => unsafe { map_chunk_avx512(chunk, &mut w, &f) },
                }
                #[cfg(not(target_arch = "x86_64"))]
                map_chunk_body(chunk, &mut w, &f);
            }
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
    crate::util::charge_elems::<U>(n);
    let g = lane_geometry::<U>(n, bds_cost::SIMPLE);
    build_vec(n, |pv| {
        bds_pool::apply(g.num_blocks, |j| {
            let lo = j * g.block_size;
            let hi = (lo + g.block_size).min(n);
            let mut w = pv.writer(lo);
            let mut ticker = PollTicker::new();
            let mut c = lo;
            while c < hi {
                let end = (c + CHUNK).min(hi);
                ticker.tick_n(end - c);
                #[cfg(target_arch = "x86_64")]
                // SAFETY: dispatch invariant — level ≤ detected.
                match level {
                    SimdLevel::Scalar => tab_chunk_body(c, end, &mut w, &f),
                    SimdLevel::Avx2 => unsafe { tab_chunk_avx2(c, end, &mut w, &f) },
                    SimdLevel::Avx512 => unsafe { tab_chunk_avx512(c, end, &mut w, &f) },
                }
                #[cfg(not(target_arch = "x86_64"))]
                tab_chunk_body(c, end, &mut w, &f);
                c = end;
            }
        });
    })
}

/// Block-parallel exclusive prefix sum with SIMD block totals: phase 1
/// computes per-block sums with the vector kernels, phase 2 scans the
/// small totals array sequentially, phase 3 writes each block's
/// prefixes (scalar inner loop — a true serial dependency — but still
/// chunk-polled). Returns `(prefixes, total)` like [`crate::Seq::scan`]
/// with `+`.
pub fn par_scan_add<T: SimdElem>(xs: &[T]) -> (Vec<T>, T) {
    if xs.is_empty() {
        return (Vec::new(), T::ZERO);
    }
    let level = active_level();
    crate::counters::count_reads(xs.len());
    crate::util::charge_elems::<T>(xs.len());
    let g = lane_geometry::<T>(xs.len(), bds_cost::SIMPLE);
    let nb = g.num_blocks;
    let sums = build_vec(nb, |pv| {
        bds_pool::apply(nb, |j| {
            let lo = j * g.block_size;
            let hi = (lo + g.block_size).min(xs.len());
            pv.writer(j).push(sum_with_level(level, &xs[lo..hi]));
        });
    });
    let (offsets, total) =
        crate::util::array_scan_exclusive(&sums, T::ZERO, &|a: &T, b: &T| (*a).add(*b));
    let out = build_vec(xs.len(), |pv| {
        bds_pool::apply(nb, |j| {
            let lo = j * g.block_size;
            let hi = (lo + g.block_size).min(xs.len());
            let mut w = pv.writer(lo);
            let mut ticker = PollTicker::new();
            let mut acc = offsets[j];
            for chunk in xs[lo..hi].chunks(CHUNK) {
                ticker.tick_n(chunk.len());
                for &x in chunk {
                    w.push(acc);
                    acc = acc.add(x);
                }
            }
        });
    });
    (out, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_sync::test_lock;

    fn ulp_close_f64(a: f64, b: f64, rel: f64) -> bool {
        if a == b {
            return true;
        }
        (a - b).abs() <= rel * a.abs().max(b.abs())
    }

    #[test]
    fn level_ordering_and_names() {
        assert!(SimdLevel::Scalar < SimdLevel::Avx2);
        assert!(SimdLevel::Avx2 < SimdLevel::Avx512);
        assert_eq!(SimdLevel::Avx512.name(), "avx512");
        assert_eq!(SimdLevel::Scalar.vector_bytes(), 16);
        assert_eq!(SimdLevel::Avx512.vector_bytes(), 64);
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
    fn int_sums_bit_identical_across_levels() {
        let _l = test_lock();
        // Lengths straddling chunk and lane boundaries on purpose.
        for n in [0usize, 1, 7, 63, 64, 65, 1023, 1024, 1025, 10_000] {
            let xs: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
            let expect: u64 = xs.iter().fold(0u64, |a, &b| a.wrapping_add(b));
            for level in supported_levels() {
                let _g = force_level(level);
                assert_eq!(sum(&xs), expect, "level {level:?} n {n}");
            }
            let ys: Vec<i32> = (0..n as i64).map(|i| (i as i32).wrapping_mul(-77)).collect();
            let expect: i32 = ys.iter().fold(0i32, |a, &b| a.wrapping_add(b));
            for level in supported_levels() {
                let _g = force_level(level);
                assert_eq!(sum(&ys), expect, "level {level:?} n {n}");
            }
        }
    }

    #[test]
    fn min_max_match_std_across_levels() {
        let _l = test_lock();
        let xs: Vec<i64> = (0..5_000i64).map(|i| (i * 2654435761 % 10_007) - 5_000).collect();
        for level in supported_levels() {
            let _g = force_level(level);
            assert_eq!(min(&xs), xs.iter().copied().min());
            assert_eq!(max(&xs), xs.iter().copied().max());
        }
        assert_eq!(min::<u32>(&[]), None);
        assert_eq!(max::<u32>(&[]), None);
    }

    #[test]
    fn float_sums_ulp_bounded_across_levels() {
        let _l = test_lock();
        let xs: Vec<f64> = (0..30_000).map(|i| ((i % 1000) as f64) * 0.001 - 0.3).collect();
        let oracle = {
            let _g = force_level(SimdLevel::Scalar);
            sum(&xs)
        };
        for level in supported_levels() {
            let _g = force_level(level);
            let got = sum(&xs);
            assert!(
                ulp_close_f64(got, oracle, 1e-12),
                "level {level:?}: {got} vs {oracle}"
            );
        }
    }

    #[test]
    fn byte_kernels_match_naive() {
        let _l = test_lock();
        let text: Vec<u8> = (0..20_000u32)
            .map(|i| match i % 17 {
                0 => b'\n',
                1 | 5 => b' ',
                2 => b'\t',
                k => b'a' + (k as u8 % 26),
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
            assert_eq!(count_eq(&text, b'\n'), naive_nl, "level {level:?}");
            assert_eq!(wc_count(&text), (naive_nl, naive_words), "level {level:?}");
            assert_eq!(positions_eq(&text, b'\n'), naive_pos, "level {level:?}");
        }
    }

    #[test]
    fn word_starts_handles_chunk_seams() {
        let _l = test_lock();
        // A word spanning the CHUNK boundary must count once; a space
        // just before the boundary must start a new word after it.
        let mut text = vec![b'x'; CHUNK - 1];
        text.push(b'y'); // continues across the seam
        text.extend_from_slice(b"zz more");
        let (_, words) = wc_count(&text);
        assert_eq!(words, 2);
        let mut text = vec![b'x'; CHUNK - 1];
        text.push(b' ');
        text.extend_from_slice(b"after");
        let (_, words) = wc_count(&text);
        assert_eq!(words, 2);
    }

    #[test]
    fn parallel_drivers_match_sequential() {
        let _l = test_lock();
        let pool = bds_pool::Pool::new(3);
        pool.install(|| {
            let xs: Vec<u64> = (0..200_000u64).map(|i| i.wrapping_mul(0xDEAD_BEEF)).collect();
            let expect: u64 = xs.iter().fold(0u64, |a, &b| a.wrapping_add(b));
            for level in supported_levels() {
                let _g = force_level(level);
                assert_eq!(par_sum(&xs), expect, "level {level:?}");
            }
            let ys: Vec<i64> = (0..100_000i64).map(|i| (i * 31) % 9973 - 5000).collect();
            assert_eq!(par_min(&ys), ys.iter().copied().min());
            assert_eq!(par_max(&ys), ys.iter().copied().max());
            let text: Vec<u8> = (0..300_000u32).map(|i| if i % 7 == 0 { b'\n' } else { b'q' }).collect();
            assert_eq!(par_count_eq(&text, b'\n'), count_eq(&text, b'\n'));
        });
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
    fn par_scan_matches_sequential_scan() {
        let _l = test_lock();
        let pool = bds_pool::Pool::new(3);
        pool.install(|| {
            let xs: Vec<u64> = (0..120_000u64).map(|i| i % 97).collect();
            let mut expect = Vec::with_capacity(xs.len());
            let mut acc = 0u64;
            for &x in &xs {
                expect.push(acc);
                acc = acc.wrapping_add(x);
            }
            for level in supported_levels() {
                let _g = force_level(level);
                let (got, total) = par_scan_add(&xs);
                assert_eq!(total, acc, "level {level:?}");
                assert_eq!(got, expect, "level {level:?}");
            }
        });
    }

    #[test]
    fn par_wc_and_positions_match_sequential() {
        let _l = test_lock();
        let pool = bds_pool::Pool::new(3);
        pool.install(|| {
            let text: Vec<u8> = (0..400_000u32)
                .map(|i| match i % 13 {
                    0 => b'\n',
                    1 | 4 => b' ',
                    k => b'a' + (k as u8),
                })
                .collect();
            for level in supported_levels() {
                let _g = force_level(level);
                assert_eq!(par_wc_count(&text), wc_count(&text), "level {level:?}");
                assert_eq!(
                    par_positions_eq(&text, b'\n'),
                    positions_eq(&text, b'\n'),
                    "level {level:?}"
                );
            }
        });
    }

    #[test]
    fn count_where_matches_filter() {
        let _l = test_lock();
        let text: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let naive = text.iter().filter(|&&b| b < 0x20 && b != b'\n').count() as u64;
        for level in supported_levels() {
            let _g = force_level(level);
            assert_eq!(count_where(&text, |b| b < 0x20 && b != b'\n'), naive);
        }
    }

    #[test]
    fn geometry_is_lane_aligned_for_parallel_runs() {
        let _l = test_lock();
        let g = lane_geometry::<u64>(100_003, bds_cost::SIMPLE);
        if g.num_blocks > 1 {
            assert_eq!(g.block_size % bds_cost::lane_count::<u64>(), 0);
        }
        assert!(g.block_size * g.num_blocks >= 100_003);
        assert!(g.block_size * (g.num_blocks - 1) < 100_003);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_faults_land_on_the_same_chunk_at_every_level() {
        let _l = test_lock();
        let xs: Vec<u64> = (0..10_000u64).collect();
        // Baseline: how many polls does one clean run make?
        crate::faults::reset_polls();
        let _ = try_sum(&xs);
        let polls = crate::faults::polls();
        assert_eq!(polls, xs.len().div_ceil(CHUNK) as u64);
        for nth in 1..=polls {
            let mut outcomes = Vec::new();
            for level in supported_levels() {
                let _g = force_level(level);
                let armed = crate::faults::arm(nth);
                outcomes.push(try_sum(&xs));
                drop(armed);
            }
            // Same chunk ordinal fires at every level: identical Errs.
            for o in &outcomes {
                assert_eq!(o, &outcomes[0], "nth {nth}");
                assert_eq!(
                    o.as_ref().unwrap_err().at,
                    (nth as usize - 1) * CHUNK,
                    "nth {nth}"
                );
            }
        }
        // Disarmed again: clean runs succeed.
        let expect: u64 = xs.iter().sum();
        assert_eq!(try_sum(&xs), Ok(expect));
    }

    #[test]
    fn cancellation_aborts_mid_slice() {
        let _l = test_lock();
        let token = bds_pool::CancelToken::new();
        token.cancel();
        let xs: Vec<u64> = (0..(CHUNK as u64 * 4)).collect();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bds_pool::with_token(&token, || sum(&xs))
        }));
        let err = r.expect_err("cancelled sum must abort at a chunk boundary");
        assert!(bds_pool::cancel::is_cancellation(&*err));
    }
}
