//! The indexed-stream core: one block-granular drive loop for every
//! lowering.
//!
//! Historically each representation in this crate — the static generic
//! adaptors, [`DSeq`](crate::dynseq::DSeq), and the erased
//! [`BoxSeq`](crate::erased::BoxSeq)/[`BoxRad`](crate::erased::BoxRad)
//! — re-implemented its own consumer loops, so every cross-cutting
//! concern (cancellation poll ticks, cost-model geometry, memory
//! charging, profiling spans, SIMD chunk dispatch) had to be threaded
//! through each copy by hand. This module replaces those copies with
//! *one* engine, in the spirit of indexed stream fusion, where every
//! stream is driven from the consumer's index space:
//!
//! - [`Seq`] is the one element contract a representation offers the
//!   drive loops: a length, a per-element cost, the block size an eager
//!   phase fixed (if any), the element stream of block `j` at a block
//!   size the caller passes in ([`Seq::block`]), and the chunk fold
//!   that consumes it ([`Seq::fold_chunk`]). The static adaptors, the
//!   erased boxes and [`DSeq`](crate::dynseq::DSeq)'s BID view all
//!   implement it.
//! - The drive loops own the canonical consumption protocol, including
//!   the one geometry decision per consumption ([`geometry`]). There are
//!   eight: the paper's consumers [`reduce`], [`to_vec`] (which
//!   `force` wraps) and [`for_each`] (`applySeq`), and the ones the
//!   library's operations and workloads call, [`count`],
//!   [`filter_parts`], [`scan_seeds`], [`try_reduce`] and
//!   [`try_filter_parts`]. Every lowering — monomorphized, erased, or
//!   dynamic — is a thin instantiation.
//!
//! # The canonical per-block protocol
//!
//! Each drive loop performs, in order:
//!
//! 1. **Profile span** — opens the stage's [`mod@crate::profile`] span.
//! 2. **Geometry** — [`geometry`] solves the block size once, from the
//!    stream's fixed size if it has one, else from the policy given the
//!    length and the stream's cost plus the consumer's [`ElemCost`].
//!    The answer is passed down to every block as an argument. Solving
//!    once is load-bearing: under `Policy::Adaptive` two solves of the
//!    same `(n, cost)` may disagree (live worker count and overhead
//!    estimates move), so every block of one consumption must see the
//!    same answer.
//! 3. **Geometry record** — reports `(stage, len, bs, nb)` to the
//!    profiler.
//! 4. **Memory charging** — output buffers go through
//!    `PartialVec::new`/`build_vec` (`crate::util`), the single choke
//!    point that charges any ambient memory budget before allocating;
//!    survivor packing additionally charges per block via
//!    `crate::util::charge_elems`.
//! 5. **The block loop** — [`bds_pool::apply`] (or
//!    [`bds_pool::apply_cancellable`] for the fallible drivers) streams
//!    each block exactly once into its output slot. The loop consumes
//!    exactly the block's length, a chunk of at most [`simd::CHUNK`]
//!    elements at a time, polling for cancellation once per chunk
//!    (below). The infallible loops hand each chunk to the stream's
//!    [`Seq::fold_chunk`], which runs it as one loop (below); the
//!    fallible loops, which may stop after any element, pull it through
//!    `next()`. A block that runs dry early or yields
//!    past its end panics, and every block writes through a writer
//!    bounded by its own region, whose push past the region's end
//!    panics: that is what makes the disjoint parallel writes safe even
//!    when a stream miscounts.
//!    Every block body except the side-effecting `for_each` loops'
//!    runs under [`bds_pool::recover_block`]: when an enclosing
//!    [`bds_pool::run_recovered`] supplies a
//!    [`bds_pool::RetryPolicy`], a panicking block re-executes *only
//!    that block* into its already-reserved region — geometry is
//!    solved once, before the loop, so a retried run is bit-identical
//!    to an unfaulted one. A `for_each` block is never retried: a
//!    re-run would apply its effects twice.
//!
//! # Cancellation polling
//!
//! The drive loops are the one place that polls the ambient
//! [`bds_pool::CancelToken`] inside a block. The geometry gives every
//! block's exact length, so a loop consumes block `j` `min(left,
//! CHUNK)` elements at a time and calls
//! [`bds_pool::PollTicker::tick_n`] once per chunk: cancellation lands
//! within one [`simd::CHUNK`] of elements, however large the block. The
//! leaf streams hold no ticker, so a k-way zip polls exactly as often
//! as a single source, and [`bds_pool::ticker_polls`] counts one poll
//! per `CHUNK` consumed elements per block in every instantiation
//! (`tests/stream_parity.rs` compares the counts). The one move a block
//! stream can make without yielding an element is a `flatten` region
//! stepping to its next inner sequence, so the region walks
//! ([`crate::flatten::RegionIter`] and the dynamic lowering's copy)
//! tick their own ticker on each such step, whether a chunk fold or
//! `next()` takes it. A caller that iterates [`Seq::block`] itself,
//! outside these loops, gets no polling.
//!
//! # Chunk folds: push inside a block
//!
//! Pulling a block through `next()` suits a random-access stream, whose
//! `next` is an index step, but not a nested one: a `flatten` region
//! re-checks its position on every element, and a filter's packing
//! reloads its state per survivor. So the infallible loops push each
//! chunk through [`Seq::fold_chunk`], one call per chunk, which the
//! library's streams override with loops of their own:
//!
//! - the leaves (tabulate, slices, [`crate::RadBlock`]) check once that
//!   the block holds the chunk, then run a counted range or slice loop;
//! - map, map-with-index and enumerate fold through their input's fold;
//! - a scan's phase 3 carries its running prefix in the fold's
//!   accumulator;
//! - a region walk runs nested loops, one counted loop per inner range
//!   the chunk covers;
//! - a zip folds its right side's chunk into a stack buffer, then folds
//!   its left side and takes the buffered items in order. Within a zip
//!   chunk the right side is therefore computed before the left, each
//!   element once. A right side whose chunk would not fit the buffer's
//!   fixed byte bound is pulled pairwise instead.
//!
//! The pull remains where the fold cannot go: the default
//! [`Seq::fold_chunk`] is the counted pull, so an external sequence, the
//! erased [`crate::erased::BoxSeq`]/[`crate::erased::BoxRad`] and the
//! dynamic lowering's boxed streams behave as before; and the fallible
//! loops keep pulling, since a fold cannot stop after an arbitrary
//! element on stable Rust. Filter packing collects each
//! chunk's survivors in a stack buffer and appends them to the block's
//! array in one move.
//!
//! # Chunked streams
//!
//! An interpreter whose stages are erased (`bds-plan` runs pipelines
//! assembled at runtime) cannot afford an element iterator: every
//! stage would cost a virtual call per element. A [`ChunkedStream`]
//! instead produces each block a [`simd::CHUNK`] at a time, and its
//! blocks may come up short when a stage inside them drops elements,
//! which [`Seq`]'s exact-block invariant forbids. `bds-plan`'s executor
//! is its one implementation. The chunked drive loops
//! ([`reduce_chunked`], [`count_chunked`], [`to_vec_chunked`],
//! [`block_folds`]) run the same per-block protocol over the same block
//! loops. A chunked stream already works a chunk at a time, so it polls
//! itself: it ticks its own ticker once per chunk it produces
//! (`tick_n`).
//!
//! # SIMD drivers
//!
//! The parallel drivers of [`crate::simd`] are instantiations of the
//! same block loops (`blockwise` and `materialize`): the consumer's
//! index space drives the loop, each block walks its range a
//! [`simd::CHUNK`] at a time, and the dispatched SIMD kernel is only
//! what runs inside a chunk.

use std::sync::Mutex;

use bds_cost::{ElemCost, SIMPLE};
use bds_pool::PollTicker;

use crate::counters;
use crate::policy;
use crate::profile::{self, Stage};
use crate::simd;
use crate::traits::Seq;
use crate::util::{
    build_vec, charge_elems, chunk_space, scan_sequential, BlockWriter, ChunkBuf, PartialVec,
};

/// The counted pull of `n` elements of `it` into `f`: the default
/// [`Seq::fold_chunk`].
///
/// # Panics
/// With "Seq invariant violated: block underflow" when `it` runs dry
/// first.
#[inline]
pub(crate) fn pull_chunk<I: Iterator, A>(
    it: &mut I,
    n: usize,
    init: A,
    mut f: impl FnMut(A, I::Item) -> A,
) -> A {
    let mut acc = init;
    for _ in 0..n {
        let x = it.next().expect("Seq invariant violated: block underflow");
        acc = f(acc, x);
    }
    acc
}

/// The next `n` positions of a block whose unread positions are
/// `*next..end`, moving `*next` past them: the one check a leaf's chunk
/// fold makes before its counted loop.
///
/// # Panics
/// With "Seq invariant violated: block underflow" when fewer than `n`
/// positions are left.
#[inline]
pub(crate) fn chunk_range(next: &mut usize, end: usize, n: usize) -> std::ops::Range<usize> {
    let lo = *next;
    assert!(n <= end - lo, "Seq invariant violated: block underflow");
    *next = lo + n;
    lo..lo + n
}

// ---------------------------------------------------------------------
// Geometry
// ---------------------------------------------------------------------

/// The block geometry of one consumption: element count, block size,
/// block count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Total elements.
    pub len: usize,
    /// Block size.
    pub bs: usize,
    /// Block count, `ceil(len / bs)`.
    pub nb: usize,
}

impl Geometry {
    /// The geometry of `len` elements in blocks of `bs`.
    pub fn new(len: usize, bs: usize) -> Geometry {
        Geometry {
            len,
            bs,
            nb: policy::ceil_div(len, bs),
        }
    }
}

/// Bounds `(lo, hi)` of block `j` when `len` elements are cut into
/// blocks of `bs`: what a [`Seq::block`] implementation streams, and
/// what block `j` of a [`Geometry`] covers.
#[inline]
pub fn block_bounds(len: usize, bs: usize, j: usize) -> (usize, usize) {
    let lo = j * bs;
    (lo, (lo + bs).min(len))
}

/// Step 2 of the protocol: the geometry of one consumption of `len`
/// elements. A `fixed` block size wins; otherwise the policy solves
/// for `per_elem`, the stream's own cost plus the consumer's.
pub fn geometry(len: usize, fixed: Option<usize>, per_elem: ElemCost) -> Geometry {
    Geometry::new(
        len,
        fixed.unwrap_or_else(|| policy::block_size_costed(len, per_elem)),
    )
}

fn solve<S: Seq + ?Sized>(s: &S, downstream: ElemCost) -> Geometry {
    geometry(s.len(), s.fixed_block_size(), s.elem_cost() + downstream)
}

/// Step 3 of the protocol: report the geometry to the profiler.
#[inline]
pub(crate) fn record(stage: Stage, g: Geometry) {
    profile::record_geometry(stage, g.len, g.bs, g.nb);
}

// ---------------------------------------------------------------------
// The chunk loop: where cancellation is polled
// ---------------------------------------------------------------------

/// Block `j`'s element stream as a drive loop consumes it.
///
/// The geometry gives the block's exact length, so the loop consumes
/// `min(left, CHUNK)` elements at a time and calls
/// [`PollTicker::tick_n`] once per chunk: one poll per [`simd::CHUNK`]
/// elements whatever the shape of the stream (a k-way zip polls as
/// often as a single source). The leaf streams hold no ticker.
///
/// The infallible folds hand each chunk to the stream's
/// [`Seq::fold_chunk`], which runs it as one loop; the fallible ones
/// (`try_fold`) pull it through `next()`, a counted loop that can stop
/// after any element.
/// Both consume exactly the block's length, which checks the block
/// invariant: a block that runs dry early panics (underflow), and one
/// that still yields after its last element panics (overflow).
struct Pull<'s, S: Seq + ?Sized + 's> {
    it: S::Block<'s>,
    left: usize,
    ticker: PollTicker,
}

fn pull<S: Seq + ?Sized>(s: &S, g: Geometry, j: usize) -> Pull<'_, S> {
    let (lo, hi) = block_bounds(g.len, g.bs, j);
    Pull {
        it: s.block(j, g.bs),
        left: hi - lo,
        ticker: PollTicker::new(),
    }
}

/// Does `it` still yield? The overflow check after a block's last
/// chunk. Kept out of line so that the chunk loop is the one call site
/// of the block stream's `next` that the optimizer inlines into.
#[cold]
#[inline(never)]
fn yields<I: Iterator>(it: &mut I) -> bool {
    it.next().is_some()
}

impl<'s, S: Seq + ?Sized + 's> Pull<'s, S> {
    #[inline]
    fn next_elem(&mut self) -> S::Item {
        self.it
            .next()
            .expect("Seq invariant violated: block underflow")
    }

    #[inline]
    fn check_drained(&mut self) {
        assert!(
            !yields(&mut self.it),
            "Seq invariant violated: block overflow"
        );
    }

    /// Run `body` on the rest of the block, once per chunk: `body(acc,
    /// block, c)` must consume exactly the next `c` elements.
    #[inline]
    fn fold_chunks<A>(
        mut self,
        init: A,
        mut body: impl FnMut(A, &mut S::Block<'s>, usize) -> A,
    ) -> A {
        let mut acc = init;
        while self.left > 0 {
            let c = self.left.min(simd::CHUNK);
            acc = body(acc, &mut self.it, c);
            self.left -= c;
            self.ticker.tick_n(c);
        }
        self.check_drained();
        acc
    }

    /// Fold the rest of the block, one [`Seq::fold_chunk`] per chunk.
    #[inline]
    fn fold<A>(self, init: A, mut f: impl FnMut(A, S::Item) -> A) -> A {
        self.fold_chunks(init, |acc, it, c| S::fold_chunk(it, c, acc, &mut f))
    }

    /// Feed the rest of the block to `f`, a chunk at a time.
    #[inline]
    fn for_each(self, mut f: impl FnMut(S::Item)) {
        self.fold((), |(), x| f(x));
    }

    /// Fold the block seeded by its first element (reduce, scan phase
    /// 1). The seed counts as a chunk of one, so the block
    /// still polls once per `CHUNK` elements.
    #[inline]
    fn fold_first(mut self, f: impl FnMut(S::Item, S::Item) -> S::Item) -> S::Item {
        let first = self.take_first();
        self.fold(first, f)
    }

    #[inline]
    fn take_first(&mut self) -> S::Item {
        assert!(self.left > 0, "Seq invariant violated: empty block");
        let first = self.next_elem();
        self.left -= 1;
        self.ticker.tick_n(1);
        first
    }

    /// Pull the rest of the block through `next()`, a chunk at a time,
    /// stopping at the first `Err`.
    #[inline]
    fn try_fold<A, E>(
        mut self,
        mut acc: A,
        mut f: impl FnMut(A, S::Item) -> Result<A, E>,
    ) -> Result<A, E> {
        while self.left > 0 {
            let c = self.left.min(simd::CHUNK);
            for _ in 0..c {
                let x = self.next_elem();
                acc = f(acc, x)?;
            }
            self.left -= c;
            self.ticker.tick_n(c);
        }
        self.check_drained();
        Ok(acc)
    }

    /// [`fold_first`](Self::fold_first), stopping at the first `Err`.
    #[inline]
    fn try_fold_first<E>(
        mut self,
        f: impl FnMut(S::Item, S::Item) -> Result<S::Item, E>,
    ) -> Result<S::Item, E> {
        let first = self.take_first();
        self.try_fold(first, f)
    }
}

// ---------------------------------------------------------------------
// The shared block loops (step 5)
// ---------------------------------------------------------------------

/// Stream every block through `f`, in parallel, producing no output.
///
/// Side-effecting blocks would re-run user effects on retry, so this
/// loop does not go through [`bds_pool::recover_block`]: a fault
/// propagates as a plain panic, even under a
/// [`bds_pool::RetryPolicy`] (see the legality table in DESIGN.md).
fn visit_blocks<S, F>(s: &S, g: Geometry, f: F)
where
    S: Seq + ?Sized,
    F: Fn(Pull<'_, S>) + Send + Sync,
{
    bds_pool::apply(g.nb, |j| f(pull(s, g, j)));
}

/// One output per block: stream block `j` through `f` and collect the
/// `nb` results positionally (the shape of reduce phase 1, count, scan
/// seeds, and filter packing).
fn per_block<S, T, F>(s: &S, g: Geometry, f: F) -> Vec<T>
where
    S: Seq + ?Sized,
    T: Send,
    F: Fn(Pull<'_, S>) -> T + Send + Sync,
{
    blockwise(g, |j| f(pull(s, g, j)))
}

/// The block loop under [`per_block`]: run `body(j)` for every block
/// and collect the results positionally.
pub(crate) fn blockwise<T, F>(g: Geometry, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    build_vec(g.nb, |pv| {
        bds_pool::apply(g.nb, |j| {
            // Pure block write: the push happens only after `body`
            // succeeds, so a retried attempt (transient fault mid-block)
            // re-streams the block into the still-empty slot.
            bds_pool::recover_block(j, || {
                pv.writer(j, j + 1).push(body(j));
            });
        });
    })
}

/// Fallible [`per_block`]: the first failing block cancels the region
/// (sibling blocks stop at their next boundary) and the lowest failing
/// block index's error is reported.
fn try_per_block<S, T, E, F>(s: &S, g: Geometry, f: F) -> Result<Vec<T>, E>
where
    S: Seq + ?Sized,
    T: Send,
    E: Send,
    F: Fn(Pull<'_, S>) -> Result<T, E> + Send + Sync,
{
    let pv = PartialVec::new(g.nb);
    bds_pool::apply_cancellable(g.nb, |j| {
        // Retry wraps only panic faults; an `Err` return is a result,
        // not a fault, and short-circuits the region unretried.
        bds_pool::recover_block(j, || {
            pv.writer(j, j + 1).push(f(pull(s, g, j))?);
            Ok(())
        })
    })?;
    Ok(pv.finish())
}

/// Materialize: every block `fill`s its slot of one fresh
/// (budget-charged) buffer through a writer bounded by the slot. The
/// writer panics on a push past the block's end, and the underflow
/// assert catches a block that wrote too little, so a broken
/// block-length invariant is a panic instead of an unsound write.
pub(crate) fn materialize<T, F>(g: Geometry, fill: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut BlockWriter<'_, T>) + Sync,
{
    materialize_ranges(g.len, g.nb, |j| block_bounds(g.len, g.bs, j), fill)
}

/// [`materialize`] with explicit output ranges: block `j` of `nb` fills
/// `range(j)` of one fresh buffer of `len` slots. The ranges must be
/// disjoint and cover `0..len`; a pass whose output per block is known
/// only after a counting pass (`simd::par_positions_eq`) writes each
/// block at the offset its count scanned.
pub(crate) fn materialize_ranges<T, R, F>(len: usize, nb: usize, range: R, fill: F) -> Vec<T>
where
    T: Send,
    R: Fn(usize) -> (usize, usize) + Sync,
    F: Fn(usize, &mut BlockWriter<'_, T>) + Sync,
{
    build_vec(len, |pv| {
        bds_pool::apply(nb, |j| {
            // Idempotent by construction: the writer guard discards
            // its partial prefix on unwind, so a retried attempt
            // re-streams the whole block into its untouched region.
            bds_pool::recover_block(j, || {
                let (lo, hi) = range(j);
                let mut w = pv.writer(lo, hi);
                fill(j, &mut w);
                check_filled(&w, lo, hi);
            });
        });
    })
}

/// The underflow check after a block's writes: the block wrote its
/// whole region.
#[inline]
fn check_filled<T: Send>(w: &BlockWriter<'_, T>, lo: usize, hi: usize) {
    assert_eq!(
        w.count(),
        hi - lo,
        "Seq invariant violated: block underflow"
    );
}

// ---------------------------------------------------------------------
// Infallible drive loops
// ---------------------------------------------------------------------

/// Two-phase block reduce (Figure 10 lines 28-32): per-block
/// stream-folds seeded by each block's first element, then a sequential
/// fold of the `nb` block sums with `zero` folded in once. `combine`
/// must be associative.
pub fn reduce<S, F>(s: &S, zero: S::Item, combine: &F) -> S::Item
where
    S: Seq + ?Sized,
    F: Fn(S::Item, S::Item) -> S::Item + Send + Sync,
{
    if s.is_empty() {
        return zero;
    }
    let _span = profile::span(Stage::Reduce);
    // One combine per element downstream of the delayed work.
    let g = solve(s, SIMPLE);
    record(Stage::Reduce, g);
    let sums = per_block(s, g, |p| p.fold_first(combine));
    counters::count_reads(sums.len());
    sums.into_iter().fold(zero, combine)
}

/// Apply `f` to every element, in parallel across blocks (`applySeq`,
/// Figure 9 lines 5-8).
pub fn for_each<S, F>(s: &S, f: &F)
where
    S: Seq + ?Sized,
    F: Fn(S::Item) + Send + Sync,
{
    let _span = profile::span(Stage::ForEach);
    let g = solve(s, SIMPLE);
    record(Stage::ForEach, g);
    visit_blocks(s, g, |p| p.for_each(f));
}

/// Materialize into a `Vec` (`toArray`, Figure 9 lines 9-14).
pub fn to_vec<S>(s: &S) -> Vec<S::Item>
where
    S: Seq + ?Sized,
{
    let _span = profile::span(Stage::Force);
    // One write + one slot of fresh allocation per element.
    let g = solve(s, ElemCost { w: 1, s: 1, a: 1 });
    if g.len > 0 {
        record(Stage::Force, g);
    }
    materialize(g, |j, w| pull(s, g, j).for_each(|x| w.push(x)))
}

/// Count the elements satisfying `pred`, two-phase like [`reduce`].
pub fn count<S, P>(s: &S, pred: &P) -> usize
where
    S: Seq + ?Sized,
    P: Fn(&S::Item) -> bool + Send + Sync,
{
    if s.is_empty() {
        return 0;
    }
    let _span = profile::span(Stage::Count);
    let g = solve(s, SIMPLE);
    record(Stage::Count, g);
    let sums = per_block(s, g, |p| p.fold(0, |n, x| n + usize::from(pred(&x))));
    sums.into_iter().sum()
}

/// Blockwise survivor packing, the eager phase of `filter`/`filter_op`
/// (Figure 10, lines 48-53): stream each block through `keep` (`Some`
/// keeps an element) into a small dense array, charging each block's
/// survivors against the ambient memory budget. The caller flattens the
/// parts (the static lowering wraps each in a
/// [`Forced`](crate::sources::Forced);
/// [`crate::dynseq::DSeq`] feeds them to `flatten_parts`).
///
/// Each chunk's survivors collect in a stack buffer and join the block's
/// array in one move, so the chunk loop keeps no `Vec` state; survivors
/// too large for the buffer are pushed one at a time.
pub fn filter_parts<S, U, K>(s: &S, keep: &K) -> Vec<Vec<U>>
where
    S: Seq + ?Sized,
    U: Send,
    K: Fn(S::Item) -> Option<U> + Sync,
{
    // Packing streams every element once through the predicate and may
    // allocate a survivor.
    let g = solve(s, ElemCost { w: 1, s: 1, a: 1 });
    let _span = profile::span(Stage::FilterEager);
    if g.nb > 0 {
        record(Stage::FilterEager, g);
    }
    per_block(s, g, |p| {
        let mut kept: Vec<U> = Vec::new();
        if ChunkBuf::<U>::FITS {
            pack_buffered(p, keep, &mut kept);
        } else {
            p.for_each(|x| kept.extend(keep(x)));
        }
        // Survivors are the filter's real allocation; charge them
        // against the ambient memory budget (abandons the region on
        // exhaustion — the survivor vec is dropped normally).
        charge_elems::<U>(kept.len());
        counters::count_writes(kept.len());
        counters::count_allocs(kept.len());
        kept
    })
}

/// [`filter_parts`]'s chunk loop through a [`ChunkBuf`]. Its own
/// function so that the buffer takes stack space only where it is used.
#[inline]
fn pack_buffered<S, U, K>(p: Pull<'_, S>, keep: &K, kept: &mut Vec<U>)
where
    S: Seq + ?Sized,
    K: Fn(S::Item) -> Option<U>,
{
    let mut space = chunk_space();
    let mut buf = ChunkBuf::new(&mut space);
    p.fold_chunks((), |(), it, c| {
        S::fold_chunk(it, c, (), |(), x| {
            if let Some(y) = keep(x) {
                buf.push(y);
            }
        });
        buf.drain_into(kept);
    });
}

/// Scan phases 1-2, shared by both scan flavors: per-block sums (fused
/// with the input's delayed work), then a sequential scan of the `nb`
/// sums. Returns the block size the pass ran under, the exclusive
/// per-block seeds (which belong to that block size), and the grand
/// total.
pub fn scan_seeds<S, F>(s: &S, zero: S::Item, f: &F) -> (usize, Vec<S::Item>, S::Item)
where
    S: Seq + ?Sized,
    S::Item: Clone + Sync,
    F: Fn(S::Item, S::Item) -> S::Item + Send + Sync,
{
    // Phase 1 streams the input once and pays one combine per element.
    let g = solve(s, SIMPLE);
    if g.nb == 0 {
        return (g.bs, Vec::new(), zero);
    }
    let _span = profile::span(Stage::ScanEager);
    record(Stage::ScanEager, g);
    let sums = per_block(s, g, |p| p.fold_first(f));
    counters::count_reads(g.nb);
    let (seeds, total) = scan_sequential(&sums, zero, &|a, b| f(a.clone(), b.clone()));
    (g.bs, seeds, total)
}

// ---------------------------------------------------------------------
// Fallible drive loops
// ---------------------------------------------------------------------

/// Fallible two-phase block reduce: phase 1 short-circuits through
/// [`bds_pool::apply_cancellable`] (lowest failing block index wins, a
/// real panic beats an `Err`), phase 2 is a sequential fallible fold.
pub fn try_reduce<S, E, F>(s: &S, zero: S::Item, f: &F) -> Result<S::Item, E>
where
    S: Seq + ?Sized,
    E: Send,
    F: Fn(S::Item, S::Item) -> Result<S::Item, E> + Send + Sync,
{
    if s.is_empty() {
        return Ok(zero);
    }
    let g = solve(s, SIMPLE);
    let sums = try_per_block(s, g, |p| p.try_fold_first(f))?;
    counters::count_reads(sums.len());
    let mut acc = zero;
    for s in sums {
        acc = f(acc, s)?;
    }
    Ok(acc)
}

/// Fallible blockwise survivor packing: the eager phase of
/// `try_filter_collect`, short-circuiting on the first predicate
/// failure. Returns the raw per-block survivor vectors; the caller
/// concatenates them.
pub fn try_filter_parts<S, E, P>(s: &S, pred: &P) -> Result<Vec<Vec<S::Item>>, E>
where
    S: Seq + ?Sized,
    S::Item: Clone + Sync,
    E: Send,
    P: Fn(&S::Item) -> Result<bool, E> + Send + Sync,
{
    // One predicate call and a possible survivor copy per element.
    let g = solve(s, ElemCost { w: 1, s: 1, a: 1 });
    try_per_block(s, g, |p| {
        let mut kept: Vec<S::Item> = Vec::new();
        p.try_fold((), |(), x| {
            if pred(&x)? {
                kept.push(x);
            }
            Ok(())
        })?;
        counters::count_writes(kept.len());
        counters::count_allocs(kept.len());
        Ok(kept)
    })
}

// ---------------------------------------------------------------------
// Chunked streams
// ---------------------------------------------------------------------

/// A block-granular stream that produces each block a chunk at a time.
///
/// Geometry works as for a [`Seq`]: block `j` covers
/// `block_bounds(g.len, g.bs, j)` of an index space of [`len`](Self::len)
/// positions, and a stream whose passes must agree on their block
/// seams (a seed pass and the pass it seeds) reports the size they
/// share through [`fixed_block_size`](Self::fixed_block_size). Unlike
/// a `Seq`'s, a block may yield *fewer* elements than its range when a
/// stage inside it drops elements; [`exact`](Self::exact) says whether
/// that can happen. And unlike a `Seq`'s blocks, which the drive loops
/// poll for, each chunked block ticks its own [`bds_pool::PollTicker`]
/// once per chunk it produces.
pub trait ChunkedStream: Sync {
    /// Element type.
    type Item: Send;

    /// Size of the index space the blocks partition: the element count
    /// when [`exact`](Self::exact), an upper bound otherwise.
    fn len(&self) -> usize;

    /// True when the index space is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether every block yields exactly its index range.
    fn exact(&self) -> bool;

    /// See [`Seq::fixed_block_size`].
    fn fixed_block_size(&self) -> Option<usize>;

    /// See [`Seq::elem_cost`].
    fn elem_cost(&self) -> ElemCost;

    /// Stream block `j` of `g` into `sink`, in order, in chunks of at
    /// most [`simd::CHUNK`] elements. The sink may drain the chunk; the
    /// stream clears it before refilling.
    fn stream_chunks<F: FnMut(&mut Vec<Self::Item>)>(&self, g: Geometry, j: usize, sink: F);
}

/// Fold each block's chunks into one value per block.
fn fold_blocks<S, A, F>(s: &S, g: Geometry, fold: &F) -> Vec<A>
where
    S: ChunkedStream + ?Sized,
    A: Default + Send,
    F: Fn(&mut A, &mut Vec<S::Item>) + Sync,
{
    blockwise(g, |j| {
        let mut acc = A::default();
        s.stream_chunks(g, j, |chunk| fold(&mut acc, chunk));
        acc
    })
}

/// Per-block folds of a chunked stream: the eager pass that seeds a
/// scan's phase 3 (block sums) or a position-aware stage after a
/// filter (survivor counts). `fold` sees every chunk of block `j`, in
/// order, starting from `A::default()`.
pub fn block_folds<S, A, F>(s: &S, fold: &F) -> Vec<A>
where
    S: ChunkedStream + ?Sized,
    A: Default + Send,
    F: Fn(&mut A, &mut Vec<S::Item>) + Sync,
{
    let g = geometry(s.len(), s.fixed_block_size(), s.elem_cost() + SIMPLE);
    if g.nb == 0 {
        return Vec::new();
    }
    let _span = profile::span(Stage::ScanEager);
    record(Stage::ScanEager, g);
    let folds = fold_blocks(s, g, fold);
    counters::count_reads(g.nb);
    folds
}

/// [`reduce`] over a chunked stream. A block whose elements were all
/// dropped contributes nothing; the rest fold exactly as in `reduce`.
pub fn reduce_chunked<S, F>(s: &S, zero: S::Item, combine: &F) -> S::Item
where
    S: ChunkedStream + ?Sized,
    F: Fn(S::Item, S::Item) -> S::Item + Send + Sync,
{
    if s.is_empty() {
        return zero;
    }
    let _span = profile::span(Stage::Reduce);
    let g = geometry(s.len(), s.fixed_block_size(), s.elem_cost() + SIMPLE);
    record(Stage::Reduce, g);
    let sums = fold_blocks(
        s,
        g,
        &|acc: &mut Option<S::Item>, chunk: &mut Vec<S::Item>| {
            let mut xs = chunk.drain(..);
            if let Some(first) = acc.take().or_else(|| xs.next()) {
                *acc = Some(xs.fold(first, combine));
            }
        },
    );
    counters::count_reads(sums.len());
    sums.into_iter().flatten().fold(zero, combine)
}

/// [`count`] over a chunked stream.
pub fn count_chunked<S, P>(s: &S, pred: &P) -> usize
where
    S: ChunkedStream + ?Sized,
    P: Fn(&S::Item) -> bool + Send + Sync,
{
    if s.is_empty() {
        return 0;
    }
    let _span = profile::span(Stage::Count);
    let g = geometry(s.len(), s.fixed_block_size(), s.elem_cost() + SIMPLE);
    record(Stage::Count, g);
    let counts = fold_blocks(s, g, &|n: &mut usize, chunk: &mut Vec<S::Item>| {
        *n += chunk.iter().filter(|x| pred(x)).count();
    });
    counts.into_iter().sum()
}

/// [`to_vec`] over a chunked stream. Exact streams write every block
/// straight into its slot of one buffer; short blocks are packed first
/// (each chunk charged before it is kept, as [`filter_parts`] charges
/// survivors), and several packed blocks are then moved into one
/// charged buffer in parallel, each at the offset its predecessors'
/// lengths sum to.
pub fn to_vec_chunked<S>(s: &S) -> Vec<S::Item>
where
    S: ChunkedStream + ?Sized,
{
    let _span = profile::span(Stage::Force);
    let cost = s.elem_cost() + ElemCost { w: 1, s: 1, a: 1 };
    let g = geometry(s.len(), s.fixed_block_size(), cost);
    if g.len > 0 {
        record(Stage::Force, g);
    }
    if s.exact() {
        return materialize(g, |j, w| {
            s.stream_chunks(g, j, |chunk| {
                for x in chunk.drain(..) {
                    w.push(x);
                }
            })
        });
    }
    let mut parts = fold_blocks(
        s,
        g,
        &|kept: &mut Vec<S::Item>, chunk: &mut Vec<S::Item>| {
            charge_elems::<S::Item>(chunk.len());
            counters::count_writes(chunk.len());
            counters::count_allocs(chunk.len());
            kept.append(chunk);
        },
    );
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    let lens: Vec<usize> = parts.iter().map(Vec::len).collect();
    let (offsets, total) = scan_sequential(&lens, 0, &|a, b| a + b);
    // Each block moves its own part out, once. The move runs no user
    // code, so a block has no fault to retry.
    let parts: Vec<Mutex<Vec<S::Item>>> = parts.into_iter().map(Mutex::new).collect();
    let range = |j: usize| (offsets[j], offsets[j] + lens[j]);
    materialize_ranges(total, parts.len(), range, |j, w| {
        let part = std::mem::take(&mut *parts[j].lock().expect("a part's lock guards one take"));
        for x in part {
            w.push(x);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn seq_stream_drives_all_consumers() {
        let _g = crate::policy::test_sync::test_force(16);
        let s = tabulate(100, |i| i as u64);
        let v = to_vec(&s);
        assert_eq!(v, (0..100).collect::<Vec<u64>>());
        assert_eq!(reduce(&s, 0, &|a, b| a + b), 4950);
        assert_eq!(count(&s, &|&x| x % 2 == 0), 50);
        let parts = filter_parts(&s, &|x| (x < 10).then_some(x));
        let survivors: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(survivors, 10);
    }

    #[test]
    fn empty_streams_take_the_trivial_paths() {
        let _l = crate::policy::test_sync::test_lock();
        let s = tabulate(0, |i| i as u64);
        assert_eq!(reduce(&s, 7, &|a, b| a + b), 7);
        assert_eq!(count(&s, &|_| true), 0);
        assert!(to_vec(&s).is_empty());
        let (_, seeds, total) = scan_seeds(&s, 3, &|a, b| a + b);
        assert!(seeds.is_empty());
        assert_eq!(total, 3);
    }

    #[test]
    fn scan_seeds_match_sequential_prefix_sums() {
        let _g = crate::policy::test_sync::test_force(16);
        let s = tabulate(100, |_| 1u64);
        let (bs, seeds, total) = scan_seeds(&s, 0, &|a, b| a + b);
        assert_eq!((bs, total), (16, 100));
        assert_eq!(seeds, (0..7).map(|j| j * 16).collect::<Vec<u64>>());
    }

    #[test]
    fn try_loops_short_circuit_and_agree_with_infallible() {
        let _g = crate::policy::test_sync::test_force(32);
        let s = tabulate(1000, |i| i as u64);
        let ok: Result<u64, ()> = try_reduce(&s, 0, &|a, b| Ok(a + b));
        assert_eq!(ok, Ok(499_500));
        let err = try_reduce(&s, 0, &|a, b| {
            if b == 777 {
                Err("hit")
            } else {
                Ok(a + b)
            }
        });
        assert_eq!(err, Err("hit"));
        let parts = try_filter_parts(&s, &|&x| Ok::<bool, ()>(x < 5)).unwrap();
        assert_eq!(parts.concat(), vec![0, 1, 2, 3, 4]);
    }

    /// `0..n` in blocks of `bs`, a chunk at a time; with `drop`, every
    /// multiple of 3 is dropped inside its block.
    struct Counting {
        n: usize,
        bs: usize,
        drop: bool,
    }

    impl ChunkedStream for Counting {
        type Item = u64;

        fn len(&self) -> usize {
            self.n
        }

        fn exact(&self) -> bool {
            !self.drop
        }

        fn fixed_block_size(&self) -> Option<usize> {
            Some(self.bs)
        }

        fn elem_cost(&self) -> ElemCost {
            SIMPLE
        }

        fn stream_chunks<F: FnMut(&mut Vec<u64>)>(&self, g: Geometry, j: usize, mut sink: F) {
            let (lo, hi) = block_bounds(g.len, g.bs, j);
            let mut chunk = Vec::new();
            for at in (lo..hi).step_by(simd::CHUNK) {
                chunk.clear();
                chunk.extend((at..(at + simd::CHUNK).min(hi)).map(|i| i as u64));
                if self.drop {
                    chunk.retain(|x| x % 3 != 0);
                }
                sink(&mut chunk);
            }
        }
    }

    #[test]
    fn chunked_drivers_match_iterators_across_seams() {
        let _l = crate::policy::test_sync::test_lock();
        for n in [0, 1, simd::CHUNK - 1, simd::CHUNK + 1, 2 * simd::CHUNK + 17] {
            for bs in [700, n.max(1)] {
                for drop in [false, true] {
                    let s = Counting { n, bs, drop };
                    let want: Vec<u64> = (0..n as u64).filter(|x| !drop || x % 3 != 0).collect();
                    let what = format!("n={n} bs={bs} drop={drop}");
                    assert_eq!(to_vec_chunked(&s), want, "{what}");
                    assert_eq!(
                        reduce_chunked(&s, 5, &|a, b| a + b),
                        want.iter().fold(5, |a, b| a + b),
                        "{what}"
                    );
                    assert_eq!(
                        count_chunked(&s, &|x| x % 2 == 0),
                        want.iter().filter(|x| *x % 2 == 0).count(),
                        "{what}"
                    );
                    let kept: Vec<usize> =
                        block_folds(&s, &|k: &mut usize, c: &mut Vec<u64>| *k += c.len());
                    assert_eq!(kept.len(), n.div_ceil(bs), "{what}");
                    assert_eq!(kept.iter().sum::<usize>(), want.len(), "{what}");
                }
            }
        }
    }
}
