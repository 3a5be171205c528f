//! Internal utilities: panic-safe disjoint parallel writes into fresh
//! buffers, and a small eager parallel array-scan (the paper's `a.scan`,
//! Figure 7).
//!
//! # The partial-buffer protocol
//!
//! Materialization writes each block of a fresh uninitialized buffer
//! from its own parallel task. Before the failure-semantics work this
//! used bare raw-pointer writes and leaked already-written elements on
//! panic; now every task writes through a [`BlockWriter`] drop guard.
//! On a normal exit (including an `Err` return) the guard records the
//! *initialized prefix* of its region; on unwind it instead drops the
//! partial prefix in place and records nothing, so a retried block
//! (see [`bds_pool::recover_block`]) re-writes its full region from a
//! clean slate. [`PartialVec`] keeps the records and, if the buffer is
//! abandoned (panic, error, or cancellation), drops exactly the
//! recorded elements — no leak, no double drop, nothing uninitialized
//! read.
//!
//! Visibility: the pool's join protocol guarantees every block task
//! completes (or is skipped) before the builder thread resumes, which
//! orders both the element writes and the segment records before
//! [`PartialVec::finish`] or `Drop` reads them.
//!
//! # Chunk buffers
//!
//! A zip's block fold and the filter's survivor packing hold up to one
//! chunk of items in a [`ChunkBuf`] on the stack. The buffer owns the
//! items it holds until they are taken out, so an unwind mid-chunk
//! drops every buffered, unconsumed item exactly once.

use std::mem::MaybeUninit;
use std::sync::Mutex;

use crate::counters;
use crate::policy::{block_size, ceil_div};
use crate::simd::CHUNK;

/// A buffer of `n` slots being initialized region-by-region from
/// parallel tasks, with drop-safety for the initialized parts.
pub(crate) struct PartialVec<T> {
    ptr: *mut T,
    n: usize,
    /// Owns the allocation; stays at `len == 0` so dropping it never
    /// drops elements — `Drop for PartialVec` handles those.
    buf: Vec<T>,
    /// Initialized `(start, len)` regions, recorded by [`BlockWriter`]
    /// guards as they drop. Disjoint by the writes-are-disjoint
    /// contract (checked in debug builds at finish time).
    segments: Mutex<Vec<(usize, usize)>>,
}

// SAFETY: `PartialVec` is only used under the disjoint-writes protocol
// (each slot written by exactly one task), and `T: Send` means the
// values themselves may be produced on any thread.
unsafe impl<T: Send> Sync for PartialVec<T> {}
unsafe impl<T: Send> Send for PartialVec<T> {}

impl<T: Send> PartialVec<T> {
    /// Allocate the backing buffer for `n` slots.
    ///
    /// This is the single choke point for materializing allocations:
    /// the buffer's bytes are charged against the ambient memory budget
    /// (see [`bds_pool::govern`]) *before* the allocation, and the
    /// reservation itself is fallible (`try_reserve_exact`). Either
    /// failure abandons the region — a budget trip or, under
    /// governance, a real allocator failure surfaces as
    /// `Err(Exceeded::Memory)` at the enclosing `run_governed` instead
    /// of aborting the process.
    pub(crate) fn new(n: usize) -> Self {
        charge_elems::<T>(n);
        let mut buf: Vec<T> = Vec::new();
        if buf.try_reserve_exact(n).is_err() {
            if bds_pool::govern::note_alloc_failure() {
                bds_pool::cancel::abort_region();
            }
            panic!(
                "allocation of {} bytes for {n} elements failed",
                n.saturating_mul(std::mem::size_of::<T>())
            );
        }
        counters::count_allocs(n);
        PartialVec {
            ptr: buf.as_mut_ptr(),
            n,
            buf,
            segments: Mutex::new(Vec::new()),
        }
    }

    /// Begin writing the block region `start..end`.
    ///
    /// The returned guard records however many elements were pushed
    /// when it drops normally (success or `Err` return). On unwind it
    /// discards the partial prefix instead, so a retried block starts
    /// from an untouched region. A push past `end` panics: a block
    /// stream that yields more than its share must not write into a
    /// neighbour's region, which that neighbour's writer would then
    /// initialize (and this buffer drop) a second time.
    pub(crate) fn writer(&self, start: usize, end: usize) -> BlockWriter<'_, T> {
        assert!(start <= end && end <= self.n, "write region out of bounds");
        BlockWriter {
            pv: self,
            start,
            cap: end - start,
            written: 0,
        }
    }

    fn record(&self, start: usize, written: usize) {
        let mut segs = self.segments.lock().unwrap_or_else(|e| e.into_inner());
        segs.push((start, written));
    }

    /// Commit the buffer as a fully initialized `Vec` of length `n`.
    ///
    /// If the recorded segments do not cover all `n` slots, the buffer
    /// is abandoned instead (initialized elements dropped): under
    /// cancellation this propagates the [`bds_pool::cancel::Cancelled`]
    /// sentinel so the enclosing cancellable region handles it;
    /// otherwise it panics, because an incomplete fill without
    /// cancellation is a broken `Seq` implementation.
    pub(crate) fn finish(mut self) -> Vec<T> {
        let total: usize = {
            let segs = self
                .segments
                .get_mut()
                .unwrap_or_else(|e| e.into_inner());
            #[cfg(debug_assertions)]
            {
                segs.sort_unstable();
                let mut end = 0usize;
                for &(s, l) in segs.iter() {
                    debug_assert!(s >= end, "overlapping write segments");
                    end = s + l;
                }
            }
            segs.iter().map(|&(_, l)| l).sum()
        };
        if total == self.n {
            self.segments
                .get_mut()
                .unwrap_or_else(|e| e.into_inner())
                .clear();
            let n = self.n;
            let mut buf = std::mem::take(&mut self.buf);
            // SAFETY: in-bounds disjoint segments totalling n cover
            // every slot, and the pool's joins ordered those writes
            // before this read of the segment list.
            unsafe { buf.set_len(n) };
            return buf;
        }
        // Incomplete fill: blocks were skipped or abandoned. Drop the
        // initialized prefix, then abandon or report.
        drop(self);
        if bds_pool::cancel::cancellation_requested() {
            bds_pool::cancel::abort_region();
        }
        panic!("build_vec: fill did not initialize every element");
    }
}

impl<T> Drop for PartialVec<T> {
    fn drop(&mut self) {
        let segs = self.segments.get_mut().unwrap_or_else(|e| e.into_inner());
        for &(start, len) in segs.iter() {
            // SAFETY: each recorded segment was fully initialized by
            // exactly one writer; segments are disjoint, so each
            // element drops once.
            unsafe {
                std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(
                    self.ptr.add(start),
                    len,
                ));
            }
        }
        // `self.buf` (len 0) frees the allocation without dropping.
    }
}

/// Drop guard for one task's contiguous write region; see
/// [`PartialVec::writer`].
pub(crate) struct BlockWriter<'p, T: Send> {
    pv: &'p PartialVec<T>,
    start: usize,
    /// Length of the region; `start + cap <= pv.n` (checked by
    /// [`PartialVec::writer`]).
    cap: usize,
    written: usize,
}

impl<T: Send> BlockWriter<'_, T> {
    /// Append `value` to this region (slot `start + count()`).
    ///
    /// # Panics
    /// When the region is full: the block yielded past its end.
    #[inline]
    pub(crate) fn push(&mut self, value: T) {
        assert!(
            self.written < self.cap,
            "Seq invariant violated: block overflow"
        );
        counters::count_writes(1);
        // SAFETY: `written < cap` (asserted) and `start + cap <= n`
        // (checked when the writer was made), so the slot is in bounds;
        // it lies in this writer's region, which no other writer covers
        // (the disjoint-regions contract), and `written` only grows, so
        // it is written once.
        unsafe { self.pv.ptr.add(self.start + self.written).write(value) };
        self.written += 1;
    }

    /// Number of elements pushed so far.
    #[inline]
    pub(crate) fn count(&self) -> usize {
        self.written
    }
}

impl<T: Send> Drop for BlockWriter<'_, T> {
    fn drop(&mut self) {
        if self.written == 0 {
            return;
        }
        if std::thread::panicking() {
            // Unwinding mid-region: drop the partial prefix here and
            // record nothing, leaving the region exactly as it was
            // before this attempt. That makes a block re-execution
            // (see `bds_pool::recover_block`) write the full region
            // from scratch with no double-drop and no overlapping
            // segment records — block writes are idempotent by
            // construction.
            // SAFETY: the first `written` slots of this region were
            // initialized by `push` and are recorded nowhere else, so
            // they are dropped here exactly once.
            unsafe {
                std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(
                    self.pv.ptr.add(self.start),
                    self.written,
                ));
            }
            return;
        }
        self.pv.record(self.start, self.written);
    }
}

/// The most bytes a [`ChunkBuf`] may take on the stack. A stream whose
/// items would need more for a whole chunk is not buffered.
const CHUNK_BUF_BYTES: usize = 16 * 1024;

/// Stack space for one chunk of `T`s, lent to a [`ChunkBuf`].
pub(crate) type ChunkSpace<T> = [MaybeUninit<T>; CHUNK];

/// Uninitialized [`ChunkSpace`].
#[inline]
pub(crate) fn chunk_space<T>() -> ChunkSpace<T> {
    [const { MaybeUninit::uninit() }; CHUNK]
}

/// A queue of at most one chunk ([`CHUNK`] items) in borrowed stack
/// space, filled and then emptied once per chunk.
///
/// The space is a separate local from the buffer's two counters, so
/// that the optimizer keeps the counters in registers: a store into the
/// space cannot be mistaken for a store to them.
pub(crate) struct ChunkBuf<'b, T> {
    slots: &'b mut ChunkSpace<T>,
    /// Slots `head..tail` hold initialized items the buffer owns.
    head: usize,
    tail: usize,
}

impl<'b, T> ChunkBuf<'b, T> {
    /// Whether a whole chunk of `T` fits in [`CHUNK_BUF_BYTES`].
    pub(crate) const FITS: bool = std::mem::size_of::<T>() * CHUNK <= CHUNK_BUF_BYTES;

    /// An empty buffer over `slots`.
    #[inline]
    pub(crate) fn new(slots: &'b mut ChunkSpace<T>) -> Self {
        ChunkBuf {
            slots,
            head: 0,
            tail: 0,
        }
    }

    /// Number of items held.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.tail - self.head
    }

    /// Append `x`.
    ///
    /// # Panics
    /// When a chunk's worth of items was already pushed.
    #[inline]
    pub(crate) fn push(&mut self, x: T) {
        assert!(self.tail < CHUNK, "Seq invariant violated: block overflow");
        self.slots[self.tail].write(x);
        self.tail += 1;
    }

    /// Take the oldest item.
    ///
    /// # Panics
    /// When the buffer is empty.
    #[inline]
    pub(crate) fn pop(&mut self) -> T {
        assert!(
            self.head < self.tail,
            "Seq invariant violated: block underflow"
        );
        let i = self.head;
        self.head += 1;
        // SAFETY: slot `i` was in `head..tail`, so `push` initialized it
        // and nothing has read it; `head` has moved past it, so neither
        // another `pop` nor `Drop` reads it again.
        unsafe { self.slots[i].assume_init_read() }
    }

    /// Move every held item, in order, to the end of `out`: one copy,
    /// which made a tokens filter pass about 5% faster than pushing the
    /// items one `pop` at a time.
    #[inline]
    pub(crate) fn drain_into(&mut self, out: &mut Vec<T>) {
        let n = self.len();
        // May panic or abort before anything moved; the buffer still
        // owns its items then.
        out.reserve(n);
        // SAFETY: slots `head..tail` are initialized, and `reserve` made
        // room for `n` more items past `out.len()`; the regions cannot
        // overlap (one is on the stack, the other in `out`'s heap
        // buffer). Emptying the buffer right after hands ownership of
        // the moved items to `out` alone.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.slots.as_ptr().add(self.head).cast::<T>(),
                out.as_mut_ptr().add(out.len()),
                n,
            );
            out.set_len(out.len() + n);
        }
        self.head = 0;
        self.tail = 0;
    }
}

impl<T> Drop for ChunkBuf<'_, T> {
    fn drop(&mut self) {
        // SAFETY: slots `head..tail` are initialized and owned by the
        // buffer alone (taken items are outside that range), so each is
        // dropped exactly once.
        unsafe {
            std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(
                self.slots.as_mut_ptr().add(self.head).cast::<T>(),
                self.tail - self.head,
            ));
        }
    }
}

/// Allocate a `Vec<T>` of length `n` whose elements are produced by
/// `fill`, which must initialize every slot in `0..n` exactly once via
/// [`PartialVec::writer`] regions (typically one per parallel block).
///
/// Panic-safe: if `fill` (or a task inside it) panics or is cancelled,
/// the initialized prefix of every region is dropped exactly once and
/// the allocation is released — nothing leaks.
pub(crate) fn build_vec<T: Send>(n: usize, fill: impl FnOnce(&PartialVec<T>)) -> Vec<T> {
    let pv = PartialVec::new(n);
    fill(&pv);
    pv.finish()
}

/// Eager exclusive parallel scan over a slice — the paper's `a.scan`.
///
/// Returns the exclusive-prefix array and the total. Uses the standard
/// three-phase algorithm (Figure 2) on the array itself.
pub(crate) fn array_scan_exclusive<T, F>(xs: &[T], zero: T, f: &F) -> (Vec<T>, T)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> T + Sync,
{
    let n = xs.len();
    if n == 0 {
        return (Vec::new(), zero);
    }
    let bs = block_size(n);
    let nb = ceil_div(n, bs);
    if nb <= 1 {
        return scan_sequential(xs, zero, f);
    }
    // Phase 1: per-block sums.
    let sums = build_vec(nb, |pv| {
        bds_pool::apply(nb, |j| {
            let lo = j * bs;
            let hi = (lo + bs).min(n);
            counters::count_reads(hi - lo);
            let mut acc = xs[lo].clone();
            for x in &xs[lo + 1..hi] {
                acc = f(&acc, x);
            }
            pv.writer(j, j + 1).push(acc);
        });
    });
    // Phase 2: sequential scan over the (small) sums array.
    counters::count_reads(nb);
    let (offsets, total) = scan_sequential(&sums, zero, f);
    // Phase 3: per-block exclusive scans seeded by the offsets.
    let out = build_vec(n, |pv| {
        bds_pool::apply(nb, |j| {
            let lo = j * bs;
            let hi = (lo + bs).min(n);
            counters::count_reads(hi - lo + 1);
            let mut acc = offsets[j].clone();
            let mut w = pv.writer(lo, hi);
            for x in &xs[lo..hi] {
                w.push(acc.clone());
                acc = f(&acc, x);
            }
        });
    });
    (out, total)
}

/// Charge `n` elements of `T` against the ambient memory budget,
/// abandoning the region (sentinel) when the budget is exhausted. The
/// hook every materializing allocation in this crate goes through.
#[inline]
pub(crate) fn charge_elems<T>(n: usize) {
    bds_pool::govern::charge_or_abort(n.saturating_mul(std::mem::size_of::<T>()));
}

/// Sequential exclusive scan, used for small inputs and as phase 2.
pub(crate) fn scan_sequential<T, F>(xs: &[T], zero: T, f: &F) -> (Vec<T>, T)
where
    T: Clone,
    F: Fn(&T, &T) -> T,
{
    charge_elems::<T>(xs.len());
    counters::count_allocs(xs.len());
    counters::count_reads(xs.len());
    counters::count_writes(xs.len());
    let mut out = Vec::with_capacity(xs.len());
    let mut acc = zero;
    for x in xs {
        out.push(acc.clone());
        acc = f(&acc, x);
    }
    (out, acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_vec_writes_all() {
        let v = build_vec(1000, |pv| {
            bds_pool::apply(1000, |i| pv.writer(i, i + 1).push(i * 3));
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 3));
    }

    #[test]
    fn build_vec_empty() {
        let v: Vec<u32> = build_vec(0, |_| {});
        assert!(v.is_empty());
    }

    #[test]
    fn build_vec_multi_element_regions() {
        let v = build_vec(100, |pv| {
            bds_pool::apply(10, |j| {
                let mut w = pv.writer(j * 10, j * 10 + 10);
                for k in 0..10 {
                    w.push(j * 10 + k);
                }
            });
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i));
    }

    #[test]
    fn incomplete_fill_without_cancellation_panics() {
        let r = std::panic::catch_unwind(|| {
            build_vec(10, |pv| {
                pv.writer(0, 10).push(1u32); // 9 slots never written
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn array_scan_matches_sequential_reference() {
        let xs: Vec<u64> = (0..25_000).map(|i| (i * 7 + 3) % 101).collect();
        let (got, total) = array_scan_exclusive(&xs, 0u64, &|a, b| a + b);
        let mut acc = 0u64;
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(got[i], acc, "mismatch at {i}");
            acc += x;
        }
        assert_eq!(total, acc);
    }

    #[test]
    fn array_scan_tiny_inputs() {
        for n in 0..5usize {
            let xs: Vec<u64> = (0..n as u64).collect();
            let (got, total) = array_scan_exclusive(&xs, 0, &|a, b| a + b);
            assert_eq!(got.len(), n);
            let want: u64 = xs.iter().sum();
            assert_eq!(total, want);
        }
    }

    #[test]
    fn array_scan_non_commutative_operator() {
        // String concatenation: associative but not commutative; checks
        // that block order is preserved.
        let _guard = crate::policy::test_sync::test_force(8);
        let xs: Vec<String> = (0..100).map(|i| format!("{},", i % 10)).collect();
        let (got, total) = array_scan_exclusive(&xs, String::new(), &|a, b| {
            let mut s = a.clone();
            s.push_str(b);
            s
        });
        let mut acc = String::new();
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(&got[i], &acc);
            acc.push_str(x);
        }
        assert_eq!(total, acc);
    }
}
