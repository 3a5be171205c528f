//! Typed chunk kernels.
//!
//! Each [`Pipe`](crate::Pipe) builder method wraps its closure here,
//! while the closure's concrete type is still known, into a kernel over
//! a whole chunk of elements (at most [`bds_seq::simd::CHUNK`]). The
//! executor then pays one virtual call per stage per chunk; the element
//! loop inside the kernel calls the closure directly.

use std::ops::Range;
use std::sync::Arc;

/// Rewrites a chunk in place: `map`, `filter` and `filter_map`.
pub(crate) type ChunkFn<T> = Arc<dyn Fn(&mut Vec<T>) + Send + Sync>;
/// `map_idx`: rewrites a chunk in place, told where its elements sit.
pub(crate) type IndexedFn<T> = Arc<dyn Fn(&mut Vec<T>, Positions) + Send + Sync>;
/// `scan`/`scan_incl`: see [`ScanKernel`].
pub(crate) type ScanFn<T> = Arc<dyn ScanKernel<T>>;
/// A `tabulate` source: appends the elements of an index range, walked
/// forwards or (when the flag is set) backwards.
pub(crate) type FillFn<T> = Arc<dyn Fn(&mut Vec<T>, Range<usize>, bool) + Send + Sync>;

/// Where a chunk's elements sit in a stage's index space: element `k`
/// is at `start + k`, or at `start - k` when a reversing cut runs the
/// window backwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Positions {
    pub(crate) start: usize,
    pub(crate) descending: bool,
}

impl Positions {
    #[inline]
    fn at(self, k: usize) -> usize {
        if self.descending {
            self.start - k
        } else {
            self.start + k
        }
    }
}

/// A prefix combine, run a chunk at a time through the three scan
/// phases.
pub(crate) trait ScanKernel<T>: Send + Sync {
    /// Phase 1: fold a chunk of the scan's input into its block's total
    /// (`None` until the block has seen an element).
    fn fold(&self, total: &mut Option<T>, chunk: &mut Vec<T>);
    /// Phase 2: combine two totals.
    fn combine(&self, a: T, b: T) -> T;
    /// Phase 3: replace the chunk by its exclusive (or inclusive)
    /// prefixes starting from `acc`, carrying `acc` past the chunk.
    fn prefix(&self, acc: &mut T, chunk: &mut Vec<T>, inclusive: bool);
}

struct Combiner<F>(F);

impl<T: Clone, F: Fn(T, T) -> T + Send + Sync> ScanKernel<T> for Combiner<F> {
    fn fold(&self, total: &mut Option<T>, chunk: &mut Vec<T>) {
        let mut xs = chunk.drain(..);
        if let Some(first) = total.take().or_else(|| xs.next()) {
            *total = Some(xs.fold(first, &self.0));
        }
    }

    fn combine(&self, a: T, b: T) -> T {
        (self.0)(a, b)
    }

    fn prefix(&self, acc: &mut T, chunk: &mut Vec<T>, inclusive: bool) {
        let f = &self.0;
        if inclusive {
            map_in_place(chunk, |x| {
                *acc = f(acc.clone(), x);
                acc.clone()
            });
        } else {
            map_in_place(chunk, |x| {
                let next = f(acc.clone(), x);
                std::mem::replace(acc, next)
            });
        }
    }
}

/// Rewrite every element by value, reusing the chunk's allocation.
fn map_in_place<T>(chunk: &mut Vec<T>, f: impl FnMut(T) -> T) {
    *chunk = std::mem::take(chunk).into_iter().map(f).collect();
}

pub(crate) fn tabulate<T, F>(f: F) -> FillFn<T>
where
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    Arc::new(
        move |buf: &mut Vec<T>, range: Range<usize>, backwards: bool| {
            if backwards {
                buf.extend(range.rev().map(&f));
            } else {
                buf.extend(range.map(&f));
            }
        },
    )
}

pub(crate) fn map<T: 'static, F>(f: F) -> ChunkFn<T>
where
    F: Fn(T) -> T + Send + Sync + 'static,
{
    Arc::new(move |chunk: &mut Vec<T>| map_in_place(chunk, &f))
}

pub(crate) fn map_idx<T: 'static, F>(f: F) -> IndexedFn<T>
where
    F: Fn(usize, T) -> T + Send + Sync + 'static,
{
    Arc::new(move |chunk: &mut Vec<T>, at: Positions| {
        *chunk = std::mem::take(chunk)
            .into_iter()
            .enumerate()
            .map(|(k, x)| f(at.at(k), x))
            .collect();
    })
}

pub(crate) fn filter<T: 'static, P>(pred: P) -> ChunkFn<T>
where
    P: Fn(&T) -> bool + Send + Sync + 'static,
{
    Arc::new(move |chunk: &mut Vec<T>| chunk.retain(|x| pred(x)))
}

pub(crate) fn filter_map<T: 'static, F>(f: F) -> ChunkFn<T>
where
    F: Fn(T) -> Option<T> + Send + Sync + 'static,
{
    Arc::new(move |chunk: &mut Vec<T>| {
        *chunk = std::mem::take(chunk).into_iter().filter_map(&f).collect();
    })
}

pub(crate) fn scan<T: Clone + 'static, F>(f: F) -> ScanFn<T>
where
    F: Fn(T, T) -> T + Send + Sync + 'static,
{
    Arc::new(Combiner(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_rewrite_chunks_in_place() {
        let mut c: Vec<u64> = (0..10).collect();
        let cap = c.capacity();
        map(|x: u64| x * 2)(&mut c);
        filter(|x: &u64| !x.is_multiple_of(3))(&mut c);
        filter_map(|x: u64| (x != 8).then_some(x + 1))(&mut c);
        assert_eq!(c, vec![3, 5, 11, 15, 17]);
        assert_eq!(c.capacity(), cap, "in-place rewrites keep the buffer");
        map_idx(|i, x: u64| x * 100 + i as u64)(
            &mut c,
            Positions {
                start: 7,
                descending: true,
            },
        );
        assert_eq!(c, vec![307, 506, 1105, 1504, 1703]);
    }

    #[test]
    fn scan_kernel_carries_across_chunks() {
        let k = scan(|a: u64, b: u64| a + b);
        let mut total = None;
        k.fold(&mut total, &mut vec![]);
        assert_eq!(total, None);
        k.fold(&mut total, &mut vec![1, 2]);
        k.fold(&mut total, &mut vec![3]);
        assert_eq!(total, Some(6));
        assert_eq!(k.combine(4, 5), 9);
        let (mut acc, mut c) = (10, vec![1, 2, 3]);
        k.prefix(&mut acc, &mut c, false);
        assert_eq!((acc, c), (16, vec![10, 11, 13]));
        let (mut acc, mut c) = (10, vec![1, 2, 3]);
        k.prefix(&mut acc, &mut c, true);
        assert_eq!((acc, c), (16, vec![11, 13, 16]));
    }

    #[test]
    fn tabulate_fills_either_direction() {
        let fill = tabulate(|i| i as u64 * 10);
        let mut buf = Vec::new();
        fill(&mut buf, 2..5, false);
        fill(&mut buf, 2..5, true);
        assert_eq!(buf, vec![20, 30, 40, 40, 30, 20]);
    }
}
