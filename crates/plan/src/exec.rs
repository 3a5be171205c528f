//! Plan execution: one block interpreter, run a chunk at a time.
//!
//! The executor walks a pipe's stages into *segments*. A segment is
//! a random-access input (the pipe's source, or a vector forced at a
//! cut), the window that the cuts of its random-access prefix select
//! from that input, and the chunk kernels of its stages (see
//! [`crate::kernel`]). Each block of a segment streams its share of
//! the window a chunk at a time: fill the chunk from the input, run
//! every kernel over it in stage order, hand it to the consumer. The
//! blocks run through the chunked drive loops of [`bds_seq::stream`],
//! which own the per-block protocol: profile span, geometry, memory
//! charging before allocation, `apply`, and `recover_block`. A segment
//! holds a block size only once a seed pass has solved one (its seeds
//! belong to it); otherwise its consumer solves the geometry.
//!
//! Eager points are where the static lowering has them, so a plan
//! applies every closure to the same elements as the static
//! combinators do — the demand windows and fault outcomes `bds-check`
//! verifies:
//!
//! - each scan seeds its blocks with one eager pass over its input
//!   (phases 1–2); a `map_idx` after a stage that drops elements gets
//!   its blocks' position bases from the same kind of pass, over
//!   survivor counts;
//! - a cut on the random-access prefix only narrows the window, so the
//!   stages before it run on the cut's window alone;
//! - a cut after a filter or scan forces the segment so far into a
//!   vector, which becomes the next segment's input.
//!
//! [`ExecMode::Sequential`] runs each segment as one block in the
//! caller; [`ExecMode::Parallel`] uses the solved geometry on the pool.
//!
//! Closure hygiene: every `execute` call builds its segments from the
//! pipe's own stage list. The [`Plan`] contributes only the mode, so a
//! plan shared across pipelines (or tenants) can never leak one
//! caller's captures into another's run.

use std::ops::Range;
use std::sync::Arc;

use bds_cost::{ElemCost, SIMPLE};
use bds_pool::PollTicker;
use bds_seq::simd::CHUNK;
use bds_seq::stream::{self, ChunkedStream, Geometry};

use crate::kernel::{ChunkFn, FillFn, IndexedFn, Positions, ScanFn};
use crate::optimize::{ExecMode, Plan};
use crate::pipe::{Consumed, ConsumerOp, Pipe, SourceOp, StageOp};

impl<T: Send + Sync + Clone + 'static> Pipe<T> {
    /// Run this pipeline under `plan`, feeding the final stream to
    /// `consumer`.
    ///
    /// The plan must have been produced for this pipe's
    /// [`shape`](Pipe::shape) (any pipe of equal shape works — that is
    /// the plan cache's whole point).
    ///
    /// # Panics
    ///
    /// If `plan.shape` disagrees with this pipe's stage list — a plan
    /// from a different shape chose its mode for another pipeline.
    pub fn execute(&self, plan: &Plan, consumer: &ConsumerOp<T>) -> Consumed<T> {
        let shape = self.shape(consumer.kind());
        assert_eq!(
            plan.shape, shape,
            "plan was built for a different pipeline shape"
        );
        let mut seg = Segment::of_source(&self.source, plan.mode);
        for stage in &self.stages {
            seg = seg.then(stage);
        }
        seg.consume(consumer)
    }
}

/// Where a segment's elements come from.
enum Input<T> {
    Tabulate(FillFn<T>),
    Data(Arc<Vec<T>>),
}

/// The part of a segment's input that its cuts select:
/// `input[offset..offset + len]`, read backwards when `reversed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    offset: usize,
    len: usize,
    reversed: bool,
}

impl Window {
    fn all(len: usize) -> Window {
        Window {
            offset: 0,
            len,
            reversed: false,
        }
    }

    /// Narrow by one cut. Walking a chain of cuts while tracking
    /// orientation selects exactly the window the stage-by-stage cuts
    /// would.
    fn cut<T>(&mut self, stage: &StageOp<T>) {
        match stage {
            StageOp::Take(k) => {
                let k = (*k).min(self.len);
                if self.reversed {
                    // Keeping the first k of a reversed view keeps the
                    // *last* k of the underlying window.
                    self.offset += self.len - k;
                }
                self.len = k;
            }
            StageOp::Skip(k) => {
                let k = (*k).min(self.len);
                if !self.reversed {
                    self.offset += k;
                }
                self.len -= k;
            }
            StageOp::Rev => self.reversed = !self.reversed,
            _ => unreachable!("only cuts narrow a window"),
        }
    }

    /// Input index of window position `p`.
    fn index(&self, p: usize) -> usize {
        if self.reversed {
            self.offset + self.len - 1 - p
        } else {
            self.offset + p
        }
    }

    /// Window position of input index `i`, which the window contains.
    fn position(&self, i: usize) -> usize {
        if self.reversed {
            self.offset + self.len - 1 - i
        } else {
            i - self.offset
        }
    }

    /// The input range behind window positions `lo..hi`, and whether
    /// to walk it backwards.
    fn span(&self, lo: usize, hi: usize) -> (Range<usize>, bool) {
        if self.reversed {
            let end = self.offset + self.len;
            (end - hi..end - lo, true)
        } else {
            (self.offset + lo..self.offset + hi, false)
        }
    }
}

/// One stage of a segment, as the interpreter runs it.
enum Op<T> {
    /// `map`.
    Map(ChunkFn<T>),
    /// `filter` or `filter_map`: may drop elements.
    Filter(ChunkFn<T>),
    /// `map_idx`.
    Indexed(IndexedFn<T>, At),
    /// `scan` or `scan_incl`. `seeds[j]` starts block `j`; empty
    /// means one block, started by `zero`.
    Scan {
        kernel: ScanFn<T>,
        zero: T,
        inclusive: bool,
        seeds: Vec<T>,
    },
}

/// How a `map_idx` learns its elements' indices.
enum At {
    /// No earlier stage of the segment drops elements, so the stage
    /// sees the segment's input through this window (the final window
    /// is the same or narrower).
    Window(Window),
    /// An earlier stage drops elements: block `j`'s survivors start at
    /// `bases[j]`; empty means one block, starting at 0.
    Counted(Vec<usize>),
}

/// A block's running state for one op.
enum Carry<T> {
    None,
    Pos(usize),
    Acc(T),
}

impl<T: Clone> Op<T> {
    fn drops(&self) -> bool {
        matches!(self, Op::Filter(_))
    }

    /// Whether random access ends here: a cut after this op forces.
    fn collapses(&self) -> bool {
        self.drops() || matches!(self, Op::Scan { .. })
    }

    fn carry(&self, j: usize) -> Carry<T> {
        match self {
            Op::Indexed(_, At::Counted(bases)) => Carry::Pos(bases.get(j).copied().unwrap_or(0)),
            Op::Scan { zero, seeds, .. } => Carry::Acc(seeds.get(j).unwrap_or(zero).clone()),
            _ => Carry::None,
        }
    }

    /// Run this op over a chunk that starts at position `at` of the
    /// segment's final `window`.
    fn run(&self, chunk: &mut Vec<T>, carry: &mut Carry<T>, window: &Window, at: usize) {
        match (self, carry) {
            (Op::Map(f) | Op::Filter(f), _) => f(chunk),
            (Op::Indexed(f, At::Window(seen)), _) => f(
                chunk,
                Positions {
                    start: seen.position(window.index(at)),
                    descending: seen.reversed != window.reversed,
                },
            ),
            (Op::Indexed(f, At::Counted(_)), Carry::Pos(pos)) => {
                f(
                    chunk,
                    Positions {
                        start: *pos,
                        descending: false,
                    },
                );
                *pos += chunk.len();
            }
            (
                Op::Scan {
                    kernel, inclusive, ..
                },
                Carry::Acc(acc),
            ) => kernel.prefix(acc, chunk, *inclusive),
            _ => unreachable!("carry built for a different op"),
        }
    }
}

/// An input, its window, and the stages run over it up to the next
/// force.
struct Segment<T> {
    input: Input<T>,
    window: Window,
    ops: Vec<Op<T>>,
    /// Per-element cost of reading the input and running every op: one
    /// simple application each.
    cost: ElemCost,
    mode: ExecMode,
    /// The block size the seed passes ran under: their seeds belong to
    /// it, so the pass they seed must be cut there too. `None` until a
    /// seed pass runs; a segment without one is cut wherever its
    /// consumer solves.
    bs: Option<usize>,
}

impl<T: Send + Sync + Clone + 'static> Segment<T> {
    fn of_source(source: &SourceOp<T>, mode: ExecMode) -> Segment<T> {
        match source {
            SourceOp::Tabulate(n, fill) => Segment::new(Input::Tabulate(fill.clone()), *n, mode),
            SourceOp::FromVec(data) => Segment::new(Input::Data(data.clone()), data.len(), mode),
        }
    }

    fn new(input: Input<T>, len: usize, mode: ExecMode) -> Segment<T> {
        Segment {
            input,
            window: Window::all(len),
            ops: Vec::new(),
            cost: SIMPLE,
            mode,
            bs: None,
        }
    }

    /// Append one stage.
    fn then(mut self, stage: &StageOp<T>) -> Segment<T> {
        let op = match stage {
            StageOp::Take(_) | StageOp::Skip(_) | StageOp::Rev => {
                if self.ops.iter().any(Op::collapses) {
                    // A cut on a block-iterable stream forces it.
                    let mode = self.mode;
                    let data = self.collect();
                    let len = data.len();
                    self = Segment::new(Input::Data(Arc::new(data)), len, mode);
                }
                self.window.cut(stage);
                return self;
            }
            StageOp::Map(f) => Op::Map(f.clone()),
            StageOp::Filter(f) | StageOp::FilterMap(f) => Op::Filter(f.clone()),
            StageOp::MapIdx(f) => {
                let at = if self.ops.iter().any(Op::drops) {
                    At::Counted(Vec::new())
                } else {
                    At::Window(self.window)
                };
                Op::Indexed(f.clone(), at)
            }
            StageOp::Scan(zero, kernel) | StageOp::ScanIncl(zero, kernel) => Op::Scan {
                kernel: kernel.clone(),
                zero: zero.clone(),
                inclusive: matches!(stage, StageOp::ScanIncl(..)),
                seeds: Vec::new(),
            },
        };
        self.ops.push(op);
        self.cost += SIMPLE;
        self
    }

    fn fixed_block_size(&self) -> Option<usize> {
        match self.mode {
            ExecMode::Sequential => Some(self.window.len.max(1)),
            ExecMode::Parallel => self.bs,
        }
    }

    /// Append the input elements behind window positions `lo..hi`.
    fn fill(&self, chunk: &mut Vec<T>, lo: usize, hi: usize) {
        let (range, backwards) = self.window.span(lo, hi);
        match &self.input {
            Input::Tabulate(fill) => fill(chunk, range, backwards),
            Input::Data(data) if backwards => chunk.extend(data[range].iter().rev().cloned()),
            Input::Data(data) => chunk.extend_from_slice(&data[range]),
        }
    }

    /// The eager seed passes: each scan's per-block accumulators, and
    /// each counted `map_idx`'s per-block position bases, in stage
    /// order (a later pass streams through the earlier stages' seeds).
    /// A single block needs none: it starts from the scan's zero and
    /// from position 0.
    fn seed(&mut self) {
        let seeded = |op: &Op<T>| matches!(op, Op::Scan { .. } | Op::Indexed(_, At::Counted(_)));
        if !self.ops.iter().any(seeded) {
            return;
        }
        // The seed passes consume the segment with one combine per
        // element; their geometry is kept for the pass they seed.
        let g = stream::geometry(self.window.len, self.fixed_block_size(), self.cost + SIMPLE);
        self.bs = Some(g.bs);
        if g.nb <= 1 {
            return;
        }
        for k in 0..self.ops.len() {
            let input = Upto {
                seg: &*self,
                ops: k,
            };
            match &self.ops[k] {
                Op::Scan { kernel, zero, .. } => {
                    let totals =
                        stream::block_folds(&input, &|t: &mut Option<T>, c: &mut Vec<T>| {
                            kernel.fold(t, c)
                        });
                    let mut acc = zero.clone();
                    let mut starts = Vec::with_capacity(totals.len());
                    for t in totals {
                        starts.push(acc.clone());
                        if let Some(t) = t {
                            acc = kernel.combine(acc, t);
                        }
                    }
                    if let Op::Scan { seeds, .. } = &mut self.ops[k] {
                        *seeds = starts;
                    }
                }
                Op::Indexed(_, At::Counted(_)) => {
                    let counts =
                        stream::block_folds(&input, &|n: &mut usize, c: &mut Vec<T>| *n += c.len());
                    let starts = counts
                        .iter()
                        .scan(0, |acc, n| {
                            let base = *acc;
                            *acc += n;
                            Some(base)
                        })
                        .collect();
                    if let Op::Indexed(_, At::Counted(bases)) = &mut self.ops[k] {
                        *bases = starts;
                    }
                }
                _ => {}
            }
        }
    }

    fn whole(&self) -> Upto<'_, T> {
        Upto {
            seg: self,
            ops: self.ops.len(),
        }
    }

    fn collect(mut self) -> Vec<T> {
        self.seed();
        stream::to_vec_chunked(&self.whole())
    }

    fn consume(mut self, consumer: &ConsumerOp<T>) -> Consumed<T> {
        self.seed();
        let s = self.whole();
        match consumer {
            ConsumerOp::Collect => Consumed::Vec(stream::to_vec_chunked(&s)),
            ConsumerOp::Reduce(zero, f, _) => {
                Consumed::Scalar(stream::reduce_chunked(&s, zero.clone(), &|a, b| f(a, b)))
            }
            ConsumerOp::Count(p, _) => Consumed::Num(stream::count_chunked(&s, &|x| p(x))),
        }
    }
}

/// A segment's first `ops` stages as a chunked stream: the whole
/// segment, or the input of the stage a seed pass is for.
struct Upto<'s, T> {
    seg: &'s Segment<T>,
    ops: usize,
}

impl<T: Send + Sync + Clone + 'static> ChunkedStream for Upto<'_, T> {
    type Item = T;

    fn len(&self) -> usize {
        self.seg.window.len
    }

    fn exact(&self) -> bool {
        !self.seg.ops[..self.ops].iter().any(Op::drops)
    }

    fn fixed_block_size(&self) -> Option<usize> {
        self.seg.fixed_block_size()
    }

    fn elem_cost(&self) -> ElemCost {
        self.seg.cost
    }

    fn stream_chunks<F: FnMut(&mut Vec<T>)>(&self, g: Geometry, j: usize, mut sink: F) {
        let seg = self.seg;
        let ops = &seg.ops[..self.ops];
        let mut carry: Vec<Carry<T>> = ops.iter().map(|op| op.carry(j)).collect();
        let (lo, hi) = stream::block_bounds(g.len, g.bs, j);
        let mut chunk = Vec::with_capacity(CHUNK.min(hi - lo));
        let mut ticker = PollTicker::new();
        let mut at = lo;
        while at < hi {
            let end = (at + CHUNK).min(hi);
            ticker.tick_n(end - at);
            chunk.clear();
            seg.fill(&mut chunk, at, end);
            for (op, carry) in ops.iter().zip(&mut carry) {
                if chunk.is_empty() {
                    break;
                }
                op.run(&mut chunk, carry, &seg.window, at);
            }
            if !chunk.is_empty() {
                sink(&mut chunk);
            }
            at = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    use super::*;
    use crate::optimize::{identity_plan, optimize};
    use crate::shape::ConsumerKind;

    /// Held by tests that force a block size or count closure calls:
    /// the block-size override is process-global.
    static GEOMETRY: Mutex<()> = Mutex::new(());

    /// A stage with a plain closure, so one list builds both a [`Pipe`]
    /// and its plain-iterator reference. Scans start from 0, which
    /// every combiner used here has as its identity.
    #[derive(Clone, Copy)]
    enum S {
        Map(fn(u64) -> u64),
        MapIdx(fn(usize, u64) -> u64),
        Filter(fn(&u64) -> bool),
        FilterMap(fn(u64) -> Option<u64>),
        Scan(fn(u64, u64) -> u64),
        ScanIncl(fn(u64, u64) -> u64),
        Take(usize),
        Skip(usize),
        Rev,
    }

    fn tab(i: usize) -> u64 {
        (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40
    }

    /// A pipeline over `0..n` through `tab`, tabulated or materialised.
    fn pipe(n: usize, from_vec: bool, stages: &[S]) -> Pipe<u64> {
        let mut p = if from_vec {
            Pipe::from_vec((0..n).map(tab).collect())
        } else {
            Pipe::tabulate(n, tab)
        };
        for s in stages {
            p = match *s {
                S::Map(f) => p.map(f),
                S::MapIdx(f) => p.map_idx(f),
                S::Filter(f) => p.filter(f),
                S::FilterMap(f) => p.filter_map(f),
                S::Scan(f) => p.scan(0, f),
                S::ScanIncl(f) => p.scan_incl(0, f),
                S::Take(k) => p.take(k),
                S::Skip(k) => p.skip(k),
                S::Rev => p.rev(),
            };
        }
        p
    }

    /// Reference evaluation by plain iterators.
    fn reference(n: usize, stages: &[S]) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).map(tab).collect();
        for s in stages {
            v = match *s {
                S::Map(f) => v.into_iter().map(f).collect(),
                S::MapIdx(f) => v.into_iter().enumerate().map(|(i, x)| f(i, x)).collect(),
                S::Filter(f) => v.into_iter().filter(f).collect(),
                S::FilterMap(f) => v.into_iter().filter_map(f).collect(),
                S::Scan(f) => v
                    .into_iter()
                    .scan(0, |acc, x| {
                        let out = *acc;
                        *acc = f(*acc, x);
                        Some(out)
                    })
                    .collect(),
                S::ScanIncl(f) => v
                    .into_iter()
                    .scan(0, |acc, x| {
                        *acc = f(*acc, x);
                        Some(*acc)
                    })
                    .collect(),
                S::Take(k) => v.into_iter().take(k).collect(),
                S::Skip(k) => v.into_iter().skip(k).collect(),
                S::Rev => v.into_iter().rev().collect(),
            };
        }
        v
    }

    /// Run `p` under the optimized plan and the identity plan in both
    /// modes, through every consumer, against `want`.
    fn check(p: &Pipe<u64>, want: &[u64], what: &str) {
        let consumers = [
            (ConsumerKind::Collect, ConsumerOp::Collect),
            (
                ConsumerKind::Reduce,
                ConsumerOp::Reduce(0, Arc::new(u64::wrapping_add), SIMPLE),
            ),
            (
                ConsumerKind::Count,
                ConsumerOp::Count(Arc::new(|x: &u64| x.is_multiple_of(3)), SIMPLE),
            ),
        ];
        for (kind, consumer) in &consumers {
            let expect = match consumer {
                ConsumerOp::Collect => Consumed::Vec(want.to_vec()),
                ConsumerOp::Reduce(..) => {
                    Consumed::Scalar(want.iter().fold(0u64, |a, &b| a.wrapping_add(b)))
                }
                ConsumerOp::Count(..) => {
                    Consumed::Num(want.iter().filter(|&&x| x % 3 == 0).count())
                }
            };
            let shape = p.shape(*kind);
            for plan in [
                optimize(shape.clone(), 4),
                identity_plan(shape.clone(), ExecMode::Parallel),
                identity_plan(shape.clone(), ExecMode::Sequential),
            ] {
                assert_eq!(
                    p.execute(&plan, consumer),
                    expect,
                    "{what}: {kind:?} under {:?}",
                    plan.mode
                );
            }
        }
    }

    fn check_all(n: usize, stages: &[S], what: &str) {
        let want = reference(n, stages);
        for from_vec in [false, true] {
            check(&pipe(n, from_vec, stages), &want, what);
        }
    }

    #[test]
    fn chunk_seams_blocks_and_modes_match_the_reference() {
        let _g = GEOMETRY.lock().unwrap_or_else(|e| e.into_inner());
        for n in [0, 1, 1023, 1024, 1025, 3 * 1024 + 17] {
            let shapes: [(&str, Vec<S>); 4] = [
                (
                    "leading gather",
                    vec![
                        S::Skip(3),
                        S::Rev,
                        S::Take(n * 2 / 3),
                        S::MapIdx(|i, x| x ^ i as u64),
                        S::Map(|x| x * 5),
                        S::Filter(|x| x % 2 == 0),
                    ],
                ),
                (
                    "scan after filter",
                    vec![
                        S::Map(|x| x % 1000),
                        S::Filter(|x| x % 3 != 0),
                        S::Scan(u64::wrapping_add),
                        S::Map(|x| x / 2),
                        S::ScanIncl(u64::max),
                    ],
                ),
                (
                    "map_idx after filter",
                    vec![
                        S::FilterMap(|x| (x % 5 != 0).then_some(x + 1)),
                        S::MapIdx(|i, x| x.wrapping_mul(i as u64 + 1)),
                        S::Filter(|x| x % 7 != 0),
                        S::MapIdx(|i, x| x ^ (i as u64) << 3),
                    ],
                ),
                (
                    "cut after filter",
                    vec![
                        S::Filter(|x| x % 4 != 1),
                        S::MapIdx(|i, x| x + i as u64),
                        S::Take(n / 2 + 1),
                        S::Rev,
                        S::MapIdx(|i, x| x ^ i as u64),
                        S::Skip(2),
                        S::Scan(u64::wrapping_add),
                    ],
                ),
            ];
            for (name, stages) in &shapes {
                for bs in [None, Some(7), Some(1000)] {
                    let _bs = bs.map(bds_seq::force_block_size);
                    check_all(n, stages, &format!("{name}, n={n}, bs={bs:?}"));
                }
            }
        }
    }

    #[test]
    fn gather_composition_matches_stage_by_stage_cuts() {
        let cut_chains: Vec<Vec<S>> = vec![
            vec![S::Rev, S::Take(3)],
            vec![S::Skip(2), S::Rev],
            vec![S::Take(50), S::Skip(20), S::Rev],
            vec![S::Rev, S::Rev],
            vec![S::Skip(30), S::Take(40), S::Rev, S::Skip(5)],
            vec![S::Take(0), S::Rev],
            vec![S::Take(200), S::Skip(200)],
            vec![S::Rev, S::Skip(97), S::Take(99)],
        ];
        for chain in cut_chains {
            // A map_idx ahead of the cuts sees the source's indices,
            // which a reversing cut walks backwards.
            let mut stages = vec![S::MapIdx(|i, x| x * 7 + i as u64)];
            stages.extend(chain);
            check_all(100, &stages, "cut chain");
        }
    }

    #[test]
    fn mixed_pipelines_agree_across_all_plans() {
        check_all(
            512,
            &[
                S::MapIdx(|i, x| x + i as u64),
                S::Scan(u64::wrapping_add),
                S::Take(300),
                S::Rev,
                S::Skip(10),
                S::Filter(|x| x % 2 == 0),
                S::Map(|x| x + 1),
                S::ScanIncl(u64::wrapping_add),
            ],
            "mixed",
        );
    }

    #[test]
    fn cuts_on_the_random_access_prefix_demand_only_their_window() {
        let _g = GEOMETRY.lock().unwrap_or_else(|e| e.into_inner());
        let calls = Arc::new(AtomicUsize::new(0));
        let c = calls.clone();
        let p = Pipe::tabulate(10_000, |i| i as u64)
            .map(move |x| {
                c.fetch_add(1, Ordering::Relaxed);
                x
            })
            .rev()
            .skip(100)
            .take(50);
        for mode in [ExecMode::Parallel, ExecMode::Sequential] {
            calls.store(0, Ordering::Relaxed);
            let plan = identity_plan(p.shape(ConsumerKind::Collect), mode);
            let want: Vec<u64> = (9850..9900).rev().collect();
            assert_eq!(p.execute(&plan, &ConsumerOp::Collect), Consumed::Vec(want));
            assert_eq!(calls.load(Ordering::Relaxed), 50, "{mode:?}");
        }
    }

    #[test]
    fn collects_charge_the_memory_budget_before_allocating() {
        for stages in [vec![S::Map(|x| x + 1)], vec![S::Filter(|x| x % 2 == 0)]] {
            let p = pipe(100_000, false, &stages);
            for mode in [ExecMode::Parallel, ExecMode::Sequential] {
                let plan = identity_plan(p.shape(ConsumerKind::Collect), mode);
                let tight = bds_pool::Budget::unlimited().with_mem_bytes(1024);
                let r = bds_pool::run_governed(tight, || p.execute(&plan, &ConsumerOp::Collect));
                assert_eq!(r, Err(bds_pool::Exceeded::Memory), "{mode:?}");
            }
        }
    }

    #[test]
    fn both_modes_abandon_a_cancelled_run_within_one_chunk() {
        let _g = GEOMETRY.lock().unwrap_or_else(|e| e.into_inner());
        // Sixteen blocks in parallel mode, so a filtered collect packs
        // several blocks and a scan runs its seed pass.
        let _bs = bds_seq::force_block_size(4 * CHUNK);
        let calls = Arc::new(AtomicUsize::new(0));
        let c = calls.clone();
        let source = Pipe::tabulate(1 << 16, move |i| {
            if c.fetch_add(1, Ordering::Relaxed) == 0 {
                bds_pool::cancel::current_token()
                    .expect("the run has an ambient token")
                    .cancel();
            }
            i as u64
        });
        let pipes = [
            ("exact", source.clone()),
            ("filter", source.clone().filter(|x| x % 2 == 0)),
            ("scan", source.scan(0, u64::wrapping_add)),
        ];
        let consumers = [
            ConsumerOp::Collect,
            ConsumerOp::Reduce(0, Arc::new(u64::wrapping_add), SIMPLE),
            ConsumerOp::Count(Arc::new(|x: &u64| x.is_multiple_of(3)), SIMPLE),
        ];
        // One worker: blocks run one after another, so only the block
        // that cancelled can be mid-chunk when the token trips.
        let pool = bds_pool::Pool::new(1);
        for (name, p) in &pipes {
            for consumer in &consumers {
                for mode in [ExecMode::Parallel, ExecMode::Sequential] {
                    let what = format!("{name}, {:?}, {mode:?}", consumer.kind());
                    calls.store(0, Ordering::Relaxed);
                    let token = bds_pool::CancelToken::new();
                    let plan = identity_plan(p.shape(consumer.kind()), mode);
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        pool.install(|| bds_pool::with_token(&token, || p.execute(&plan, consumer)))
                    }));
                    assert!(run.is_err(), "{what}: a cancelled run must be abandoned");
                    let made = calls.load(Ordering::Relaxed);
                    assert!(
                        made <= CHUNK,
                        "{what}: {made} source calls after cancelling at the first"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "different pipeline shape")]
    fn executing_a_foreign_plan_is_refused() {
        let a = Pipe::tabulate(100, |i| i as u64).map(|x| x);
        let b = Pipe::tabulate(100, |i| i as u64).take(5);
        let plan = optimize(b.shape(ConsumerKind::Collect), 4);
        let _ = a.execute(&plan, &ConsumerOp::Collect);
    }
}
