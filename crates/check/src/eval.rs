//! Lowering one [`Pipeline`] AST onto each implementation under test.
//!
//! Five evaluators share one closure-builder layer, so a poisoned
//! closure has **identical** semantics everywhere — the only thing that
//! differs between evaluators is which library executes it:
//!
//! | evaluator | library | representation |
//! |-----------|---------|----------------|
//! | [`eval_oracle`]  | none — straight-line sequential loops | `Vec<u64>` |
//! | [`eval_array`]   | `bds_baseline::array` (eager, unfused) | `Vec<u64>` |
//! | [`eval_rad`]     | `bds_baseline::rad` (index fusion) | composed `Fn(usize) -> u64` |
//! | [`eval_delay`]   | `bds_seq` (static block-delayed) | [`BoxRad`]/[`BoxSeq`] |
//! | [`eval_dynseq`]  | `bds_seq::dynseq` (dynamic tagged union) | [`DSeq`] |
//!
//! Evaluators return an [`Outcome`] or panic/`Err` exactly where the
//! underlying library would; the runner wraps each call in
//! `catch_unwind` and classifies panics.
//!
//! Index-space cuts (`take`/`skip`/`rev`) follow **one** fault-
//! surfacing rule in every lowering — *cuts narrow demand on RAD
//! segments and force BID segments whole* (see [`demand_windows`]) —
//! so pipelines may freely place cuts after fault sites and still
//! agree bit-for-bit on whether the fault fires.

use std::sync::Arc;

use bds_baseline::{array, rad};
use bds_seq::dynseq::DSeq;
use bds_seq::prelude::*;
use bds_seq::{tabulate, BoxRad, BoxSeq, Forced};

use crate::ast::{
    fault_should_fire, CombOp, Consumer, MapOp, Outcome, Pipeline, PredOp, Source, Stage,
    FAULT_ERR, FAULT_MARKER,
};

// ---------------------------------------------------------------------
// Shared closure builders. All ops are `Copy`, so these return `Copy`
// closures usable in any library's generic positions without `Arc`
// indirection. A closure is "poisoned" when `poison` is `Some`: it
// panics with [`FAULT_MARKER`] when its input equals the poison value
// and the process-wide fire budget allows (unlimited by default; the
// retry legs cap it to model transient faults — see
// [`fault_should_fire`]).
// ---------------------------------------------------------------------

/// Element-wise map closure, optionally panic-poisoned on its input.
pub fn map_fn(
    op: MapOp,
    poison: Option<u64>,
) -> impl Fn(u64) -> u64 + Copy + Send + Sync + 'static {
    move |x| {
        if Some(x) == poison && fault_should_fire() {
            panic!("{FAULT_MARKER}");
        }
        op.apply(x)
    }
}

/// Predicate closure, optionally panic-poisoned on its input.
pub fn pred_fn(
    op: PredOp,
    poison: Option<u64>,
) -> impl Fn(&u64) -> bool + Copy + Send + Sync + 'static {
    move |&x| {
        if Some(x) == poison && fault_should_fire() {
            panic!("{FAULT_MARKER}");
        }
        op.apply(x)
    }
}

/// Fused `filterOp` closure: `Some(map(x))` when `pred(x)`, optionally
/// panic-poisoned on its input (checked before the predicate).
pub fn filter_op_fn(
    pred: PredOp,
    map: MapOp,
    poison: Option<u64>,
) -> impl Fn(u64) -> Option<u64> + Copy + Send + Sync + 'static {
    move |x| {
        if Some(x) == poison && fault_should_fire() {
            panic!("{FAULT_MARKER}");
        }
        if pred.apply(x) {
            Some(map.apply(x))
        } else {
            None
        }
    }
}

/// Fallible predicate closure: panics on `panic_poison`, returns
/// `Err(FAULT_ERR)` on `err_poison`, otherwise `Ok(pred(x))`. Only the
/// panic branch consults the fire budget — `Err` faults are return
/// values, not block faults, and are never retried.
pub fn try_pred_fn(
    op: PredOp,
    panic_poison: Option<u64>,
    err_poison: Option<u64>,
) -> impl Fn(&u64) -> Result<bool, u64> + Copy + Send + Sync + 'static {
    move |&x| {
        if Some(x) == panic_poison && fault_should_fire() {
            panic!("{FAULT_MARKER}");
        }
        if Some(x) == err_poison {
            return Err(FAULT_ERR);
        }
        Ok(op.apply(x))
    }
}

/// Combiner closure. Never poisoned (see `crate::ast` module docs).
pub fn comb_fn(op: CombOp) -> impl Fn(u64, u64) -> u64 + Copy + Send + Sync + 'static {
    move |a, b| op.apply(a, b)
}

// ---------------------------------------------------------------------
// Pure (fault-free) stage semantics — the generator's stream tracker.
// ---------------------------------------------------------------------

/// Apply one stage to a materialized stream, sequentially, with no
/// faults. This is the reference semantics the generator uses to track
/// live values; [`eval_oracle`] is this plus poisoned closures.
pub fn apply_stage_pure(v: Vec<u64>, stage: &Stage) -> Vec<u64> {
    match stage {
        Stage::Map(op) => v.into_iter().map(|x| op.apply(x)).collect(),
        Stage::ZipIota(zc) => v
            .into_iter()
            .enumerate()
            .map(|(i, x)| zc.apply(x, i as u64))
            .collect(),
        Stage::ZipData(zc, data) => v
            .into_iter()
            .enumerate()
            .map(|(i, x)| zc.apply(x, data[i % data.len()]))
            .collect(),
        Stage::Filter(p) => v.into_iter().filter(|&x| p.apply(x)).collect(),
        Stage::FilterOp(p, m) => v
            .into_iter()
            .filter_map(|x| if p.apply(x) { Some(m.apply(x)) } else { None })
            .collect(),
        Stage::Scan(c) => {
            let mut acc = c.identity();
            v.into_iter()
                .map(|x| {
                    let out = acc;
                    acc = c.apply(acc, x);
                    out
                })
                .collect()
        }
        Stage::ScanIncl(c) => {
            let mut acc = c.identity();
            v.into_iter()
                .map(|x| {
                    acc = c.apply(acc, x);
                    acc
                })
                .collect()
        }
        Stage::Take(k) => {
            let mut v = v;
            v.truncate(*k);
            v
        }
        Stage::Skip(k) => {
            let mut v = v;
            if *k < v.len() {
                v.drain(..*k);
            } else {
                v.clear();
            }
            v
        }
        Stage::Rev => {
            let mut v = v;
            v.reverse();
            v
        }
    }
}

// ---------------------------------------------------------------------
// Demand windows: the canonical fault-surfacing semantics for cuts.
// ---------------------------------------------------------------------

/// Which input indices of each stage are **demanded** under the
/// canonical fault-surfacing semantics for index-space cuts
/// (take/skip/rev), per stage: `Some((lo, hi))` is a half-open index
/// range of that stage's input, `None` means every index.
///
/// The rule (enforced by every lowering, documented in DESIGN.md):
///
/// * **RAD segments narrow.** An element-wise closure whose input is
///   still random-access-delayed is evaluated only on the indices that
///   survive the downstream cut chain, up to the next collapse point
///   (filter / scan / the consumer — those always demand their whole
///   input).
/// * **BID cuts force.** A cut applied to a block-iterable stream
///   forces the *whole* stream first, so every fused closure observes
///   its full input; the cut happens on the materialized result.
///
/// Only `Map` stages can end up with a narrowed window: zips are never
/// fault sites, and filters/scans/consumers sit at collapse points.
/// A fault whose poison only occurs outside the demanded window must
/// not fire in **any** lowering — eager evaluators (oracle, array)
/// consult these windows to suppress exactly those closure
/// applications.
pub fn demand_windows(p: &Pipeline) -> Vec<Option<(usize, usize)>> {
    let n = p.stages.len();
    // Forward pass: each stage's input length and representation.
    let mut lens = Vec::with_capacity(n + 1);
    let mut reprs = Vec::with_capacity(n);
    let mut v = p.source.eval();
    let mut bidlike = matches!(p.source, Source::Flatten(_));
    for stage in &p.stages {
        lens.push(v.len());
        reprs.push(bidlike);
        bidlike = match stage {
            Stage::Map(_) | Stage::ZipIota(_) | Stage::ZipData(..) => bidlike,
            Stage::Filter(_) | Stage::FilterOp(..) | Stage::Scan(_) | Stage::ScanIncl(_) => true,
            Stage::Take(_) | Stage::Skip(_) | Stage::Rev => false,
        };
        v = apply_stage_pure(v, stage);
    }
    lens.push(v.len());

    (0..n)
        .map(|i| {
            if !matches!(p.stages[i], Stage::Map(_)) || reprs[i] {
                return None;
            }
            // Walk forward to the next collapse point; everything in
            // between is element-wise or a cut, both index-trackable.
            let mut j = i + 1;
            while j < n
                && !matches!(
                    p.stages[j],
                    Stage::Filter(_) | Stage::FilterOp(..) | Stage::Scan(_) | Stage::ScanIncl(_)
                )
            {
                j += 1;
            }
            // Full demand at the boundary, composed backwards through
            // the cuts into stage i's input index space. The starting
            // length already reflects every take/skip in between.
            let (mut lo, mut hi) = (0usize, lens[j]);
            for k in (i + 1..j).rev() {
                let len_in = lens[k];
                match &p.stages[k] {
                    // A prefix: indices are unchanged (the narrowing is
                    // carried by the boundary length).
                    Stage::Take(_) => {}
                    Stage::Skip(s) => {
                        let s = (*s).min(len_in);
                        lo += s;
                        hi += s;
                    }
                    Stage::Rev => (lo, hi) = (len_in - hi, len_in - lo),
                    // Element-wise: index-preserving.
                    _ => {}
                }
            }
            if (lo, hi) == (0, lens[i]) {
                None
            } else {
                Some((lo, hi))
            }
        })
        .collect()
}

/// The demand windows when the pipeline carries a fault — fault-free
/// pipelines behave identically with or without narrowing, so the
/// extra reference evaluation is skipped.
fn demand_windows_if_faulted(p: &Pipeline) -> Vec<Option<(usize, usize)>> {
    if p.fault.is_some() {
        demand_windows(p)
    } else {
        vec![None; p.stages.len()]
    }
}

// ---------------------------------------------------------------------
// Oracle: straight-line sequential evaluation with poisoned closures.
// ---------------------------------------------------------------------

/// Evaluate sequentially with single loops — no blocks, no pool, no
/// fusion. Panics exactly where a poisoned closure fires, restricted
/// to the demanded indices of each stage ([`demand_windows`]).
pub fn eval_oracle(p: &Pipeline) -> Outcome {
    let windows = demand_windows_if_faulted(p);
    let mut v = p.source.eval();
    for (i, stage) in p.stages.iter().enumerate() {
        let poison = p.stage_panic_poison(i);
        v = match stage {
            Stage::Map(op) => {
                let f = map_fn(*op, poison);
                match windows[i] {
                    None => v.into_iter().map(f).collect(),
                    // Outside the demanded window the closure never
                    // runs in a delayed lowering; apply the pure op
                    // (same value, no poison check) — those positions
                    // are cut before they can reach the output anyway.
                    Some((lo, hi)) => v
                        .into_iter()
                        .enumerate()
                        .map(|(idx, x)| if lo <= idx && idx < hi { f(x) } else { op.apply(x) })
                        .collect(),
                }
            }
            Stage::Filter(pr) => {
                let f = pred_fn(*pr, poison);
                v.into_iter().filter(|x| f(x)).collect()
            }
            Stage::FilterOp(pr, m) => {
                let f = filter_op_fn(*pr, *m, poison);
                v.into_iter().filter_map(f).collect()
            }
            other => apply_stage_pure(v, other),
        };
    }
    match p.consumer {
        Consumer::ToVec | Consumer::Force => Outcome::Value(v),
        Consumer::Reduce(c) | Consumer::TryReduce(c) => {
            Outcome::Scalar(v.into_iter().fold(c.identity(), |a, b| c.apply(a, b)))
        }
        Consumer::Count(pr) => {
            let f = pred_fn(pr, p.consumer_panic_poison());
            Outcome::Num(v.iter().filter(|x| f(x)).count())
        }
        Consumer::FilterCollect(pr) => {
            let f = pred_fn(pr, p.consumer_panic_poison());
            Outcome::Value(v.into_iter().filter(|x| f(x)).collect())
        }
        Consumer::TryFilterCollect(pr) => {
            let f = try_pred_fn(pr, p.consumer_panic_poison(), p.consumer_err_poison());
            let mut out = Vec::new();
            for x in v {
                match f(&x) {
                    Ok(true) => out.push(x),
                    Ok(false) => {}
                    Err(e) => return Outcome::ErrCode(e),
                }
            }
            Outcome::Value(out)
        }
    }
}

// ---------------------------------------------------------------------
// Array comparator: eager, unfused, parallel.
// ---------------------------------------------------------------------

/// Evaluate with `bds_baseline::array`: every stage reads and writes a
/// real array in parallel. `Take`/`Skip`/`Rev` use plain `Vec` edits
/// (the baseline library has no delayed view to offer). The fallible
/// consumers fall back to sequential loops — the eager baseline has no
/// cancellation machinery, and the fault discipline guarantees the
/// result is deterministic either way.
pub fn eval_array(p: &Pipeline) -> Outcome {
    let windows = demand_windows_if_faulted(p);
    let mut v = match &p.source {
        Source::Iota(n) => array::tabulate(*n, |i| i as u64),
        Source::TabAffine { n, a, b } => {
            let (a, b) = (*a, *b);
            array::tabulate(*n, move |i| a.wrapping_mul(i as u64).wrapping_add(b))
        }
        Source::FromVec(data) => data.clone(),
        Source::Flatten(parts) => array::flatten(parts),
    };
    for (i, stage) in p.stages.iter().enumerate() {
        let poison = p.stage_panic_poison(i);
        v = match stage {
            Stage::Map(op) => {
                let f = map_fn(*op, poison);
                match windows[i] {
                    None => array::map(&v, move |&x| f(x)),
                    // Eager parallel map, but the poisoned closure only
                    // fires on demanded indices (see demand_windows).
                    Some((lo, hi)) => {
                        let op = *op;
                        let src = Arc::new(v);
                        let s = Arc::clone(&src);
                        array::tabulate(src.len(), move |i| {
                            let x = s[i];
                            if lo <= i && i < hi {
                                f(x)
                            } else {
                                op.apply(x)
                            }
                        })
                    }
                }
            }
            Stage::ZipIota(zc) => {
                let zc = *zc;
                let idx: Vec<u64> = array::tabulate(v.len(), |i| i as u64);
                array::zip_with(&v, &idx, move |&a, &b| zc.apply(a, b))
            }
            Stage::ZipData(zc, data) => {
                let zc = *zc;
                let data = data.clone();
                let dlen = data.len();
                let partner: Vec<u64> = array::tabulate(v.len(), move |i| data[i % dlen]);
                array::zip_with(&v, &partner, move |&a, &b| zc.apply(a, b))
            }
            Stage::Filter(pr) => array::filter(&v, pred_fn(*pr, poison)),
            Stage::FilterOp(pr, m) => {
                let f = filter_op_fn(*pr, *m, poison);
                array::filter_op(&v, move |&x| f(x))
            }
            Stage::Scan(c) => array::scan(&v, c.identity(), comb_fn(*c)).0,
            Stage::ScanIncl(c) => array::scan_incl(&v, c.identity(), comb_fn(*c)),
            Stage::Take(k) => {
                v.truncate(*k);
                v
            }
            Stage::Skip(k) => {
                if *k < v.len() {
                    v.drain(..*k);
                } else {
                    v.clear();
                }
                v
            }
            Stage::Rev => {
                v.reverse();
                v
            }
        };
    }
    match p.consumer {
        Consumer::ToVec | Consumer::Force => Outcome::Value(v),
        Consumer::Reduce(c) => Outcome::Scalar(array::reduce(&v, c.identity(), comb_fn(c))),
        Consumer::Count(pr) => {
            Outcome::Num(array::filter(&v, pred_fn(pr, p.consumer_panic_poison())).len())
        }
        Consumer::FilterCollect(pr) => {
            Outcome::Value(array::filter(&v, pred_fn(pr, p.consumer_panic_poison())))
        }
        Consumer::TryReduce(c) => {
            Outcome::Scalar(v.into_iter().fold(c.identity(), |a, b| c.apply(a, b)))
        }
        Consumer::TryFilterCollect(pr) => {
            let f = try_pred_fn(pr, p.consumer_panic_poison(), p.consumer_err_poison());
            let mut out = Vec::new();
            for x in v {
                match f(&x) {
                    Ok(true) => out.push(x),
                    Ok(false) => {}
                    Err(e) => return Outcome::ErrCode(e),
                }
            }
            Outcome::Value(out)
        }
    }
}

// ---------------------------------------------------------------------
// RAD comparator: index-fusion closure composition.
// ---------------------------------------------------------------------

/// The rad lowering's running state: a length plus a composed
/// `index -> value` closure. `bds_baseline::rad`'s combinators return
/// opaque `Rad<impl Fn>` types that cannot live in a uniform
/// interpreter state, so the interpreter composes its own closures and
/// hands them to `rad::tabulate` at every eager point — exactly the
/// index fusion the comparator models.
struct RadState {
    len: usize,
    f: Arc<dyn Fn(usize) -> u64 + Send + Sync>,
    /// True when the canonical static lowering would hold this stream
    /// as a BID (flatten source, filter/scan output, and maps over
    /// those): index cuts must then force the whole stream — running
    /// every composed closure — before narrowing, instead of composing
    /// an index transform that narrows demand (see [`demand_windows`]).
    bidlike: bool,
}

impl RadState {
    fn from_vec(v: Vec<u64>) -> RadState {
        let len = v.len();
        let data = Arc::new(v);
        RadState {
            len,
            f: Arc::new(move |i| data[i]),
            bidlike: false,
        }
    }

    fn into_bidlike(self) -> RadState {
        RadState {
            bidlike: true,
            ..self
        }
    }

    /// The cut-ready form of this state: RAD states pass through
    /// untouched (cuts narrow demand); BID-like states are forced
    /// first, firing every composed closure exactly as the static
    /// lowering's `force()`-at-cut does.
    fn into_cuttable(self) -> RadState {
        if self.bidlike {
            RadState::from_vec(self.to_vec())
        } else {
            self
        }
    }

    /// Materialize through `rad::tabulate(..).to_vec()` (parallel).
    fn to_vec(&self) -> Vec<u64> {
        let f = Arc::clone(&self.f);
        rad::tabulate(self.len, move |i| f(i)).to_vec()
    }
}

/// Evaluate with `bds_baseline::rad`: maps, zips, takes, skips and
/// reversals compose into the index closure (O(1), fused); filters and
/// scans are eager points that call into the rad library and rebuild
/// the state from its output. Cuts applied to a BID-like state (a
/// flatten, a filter/scan output, or maps over one) force it first —
/// the uniform fault-surfacing rule of [`demand_windows`].
pub fn eval_rad(p: &Pipeline) -> Outcome {
    let mut st = match &p.source {
        Source::Iota(n) => RadState {
            len: *n,
            f: Arc::new(|i| i as u64),
            bidlike: false,
        },
        Source::TabAffine { n, a, b } => {
            let (a, b) = (*a, *b);
            RadState {
                len: *n,
                f: Arc::new(move |i| a.wrapping_mul(i as u64).wrapping_add(b)),
                bidlike: false,
            }
        }
        Source::FromVec(data) => RadState::from_vec(data.clone()),
        // Flattens are block-iterable in the canonical lowering.
        Source::Flatten(parts) => RadState::from_vec(
            rad::flatten_with(parts.len(), |p| parts[p].len(), |p, i| parts[p][i]),
        )
        .into_bidlike(),
    };
    for (i, stage) in p.stages.iter().enumerate() {
        let poison = p.stage_panic_poison(i);
        st = match stage {
            Stage::Map(op) => {
                let g = map_fn(*op, poison);
                let f = st.f;
                RadState {
                    len: st.len,
                    f: Arc::new(move |i| g(f(i))),
                    bidlike: st.bidlike,
                }
            }
            Stage::ZipIota(zc) => {
                let zc = *zc;
                let f = st.f;
                RadState {
                    len: st.len,
                    f: Arc::new(move |i| zc.apply(f(i), i as u64)),
                    bidlike: st.bidlike,
                }
            }
            Stage::ZipData(zc, data) => {
                let zc = *zc;
                let data = data.clone();
                let dlen = data.len();
                let f = st.f;
                RadState {
                    len: st.len,
                    f: Arc::new(move |i| zc.apply(f(i), data[i % dlen])),
                    bidlike: st.bidlike,
                }
            }
            Stage::Filter(pr) => {
                let f = Arc::clone(&st.f);
                RadState::from_vec(
                    rad::tabulate(st.len, move |i| f(i)).filter(pred_fn(*pr, poison)),
                )
                .into_bidlike()
            }
            Stage::FilterOp(pr, m) => {
                let f = Arc::clone(&st.f);
                let g = filter_op_fn(*pr, *m, poison);
                RadState::from_vec(rad::tabulate(st.len, move |i| f(i)).filter_op(g))
                    .into_bidlike()
            }
            Stage::Scan(c) => {
                let f = Arc::clone(&st.f);
                let (excl, _total) =
                    rad::tabulate(st.len, move |i| f(i)).scan(c.identity(), comb_fn(*c));
                RadState::from_vec(excl).into_bidlike()
            }
            Stage::ScanIncl(c) => {
                let f = Arc::clone(&st.f);
                let (mut excl, total) =
                    rad::tabulate(st.len, move |i| f(i)).scan(c.identity(), comb_fn(*c));
                // incl = excl[1..] ++ [total]
                if !excl.is_empty() {
                    excl.push(total);
                    excl.remove(0);
                }
                RadState::from_vec(excl).into_bidlike()
            }
            Stage::Take(k) => {
                let st = st.into_cuttable();
                RadState {
                    len: st.len.min(*k),
                    f: st.f,
                    bidlike: false,
                }
            }
            Stage::Skip(k) => {
                let st = st.into_cuttable();
                let k = (*k).min(st.len);
                let f = st.f;
                RadState {
                    len: st.len - k,
                    f: Arc::new(move |i| f(i + k)),
                    bidlike: false,
                }
            }
            Stage::Rev => {
                let st = st.into_cuttable();
                let len = st.len;
                let f = st.f;
                RadState {
                    len,
                    f: Arc::new(move |i| f(len - 1 - i)),
                    bidlike: false,
                }
            }
        };
    }
    let f = Arc::clone(&st.f);
    match p.consumer {
        Consumer::ToVec | Consumer::Force => Outcome::Value(st.to_vec()),
        Consumer::Reduce(c) => Outcome::Scalar(
            rad::tabulate(st.len, move |i| f(i)).reduce(c.identity(), comb_fn(c)),
        ),
        Consumer::Count(pr) => {
            let g = pred_fn(pr, p.consumer_panic_poison());
            Outcome::Num(
                rad::tabulate(st.len, move |i| g(&f(i)) as u64).reduce(0, |a, b| a + b) as usize,
            )
        }
        Consumer::FilterCollect(pr) => Outcome::Value(
            rad::tabulate(st.len, move |i| f(i)).filter(pred_fn(pr, p.consumer_panic_poison())),
        ),
        Consumer::TryReduce(c) => {
            // Sequential fallback: the rad baseline has no fallible API.
            let mut acc = c.identity();
            for i in 0..st.len {
                acc = c.apply(acc, f(i));
            }
            Outcome::Scalar(acc)
        }
        Consumer::TryFilterCollect(pr) => {
            let g = try_pred_fn(pr, p.consumer_panic_poison(), p.consumer_err_poison());
            let mut out = Vec::new();
            for i in 0..st.len {
                let x = f(i);
                match g(&x) {
                    Ok(true) => out.push(x),
                    Ok(false) => {}
                    Err(e) => return Outcome::ErrCode(e),
                }
            }
            Outcome::Value(out)
        }
    }
}

// ---------------------------------------------------------------------
// Static block-delayed lowering (bds-seq) via object-safe erasure.
// ---------------------------------------------------------------------

/// The static lowering's state: an erased RAD when the representation
/// is still random-access, an erased BID after a representation-
/// changing stage (filter/scan/flatten). Mirrors the paper's RAD/BID
/// split without monomorphizing one type per pipeline shape.
enum St {
    Rad(BoxRad<u64>),
    Bid(BoxSeq<u64>),
}

impl St {
    fn len(&self) -> usize {
        match self {
            St::Rad(r) => r.len(),
            St::Bid(b) => b.len(),
        }
    }

    /// Force to a materialized random-access sequence (used by the
    /// BID arms of `Take`/`Skip`/`Rev`, which are RAD-only delayed
    /// operations in the static library).
    fn into_forced(self) -> Forced<u64> {
        match self {
            St::Rad(r) => r.force(),
            St::Bid(b) => b.force(),
        }
    }
}

/// Evaluate with the static `bds-seq` library through the object-safe
/// [`BoxRad`]/[`BoxSeq`] erasure, preserving the RAD/BID distinction:
/// maps and zips stay delayed on both representations, `take`/`skip`/
/// `rev` stay delayed on RADs and force BIDs first (the library offers
/// them only on [`RadSeq`]).
pub fn eval_delay(p: &Pipeline) -> Outcome {
    let mut st = match &p.source {
        Source::Iota(n) => St::Rad(BoxRad::new(tabulate(*n, |i| i as u64))),
        Source::TabAffine { n, a, b } => {
            let (a, b) = (*a, *b);
            St::Rad(BoxRad::new(tabulate(*n, move |i| {
                a.wrapping_mul(i as u64).wrapping_add(b)
            })))
        }
        Source::FromVec(data) => St::Rad(BoxRad::new(Forced::from_vec(data.clone()))),
        Source::Flatten(parts) => St::Bid(BoxSeq::new(bds_seq::Flattened::from_inners(
            parts.iter().map(|p| Forced::from_vec(p.clone())).collect(),
        ))),
    };
    for (i, stage) in p.stages.iter().enumerate() {
        let poison = p.stage_panic_poison(i);
        st = match stage {
            Stage::Map(op) => {
                let f = map_fn(*op, poison);
                match st {
                    St::Rad(r) => St::Rad(BoxRad::new(r.map(f))),
                    St::Bid(b) => St::Bid(BoxSeq::new(b.map(f))),
                }
            }
            Stage::ZipIota(zc) => {
                let zc = *zc;
                let partner = tabulate(st.len(), |i| i as u64);
                match st {
                    St::Rad(r) => {
                        St::Rad(BoxRad::new(r.zip_with(partner, move |x, o| zc.apply(x, o))))
                    }
                    St::Bid(b) => {
                        St::Bid(BoxSeq::new(b.zip_with(partner, move |x, o| zc.apply(x, o))))
                    }
                }
            }
            Stage::ZipData(zc, data) => {
                let zc = *zc;
                let data = Arc::new(data.clone());
                let dlen = data.len();
                let partner = tabulate(st.len(), move |i| data[i % dlen]);
                match st {
                    St::Rad(r) => {
                        St::Rad(BoxRad::new(r.zip_with(partner, move |x, o| zc.apply(x, o))))
                    }
                    St::Bid(b) => {
                        St::Bid(BoxSeq::new(b.zip_with(partner, move |x, o| zc.apply(x, o))))
                    }
                }
            }
            Stage::Filter(pr) => {
                let f = pred_fn(*pr, poison);
                St::Bid(BoxSeq::new(match st {
                    St::Rad(r) => r.filter(f),
                    St::Bid(b) => b.filter(f),
                }))
            }
            Stage::FilterOp(pr, m) => {
                let f = filter_op_fn(*pr, *m, poison);
                St::Bid(BoxSeq::new(match st {
                    St::Rad(r) => r.filter_op(f),
                    St::Bid(b) => b.filter_op(f),
                }))
            }
            Stage::Scan(c) => {
                let f = comb_fn(*c);
                St::Bid(match st {
                    St::Rad(r) => BoxSeq::new(r.scan(c.identity(), f).0),
                    St::Bid(b) => BoxSeq::new(b.scan(c.identity(), f).0),
                })
            }
            Stage::ScanIncl(c) => {
                let f = comb_fn(*c);
                St::Bid(match st {
                    St::Rad(r) => BoxSeq::new(r.scan_incl(c.identity(), f)),
                    St::Bid(b) => BoxSeq::new(b.scan_incl(c.identity(), f)),
                })
            }
            Stage::Take(k) => match st {
                St::Rad(r) => St::Rad(BoxRad::new(r.take(*k))),
                bid => St::Rad(BoxRad::new(bid.into_forced().take(*k))),
            },
            Stage::Skip(k) => match st {
                St::Rad(r) => St::Rad(BoxRad::new(r.skip(*k))),
                bid => St::Rad(BoxRad::new(bid.into_forced().skip(*k))),
            },
            Stage::Rev => match st {
                St::Rad(r) => St::Rad(BoxRad::new(r.rev())),
                bid => St::Rad(BoxRad::new(bid.into_forced().rev())),
            },
        };
    }
    match st {
        St::Rad(r) => consume_seq(r, p),
        St::Bid(b) => consume_seq(b, p),
    }
}

/// Shared consumer lowering for both erased representations: each arm
/// calls the drive loops of `bds_seq::stream` with the erased box, as
/// the monomorphized pipelines call them with their own sequences —
/// the erased leg differs from the static one only in its boxed block
/// streams, never in the engine.
fn consume_seq<S: Seq<Item = u64>>(s: S, p: &Pipeline) -> Outcome {
    use bds_seq::stream;
    match p.consumer {
        Consumer::ToVec => Outcome::Value(stream::to_vec(&s)),
        Consumer::Force => Outcome::Value(s.force().as_slice().to_vec()),
        Consumer::Reduce(c) => Outcome::Scalar(stream::reduce(&s, c.identity(), &comb_fn(c))),
        Consumer::Count(pr) => {
            Outcome::Num(stream::count(&s, &pred_fn(pr, p.consumer_panic_poison())))
        }
        Consumer::FilterCollect(pr) => {
            Outcome::Value(s.filter(pred_fn(pr, p.consumer_panic_poison())).to_vec())
        }
        Consumer::TryReduce(c) => {
            let f = comb_fn(c);
            match stream::try_reduce(&s, c.identity(), &move |a, b| Ok::<u64, u64>(f(a, b))) {
                Ok(x) => Outcome::Scalar(x),
                Err(e) => Outcome::ErrCode(e),
            }
        }
        Consumer::TryFilterCollect(pr) => {
            let f = try_pred_fn(pr, p.consumer_panic_poison(), p.consumer_err_poison());
            match s.try_filter_collect(f) {
                Ok(v) => Outcome::Value(v),
                Err(e) => Outcome::ErrCode(e),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Dynamic tagged-union lowering (DSeq).
// ---------------------------------------------------------------------

/// Evaluate with [`DSeq`], the dynamic tagged-union representation:
/// every stage is a direct `DSeq` method, so representation switches
/// (RAD→BID at filters and scans, BID→RAD at forced cuts) follow the
/// dynamic library's own rules including pinned-side-wins zips.
pub fn eval_dynseq(p: &Pipeline) -> Outcome {
    let mut d = match &p.source {
        Source::Iota(n) => DSeq::tabulate(*n, |i| i as u64),
        Source::TabAffine { n, a, b } => {
            let (a, b) = (*a, *b);
            DSeq::tabulate(*n, move |i| a.wrapping_mul(i as u64).wrapping_add(b))
        }
        Source::FromVec(data) => DSeq::from_vec(data.clone()),
        Source::Flatten(parts) => DSeq::flatten_parts(parts.clone()),
    };
    for (i, stage) in p.stages.iter().enumerate() {
        let poison = p.stage_panic_poison(i);
        d = match stage {
            Stage::Map(op) => d.map(map_fn(*op, poison)),
            Stage::ZipIota(zc) => {
                let zc = *zc;
                let partner = DSeq::tabulate(d.len(), |i| i as u64);
                d.zip(partner).map(move |(x, o)| zc.apply(x, o))
            }
            Stage::ZipData(zc, data) => {
                let zc = *zc;
                let data = Arc::new(data.clone());
                let dlen = data.len();
                let partner = DSeq::tabulate(d.len(), move |i| data[i % dlen]);
                d.zip(partner).map(move |(x, o)| zc.apply(x, o))
            }
            Stage::Filter(pr) => d.filter(pred_fn(*pr, poison)),
            Stage::FilterOp(pr, m) => d.filter_op(filter_op_fn(*pr, *m, poison)),
            Stage::Scan(c) => d.scan(c.identity(), comb_fn(*c)).0,
            Stage::ScanIncl(c) => d.scan_incl(c.identity(), comb_fn(*c)),
            Stage::Take(k) => d.take(*k),
            Stage::Skip(k) => d.skip(*k),
            Stage::Rev => d.rev(),
        };
    }
    match p.consumer {
        Consumer::ToVec => Outcome::Value(d.to_vec()),
        Consumer::Force => Outcome::Value(d.force().to_vec()),
        Consumer::Reduce(c) => Outcome::Scalar(d.reduce(c.identity(), comb_fn(c))),
        Consumer::Count(pr) => Outcome::Num(d.count(pred_fn(pr, p.consumer_panic_poison()))),
        Consumer::FilterCollect(pr) => {
            Outcome::Value(d.filter(pred_fn(pr, p.consumer_panic_poison())).to_vec())
        }
        Consumer::TryReduce(c) => {
            let f = comb_fn(c);
            match d.try_reduce(c.identity(), move |a, b| Ok::<u64, u64>(f(a, b))) {
                Ok(x) => Outcome::Scalar(x),
                Err(e) => Outcome::ErrCode(e),
            }
        }
        Consumer::TryFilterCollect(pr) => {
            let f = try_pred_fn(pr, p.consumer_panic_poison(), p.consumer_err_poison());
            match d.try_filter_collect(f) {
                Ok(v) => Outcome::Value(v),
                Err(e) => Outcome::ErrCode(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Fault, FaultMode, FaultSite};

    fn simple(source: Source, stages: Vec<Stage>, consumer: Consumer) -> Pipeline {
        Pipeline {
            source,
            stages,
            consumer,
            fault: None,
        }
    }

    #[test]
    fn evaluators_agree_on_a_fixed_pipeline() {
        let p = simple(
            Source::Iota(100),
            vec![
                Stage::Map(MapOp::MulC(3)),
                Stage::Scan(CombOp::Add),
                Stage::Filter(PredOp::BitSet(1)),
                Stage::ZipIota(crate::ast::ZipComb::Sub),
            ],
            Consumer::Reduce(CombOp::Xor),
        );
        let want = eval_oracle(&p);
        let pool = bds_pool::Pool::new(2);
        pool.install(|| {
            assert_eq!(eval_array(&p), want, "array");
            assert_eq!(eval_rad(&p), want, "rad");
            assert_eq!(eval_delay(&p), want, "delay");
            assert_eq!(eval_dynseq(&p), want, "dynseq");
        });
    }

    #[test]
    fn affine_comb_is_order_sensitive_but_consistent() {
        let p = simple(
            Source::TabAffine {
                n: 65,
                a: 7,
                b: 3,
            },
            vec![Stage::ScanIncl(CombOp::Affine)],
            Consumer::ToVec,
        );
        let want = eval_oracle(&p);
        let pool = bds_pool::Pool::new(2);
        pool.install(|| {
            assert_eq!(eval_array(&p), want);
            assert_eq!(eval_rad(&p), want);
            assert_eq!(eval_delay(&p), want);
            assert_eq!(eval_dynseq(&p), want);
        });
    }

    #[test]
    fn err_fault_surfaces_as_the_same_code_everywhere() {
        let p = Pipeline {
            source: Source::Iota(50),
            stages: vec![],
            consumer: Consumer::TryFilterCollect(PredOp::ModEq(2, 0)),
            fault: Some(Fault {
                site: FaultSite::Consumer,
                poison: 17,
                mode: FaultMode::Err,
            }),
        };
        let want = eval_oracle(&p);
        assert_eq!(want, Outcome::ErrCode(FAULT_ERR));
        let pool = bds_pool::Pool::new(2);
        pool.install(|| {
            assert_eq!(eval_array(&p), want);
            assert_eq!(eval_rad(&p), want);
            assert_eq!(eval_delay(&p), want);
            assert_eq!(eval_dynseq(&p), want);
        });
    }
}
