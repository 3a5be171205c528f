//! The shape-keyed plan cache.
//!
//! Optimizing is cheap but not free (a geometry solve and a copy of
//! the shape), and services see the same pipeline shapes over and over. The
//! cache memoizes [`optimize`](crate::optimize) per [`PlanShape`] with a
//! deterministic least-recently-used policy driven by a logical tick —
//! no wall clock, so a cache replayed under the same lookup sequence
//! evicts identically (the differential checker's replay depends on
//! this).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::optimize::{optimize, Plan};
use crate::shape::PlanShape;

struct Inner {
    /// `(shape, plan, last-used tick)`; linear scan — caches are small
    /// (tens of shapes) and the closure work they guard is not.
    entries: Vec<(PlanShape, Arc<Plan>, u64)>,
    tick: u64,
}

/// A bounded, deterministic memo table from [`PlanShape`] to
/// [`Plan`].
///
/// Plans are handed out as `Arc`s: every pipeline with the same shape
/// shares one plan object. Shared plans are safe precisely because they
/// carry stage indices, never closures — see the crate docs.
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans.
    ///
    /// # Panics
    ///
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> PlanCache {
        assert!(capacity > 0, "PlanCache capacity must be positive");
        PlanCache {
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                tick: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The plan for `shape` on a pool of `workers`, optimizing and
    /// inserting it on a miss (evicting the least-recently-used entry if
    /// the cache is full). The flag is `true` on a hit.
    pub fn plan(&self, shape: PlanShape, workers: usize) -> (Arc<Plan>, bool) {
        let mut g = self.inner.lock().expect("plan cache poisoned");
        g.tick += 1;
        let now = g.tick;
        if let Some(entry) = g.entries.iter_mut().find(|e| e.0 == shape) {
            entry.2 = now;
            let plan = entry.1.clone();
            drop(g);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (plan, true);
        }
        let plan = Arc::new(optimize(shape.clone(), workers));
        if g.entries.len() == self.capacity {
            let oldest = g
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.2)
                .map(|(i, _)| i)
                .expect("capacity > 0, so a full cache is non-empty");
            g.entries.swap_remove(oldest);
        }
        g.entries.push((shape, plan.clone(), now));
        drop(g);
        self.misses.fetch_add(1, Ordering::Relaxed);
        (plan, false)
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that paid for an optimizer run so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Plans currently resident.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("plan cache poisoned")
            .entries
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipe::Pipe;
    use crate::shape::ConsumerKind;

    fn pipe_with_offset(k: u64) -> Pipe<u64> {
        Pipe::tabulate(1 << 12, move |i| i as u64)
            .map(move |x| x + k)
            .filter(|&x| x % 3 != 0)
    }

    #[test]
    fn identical_shapes_share_one_plan_across_different_closures() {
        let cache = PlanCache::new(8);
        let a = pipe_with_offset(1);
        let b = pipe_with_offset(1_000_000);
        let (pa, hit_a) = cache.plan(a.shape(ConsumerKind::Collect), 4);
        let (pb, hit_b) = cache.plan(b.shape(ConsumerKind::Collect), 4);
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&pa, &pb), "same shape must share one plan");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shared_plans_never_share_closures() {
        // The sharing test above proves the plan objects are one; this
        // proves execution through the shared plan still uses each
        // pipe's own closures.
        let cache = PlanCache::new(8);
        let a = pipe_with_offset(0);
        let b = pipe_with_offset(100);
        let (plan, _) = cache.plan(a.shape(ConsumerKind::Collect), 4);
        let (plan_b, _) = cache.plan(b.shape(ConsumerKind::Collect), 4);
        assert!(Arc::ptr_eq(&plan, &plan_b));
        let va = match a.execute(&plan, &crate::ConsumerOp::Collect) {
            crate::Consumed::Vec(v) => v,
            other => panic!("expected vec, got {other:?}"),
        };
        let vb = match b.execute(&plan, &crate::ConsumerOp::Collect) {
            crate::Consumed::Vec(v) => v,
            other => panic!("expected vec, got {other:?}"),
        };
        let expect = |k: u64| -> Vec<u64> {
            (0..1u64 << 12)
                .map(|x| x + k)
                .filter(|&x| x % 3 != 0)
                .collect()
        };
        assert_eq!(va, expect(0));
        assert_eq!(vb, expect(100));
    }

    #[test]
    fn eviction_is_lru_and_deterministic() {
        let shape_for = |stages: usize| {
            let mut p = Pipe::tabulate(1 << 12, |i| i as u64);
            for _ in 0..stages {
                p = p.map(|x| x);
            }
            p.shape(ConsumerKind::Collect)
        };
        let run = || {
            let cache = PlanCache::new(2);
            cache.plan(shape_for(1), 4); // miss: {1}
            cache.plan(shape_for(2), 4); // miss: {1, 2}
            cache.plan(shape_for(1), 4); // hit, refreshes 1
            cache.plan(shape_for(3), 4); // miss, evicts 2 (LRU): {1, 3}
            let (_, hit1) = cache.plan(shape_for(1), 4);
            let (_, hit2) = cache.plan(shape_for(2), 4); // re-optimized, evicts 3
            (hit1, hit2, cache.hits(), cache.misses(), cache.len())
        };
        let first = run();
        assert_eq!(first, (true, false, 2, 4, 2));
        // Same lookup sequence, same evictions — logical ticks, no clock.
        assert_eq!(run(), first);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_refused() {
        let _ = PlanCache::new(0);
    }
}
