//! Block-size policy.
//!
//! The paper (Section 4) leaves the block size `B_n` open: "it could be
//! set as a constant at compile-time, or could be computed as n/P where P
//! is the number of processors, etc. Our definitions work the same for any
//! block-size." This module decides `B_n`, in one of three ways, in
//! priority order:
//!
//! 1. **Override** ([`force_block_size`]) — an exact block size, for the
//!    ablation sweeps (Figure 16) and tests.
//! 2. **Fixed** ([`Policy::Fixed`]) — the seed heuristic
//!    `max(MIN_BLOCK, ceil(n / (k·P)))`, keeping the number of blocks at
//!    roughly `k·P` (the paper: "the number of blocks is often chosen to
//!    be proportional to the number of processors").
//! 3. **Adaptive** ([`Policy::Adaptive`], the default) — the cost-model
//!    path: the pipeline's accumulated per-element [`ElemCost`] ×
//!    the input length × the live worker count
//!    ([`bds_pool::current_live_workers`]) is handed to
//!    [`bds_cost::geometry::solve`], which balances pool saturation
//!    against per-block scheduling overhead using the per-process
//!    calibration ([`bds_cost::calibrate`]). Cheap short pipelines stay
//!    in one block; expensive ones split down to `8·P` blocks.
//!
//! Select between 2 and 3 with [`set_policy`] (RAII guard); adaptive
//! is in effect until a guard says otherwise.

use std::sync::atomic::{AtomicUsize, Ordering};

use bds_cost::{ElemCost, SIMPLE};

/// Smallest block the **fixed** policy will choose. The adaptive policy
/// has no hard floor: its overhead bound serves the same purpose (a
/// block must amortize its own scheduling cost), but expressed in
/// calibrated time rather than element count, so pipelines with very
/// expensive elements may legitimately pick smaller blocks.
pub const MIN_BLOCK: usize = 1024;

static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// How block geometry is chosen; see the module docs for the decision
/// hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Solve geometry from the cost model at consumption time
    /// (the default).
    Adaptive,
    /// The fixed heuristic `ceil(n / (k·P))` with a [`MIN_BLOCK`] floor,
    /// where `k` is the carried multiplier.
    Fixed(usize),
}

impl Policy {
    /// The fixed `k·P`-blocks heuristic with multiplier `k`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn fixed(k: usize) -> Policy {
        assert!(k > 0, "fixed block-policy multiplier must be positive");
        Policy::Fixed(k)
    }
}

/// Selected policy, encoded: 1 = adaptive, `k+1` = fixed with
/// multiplier `k`.
static MODE: AtomicUsize = AtomicUsize::new(1);

fn encode(p: Policy) -> usize {
    match p {
        Policy::Adaptive => 1,
        Policy::Fixed(k) => k
            .checked_add(1)
            .expect("fixed block-policy multiplier overflow"),
    }
}

fn decode(v: usize) -> Policy {
    debug_assert!(v > 0);
    match v {
        1 => Policy::Adaptive,
        k => Policy::Fixed(k - 1),
    }
}

/// The currently selected [`Policy`].
pub fn policy() -> Policy {
    decode(MODE.load(Ordering::Relaxed))
}

/// RAII guard restoring the previous policy selection on drop; see
/// [`set_policy`].
pub struct PolicyGuard {
    previous: usize,
}

/// Select the block-geometry policy process-wide until the returned
/// guard is dropped. Like [`force_block_size`], concurrent guards with
/// different selections are a logic error (last writer wins), and an
/// active [`force_block_size`] override still takes precedence.
///
/// ```
/// use bds_seq::prelude::*;
/// let _g = bds_seq::set_policy(bds_seq::Policy::fixed(8));
/// let sum: u64 = tabulate(10_000, |i| i as u64).reduce(0, |a, b| a + b);
/// assert_eq!(sum, 9_999 * 10_000 / 2);
/// ```
pub fn set_policy(p: Policy) -> PolicyGuard {
    if let Policy::Fixed(k) = p {
        assert!(k > 0, "fixed block-policy multiplier must be positive");
    }
    let previous = MODE.swap(encode(p), Ordering::Relaxed);
    PolicyGuard { previous }
}

impl Drop for PolicyGuard {
    fn drop(&mut self) {
        MODE.store(self.previous, Ordering::Relaxed);
    }
}

/// Divide, rounding up. `ceil_div(0, b) == 0`.
#[inline]
pub fn ceil_div(a: usize, b: usize) -> usize {
    debug_assert!(b > 0);
    a.div_ceil(b)
}

/// The block size used for a sequence of `n` elements, under the current
/// policy (or the active override), pricing the pipeline as one simple
/// pass. Callers that know their pipeline's accumulated cost use
/// [`block_size_costed`] instead — this is the entry point for legacy
/// and cost-oblivious paths.
#[inline]
pub fn block_size(n: usize) -> usize {
    block_size_costed(n, SIMPLE)
}

/// The block size for `n` elements of a pipeline whose accumulated
/// per-element cost is `per_elem`, under the current policy (or the
/// active override).
///
/// Under [`Policy::Adaptive`] this is where the cost model meets the
/// runtime: the geometry solver sees the pipeline cost, the calibrated
/// per-work-unit and per-block times, and the live worker count of the
/// ambient pool. Under [`Policy::Fixed`] or a [`force_block_size`]
/// override, `per_elem` is ignored.
pub fn block_size_costed(n: usize, per_elem: ElemCost) -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced != 0 {
        return forced;
    }
    match policy() {
        Policy::Fixed(k) => {
            let p = bds_pool::current_num_threads();
            ceil_div(n, k * p).max(MIN_BLOCK)
        }
        Policy::Adaptive => {
            let workers = bds_pool::current_live_workers();
            let cal = bds_cost::calibration();
            bds_cost::geometry::solve(n, per_elem, workers, &cal).block_size
        }
    }
}

/// Number of blocks for `n` elements at block size `bs`.
#[inline]
pub fn num_blocks(n: usize, bs: usize) -> usize {
    ceil_div(n, bs)
}

/// RAII guard that forces a fixed block size process-wide while alive.
///
/// Intended for benchmarks and tests; concurrent guards with different
/// sizes are a logic error (the last writer wins).
pub struct BlockSizeGuard {
    previous: usize,
}

/// Force `block_size(n)` to return `bs` for all `n` until the returned
/// guard is dropped.
///
/// # Panics
/// Panics if `bs == 0`.
pub fn force_block_size(bs: usize) -> BlockSizeGuard {
    assert!(bs > 0, "block size must be positive");
    let previous = OVERRIDE.swap(bs, Ordering::Relaxed);
    BlockSizeGuard { previous }
}

impl Drop for BlockSizeGuard {
    fn drop(&mut self) {
        OVERRIDE.store(self.previous, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_div_edge_cases() {
        assert_eq!(ceil_div(0, 5), 0);
        assert_eq!(ceil_div(1, 5), 1);
        assert_eq!(ceil_div(5, 5), 1);
        assert_eq!(ceil_div(6, 5), 2);
    }

    #[test]
    fn fixed_policy_has_min_block() {
        let _l = test_sync::test_lock();
        let _p = set_policy(Policy::fixed(8));
        assert_eq!(block_size(1), MIN_BLOCK);
        assert_eq!(block_size(MIN_BLOCK), MIN_BLOCK);
    }

    #[test]
    fn default_policy_scales_with_n() {
        let _l = test_sync::test_lock();
        let p = bds_pool::current_num_threads();
        let n = 8 * p * MIN_BLOCK * 4;
        let bs = block_size(n);
        assert!(bs >= MIN_BLOCK);
        assert!(num_blocks(n, bs) <= 8 * p + 1);
    }

    #[test]
    fn adaptive_is_the_default_policy() {
        let _l = test_sync::test_lock();
        // With no guard alive the policy is Adaptive.
        assert_eq!(policy(), Policy::Adaptive);
        // Tiny input under adaptive: one block, no MIN_BLOCK padding.
        let _p = set_policy(Policy::Adaptive);
        assert_eq!(block_size(1), 1);
    }

    #[test]
    fn set_policy_nests_and_restores() {
        let _l = test_sync::test_lock();
        let before = policy();
        {
            let _a = set_policy(Policy::fixed(2));
            assert_eq!(policy(), Policy::Fixed(2));
            {
                let _b = set_policy(Policy::Adaptive);
                assert_eq!(policy(), Policy::Adaptive);
            }
            assert_eq!(policy(), Policy::Fixed(2));
        }
        assert_eq!(policy(), before);
    }

    #[test]
    fn override_applies_and_restores() {
        let _l = test_sync::test_lock();
        let before = block_size(1 << 20);
        {
            let _guard = force_block_size(77);
            assert_eq!(block_size(123), 77);
            assert_eq!(block_size(1 << 20), 77);
            {
                let _inner = force_block_size(99);
                assert_eq!(block_size(5), 99);
            }
            assert_eq!(block_size(5), 77);
        }
        assert_eq!(block_size(1 << 20), before);
    }

    #[test]
    fn override_beats_any_policy() {
        let _l = test_sync::test_lock();
        let _p = set_policy(Policy::Adaptive);
        let _guard = force_block_size(33);
        assert_eq!(block_size_costed(1 << 20, SIMPLE), 33);
    }

    #[test]
    fn num_blocks_covers_all_elements() {
        for n in [0usize, 1, 1023, 1024, 1025, 10_000] {
            for bs in [1usize, 7, 1024] {
                let b = num_blocks(n, bs);
                assert!(b * bs >= n);
                if n > 0 {
                    assert!((b - 1) * bs < n);
                }
            }
        }
    }
}

/// Test-only synchronization for the process-global override: tests that
/// force a block size (or that build zip operands in separate statements
/// and therefore need the policy stable) take this lock so they cannot
/// observe each other's overrides.
#[cfg(test)]
pub(crate) mod test_sync {
    use super::{force_block_size, BlockSizeGuard};
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    /// Holds the lock (and optionally an override) for a test's duration.
    pub(crate) struct TestForce {
        _guard: Option<BlockSizeGuard>,
        _lock: MutexGuard<'static, ()>,
    }

    /// Lock and force `bs`.
    pub(crate) fn test_force(bs: usize) -> TestForce {
        let lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        TestForce {
            _guard: Some(force_block_size(bs)),
            _lock: lock,
        }
    }

    /// Lock without overriding (for tests that merely need stability).
    #[allow(dead_code)]
    pub(crate) fn test_lock() -> TestForce {
        let lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        TestForce {
            _guard: None,
            _lock: lock,
        }
    }
}
