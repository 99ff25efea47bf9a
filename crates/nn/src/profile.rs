//! Op-level profiling counters.
//!
//! A [`ProfileGuard`] turns on process-wide counting of matrix-op work —
//! matmul calls and their FLOPs, attention forwards, transformer block
//! forwards, matrix allocations, and autograd tape nodes — for its
//! lifetime, and reports the delta as an [`OpStats`] snapshot. The
//! recording hooks compile down to a single relaxed atomic load when no
//! guard is live, so the instrumented kernels cost nothing in ordinary
//! runs.
//!
//! Counters are global and guards nest: the outermost guard enables
//! counting, the innermost `Drop` that brings the depth back to zero
//! disables it, and each guard's [`ProfileGuard::stats`] reports only what
//! happened since that guard began. Counts from concurrent threads are all
//! attributed to every live guard — this is a throughput profiler, not a
//! per-thread tracer.
//!
//! No clocks are read here; wall-time attribution belongs to the serving
//! layer's trace module, which owns the injectable clock.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static DEPTH: AtomicUsize = AtomicUsize::new(0);

static MATMUL_CALLS: AtomicU64 = AtomicU64::new(0);
static MATMUL_FLOPS: AtomicU64 = AtomicU64::new(0);
static ATTENTION_CALLS: AtomicU64 = AtomicU64::new(0);
static BLOCK_FORWARDS: AtomicU64 = AtomicU64::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_FLOATS: AtomicU64 = AtomicU64::new(0);
static ARENA_REUSES: AtomicU64 = AtomicU64::new(0);
static TAPE_NODES: AtomicU64 = AtomicU64::new(0);

/// Records one matrix product of `flops` floating-point operations
/// (`2·m·n·k` for an `(m,k)×(k,n)` product).
#[inline]
pub(crate) fn record_matmul(flops: u64) {
    if ENABLED.load(Ordering::Relaxed) {
        MATMUL_CALLS.fetch_add(1, Ordering::Relaxed);
        MATMUL_FLOPS.fetch_add(flops, Ordering::Relaxed);
    }
}

/// Records one multi-head attention forward.
#[inline]
pub(crate) fn record_attention() {
    if ENABLED.load(Ordering::Relaxed) {
        ATTENTION_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Records one encoder/decoder block forward.
#[inline]
pub(crate) fn record_block_forward() {
    if ENABLED.load(Ordering::Relaxed) {
        BLOCK_FORWARDS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Records one matrix buffer allocation of `floats` elements. Since the
/// kernel arena landed, this fires only on arena *misses* — i.e. genuine
/// heap allocations; arena hits go to [`record_arena_reuse`] instead, so
/// a steady-state forward pass reports zero allocations.
#[inline]
pub(crate) fn record_alloc(floats: u64) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_FLOATS.fetch_add(floats, Ordering::Relaxed);
    }
}

/// Records one matrix buffer satisfied from the per-thread kernel arena
/// (no heap allocation happened).
#[inline]
pub(crate) fn record_arena_reuse() {
    if ENABLED.load(Ordering::Relaxed) {
        ARENA_REUSES.fetch_add(1, Ordering::Relaxed);
    }
}

/// Records one [`crate::Tape`] node recorded (a parameter, a constant, or
/// an op's result).
#[inline]
pub(crate) fn record_tape_node() {
    if ENABLED.load(Ordering::Relaxed) {
        TAPE_NODES.fetch_add(1, Ordering::Relaxed);
    }
}

/// A snapshot (or delta) of the profiling counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Matrix products executed (`matmul`, `matmul_nt`, `matmul_tn`).
    pub matmul_calls: u64,
    /// Floating-point operations across those products (multiply+add each
    /// count one, i.e. `2·m·n·k` per product).
    pub matmul_flops: u64,
    /// Multi-head attention forwards.
    pub attention_calls: u64,
    /// Transformer encoder/decoder block forwards.
    pub block_forwards: u64,
    /// Matrix buffers heap-allocated (arena misses).
    pub allocations: u64,
    /// Total `f32` elements across those buffers.
    pub allocated_floats: u64,
    /// Matrix buffers served from the per-thread arena instead of the heap.
    pub arena_reuses: u64,
    /// [`crate::Tape`] nodes recorded. Only training records them: the
    /// inference forwards run on plain [`crate::Matrix`] values.
    pub tape_nodes: u64,
}

impl OpStats {
    fn current() -> Self {
        Self {
            matmul_calls: MATMUL_CALLS.load(Ordering::Relaxed),
            matmul_flops: MATMUL_FLOPS.load(Ordering::Relaxed),
            attention_calls: ATTENTION_CALLS.load(Ordering::Relaxed),
            block_forwards: BLOCK_FORWARDS.load(Ordering::Relaxed),
            allocations: ALLOCATIONS.load(Ordering::Relaxed),
            allocated_floats: ALLOCATED_FLOATS.load(Ordering::Relaxed),
            arena_reuses: ARENA_REUSES.load(Ordering::Relaxed),
            tape_nodes: TAPE_NODES.load(Ordering::Relaxed),
        }
    }

    /// `self - earlier`, saturating at zero fieldwise.
    pub fn since(&self, earlier: &OpStats) -> OpStats {
        OpStats {
            matmul_calls: self.matmul_calls.saturating_sub(earlier.matmul_calls),
            matmul_flops: self.matmul_flops.saturating_sub(earlier.matmul_flops),
            attention_calls: self.attention_calls.saturating_sub(earlier.attention_calls),
            block_forwards: self.block_forwards.saturating_sub(earlier.block_forwards),
            allocations: self.allocations.saturating_sub(earlier.allocations),
            allocated_floats: self
                .allocated_floats
                .saturating_sub(earlier.allocated_floats),
            arena_reuses: self.arena_reuses.saturating_sub(earlier.arena_reuses),
            tape_nodes: self.tape_nodes.saturating_sub(earlier.tape_nodes),
        }
    }
}

/// RAII guard that enables op counting for its lifetime.
///
/// ```
/// use mtmlf_nn::{Matrix, ProfileGuard};
/// let guard = ProfileGuard::begin();
/// let a = Matrix::full(4, 8, 1.0);
/// let b = Matrix::full(8, 2, 1.0);
/// let _ = a.matmul(&b);
/// let stats = guard.stats();
/// assert_eq!(stats.matmul_calls, 1);
/// assert_eq!(stats.matmul_flops, 2 * 4 * 2 * 8);
/// ```
#[derive(Debug)]
pub struct ProfileGuard {
    baseline: OpStats,
}

impl ProfileGuard {
    /// Starts (or joins) a profiling scope and snapshots the counters.
    #[must_use]
    pub fn begin() -> Self {
        DEPTH.fetch_add(1, Ordering::SeqCst);
        ENABLED.store(true, Ordering::SeqCst);
        Self {
            baseline: OpStats::current(),
        }
    }

    /// The work recorded since this guard began.
    pub fn stats(&self) -> OpStats {
        OpStats::current().since(&self.baseline)
    }
}

impl Drop for ProfileGuard {
    fn drop(&mut self) {
        if DEPTH.fetch_sub(1, Ordering::SeqCst) == 1 {
            ENABLED.store(false, Ordering::SeqCst);
        }
    }
}

// The counter behavior is pinned by `crates/nn/tests/profile.rs`: exact
// FLOP/allocation deltas, zero counting without a live guard, and nested
// guard windows. They live in an integration test because the counters are
// process-global and the assertions need to serialize against each other.
