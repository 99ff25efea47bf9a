//! The compute kernel behind the [`Matrix`](crate::Matrix) surface.
//!
//! Two pieces live here:
//!
//! 1. **One GEMM.** [`gemm`] is the plain triple loop: `i-k-j` order with a
//!    zero skip for row-major `B`, a per-element dot product for
//!    transposed `B`; [`gemm_each`] runs the row-major loop over several
//!    `B`s that share one `A` in a single pass. Every output element
//!    accumulates its `k` products in ascending order into a single
//!    accumulator. The planner's products are
//!    small (about a hundred of a few kFLOP each per plan), so GEMM
//!    arithmetic is a few percent of a plan and tiling or threading has
//!    nothing to win.
//! 2. **A per-thread buffer arena.** Matrix buffers are recycled through a
//!    thread-local pool of power-of-two size classes, so steady-state
//!    forward passes allocate nothing (observable through
//!    [`crate::profile::OpStats`]: `allocations` counts pool misses,
//!    `arena_reuses` counts hits). A miss allocates `len.next_power_of_two()`
//!    floats, and a recycled buffer is filed under `floor(log2(capacity))`,
//!    so every buffer of class `ceil(log2(len))` or above fits `len`. A take
//!    pops from the smallest non-empty class among that one and the two
//!    above it, found with one bit scan; the cap keeps a long-lived small
//!    matrix from holding a large buffer. At most 128 buffers of at most
//!    1 Mi floats stay pooled per thread, and a full pool evicts a smaller
//!    buffer to keep a larger one, so the many one-float buffers that tape
//!    work leaves behind cannot lock the large ones out.
//!
//! The other large per-element cost of a plan, GELU's tanh, is
//! [`crate::matrix::tanh`]: fdlibm's `tanhf` written branch-free, so the
//! GELU loop vectorizes and every value stays what libm gave.
//!
//! No clocks, no OS randomness, no unsafe code.

use crate::profile;
use std::cell::RefCell;

// ---------------------------------------------------------------------------
// Per-thread buffer arena.
// ---------------------------------------------------------------------------

/// Most buffers kept per thread.
const ARENA_MAX_BUFFERS: usize = 128;
/// Buffers above this capacity are never pooled (bounds worst-case
/// retention at 4 MiB per slot).
const ARENA_MAX_FLOATS: usize = 1 << 20;
/// One size class per power of two up to `ARENA_MAX_FLOATS`.
const CLASSES: usize = ARENA_MAX_FLOATS.trailing_zeros() as usize + 1;
/// A take looks at its own class and the two above it, so a buffer held by
/// a long-lived small matrix is less than 8× its class however large the
/// pooled buffers are.
const TAKE_CLASSES: u32 = 3;

/// The pooled buffers of one thread. Class `c` holds buffers whose capacity
/// is in `[2^c, 2^(c+1))`, so any buffer of class `ceil(log2(len))` or above
/// fits `len` floats; `nonempty` has bit `c` set while class `c` holds one.
struct Arena {
    classes: [Vec<Vec<f32>>; CLASSES],
    nonempty: u32,
    buffers: usize,
}

impl Arena {
    const fn new() -> Self {
        Arena {
            classes: [const { Vec::new() }; CLASSES],
            nonempty: 0,
            buffers: 0,
        }
    }

    fn pop(&mut self, class: usize) -> Vec<f32> {
        let list = &mut self.classes[class];
        let buf = list.pop().unwrap_or_default();
        if list.is_empty() {
            self.nonempty &= !(1 << class);
        }
        self.buffers -= 1;
        buf
    }

    /// A buffer from the smallest non-empty class that fits `len` floats,
    /// at most `TAKE_CLASSES - 1` classes above `ceil(log2(len))`.
    fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        let need = len.next_power_of_two().trailing_zeros();
        let fits = self.nonempty.checked_shr(need).unwrap_or(0) & ((1 << TAKE_CLASSES) - 1);
        (fits != 0).then(|| self.pop((need + fits.trailing_zeros()) as usize))
    }

    /// Files `buf` under `floor(log2(capacity))`. A full pool evicts a
    /// buffer of the smallest class below it, or drops `buf` if every
    /// pooled buffer is at least as large.
    fn put(&mut self, buf: Vec<f32>) {
        let class = buf.capacity().ilog2() as usize;
        if self.buffers == ARENA_MAX_BUFFERS {
            let smaller = self.nonempty & ((1 << class) - 1);
            if smaller == 0 {
                return;
            }
            self.pop(smaller.trailing_zeros() as usize);
        }
        self.classes[class].push(buf);
        self.nonempty |= 1 << class;
        self.buffers += 1;
    }
}

thread_local! {
    static ARENA: RefCell<Arena> = const { RefCell::new(Arena::new()) };
}

/// A fresh empty buffer for `len` floats: a power-of-two capacity when it
/// can be pooled, so that it lands in the class that requests of its own
/// size look in. Recorded as an allocation.
fn alloc(len: usize) -> Vec<f32> {
    profile::record_alloc(len as u64);
    if len <= ARENA_MAX_FLOATS {
        Vec::with_capacity(len.next_power_of_two())
    } else {
        Vec::with_capacity(len)
    }
}

/// An empty buffer with capacity for at least `cap` floats. Reuses a pooled
/// buffer when one fits (recorded as an arena reuse), otherwise allocates
/// (recorded as an allocation).
pub(crate) fn take_empty(cap: usize) -> Vec<f32> {
    match ARENA.with(|a| a.borrow_mut().take(cap)) {
        Some(mut buf) => {
            profile::record_arena_reuse();
            buf.clear();
            buf
        }
        None => alloc(cap),
    }
}

/// A buffer of exactly `len` floats, all set to `fill` (pooled when
/// possible).
pub(crate) fn take(len: usize, fill: f32) -> Vec<f32> {
    let mut buf = take_empty(len);
    buf.resize(len, fill);
    buf
}

/// A buffer holding a copy of `src` (pooled when possible).
pub(crate) fn take_copy(src: &[f32]) -> Vec<f32> {
    let mut buf = take_empty(src.len());
    buf.extend_from_slice(src);
    buf
}

/// Returns a buffer to the current thread's pool (dropping it if it is
/// empty or oversized, or if the pool is full of buffers at least as
/// large).
pub(crate) fn recycle(buf: Vec<f32>) {
    if buf.capacity() == 0 || buf.capacity() > ARENA_MAX_FLOATS {
        return;
    }
    ARENA.with(|a| a.borrow_mut().put(buf));
}

/// Drops every buffer pooled on the current thread. Tests and benchmarks
/// call this so allocation counts start from a cold, deterministic state.
pub fn arena_clear() {
    ARENA.with(|a| *a.borrow_mut() = Arena::new());
}

/// Buffers currently pooled on this thread (diagnostics/tests).
pub fn arena_buffers() -> usize {
    ARENA.with(|a| a.borrow().buffers)
}

// ---------------------------------------------------------------------------
// GEMM.
// ---------------------------------------------------------------------------

/// How the `B` operand of [`gemm`] is laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BKind {
    /// `B` is `k×n` row-major; compute `A·B`, skipping zero `A` elements
    /// (the featurizer emits very sparse one-hot rows).
    RowMajor,
    /// `B` is `n×k` row-major; compute `A·Bᵀ` as a per-element dot product
    /// with no zero skip.
    Transposed,
}

/// `out += A·B` (or `A·Bᵀ`). `out` must be zeroed, `m·k`, `k·n` (or
/// `n·k`), and `m·n` sized.
pub(crate) fn gemm(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    bkind: BKind,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    match bkind {
        BKind::RowMajor => {
            // i-k-j loop order: the inner loop walks contiguous rows of
            // `b` and `out`, which the compiler auto-vectorizes.
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let out_row = &mut out[i * n..(i + 1) * n];
                for (kk, &av) in a_row.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let b_row = &b[kk * n..(kk + 1) * n];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
        }
        BKind::Transposed => {
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let out_row = &mut out[i * n..(i + 1) * n];
                for (j, o) in out_row.iter_mut().enumerate() {
                    let b_row = &b[j * k..(j + 1) * k];
                    *o = a_row.iter().zip(b_row).map(|(&x, &y)| x * y).sum();
                }
            }
        }
    }
}

/// `outs[j] += A·B_j` for `N` row-major `k×n_j` operands `B_j` (each
/// `out_j` zeroed and `m·n_j` sized), in one pass over `A`: [`gemm`]'s
/// `i-k-j` loop, walking the matching row of every `B_j` for each nonzero
/// `A` element. Every output element accumulates the same products in the
/// same ascending order as a [`gemm`] with its own `B_j` alone, so the
/// outputs are bitwise those of `N` separate products; layers that read
/// one input (attention's query, key and value projections) run as one
/// call.
pub(crate) fn gemm_each<const N: usize>(
    a: &[f32],
    m: usize,
    k: usize,
    bs: [&[f32]; N],
    mut outs: [&mut [f32]; N],
) {
    debug_assert_eq!(a.len(), m * k);
    if k == 0 {
        return;
    }
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let mut out_rows = outs.each_mut().map(|out| {
            let n = out.len() / m;
            &mut out[i * n..(i + 1) * n]
        });
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for (b, out_row) in bs.iter().zip(out_rows.iter_mut()) {
                let n = out_row.len();
                for (o, &bv) in out_row.iter_mut().zip(&b[kk * n..(kk + 1) * n]) {
                    *o += av * bv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_round_trips_buffers() {
        arena_clear();
        let b = take(64, 0.0);
        assert_eq!(b.len(), 64);
        recycle(b);
        assert_eq!(arena_buffers(), 1);
        let b2 = take(16, 1.5);
        assert_eq!(arena_buffers(), 0, "the pooled buffer was reused");
        assert!(b2.iter().all(|&v| v == 1.5));
        recycle(b2);
        arena_clear();
        assert_eq!(arena_buffers(), 0);
    }
}
