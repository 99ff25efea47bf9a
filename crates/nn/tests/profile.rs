//! Pins the op-profiling counters: exact matmul FLOP and allocation
//! deltas, zero cost (no counting) without a live guard, nested guard
//! windows, and attention/block attribution through the real transformer
//! stack.
//!
//! The counters are process-global, so every test that asserts an exact
//! delta serializes behind one lock — parallel test threads would
//! otherwise bleed counts into each other's windows.

use mtmlf_nn::{
    Matrix, Module, MultiHeadAttention, OpStats, ProfileGuard, Tape, TransformerEncoder,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn matmul_flops_and_allocations_are_exact() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let a = Matrix::full(3, 5, 1.0);
    let b = Matrix::full(5, 7, 1.0);
    let guard = ProfileGuard::begin();
    let _ = a.matmul(&b);
    let stats = guard.stats();
    assert_eq!(stats.matmul_calls, 1);
    assert_eq!(stats.matmul_flops, 2 * 3 * 7 * 5);
    // The output buffer is the only allocation inside matmul.
    assert_eq!(stats.allocations, 1);
    assert_eq!(stats.allocated_floats, 3 * 7);
}

#[test]
fn transposed_variants_count_their_flops() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let a = Matrix::full(4, 6, 1.0);
    let b = Matrix::full(3, 6, 1.0);
    let c = Matrix::full(6, 4, 1.0);
    let d = Matrix::full(6, 3, 1.0);
    let guard = ProfileGuard::begin();
    let _ = a.matmul_nt(&b); // (4,6) × (3,6)ᵀ → 4×3
    let nt = guard.stats();
    assert_eq!(nt.matmul_flops, 2 * 4 * 3 * 6);
    let _ = c.matmul_tn(&d); // (6,4)ᵀ × (6,3) → 4×3
    let both = guard.stats();
    assert_eq!(both.matmul_calls, 2);
    assert_eq!(both.matmul_flops, nt.matmul_flops + 2 * 4 * 3 * 6);
}

#[test]
fn no_live_guard_means_no_counting() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Work done with no guard alive must be invisible to a later guard.
    let a = Matrix::full(8, 8, 1.0);
    let _ = a.matmul(&a);
    let guard = ProfileGuard::begin();
    assert_eq!(guard.stats(), OpStats::default());
}

#[test]
fn guards_nest_and_report_their_own_window() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let a = Matrix::full(2, 2, 1.0);
    let outer = ProfileGuard::begin();
    let _ = a.matmul(&a);
    {
        let inner = ProfileGuard::begin();
        let _ = a.matmul(&a);
        assert_eq!(inner.stats().matmul_calls, 1);
    }
    // The inner guard dropping must not disable the still-live outer scope.
    let _ = a.matmul(&a);
    assert_eq!(outer.stats().matmul_calls, 3);
}

#[test]
fn encoder_forward_attributes_attention_and_blocks() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(11);
    let depth = 3;
    let enc = TransformerEncoder::new(8, 2, depth, &mut rng);
    assert!(enc.parameter_count() > 0);
    let x = Matrix::full(4, 8, 0.1);
    let mut t = Tape::new();
    let xv = t.input(&x);
    let guard = ProfileGuard::begin();
    let _ = enc.forward(&mut t, xv);
    let stats = guard.stats();
    assert_eq!(stats.block_forwards, depth as u64);
    assert_eq!(
        stats.attention_calls, depth as u64,
        "one attention per block"
    );
    assert!(stats.matmul_calls > 0, "attention projections run matmuls");
    assert!(stats.matmul_flops > 0);

    // A lone attention forward counts exactly one attention, zero blocks.
    let attn = MultiHeadAttention::new(8, 2, &mut rng);
    let attn_guard = ProfileGuard::begin();
    let _ = attn.forward(&mut t, xv, xv, None);
    let attn_stats = attn_guard.stats();
    assert_eq!(attn_stats.attention_calls, 1);
    assert_eq!(attn_stats.block_forwards, 0);
}

#[test]
fn steady_state_forward_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Fresh arena so the reuse counts below are deterministic.
    mtmlf_nn::kernel::arena_clear();
    let mut rng = StdRng::seed_from_u64(7);
    let enc = TransformerEncoder::new(32, 2, 2, &mut rng);
    let x = Matrix::full(6, 32, 0.1);
    // Warm-up forwards seed the per-thread arena with every intermediate
    // buffer size the pass needs; after that, a steady-state inference
    // forward must be allocation-free and build no tape.
    for _ in 0..2 {
        let _ = enc.forward_packed(x.clone());
    }
    let input = x.clone();
    let guard = ProfileGuard::begin();
    let _ = enc.forward_packed(input);
    let stats = guard.stats();
    // CI greps this line out of the test log (run with --nocapture).
    println!(
        "opstats: steady-state forward allocations={} allocated_floats={} arena_reuses={} \
         tape_nodes={}",
        stats.allocations, stats.allocated_floats, stats.arena_reuses, stats.tape_nodes
    );
    assert_eq!(
        stats.allocations, 0,
        "steady-state forward must run entirely off the arena"
    );
    assert_eq!(stats.allocated_floats, 0);
    assert!(stats.arena_reuses > 0, "the arena was never consulted");
    assert_eq!(
        stats.tape_nodes, 0,
        "the inference forward built tape nodes"
    );
}

#[test]
fn tape_forward_counts_its_nodes() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let am = Matrix::full(2, 3, 1.0);
    let mut t = Tape::new();
    let a = t.param(&am);
    let b = t.constant(Matrix::full(3, 2, 1.0));
    let guard = ProfileGuard::begin();
    let ab = t.matmul(a, b);
    let _ = t.sum(ab);
    // Two op results: the product and its sum.
    assert_eq!(guard.stats().tape_nodes, 2);
}

#[test]
fn full_arena_of_small_buffers_still_reuses_a_large_one() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    mtmlf_nn::kernel::arena_clear();
    // A pool full of one-float buffers.
    let small: Vec<Matrix> = (0..128).map(|_| Matrix::zeros(1, 1)).collect();
    drop(small);
    assert_eq!(mtmlf_nn::kernel::arena_buffers(), 128);
    // A large buffer handed back evicts a small one instead of being lost.
    drop(Matrix::zeros(64, 64));
    assert_eq!(mtmlf_nn::kernel::arena_buffers(), 128);
    let guard = ProfileGuard::begin();
    let large = Matrix::zeros(64, 64);
    let stats = guard.stats();
    assert_eq!(
        (stats.allocations, stats.arena_reuses),
        (0, 1),
        "the large take must come from the pool"
    );
    drop(large);
    mtmlf_nn::kernel::arena_clear();
}
