//! Pins the served model path's op counts ([`OpStats`]).
//!
//! - A decode step's cross-attention runs one score GEMM and one value
//!   GEMM per head, however many live prefixes the step decodes; only the
//!   causal self-attention, whose keys differ per prefix, grows with them.
//! - A warm [`plan_batch`] makes no kernel-arena allocation, and prints its
//!   GEMM calls, arena reuses and block forwards per plan (run with
//!   `--nocapture` to see the `opstats:` line).
//!
//! The counters are process-global, so the tests serialize behind one
//! lock.

use mtmlf::transjo::{StepEntry, TransJo};
use mtmlf::{plan_batch, FeaturizationModule, MtmlfConfig, MtmlfQo};
use mtmlf_datagen::{generate_queries, imdb::ImdbScale, imdb_lite, WorkloadConfig};
use mtmlf_nn::{KvCache, Matrix, ProfileGuard};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn a_decode_step_runs_cross_attention_once_per_head() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for cfg in [MtmlfConfig::tiny(), MtmlfConfig::default()] {
        let jo = TransJo::new(&cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let memory = Matrix::xavier(9, cfg.d_model, &mut rng);
        let reps = Matrix::xavier(5, cfg.d_model, &mut rng);
        let cache = jo.decode_cache(&memory, &reps);
        let empty = KvCache::default();
        let (blocks, heads) = (cfg.jo_blocks as u64, cfg.heads as u64);
        for live in [1u64, 4, 8] {
            let entries = vec![
                StepEntry {
                    prefix: &[],
                    past: &empty,
                };
                live as usize
            ];
            let guard = ProfileGuard::begin();
            let _ = jo.step_logits_batch(&cache, &entries);
            let calls = guard.stats().matmul_calls;
            // Per block: the fused query/key/value projection, the
            // self-attention output, the cross-attention query and output
            // projections, and the feed-forward's two layers; then the
            // pointer logits.
            let linears = 6 * blocks + 1;
            let causal_self_attention = 2 * heads * live * blocks;
            let cross_attention = 2 * heads * blocks;
            assert_eq!(
                calls,
                linears + causal_self_attention + cross_attention,
                "{} heads, {blocks} blocks, {live} live prefixes",
                cfg.heads
            );
        }
    }
}

#[test]
fn a_warm_plan_makes_no_arena_allocation() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut db = imdb_lite(7, ImdbScale { scale: 0.02 }).expect("imdb_lite");
    db.analyze_all(8, 4);
    let queries = generate_queries(
        &db,
        &WorkloadConfig {
            count: 64,
            min_tables: 3,
            max_tables: 5,
            ..WorkloadConfig::default()
        },
        11,
    );
    let cfg = MtmlfConfig {
        seed: 7,
        ..MtmlfConfig::tiny()
    };
    let model = MtmlfQo::from_modules(
        FeaturizationModule::untrained(&db, &cfg).expect("featurizer"),
        mtmlf::shared::SharedModule::new(&cfg),
        mtmlf::tasks::TaskHeads::new(&cfg),
        TransJo::new(&cfg),
        cfg,
    );
    // The first pass fills the arena and the table-embedding memo.
    assert!(plan_batch(&model, &queries).iter().all(Result::is_ok));
    let guard = ProfileGuard::begin();
    assert!(plan_batch(&model, &queries).iter().all(Result::is_ok));
    let stats = guard.stats();
    let per_plan = |v: u64| v as f64 / queries.len() as f64;
    println!(
        "opstats: {} warm plans: matmul_calls/plan={:.1} allocations/plan={:.2} \
         arena_reuses/plan={:.1} block_forwards/plan={:.2} mflop/plan={:.4}",
        queries.len(),
        per_plan(stats.matmul_calls),
        per_plan(stats.allocations),
        per_plan(stats.arena_reuses),
        per_plan(stats.block_forwards),
        per_plan(stats.matmul_flops) / 1e6,
    );
    assert_eq!(stats.allocations, 0, "a warm plan took a fresh buffer");
    assert_eq!(stats.tape_nodes, 0, "planning built a tape");
}
