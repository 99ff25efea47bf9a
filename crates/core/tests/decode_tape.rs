//! The decode path's work, pinned through the op counters:
//!
//! - it builds no training tape: `plan_batch` and `beam_search` run on
//!   plain matrices, so they record zero tape nodes, and a warm repeat does
//!   exactly the work, and makes exactly the allocations, of the one
//!   before;
//! - it is incremental: a beam step decodes one new row per live prefix,
//!   the query's memory keys and values are projected once, and the
//!   forced last step decodes nothing.
//!
//! The op counters are process-global, so the tests take one lock.

use mtmlf::beam::{beam_search, BeamConfig};
use mtmlf::transjo::TransJo;
use mtmlf::{plan_batch, MtmlfConfig, MtmlfQo};
use mtmlf_datagen::{generate_queries, imdb::ImdbScale, imdb_lite, WorkloadConfig};
use mtmlf_nn::{Matrix, OpStats, ProfileGuard};
use mtmlf_query::JoinGraph;
use mtmlf_storage::TableId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Serializes the tests: concurrent work would land in both profiles.
static PROFILE: Mutex<()> = Mutex::new(());

/// Runs `f` twice to warm the per-thread arena, then once under a profile
/// guard.
fn warm_stats(f: impl Fn()) -> OpStats {
    f();
    f();
    let guard = ProfileGuard::begin();
    f();
    guard.stats()
}

#[test]
fn decode_records_no_tape() {
    let _serial = PROFILE.lock().unwrap_or_else(|e| e.into_inner());
    let mut db = imdb_lite(31, ImdbScale { scale: 0.02 }).expect("imdb-lite");
    db.analyze_all(8, 4);
    let config = MtmlfConfig {
        enc_queries: 10,
        enc_epochs: 1,
        seed: 31,
        ..MtmlfConfig::tiny()
    };
    let queries = generate_queries(
        &db,
        &WorkloadConfig {
            count: 1,
            min_tables: 4,
            max_tables: 4,
            ..WorkloadConfig::default()
        },
        9,
    );
    let model = MtmlfQo::new(&db, config.clone()).expect("build model");

    let plan = || {
        plan_batch(&model, &queries)[0].as_ref().expect("plans");
    };
    let first = warm_stats(plan);
    let again = warm_stats(plan);
    assert_eq!(first.tape_nodes, 0, "plan_batch built tape nodes");
    assert!(first.matmul_calls > 0, "the profile saw no planning");
    assert_eq!(first, again, "plan_batch: a warm repeat did other work");

    let jo = TransJo::new(&config);
    let mut rng = StdRng::seed_from_u64(5);
    let memory = Matrix::xavier(7, config.d_model, &mut rng);
    let table_reps = Matrix::xavier(4, config.d_model, &mut rng);
    let graph = JoinGraph::from_edges((0..4).map(TableId).collect(), &[(0, 1), (1, 2), (2, 3)])
        .expect("chain");
    let decode = || {
        let out = beam_search(&jo, &memory, &table_reps, &graph, &BeamConfig::new(4));
        assert!(!out.is_empty());
    };
    let first = warm_stats(decode);
    let again = warm_stats(decode);
    assert_eq!(first.tape_nodes, 0, "beam_search built tape nodes");
    assert!(first.matmul_calls > 0, "the profile saw no decoding");
    assert_eq!(first, again, "beam_search: a warm repeat did other work");
}

#[test]
fn beam_decodes_one_row_per_live_prefix_per_step() {
    let _serial = PROFILE.lock().unwrap_or_else(|e| e.into_inner());
    let config = MtmlfConfig::tiny();
    let (m, s) = (8usize, 15usize);
    let jo = TransJo::new(&config);
    let mut rng = StdRng::seed_from_u64(5);
    let memory = Matrix::xavier(s, config.d_model, &mut rng);
    let table_reps = Matrix::xavier(m, config.d_model, &mut rng);
    let edges: Vec<(usize, usize)> = (0..m - 1).map(|i| (i, i + 1)).collect();
    let graph = JoinGraph::from_edges((0..m as u32).map(TableId).collect(), &edges).expect("chain");
    let stats = warm_stats(|| {
        let out = beam_search(&jo, &memory, &table_reps, &graph, &BeamConfig::new(8));
        assert_eq!(out.len(), 8);
    });

    // Decoded prefixes per step on an 8-table chain at width 8, whatever
    // the weights: the empty prefix, then 8 one-table prefixes (every table
    // starts a chain), then 8 at every later step (each interval prefix has
    // at least one frontier table, so 8 beams propose at least 8
    // extensions). The eighth step is forced — each prefix has one table
    // left — so it decodes no row at all.
    let live = [1u64, 8, 8, 8, 8, 8, 8];
    let (d, m, s) = (config.d_model as u64, m as u64, s as u64);
    let blocks = config.jo_blocks as u64;
    // Once per query: pointer keys and projected inputs over the m table
    // rows, and each block's cross-attention K and V over the s memory rows.
    let once = 2 * (2 * m * d * d) + blocks * 2 * (2 * s * d * d);
    // Per new row at position t, per block: self-attention q/k/v/o (8d²)
    // and scores plus weighted sum over its t + 1 cached rows (4(t+1)d);
    // cross-attention q/o (4d²) over the s memory rows (4sd); the
    // feed-forward d → 4d → d (16d²). Then its pointer logits (2md).
    let row = |t: u64| blocks * (28 * d * d + 4 * (t + 1) * d + 4 * s * d) + 2 * m * d;
    let per_step: u64 = live.iter().zip(0u64..).map(|(&n, t)| n * row(t)).sum();
    assert_eq!(
        stats.matmul_flops,
        once + per_step,
        "beam_search must decode one row per live prefix per step: {stats:?}"
    );
}
