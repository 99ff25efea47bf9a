//! Pins every bit the served model path returns.
//!
//! A seeded pool of `imdb_lite` queries (3-6 tables each) is planned with
//! [`plan_batch`] on two models: an untrained tiny one, and one whose
//! per-table encoders were fitted for one epoch. Each result's join-order
//! table ids, `est_card` bits and `est_cost` bits feed one FNV-1a digest
//! per model. A change to the planning path that claims to leave every
//! served bit as it was must leave both digests as they are.

use mtmlf::envelope::fnv1a64;
use mtmlf::{plan_batch, FeaturizationModule, MtmlfConfig, MtmlfQo};
use mtmlf_datagen::{generate_queries, imdb::ImdbScale, imdb_lite, WorkloadConfig};
use mtmlf_query::{JoinOrder, Query};
use mtmlf_storage::Database;

fn pool() -> (Database, Vec<Query>) {
    let mut db = imdb_lite(43, ImdbScale { scale: 0.02 }).expect("imdb_lite");
    db.analyze_all(8, 4);
    let queries = generate_queries(
        &db,
        &WorkloadConfig {
            count: 200,
            min_tables: 3,
            max_tables: 6,
            ..WorkloadConfig::default()
        },
        17,
    );
    (db, queries)
}

fn config() -> MtmlfConfig {
    MtmlfConfig {
        enc_queries: 20,
        enc_epochs: 1,
        seed: 43,
        ..MtmlfConfig::tiny()
    }
}

/// The FNV-1a digest of every planned result, in pool order.
fn digest(model: &MtmlfQo, queries: &[Query]) -> u64 {
    let mut bytes = Vec::new();
    for planned in plan_batch(model, queries) {
        let p = planned.expect("every pooled query plans");
        let JoinOrder::LeftDeep(tables) = &p.join_order else {
            panic!("the served path plans left-deep orders");
        };
        bytes.push(tables.len() as u8);
        for t in tables {
            bytes.extend_from_slice(&t.0.to_le_bytes());
        }
        bytes.extend_from_slice(&p.est_card.to_bits().to_le_bytes());
        bytes.extend_from_slice(&p.est_cost.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// The FNV-1a digest of the cost-re-ranked join order and the advisor's
/// access paths of every pooled query, from its initial plan.
fn reranked_and_advised_digest(model: &MtmlfQo, queries: &[Query]) -> u64 {
    let mut bytes = Vec::new();
    for q in queries {
        let initial = model.initial_plan(q).expect("initial plan");
        let order = model
            .predict_join_order_costed(q, &initial)
            .expect("re-ranked order");
        for t in order.tables() {
            bytes.extend_from_slice(&t.0.to_le_bytes());
        }
        for (t, op) in model
            .recommend_access_paths(q, &initial)
            .expect("access paths")
        {
            bytes.extend_from_slice(&t.0.to_le_bytes());
            bytes.push(matches!(op, mtmlf_query::ScanOp::IndexScan) as u8);
        }
    }
    fnv1a64(&bytes)
}

#[test]
fn served_plans_match_the_recorded_digests() {
    let (db, queries) = pool();
    assert!(queries.len() >= 150, "pool of {} queries", queries.len());
    assert!(queries.iter().all(|q| (3..=6).contains(&q.table_count())));
    let cfg = config();

    let untrained = MtmlfQo::from_modules(
        FeaturizationModule::untrained(&db, &cfg).expect("featurizer"),
        mtmlf::shared::SharedModule::new(&cfg),
        mtmlf::tasks::TaskHeads::new(&cfg),
        mtmlf::transjo::TransJo::new(&cfg),
        cfg.clone(),
    );
    let fitted = MtmlfQo::new(&db, cfg).expect("fit encoders");

    let digests = (digest(&untrained, &queries), digest(&fitted, &queries));
    assert_eq!(
        digests,
        (0x219c_1fea_bc88_6538, 0xdf34_d587_45b5_b9e9),
        "served bits moved: (untrained, fitted) digests {digests:#018x?}"
    );
    let other = reranked_and_advised_digest(&fitted, &queries);
    assert_eq!(
        other, 0x6425_b5e8_296a_87a6,
        "re-ranked orders or access paths moved: digest {other:#018x}"
    );
}
