//! Integration tests for the model lifecycle (`mtmlf::lifecycle`):
//! registry properties, swap idempotence, a bitwise rollback by
//! re-adopting an older registry version, and the release of a displaced
//! model.
//!
//! Everything here is seeded and deterministic: models are rebuilt from
//! fixed seeds (`MtmlfQo::new` is deterministic per seed).

use mtmlf::lifecycle::{ModelSlot, SwapOutcome};
use mtmlf::prelude::*;
use mtmlf::serve::ServiceConfig;
use mtmlf_datagen::{generate_queries, imdb::ImdbScale, imdb_lite, WorkloadConfig};
use mtmlf_storage::Database;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

fn setup() -> (Arc<MtmlfQo>, Arc<Database>, Vec<Query>) {
    let mut db = imdb_lite(53, ImdbScale { scale: 0.02 }).unwrap();
    db.analyze_all(8, 4);
    let queries = generate_queries(
        &db,
        &WorkloadConfig {
            count: 12,
            max_tables: 4,
            ..WorkloadConfig::default()
        },
        19,
    );
    let model = build_model(&db, 53);
    (Arc::new(model), Arc::new(db), queries)
}

fn build_model(db: &Database, seed: u64) -> MtmlfQo {
    MtmlfQo::new(
        db,
        MtmlfConfig {
            enc_queries: 10,
            enc_epochs: 1,
            seed,
            ..MtmlfConfig::tiny()
        },
    )
    .expect("build model")
}

fn temp_registry(tag: &str) -> (std::path::PathBuf, ModelRegistry) {
    let dir = std::env::temp_dir().join(format!("mtmlf_lifecycle_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = ModelRegistry::open(&dir).expect("open registry");
    (dir, registry)
}

// ---------------------------------------------------------------- registry

#[test]
fn registry_roundtrip_restores_bitwise_identical_plans() {
    let (model, db, queries) = setup();
    let (dir, registry) = temp_registry("roundtrip");
    let version = registry.publish(&model).expect("publish");
    assert_eq!(registry.latest(), Some(version));

    let mut restored = build_model(&db, 99); // different seed: different weights
    registry
        .load_into(version, &mut restored)
        .expect("load snapshot");
    for query in &queries {
        let (base_order, base_card, base_cost) =
            model.plan_with_estimates(query).expect("baseline plan");
        let (rest_order, rest_card, rest_cost) =
            restored.plan_with_estimates(query).expect("restored plan");
        assert_eq!(base_order, rest_order);
        assert_eq!(base_card.to_bits(), rest_card.to_bits());
        assert_eq!(base_cost.to_bits(), rest_cost.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `open` recovers exactly the sorted, deduplicated version set from
/// the snapshot files on disk, whatever order they were created in —
/// the zero-padded file names make lexicographic order numeric order.
#[test]
fn registry_scan_orders_versions_numerically() {
    for seed in 0..16 {
        let mut rng = StdRng::seed_from_u64(seed);
        let versions: Vec<u64> = (0..rng.gen_range(1..12))
            .map(|_| rng.gen_range(1u64..1_000_000))
            .collect();
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("mtmlf_lifecycle_scan_{pid}_{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        for v in &versions {
            // Scanning reads names only, so placeholder bytes suffice.
            std::fs::write(dir.join(format!("model-v{v:020}.weights")), b"x")
                .expect("touch snapshot");
        }
        // Distractors the scan must ignore.
        std::fs::write(dir.join("notes.txt"), b"x").expect("touch distractor");
        std::fs::write(dir.join("model-vNaN.weights"), b"x").expect("touch distractor");

        let registry = ModelRegistry::open(&dir).expect("open registry");
        let mut expected: Vec<u64> = versions.clone();
        expected.sort_unstable();
        expected.dedup();
        let got: Vec<u64> = registry.versions().iter().map(|v| v.0).collect();
        assert_eq!(got, expected, "seed {seed}");
        assert_eq!(
            registry.latest().map(|v| v.0),
            expected.last().copied(),
            "seed {seed}"
        );
        for v in expected {
            assert!(registry.contains(ModelVersion(v)), "seed {seed}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Publishing always yields strictly increasing versions, regardless
/// of what versions already exist on disk.
#[test]
fn publish_is_monotonic_over_any_existing_set() {
    for seed in 0..16 {
        let mut rng = StdRng::seed_from_u64(seed);
        let existing: Vec<u64> = (0..rng.gen_range(0..6))
            .map(|_| rng.gen_range(1u64..1_000))
            .collect();
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("mtmlf_lifecycle_mono_{pid}_{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        for v in &existing {
            std::fs::write(dir.join(format!("model-v{v:020}.weights")), b"x")
                .expect("touch snapshot");
        }
        let registry = ModelRegistry::open(&dir).expect("open registry");
        let model = trivial_model();
        let floor = existing.iter().copied().max().unwrap_or(0);
        let first = registry.publish(&model).expect("publish");
        let second = registry.publish(&model).expect("publish again");
        assert!(first.0 > floor, "seed {seed}");
        assert!(second > first, "seed {seed}");
        assert_eq!(registry.latest(), Some(second), "seed {seed}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A minimal model over a tiny database, built once and shared across
/// seeded cases (publish and swap only read it).
fn trivial_model() -> Arc<MtmlfQo> {
    static MODEL: std::sync::OnceLock<Arc<MtmlfQo>> = std::sync::OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let mut db = imdb_lite(7, ImdbScale { scale: 0.005 }).unwrap();
        db.analyze_all(4, 2);
        Arc::new(
            MtmlfQo::new(
                &db,
                MtmlfConfig {
                    enc_queries: 2,
                    enc_epochs: 1,
                    seed: 7,
                    ..MtmlfConfig::tiny()
                },
            )
            .expect("build trivial model"),
        )
    }))
}

// -------------------------------------------------------------------- swap

/// Swap is idempotent: applying each swap of a random version sequence
/// twice leaves the slot in exactly the state of applying it once.
#[test]
fn doubled_swaps_equal_single_swaps() {
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(seed);
        let versions: Vec<u64> = (0..rng.gen_range(1..10))
            .map(|_| rng.gen_range(1u64..50))
            .collect();
        let model = trivial_model();
        let single = ModelSlot::new(Arc::clone(&model));
        let doubled = ModelSlot::new(Arc::clone(&model));
        for &v in &versions {
            single.swap(Arc::clone(&model), ModelVersion(v));
            doubled.swap(Arc::clone(&model), ModelVersion(v));
            let second = doubled.swap(Arc::clone(&model), ModelVersion(v));
            // A same-version re-swap must be recognized, not re-applied.
            assert!(
                !matches!(second, SwapOutcome::Swapped { .. }),
                "seed {seed}: second swap to v{v} was not idempotent"
            );
            assert_eq!(single.version(), doubled.version(), "seed {seed}");
        }
    }
}

/// A rollback is a re-adopt: v1 comes back from the registry, checksum
/// verified, and serves plans and estimates bitwise equal to those served
/// before the swap.
#[test]
fn rollback_after_swap_restores_bitwise_identical_plans() {
    let (model, db, queries) = setup();
    let (dir, registry) = temp_registry("readopt");
    let v1 = registry.publish(&model).expect("publish v1");
    let v2 = registry.publish(&build_model(&db, 54)).expect("publish v2");
    let service = PlannerService::builder(Arc::clone(&model))
        .model_version(v1)
        .config(ServiceConfig {
            cache_capacity: 0,
            ..ServiceConfig::default()
        })
        .start()
        .expect("start service");

    let pinned: Vec<_> = queries.iter().take(6).cloned().collect();
    let baseline: Vec<_> = pinned
        .iter()
        .map(|q| service.plan(q.clone()).expect("baseline plan"))
        .collect();

    // Fresh targets built from other seeds: only the registry's weights
    // can make them plan like the published versions.
    let outcome = service
        .adopt_version(&registry, v2, build_model(&db, 98))
        .expect("adopt v2");
    assert_eq!(outcome, SwapOutcome::Swapped { previous: v1 });
    assert_eq!(service.model_version(), v2);
    // The candidate actually serves (sanity, not bitwise-compared).
    for q in &pinned {
        service.plan(q.clone()).expect("candidate plan");
    }

    let outcome = service
        .adopt_version(&registry, v1, build_model(&db, 99))
        .expect("re-adopt v1");
    assert_eq!(outcome, SwapOutcome::Swapped { previous: v2 });
    assert_eq!(service.model_version(), v1);
    for (q, base) in pinned.iter().zip(&baseline) {
        let resp = service.plan(q.clone()).expect("post-rollback plan");
        assert_eq!(
            resp.join_order, base.join_order,
            "order changed after rollback"
        );
        assert_eq!(resp.est_card.to_bits(), base.est_card.to_bits());
        assert_eq!(resp.est_cost.to_bits(), base.est_cost.to_bits());
    }

    let m = service.metrics();
    assert_eq!(m.swaps, 2);
    assert_eq!(m.swap_rejections, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A swap keeps no copy of the model it displaces: once no batch holds
/// it, the caller's own handle is the last one. Checked on a service that
/// has not served a request (so no miss holds the model) and on a bare
/// slot.
#[test]
fn swap_releases_the_displaced_model() {
    let (model, db, _) = setup();
    let candidate = Arc::new(build_model(&db, 54));
    let service = PlannerService::builder(Arc::clone(&model))
        .model_version(ModelVersion(1))
        .start()
        .expect("start service");
    let outcome = service.swap_model(Arc::clone(&candidate), ModelVersion(2));
    assert_eq!(
        outcome,
        SwapOutcome::Swapped {
            previous: ModelVersion(1)
        }
    );
    assert_eq!(Arc::strong_count(&model), 1, "the service kept v1");

    let slot = ModelSlot::with_version(Arc::clone(&model), ModelVersion(1));
    slot.swap(Arc::clone(&candidate), ModelVersion(2));
    assert_eq!(Arc::strong_count(&model), 1, "the slot kept v1");
}
