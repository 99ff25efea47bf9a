//! Warm-start end-to-end: serve → shut down → reboot from the durable log.
//!
//! The durable plan cache's whole point is that a restarted service picks
//! up where the dead one left off: the first pass of a repeated workload
//! after reboot is served **entirely from cache**, bitwise-identical to the
//! plans computed before the restart, without a single model forward
//! (DESIGN.md §16). This suite pins that, including the interaction with
//! model hot swap — a swap writes an epoch record, so a restart after a
//! swap must come up *empty* rather than resurrect plans from the retired
//! model version. A cluster variant checks that each replica reboots from
//! its own per-replica directory.

use mtmlf::prelude::*;
use mtmlf::resilience::ManualClock;
use mtmlf::{DurableConfig, ModelVersion, SwapOutcome};
use mtmlf_datagen::{generate_queries, imdb::ImdbScale, imdb_lite, WorkloadConfig};
use mtmlf_query::fingerprint;
use mtmlf_storage::Database;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn setup() -> (Arc<MtmlfQo>, Arc<Database>, Vec<Query>) {
    let mut db = imdb_lite(41, ImdbScale { scale: 0.02 }).unwrap();
    db.analyze_all(8, 4);
    let cfg = MtmlfConfig {
        enc_queries: 10,
        enc_epochs: 1,
        seed: 41,
        ..MtmlfConfig::tiny()
    };
    let mut queries = generate_queries(
        &db,
        &WorkloadConfig {
            count: 6,
            max_tables: 4,
            ..WorkloadConfig::default()
        },
        23,
    );
    // Distinct fingerprints: the assertions below count one cache entry
    // per query.
    let mut seen = std::collections::HashSet::new();
    queries.retain(|q| seen.insert(fingerprint(q)));
    let model = MtmlfQo::new(&db, cfg).expect("build model");
    (Arc::new(model), Arc::new(db), queries)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mtmlf_warmstart_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything flushed before the insert returns: restart tests must not
/// depend on a clean shutdown to see their writes.
fn durable(dir: &Path) -> DurableConfig {
    DurableConfig::new(dir)
        .with_clock(Arc::new(ManualClock::new()))
        .with_buffer_records(1)
}

fn service(model: &Arc<MtmlfQo>, dir: &Path) -> PlannerService {
    service_with(model, durable(dir))
}

fn service_with(model: &Arc<MtmlfQo>, config: DurableConfig) -> PlannerService {
    PlannerService::builder(Arc::clone(model))
        .durable_config(config)
        .start()
        .expect("service starts")
}

fn assert_bitwise(a: &PlanResponse, b: &PlanResponse, context: &str) {
    assert_eq!(a.join_order, b.join_order, "{context}: join order");
    assert_eq!(
        a.est_card.to_bits(),
        b.est_card.to_bits(),
        "{context}: est_card"
    );
    assert_eq!(
        a.est_cost.to_bits(),
        b.est_cost.to_bits(),
        "{context}: est_cost"
    );
}

/// The headline contract: after a shutdown + reboot, the *first* pass of
/// the workload is served entirely from the warm-started cache, bitwise
/// identical to the pre-restart answers, and the metrics say so. It holds
/// for the eager 1-record config and for the default write-behind config,
/// whose buffered puts reach disk only because a clean shutdown flushes
/// them.
#[test]
fn reboot_serves_first_pass_from_cache_bitwise() {
    let (model, _db, queries) = setup();
    for (tag, write_behind) in [("reboot", false), ("reboot_write_behind", true)] {
        let dir = tmpdir(tag);
        let config = || {
            if write_behind {
                DurableConfig::new(&dir)
            } else {
                durable(&dir)
            }
        };
        reboot_first_pass_from_cache(&model, &queries, config, write_behind);
    }
}

fn reboot_first_pass_from_cache(
    model: &Arc<MtmlfQo>,
    queries: &[Query],
    config: impl Fn() -> DurableConfig,
    write_behind: bool,
) {
    let mut before: HashMap<u128, PlanResponse> = HashMap::new();
    {
        let service = service_with(model, config());
        for query in queries {
            let resp = service.plan(PlanRequest::new(query.clone())).expect("plan");
            assert_eq!(resp.source, PlanSource::Model, "cold cache: model path");
            before.insert(fingerprint(query).as_u128(), resp);
        }
        // Second pass: the live cache already serves every repeat.
        for query in queries {
            let resp = service.plan(PlanRequest::new(query.clone())).expect("plan");
            assert_eq!(resp.source, PlanSource::Cache);
        }
        let m = service.metrics();
        assert_eq!(m.cached_plans, queries.len() as u64);
        assert_eq!(m.warm_start_entries, 0, "cold boot warm-started nothing");
        // Fewer puts than the default 64-record buffer: under write-behind
        // nothing is on disk until the shutdown flush.
        assert_eq!(
            service.plan_store().log_bytes() == 0,
            write_behind,
            "write-behind buffers the puts; the 1-record config writes each"
        );
        service.shutdown();
    }

    let rebooted = service_with(model, config());
    let m = rebooted.metrics();
    assert_eq!(
        m.warm_start_entries,
        queries.len() as u64,
        "every cached plan must survive the restart"
    );
    assert_eq!(m.cached_plans, queries.len() as u64);
    for query in queries {
        let resp = rebooted
            .plan(PlanRequest::new(query.clone()))
            .expect("plan");
        assert_eq!(
            resp.source,
            PlanSource::Cache,
            "first post-reboot pass must be a cache hit"
        );
        let want = &before[&fingerprint(query).as_u128()];
        assert_bitwise(&resp, want, "post-reboot plan");
    }
    let m = rebooted.metrics();
    assert_eq!(
        m.cache_hits,
        queries.len() as u64,
        "all first-pass requests hit"
    );
    assert_eq!(m.model_plans, 0, "no model forward ran after reboot");
    rebooted.shutdown();
}

/// A hot swap invalidates the cache with an epoch record; the invalidation
/// is durable. Restarting after a swap must come up empty — serving a
/// retired version's plans from disk would defeat the swap — and plans
/// cached *after* the swap warm-start normally on the next reboot.
#[test]
fn hot_swap_epoch_survives_restart() {
    let (model, _db, queries) = setup();
    let dir = tmpdir("swap");

    {
        let service = service(&model, &dir);
        for query in &queries {
            service.plan(PlanRequest::new(query.clone())).expect("plan");
        }
        assert_eq!(service.metrics().cached_plans, queries.len() as u64);
        match service.swap_model(Arc::clone(&model), ModelVersion(1)) {
            SwapOutcome::Swapped { .. } => {}
            other => panic!("swap refused: {other:?}"),
        }
        assert_eq!(
            service.metrics().cached_plans,
            0,
            "swap clears the live cache"
        );
        // No clean shutdown: the epoch record must already be durable.
    }

    {
        let rebooted = service(&model, &dir);
        assert_eq!(
            rebooted.metrics().warm_start_entries,
            0,
            "plans cached before a hot swap must not survive the restart"
        );
        for query in &queries {
            let resp = rebooted
                .plan(PlanRequest::new(query.clone()))
                .expect("plan");
            assert_eq!(resp.source, PlanSource::Model, "post-swap reboot replans");
        }
        rebooted.shutdown();
    }

    // The post-swap generation of plans warm-starts like any other.
    let third = service(&model, &dir);
    assert_eq!(third.metrics().warm_start_entries, queries.len() as u64);
    for query in &queries {
        let resp = third.plan(PlanRequest::new(query.clone())).expect("plan");
        assert_eq!(resp.source, PlanSource::Cache);
    }
    third.shutdown();
}

/// Explicit invalidations are durable too: a plan removed before the
/// restart stays gone, while its neighbors warm-start.
#[test]
fn invalidation_survives_restart() {
    let (model, _db, queries) = setup();
    assert!(queries.len() >= 2, "workload too small");
    let dir = tmpdir("invalidate");
    let dropped = fingerprint(&queries[0]);

    {
        let service = service(&model, &dir);
        for query in &queries {
            service.plan(PlanRequest::new(query.clone())).expect("plan");
        }
        assert!(service.invalidate(&dropped), "entry existed");
        service.shutdown();
    }

    let rebooted = service(&model, &dir);
    assert_eq!(
        rebooted.metrics().warm_start_entries,
        (queries.len() - 1) as u64
    );
    assert!(
        rebooted.cached_payload(&dropped).is_none(),
        "invalidated plan resurrected"
    );
    let resp = rebooted
        .plan(PlanRequest::new(queries[0].clone()))
        .expect("plan");
    assert_eq!(
        resp.source,
        PlanSource::Model,
        "invalidated plan must be recomputed"
    );
    for query in &queries[1..] {
        let resp = rebooted
            .plan(PlanRequest::new(query.clone()))
            .expect("plan");
        assert_eq!(resp.source, PlanSource::Cache);
    }
    rebooted.shutdown();
}

/// Cluster mode: each replica persists to its own `replica_<i>` directory
/// under the cluster's durable root and reboots from it. The restarted
/// cluster answers the whole workload bitwise-identically from cache.
#[test]
fn cluster_replicas_warm_start_from_per_replica_dirs() {
    let (model, _db, queries) = setup();
    let dir = tmpdir("cluster");

    let build = |model: &Arc<MtmlfQo>| {
        ClusterService::builder(Arc::clone(model))
            .replicas(2)
            .durable_config(durable(&dir))
            .start()
            .expect("cluster starts")
    };

    let mut before: HashMap<u128, PlanResponse> = HashMap::new();
    {
        let cluster = build(&model);
        for query in &queries {
            let resp = cluster.plan(PlanRequest::new(query.clone())).expect("plan");
            before.insert(fingerprint(query).as_u128(), resp);
        }
        // Eager per-record flush: dropping the cluster loses nothing.
    }
    for i in 0..2 {
        assert!(
            dir.join(format!("replica_{i}")).join("plans.log").exists()
                || dir
                    .join(format!("replica_{i}"))
                    .join("plans.snapshot")
                    .exists(),
            "replica {i} wrote no durable state"
        );
    }

    let cluster = build(&model);
    for query in &queries {
        let resp = cluster.plan(PlanRequest::new(query.clone())).expect("plan");
        assert_eq!(
            resp.source,
            PlanSource::Cache,
            "restarted cluster must serve the first pass from warm caches"
        );
        assert_bitwise(
            &resp,
            &before[&fingerprint(query).as_u128()],
            "cluster reboot",
        );
    }
}
