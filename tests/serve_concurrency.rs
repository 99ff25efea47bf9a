//! Concurrency correctness for the serving layer: under many concurrent
//! clients, `PlannerService` must return answers bit-identical to calling
//! `MtmlfQo` directly from a single thread — for both the cold (model)
//! and warm (cache) path, including two sessions that miss on the same
//! query at once.

use mtmlf::prelude::*;
use mtmlf_datagen::{generate_queries, imdb::ImdbScale, imdb_lite, WorkloadConfig};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};

const CLIENTS: usize = 8;

fn setup(seed: u64, count: usize) -> (Arc<MtmlfQo>, Vec<Query>) {
    let mut db = imdb_lite(seed, ImdbScale { scale: 0.02 }).unwrap();
    db.analyze_all(8, 4);
    let queries = generate_queries(
        &db,
        &WorkloadConfig {
            count,
            max_tables: 4,
            ..WorkloadConfig::default()
        },
        seed ^ 0x5E21,
    );
    let config = MtmlfConfig {
        enc_queries: 10,
        enc_epochs: 1,
        seed,
        ..MtmlfConfig::tiny()
    };
    let model = MtmlfQo::new(&db, config).expect("model builds");
    (Arc::new(model), queries)
}

/// Plans every query through `service` from `CLIENTS` threads at once and
/// returns each client's responses in request order.
fn concurrent_round(service: &PlannerService, queries: &[Query]) -> Vec<Vec<PlanResponse>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    queries
                        .iter()
                        .map(|q| service.plan(q.clone()).expect("service plans"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Every cold and warm answer matches the direct model bit for bit, no
/// matter which client thread computed it, with the plan cache on and off.
#[test]
fn concurrent_service_matches_direct_model_bitwise() {
    for (seed, count, cache_capacity) in [(47, 6, 1024), (48, 4, 0)] {
        let (model, queries) = setup(seed, count);

        // Ground truth: the direct, single-threaded public API.
        let direct: Vec<_> = queries
            .iter()
            .map(|q| model.plan_with_estimates(q).expect("direct plan"))
            .collect();

        let service = PlannerService::builder(Arc::clone(&model))
            .config(ServiceConfig {
                cache_capacity,
                ..ServiceConfig::default()
            })
            .start()
            .expect("service starts");

        // Cold pass: every answer matches the direct path bit-for-bit, no
        // matter which client thread computed it.
        let cold = concurrent_round(&service, &queries);
        for client in &cold {
            for (resp, (order, card, cost)) in client.iter().zip(&direct) {
                if cache_capacity == 0 {
                    assert_eq!(resp.source, PlanSource::Model);
                }
                assert_eq!(&resp.join_order, order);
                assert_eq!(resp.est_card.to_bits(), card.to_bits());
                assert_eq!(resp.est_cost.to_bits(), cost.to_bits());
            }
        }

        // Warm pass: same answers again, now (with the cache on) all served
        // from the cache.
        let warm = concurrent_round(&service, &queries);
        let mut sources: HashMap<&str, usize> = HashMap::new();
        for client in &warm {
            for (resp, (order, card, cost)) in client.iter().zip(&direct) {
                assert_eq!(&resp.join_order, order);
                assert_eq!(resp.est_card.to_bits(), card.to_bits());
                assert_eq!(resp.est_cost.to_bits(), cost.to_bits());
                *sources
                    .entry(match resp.source {
                        PlanSource::Cache => "cache",
                        PlanSource::Model => "model",
                        PlanSource::Fallback => "fallback",
                    })
                    .or_default() += 1;
            }
        }
        let metrics = service.metrics();
        assert_eq!(metrics.requests, (2 * CLIENTS * queries.len()) as u64);
        assert!(metrics.model_plans >= queries.len() as u64);
        assert_eq!(metrics.errors, 0);
        if cache_capacity == 0 {
            assert_eq!(
                sources.get("model").copied().unwrap_or(0),
                CLIENTS * queries.len(),
                "without a cache every request runs the model"
            );
            assert_eq!(metrics.cache_hits, 0);
        } else {
            assert_eq!(
                sources.get("cache").copied().unwrap_or(0),
                CLIENTS * queries.len(),
                "after a full cold pass every warm request is a cache hit"
            );
            assert!(metrics.cache_hits >= (CLIENTS * queries.len()) as u64);
        }
    }
}

/// Two sessions miss on the same query at the same moment. Nothing merges
/// the two requests: each runs its own model pass (or the later one finds
/// the earlier one's answer in the cache). Both answers equal the direct
/// model's bit for bit, and the cache ends up with one entry.
#[test]
fn simultaneous_misses_on_one_query_agree_bitwise() {
    let (model, queries) = setup(47, 6);
    let query = &queries[0];
    let (order, card, cost) = model.plan_with_estimates(query).expect("direct plan");
    let service = PlannerService::builder(Arc::clone(&model))
        .start()
        .expect("service starts");
    let barrier = Barrier::new(2);
    let responses: Vec<PlanResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    service.plan(query.clone()).expect("service plans")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for resp in &responses {
        assert_eq!(resp.join_order, order);
        assert_eq!(resp.est_card.to_bits(), card.to_bits());
        assert_eq!(resp.est_cost.to_bits(), cost.to_bits());
    }
    assert_eq!(service.cached_plans(), 1);
    let metrics = service.metrics();
    assert_eq!(metrics.requests, 2);
    assert_eq!(metrics.errors, 0);
}
