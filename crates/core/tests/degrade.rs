//! Degradation-ladder integration tests that need no fault injection:
//! deadlines, the classical fallback, and breaker recovery are all
//! observable with natural failures (queries too large for the model) and
//! the injectable [`mtmlf::Clock`].
//!
//! The chaos suite (`tests/chaos.rs`, behind the `fault-injection`
//! feature) covers injected error storms, latency spikes, and panicking
//! forwards; this file runs under a plain `cargo test`.

use mtmlf::prelude::*;
use mtmlf::resilience::ManualClock;
use mtmlf::serve::ServiceConfig;
use mtmlf::{BreakerState, Clock, MtmlfError};
use mtmlf_datagen::{generate_queries, imdb::ImdbScale, imdb_lite, WorkloadConfig};
use mtmlf_optd::PgOptimizer;
use mtmlf_storage::Database;
use std::sync::Arc;
use std::time::Duration;

fn setup(max_query_tables: usize) -> (Arc<MtmlfQo>, Arc<Database>) {
    let mut db = imdb_lite(43, ImdbScale { scale: 0.02 }).unwrap();
    db.analyze_all(8, 4);
    let cfg = MtmlfConfig {
        enc_queries: 10,
        enc_epochs: 1,
        seed: 43,
        max_query_tables,
        ..MtmlfConfig::tiny()
    };
    let model = MtmlfQo::new(&db, cfg).expect("build model");
    (Arc::new(model), Arc::new(db))
}

fn workload(db: &Database, min_tables: usize, max_tables: usize, count: usize) -> Vec<Query> {
    generate_queries(
        db,
        &WorkloadConfig {
            count,
            min_tables,
            max_tables,
            ..WorkloadConfig::default()
        },
        17,
    )
}

/// A request whose deadline has expired by admission is never forwarded
/// through the model: the caller gets [`MtmlfError::Timeout`], the service
/// drops the miss before the forward (visible as `metrics.expired`), and
/// queries planned alongside it are answered bit-identically to the
/// single-threaded facade.
#[test]
fn expired_deadline_is_dropped_before_the_forward() {
    let (model, _db) = setup(8);
    let queries = workload(&_db, 2, 4, 4);
    let service = Arc::new(
        PlannerService::builder(Arc::clone(&model))
            .start()
            .expect("start service"),
    );

    // A zero deadline has already expired by the time the miss is
    // admitted, so the drop-before-forward path is deterministic.
    let doomed = queries[0].clone();
    let mates: Vec<Query> = queries[1..].to_vec();
    let mut mate_results = Vec::new();
    std::thread::scope(|scope| {
        let service_ref = &service;
        let timed_out = scope.spawn(move || {
            service_ref.plan(PlanRequest::new(doomed).with_deadline(Duration::ZERO))
        });
        let mate_handles: Vec<_> = mates
            .iter()
            .map(|query| {
                let query = query.clone();
                scope.spawn(move || service_ref.plan(query))
            })
            .collect();
        assert!(
            matches!(
                timed_out.join().expect("no panic"),
                Err(MtmlfError::Timeout)
            ),
            "zero deadline must time out"
        );
        for handle in mate_handles {
            mate_results.push(handle.join().expect("no panic").expect("mate planned"));
        }
    });

    // Concurrent misses are untouched by the expiry: bit-identical to the
    // model.
    for (query, resp) in mates.iter().zip(&mate_results) {
        assert_eq!(resp.source, PlanSource::Model);
        let (order, card, cost) = model.plan_with_estimates(query).expect("direct");
        assert_eq!(resp.join_order, order);
        assert_eq!(resp.est_card.to_bits(), card.to_bits());
        assert_eq!(resp.est_cost.to_bits(), cost.to_bits());
    }

    service.shutdown();
    let m = service.metrics();
    assert_eq!(m.timeouts, 1);
    assert_eq!(
        m.expired, 1,
        "the doomed job must be dropped, not forwarded"
    );
    assert_eq!(m.model_plans, mates.len() as u64);
    // The dropped query was never planned, so it was never cached.
    assert_eq!(service.cached_plans(), mates.len());
}

/// Property over generated workloads: when the model cannot plan a query
/// at all (more tables than its serializer admits), the fallback answers
/// with a *legal* join order that is bitwise identical to running the
/// classical optimizer directly.
#[test]
fn fallback_plans_are_legal_and_match_the_classical_optimizer() {
    // Model admits ≤ 3 tables; every workload query joins exactly 4.
    let (model, db) = setup(3);
    let queries = workload(&db, 4, 4, 6);
    let service = PlannerService::builder(model)
        .fallback(FallbackPlanner::new(Arc::clone(&db)))
        .start()
        .expect("start service");

    let reference = PgOptimizer::new(&db);
    for query in &queries {
        let resp = service.plan(query.clone()).expect("fallback answers");
        assert_eq!(resp.source, PlanSource::Fallback);
        resp.join_order.validate(query).expect("legal join order");
        let (planned, card) = reference.plan_with_estimates(query).expect("classical");
        assert_eq!(resp.join_order, planned.order);
        assert_eq!(resp.est_card.to_bits(), card.to_bits());
        assert_eq!(resp.est_cost.to_bits(), planned.estimated_cost.to_bits());
    }
    let m = service.metrics();
    assert_eq!(m.fallbacks, queries.len() as u64);
    assert_eq!(m.model_plans, 0);
    assert_eq!(m.errors, 0, "a model failure never becomes a query failure");
    // Fallback plans are never cached: the cache replays model output only.
    assert_eq!(service.cached_plans(), 0);
}

/// Breaker lifecycle Open → HalfOpen → Closed, driven by natural failures
/// (oversized queries) and a [`ManualClock`], observed through
/// [`mtmlf::MetricsSnapshot`] and [`PlannerService::breaker_state`].
#[test]
fn breaker_recovery_is_observable_through_metrics() {
    let (model, db) = setup(3);
    let big = workload(&db, 4, 4, 2);
    let small = workload(&db, 2, 3, 2);
    let clock = Arc::new(ManualClock::new());
    let service = PlannerService::builder(model)
        .config(ServiceConfig {
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(100),
                clock: Arc::clone(&clock) as Arc<dyn Clock>,
            },
            ..ServiceConfig::default()
        })
        .fallback(FallbackPlanner::new(Arc::clone(&db)))
        .start()
        .expect("start service");

    // Two oversized queries fail the model path twice: threshold reached.
    for query in &big {
        let resp = service.plan(query.clone()).expect("fallback answers");
        assert_eq!(resp.source, PlanSource::Fallback);
    }
    assert_eq!(service.breaker_state(), BreakerState::Open);
    assert_eq!(service.metrics().breaker_opens, 1);

    // Open and not yet cooled down: even a model-plannable query is
    // rejected at the breaker and degrades to the fallback.
    let resp = service.plan(small[0].clone()).expect("degraded answer");
    assert_eq!(resp.source, PlanSource::Fallback);
    assert_eq!(service.breaker_state(), BreakerState::Open);

    // Cool-down elapses (manual clock: deterministic, no real sleeping);
    // the next request is the half-open probe, succeeds, and closes the
    // breaker.
    clock.advance(Duration::from_millis(150));
    let resp = service.plan(small[1].clone()).expect("probe answer");
    assert_eq!(resp.source, PlanSource::Model);
    assert_eq!(service.breaker_state(), BreakerState::Closed);

    let m = service.metrics();
    assert_eq!(m.fallbacks, 3);
    assert_eq!(m.model_plans, 1);
    assert_eq!(m.breaker_opens, 1);
    assert_eq!(m.errors, 0);
}
