//! Surface tests for the 0.2 client API: the builder is the only way to
//! start a service (the deprecated `start*` shims are gone), and every
//! planning mode — the single-threaded facade and the concurrent service —
//! speaks the unified [`PlanClient`] request/response vocabulary.

use mtmlf::prelude::*;
use mtmlf_datagen::{generate_queries, imdb::ImdbScale, imdb_lite, WorkloadConfig};
use mtmlf_storage::Database;
use std::sync::Arc;
use std::time::Duration;

fn setup(max_query_tables: usize) -> (Arc<MtmlfQo>, Arc<Database>, Vec<Query>) {
    let mut db = imdb_lite(61, ImdbScale { scale: 0.02 }).unwrap();
    db.analyze_all(8, 4);
    let cfg = MtmlfConfig {
        enc_queries: 10,
        enc_epochs: 1,
        seed: 61,
        max_query_tables,
        ..MtmlfConfig::tiny()
    };
    let queries = generate_queries(
        &db,
        &WorkloadConfig {
            count: 3,
            max_tables: 4,
            ..WorkloadConfig::default()
        },
        23,
    );
    let model = MtmlfQo::new(&db, cfg).expect("build model");
    (Arc::new(model), Arc::new(db), queries)
}

/// `builder(..).config(..).start()` spawns a working pool whose answers
/// are bitwise identical to the facade's.
#[test]
fn builder_starts_a_service_that_matches_the_facade() {
    let (model, _db, queries) = setup(8);
    let service = PlannerService::builder(Arc::clone(&model))
        .start()
        .expect("builder starts");
    for query in &queries {
        let resp = service.plan(query.clone()).expect("service plans");
        assert_eq!(resp.source, PlanSource::Model);
        let (order, card, cost) = model.plan_with_estimates(query).expect("direct");
        assert_eq!(resp.join_order, order);
        assert_eq!(resp.est_card.to_bits(), card.to_bits());
        assert_eq!(resp.est_cost.to_bits(), cost.to_bits());
    }
    let m = service.metrics();
    assert_eq!(m.requests, queries.len() as u64);
    assert_eq!(m.errors, 0);
    service.shutdown();
}

/// The facade and the service implement the same [`PlanClient`] trait and
/// produce the same payloads through it: callers can hold `&dyn PlanClient`
/// and stay oblivious to the serving mode.
#[test]
fn facade_and_service_agree_through_the_plan_client_trait() {
    let (model, _db, queries) = setup(8);
    let service = PlannerService::builder(Arc::clone(&model))
        .start()
        .expect("builder starts");
    let modes: [(&str, &dyn PlanClient); 2] = [("facade", &*model), ("service", &service)];
    for query in &queries {
        let mut payloads = Vec::new();
        for (name, client) in modes {
            let resp = client
                .plan(PlanRequest::new(query.clone()))
                .unwrap_or_else(|e| panic!("{name} plans: {e}"));
            assert_eq!(
                resp.source,
                PlanSource::Model,
                "{name} reports model source"
            );
            payloads.push(resp.payload());
        }
        assert_eq!(payloads[0], payloads[1], "modes agree on the payload");
    }
    service.shutdown();
}

/// `plan_batch` answers every request in order, mixing cache hits with
/// fresh plans, and the batched answers match the one-at-a-time answers.
#[test]
fn plan_batch_answers_every_request_in_order() {
    let (model, _db, queries) = setup(8);
    let service = PlannerService::builder(Arc::clone(&model))
        .start()
        .expect("builder starts");
    // Duplicate the workload so the batch contains repeats (cache collapse).
    let requests: Vec<PlanRequest> = queries
        .iter()
        .chain(queries.iter())
        .map(|q| PlanRequest::new(q.clone()))
        .collect();
    let responses = PlanClient::plan_batch(&service, requests);
    assert_eq!(responses.len(), queries.len() * 2);
    for (i, resp) in responses.iter().enumerate() {
        let resp = resp.as_ref().expect("batched request answered");
        let query = &queries[i % queries.len()];
        let (order, ..) = model.plan_with_estimates(query).expect("direct");
        assert_eq!(resp.join_order, order, "response {i} kept its slot");
    }
    service.shutdown();
}

/// The unified request shape carries deadline and trace opt-out to the
/// service: an opted-out request leaves no trace even on a tracing service.
#[test]
fn requests_carry_deadline_and_trace_preferences() {
    let (model, _db, queries) = setup(8);
    let service = PlannerService::builder(Arc::clone(&model))
        .tracing(TraceConfig::default())
        .start()
        .expect("builder starts");
    let query = queries[0].clone();
    let traced = service
        .plan(PlanRequest::new(query.clone()).with_deadline(Duration::from_secs(30)))
        .expect("traced plan");
    assert_eq!(traced.source, PlanSource::Model);
    assert_eq!(service.traces().len(), 1, "default: traced when configured");
    let _ = service
        .plan(PlanRequest::new(query).with_tracing(false))
        .expect("opted-out plan");
    assert_eq!(service.traces().len(), 1, "opt-out left no new trace");
    service.shutdown();
}

/// The facade honors the request deadline contract: an impossible budget
/// yields `Timeout`, never a late response.
#[test]
fn facade_rejects_blown_deadlines() {
    let (model, _db, queries) = setup(8);
    let client: &dyn PlanClient = &*model;
    let err = client
        .plan(PlanRequest::new(queries[0].clone()).with_deadline(Duration::ZERO))
        .expect_err("zero budget cannot be met");
    assert!(matches!(err, MtmlfError::Timeout));
    let ok = client
        .plan(PlanRequest::new(queries[0].clone()).with_deadline(Duration::from_secs(60)))
        .expect("generous budget is met");
    assert_eq!(ok.source, PlanSource::Model);
}
