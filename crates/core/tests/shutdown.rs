//! Regression tests for `PlannerService::shutdown` racing in-flight
//! requests.
//!
//! The serving path shares two lock families: the model slot's `RwLock`
//! and the plan cache's shard mutexes. A shutdown racing live `plan` calls
//! must not poison either (clients would start panicking on unrelated
//! queries), must not fail requests it already admitted (clients would get
//! spurious errors), and must not flush the durable log ahead of an
//! admitted miss's cache insert (a restart would lose a plan a client was
//! given). These tests exercise the real implementation under an actual
//! scheduler.

use mtmlf::prelude::*;
use mtmlf_datagen::{generate_queries, imdb::ImdbScale, imdb_lite, WorkloadConfig};
use mtmlf_query::fingerprint;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

fn setup() -> (Arc<MtmlfQo>, Vec<Query>) {
    setup_with(6)
}

/// A model plus `count` generated queries with distinct fingerprints.
fn setup_with(count: usize) -> (Arc<MtmlfQo>, Vec<Query>) {
    let mut db = imdb_lite(47, ImdbScale { scale: 0.02 }).unwrap();
    db.analyze_all(8, 4);
    let cfg = MtmlfConfig {
        enc_queries: 10,
        enc_epochs: 1,
        seed: 47,
        ..MtmlfConfig::tiny()
    };
    let mut queries = generate_queries(
        &db,
        &WorkloadConfig {
            count,
            max_tables: 4,
            ..WorkloadConfig::default()
        },
        13,
    );
    let mut seen = HashSet::new();
    queries.retain(|q| seen.insert(fingerprint(q)));
    let model = MtmlfQo::new(&db, cfg).expect("build model");
    (Arc::new(model), queries)
}

/// Shutdown racing concurrent clients: every `plan` call either succeeds
/// or reports a clean `Service` error — never a hang, a dropped reply, or
/// a panic — and the model's autograd locks stay usable afterwards.
#[test]
fn shutdown_with_inflight_requests_is_graceful() {
    let (model, queries) = setup();
    let service = Arc::new(
        PlannerService::builder(Arc::clone(&model))
            .start()
            .expect("start service"),
    );

    let answered = Arc::new(AtomicUsize::new(0));
    let rejected = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for offset in 0..3 {
            let service = Arc::clone(&service);
            let queries = queries.clone();
            let answered = Arc::clone(&answered);
            let rejected = Arc::clone(&rejected);
            scope.spawn(move || {
                for round in 0..8 {
                    let query = queries[(offset + round) % queries.len()].clone();
                    match service.plan(query.clone()) {
                        Ok(response) => {
                            response.join_order.validate(&query).expect("legal order");
                            answered.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(MtmlfError::Service(_)) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
            });
        }
        // Land the shutdown in the middle of the client traffic.
        let service = Arc::clone(&service);
        scope.spawn(move || service.shutdown());
    });
    assert_eq!(
        answered.load(Ordering::Relaxed) + rejected.load(Ordering::Relaxed),
        3 * 8,
        "every request must be answered or cleanly rejected"
    );

    // After shutdown the service refuses politely...
    match service.plan(queries[0].clone()) {
        Err(MtmlfError::Service(_)) => {}
        other => panic!("post-shutdown plan should fail with Service, got {other:?}"),
    }
    // ...and the shared model is untouched: no autograd lock was poisoned
    // by the race, so direct planning still works.
    for query in &queries {
        let (order, _, _) = model.plan_with_estimates(query).expect("model still plans");
        order.validate(query).expect("legal order");
    }
}

/// Requests admitted before shutdown closed the service are still
/// answered: shutdown waits for the misses in flight, so no accepted
/// request is silently dropped.
#[test]
fn queued_requests_survive_shutdown() {
    let (model, queries) = setup();
    let service = Arc::new(
        PlannerService::builder(model)
            .start()
            .expect("start service"),
    );

    // Warm every query so the follow-up requests are deterministic fast
    // cache hits regardless of where shutdown lands.
    for query in &queries {
        let response = service.plan(query.clone()).expect("warm plan");
        assert_eq!(response.source, PlanSource::Model);
    }

    std::thread::scope(|scope| {
        for query in &queries {
            let service = Arc::clone(&service);
            let query = query.clone();
            scope.spawn(move || {
                // Submitted before or after close — both outcomes are
                // legal; a hung thread here fails the test by timeout.
                let _ = service.plan(query);
            });
        }
        let service = Arc::clone(&service);
        scope.spawn(move || service.shutdown());
    });

    // Shutdown is idempotent.
    service.shutdown();
    assert!(matches!(
        service.plan(queries[0].clone()),
        Err(MtmlfError::Service(_))
    ));
}

/// Shutdown racing cold misses on a durable service: every `plan` call
/// returns a plan or a clean `Service` error, and once `shutdown` returns,
/// a service reopened on the same directory warm-starts with every plan
/// that came back from the model, bit for bit. The default write-behind
/// buffer holds those puts in memory until the shutdown flush, so a flush
/// that ran ahead of an admitted miss's cache insert would lose its plan.
#[test]
fn shutdown_racing_cold_misses_persists_every_model_plan() {
    let (model, queries) = setup_with(30);
    let dir = std::env::temp_dir().join(format!("mtmlf_shutdown_race_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = PlannerService::builder(Arc::clone(&model))
        .durable(&dir)
        .start()
        .expect("start service");

    let answered = AtomicUsize::new(0);
    let planned = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for client in 0..3 {
            let (service, answered, planned) = (&service, &answered, &planned);
            let queries = &queries;
            scope.spawn(move || {
                for query in queries.iter().skip(client).step_by(3) {
                    match service.plan(query.clone()) {
                        Ok(response) => {
                            assert_eq!(response.source, PlanSource::Model, "every query is cold");
                            answered.fetch_add(1, Ordering::SeqCst);
                            let mut planned = planned.lock().expect("no panic under the lock");
                            planned.push((fingerprint(query), response));
                        }
                        Err(MtmlfError::Service(_)) => {}
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
            });
        }
        // Land the shutdown once the first plans are in, while the clients
        // still have misses to send.
        let (service, answered) = (&service, &answered);
        scope.spawn(move || {
            while answered.load(Ordering::SeqCst) < 3 {
                std::thread::yield_now();
            }
            service.shutdown();
        });
    });

    // Reopen while the first service is still alive, so only the flush of
    // the `shutdown` call above can have written the buffered puts.
    let planned = planned.into_inner().expect("no panic under the lock");
    assert!(planned.len() >= 3, "the shutdown waited for three plans");
    let reopened = PlannerService::builder(model)
        .durable(&dir)
        .start()
        .expect("reopen service");
    assert!(reopened.metrics().warm_start_entries >= planned.len() as u64);
    for (fp, response) in &planned {
        let cached = reopened
            .cached_payload(fp)
            .expect("every model plan a client got survives the restart");
        assert_eq!(cached.join_order, response.join_order);
        assert_eq!(cached.est_card.to_bits(), response.est_card.to_bits());
        assert_eq!(cached.est_cost.to_bits(), response.est_cost.to_bits());
    }
    drop(reopened);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
