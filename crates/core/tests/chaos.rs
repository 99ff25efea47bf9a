//! Chaos suite: the serving path under deterministic injected faults.
//!
//! Requires the `fault-injection` feature (`cargo test -p mtmlf --features
//! fault-injection`); CI runs it as a dedicated job. Every test asserts the
//! service's core liveness contract: **each accepted `plan` call returns
//! exactly one result** — a cached, modeled, or fallback plan, or a typed
//! error — with no hung client, no lost reply, and no poisoned lock, under
//! every fault the harness can express (forward errors, latency spikes,
//! panicking forwards).
//!
//! Fault schedules are seeded or scripted ([`mtmlf::resilience::FaultPlan`]
//! is keyed by the global forward counter), so every run replays the same
//! storm.

#![cfg(feature = "fault-injection")]

use mtmlf::prelude::*;
use mtmlf::resilience::{FaultPlan, ManualClock};
use mtmlf::serve::ServiceConfig;
use mtmlf::{BreakerState, Clock, MtmlfError};
use mtmlf_datagen::{generate_queries, imdb::ImdbScale, imdb_lite, WorkloadConfig};
use mtmlf_storage::Database;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn setup() -> (Arc<MtmlfQo>, Arc<Database>, Vec<Query>) {
    let mut db = imdb_lite(53, ImdbScale { scale: 0.02 }).unwrap();
    db.analyze_all(8, 4);
    let cfg = MtmlfConfig {
        enc_queries: 10,
        enc_epochs: 1,
        seed: 53,
        ..MtmlfConfig::tiny()
    };
    let queries = generate_queries(
        &db,
        &WorkloadConfig {
            count: 6,
            max_tables: 4,
            ..WorkloadConfig::default()
        },
        19,
    );
    let model = MtmlfQo::new(&db, cfg).expect("build model");
    (Arc::new(model), Arc::new(db), queries)
}

/// Asserts the metrics counting identity that makes "exactly one reply"
/// auditable: every accepted request is counted once by how it returned.
fn assert_identity(m: &mtmlf::MetricsSnapshot) {
    assert_eq!(
        m.requests,
        m.cache_hits + m.model_plans + m.fallbacks + m.errors,
        "counting identity violated: {m:?}"
    );
}

/// A seeded error storm (30% of forwards fail) against a retrying,
/// breaker-guarded service with a classical fallback: concurrent clients
/// all get exactly one legal answer each, and no request errors out.
#[test]
fn seeded_error_storm_every_client_gets_one_answer() {
    let (model, db, queries) = setup();
    let service = Arc::new(
        PlannerService::builder(model)
            .config(ServiceConfig {
                cache_capacity: 0, // keep the model path hot for the storm
                ..ServiceConfig::default()
            })
            .fallback(FallbackPlanner::new(Arc::clone(&db)))
            .faults(FaultPlan::seeded(101, 300))
            .start()
            .expect("start service"),
    );

    let answered = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for offset in 0..4 {
            let service = Arc::clone(&service);
            let queries = queries.clone();
            let answered = Arc::clone(&answered);
            scope.spawn(move || {
                for round in 0..6 {
                    let query = queries[(offset + round) % queries.len()].clone();
                    let resp = service.plan(query.clone()).expect("storm answer");
                    resp.join_order.validate(&query).expect("legal order");
                    assert!(matches!(
                        resp.source,
                        PlanSource::Model | PlanSource::Fallback
                    ));
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(answered.load(Ordering::Relaxed), 4 * 6);

    let m = service.metrics();
    assert_eq!(m.requests, 4 * 6);
    assert_eq!(m.errors, 0, "retry+fallback must absorb every fault");
    assert_identity(&m);
}

/// An injected latency spike makes the victim overrun its deadline. The
/// forward cannot be interrupted, so the victim gets a clean
/// [`MtmlfError::Timeout`] once the forward ends, not at the deadline; its
/// plan is still cached, and the service keeps serving afterwards.
#[test]
fn latency_spike_times_out_cleanly() {
    let (model, _db, queries) = setup();
    let spike = Duration::from_millis(120);
    let service = PlannerService::builder(Arc::clone(&model))
        .faults(FaultPlan::new().delay_on(0, spike))
        .start()
        .expect("start service");

    let sent = std::time::Instant::now();
    let victim =
        service.plan(PlanRequest::new(queries[0].clone()).with_deadline(Duration::from_millis(10)));
    assert!(matches!(victim, Err(MtmlfError::Timeout)), "{victim:?}");
    assert!(
        sent.elapsed() >= spike,
        "the overrun is reported when the forward ends, after {:?}",
        sent.elapsed()
    );

    let m = service.metrics();
    assert_eq!(m.timeouts, 1);
    assert_eq!(m.expired, 0, "the victim was planned, not dropped");

    // The overrun's model output was cached: the next request hits, with
    // the facade's bits.
    let again = service.plan(queries[0].clone()).expect("cached answer");
    assert_eq!(again.source, PlanSource::Cache);
    let (order, card, cost) = model.plan_with_estimates(&queries[0]).expect("direct");
    assert_eq!(again.join_order, order);
    assert_eq!(again.est_card.to_bits(), card.to_bits());
    assert_eq!(again.est_cost.to_bits(), cost.to_bits());

    // A miss already past its deadline at admission is never planned.
    let doomed = service.plan(PlanRequest::new(queries[1].clone()).with_deadline(Duration::ZERO));
    assert!(matches!(doomed, Err(MtmlfError::Timeout)), "{doomed:?}");
    let m = service.metrics();
    assert_eq!((m.timeouts, m.expired), (2, 1));
    assert_eq!(m.batches, 1, "the expired miss ran no forward");

    // Later requests (forward 1+) are clean and fast.
    for query in &queries[1..] {
        let resp = service.plan(query.clone()).expect("post-spike answer");
        assert_eq!(resp.source, PlanSource::Model);
    }
    let m = service.metrics();
    assert_eq!(m.errors, 2);
    assert_identity(&m);
}

/// Scripted forward failures trip the breaker; the fallback carries the
/// load while it is open; a manual-clock cool-down later, the half-open
/// probe succeeds and the model path resumes. The whole episode is
/// deterministic.
#[test]
fn breaker_trips_and_recovers_deterministically() {
    let (model, db, queries) = setup();
    let clock = Arc::new(ManualClock::new());
    let service = PlannerService::builder(model)
        .config(ServiceConfig {
            cache_capacity: 0,
            retry: RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(100),
                clock: Arc::clone(&clock) as Arc<dyn Clock>,
            },
            ..ServiceConfig::default()
        })
        .fallback(FallbackPlanner::new(Arc::clone(&db)))
        // Forwards 0 and 1 fail; everything after is clean.
        .faults(FaultPlan::new().fail_on(0).fail_on(1))
        .start()
        .expect("start service");

    // Failures 1 and 2 trip the breaker; both degrade to the fallback.
    for query in &queries[..2] {
        let resp = service.plan(query.clone()).expect("fallback answer");
        assert_eq!(resp.source, PlanSource::Fallback);
    }
    assert_eq!(service.breaker_state(), BreakerState::Open);

    // Still open (clock has not moved): rejected at the breaker, no
    // forward consumed, fallback answers.
    let resp = service.plan(queries[2].clone()).expect("degraded answer");
    assert_eq!(resp.source, PlanSource::Fallback);

    // Cool-down passes; the probe (forward 2, clean) closes the breaker.
    clock.advance(Duration::from_millis(150));
    let resp = service.plan(queries[3].clone()).expect("probe answer");
    assert_eq!(resp.source, PlanSource::Model);
    assert_eq!(service.breaker_state(), BreakerState::Closed);

    let m = service.metrics();
    assert_eq!(m.fallbacks, 3);
    assert_eq!(m.model_plans, 1);
    assert_eq!(m.breaker_opens, 1);
    assert_eq!(m.errors, 0);
    assert_identity(&m);
}

/// With one stalled miss holding the only in-flight slot, a burst sheds
/// with [`MtmlfError::Overloaded`] — fail-fast, no hung client — and the
/// occupant still completes.
#[test]
fn overload_sheds_and_recovers() {
    let (model, _db, queries) = setup();
    let service = Arc::new(
        PlannerService::builder(model)
            .config(ServiceConfig {
                max_in_flight: 1,
                ..ServiceConfig::default()
            })
            .faults(FaultPlan::new().delay_on(0, Duration::from_millis(250)))
            .start()
            .expect("start service"),
    );

    let occupant = {
        let service = Arc::clone(&service);
        let query = queries[0].clone();
        std::thread::spawn(move || service.plan(query))
    };
    std::thread::sleep(Duration::from_millis(80)); // let it hit the delay
    let mut sheds = 0;
    for query in queries.iter().skip(1).cycle().take(8) {
        match service.plan(PlanRequest::new(query.clone()).with_deadline(Duration::ZERO)) {
            Err(MtmlfError::Overloaded) => sheds += 1,
            Err(MtmlfError::Timeout) => {} // admitted, then expired: also clean
            other => {
                other.expect("any non-shed outcome must be a plan");
            }
        }
    }
    assert!(sheds >= 1, "one in-flight slot must shed a burst");
    assert!(occupant.join().expect("occupant ran").is_ok());

    // The stall was transient: the service still answers.
    let resp = service.plan(queries[1].clone()).expect("post-burst answer");
    assert!(matches!(resp.source, PlanSource::Model | PlanSource::Cache));
    let m = service.metrics();
    assert_eq!(m.sheds, sheds);
    assert_identity(&m);
}

/// An injected panic in a forward costs its caller one clean `Service`
/// error and nothing else: no poisoned model lock, no poisoned cache
/// shard, and later requests keep planning.
#[test]
fn worker_panic_does_not_poison_the_service() {
    let (model, _db, queries) = setup();
    let service = PlannerService::builder(Arc::clone(&model))
        .faults(FaultPlan::new().panic_on(0))
        .start()
        .expect("start service");

    let victim = service.plan(queries[0].clone());
    assert!(
        matches!(victim, Err(MtmlfError::Service(_))),
        "panic must surface as a clean Service error, got {victim:?}"
    );
    for query in &queries[1..] {
        let resp = service.plan(query.clone()).expect("post-panic answer");
        assert_eq!(resp.source, PlanSource::Model);
        resp.join_order.validate(query).expect("legal order");
    }
    let m = service.metrics();
    assert_eq!(m.errors, 1);
    assert_identity(&m);
    // Shutdown does not wait on the panicked miss...
    service.shutdown();
    // ...and the shared model's autograd locks are untouched.
    for query in &queries {
        model.plan_with_estimates(query).expect("model unpoisoned");
    }
}

/// Under a seeded error storm with tracing enabled, **every accepted
/// request produces exactly one complete trace**: the traces counter
/// matches the requests counter, every ring entry's stage spans are
/// monotonically ordered inside the request window, and requests that
/// degraded to the classical planner carry a `Fallback` span.
#[test]
fn every_accepted_request_yields_exactly_one_complete_trace() {
    let (model, db, queries) = setup();
    let service = Arc::new(
        PlannerService::builder(model)
            .config(ServiceConfig {
                cache_capacity: 0,
                ..ServiceConfig::default()
            })
            .fallback(FallbackPlanner::new(Arc::clone(&db)))
            .faults(FaultPlan::seeded(202, 300))
            .tracing(TraceConfig {
                ring_capacity: 256,
                ..TraceConfig::default()
            })
            .start()
            .expect("start service"),
    );

    std::thread::scope(|scope| {
        for offset in 0..4 {
            let service = Arc::clone(&service);
            let queries = queries.clone();
            scope.spawn(move || {
                for round in 0..6 {
                    let query = queries[(offset + round) % queries.len()].clone();
                    service.plan(query).expect("storm answer");
                }
            });
        }
    });
    service.shutdown();

    let m = service.metrics();
    assert_eq!(m.requests, 4 * 6);
    assert_identity(&m);
    assert_eq!(
        m.traces, m.requests,
        "exactly one completed trace per accepted request"
    );
    let traces = service.traces();
    assert_eq!(traces.len(), 4 * 6, "ring kept every trace");
    let mut fallback_traces = 0;
    for trace in &traces {
        assert!(
            trace.is_monotonic(),
            "stage spans out of order or outside the request window: {trace:?}"
        );
        assert!(!trace.spans.is_empty(), "complete traces carry spans");
        match trace.outcome {
            TraceOutcome::Served(PlanSource::Fallback) => {
                assert!(
                    trace.spans.iter().any(|s| s.stage == Stage::Fallback),
                    "fallback-served trace lacks a Fallback span: {trace:?}"
                );
                fallback_traces += 1;
            }
            TraceOutcome::Served(_) => {}
            other => panic!("storm requests all succeed, got {other:?}"),
        }
    }
    assert_eq!(
        fallback_traces, m.fallbacks,
        "one Fallback-span trace per fallback"
    );
}

/// Shed requests trace too: with one stalled miss holding the only
/// in-flight slot, each burst request that sheds at admission still
/// finishes its trace — outcome `Shed`, no model-path spans — so overload
/// is visible in the ring with the same exactly-one-trace guarantee as
/// served traffic.
#[test]
fn shed_requests_complete_their_traces() {
    let (model, _db, queries) = setup();
    let service = Arc::new(
        PlannerService::builder(model)
            .config(ServiceConfig {
                max_in_flight: 1,
                ..ServiceConfig::default()
            })
            .faults(FaultPlan::new().delay_on(0, Duration::from_millis(250)))
            .tracing(TraceConfig {
                ring_capacity: 256,
                ..TraceConfig::default()
            })
            .start()
            .expect("start service"),
    );

    let occupant = {
        let service = Arc::clone(&service);
        let query = queries[0].clone();
        std::thread::spawn(move || service.plan(query))
    };
    std::thread::sleep(Duration::from_millis(80)); // let it hit the delay
    for query in queries.iter().skip(1).cycle().take(8) {
        match service.plan(PlanRequest::new(query.clone()).with_deadline(Duration::ZERO)) {
            Err(MtmlfError::Overloaded) | Err(MtmlfError::Timeout) => {}
            other => {
                other.expect("any non-shed outcome must be a plan");
            }
        }
    }
    assert!(occupant.join().expect("occupant ran").is_ok());
    service.shutdown();

    let m = service.metrics();
    assert!(m.sheds >= 1, "one in-flight slot must shed a burst");
    assert_identity(&m);
    assert_eq!(m.traces, m.requests, "shed and expired requests trace too");
    let traces = service.traces();
    assert_eq!(traces.len() as u64, m.requests);
    let shed_traces: Vec<_> = traces
        .iter()
        .filter(|t| t.outcome == TraceOutcome::Shed)
        .collect();
    assert_eq!(shed_traces.len() as u64, m.sheds);
    for trace in &traces {
        assert!(trace.is_monotonic(), "{trace:?}");
    }
    for trace in shed_traces {
        assert!(
            !trace.spans.iter().any(|s| s.stage == Stage::Forward),
            "a shed request never reached the model: {trace:?}"
        );
    }
}

/// One hundred seeded storm schedules, each with a swapper thread cycling
/// a hot swap to the candidate and a swap back to the boot model under the
/// error storm: every accepted request gets exactly one answer (no client
/// hangs, none is dropped by a swap), the counting identity holds, and the
/// service lands on a whole model — the boot version or the candidate,
/// never anything in between.
#[test]
fn swap_during_storm_no_request_is_dropped() {
    let (model, db, queries) = setup();
    // The candidate is a fresh, independently constructed model (same DB,
    // different seed) — built once; swapping shares it via Arc.
    let candidate = Arc::new(
        MtmlfQo::new(
            &db,
            MtmlfConfig {
                enc_queries: 10,
                enc_epochs: 1,
                seed: 54,
                ..MtmlfConfig::tiny()
            },
        )
        .expect("build candidate"),
    );

    for seed in 0..100u64 {
        let service = Arc::new(
            PlannerService::builder(Arc::clone(&model))
                .model_version(mtmlf::ModelVersion(1))
                .config(ServiceConfig {
                    cache_capacity: 0,
                    ..ServiceConfig::default()
                })
                .fallback(FallbackPlanner::new(Arc::clone(&db)))
                .faults(FaultPlan::seeded(1_000 + seed, 300))
                .start()
                .expect("start service"),
        );

        let answered = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for offset in 0..2usize {
                let service = Arc::clone(&service);
                let queries = queries.clone();
                let answered = Arc::clone(&answered);
                scope.spawn(move || {
                    for round in 0..4 {
                        let query = queries[(offset + round) % queries.len()].clone();
                        let resp = service.plan(query.clone()).expect("storm answer");
                        resp.join_order.validate(&query).expect("legal order");
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let service = Arc::clone(&service);
            let candidate = Arc::clone(&candidate);
            let boot = Arc::clone(&model);
            scope.spawn(move || {
                for _ in 0..2 {
                    service.swap_model(Arc::clone(&candidate), mtmlf::ModelVersion(2));
                    service.swap_model(Arc::clone(&boot), mtmlf::ModelVersion(1));
                }
            });
        });

        assert_eq!(answered.load(Ordering::Relaxed), 2 * 4, "seed {seed}");
        let m = service.metrics();
        assert_eq!(m.requests, 2 * 4, "seed {seed}");
        assert_eq!(
            m.swaps,
            2 * 2,
            "seed {seed}: every swap changed the version"
        );
        assert_eq!(m.errors, 0, "seed {seed}: retry+fallback absorb faults");
        assert_identity(&m);
        let v = service.model_version().0;
        assert!(v == 1 || v == 2, "seed {seed}: half-swapped version {v}");
        service.shutdown();
    }
}

/// A swap racing shutdown: clients, a swapper, and a shutdown all run
/// concurrently. Nothing hangs, every accepted request is answered or
/// fails with a typed error, and the counting identity survives the race.
#[test]
fn swap_racing_shutdown_stays_clean() {
    let (model, db, queries) = setup();
    let candidate = Arc::new(
        MtmlfQo::new(
            &db,
            MtmlfConfig {
                enc_queries: 10,
                enc_epochs: 1,
                seed: 55,
                ..MtmlfConfig::tiny()
            },
        )
        .expect("build candidate"),
    );

    for round in 0..20u64 {
        let service = Arc::new(
            PlannerService::builder(Arc::clone(&model))
                .model_version(mtmlf::ModelVersion(1))
                .config(ServiceConfig {
                    cache_capacity: 0,
                    ..ServiceConfig::default()
                })
                .fallback(FallbackPlanner::new(Arc::clone(&db)))
                .start()
                .expect("start service"),
        );

        std::thread::scope(|scope| {
            for offset in 0..2usize {
                let service = Arc::clone(&service);
                let queries = queries.clone();
                scope.spawn(move || {
                    for i in 0..4 {
                        let query = queries[(offset + i) % queries.len()].clone();
                        match service.plan(query) {
                            Ok(resp) => assert!(matches!(
                                resp.source,
                                PlanSource::Model | PlanSource::Fallback | PlanSource::Cache
                            )),
                            // A request landing after shutdown fails with a
                            // typed error — never a hang or a panic.
                            Err(e) => assert!(
                                matches!(
                                    e,
                                    MtmlfError::Service(_)
                                        | MtmlfError::Overloaded
                                        | MtmlfError::Timeout
                                ),
                                "round {round}: unexpected {e:?}"
                            ),
                        }
                    }
                });
            }
            {
                let service = Arc::clone(&service);
                let candidate = Arc::clone(&candidate);
                let boot = Arc::clone(&model);
                scope.spawn(move || {
                    service.swap_model(candidate, mtmlf::ModelVersion(2));
                    service.swap_model(boot, mtmlf::ModelVersion(1));
                });
            }
            let service = Arc::clone(&service);
            scope.spawn(move || {
                if round % 2 == 0 {
                    std::thread::yield_now();
                }
                service.shutdown();
            });
        });

        let m = service.metrics();
        assert_identity(&m);
        let v = service.model_version().0;
        assert!(v == 1 || v == 2, "round {round}: half-swapped version {v}");
    }
}

/// A corrupt candidate snapshot — bit-flipped or truncated — is rejected
/// before it touches the live model: adoption fails with
/// [`MtmlfError::Corrupt`], the `swap_rejected` counter records it, the
/// active version is unchanged, and the service's plans stay bitwise
/// identical to the pre-attempt baseline.
#[test]
fn corrupt_candidate_never_replaces_the_live_model() {
    let (model, db, queries) = setup();
    let dir = std::env::temp_dir().join("mtmlf_chaos_corrupt_candidate");
    let _ = std::fs::remove_dir_all(&dir);
    let registry = ModelRegistry::open(&dir).expect("open registry");
    let v1 = registry.publish(&model).expect("publish v1");
    let v2 = registry.publish(&model).expect("publish v2");

    let service = PlannerService::builder(Arc::clone(&model))
        .model_version(ModelVersion(0))
        .config(ServiceConfig {
            cache_capacity: 0,
            ..ServiceConfig::default()
        })
        .start()
        .expect("start service");
    let baseline: Vec<_> = queries
        .iter()
        .map(|q| service.plan(q.clone()).expect("baseline plan"))
        .collect();

    // Bit-flip one payload byte of v1's snapshot.
    let path = registry.path_of(v1);
    let mut bytes = std::fs::read(&path).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write corrupted snapshot");

    let fresh = |seed: u64| {
        MtmlfQo::new(
            &db,
            MtmlfConfig {
                enc_queries: 10,
                enc_epochs: 1,
                seed,
                ..MtmlfConfig::tiny()
            },
        )
        .expect("build fresh candidate")
    };

    let err = service
        .adopt_version(&registry, v1, fresh(53))
        .expect_err("bit-flipped snapshot must be rejected");
    assert!(matches!(err, MtmlfError::Corrupt(_)), "{err:?}");

    // Truncate v2's snapshot mid-payload.
    let path2 = registry.path_of(v2);
    let bytes2 = std::fs::read(&path2).expect("read snapshot");
    std::fs::write(&path2, &bytes2[..bytes2.len() / 3]).expect("truncate snapshot");
    let err = service
        .adopt_version(&registry, v2, fresh(53))
        .expect_err("truncated snapshot must be rejected");
    assert!(matches!(err, MtmlfError::Corrupt(_)), "{err:?}");

    let m = service.metrics();
    assert_eq!(m.swaps, 0, "no corrupt candidate was promoted");
    assert_eq!(m.swap_rejections, 2, "both corruptions recorded");
    assert_eq!(service.model_version(), ModelVersion(0));
    for (q, base) in queries.iter().zip(&baseline) {
        let resp = service.plan(q.clone()).expect("post-rejection plan");
        assert_eq!(resp.join_order, base.join_order, "live model disturbed");
        assert_eq!(resp.est_card.to_bits(), base.est_card.to_bits());
        assert_eq!(resp.est_cost.to_bits(), base.est_cost.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
