//! Cluster integration suite: real [`PlannerService`] replicas behind the
//! consistent-hash router, driven over deterministic simulated networks.
//!
//! Every test pins its seeds, so a failing schedule replays exactly. The
//! suite asserts the cluster's core contract from DESIGN.md §12:
//!
//! * **Exactly one reply** — each `plan` call returns one response or one
//!   typed error, across replica kills, revivals, and gossip loss.
//! * **No lost responses** — a request routed to a dying replica fails
//!   over to a ring survivor instead of erroring or hanging.
//! * **Payload fidelity** — answers match the single-threaded facade
//!   bitwise, whichever replica serves them and however gossip mangles the
//!   warming traffic (drops, delays, reorders are performance noise, never
//!   correctness).

use mtmlf::cluster::{
    ClusterConfig, ClusterService, ReplicaNode, ServiceReplica, SimNet, Transport,
};
use mtmlf::prelude::*;
use mtmlf_datagen::{generate_queries, imdb::ImdbScale, imdb_lite, WorkloadConfig};
use mtmlf_query::fingerprint;
use mtmlf_storage::Database;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn setup() -> (Arc<MtmlfQo>, Arc<Database>, Vec<Query>) {
    let mut db = imdb_lite(67, ImdbScale { scale: 0.02 }).unwrap();
    db.analyze_all(8, 4);
    let cfg = MtmlfConfig {
        enc_queries: 10,
        enc_epochs: 1,
        seed: 67,
        max_query_tables: 8,
        ..MtmlfConfig::tiny()
    };
    let mut queries = generate_queries(
        &db,
        &WorkloadConfig {
            count: 6,
            max_tables: 4,
            ..WorkloadConfig::default()
        },
        31,
    );
    // Distinct fingerprints only: the suite counts gossip per first
    // sighting, and a repeated query would be a cache hit instead.
    let mut seen = std::collections::HashSet::new();
    queries.retain(|q| seen.insert(fingerprint(q)));
    let model = MtmlfQo::new(&db, cfg).expect("build model");
    (Arc::new(model), Arc::new(db), queries)
}

/// Builds `n` killable replicas over one model plus the cluster routing
/// them through `transport`.
fn cluster_with_transport(
    model: &Arc<MtmlfQo>,
    n: usize,
    config: ClusterConfig,
    transport: Arc<dyn Transport>,
) -> (ClusterService, Vec<Arc<ServiceReplica>>) {
    let replicas: Vec<Arc<ServiceReplica>> = (0..n)
        .map(|_| {
            let service = PlannerService::builder(Arc::clone(model))
                .start()
                .expect("replica starts");
            Arc::new(ServiceReplica::new(service))
        })
        .collect();
    let nodes: Vec<Arc<dyn ReplicaNode>> = replicas
        .iter()
        .map(|r| Arc::clone(r) as Arc<dyn ReplicaNode>)
        .collect();
    let cluster =
        ClusterService::from_replicas(nodes, config, transport).expect("cluster assembles");
    (cluster, replicas)
}

/// The cluster's answers are bitwise identical to the facade's, whichever
/// replica the ring picks, and the router accounts for every request.
#[test]
fn cluster_matches_the_facade_bitwise() {
    let (model, _db, queries) = setup();
    let cluster = ClusterService::builder(Arc::clone(&model))
        .replicas(2)
        .start()
        .expect("cluster starts");
    for query in &queries {
        let resp = cluster
            .plan(PlanRequest::new(query.clone()))
            .expect("cluster plans");
        let (order, card, cost) = model.plan_with_estimates(query).expect("facade plans");
        assert_eq!(resp.join_order, order);
        assert_eq!(resp.est_card.to_bits(), card.to_bits());
        assert_eq!(resp.est_cost.to_bits(), cost.to_bits());
    }
    let m = cluster.metrics();
    let routed: u64 = m.replicas.iter().map(|r| r.routed).sum();
    assert_eq!(
        routed,
        queries.len() as u64,
        "every request accounted to a replica"
    );
    assert_eq!(m.failovers, 0, "no failovers with all replicas live");
}

/// Warm gossip over a lossy, delaying, reordering network: after enough
/// pump rounds, every delivered warm is applied, and replicas that missed
/// a (dropped) warm still answer correctly — warming is an optimization,
/// never a correctness dependency.
#[test]
fn warm_gossip_survives_drops_delays_and_reorders() {
    let (model, _db, queries) = setup();
    let net = Arc::new(
        SimNet::new(0xC1D2_2022)
            .with_drop_permille(250)
            .with_max_delay(3)
            .with_reorder(),
    );
    let (cluster, replicas) = cluster_with_transport(
        &model,
        3,
        ClusterConfig::default(),
        Arc::clone(&net) as Arc<dyn Transport>,
    );
    for query in &queries {
        let resp = cluster
            .plan(PlanRequest::new(query.clone()))
            .expect("cluster plans under lossy gossip");
        assert_eq!(
            resp.source,
            PlanSource::Model,
            "first sighting runs the model"
        );
    }
    // Mature every in-flight warm (max_delay rounds is enough) and apply.
    for _ in 0..4 {
        cluster.pump_gossip();
    }
    let stats = net.stats();
    assert_eq!(
        stats.sent,
        queries.len() as u64 * 2,
        "each plan gossips to both peers"
    );
    assert!(stats.dropped > 0, "seed 0xC1D22022 drops some warms");
    assert_eq!(
        stats.delivered,
        stats.sent - stats.dropped,
        "every undropped warm is eventually delivered"
    );
    let m = cluster.metrics();
    assert_eq!(
        m.warms_applied, stats.delivered,
        "every delivered warm applied"
    );
    assert_eq!(m.warms_discarded, 0, "nothing invalidated, nothing stale");
    // Replicas warmed for a query answer it from cache without a forward.
    for query in &queries {
        let fp = fingerprint(query);
        let holders = replicas
            .iter()
            .filter(|r| r.service().cached_payload(&fp).is_some())
            .count();
        assert!(holders >= 1, "at least the planner itself holds the plan");
        let resp = cluster
            .plan(PlanRequest::new(query.clone()))
            .expect("replan succeeds");
        assert_eq!(resp.source, PlanSource::Cache, "replan hits a cache");
    }
}

/// A delayed warm that arrives after its plan was invalidated is discarded
/// by the epoch tombstone instead of resurrecting stale state.
#[test]
fn invalidation_tombstones_warms_still_in_flight() {
    let (model, _db, queries) = setup();
    // Reliable but slow: every warm is delayed a round, so an invalidation
    // can overtake it.
    let net = Arc::new(SimNet::new(7).with_max_delay(1));
    let (cluster, replicas) = cluster_with_transport(
        &model,
        2,
        ClusterConfig::default(),
        Arc::clone(&net) as Arc<dyn Transport>,
    );
    let query = queries[0].clone();
    let fp = fingerprint(&query);
    let _ = cluster.plan(PlanRequest::new(query)).expect("plan");
    // The warm may still be in flight; invalidate before pumping.
    let _ = cluster.invalidate(&fp);
    for _ in 0..3 {
        cluster.pump_gossip();
    }
    for (i, replica) in replicas.iter().enumerate() {
        assert!(
            replica.service().cached_payload(&fp).is_none(),
            "replica {i} resurrected an invalidated plan from a late warm"
        );
    }
    let m = cluster.metrics();
    let in_flight_warm_arrived = net.stats().delivered > 0;
    assert!(
        !in_flight_warm_arrived || m.warms_discarded > 0,
        "a delivered post-invalidation warm must be discarded: {m:?}"
    );
}

/// Replica-kill chaos: concurrent clients stream requests while a killer
/// thread kills and revives replicas. Every accepted request gets exactly
/// one reply and none are lost — kills surface as failovers, not errors.
#[test]
fn replica_kill_chaos_exactly_one_reply_no_lost_responses() {
    let (model, _db, queries) = setup();
    let cluster_cfg = ClusterConfig {
        // Health eviction and the candidate walk do the failover; disable
        // the router breakers (threshold 0) so a kill storm never leaves
        // every candidate rejected.
        breaker: mtmlf::BreakerConfig {
            failure_threshold: 0,
            ..mtmlf::BreakerConfig::default()
        },
        ..ClusterConfig::default()
    };
    let net: Arc<dyn Transport> = Arc::new(SimNet::new(99).with_drop_permille(100));
    let (cluster, replicas) = cluster_with_transport(&model, 3, cluster_cfg, net);
    let cluster = Arc::new(cluster);
    let replies = Arc::new(AtomicU64::new(0));
    let submitted = Arc::new(AtomicU64::new(0));

    const ROUNDS: usize = 12;
    std::thread::scope(|scope| {
        // Killer: cycles each replica through kill -> revive while clients
        // stream. Never kills more than one replica at a time, so the ring
        // always has survivors.
        let killer_replicas = &replicas;
        scope.spawn(move || {
            for round in 0..ROUNDS {
                let victim = &killer_replicas[round % killer_replicas.len()];
                victim.kill();
                std::thread::sleep(std::time::Duration::from_millis(3));
                victim.revive();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        for offset in 0..3usize {
            let cluster = Arc::clone(&cluster);
            let replies = Arc::clone(&replies);
            let submitted = Arc::clone(&submitted);
            let queries = &queries;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let query = queries[(offset + round) % queries.len()].clone();
                    submitted.fetch_add(1, Ordering::SeqCst);
                    match cluster.plan(PlanRequest::new(query.clone())) {
                        Ok(resp) => {
                            replies.fetch_add(1, Ordering::SeqCst);
                            resp.join_order.validate(&query).expect("legal join order");
                        }
                        Err(e) => panic!("request lost to a replica kill (round {round}): {e}"),
                    }
                }
            });
        }
    });

    assert_eq!(
        replies.load(Ordering::SeqCst),
        submitted.load(Ordering::SeqCst),
        "exactly one reply per submitted request"
    );
    assert_eq!(submitted.load(Ordering::SeqCst), (3 * ROUNDS) as u64);
    let m = cluster.metrics();
    let routed: u64 = m.replicas.iter().map(|r| r.routed).sum();
    assert_eq!(
        routed,
        submitted.load(Ordering::SeqCst),
        "router accounted every reply"
    );
}

/// Killing a replica re-homes its keys to survivors — and because the plan
/// was gossiped while the replica was alive, the survivor answers from its
/// warmed cache. Reviving the replica restores the original routing
/// (consistent hashing, not mod-N).
#[test]
fn dead_replicas_keys_rehash_to_warm_survivors_and_return() {
    let (model, _db, queries) = setup();
    let (cluster, replicas) = cluster_with_transport(
        &model,
        3,
        ClusterConfig::default(),
        Arc::new(mtmlf::cluster::DirectTransport::new()),
    );
    // Warm every query once and record which replica served each.
    let owner_of = |q: &Query| -> usize {
        let before = cluster.metrics();
        let _ = cluster.plan(PlanRequest::new(q.clone())).expect("plan");
        let after = cluster.metrics();
        (0..3)
            .find(|&i| after.replicas[i].routed > before.replicas[i].routed)
            .expect("some replica served it")
    };
    let owners: Vec<usize> = queries.iter().map(&owner_of).collect();
    // Flush the last round of warm gossip to the peers.
    cluster.pump_gossip();
    let (victim_idx, query) = owners
        .iter()
        .zip(&queries)
        .map(|(&o, q)| (o, q.clone()))
        .next()
        .expect("at least one query");
    replicas[victim_idx].kill();
    let resp = cluster
        .plan(PlanRequest::new(query.clone()))
        .expect("survivor serves the dead replica's key");
    assert_eq!(
        resp.source,
        PlanSource::Cache,
        "gossip warming made the failover a cache hit"
    );
    assert!(
        !cluster
            .ring_members()
            .contains(&mtmlf::cluster::ReplicaId(victim_idx)),
        "dead replica left the ring"
    );
    replicas[victim_idx].revive();
    let before = cluster.metrics();
    let _ = cluster
        .plan(PlanRequest::new(query))
        .expect("plan after revival");
    let after = cluster.metrics();
    assert!(
        after.replicas[victim_idx].routed > before.replicas[victim_idx].routed,
        "revived replica took its key back"
    );
    let err = cluster.plan(PlanRequest::new(queries[0].clone()));
    assert!(err.is_ok(), "cluster healthy after the churn: {err:?}");
}
