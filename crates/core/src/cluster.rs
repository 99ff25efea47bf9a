//! Sharded multi-replica serving behind the unified [`PlanClient`] API.
//!
//! A [`ClusterService`] fronts N replicas (each a [`PlannerService`] wrapped
//! in a [`ServiceReplica`], or any [`ReplicaNode`] implementation) with a
//! router that consistent-hashes the canonical 128-bit
//! [`QueryFingerprint`] of each request onto a [`HashRing`]:
//!
//! * **Sharding** — a key's primary replica is the first ring position at or
//!   clockwise-after `fp.shard_hash()`. Virtual nodes (many ring positions
//!   per replica) keep the key distribution near-uniform and bound the churn
//!   of membership changes to ~K/N keys (DESIGN.md §12).
//! * **Cache warming** — a plan computed on one replica is gossiped to the
//!   others ([`GossipMsg::Warm`]) over a pluggable [`Transport`], so a key
//!   re-hashed to a survivor after a replica death is usually still a cache
//!   hit. Warming is best-effort: messages may be dropped, delayed, or
//!   reordered ([`SimNet`]) without affecting correctness.
//! * **Invalidation** — [`ClusterService::invalidate`] bumps a cluster-wide
//!   epoch, tombstones the fingerprint, and removes the plan from every
//!   replica synchronously. The epoch carried by every warm message lets a
//!   late-arriving (delayed/reordered) warm of a since-invalidated plan be
//!   discarded instead of resurrecting stale state.
//! * **Failover** — the router keeps a [`CircuitBreaker`] per replica and
//!   walks the ring's candidate list: an unhealthy replica, an open
//!   breaker, or a transient error moves the request to the next clockwise
//!   survivor. Dead replicas are removed from the ring (their keys re-hash)
//!   and re-join on revival. A request is never lost to a membership
//!   change: the candidate walk spans every live replica, and the chaos
//!   suite asserts exactly-one-reply across replica kills.
//!
//! The router itself never consults a wall clock and never panics; all
//! timing lives in the replicas ([`PlannerService`]) and the breakers'
//! injected [`Clock`](crate::resilience::Clock)s, which keeps the
//! simulated-network tests fully deterministic.

use crate::cache::splitmix64;
use crate::client::{PlanClient, PlanPayload, PlanRequest, PlanResponse, PlanSource};
use crate::error::MtmlfError;
use crate::lifecycle::{ModelVersion, SwapOutcome};
use crate::metrics::MetricsSnapshot;
use crate::model::MtmlfQo;
use crate::resilience::{
    is_transient, Admission, BreakerConfig, BreakerState, CircuitBreaker, FallbackPlanner,
};
use crate::serve::{PlannerService, ServiceConfig};
use crate::trace::TraceConfig;
use crate::Result;
use mtmlf_query::{fingerprint, QueryFingerprint};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Identifies a replica by its index in the cluster's replica vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId(pub usize);

impl std::fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replica-{}", self.0)
    }
}

/// A consistent-hash ring with virtual nodes.
///
/// Each member owns `vnodes` pseudo-random ring positions derived purely
/// from its [`ReplicaId`], so the ring is deterministic and two nodes
/// computing it independently agree. A key routes to the owner of the first
/// position at or clockwise-after its hash; removing a member moves only
/// the keys it owned (~K/N of the keyspace), which the
/// `cluster_properties` suite verifies.
#[derive(Debug, Clone)]
pub struct HashRing {
    positions: BTreeMap<u64, ReplicaId>,
    members: BTreeSet<ReplicaId>,
    vnodes: usize,
}

impl HashRing {
    /// An empty ring placing `vnodes` virtual nodes per member (min 1).
    pub fn new(vnodes: usize) -> Self {
        Self {
            positions: BTreeMap::new(),
            members: BTreeSet::new(),
            vnodes: vnodes.max(1),
        }
    }

    /// The deterministic ring positions owned by `replica`.
    fn vnode_positions(&self, replica: ReplicaId) -> impl Iterator<Item = u64> + '_ {
        let base = (replica.0 as u64).wrapping_mul(0x0100_0000_01b3);
        (0..self.vnodes as u64).map(move |v| splitmix64(base ^ splitmix64(v)))
    }

    /// Adds `replica` (idempotent). On a vnode-position collision the
    /// smaller id wins, keeping insertion order irrelevant.
    pub fn add(&mut self, replica: ReplicaId) {
        if !self.members.insert(replica) {
            return;
        }
        let positions: Vec<u64> = self.vnode_positions(replica).collect();
        for pos in positions {
            let slot = self.positions.entry(pos).or_insert(replica);
            if replica < *slot {
                *slot = replica;
            }
        }
    }

    /// Removes `replica` and every ring position it owned (idempotent).
    pub fn remove(&mut self, replica: ReplicaId) {
        if !self.members.remove(&replica) {
            return;
        }
        let positions: Vec<u64> = self.vnode_positions(replica).collect();
        for pos in positions {
            if self.positions.get(&pos) == Some(&replica) {
                self.positions.remove(&pos);
            }
        }
        // Re-seat any member that lost a colliding position to `replica`.
        let members: Vec<ReplicaId> = self.members.iter().copied().collect();
        for m in members {
            let positions: Vec<u64> = self.vnode_positions(m).collect();
            for pos in positions {
                let slot = self.positions.entry(pos).or_insert(m);
                if m < *slot {
                    *slot = m;
                }
            }
        }
    }

    /// True when `replica` is a ring member.
    pub fn contains(&self, replica: ReplicaId) -> bool {
        self.members.contains(&replica)
    }

    /// Current member count.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The primary owner of `hash`: the first ring position at or
    /// clockwise-after it (wrapping), or `None` on an empty ring.
    pub fn route(&self, hash: u64) -> Option<ReplicaId> {
        self.positions
            .range(hash..)
            .next()
            .or_else(|| self.positions.iter().next())
            .map(|(_, &r)| r)
    }

    /// Every member in failover order for `hash`: the primary first, then
    /// each distinct member in clockwise ring order. Deduplicated; length
    /// equals the member count.
    pub fn candidates(&self, hash: u64) -> Vec<ReplicaId> {
        let mut out = Vec::with_capacity(self.members.len());
        let mut seen = BTreeSet::new();
        for (_, &r) in self.positions.range(hash..).chain(self.positions.iter()) {
            if seen.insert(r) {
                out.push(r);
                if out.len() == self.members.len() {
                    break;
                }
            }
        }
        out
    }
}

/// One replica as the router sees it. Object-safe so clusters can mix real
/// [`PlannerService`]s ([`ServiceReplica`]) with simulated replicas in
/// tests and benches.
pub trait ReplicaNode: Send + Sync {
    /// Plans one request on this replica.
    fn plan(&self, request: PlanRequest) -> Result<PlanResponse>;

    /// Seeds this replica's plan cache (gossip warming).
    fn warm(&self, fp: QueryFingerprint, payload: PlanPayload);

    /// Drops this replica's cached plan for `fp`; `true` when present.
    fn invalidate(&self, fp: &QueryFingerprint) -> bool;

    /// Health as the router's checker would observe it.
    fn healthy(&self) -> bool {
        true
    }

    /// This replica's service metrics, when it keeps any.
    fn metrics(&self) -> Option<MetricsSnapshot> {
        None
    }

    /// Hot-swaps this replica's model; `true` when the replica supports
    /// model swaps and now serves `version`. Simulated replicas that keep
    /// no model report `false` and the cluster fan-out skips them.
    fn swap_model(&self, _candidate: &Arc<MtmlfQo>, _version: ModelVersion) -> bool {
        false
    }
}

/// A [`PlannerService`] participating in a cluster, with a kill switch for
/// failover tests: a killed replica refuses new requests (the router fails
/// over) but still answers requests already in flight — a process that
/// stops accepting connections does not tear down responses it has already
/// computed.
pub struct ServiceReplica {
    service: PlannerService,
    alive: AtomicBool,
}

impl ServiceReplica {
    /// Wraps a running service as a live replica.
    pub fn new(service: PlannerService) -> Self {
        Self {
            service,
            alive: AtomicBool::new(true),
        }
    }

    /// Marks the replica dead: subsequent [`ReplicaNode::plan`] calls fail
    /// with a transient error and [`ReplicaNode::healthy`] turns false.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::SeqCst);
    }

    /// Brings a killed replica back; the router re-adds it to the ring.
    pub fn revive(&self) {
        self.alive.store(true, Ordering::SeqCst);
    }

    /// The wrapped service (e.g. for per-replica metrics).
    pub fn service(&self) -> &PlannerService {
        &self.service
    }
}

impl ReplicaNode for ServiceReplica {
    fn plan(&self, request: PlanRequest) -> Result<PlanResponse> {
        if !self.alive.load(Ordering::SeqCst) {
            return Err(MtmlfError::Service("replica is down".into()));
        }
        self.service.plan(request)
    }

    fn warm(&self, fp: QueryFingerprint, payload: PlanPayload) {
        if self.alive.load(Ordering::SeqCst) {
            self.service.warm(fp, payload);
        }
    }

    fn invalidate(&self, fp: &QueryFingerprint) -> bool {
        // Applied even when "down": invalidation models a durable epoch
        // bump, not a best-effort RPC — a replica must never revive with a
        // plan the cluster has since invalidated.
        self.service.invalidate(fp)
    }

    fn healthy(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        Some(self.service.metrics())
    }

    fn swap_model(&self, candidate: &Arc<MtmlfQo>, version: ModelVersion) -> bool {
        // Applied even when "down", like `invalidate`: a swap is a durable
        // version change, and a replica must never revive serving a model
        // the cluster has since replaced.
        matches!(
            self.service.swap_model(Arc::clone(candidate), version),
            SwapOutcome::Swapped { .. } | SwapOutcome::AlreadyActive
        )
    }
}

/// A cache-coherence message between replicas.
#[derive(Debug, Clone)]
pub enum GossipMsg {
    /// "I computed this plan; pre-warm your cache." Best-effort.
    Warm {
        /// Canonical fingerprint of the planned query.
        fp: QueryFingerprint,
        /// The cacheable payload.
        payload: PlanPayload,
        /// Cluster epoch when the plan was computed; a warm older than the
        /// fingerprint's tombstone epoch is discarded on receipt.
        epoch: u64,
    },
    /// "Drop this plan." Carried for transports that propagate
    /// invalidation asynchronously; [`ClusterService::invalidate`] also
    /// applies it synchronously for correctness.
    Invalidate {
        /// Fingerprint to drop.
        fp: QueryFingerprint,
        /// Epoch of the invalidation.
        epoch: u64,
    },
}

impl GossipMsg {
    fn fp(&self) -> QueryFingerprint {
        match self {
            GossipMsg::Warm { fp, .. } | GossipMsg::Invalidate { fp, .. } => *fp,
        }
    }
}

/// Message delivery between replicas. Implementations decide reliability:
/// [`DirectTransport`] delivers immediately and in order; [`SimNet`] drops,
/// delays, and reorders deterministically from a seed.
pub trait Transport: Send + Sync {
    /// Enqueues `msg` toward `dst`.
    fn send(&self, dst: ReplicaId, msg: GossipMsg);

    /// Drains every message currently deliverable to `dst`.
    fn poll(&self, dst: ReplicaId) -> Vec<GossipMsg>;

    /// Advances simulated time one round (no-op for immediate delivery).
    fn pump(&self) {}
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// In-process transport: `send` lands in the destination inbox immediately
/// and `poll` drains it in order. The default for [`ClusterBuilder`].
#[derive(Default)]
pub struct DirectTransport {
    inboxes: Mutex<HashMap<usize, Vec<GossipMsg>>>,
}

impl DirectTransport {
    /// An empty transport.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Transport for DirectTransport {
    fn send(&self, dst: ReplicaId, msg: GossipMsg) {
        lock_unpoisoned(&self.inboxes)
            .entry(dst.0)
            .or_default()
            .push(msg);
    }

    fn poll(&self, dst: ReplicaId) -> Vec<GossipMsg> {
        lock_unpoisoned(&self.inboxes)
            .get_mut(&dst.0)
            .map(std::mem::take)
            .unwrap_or_default()
    }
}

/// Cumulative delivery counters for a [`SimNet`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimNetStats {
    /// Messages accepted by `send`.
    pub sent: u64,
    /// Messages dropped at send time.
    pub dropped: u64,
    /// Messages moved into an inbox by `pump`.
    pub delivered: u64,
}

struct SimNetState {
    rng: u64,
    round: u64,
    /// `(deliver_at_round, tie_break, dst, msg)`.
    in_flight: Vec<(u64, u64, usize, GossipMsg)>,
    inboxes: HashMap<usize, Vec<GossipMsg>>,
    stats: SimNetStats,
}

/// A deterministic lossy network simulation: every drop, delay, and
/// reorder decision derives from the seed, so a failing schedule replays
/// exactly from the same seed. Messages mature after a per-message delay of
/// `0..=max_delay` [`Transport::pump`] rounds; matured messages are
/// (optionally) delivered in a seeded shuffle rather than send order.
pub struct SimNet {
    state: Mutex<SimNetState>,
    drop_permille: u16,
    max_delay: u64,
    reorder: bool,
}

impl SimNet {
    /// A reliable, in-order, zero-delay network seeded with `seed`; layer
    /// faults on with the `with_*` builders.
    pub fn new(seed: u64) -> Self {
        Self {
            state: Mutex::new(SimNetState {
                rng: splitmix64(seed ^ 0x5bd1_e995),
                round: 0,
                in_flight: Vec::new(),
                inboxes: HashMap::new(),
                stats: SimNetStats::default(),
            }),
            drop_permille: 0,
            max_delay: 0,
            reorder: false,
        }
    }

    /// Drops each message independently with probability `permille`/1000.
    pub fn with_drop_permille(mut self, permille: u16) -> Self {
        self.drop_permille = permille.min(1000);
        self
    }

    /// Delays each message by a seeded `0..=rounds` pump rounds.
    pub fn with_max_delay(mut self, rounds: u64) -> Self {
        self.max_delay = rounds;
        self
    }

    /// Delivers matured messages in a seeded shuffle instead of send order.
    pub fn with_reorder(mut self) -> Self {
        self.reorder = true;
        self
    }

    /// Delivery counters so far.
    pub fn stats(&self) -> SimNetStats {
        lock_unpoisoned(&self.state).stats
    }

    fn next_rng(state: &mut SimNetState) -> u64 {
        state.rng = splitmix64(state.rng);
        state.rng
    }
}

impl Transport for SimNet {
    fn send(&self, dst: ReplicaId, msg: GossipMsg) {
        let mut st = lock_unpoisoned(&self.state);
        st.stats.sent += 1;
        let roll = Self::next_rng(&mut st) % 1000;
        if roll < u64::from(self.drop_permille) {
            st.stats.dropped += 1;
            return;
        }
        let delay = if self.max_delay == 0 {
            0
        } else {
            Self::next_rng(&mut st) % (self.max_delay + 1)
        };
        let tie = Self::next_rng(&mut st);
        let at = st.round + delay;
        st.in_flight.push((at, tie, dst.0, msg));
        if delay == 0 {
            Self::mature(&mut st, self.reorder);
        }
    }

    fn poll(&self, dst: ReplicaId) -> Vec<GossipMsg> {
        lock_unpoisoned(&self.state)
            .inboxes
            .get_mut(&dst.0)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    fn pump(&self) {
        let mut st = lock_unpoisoned(&self.state);
        st.round += 1;
        Self::mature(&mut st, self.reorder);
    }
}

impl SimNet {
    /// Moves every in-flight message whose round has arrived into its
    /// destination inbox.
    fn mature(st: &mut SimNetState, reorder: bool) {
        let round = st.round;
        let mut ready: Vec<(u64, u64, usize, GossipMsg)> = Vec::new();
        let mut still: Vec<(u64, u64, usize, GossipMsg)> = Vec::new();
        for item in st.in_flight.drain(..) {
            if item.0 <= round {
                ready.push(item);
            } else {
                still.push(item);
            }
        }
        st.in_flight = still;
        if reorder {
            // Seeded shuffle: ordering by the per-message tie-break is a
            // deterministic permutation of send order.
            ready.sort_by_key(|&(_, tie, _, _)| tie);
        }
        for (_, _, dst, msg) in ready {
            st.stats.delivered += 1;
            st.inboxes.entry(dst).or_default().push(msg);
        }
    }
}

/// Router-level tuning for a [`ClusterService`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Virtual nodes per replica on the [`HashRing`] (≥ 1). More vnodes
    /// flatten the key distribution at the cost of a larger ring.
    pub vnodes: usize,
    /// Per-replica circuit breaker at the router (distinct from any
    /// breaker inside the replica's own service).
    pub breaker: BreakerConfig,
    /// Gossip freshly computed plans to peer replicas (best-effort cache
    /// warming). Disable to measure cold-cache scaling.
    pub warm_gossip: bool,
    /// Refresh ring membership from replica health on every `plan` call:
    /// dead replicas leave the ring (their keys re-hash to survivors) and
    /// revived replicas re-join.
    pub auto_health: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            vnodes: 64,
            breaker: BreakerConfig::default(),
            warm_gossip: true,
            auto_health: true,
        }
    }
}

/// Router counters, all monotone except gauges derived at snapshot time.
struct ClusterMetricsInner {
    routed: Vec<AtomicU64>,
    failovers: AtomicU64,
    breaker_skips: AtomicU64,
    unhealthy_skips: AtomicU64,
    warms_sent: AtomicU64,
    warms_applied: AtomicU64,
    warms_discarded: AtomicU64,
    invalidations: AtomicU64,
}

impl ClusterMetricsInner {
    fn new(replicas: usize) -> Self {
        Self {
            routed: (0..replicas).map(|_| AtomicU64::new(0)).collect(),
            failovers: AtomicU64::new(0),
            breaker_skips: AtomicU64::new(0),
            unhealthy_skips: AtomicU64::new(0),
            warms_sent: AtomicU64::new(0),
            warms_applied: AtomicU64::new(0),
            warms_discarded: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }
}

/// Point-in-time view of one replica from the router's perspective.
#[derive(Debug, Clone)]
pub struct ReplicaSnapshot {
    /// The replica's index.
    pub id: usize,
    /// Requests this replica has answered for the router.
    pub routed: u64,
    /// Health at snapshot time.
    pub healthy: bool,
    /// Ring membership at snapshot time.
    pub in_ring: bool,
    /// The router-side breaker guarding this replica.
    pub breaker_state: BreakerState,
    /// The replica's own service metrics, when it keeps any.
    pub service: Option<MetricsSnapshot>,
}

/// Point-in-time view of the whole cluster; rendered by
/// [`crate::metrics::render_prometheus_cluster`].
#[derive(Debug, Clone)]
pub struct ClusterMetricsSnapshot {
    /// Per-replica state, indexed by replica id.
    pub replicas: Vec<ReplicaSnapshot>,
    /// Requests answered by a replica other than their primary.
    pub failovers: u64,
    /// Candidates skipped because their router-side breaker was open.
    pub breaker_skips: u64,
    /// Candidates skipped because they reported unhealthy.
    pub unhealthy_skips: u64,
    /// Warm messages gossiped to peers.
    pub warms_sent: u64,
    /// Warm messages applied to a peer cache.
    pub warms_applied: u64,
    /// Warm messages discarded as stale (tombstoned by a later
    /// invalidation).
    pub warms_discarded: u64,
    /// Cluster-wide invalidations issued.
    pub invalidations: u64,
    /// Current cluster epoch.
    pub epoch: u64,
}

/// N replicas behind a consistent-hash router; see the module docs for the
/// protocol. Create with [`ClusterService::builder`] (real
/// [`PlannerService`] replicas) or [`ClusterService::from_replicas`] (any
/// [`ReplicaNode`]s, e.g. simulated ones).
pub struct ClusterService {
    replicas: Vec<Arc<dyn ReplicaNode>>,
    ring: Mutex<HashRing>,
    breakers: Vec<CircuitBreaker>,
    transport: Arc<dyn Transport>,
    epoch: AtomicU64,
    tombstones: Mutex<HashMap<QueryFingerprint, u64>>,
    metrics: ClusterMetricsInner,
    warm_gossip: bool,
    auto_health: bool,
}

impl ClusterService {
    /// Starts configuring a cluster of [`PlannerService`] replicas over
    /// `model`; finish with [`ClusterBuilder::start`]. Mirrors
    /// [`PlannerService::builder`].
    pub fn builder(model: Arc<MtmlfQo>) -> ClusterBuilder {
        ClusterBuilder::new(model)
    }

    /// Assembles a cluster from pre-built replicas and a transport. All
    /// replicas join the ring immediately.
    pub fn from_replicas(
        replicas: Vec<Arc<dyn ReplicaNode>>,
        config: ClusterConfig,
        transport: Arc<dyn Transport>,
    ) -> Result<Self> {
        if replicas.is_empty() {
            return Err(MtmlfError::InvalidConfig(
                "a cluster needs at least one replica".into(),
            ));
        }
        let mut ring = HashRing::new(config.vnodes);
        for i in 0..replicas.len() {
            ring.add(ReplicaId(i));
        }
        let breakers = (0..replicas.len())
            .map(|_| CircuitBreaker::new(config.breaker.clone()))
            .collect();
        let metrics = ClusterMetricsInner::new(replicas.len());
        Ok(Self {
            replicas,
            ring: Mutex::new(ring),
            breakers,
            transport,
            epoch: AtomicU64::new(0),
            tombstones: Mutex::new(HashMap::new()),
            metrics,
            warm_gossip: config.warm_gossip,
            auto_health: config.auto_health,
        })
    }

    /// Replica count (live or not).
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The replica at `id`, for direct inspection in tests and benches.
    pub fn replica(&self, id: ReplicaId) -> Option<&Arc<dyn ReplicaNode>> {
        self.replicas.get(id.0)
    }

    /// Current ring membership in id order.
    pub fn ring_members(&self) -> Vec<ReplicaId> {
        lock_unpoisoned(&self.ring)
            .members
            .iter()
            .copied()
            .collect()
    }

    /// Plans one request: routes by fingerprint, fails over across ring
    /// candidates, gossips model-computed plans to peers.
    pub fn plan(&self, request: impl Into<PlanRequest>) -> Result<PlanResponse> {
        let request = request.into();
        self.deliver_ready();
        if self.auto_health {
            self.refresh_health();
        }
        let fp = fingerprint(&request.query);
        let candidates = lock_unpoisoned(&self.ring).candidates(fp.shard_hash());
        if candidates.is_empty() {
            return Err(MtmlfError::Service(
                "cluster has no live replicas in the ring".into(),
            ));
        }
        let mut last_err: Option<MtmlfError> = None;
        for (attempt, &rid) in candidates.iter().enumerate() {
            let Some(node) = self.replicas.get(rid.0) else {
                continue;
            };
            if !node.healthy() {
                self.metrics.unhealthy_skips.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let breaker = &self.breakers[rid.0];
            if matches!(breaker.try_acquire(), Admission::Rejected) {
                self.metrics.breaker_skips.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            match node.plan(request.clone()) {
                Ok(resp) => {
                    breaker.on_success();
                    self.metrics.routed[rid.0].fetch_add(1, Ordering::Relaxed);
                    if attempt > 0 {
                        self.metrics.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    if self.warm_gossip && resp.source == PlanSource::Model {
                        self.gossip_warm(rid, fp, resp.payload());
                    }
                    return Ok(resp);
                }
                Err(e) if is_transient(&e) => {
                    // Replica-level failure: open the breaker toward it and
                    // walk on to the next ring candidate.
                    breaker.on_failure();
                    last_err = Some(e);
                }
                Err(e) => {
                    // Request-level failure (timeout, overload, illegal
                    // query): another replica would fail the same way, so
                    // surface it without burning the survivors' time.
                    return Err(e);
                }
            }
        }
        match last_err {
            Some(e) => Err(e),
            None => Err(MtmlfError::Service(
                "no healthy replica available for this request".into(),
            )),
        }
    }

    /// Invalidates `fp` cluster-wide: bumps the epoch, tombstones the
    /// fingerprint (so delayed warms of the stale plan are discarded), and
    /// removes it from every replica synchronously. Returns how many
    /// replicas actually held the plan.
    pub fn invalidate(&self, fp: &QueryFingerprint) -> usize {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        lock_unpoisoned(&self.tombstones).insert(*fp, epoch);
        self.metrics.invalidations.fetch_add(1, Ordering::Relaxed);
        let mut held = 0;
        for node in &self.replicas {
            if node.invalidate(fp) {
                held += 1;
            }
        }
        held
    }

    /// Rolls the candidate model out to every replica. Each replica swaps
    /// atomically on its own slot (requests in flight on a replica finish
    /// on the model they started with); the cluster converges replica by
    /// replica rather than pausing globally. Returns how many replicas now
    /// serve `version`.
    pub fn swap_model(&self, candidate: &Arc<MtmlfQo>, version: ModelVersion) -> usize {
        self.replicas
            .iter()
            .filter(|node| node.swap_model(candidate, version))
            .count()
    }

    /// Advances the transport one round and applies every deliverable
    /// gossip message. [`DirectTransport`] needs no pumping (delivery is
    /// immediate and applied at the top of each `plan`); call this in tests
    /// driving a [`SimNet`].
    pub fn pump_gossip(&self) {
        self.transport.pump();
        self.deliver_ready();
    }

    /// The current cluster epoch (bumped by every invalidation).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// A point-in-time snapshot of router counters and per-replica state.
    pub fn metrics(&self) -> ClusterMetricsSnapshot {
        let ring = lock_unpoisoned(&self.ring);
        let replicas = self
            .replicas
            .iter()
            .enumerate()
            .map(|(i, node)| ReplicaSnapshot {
                id: i,
                routed: self.metrics.routed[i].load(Ordering::Relaxed),
                healthy: node.healthy(),
                in_ring: ring.contains(ReplicaId(i)),
                breaker_state: self.breakers[i].state(),
                service: node.metrics(),
            })
            .collect();
        ClusterMetricsSnapshot {
            replicas,
            failovers: self.metrics.failovers.load(Ordering::Relaxed),
            breaker_skips: self.metrics.breaker_skips.load(Ordering::Relaxed),
            unhealthy_skips: self.metrics.unhealthy_skips.load(Ordering::Relaxed),
            warms_sent: self.metrics.warms_sent.load(Ordering::Relaxed),
            warms_applied: self.metrics.warms_applied.load(Ordering::Relaxed),
            warms_discarded: self.metrics.warms_discarded.load(Ordering::Relaxed),
            invalidations: self.metrics.invalidations.load(Ordering::Relaxed),
            epoch: self.epoch(),
        }
    }

    /// Renders [`ClusterService::metrics`] in the Prometheus text format
    /// with per-replica labels.
    pub fn render_prometheus(&self) -> String {
        crate::metrics::render_prometheus_cluster(&self.metrics())
    }

    /// Reconciles ring membership with replica health: dead replicas leave
    /// (their keys re-hash to survivors), revived replicas re-join. Called
    /// from `plan` when [`ClusterConfig::auto_health`] is set.
    pub fn refresh_health(&self) {
        let mut ring = lock_unpoisoned(&self.ring);
        for (i, node) in self.replicas.iter().enumerate() {
            let id = ReplicaId(i);
            if node.healthy() {
                ring.add(id);
            } else {
                ring.remove(id);
            }
        }
    }

    /// Sends a warm message for `fp` to every ring member except `from`.
    fn gossip_warm(&self, from: ReplicaId, fp: QueryFingerprint, payload: PlanPayload) {
        let epoch = self.epoch.load(Ordering::SeqCst);
        let members = self.ring_members();
        for dst in members {
            if dst == from {
                continue;
            }
            self.metrics.warms_sent.fetch_add(1, Ordering::Relaxed);
            self.transport.send(
                dst,
                GossipMsg::Warm {
                    fp,
                    payload: payload.clone(),
                    epoch,
                },
            );
        }
    }

    /// Drains every replica's inbox and applies the messages, honoring
    /// tombstones: a warm whose epoch is at or below the fingerprint's
    /// tombstone epoch describes a plan invalidated after it was computed
    /// and is discarded.
    fn deliver_ready(&self) {
        for i in 0..self.replicas.len() {
            for msg in self.transport.poll(ReplicaId(i)) {
                self.apply(i, msg);
            }
        }
    }

    fn apply(&self, dst: usize, msg: GossipMsg) {
        let fp = msg.fp();
        match msg {
            GossipMsg::Warm { payload, epoch, .. } => {
                let stale = lock_unpoisoned(&self.tombstones)
                    .get(&fp)
                    .is_some_and(|&t| epoch <= t);
                if stale {
                    self.metrics.warms_discarded.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.replicas[dst].warm(fp, payload);
                    self.metrics.warms_applied.fetch_add(1, Ordering::Relaxed);
                }
            }
            GossipMsg::Invalidate { .. } => {
                self.replicas[dst].invalidate(&fp);
            }
        }
    }
}

impl PlanClient for ClusterService {
    fn plan(&self, request: PlanRequest) -> Result<PlanResponse> {
        ClusterService::plan(self, request)
    }
}

/// Configures and starts a [`ClusterService`] whose replicas are real
/// [`PlannerService`]s sharing one model; from [`ClusterService::builder`].
///
/// ```no_run
/// # use std::sync::Arc;
/// # use mtmlf::prelude::*;
/// # fn demo(model: Arc<MtmlfQo>, fallback: FallbackPlanner) -> mtmlf::Result<()> {
/// let cluster = ClusterService::builder(model)
///     .replicas(4)
///     .service_config(ServiceConfig::default())
///     .fallback(fallback)
///     .start()?;
/// # drop(cluster); Ok(())
/// # }
/// ```
#[must_use = "a builder does nothing until `.start()`"]
pub struct ClusterBuilder {
    model: Arc<MtmlfQo>,
    replicas: usize,
    service_config: ServiceConfig,
    cluster_config: ClusterConfig,
    fallback: Option<FallbackPlanner>,
    tracing: Option<TraceConfig>,
    transport: Option<Arc<dyn Transport>>,
    durable: Option<crate::durable::DurableConfig>,
}

impl ClusterBuilder {
    fn new(model: Arc<MtmlfQo>) -> Self {
        Self {
            model,
            replicas: 2,
            service_config: ServiceConfig::default(),
            cluster_config: ClusterConfig::default(),
            fallback: None,
            tracing: None,
            transport: None,
            durable: None,
        }
    }

    /// Replica count (≥ 1; default 2).
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Per-replica [`ServiceConfig`] (each replica gets its own admission
    /// bound and plan cache built from this).
    pub fn service_config(mut self, config: ServiceConfig) -> Self {
        self.service_config = config;
        self
    }

    /// Router-level [`ClusterConfig`].
    pub fn cluster_config(mut self, config: ClusterConfig) -> Self {
        self.cluster_config = config;
        self
    }

    /// Classical fallback planner, cloned into every replica.
    pub fn fallback(mut self, fallback: impl Into<Option<FallbackPlanner>>) -> Self {
        self.fallback = fallback.into();
        self
    }

    /// Enables plan-lifecycle tracing on every replica.
    pub fn tracing(mut self, tracing: TraceConfig) -> Self {
        self.tracing = Some(tracing);
        self
    }

    /// Replaces the warm-gossip transport (default: [`DirectTransport`]).
    pub fn transport(mut self, transport: Arc<dyn Transport>) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Makes every replica's plan cache durable under `dir`: replica `i`
    /// persists to `dir/replica_i`, so a cluster restarted over the same
    /// directory warm-starts every replica's cache — including epoch
    /// tombstones written by cluster-wide invalidation and hot swaps
    /// (DESIGN.md §16).
    pub fn durable(self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.durable_config(crate::durable::DurableConfig::new(dir))
    }

    /// Like [`ClusterBuilder::durable`] with full control over the
    /// durability policy. `config.dir` is the cluster root; each replica
    /// still gets its own `replica_i` subdirectory.
    pub fn durable_config(mut self, config: crate::durable::DurableConfig) -> Self {
        self.durable = Some(config);
        self
    }

    /// Validates the config, starts every replica service, and assembles
    /// the routed cluster.
    pub fn start(self) -> Result<ClusterService> {
        if self.replicas == 0 {
            return Err(MtmlfError::InvalidConfig(
                "a cluster needs at least one replica".into(),
            ));
        }
        let mut nodes: Vec<Arc<dyn ReplicaNode>> = Vec::with_capacity(self.replicas);
        for i in 0..self.replicas {
            let mut builder = PlannerService::builder(Arc::clone(&self.model))
                .config(self.service_config.clone())
                .fallback(self.fallback.clone());
            if let Some(tracing) = &self.tracing {
                builder = builder.tracing(tracing.clone());
            }
            if let Some(durable) = &self.durable {
                let mut per_replica = durable.clone();
                per_replica.dir = durable.dir.join(format!("replica_{i}"));
                builder = builder.durable_config(per_replica);
            }
            nodes.push(Arc::new(ServiceReplica::new(builder.start()?)));
        }
        let transport = self
            .transport
            .unwrap_or_else(|| Arc::new(DirectTransport::new()));
        ClusterService::from_replicas(nodes, self.cluster_config, transport)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtmlf_query::JoinOrder;
    use mtmlf_storage::TableId;
    use std::sync::atomic::AtomicUsize;

    fn fp(n: u64) -> QueryFingerprint {
        QueryFingerprint::from_parts(splitmix64(n), splitmix64(n ^ 0xdead_beef))
    }

    fn payload(card: f64) -> PlanPayload {
        PlanPayload::new(JoinOrder::LeftDeep(vec![TableId(0)]), card, card * 2.0)
    }

    /// A scriptable in-memory replica: answers every request with a fixed
    /// payload after recording it, with a kill switch and a warm cache.
    struct StubReplica {
        alive: AtomicBool,
        plans: AtomicUsize,
        cache: Mutex<HashMap<QueryFingerprint, PlanPayload>>,
        answer: PlanPayload,
    }

    impl StubReplica {
        fn new(answer: PlanPayload) -> Arc<Self> {
            Arc::new(Self {
                alive: AtomicBool::new(true),
                plans: AtomicUsize::new(0),
                cache: Mutex::new(HashMap::new()),
                answer,
            })
        }
    }

    impl ReplicaNode for StubReplica {
        fn plan(&self, request: PlanRequest) -> Result<PlanResponse> {
            if !self.alive.load(Ordering::SeqCst) {
                return Err(MtmlfError::Service("stub down".into()));
            }
            self.plans.fetch_add(1, Ordering::SeqCst);
            let fp = fingerprint(&request.query);
            let hit = self.cache.lock().unwrap().get(&fp).cloned();
            Ok(match hit {
                Some(p) => {
                    PlanResponse::from_payload(p, PlanSource::Cache, std::time::Duration::ZERO)
                }
                None => {
                    self.cache.lock().unwrap().insert(fp, self.answer.clone());
                    PlanResponse::from_payload(
                        self.answer.clone(),
                        PlanSource::Model,
                        std::time::Duration::ZERO,
                    )
                }
            })
        }

        fn warm(&self, fp: QueryFingerprint, payload: PlanPayload) {
            self.cache.lock().unwrap().insert(fp, payload);
        }

        fn invalidate(&self, fp: &QueryFingerprint) -> bool {
            self.cache.lock().unwrap().remove(fp).is_some()
        }

        fn healthy(&self) -> bool {
            self.alive.load(Ordering::SeqCst)
        }
    }

    fn query(seed: u64) -> mtmlf_query::Query {
        use std::collections::BTreeMap;
        // Distinct single-table queries give distinct fingerprints.
        mtmlf_query::Query::new(vec![TableId(seed as u32)], vec![], BTreeMap::new()).expect("query")
    }

    fn stub_cluster(n: usize) -> (ClusterService, Vec<Arc<StubReplica>>) {
        stub_cluster_with(n, ClusterConfig::default())
    }

    fn stub_cluster_with(
        n: usize,
        config: ClusterConfig,
    ) -> (ClusterService, Vec<Arc<StubReplica>>) {
        let stubs: Vec<Arc<StubReplica>> = (0..n)
            .map(|i| StubReplica::new(payload(i as f64 + 1.0)))
            .collect();
        let nodes: Vec<Arc<dyn ReplicaNode>> = stubs
            .iter()
            .map(|s| Arc::clone(s) as Arc<dyn ReplicaNode>)
            .collect();
        let cluster =
            ClusterService::from_replicas(nodes, config, Arc::new(DirectTransport::new()))
                .expect("cluster");
        (cluster, stubs)
    }

    #[test]
    fn ring_routes_deterministically_and_covers_all_members() {
        let mut ring = HashRing::new(32);
        for i in 0..4 {
            ring.add(ReplicaId(i));
        }
        assert_eq!(ring.len(), 4);
        for k in 0..100u64 {
            let h = splitmix64(k);
            let first = ring.route(h).expect("routed");
            assert_eq!(ring.route(h), Some(first), "routing is stable");
            let cands = ring.candidates(h);
            assert_eq!(cands.len(), 4, "candidates cover every member");
            assert_eq!(cands[0], first, "primary leads the candidate list");
            let mut sorted = cands.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "candidates are distinct");
        }
        // Every member owns at least one of 1000 keys at 32 vnodes.
        let mut owners = BTreeSet::new();
        for k in 0..1000u64 {
            owners.insert(ring.route(splitmix64(k)).expect("routed"));
        }
        assert_eq!(owners.len(), 4);
    }

    #[test]
    fn ring_remove_only_moves_the_dead_replicas_keys() {
        let mut ring = HashRing::new(64);
        for i in 0..4 {
            ring.add(ReplicaId(i));
        }
        let before: Vec<ReplicaId> = (0..2000u64)
            .map(|k| ring.route(splitmix64(k)).expect("routed"))
            .collect();
        ring.remove(ReplicaId(2));
        for (k, &owner) in before.iter().enumerate() {
            let now = ring.route(splitmix64(k as u64)).expect("routed");
            if owner != ReplicaId(2) {
                assert_eq!(now, owner, "surviving replica kept its key {k}");
            } else {
                assert_ne!(now, ReplicaId(2), "dead replica's key {k} re-homed");
            }
        }
        // Re-adding restores the original assignment exactly.
        ring.add(ReplicaId(2));
        for (k, &owner) in before.iter().enumerate() {
            assert_eq!(ring.route(splitmix64(k as u64)), Some(owner));
        }
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = HashRing::new(8);
        assert!(ring.is_empty());
        assert_eq!(ring.route(42), None);
        assert!(ring.candidates(42).is_empty());
    }

    #[test]
    fn direct_transport_delivers_in_order() {
        let t = DirectTransport::new();
        t.send(
            ReplicaId(1),
            GossipMsg::Invalidate {
                fp: fp(1),
                epoch: 1,
            },
        );
        t.send(
            ReplicaId(1),
            GossipMsg::Invalidate {
                fp: fp(2),
                epoch: 2,
            },
        );
        assert!(t.poll(ReplicaId(0)).is_empty());
        let got = t.poll(ReplicaId(1));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].fp(), fp(1));
        assert_eq!(got[1].fp(), fp(2));
        assert!(t.poll(ReplicaId(1)).is_empty(), "poll drains");
    }

    #[test]
    fn simnet_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let net = SimNet::new(seed)
                .with_drop_permille(300)
                .with_max_delay(2)
                .with_reorder();
            let mut log = Vec::new();
            for i in 0..50u64 {
                net.send(
                    ReplicaId((i % 3) as usize),
                    GossipMsg::Invalidate {
                        fp: fp(i),
                        epoch: i,
                    },
                );
            }
            for _ in 0..4 {
                net.pump();
                for r in 0..3 {
                    for m in net.poll(ReplicaId(r)) {
                        log.push((r, m.fp()));
                    }
                }
            }
            (log, net.stats())
        };
        let (log_a, stats_a) = run(7);
        let (log_b, stats_b) = run(7);
        assert_eq!(log_a, log_b, "same seed, same schedule");
        assert_eq!(stats_a, stats_b);
        assert!(
            stats_a.dropped > 0,
            "300 permille drops some of 50 messages"
        );
        assert!(stats_a.delivered > 0, "and delivers the rest");
        assert_eq!(stats_a.sent, 50);
        let (log_c, _) = run(8);
        assert_ne!(log_a, log_c, "different seed, different schedule");
    }

    #[test]
    fn simnet_full_drop_delivers_nothing() {
        let net = SimNet::new(1).with_drop_permille(1000);
        net.send(
            ReplicaId(0),
            GossipMsg::Invalidate {
                fp: fp(1),
                epoch: 1,
            },
        );
        net.pump();
        assert!(net.poll(ReplicaId(0)).is_empty());
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn plans_route_and_warm_peers() {
        let (cluster, stubs) = stub_cluster(3);
        let q = query(1);
        let first = cluster.plan(PlanRequest::new(q.clone())).expect("plan");
        assert_eq!(first.source, PlanSource::Model);
        // DirectTransport + deliver_ready at the next plan: peers warmed.
        let _ = cluster.plan(PlanRequest::new(query(2))).expect("plan");
        let m = cluster.metrics();
        assert_eq!(
            m.warms_sent,
            m.warms_applied + 2,
            "second plan's warms still in flight"
        );
        let qfp = fingerprint(&q);
        let warmed = stubs
            .iter()
            .filter(|s| s.cache.lock().unwrap().contains_key(&qfp))
            .count();
        assert_eq!(warmed, 3, "every replica holds the first plan");
    }

    /// Without warm gossip, each request of a distinct-key workload goes
    /// to exactly one replica, both replicas take a share, and a repeat
    /// pass is served entirely from the owners' caches.
    #[test]
    fn distinct_keys_route_to_one_owner_and_repeat_as_hits() {
        let (cluster, stubs) = stub_cluster_with(
            2,
            ClusterConfig {
                vnodes: 512,
                warm_gossip: false,
                ..ClusterConfig::default()
            },
        );
        let queries: Vec<_> = (0..24).map(query).collect();
        for (pass, want) in [(1, PlanSource::Model), (2, PlanSource::Cache)] {
            for q in &queries {
                let resp = cluster.plan(PlanRequest::new(q.clone())).expect("plan");
                assert_eq!(resp.source, want, "pass {pass}");
            }
            let routed: Vec<u64> = cluster
                .metrics()
                .replicas
                .iter()
                .map(|r| r.routed)
                .collect();
            assert_eq!(
                routed.iter().sum::<u64>(),
                24 * pass,
                "one replica per request"
            );
            assert!(
                routed.iter().all(|&r| r > 0),
                "both replicas used: {routed:?}"
            );
        }
        let planned: usize = stubs.iter().map(|s| s.plans.load(Ordering::SeqCst)).sum();
        assert_eq!(planned, 48, "no request reached a second replica");
    }

    #[test]
    fn killed_replica_fails_over_and_rejoins() {
        let (cluster, stubs) = stub_cluster(3);
        // Find a query whose primary is replica 0.
        let q = (0..200u64)
            .map(query)
            .find(|q| {
                let h = fingerprint(q).shard_hash();
                lock_unpoisoned(&cluster.ring).route(h) == Some(ReplicaId(0))
            })
            .expect("some key routes to replica 0");
        stubs[0].alive.store(false, Ordering::SeqCst);
        let resp = cluster.plan(PlanRequest::new(q.clone())).expect("failover");
        assert_eq!(resp.source, PlanSource::Model);
        assert_eq!(
            stubs[0].plans.load(Ordering::SeqCst),
            0,
            "dead replica untouched"
        );
        assert!(
            !cluster.ring_members().contains(&ReplicaId(0)),
            "dead replica left the ring"
        );
        stubs[0].alive.store(true, Ordering::SeqCst);
        let _ = cluster.plan(PlanRequest::new(q)).expect("plan");
        assert!(
            cluster.ring_members().contains(&ReplicaId(0)),
            "revived replica rejoined"
        );
    }

    #[test]
    fn invalidate_fans_out_and_tombstones_stale_warms() {
        let (cluster, stubs) = stub_cluster(2);
        let q = query(9);
        let qfp = fingerprint(&q);
        let _ = cluster.plan(PlanRequest::new(q.clone())).expect("plan");
        // Force-deliver pending warms so both replicas hold the plan.
        cluster.pump_gossip();
        assert!(stubs
            .iter()
            .all(|s| s.cache.lock().unwrap().contains_key(&qfp)));
        let held = cluster.invalidate(&qfp);
        assert_eq!(held, 2);
        assert!(stubs
            .iter()
            .all(|s| !s.cache.lock().unwrap().contains_key(&qfp)));
        // A warm carrying the pre-invalidation epoch is stale on arrival.
        cluster.transport.send(
            ReplicaId(1),
            GossipMsg::Warm {
                fp: qfp,
                payload: payload(1.0),
                epoch: 0,
            },
        );
        cluster.pump_gossip();
        assert!(
            !stubs[1].cache.lock().unwrap().contains_key(&qfp),
            "tombstone discards the stale warm"
        );
        assert_eq!(cluster.metrics().warms_discarded, 1);
    }

    #[test]
    fn breaker_skips_replica_after_repeated_failures() {
        use crate::resilience::ManualClock;
        use std::time::Duration;
        let stubs: Vec<Arc<StubReplica>> = (0..2).map(|_| StubReplica::new(payload(1.0))).collect();
        let nodes: Vec<Arc<dyn ReplicaNode>> = stubs
            .iter()
            .map(|s| Arc::clone(s) as Arc<dyn ReplicaNode>)
            .collect();
        let clock = Arc::new(ManualClock::new());
        let config = ClusterConfig {
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_secs(60),
                clock,
            },
            // Keep dead replicas in the ring so the breaker (not health
            // eviction) is what skips them.
            auto_health: false,
            ..ClusterConfig::default()
        };
        let cluster =
            ClusterService::from_replicas(nodes, config, Arc::new(DirectTransport::new()))
                .expect("cluster");
        let q = (0..200u64)
            .map(query)
            .find(|q| {
                let h = fingerprint(q).shard_hash();
                lock_unpoisoned(&cluster.ring).route(h) == Some(ReplicaId(0))
            })
            .expect("some key routes to replica 0");
        stubs[0].alive.store(false, Ordering::SeqCst);
        // healthy() is false but auto_health is off; the plan() walk skips
        // it via the unhealthy check, so exercise the breaker directly.
        for _ in 0..2 {
            cluster.breakers[0].on_failure();
        }
        assert_eq!(cluster.breakers[0].state(), BreakerState::Open);
        stubs[0].alive.store(true, Ordering::SeqCst);
        let resp = cluster.plan(PlanRequest::new(q)).expect("served by peer");
        assert_eq!(resp.source, PlanSource::Model);
        let m = cluster.metrics();
        assert_eq!(m.breaker_skips, 1);
        assert_eq!(m.replicas[0].routed, 0);
        assert_eq!(m.replicas[1].routed, 1);
        assert_eq!(m.failovers, 1);
    }

    #[test]
    fn builder_rejects_zero_replicas() {
        let err = ClusterService::from_replicas(
            Vec::new(),
            ClusterConfig::default(),
            Arc::new(DirectTransport::new()),
        );
        assert!(matches!(err, Err(MtmlfError::InvalidConfig(_))));
    }
}
