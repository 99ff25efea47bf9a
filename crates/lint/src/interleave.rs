//! A brute-force bounded-interleaving model checker for the serving path.
//!
//! `loom`-style, hand-rolled: a model is a small deterministic state
//! machine with N logical threads; [`explore`] enumerates **every**
//! interleaving of their atomic steps by depth-first search over cloned
//! states, checking invariants after each step and at the end of each
//! complete execution, and flagging deadlocks (no thread can run, yet not
//! all are done).
//!
//! Atomicity granularity is the point: the real code's mutex-protected
//! operations (one `LruShard` op under its shard lock; one slot read or
//! swap under its `RwLock`) are modeled as single atomic steps, so the
//! schedules explored here are exactly the linearizations the real locks
//! permit.
//!
//! Four models mirror the serving path:
//!
//! * [`CacheModel`] — the intrusive doubly-linked LRU of
//!   `mtmlf::cache::ShardedLruCache`, op for op (get with recency bump,
//!   insert with tail eviction, slab free-list reuse), with structural
//!   integrity and oracle-consistency invariants.
//! * [`BreakerModel`] — `mtmlf::resilience::CircuitBreaker`
//!   acquire/report transition for transition, with a clock thread ticking
//!   the cool-down. Invariants: a probe flag only ever flies in the
//!   half-open state, a cooled-down open breaker always yields a probe
//!   (no stuck-open), and no probe admission is left unresolved at the end
//!   of any schedule (no lost half-open probe).
//! * [`RouterModel`] — `mtmlf::cluster::ClusterService` routing: clients
//!   dispatch to their key's primary replica and walk the candidate list on
//!   transient failure while a killer thread kills and revives replicas —
//!   including mid-flight, after dispatch but before the replica answers.
//!   Invariants: every request gets exactly one reply (a success from a
//!   live candidate or an explicit all-candidates-down error — never
//!   silence), no double completion, and no schedule deadlocks.
//! * [`SwapModel`] — `mtmlf::lifecycle::ModelSlot` hot swap under load:
//!   clients submit requests a worker serves by reading the slot's
//!   (model, version) pair while a swapper thread swaps through a script
//!   of versions, back to the boot version included. Invariants: every request gets exactly one reply, no
//!   request is dropped by a swap, and every reply was produced by a
//!   consistent pair — never a half-swapped model (one half read before a
//!   swap, the other after).
//!
//! Deliberate-bug variants (gated behind test-only constructors) prove the
//! checker actually catches lost replies, double completions, and
//! deadlocks.

use std::collections::VecDeque;

/// A model explorable by [`explore`]: N logical threads over shared state.
pub trait Interleave: Clone {
    /// Number of logical threads.
    fn threads(&self) -> usize;
    /// Whether thread `t` has run to completion.
    fn done(&self, t: usize) -> bool;
    /// Whether thread `t` can take a step now (a blocked thread waits).
    fn enabled(&self, t: usize) -> bool;
    /// Applies one atomic step of thread `t`; returns a violation message
    /// if a per-step invariant breaks.
    fn step(&mut self, t: usize) -> Result<(), String>;
    /// End-of-execution invariants (all threads done).
    fn check_complete(&self) -> Result<(), String>;
}

/// Statistics from an exhaustive exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exploration {
    /// Complete executions (distinct schedules) explored.
    pub schedules: u64,
    /// Total atomic steps taken across all executions.
    pub steps: u64,
}

/// A schedule that broke an invariant, with the step trace that got there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelViolation {
    /// What broke.
    pub message: String,
    /// Thread ids in execution order up to the violation.
    pub schedule: Vec<usize>,
}

impl std::fmt::Display for ModelViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (schedule {:?})", self.message, self.schedule)
    }
}

/// Exhaustively explores every interleaving of `model`'s threads.
///
/// `limit` bounds the total number of steps (across all branches) as a
/// runaway guard; exceeding it is reported as a violation rather than
/// silently truncating coverage.
pub fn explore<M: Interleave>(model: &M, limit: u64) -> Result<Exploration, ModelViolation> {
    let mut stats = Exploration {
        schedules: 0,
        steps: 0,
    };
    let mut trace = Vec::new();
    dfs(model, &mut stats, &mut trace, limit)?;
    Ok(stats)
}

fn dfs<M: Interleave>(
    model: &M,
    stats: &mut Exploration,
    trace: &mut Vec<usize>,
    limit: u64,
) -> Result<(), ModelViolation> {
    let n = model.threads();
    let all_done = (0..n).all(|t| model.done(t));
    if all_done {
        stats.schedules += 1;
        return model.check_complete().map_err(|message| ModelViolation {
            message,
            schedule: trace.clone(),
        });
    }
    let runnable: Vec<usize> = (0..n)
        .filter(|&t| !model.done(t) && model.enabled(t))
        .collect();
    if runnable.is_empty() {
        return Err(ModelViolation {
            message: "deadlock: live threads exist but none can step".to_string(),
            schedule: trace.clone(),
        });
    }
    for t in runnable {
        if stats.steps >= limit {
            return Err(ModelViolation {
                message: format!("exploration exceeded step limit {limit}"),
                schedule: trace.clone(),
            });
        }
        stats.steps += 1;
        let mut next = model.clone();
        trace.push(t);
        if let Err(message) = next.step(t) {
            return Err(ModelViolation {
                message,
                schedule: trace.clone(),
            });
        }
        dfs(&next, stats, trace, limit)?;
        trace.pop();
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Cache model
// ---------------------------------------------------------------------

/// One atomic cache operation (executed under the shard mutex in the real
/// code, hence one step here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOp {
    /// `cache.insert(key, value)`.
    Insert(u32, u32),
    /// `cache.get(&key)`.
    Get(u32),
}

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct ModelEntry {
    key: u32,
    value: u32,
    prev: usize,
    next: usize,
}

/// Mirror of one `LruShard`: intrusive doubly-linked LRU over a slab with
/// a free list, plus a linearization oracle (key → last inserted value).
#[derive(Debug, Clone)]
pub struct CacheModel {
    // -- the mirrored shard --
    map: Vec<(u32, usize)>, // sorted assoc (key → slab idx); tiny N
    entries: Vec<ModelEntry>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
    // -- the harness --
    scripts: Vec<Vec<CacheOp>>,
    pc: Vec<usize>,
    oracle: Vec<(u32, u32)>, // key → last value written, any-time truth
    // Deliberate-bug switch for checker self-tests: eviction forgets to
    // unmap the victim key, corrupting the map/list correspondence.
    bug_skip_evict_unmap: bool,
}

impl CacheModel {
    /// A model with one logical thread per script, sharing one shard of
    /// the given capacity.
    pub fn new(capacity: usize, scripts: Vec<Vec<CacheOp>>) -> Self {
        let n = scripts.len();
        Self {
            map: Vec::new(),
            entries: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            scripts,
            pc: vec![0; n],
            oracle: Vec::new(),
            bug_skip_evict_unmap: false,
        }
    }

    /// Buggy variant: eviction leaves the victim key in the map (must be
    /// caught by the structural-integrity invariant).
    pub fn with_broken_eviction(capacity: usize, scripts: Vec<Vec<CacheOp>>) -> Self {
        Self {
            bug_skip_evict_unmap: true,
            ..Self::new(capacity, scripts)
        }
    }

    fn map_get(&self, key: u32) -> Option<usize> {
        self.map.iter().find(|(k, _)| *k == key).map(|&(_, i)| i)
    }

    fn map_remove(&mut self, key: u32) {
        self.map.retain(|(k, _)| *k != key);
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.entries[idx].prev, self.entries[idx].next);
        if prev != NIL {
            self.entries[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.entries[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.entries[idx].prev = NIL;
        self.entries[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.entries[idx].prev = NIL;
        self.entries[idx].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn op_get(&mut self, key: u32) -> Option<u32> {
        let idx = self.map_get(key)?;
        self.detach(idx);
        self.push_front(idx);
        Some(self.entries[idx].value)
    }

    fn op_insert(&mut self, key: u32, value: u32) {
        if self.capacity == 0 {
            return;
        }
        if let Some(idx) = self.map_get(key) {
            self.entries[idx].value = value;
            self.detach(idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            self.detach(victim);
            let old_key = self.entries[victim].key;
            if !self.bug_skip_evict_unmap {
                self.map_remove(old_key);
            }
            self.free.push(victim);
        }
        let entry = ModelEntry {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(slot) => {
                self.entries[slot] = entry;
                slot
            }
            None => {
                self.entries.push(entry);
                self.entries.len() - 1
            }
        };
        self.map.push((key, idx));
        self.push_front(idx);
    }

    /// Structural invariants of the intrusive list + map + slab.
    fn integrity(&self) -> Result<(), String> {
        if self.map.len() > self.capacity {
            return Err(format!(
                "capacity exceeded: {} entries, capacity {}",
                self.map.len(),
                self.capacity
            ));
        }
        // Walk head→tail; must visit exactly map.len() nodes, links sane.
        let mut seen = 0usize;
        let mut idx = self.head;
        let mut prev = NIL;
        while idx != NIL {
            if seen > self.entries.len() {
                return Err("cycle in LRU recency list".to_string());
            }
            let e = &self.entries[idx];
            if e.prev != prev {
                return Err(format!("broken prev link at slab index {idx}"));
            }
            if self.map_get(e.key) != Some(idx) {
                return Err(format!("listed entry for key {} not in map", e.key));
            }
            prev = idx;
            idx = e.next;
            seen += 1;
        }
        if prev != self.tail {
            return Err("tail does not terminate the recency list".to_string());
        }
        if seen != self.map.len() {
            return Err(format!(
                "map has {} entries but recency list has {seen}",
                self.map.len()
            ));
        }
        Ok(())
    }
}

impl Interleave for CacheModel {
    fn threads(&self) -> usize {
        self.scripts.len()
    }

    fn done(&self, t: usize) -> bool {
        self.pc[t] >= self.scripts[t].len()
    }

    fn enabled(&self, _t: usize) -> bool {
        true // a mutex acquisition always eventually succeeds
    }

    fn step(&mut self, t: usize) -> Result<(), String> {
        let op = self.scripts[t][self.pc[t]];
        self.pc[t] += 1;
        match op {
            CacheOp::Insert(k, v) => {
                self.op_insert(k, v);
                if !self.oracle.iter().any(|&(ok, _)| ok == k) {
                    self.oracle.push((k, v));
                } else {
                    for slot in self.oracle.iter_mut() {
                        if slot.0 == k {
                            slot.1 = v;
                        }
                    }
                }
            }
            CacheOp::Get(k) => {
                let got = self.op_get(k);
                let truth = self
                    .oracle
                    .iter()
                    .find(|&&(ok, _)| ok == k)
                    .map(|&(_, v)| v);
                match (got, truth) {
                    // A miss is always legal (the key may have been
                    // evicted), but a hit must return the last value the
                    // linearized history wrote — never stale data.
                    (Some(v), Some(tv)) if v != tv => {
                        return Err(format!(
                            "stale read: get({k}) returned {v}, last insert wrote {tv}"
                        ));
                    }
                    (Some(v), None) => {
                        return Err(format!(
                            "phantom read: get({k}) returned {v} but {k} was never inserted"
                        ));
                    }
                    _ => {}
                }
            }
        }
        self.integrity()
    }

    fn check_complete(&self) -> Result<(), String> {
        self.integrity()
    }
}

// ---------------------------------------------------------------------
// Breaker model
// ---------------------------------------------------------------------

/// Breaker state, mirroring `mtmlf::resilience::BreakerState`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPhase {
    /// Requests flow to the model path; failures are counted.
    Closed,
    /// The model path is short-circuited until the cool-down elapses.
    Open,
    /// One probe request is testing whether the model path recovered.
    HalfOpen,
}

/// What the model breaker told an acquiring client, mirroring
/// `mtmlf::resilience::Admission`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelAdmission {
    /// Closed: proceed to the model path.
    Admitted,
    /// Half-open: proceed as the single recovery probe.
    Probe,
    /// Open (or probe already in flight): degrade without the model.
    Rejected,
}

/// One scripted client attempt: whether the model path would fail if this
/// attempt reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// `true` → the client reports `on_failure` when admitted.
    pub fails: bool,
}

/// Mirror of `mtmlf::resilience::CircuitBreaker` under concurrent clients
/// and a ticking clock.
///
/// Each client attempt is two atomic steps, exactly the two lock
/// acquisitions in the real code: **acquire** (`try_acquire`) and
/// **report** (`on_success`/`on_failure`, or nothing when rejected). The
/// last thread is a clock that advances time by one cool-down per tick, so
/// schedules cover trips, cool-downs, probe races, and probe takeover.
///
/// Thread layout: `0..clients` = clients, `clients` = clock.
#[derive(Debug, Clone)]
pub struct BreakerModel {
    // -- the mirrored breaker (fields of BreakerInner) --
    state: BreakerPhase,
    consecutive_failures: u32,
    opened_at: u64,
    probe_in_flight: bool,
    probe_started: u64,
    threshold: u32,
    // -- the harness --
    now: u64, // ticks; cool-down is 1 tick
    scripts: Vec<Vec<Attempt>>,
    pc: Vec<usize>, // per client: step index (attempt*2 + phase)
    pending: Vec<Option<ModelAdmission>>,
    ticks_left: usize,
    // Deliberate-bug switches for checker self-tests.
    bug_lost_probe: bool,
    bug_stuck_open: bool,
}

const COOLDOWN_TICKS: u64 = 1;

impl BreakerModel {
    /// A correct model: one client thread per script plus a clock thread
    /// ticking `ticks` times.
    pub fn new(threshold: u32, scripts: Vec<Vec<Attempt>>, ticks: usize) -> Self {
        let n = scripts.len();
        Self {
            state: BreakerPhase::Closed,
            consecutive_failures: 0,
            opened_at: 0,
            probe_in_flight: false,
            probe_started: 0,
            threshold,
            now: 0,
            scripts,
            pc: vec![0; n],
            pending: vec![None; n],
            ticks_left: ticks,
            bug_lost_probe: false,
            bug_stuck_open: false,
        }
    }

    /// Buggy variant: `on_success` closes the breaker but forgets to clear
    /// the probe-in-flight flag (must be caught as a probe flying outside
    /// the half-open state, or as a lost probe at completion).
    pub fn with_lost_probe(threshold: u32, scripts: Vec<Vec<Attempt>>, ticks: usize) -> Self {
        Self {
            bug_lost_probe: true,
            ..Self::new(threshold, scripts, ticks)
        }
    }

    /// Buggy variant: `try_acquire` ignores the cool-down and keeps
    /// rejecting forever once open (must be caught as stuck-open).
    pub fn with_stuck_open(threshold: u32, scripts: Vec<Vec<Attempt>>, ticks: usize) -> Self {
        Self {
            bug_stuck_open: true,
            ..Self::new(threshold, scripts, ticks)
        }
    }

    fn clock_idx(&self) -> usize {
        self.scripts.len()
    }

    /// Mirrors `CircuitBreaker::try_acquire`.
    fn try_acquire(&mut self) -> ModelAdmission {
        match self.state {
            BreakerPhase::Closed => ModelAdmission::Admitted,
            BreakerPhase::Open => {
                if self.bug_stuck_open {
                    return ModelAdmission::Rejected;
                }
                if self.now - self.opened_at >= COOLDOWN_TICKS {
                    self.state = BreakerPhase::HalfOpen;
                    self.probe_in_flight = true;
                    self.probe_started = self.now;
                    ModelAdmission::Probe
                } else {
                    ModelAdmission::Rejected
                }
            }
            BreakerPhase::HalfOpen => {
                if self.probe_in_flight && self.now - self.probe_started < COOLDOWN_TICKS {
                    ModelAdmission::Rejected
                } else {
                    // Probe takeover: the old probe's worker is presumed
                    // dead after a full cool-down with no verdict.
                    self.probe_in_flight = true;
                    self.probe_started = self.now;
                    ModelAdmission::Probe
                }
            }
        }
    }

    /// Mirrors `CircuitBreaker::on_success`.
    fn on_success(&mut self) {
        self.state = BreakerPhase::Closed;
        self.consecutive_failures = 0;
        if !self.bug_lost_probe {
            self.probe_in_flight = false;
        }
    }

    /// Mirrors `CircuitBreaker::on_failure`.
    fn on_failure(&mut self) {
        match self.state {
            BreakerPhase::HalfOpen => {
                self.state = BreakerPhase::Open;
                self.opened_at = self.now;
                self.probe_in_flight = false;
            }
            BreakerPhase::Closed => {
                self.consecutive_failures += 1;
                if self.threshold > 0 && self.consecutive_failures >= self.threshold {
                    self.state = BreakerPhase::Open;
                    self.opened_at = self.now;
                }
            }
            BreakerPhase::Open => {}
        }
    }

    /// Per-step invariant: the probe flag only flies half-open.
    fn probe_invariant(&self) -> Result<(), String> {
        if self.probe_in_flight && self.state != BreakerPhase::HalfOpen {
            return Err(format!(
                "probe in flight while breaker is {:?} (must be HalfOpen)",
                self.state
            ));
        }
        Ok(())
    }
}

impl Interleave for BreakerModel {
    fn threads(&self) -> usize {
        self.scripts.len() + 1
    }

    fn done(&self, t: usize) -> bool {
        if t < self.scripts.len() {
            self.pc[t] >= 2 * self.scripts[t].len()
        } else {
            self.ticks_left == 0
        }
    }

    fn enabled(&self, _t: usize) -> bool {
        true // acquire, report, and tick never block
    }

    fn step(&mut self, t: usize) -> Result<(), String> {
        if t == self.clock_idx() {
            self.now += COOLDOWN_TICKS;
            self.ticks_left -= 1;
            return self.probe_invariant();
        }
        let attempt = self.scripts[t][self.pc[t] / 2];
        if self.pc[t] % 2 == 0 {
            // Acquire phase.
            let was_open = self.state == BreakerPhase::Open;
            let cooled = self.now - self.opened_at >= COOLDOWN_TICKS;
            let admission = self.try_acquire();
            if was_open && cooled && admission == ModelAdmission::Rejected {
                return Err(
                    "stuck open: cooled-down breaker rejected instead of probing".to_string(),
                );
            }
            self.pending[t] = Some(admission);
        } else {
            // Report phase: rejected attempts bypass the breaker entirely
            // (the real code degrades them to the fallback).
            match self.pending[t].take() {
                Some(ModelAdmission::Admitted) | Some(ModelAdmission::Probe) => {
                    if attempt.fails {
                        self.on_failure();
                    } else {
                        self.on_success();
                    }
                }
                Some(ModelAdmission::Rejected) => {}
                None => return Err(format!("client {t} reported without acquiring")),
            }
        }
        self.pc[t] += 1;
        self.probe_invariant()
    }

    fn check_complete(&self) -> Result<(), String> {
        if self.probe_in_flight {
            return Err("lost half-open probe: a probe admission was never resolved".to_string());
        }
        if let Some(t) = self.pending.iter().position(Option::is_some) {
            return Err(format!("client {t} finished with an unreported admission"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Router model
// ---------------------------------------------------------------------

/// A reply as observed by a model cluster client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterReply {
    /// Some candidate replica planned the request (which one).
    Planned(usize),
    /// Every candidate was down; the router surfaced an explicit error.
    Unavailable,
}

/// One killer-thread action against the replica set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillerOp {
    /// Mark a replica dead: new dispatches fail immediately and requests
    /// already in flight come back as transient errors.
    Kill(usize),
    /// Bring a replica back; it serves again from the next dispatch.
    Revive(usize),
}

/// Mirror of `mtmlf::cluster::ClusterService::plan` under replica churn.
///
/// Each client owns one request with a fixed key whose candidate order is
/// the rotation `[key % n, (key+1) % n, ..]` — the shape `HashRing::
/// candidates` guarantees (a permutation of the membership, primary
/// first). An attempt is two atomic steps, matching the two points where
/// the real router observes replica state: **dispatch** (the health /
/// breaker check before `ReplicaNode::plan`) and **execute** (the
/// replica's own alive check inside `plan`). A kill landing between the
/// two is exactly the in-flight failure the failover walk must absorb.
///
/// Thread layout: `0..clients` = clients, `clients` = killer.
#[derive(Debug, Clone)]
pub struct RouterModel {
    alive: Vec<bool>,
    keys: Vec<usize>,
    attempt: Vec<usize>,           // per client: index into its candidate list
    in_flight: Vec<Option<usize>>, // per client: replica executing its request
    client_pc: Vec<u8>,            // 0 = dispatch, 1 = execute, 2 = observe, 3 = done
    replies: Vec<Option<RouterReply>>,
    killer_script: Vec<KillerOp>,
    killer_pc: usize,
    // Deliberate-bug switches for checker self-tests.
    bug_drop_in_flight: bool,
    bug_reply_then_failover: bool,
}

impl RouterModel {
    /// A correct model: one client per key over `replicas` replicas, plus a
    /// killer thread running `script`.
    pub fn new(replicas: usize, keys: Vec<usize>, script: Vec<KillerOp>) -> Self {
        let n = keys.len();
        Self {
            alive: vec![true; replicas],
            keys,
            attempt: vec![0; n],
            in_flight: vec![None; n],
            client_pc: vec![0; n],
            replies: vec![None; n],
            killer_script: script,
            killer_pc: 0,
            bug_drop_in_flight: false,
            bug_reply_then_failover: false,
        }
    }

    /// Buggy variant: a request whose replica dies mid-flight is silently
    /// dropped instead of failing over (must be caught as a deadlocked
    /// client or a lost response).
    pub fn with_dropped_in_flight(
        replicas: usize,
        keys: Vec<usize>,
        script: Vec<KillerOp>,
    ) -> Self {
        Self {
            bug_drop_in_flight: true,
            ..Self::new(replicas, keys, script)
        }
    }

    /// Buggy variant: a mid-flight failure is reported to the client as an
    /// error *and* retried on the next candidate, which then replies again
    /// (must be caught as a double completion).
    pub fn with_reply_then_failover(
        replicas: usize,
        keys: Vec<usize>,
        script: Vec<KillerOp>,
    ) -> Self {
        Self {
            bug_reply_then_failover: true,
            ..Self::new(replicas, keys, script)
        }
    }

    fn replica_count(&self) -> usize {
        self.alive.len()
    }

    fn killer_idx(&self) -> usize {
        self.keys.len()
    }

    /// The candidate walk for a key: primary first, then the ring
    /// survivors, covering every member exactly once.
    fn candidate(&self, key: usize, attempt: usize) -> usize {
        (key + attempt) % self.replica_count()
    }

    fn deliver(&mut self, client: usize, reply: RouterReply) -> Result<(), String> {
        if self.replies[client].is_some() {
            return Err(format!("double completion: client {client} replied twice"));
        }
        self.replies[client] = Some(reply);
        Ok(())
    }
}

impl Interleave for RouterModel {
    fn threads(&self) -> usize {
        self.keys.len() + 1
    }

    fn done(&self, t: usize) -> bool {
        if t < self.keys.len() {
            self.client_pc[t] == 3
        } else {
            self.killer_pc >= self.killer_script.len()
        }
    }

    fn enabled(&self, t: usize) -> bool {
        if t < self.keys.len() {
            match self.client_pc[t] {
                0 | 1 => true,                  // dispatch / replica execution
                2 => self.replies[t].is_some(), // blocked on the reply channel
                _ => false,
            }
        } else {
            true // kill and revive never block
        }
    }

    fn step(&mut self, t: usize) -> Result<(), String> {
        if t == self.killer_idx() {
            match self.killer_script[self.killer_pc] {
                KillerOp::Kill(r) => self.alive[r] = false,
                KillerOp::Revive(r) => self.alive[r] = true,
            }
            self.killer_pc += 1;
            return Ok(());
        }
        match self.client_pc[t] {
            0 => {
                // Dispatch: the router's pre-flight health check.
                if self.attempt[t] >= self.replica_count() {
                    // Candidate list exhausted — the router answers with an
                    // explicit error rather than hanging the client.
                    self.deliver(t, RouterReply::Unavailable)?;
                    self.client_pc[t] = 2;
                } else {
                    let r = self.candidate(self.keys[t], self.attempt[t]);
                    if self.alive[r] {
                        self.in_flight[t] = Some(r);
                        self.client_pc[t] = 1;
                    } else {
                        // Immediate connect failure: walk to the next
                        // candidate without consuming a reply.
                        self.attempt[t] += 1;
                    }
                }
                Ok(())
            }
            1 => {
                // Execute: the replica answers — unless it was killed after
                // dispatch, which surfaces as a transient error.
                let r = self.in_flight[t]
                    .take()
                    .ok_or_else(|| format!("client {t} executing with no dispatch"))?;
                if self.alive[r] {
                    self.deliver(t, RouterReply::Planned(r))?;
                    self.client_pc[t] = 2;
                } else if self.bug_drop_in_flight {
                    // Bug: the error is swallowed; the client waits forever.
                    self.client_pc[t] = 2;
                } else {
                    if self.bug_reply_then_failover {
                        // Bug: report the transient error as a final answer
                        // but keep walking the candidates anyway.
                        self.deliver(t, RouterReply::Unavailable)?;
                    }
                    self.attempt[t] += 1;
                    self.client_pc[t] = 0;
                }
                Ok(())
            }
            2 => {
                // Reply observed; consume it.
                self.client_pc[t] = 3;
                Ok(())
            }
            _ => Err(format!("client {t} stepped after completion")),
        }
    }

    fn check_complete(&self) -> Result<(), String> {
        for (i, r) in self.replies.iter().enumerate() {
            if r.is_none() {
                return Err(format!("lost response: client {i} never got a reply"));
            }
        }
        if let Some(t) = self.in_flight.iter().position(Option::is_some) {
            return Err(format!(
                "client {t} finished with a request still in flight"
            ));
        }
        Ok(())
    }
}

/// Mirror of `mtmlf::lifecycle::ModelSlot` under a serving load.
///
/// The slot is modeled as the two halves a careless reader could observe
/// separately — the model pointer and its version. The real `active()`
/// takes the read lock exactly once and clones both out together, so a
/// job can never straddle a swap; the model encodes that as the worker
/// reading both halves in one atomic step. Each swap is a single
/// write-lock step; a swap back to an earlier version is just another
/// swap. Invariant: every reply carries a consistent
/// (model, version) pair, every client gets exactly one reply, and no
/// queued request is lost to a swap.
///
/// The worker stands for whichever thread plans a request (in
/// `PlannerService`, the caller itself); the queue only orders requests.
///
/// Thread layout: `0..clients` = clients, `clients` = worker,
/// `clients + 1` = swapper.
#[derive(Debug, Clone)]
pub struct SwapModel {
    // The slot's two halves. A correct install always writes (v, v), so
    // any mismatched pair in a reply is proof of a torn read.
    active_model: usize,
    active_version: usize,
    queue: VecDeque<usize>,
    replies: Vec<Option<(usize, usize)>>,
    client_pc: Vec<u8>, // 0 = submit, 1 = await reply, 2 = done
    // Mid-read state for the torn-read bug: (client, model half).
    torn: Option<(usize, usize)>,
    /// The versions the swapper installs, in order.
    script: Vec<usize>,
    swapper_pc: usize,
    // Deliberate-bug switches for checker self-tests.
    bug_drop_in_flight: bool,
    bug_torn_read: bool,
}

impl SwapModel {
    /// A correct model: `clients` one-request clients served by one worker
    /// while the swapper runs `script`. Boot version is 1.
    pub fn new(clients: usize, script: Vec<usize>) -> Self {
        Self {
            active_model: 1,
            active_version: 1,
            queue: VecDeque::new(),
            replies: vec![None; clients],
            client_pc: vec![0; clients],
            torn: None,
            script,
            swapper_pc: 0,
            bug_drop_in_flight: false,
            bug_torn_read: false,
        }
    }

    /// Buggy variant: a swap tears down the worker queue, dropping every
    /// queued request (must be caught as a deadlocked client or a lost
    /// response).
    pub fn with_dropped_in_flight(clients: usize, script: Vec<usize>) -> Self {
        Self {
            bug_drop_in_flight: true,
            ..Self::new(clients, script)
        }
    }

    /// Buggy variant: the worker reads the model half and the version half
    /// under two separate lock acquisitions, so a swap landing between
    /// them produces a half-swapped reply (must be caught as an
    /// inconsistent pair).
    pub fn with_torn_read(clients: usize, script: Vec<usize>) -> Self {
        Self {
            bug_torn_read: true,
            ..Self::new(clients, script)
        }
    }

    fn clients(&self) -> usize {
        self.replies.len()
    }

    fn worker_idx(&self) -> usize {
        self.clients()
    }

    fn swapper_idx(&self) -> usize {
        self.clients() + 1
    }

    fn all_submitted(&self) -> bool {
        self.client_pc.iter().all(|&pc| pc >= 1)
    }

    fn deliver(&mut self, client: usize, pair: (usize, usize)) -> Result<(), String> {
        if self.replies[client].is_some() {
            return Err(format!("double completion: client {client} replied twice"));
        }
        if pair.0 != pair.1 {
            return Err(format!(
                "half-swapped model: client {client} served by model {} at version {}",
                pair.0, pair.1
            ));
        }
        self.replies[client] = Some(pair);
        Ok(())
    }
}

impl Interleave for SwapModel {
    fn threads(&self) -> usize {
        self.clients() + 2
    }

    fn done(&self, t: usize) -> bool {
        if t < self.clients() {
            self.client_pc[t] == 2
        } else if t == self.worker_idx() {
            self.all_submitted() && self.queue.is_empty() && self.torn.is_none()
        } else {
            self.swapper_pc >= self.script.len()
        }
    }

    fn enabled(&self, t: usize) -> bool {
        if t < self.clients() {
            match self.client_pc[t] {
                0 => true,
                1 => self.replies[t].is_some(),
                _ => false,
            }
        } else if t == self.worker_idx() {
            !self.queue.is_empty() || self.torn.is_some()
        } else {
            true // a swap never blocks
        }
    }

    fn step(&mut self, t: usize) -> Result<(), String> {
        if t == self.swapper_idx() {
            let v = self.script[self.swapper_pc];
            self.active_model = v;
            self.active_version = v;
            if self.bug_drop_in_flight {
                // Bug: the swap tears down the queue; queued clients wait
                // forever.
                self.queue.clear();
            }
            self.swapper_pc += 1;
            return Ok(());
        }
        if t == self.worker_idx() {
            if let Some((client, model_half)) = self.torn.take() {
                // Second half of a torn read: the version observed now may
                // postdate the model observed before.
                return self.deliver(client, (model_half, self.active_version));
            }
            let client = self
                .queue
                .pop_front()
                .ok_or_else(|| "worker stepped with an empty queue".to_string())?;
            if self.bug_torn_read {
                self.torn = Some((client, self.active_model));
                return Ok(());
            }
            // The real active(): one read lock, both halves together.
            let pair = (self.active_model, self.active_version);
            return self.deliver(client, pair);
        }
        match self.client_pc[t] {
            0 => {
                self.queue.push_back(t);
                self.client_pc[t] = 1;
                Ok(())
            }
            1 => {
                self.client_pc[t] = 2;
                Ok(())
            }
            _ => Err(format!("client {t} stepped after completion")),
        }
    }

    fn check_complete(&self) -> Result<(), String> {
        for (i, r) in self.replies.iter().enumerate() {
            match r {
                None => return Err(format!("lost response: client {i} never got a reply")),
                Some((m, v)) if m != v => {
                    return Err(format!(
                        "half-swapped model: client {i} served by model {m} at version {v}"
                    ))
                }
                Some(_) => {}
            }
        }
        if self.torn.is_some() {
            return Err("worker finished with a read still torn open".to_string());
        }
        Ok(())
    }
}

/// The standard model suite run by `mtmlf-lint --check`: name, schedules
/// explored, steps taken. Any violation aborts with its message.
pub fn run_model_suite() -> Result<Vec<(&'static str, Exploration)>, (String, String)> {
    let mut out = Vec::new();

    let cache2 = CacheModel::new(
        2,
        vec![
            vec![
                CacheOp::Insert(1, 10),
                CacheOp::Get(1),
                CacheOp::Insert(3, 30),
            ],
            vec![
                CacheOp::Insert(2, 20),
                CacheOp::Get(2),
                CacheOp::Insert(1, 11),
                CacheOp::Get(3),
            ],
        ],
    );
    match explore(&cache2, 2_000_000) {
        Ok(stats) => out.push(("cache-2thread", stats)),
        Err(v) => return Err(("cache-2thread".to_string(), v.to_string())),
    }

    let cache3 = CacheModel::new(
        2,
        vec![
            vec![CacheOp::Insert(1, 10), CacheOp::Get(2)],
            vec![CacheOp::Insert(2, 20), CacheOp::Get(1)],
            vec![CacheOp::Insert(1, 12), CacheOp::Get(1)],
        ],
    );
    match explore(&cache3, 2_000_000) {
        Ok(stats) => out.push(("cache-3thread", stats)),
        Err(v) => return Err(("cache-3thread".to_string(), v.to_string())),
    }

    // Trip-and-recover: two clients whose first attempts fail and second
    // attempts succeed, one cool-down tick. Covers threshold trips,
    // rejection while open, the half-open probe, and reclosure.
    let trip = BreakerModel::new(
        2,
        vec![
            vec![Attempt { fails: true }, Attempt { fails: false }],
            vec![Attempt { fails: true }, Attempt { fails: false }],
        ],
        1,
    );
    match explore(&trip, 2_000_000) {
        Ok(stats) => out.push(("breaker-trip-recover", stats)),
        Err(v) => return Err(("breaker-trip-recover".to_string(), v.to_string())),
    }

    // Probe race: threshold one, three clients (two failing, one healthy)
    // and two ticks, so schedules include concurrent acquire in half-open,
    // failed probes restarting the cool-down, and probe takeover.
    let race = BreakerModel::new(
        1,
        vec![
            vec![Attempt { fails: true }],
            vec![Attempt { fails: true }],
            vec![Attempt { fails: false }],
        ],
        2,
    );
    match explore(&race, 2_000_000) {
        Ok(stats) => out.push(("breaker-probe-race", stats)),
        Err(v) => return Err(("breaker-probe-race".to_string(), v.to_string())),
    }

    // Replica churn: two clients on distinct primaries while the killer
    // takes replica 0 down and brings it back. Schedules include kills
    // landing mid-flight (after dispatch, before the replica answers), so
    // the failover walk is exercised under every interleaving.
    let churn = RouterModel::new(2, vec![0, 1], vec![KillerOp::Kill(0), KillerOp::Revive(0)]);
    match explore(&churn, 20_000_000) {
        Ok(stats) => out.push(("router-replica-churn", stats)),
        Err(v) => return Err(("router-replica-churn".to_string(), v.to_string())),
    }

    // Total outage: both replicas die and only one comes back, so some
    // schedules exhaust the candidate list — the router must answer with
    // an explicit error, never silence.
    let outage = RouterModel::new(
        2,
        vec![0, 1],
        vec![KillerOp::Kill(0), KillerOp::Kill(1), KillerOp::Revive(1)],
    );
    match explore(&outage, 20_000_000) {
        Ok(stats) => out.push(("router-total-outage", stats)),
        Err(v) => return Err(("router-total-outage".to_string(), v.to_string())),
    }

    // Hot swap under load: two clients served across a swap to v2 and a
    // swap back to v1. Schedules include a swap landing between a
    // request's enqueue and its service, and the swap back racing the
    // second request — every reply must come from a consistent
    // (model, version) pair.
    let swap = SwapModel::new(2, vec![2, 1]);
    match explore(&swap, 20_000_000) {
        Ok(stats) => out.push(("swap-during-serve", stats)),
        Err(v) => return Err(("swap-during-serve".to_string(), v.to_string())),
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_two_thread_model_is_exhaustive_and_clean() {
        let model = CacheModel::new(
            2,
            vec![
                vec![
                    CacheOp::Insert(1, 10),
                    CacheOp::Get(1),
                    CacheOp::Insert(3, 30),
                ],
                vec![
                    CacheOp::Insert(2, 20),
                    CacheOp::Get(2),
                    CacheOp::Insert(1, 11),
                    CacheOp::Get(3),
                ],
            ],
        );
        let stats = explore(&model, 2_000_000).expect("no invariant failures");
        // 7 steps interleaved two ways: C(7,3) = 35 distinct schedules.
        assert_eq!(stats.schedules, 35);
    }

    #[test]
    fn cache_three_thread_model_is_exhaustive_and_clean() {
        let model = CacheModel::new(
            2,
            vec![
                vec![CacheOp::Insert(1, 10), CacheOp::Get(2)],
                vec![CacheOp::Insert(2, 20), CacheOp::Get(1)],
                vec![CacheOp::Insert(1, 12), CacheOp::Get(1)],
            ],
        );
        let stats = explore(&model, 2_000_000).expect("no invariant failures");
        // Multinomial(6; 2,2,2) = 90 schedules.
        assert_eq!(stats.schedules, 90);
    }

    #[test]
    fn cache_checker_catches_broken_eviction() {
        let model = CacheModel::with_broken_eviction(
            1,
            vec![vec![CacheOp::Insert(1, 10)], vec![CacheOp::Insert(2, 20)]],
        );
        let err = explore(&model, 1_000).expect_err("corrupted map must be caught");
        assert!(
            err.message.contains("capacity exceeded") || err.message.contains("recency list"),
            "unexpected violation: {err}"
        );
    }

    #[test]
    fn cache_miss_before_insert_is_legal_but_phantom_hits_are_not() {
        // A get with no prior insert must simply miss; the phantom-read
        // detector only fires on an impossible hit.
        let model = CacheModel::new(1, vec![vec![CacheOp::Get(9)]]);
        assert!(explore(&model, 1_000).is_ok());
    }

    #[test]
    fn breaker_trip_recover_model_is_exhaustive_and_clean() {
        let model = BreakerModel::new(
            2,
            vec![
                vec![Attempt { fails: true }, Attempt { fails: false }],
                vec![Attempt { fails: true }, Attempt { fails: false }],
            ],
            1,
        );
        let stats = explore(&model, 2_000_000).expect("no invariant failures");
        // 9 steps interleaved three ways: 9!/(4!·4!·1!) = 630 schedules.
        assert_eq!(stats.schedules, 630);
    }

    #[test]
    fn breaker_probe_race_model_is_exhaustive_and_clean() {
        let model = BreakerModel::new(
            1,
            vec![
                vec![Attempt { fails: true }],
                vec![Attempt { fails: true }],
                vec![Attempt { fails: false }],
            ],
            2,
        );
        let stats = explore(&model, 2_000_000).expect("no invariant failures");
        // 8 steps interleaved four ways: 8!/(2!·2!·2!·2!) = 2520 schedules.
        assert_eq!(stats.schedules, 2520);
    }

    #[test]
    fn checker_catches_lost_half_open_probe() {
        // One failure trips the breaker; after a tick the probe succeeds,
        // but the buggy on_success leaves the probe flag flying.
        let model = BreakerModel::with_lost_probe(
            1,
            vec![vec![Attempt { fails: true }, Attempt { fails: false }]],
            1,
        );
        let err = explore(&model, 2_000_000).expect_err("lost probe must be caught");
        assert!(err.message.contains("probe"), "unexpected violation: {err}");
    }

    #[test]
    fn checker_catches_stuck_open_breaker() {
        let model = BreakerModel::with_stuck_open(
            1,
            vec![vec![Attempt { fails: true }, Attempt { fails: false }]],
            1,
        );
        let err = explore(&model, 2_000_000).expect_err("stuck open must be caught");
        assert!(err.message.contains("stuck open"), "{err}");
    }

    #[test]
    fn router_churn_model_has_exactly_one_reply_per_request() {
        let model = RouterModel::new(2, vec![0, 1], vec![KillerOp::Kill(0), KillerOp::Revive(0)]);
        let stats = explore(&model, 20_000_000).expect("no invariant failures");
        assert!(
            stats.schedules > 100,
            "expected a real schedule space, got {}",
            stats.schedules
        );
    }

    #[test]
    fn router_total_outage_model_answers_every_client() {
        let model = RouterModel::new(
            2,
            vec![0, 1],
            vec![KillerOp::Kill(0), KillerOp::Kill(1), KillerOp::Revive(1)],
        );
        let stats = explore(&model, 20_000_000).expect("no invariant failures");
        assert!(stats.schedules > 100);
    }

    #[test]
    fn checker_catches_requests_dropped_mid_flight() {
        let err = explore(
            &RouterModel::with_dropped_in_flight(2, vec![0], vec![KillerOp::Kill(0)]),
            2_000_000,
        )
        .expect_err("swallowed in-flight failure must be caught");
        // The client waits on a reply that never comes: the checker must
        // report the blocked schedule as a deadlock.
        assert!(
            err.message.contains("deadlock"),
            "unexpected violation: {err}"
        );
    }

    #[test]
    fn checker_catches_reply_then_failover_double_completion() {
        let err = explore(
            &RouterModel::with_reply_then_failover(
                2,
                vec![0],
                vec![KillerOp::Kill(0), KillerOp::Revive(1)],
            ),
            2_000_000,
        )
        .expect_err("reply-then-failover must be caught");
        assert!(err.message.contains("double completion"), "{err}");
    }

    #[test]
    fn swap_model_serves_only_consistent_pairs() {
        let model = SwapModel::new(2, vec![2, 1]);
        let stats = explore(&model, 20_000_000).expect("no invariant failures");
        assert!(
            stats.schedules > 100,
            "expected a real schedule space, got {}",
            stats.schedules
        );
    }

    #[test]
    fn swap_model_survives_swap_chains() {
        // Re-installing the boot version first is a no-op; the chain then
        // walks forward twice and ends back on v1.
        let model = SwapModel::new(1, vec![1, 2, 3, 1]);
        let stats = explore(&model, 20_000_000).expect("no invariant failures");
        assert!(stats.schedules > 10);
    }

    #[test]
    fn checker_catches_swap_dropping_queued_requests() {
        let err = explore(&SwapModel::with_dropped_in_flight(2, vec![2]), 2_000_000)
            .expect_err("queue-clearing swap must be caught");
        assert!(
            err.message.contains("deadlock") || err.message.contains("lost response"),
            "unexpected violation: {err}"
        );
    }

    #[test]
    fn checker_catches_half_swapped_reads() {
        let err = explore(&SwapModel::with_torn_read(1, vec![2]), 2_000_000)
            .expect_err("torn slot read must be caught");
        assert!(err.message.contains("half-swapped"), "{err}");
    }

    #[test]
    fn model_suite_runs_clean() {
        let suite = run_model_suite().expect("suite clean");
        assert_eq!(suite.len(), 7);
        for (name, stats) in suite {
            assert!(stats.schedules > 0, "{name} explored nothing");
        }
    }
}
