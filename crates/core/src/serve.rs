//! A concurrent planning service over a trained [`MtmlfQo`].
//!
//! [`PlannerService`] turns the single-threaded facade into something a DBMS
//! process can call from many session threads at once:
//!
//! * **Plan cache** — responses are memoized in a sharded LRU keyed by the
//!   canonical [`QueryFingerprint`], so a repeated query (even with its
//!   tables, joins, or predicates written in a different order) is answered
//!   without touching the model.
//! * **Caller-runs planning** — a cache miss is planned on the calling
//!   thread, one model pass for that one query
//!   ([`crate::batch::plan_traced`]), the way a classical optimizer runs
//!   inside the session that asked. The service starts no thread.
//!   Concurrent misses of the same query each run a pass; the later one
//!   overwrites the earlier one's identical cache entry.
//! * **Fault tolerance** — the degradation ladder of DESIGN.md §9:
//!   per-request **deadlines** ([`PlanRequest::with_deadline`]), bounded
//!   **retry** with deterministic backoff for transient errors, a
//!   **circuit breaker** over the model path, a classical-optimizer
//!   **fallback** ([`FallbackPlanner`], reported as
//!   [`PlanSource::Fallback`]), and **admission control** that sheds load
//!   with [`MtmlfError::Overloaded`] when
//!   [`ServiceConfig::max_in_flight`] misses are already being planned. A
//!   model failure never becomes a query failure when a fallback is
//!   configured.
//!
//! Model-path responses are bitwise identical to calling
//! [`MtmlfQo::plan_with_estimates`] directly — a miss runs the same
//! arithmetic, and the cache only replays stored model output. Fallback
//! responses are the deterministic DP optimum of `mtmlf-optd` and are never
//! cached (the cache stores model output only).

use crate::batch::plan_traced;
pub use crate::client::{PlanClient, PlanPayload, PlanRequest, PlanResponse, PlanSource};
use crate::durable::{DurableConfig, PlanStore};
use crate::error::MtmlfError;
use crate::lifecycle::{ModelRegistry, ModelSlot, ModelVersion, SwapOutcome};
use crate::metrics::MetricsSnapshot;
use crate::model::MtmlfQo;
#[cfg(any(test, feature = "fault-injection"))]
use crate::resilience::FaultPlan;
use crate::resilience::{
    is_transient, Admission, BreakerState, CircuitBreaker, FallbackPlanner, RetryPolicy,
};
use crate::trace::{
    RequestTrace, Stage, StageRecorder, TraceBuilder, TraceConfig, TraceOutcome, Tracer,
};
use crate::Result;
use mtmlf_query::{fingerprint, Query, QueryFingerprint};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tuning knobs for [`ServiceBuilder::start`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Has no effect: cache misses are planned on the calling thread, so
    /// the service has no worker threads to size. Kept only because the
    /// benchmark under `perfbench/` still sets it; it is removed together
    /// with the benchmark change of ROADMAP.md item 2.
    #[deprecated(note = "has no effect: cache misses are planned on the calling thread")]
    pub workers: usize,
    /// Plan-cache entries across all shards; `0` disables caching.
    pub cache_capacity: usize,
    /// Cache shard count (lock-contention granularity).
    pub cache_shards: usize,
    /// Bound on cache misses being planned at once (≥ 1). A miss beyond
    /// it fails fast with [`MtmlfError::Overloaded`] instead of adding
    /// one more model pass to a saturated host.
    pub max_in_flight: usize,
    /// Deadline applied to requests that do not carry their own.
    /// `None` means such requests wait indefinitely.
    pub default_deadline: Option<Duration>,
    /// Retry policy for transient model-path errors.
    pub retry: RetryPolicy,
    /// Circuit breaker over the model path (threshold, cool-down, clock).
    pub breaker: crate::resilience::BreakerConfig,
}

#[allow(deprecated)] // `workers` still needs a value
impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            cache_capacity: 1024,
            cache_shards: 8,
            max_in_flight: 1024,
            default_deadline: None,
            retry: RetryPolicy::default(),
            breaker: crate::resilience::BreakerConfig::default(),
        }
    }
}

impl ServiceConfig {
    fn validate(&self) -> Result<()> {
        if self.max_in_flight == 0 {
            return Err(MtmlfError::InvalidConfig(
                "max_in_flight must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Power-of-two latency histogram: bucket `i` counts samples whose latency
/// in nanoseconds lies in `[2^i, 2^(i+1))` (bucket 0 also holds 0 ns).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Per-bucket sample counts.
    pub buckets: [u64; 32],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded latencies, in nanoseconds.
    pub total_nanos: u64,
    /// Largest single sample recorded, in nanoseconds (`0` when empty or
    /// when the histogram was assembled from buckets alone).
    pub max_nanos: u64,
}

impl LatencyHistogram {
    /// Records one sample. The service's hot path records through atomic
    /// mirrors instead; this is for snapshot builders and tests.
    pub fn record_nanos(&mut self, nanos: u64) {
        self.buckets[Self::bucket(nanos)] += 1;
        self.count += 1;
        self.total_nanos = self.total_nanos.saturating_add(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Mean latency over all samples (zero when empty).
    pub fn mean(&self) -> Duration {
        Duration::from_nanos(self.total_nanos.checked_div(self.count).unwrap_or(0))
    }

    /// Upper-bound estimate of the `q`-quantile (e.g. `0.99`): the upper
    /// edge of the first bucket at which the cumulative count reaches it,
    /// capped at the true maximum. At `q = 1.0` this *is* the true maximum
    /// (when one was recorded), not a bucket edge — a power-of-two edge can
    /// overstate the worst case by almost 2x.
    ///
    /// Returns [`Duration::ZERO`] on an empty histogram; use
    /// [`Self::try_quantile`] to distinguish "no samples" from a genuine
    /// zero-latency quantile.
    pub fn quantile(&self, q: f64) -> Duration {
        self.try_quantile(q).unwrap_or(Duration::ZERO)
    }

    /// [`Self::quantile`], but `None` when no samples have been recorded —
    /// an empty histogram has no quantiles, and dashboards that plot the
    /// raw value would otherwise render a phantom bucket bound.
    pub fn try_quantile(&self, q: f64) -> Option<Duration> {
        if self.count == 0 {
            return None;
        }
        if q >= 1.0 && self.max_nanos > 0 {
            return Some(Duration::from_nanos(self.max_nanos));
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                let edge = 1u64 << (i + 1).min(63);
                // Bucket-edge estimate, except it can never exceed the
                // recorded maximum.
                let capped = if self.max_nanos > 0 {
                    edge.min(self.max_nanos)
                } else {
                    edge
                };
                return Some(Duration::from_nanos(capped));
            }
        }
        // Reachable only for hand-assembled histograms whose `count`
        // exceeds the bucket sum; answer with the most honest bound we
        // have instead of a sentinel that reads as a 584-year latency.
        Some(if self.max_nanos > 0 {
            Duration::from_nanos(self.max_nanos)
        } else {
            Duration::from_nanos(1u64 << 32)
        })
    }

    /// The bucket index covering a sample of `nanos`.
    pub fn bucket(nanos: u64) -> usize {
        (63 - nanos.max(1).leading_zeros() as usize).min(31)
    }
}

/// The atomic mirror of [`LatencyHistogram`]: many threads record into
/// it at once with relaxed atomics, and [`AtomicHistogram::snapshot`]
/// reads it back. Each field is individually exact; see
/// [`crate::metrics`] for the consistency guarantee.
#[derive(Debug, Default)]
pub(crate) struct AtomicHistogram {
    buckets: [AtomicU64; 32],
    count: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl AtomicHistogram {
    /// Records one sample.
    pub(crate) fn record_nanos(&self, nanos: u64) {
        self.buckets[LatencyHistogram::bucket(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// A point-in-time copy.
    pub(crate) fn snapshot(&self) -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            total_nanos: self.total_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
        }
    }
}

/// The service's counters. Responses by source are the sample counts of
/// their latency histograms.
#[derive(Default)]
struct MetricsInner {
    requests: AtomicU64,
    errors: AtomicU64,
    timeouts: AtomicU64,
    sheds: AtomicU64,
    expired: AtomicU64,
    retries: AtomicU64,
    batches: AtomicU64,
    batched_queries: AtomicU64,
    swaps: AtomicU64,
    swap_rejections: AtomicU64,
    cache_latency: AtomicHistogram,
    model_latency: AtomicHistogram,
    fallback_latency: AtomicHistogram,
}

impl MetricsInner {
    fn record(&self, source: PlanSource, latency: Duration) {
        let latencies = match source {
            PlanSource::Cache => &self.cache_latency,
            PlanSource::Model => &self.model_latency,
            PlanSource::Fallback => &self.fallback_latency,
        };
        latencies.record_nanos(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let cache_latency = self.cache_latency.snapshot();
        let model_latency = self.model_latency.snapshot();
        let fallback_latency = self.fallback_latency.snapshot();
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: cache_latency.count,
            model_plans: model_latency.count,
            fallbacks: fallback_latency.count,
            errors: self.errors.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_queries: self.batched_queries.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            swap_rejections: self.swap_rejections.load(Ordering::Relaxed),
            cache_latency,
            model_latency,
            fallback_latency,
            // Gauges (breaker, cache occupancy, misses in flight, tracing) are
            // filled in by `PlannerService::metrics`.
            ..MetricsSnapshot::default()
        }
    }
}

/// A thread-safe planning service: shared plan cache, caller-runs model
/// path, and the fault-tolerance ladder of DESIGN.md §9. See the
/// [module docs](self) for the architecture.
///
/// # Example
///
/// ```no_run
/// use std::sync::Arc;
/// use std::time::Duration;
/// use mtmlf::prelude::*;
/// use mtmlf::serve::ServiceConfig;
///
/// # fn demo(model: MtmlfQo, db: Arc<mtmlf_storage::Database>, query: Query) -> mtmlf::Result<()> {
/// let service = PlannerService::builder(Arc::new(model))
///     .fallback(FallbackPlanner::new(db))
///     .tracing(TraceConfig::default())
///     .config(ServiceConfig {
///         default_deadline: Some(Duration::from_millis(50)),
///         ..ServiceConfig::default()
///     })
///     .start()?;
/// // Callable from any number of threads:
/// let response = service.plan(PlanRequest::new(query).with_deadline(Duration::from_millis(10)))?;
/// println!(
///     "order {:?} card {:.0} cost {:.0} via {:?} in {:?}",
///     response.join_order, response.est_card, response.est_cost,
///     response.source, response.latency,
/// );
/// println!("hit rate {:.2}", service.metrics().cache_hit_rate());
/// print!("{}", service.render_prometheus());
/// # Ok(())
/// # }
/// ```
pub struct PlannerService {
    /// The model swap point; a miss resolves a model from it once, so one
    /// request is planned by one version from start to end.
    slot: ModelSlot,
    cache: Arc<PlanStore>,
    metrics: MetricsInner,
    breaker: CircuitBreaker,
    fallback: Option<FallbackPlanner>,
    retry: RetryPolicy,
    tracer: Option<Tracer>,
    default_deadline: Option<Duration>,
    max_in_flight: usize,
    /// Cache misses between admission and their reply: the admission
    /// count, the `in_flight` gauge, and what shutdown waits on.
    in_flight: AtomicUsize,
    /// Set once by [`PlannerService::shutdown`]; every later request is
    /// refused.
    closed: AtomicBool,
    /// Where shutdown sleeps until `in_flight` reaches zero.
    idle: (Mutex<()>, Condvar),
    #[cfg(any(test, feature = "fault-injection"))]
    faults: Option<FaultPlan>,
}

/// Configures and starts a [`PlannerService`]; from
/// [`PlannerService::builder`].
///
/// ```no_run
/// # use std::sync::Arc;
/// # use mtmlf::prelude::*;
/// # fn demo(model: Arc<MtmlfQo>, fallback: FallbackPlanner) -> mtmlf::Result<()> {
/// let service = PlannerService::builder(model)
///     .config(ServiceConfig::default())
///     .fallback(fallback)
///     .tracing(TraceConfig::default())
///     .start()?;
/// # drop(service); Ok(())
/// # }
/// ```
#[must_use = "a builder does nothing until `.start()`"]
pub struct ServiceBuilder {
    model: Arc<MtmlfQo>,
    model_version: ModelVersion,
    config: ServiceConfig,
    fallback: Option<FallbackPlanner>,
    tracing: Option<TraceConfig>,
    durable: Option<DurableConfig>,
    #[cfg(any(test, feature = "fault-injection"))]
    faults: Option<FaultPlan>,
}

impl ServiceBuilder {
    fn new(model: Arc<MtmlfQo>) -> Self {
        Self {
            model,
            model_version: ModelVersion::default(),
            config: ServiceConfig::default(),
            fallback: None,
            tracing: None,
            durable: None,
            #[cfg(any(test, feature = "fault-injection"))]
            faults: None,
        }
    }

    /// Labels the boot model with a registry version (defaults to `v0`,
    /// the unregistered boot version). Hot swaps are idempotent on
    /// version, so starting from the version the model was published
    /// under makes a redundant swap of the same snapshot a no-op.
    pub fn model_version(mut self, version: ModelVersion) -> Self {
        self.model_version = version;
        self
    }

    /// Replaces the [`ServiceConfig`] (defaults to
    /// `ServiceConfig::default()`).
    pub fn config(mut self, config: ServiceConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the classical fallback planner that answers when the model path
    /// fails or the breaker is open. Accepts a [`FallbackPlanner`] or an
    /// `Option` of one (handy when it is itself configurable).
    pub fn fallback(mut self, fallback: impl Into<Option<FallbackPlanner>>) -> Self {
        self.fallback = fallback.into();
        self
    }

    /// Enables plan-lifecycle tracing ([`crate::trace`]): per-stage latency
    /// histograms plus a ring buffer of complete request traces. Off by
    /// default; when off the service holds no tracer and pays no tracing
    /// cost.
    pub fn tracing(mut self, tracing: TraceConfig) -> Self {
        self.tracing = Some(tracing);
        self
    }

    /// Makes the plan cache durable under `dir` with the default policy
    /// (see [`DurableConfig::new`]): every cache mutation is mirrored to a
    /// write-behind log, and `.start()` warm-starts the cache from
    /// whatever a previous service persisted there (DESIGN.md §16).
    pub fn durable(self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.durable_config(DurableConfig::new(dir))
    }

    /// Like [`ServiceBuilder::durable`] with full control over the
    /// compaction threshold, write-behind buffer, and record clock.
    pub fn durable_config(mut self, config: DurableConfig) -> Self {
        self.durable = Some(config);
        self
    }

    /// Consults `faults` before every model forward — the chaos-test entry
    /// point. Test/feature-gated; release builds have no fault-injection
    /// code at all.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Validates the config, opens the plan cache (recovering a durable
    /// one), and returns the running service.
    pub fn start(self) -> Result<PlannerService> {
        let Self {
            model,
            model_version,
            config,
            fallback,
            tracing,
            durable,
            #[cfg(any(test, feature = "fault-injection"))]
            faults,
        } = self;
        config.validate()?;
        let cache = Arc::new(match &durable {
            // Durable mode: recover the directory and warm-start the
            // cache before the first request arrives.
            Some(durable) => PlanStore::open(config.cache_capacity, config.cache_shards, durable)?,
            None => PlanStore::in_memory(config.cache_capacity, config.cache_shards),
        });
        Ok(PlannerService {
            slot: ModelSlot::with_version(model, model_version),
            cache,
            metrics: MetricsInner::default(),
            breaker: CircuitBreaker::new(config.breaker),
            fallback,
            retry: config.retry,
            tracer: tracing.map(|t| Tracer::new(&t)),
            default_deadline: config.default_deadline,
            max_in_flight: config.max_in_flight,
            in_flight: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            idle: (Mutex::new(()), Condvar::new()),
            #[cfg(any(test, feature = "fault-injection"))]
            faults,
        })
    }
}

/// One cache miss counted in [`PlannerService::in_flight`] for as long as
/// it lives. Dropping the last one after shutdown has begun wakes the
/// shutdown.
struct InFlight<'a> {
    service: &'a PlannerService,
    /// Misses already in flight when this one was counted.
    ahead: usize,
}

impl<'a> InFlight<'a> {
    fn enter(service: &'a PlannerService) -> Self {
        let ahead = service.in_flight.fetch_add(1, Ordering::SeqCst);
        Self { service, ahead }
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let s = self.service;
        if s.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 && s.closed.load(Ordering::SeqCst) {
            // Notify under the lock: shutdown reads the count and starts
            // waiting while holding it, so the wake-up cannot fall between.
            let _guard = s.idle.0.lock().unwrap_or_else(PoisonError::into_inner);
            s.idle.1.notify_all();
        }
    }
}

impl PlannerService {
    /// Starts configuring a service over `model`; finish with
    /// [`ServiceBuilder::start`]. Dropping the started service shuts it
    /// down (see [`PlannerService::shutdown`]).
    pub fn builder(model: Arc<MtmlfQo>) -> ServiceBuilder {
        ServiceBuilder::new(model)
    }

    /// Plans one query, from cache when possible, otherwise with one model
    /// pass on the calling thread. Safe to call concurrently from many
    /// threads.
    ///
    /// Every call returns exactly one result: a [`PlanResponse`] (cached,
    /// modeled, or fallback) or a typed error ([`MtmlfError::Timeout`],
    /// [`MtmlfError::Overloaded`], [`MtmlfError::Service`], or the model's
    /// own error). The chaos suite asserts this under injected faults.
    ///
    /// Deadlines are checked before the forward and after it, the
    /// [`PlanClient`] contract: a miss whose deadline has already passed
    /// is never planned (counted as `expired`), and a forward that overruns
    /// the deadline returns [`MtmlfError::Timeout`] when it ends. Its model
    /// output is still cached, so the next request for the query hits.
    pub fn plan(&self, request: impl Into<PlanRequest>) -> Result<PlanResponse> {
        let PlanRequest {
            query,
            deadline,
            trace: trace_pref,
        } = request.into();
        let start = Instant::now();
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        // Open the trace at admission, stamping breaker state and misses in
        // flight as the operator would have seen them. `trace: Some(false)`
        // opts the request out even on a tracing service; `Some(true)` is a
        // no-op without a tracer.
        let mut trace = if trace_pref.unwrap_or(true) {
            self.tracer
                .as_ref()
                .map(|t| t.begin(self.breaker.state(), self.in_flight.load(Ordering::Relaxed)))
        } else {
            None
        };
        // Saturating: a deadline too large to represent is no deadline.
        let deadline = deadline
            .or(self.default_deadline)
            .and_then(|d| start.checked_add(d));
        let past = || deadline.is_some_and(|d| d <= Instant::now());

        // A shut-down service answers nothing, not even hits.
        if self.closed.load(Ordering::SeqCst) {
            return self.fail(trace, TraceOutcome::Error, shut_down());
        }
        let mut untraced = StageRecorder::disabled();
        let recorder = match trace.as_mut() {
            Some(tb) => tb.recorder(),
            None => &mut untraced,
        };
        let fp = recorder.timed(Stage::Fingerprint, || fingerprint(&query));
        if let Some(hit) = recorder.timed(Stage::CacheLookup, || self.cache.get(&fp)) {
            self.finish_trace(trace, TraceOutcome::Served(PlanSource::Cache));
            return Ok(self.respond(hit, PlanSource::Cache, start));
        }

        // Admission. The miss is counted before it reads `closed`, so a
        // shutdown that set the flag after this read waits for the count
        // to drain and cannot flush ahead of this plan's cache insert.
        let in_flight = InFlight::enter(self);
        if self.closed.load(Ordering::SeqCst) {
            return self.fail(trace, TraceOutcome::Error, shut_down());
        }
        if in_flight.ahead >= self.max_in_flight {
            self.metrics.sheds.fetch_add(1, Ordering::Relaxed);
            return self.fail(trace, TraceOutcome::Shed, MtmlfError::Overloaded);
        }
        // A miss already past its deadline would spend a model pass on an
        // answer nobody waits for.
        if past() {
            self.metrics.expired.fetch_add(1, Ordering::Relaxed);
            self.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
            return self.fail(trace, TraceOutcome::Expired, MtmlfError::Timeout);
        }

        self.metrics.batches.fetch_add(1, Ordering::Relaxed);
        self.metrics.batched_queries.fetch_add(1, Ordering::Relaxed);
        // Resolve the model once: a concurrent hot swap can never split one
        // request's retries across versions.
        let (model, _) = self.slot.active();
        // A panicking forward (an injected fault, or a bug) costs its
        // caller one `Service` error, not the session thread.
        let outcome = catch_unwind(AssertUnwindSafe(|| self.plan_one(&model, &query, recorder)))
            .unwrap_or_else(|_| Err(MtmlfError::Service("planning panicked".into())));

        match outcome {
            Ok((plan, source)) => {
                // Cache model output only: fallback plans are cheap to
                // recompute and must stop being served the moment the
                // model path recovers.
                if source == PlanSource::Model {
                    self.cache.insert(fp, plan.clone());
                }
                if past() {
                    self.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                    return self.fail(trace, TraceOutcome::Error, MtmlfError::Timeout);
                }
                if let Some(tb) = trace.as_mut().filter(|_| source == PlanSource::Model) {
                    tb.set_est_card(plan.est_card);
                }
                self.finish_trace(trace, TraceOutcome::Served(source));
                Ok(self.respond(plan, source, start))
            }
            Err(e) => self.fail(trace, TraceOutcome::Error, e),
        }
    }

    fn respond(&self, plan: PlanPayload, source: PlanSource, start: Instant) -> PlanResponse {
        let latency = start.elapsed();
        self.metrics.record(source, latency);
        PlanResponse {
            join_order: plan.join_order,
            est_card: plan.est_card,
            est_cost: plan.est_cost,
            source,
            latency,
        }
    }

    /// Counts an error response, completes its trace, and returns it.
    fn fail(
        &self,
        trace: Option<TraceBuilder>,
        outcome: TraceOutcome,
        error: MtmlfError,
    ) -> Result<PlanResponse> {
        self.metrics.errors.fetch_add(1, Ordering::Relaxed);
        self.finish_trace(trace, outcome);
        Err(error)
    }

    /// Completes a request's trace; runs before the caller has its answer,
    /// so a caller that has one is guaranteed to find the complete trace.
    fn finish_trace(&self, trace: Option<TraceBuilder>, outcome: TraceOutcome) {
        if let (Some(tracer), Some(tb)) = (&self.tracer, trace) {
            tb.finish(tracer, outcome);
        }
    }

    /// The fault-injection hook ahead of a model forward: `inject` sleeps
    /// through latency spikes, panics for a crash simulation, and returns
    /// Err for an injected forward failure. Always `Ok` in builds without
    /// fault injection.
    fn inject_fault(&self) -> Result<()> {
        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(faults) = &self.faults {
            return faults.inject();
        }
        Ok(())
    }

    /// Runs the degradation ladder for one query: breaker admission → model
    /// forward with bounded retry → classical fallback when the model path
    /// could not answer. Every stage span, the fallback's included, lands in
    /// `recorder`.
    fn plan_one(
        &self,
        model: &MtmlfQo,
        query: &Query,
        recorder: &mut StageRecorder,
    ) -> Result<(PlanPayload, PlanSource)> {
        // `None` when the breaker rejected the query: the model was never
        // asked. Every attempt's outcome (success or failure) is reported to
        // the breaker — a transient failure that will be retried is still
        // evidence the model path is unhealthy.
        let model_err = if self.breaker.try_acquire() == Admission::Rejected {
            None
        } else {
            let mut attempt: u32 = 0;
            loop {
                // The fault-injection hook runs ahead of every model pass.
                match self
                    .inject_fault()
                    .and_then(|()| plan_traced(model, query, recorder))
                {
                    Ok(planned) => {
                        self.breaker.on_success();
                        let plan = PlanPayload::new(
                            planned.join_order,
                            planned.est_card,
                            planned.est_cost,
                        );
                        return Ok((plan, PlanSource::Model));
                    }
                    Err(e) => {
                        self.breaker.on_failure();
                        if !is_transient(&e) || attempt >= self.retry.max_retries {
                            break Some(e);
                        }
                        self.metrics.retries.fetch_add(1, Ordering::Relaxed);
                        recorder.timed(Stage::Retry, || {
                            std::thread::sleep(self.retry.backoff(attempt))
                        });
                        attempt += 1;
                    }
                }
            }
        };

        let Some(fallback) = &self.fallback else {
            return Err(model_err.unwrap_or_else(|| {
                MtmlfError::Service(
                    "circuit breaker open and no fallback planner configured".into(),
                )
            }));
        };
        match recorder.timed(Stage::Fallback, || fallback.plan(query)) {
            Ok((join_order, est_card, est_cost)) => Ok((
                PlanPayload::new(join_order, est_card, est_cost),
                PlanSource::Fallback,
            )),
            // The ladder ran dry: surface the model's error when there is one
            // (it names the primary path), otherwise the fallback's.
            Err(fb_err) => Err(model_err.unwrap_or(fb_err)),
        }
    }

    /// A point-in-time snapshot of the service counters, latency
    /// histograms, and gauges. See [`crate::metrics`] for the consistency
    /// guarantee.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = self.metrics.snapshot();
        m.breaker_opens = self.breaker.times_opened();
        m.breaker_state = self.breaker.state();
        m.cached_plans = self.cache.len() as u64;
        m.warm_start_entries = self.cache.warm_start_entries();
        m.log_compactions = self.cache.log_compactions();
        m.in_flight = self.in_flight.load(Ordering::Relaxed) as u64;
        m.model_version = self.slot.version().0;
        if let Some(tracer) = &self.tracer {
            m.tracing_enabled = true;
            m.traces = tracer.completed();
            m.stage_latency = tracer.stage_histograms();
        }
        m
    }

    /// The last N complete request traces, oldest first (empty when the
    /// service was built without `.tracing(..)`).
    pub fn traces(&self) -> Vec<RequestTrace> {
        self.tracer.as_ref().map(|t| t.recent()).unwrap_or_default()
    }

    /// Renders [`PlannerService::metrics`] in the Prometheus text
    /// exposition format ([`crate::metrics::render_prometheus`]).
    pub fn render_prometheus(&self) -> String {
        crate::metrics::render_prometheus(&self.metrics())
    }

    /// The circuit breaker's current state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Entries currently held by the plan cache.
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }

    /// Seeds the plan cache with a payload computed elsewhere. The cluster
    /// layer calls this when a peer replica gossips a freshly computed plan
    /// so the next local request for `fp` is a cache hit.
    pub fn warm(&self, fp: QueryFingerprint, payload: PlanPayload) {
        self.cache.insert(fp, payload);
    }

    /// Drops the cached plan for `fp`, returning `true` when an entry was
    /// removed. The cluster layer's invalidation protocol fans this out to
    /// every replica so a stale plan stops being served anywhere.
    pub fn invalidate(&self, fp: &QueryFingerprint) -> bool {
        self.cache.remove(fp).is_some()
    }

    /// Peeks the plan cache without planning. Used by the cluster layer to
    /// source warm-gossip payloads and by tests to observe cache state.
    pub fn cached_payload(&self, fp: &QueryFingerprint) -> Option<PlanPayload> {
        self.cache.get(fp)
    }

    // --- Model lifecycle (see `crate::lifecycle` and DESIGN.md §14) ---

    /// The active model version.
    pub fn model_version(&self) -> ModelVersion {
        self.slot.version()
    }

    /// Atomically hot-swaps `candidate` in as the active model. Misses in
    /// flight finish on the version they read; later misses plan with
    /// `candidate`; no request is dropped. On a real swap the plan cache is
    /// cleared (its entries belong to the displaced version) and the
    /// displaced model is freed once no miss holds it. Idempotent on
    /// `version`. To roll back, re-adopt the older version from the
    /// registry with [`PlannerService::adopt_version`].
    pub fn swap_model(&self, candidate: Arc<MtmlfQo>, version: ModelVersion) -> SwapOutcome {
        let outcome = self.slot.swap(candidate, version);
        if matches!(outcome, SwapOutcome::Swapped { .. }) {
            self.cache.clear();
            self.metrics.swaps.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// Loads `version` from `registry` into `fresh` — a freshly
    /// constructed model that must not alias the live one — and swaps it
    /// in. A corrupt or truncated snapshot is rejected before any
    /// parameter is touched: the live model keeps serving, the candidate
    /// is never promoted, and the `swap_rejected` metric records the
    /// attempt.
    pub fn adopt_version(
        &self,
        registry: &ModelRegistry,
        version: ModelVersion,
        mut fresh: MtmlfQo,
    ) -> Result<SwapOutcome> {
        match registry.load_into(version, &mut fresh) {
            Ok(()) => Ok(self.swap_model(Arc::new(fresh), version)),
            Err(e) => {
                self.metrics.swap_rejections.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// The [`PlanStore`] backing this service's cache: warm-start and
    /// compaction counters, explicit [`PlanStore::compact`] /
    /// [`PlanStore::flush`], and (in tests) compaction kill points.
    pub fn plan_store(&self) -> &Arc<PlanStore> {
        &self.cache
    }

    /// Stops accepting requests, waits for the misses in flight, then
    /// flushes the plan cache's write-behind log.
    ///
    /// Graceful by construction: a miss admitted before the close is still
    /// planned, its caller gets its reply, and its model output is cached
    /// before the flush, so a durable service reopened on the same
    /// directory warm-starts with it. `plan` calls that arrive after
    /// shutdown return [`MtmlfError::Service`]. Idempotent and safe to call
    /// concurrently with `plan` from any number of threads.
    pub fn shutdown(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let (lock, drained) = &self.idle;
        let mut guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
        while self.in_flight.load(Ordering::SeqCst) > 0 {
            guard = drained.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
        drop(guard);
        self.cache.flush();
    }
}

fn shut_down() -> MtmlfError {
    MtmlfError::Service("planner service is shut down".into())
}

impl Drop for PlannerService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl PlanClient for PlannerService {
    fn plan(&self, request: PlanRequest) -> Result<PlanResponse> {
        PlannerService::plan(self, request)
    }
}

/// The single-threaded facade speaks the same client vocabulary: no cache,
/// no breaker — every request runs one model forward inline on the calling
/// thread and reports [`PlanSource::Model`].
///
/// Deadlines are checked after the forward (the facade cannot interrupt a
/// running forward): a request whose budget was exceeded by the time the
/// plan is ready gets [`MtmlfError::Timeout`], keeping the [`PlanClient`]
/// deadline contract — a caller never receives a response later than it
/// agreed to wait.
impl PlanClient for MtmlfQo {
    fn plan(&self, request: PlanRequest) -> Result<PlanResponse> {
        let start = Instant::now();
        let (join_order, est_card, est_cost) = self.plan_with_estimates(&request.query)?;
        let latency = start.elapsed();
        if let Some(deadline) = request.deadline {
            if latency > deadline {
                return Err(MtmlfError::Timeout);
            }
        }
        Ok(PlanResponse::from_payload(
            PlanPayload::new(join_order, est_card, est_cost),
            PlanSource::Model,
            latency,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{BreakerConfig, Clock, ManualClock};
    use crate::MtmlfConfig;
    use mtmlf_datagen::{generate_queries, imdb::ImdbScale, imdb_lite, WorkloadConfig};
    use mtmlf_storage::Database;

    fn setup() -> (Arc<MtmlfQo>, Arc<Database>, Vec<Query>) {
        let mut db = imdb_lite(41, ImdbScale { scale: 0.02 }).unwrap();
        db.analyze_all(8, 4);
        let cfg = MtmlfConfig {
            enc_queries: 10,
            enc_epochs: 1,
            seed: 41,
            ..MtmlfConfig::tiny()
        };
        let queries = generate_queries(
            &db,
            &WorkloadConfig {
                count: 5,
                max_tables: 4,
                ..WorkloadConfig::default()
            },
            11,
        );
        let model = MtmlfQo::new(&db, cfg).expect("build model");
        (Arc::new(model), Arc::new(db), queries)
    }

    /// A breaker config on a manual clock so tests control the cool-down.
    fn manual_breaker(threshold: u32) -> (BreakerConfig, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        (
            BreakerConfig {
                failure_threshold: threshold,
                cooldown: Duration::from_millis(100),
                clock: Arc::clone(&clock) as Arc<dyn Clock>,
            },
            clock,
        )
    }

    #[test]
    fn serves_plans_and_caches_repeats() {
        let (model, _db, queries) = setup();
        let service = PlannerService::builder(Arc::clone(&model))
            .start()
            .expect("start service");
        for query in &queries {
            let cold = service.plan(query.clone()).expect("cold plan");
            assert_eq!(cold.source, PlanSource::Model);
            cold.join_order.validate(query).expect("legal order");
            let (order, card, cost) = model.plan_with_estimates(query).expect("direct");
            assert_eq!(cold.join_order, order);
            assert_eq!(cold.est_card.to_bits(), card.to_bits());
            assert_eq!(cold.est_cost.to_bits(), cost.to_bits());

            let warm = service.plan(query.clone()).expect("warm plan");
            assert_eq!(warm.source, PlanSource::Cache);
            assert_eq!(warm.join_order, cold.join_order);
            assert_eq!(warm.est_card.to_bits(), cold.est_card.to_bits());
        }
        let m = service.metrics();
        assert_eq!(m.requests, 2 * queries.len() as u64);
        assert_eq!(m.cache_hits, queries.len() as u64);
        assert_eq!(m.model_plans, queries.len() as u64);
        assert!(m.cache_latency.mean() > Duration::ZERO);
        assert!(m.model_latency.mean() >= m.cache_latency.mean());
        assert_eq!(service.cached_plans(), queries.len());
        assert_eq!(m.fallbacks, 0);
        assert_eq!(m.breaker_opens, 0);
        assert_eq!(service.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn fingerprint_equivalent_queries_share_a_cache_entry() {
        let (model, _db, queries) = setup();
        let service = PlannerService::builder(model)
            .start()
            .expect("start service");
        let query = &queries[0];
        // Same query object twice stands in for any fingerprint-equal pair;
        // fingerprint canonicalization itself is property-tested in mtmlf-query.
        service.plan(query.clone()).expect("cold");
        let again = service.plan(query.clone()).expect("warm");
        assert_eq!(again.source, PlanSource::Cache);
        assert_eq!(service.cached_plans(), 1);
    }

    #[test]
    fn caching_can_be_disabled() {
        let (model, _db, queries) = setup();
        let service = PlannerService::builder(model)
            .config(ServiceConfig {
                cache_capacity: 0,
                ..ServiceConfig::default()
            })
            .start()
            .expect("start service");
        let query = &queries[0];
        let a = service.plan(query.clone()).expect("first");
        let b = service.plan(query.clone()).expect("second");
        assert_eq!(a.source, PlanSource::Model);
        assert_eq!(b.source, PlanSource::Model);
        assert_eq!(service.metrics().cache_hits, 0);
        assert_eq!(service.cached_plans(), 0);
    }

    #[test]
    fn rejects_invalid_service_config() {
        let (model, _db, _) = setup();
        let err = PlannerService::builder(model)
            .config(ServiceConfig {
                max_in_flight: 0,
                ..ServiceConfig::default()
            })
            .start();
        assert!(matches!(err, Err(MtmlfError::InvalidConfig(_))));
    }

    #[test]
    fn histogram_bucketing_and_quantiles() {
        assert_eq!(LatencyHistogram::bucket(0), 0);
        assert_eq!(LatencyHistogram::bucket(1), 0);
        assert_eq!(LatencyHistogram::bucket(2), 1);
        assert_eq!(LatencyHistogram::bucket(1024), 10);
        assert_eq!(LatencyHistogram::bucket(u64::MAX), 31);
        let mut h = LatencyHistogram::default();
        for nanos in [100u64, 200, 400, 100_000] {
            h.record_nanos(nanos);
        }
        assert_eq!(h.mean(), Duration::from_nanos(100_700 / 4));
        assert!(h.quantile(0.5) <= Duration::from_nanos(1 << 9));
        assert!(h.quantile(1.0) >= Duration::from_nanos(100_000));
    }

    /// Regression: `quantile(1.0)` used to return the power-of-two bucket
    /// edge above the largest sample (here 131072 ns for a 100000 ns max),
    /// overstating the worst case by up to 2x. It must return the true
    /// recorded maximum, and sub-1.0 quantile edges must be capped by it.
    #[test]
    fn quantile_at_one_returns_the_true_max_not_a_bucket_edge() {
        let mut h = LatencyHistogram::default();
        for nanos in [100u64, 200, 400, 100_000] {
            h.record_nanos(nanos);
        }
        assert_eq!(h.max_nanos, 100_000);
        assert_eq!(h.quantile(1.0), Duration::from_nanos(100_000));
        assert_eq!(h.quantile(2.0), Duration::from_nanos(100_000));
        // 0.99 of 4 samples lands in the top bucket; its edge estimate is
        // capped at the observed max instead of 2^17.
        assert_eq!(h.quantile(0.99), Duration::from_nanos(100_000));

        // A histogram assembled from buckets alone (no recorded max) keeps
        // the conservative bucket-edge behaviour.
        let mut edges_only = LatencyHistogram::default();
        edges_only.buckets[LatencyHistogram::bucket(100_000)] += 1;
        edges_only.count += 1;
        edges_only.total_nanos += 100_000;
        assert_eq!(edges_only.quantile(1.0), Duration::from_nanos(1 << 17));
    }

    /// Regression: an empty histogram used to fall through to a
    /// `u64::MAX`-nanosecond sentinel on some quantiles; empty must mean
    /// `None` from `try_quantile` and a plain zero from `quantile`, at
    /// every `q`.
    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::default();
        for q in [0.0, 0.5, 0.99, 1.0, 2.0, -1.0] {
            assert_eq!(h.try_quantile(q), None, "q={q}");
            assert_eq!(h.quantile(q), Duration::ZERO, "q={q}");
        }
        assert_eq!(h.mean(), Duration::ZERO);

        // One sample flips both surfaces to real values.
        let mut h = h;
        h.record_nanos(700);
        assert!(h.try_quantile(0.5).is_some());
        assert_eq!(h.quantile(1.0), Duration::from_nanos(700));

        // A malformed hand-assembled histogram (count exceeding the bucket
        // sum) answers with a sane bound, never a 584-year sentinel.
        let mut broken = LatencyHistogram {
            count: 5,
            ..LatencyHistogram::default()
        };
        assert!(broken.quantile(0.9) < Duration::from_secs(10));
        broken.max_nanos = 42;
        assert_eq!(broken.quantile(0.9), Duration::from_nanos(42));
    }

    #[test]
    fn retry_recovers_from_one_transient_fault() {
        let (model, _db, queries) = setup();
        let (breaker, _clock) = manual_breaker(100);
        let service = PlannerService::builder(model)
            .config(ServiceConfig {
                breaker,
                retry: RetryPolicy {
                    max_retries: 2,
                    base_backoff: Duration::from_micros(50),
                },
                ..ServiceConfig::default()
            })
            .faults(FaultPlan::new().fail_on(0))
            .start()
            .expect("start service");
        let resp = service.plan(queries[0].clone()).expect("retried plan");
        assert_eq!(resp.source, PlanSource::Model);
        let m = service.metrics();
        assert!(m.retries >= 1, "first forward failed, retry must show");
        assert_eq!(m.fallbacks, 0);
        assert_eq!(service.breaker_state(), BreakerState::Closed);
    }

    #[test]
    fn persistent_faults_trip_breaker_and_fallback_answers() {
        let (model, db, queries) = setup();
        let (breaker, _clock) = manual_breaker(2);
        let service = PlannerService::builder(Arc::clone(&model))
            .fallback(FallbackPlanner::new(Arc::clone(&db)))
            .config(ServiceConfig {
                retry: RetryPolicy {
                    max_retries: 0,
                    ..RetryPolicy::default()
                },
                breaker,
                ..ServiceConfig::default()
            })
            // Every forward fails, deterministically.
            .faults(FaultPlan::seeded(3, 1000))
            .start()
            .expect("start service");
        for query in &queries {
            let resp = service.plan(query.clone()).expect("fallback plan");
            assert_eq!(resp.source, PlanSource::Fallback);
            resp.join_order.validate(query).expect("legal order");
        }
        let m = service.metrics();
        assert_eq!(m.fallbacks, queries.len() as u64);
        assert_eq!(m.model_plans, 0);
        assert!(m.breaker_opens >= 1, "persistent failures must trip");
        assert_eq!(service.breaker_state(), BreakerState::Open);
        // Fallback plans are never cached.
        assert_eq!(service.cached_plans(), 0);
    }

    #[test]
    fn failing_model_without_fallback_returns_typed_errors_and_stays_up() {
        let (model, _db, queries) = setup();
        let (breaker, _clock) = manual_breaker(1);
        let service = PlannerService::builder(model)
            .config(ServiceConfig {
                retry: RetryPolicy {
                    max_retries: 0,
                    ..RetryPolicy::default()
                },
                breaker,
                ..ServiceConfig::default()
            })
            .faults(FaultPlan::seeded(4, 1000))
            .start()
            .expect("start service");
        // First request reaches the model and gets the injected error;
        // later ones are breaker-rejected with a clean Service error.
        let first = service.plan(queries[0].clone());
        assert!(matches!(first, Err(MtmlfError::Service(_))), "{first:?}");
        let second = service.plan(queries[1].clone());
        assert!(matches!(second, Err(MtmlfError::Service(_))), "{second:?}");
        let m = service.metrics();
        assert_eq!(m.errors, 2);
        assert_eq!(service.breaker_state(), BreakerState::Open);
    }

    #[test]
    fn overload_sheds_with_typed_error() {
        let (model, _db, queries) = setup();
        // One miss stalled by an injected latency spike holds the only
        // in-flight slot: the burst below must shed deterministically.
        let service = Arc::new(
            PlannerService::builder(model)
                .config(ServiceConfig {
                    max_in_flight: 1,
                    ..ServiceConfig::default()
                })
                .faults(FaultPlan::new().delay_on(0, Duration::from_millis(300)))
                .start()
                .expect("start service"),
        );
        // Occupy the slot…
        let occupant = {
            let service = Arc::clone(&service);
            let query = queries[0].clone();
            std::thread::spawn(move || service.plan(query))
        };
        // …give it time to hit the delay…
        std::thread::sleep(Duration::from_millis(100));
        // …then send a burst of misses. With the slot taken, every one
        // of them must shed.
        let mut sheds = 0;
        let mut admitted = Vec::new();
        for query in queries.iter().skip(1).cycle().take(8) {
            match service.plan(PlanRequest::new(query.clone()).with_deadline(Duration::ZERO)) {
                Err(MtmlfError::Overloaded) => sheds += 1,
                other => admitted.push(other),
            }
        }
        assert!(
            sheds >= 1,
            "one in-flight slot must shed an 8-request burst"
        );
        let m = service.metrics();
        assert_eq!(m.sheds, sheds);
        assert!(m.errors >= sheds);
        assert!(occupant.join().expect("join occupant").is_ok());
    }

    #[test]
    fn panicking_forward_yields_clean_error_and_service_survives() {
        let (model, _db, queries) = setup();
        // The first forward panics. Its caller gets a clean Service error,
        // and later requests are planned as usual.
        let service = PlannerService::builder(Arc::clone(&model))
            .faults(FaultPlan::new().panic_on(0))
            .start()
            .expect("start service");
        let victim = service.plan(queries[0].clone());
        assert!(
            matches!(victim, Err(MtmlfError::Service(_))),
            "a panicking forward must surface as a clean error, got {victim:?}"
        );
        for query in &queries[1..] {
            let resp = service.plan(query.clone()).expect("service survives");
            assert_eq!(resp.source, PlanSource::Model);
        }
        service.shutdown();
        assert_eq!(service.metrics().in_flight, 0, "the panicked miss left");
    }

    #[test]
    fn traced_requests_decompose_into_monotonic_stage_spans() {
        let (model, _db, queries) = setup();
        let service = PlannerService::builder(model)
            .tracing(TraceConfig {
                ring_capacity: 64,
                ..TraceConfig::default()
            })
            .start()
            .expect("start service");
        let cold = service.plan(queries[0].clone()).expect("cold");
        assert_eq!(cold.source, PlanSource::Model);
        let warm = service.plan(queries[0].clone()).expect("warm");
        assert_eq!(warm.source, PlanSource::Cache);
        service.shutdown();

        let traces = service.traces();
        assert_eq!(traces.len(), 2, "one complete trace per request");
        let m = service.metrics();
        assert!(m.tracing_enabled);
        assert_eq!(m.traces, 2);

        let model_trace = &traces[0];
        assert_eq!(model_trace.outcome, TraceOutcome::Served(PlanSource::Model));
        assert!(model_trace.is_monotonic(), "{model_trace:?}");
        for stage in [
            Stage::Fingerprint,
            Stage::CacheLookup,
            Stage::Featurize,
            Stage::Encode,
            Stage::Forward,
            Stage::Beam,
        ] {
            assert!(
                model_trace.spans.iter().any(|s| s.stage == stage),
                "model-path trace missing {stage:?}: {model_trace:?}"
            );
        }
        assert_eq!(model_trace.stage_total(Stage::Fallback), Duration::ZERO);

        let cache_trace = &traces[1];
        assert_eq!(cache_trace.outcome, TraceOutcome::Served(PlanSource::Cache));
        assert!(cache_trace.is_monotonic());
        assert!(cache_trace
            .spans
            .iter()
            .all(|s| matches!(s.stage, Stage::Fingerprint | Stage::CacheLookup)));

        // Per-stage histograms: one sample per stage per traced request.
        assert_eq!(m.stage(Stage::CacheLookup).count, 2);
        assert_eq!(m.stage(Stage::Forward).count, 1);
        assert_eq!(m.stage(Stage::Beam).count, 1);
        assert!(m.stage(Stage::Encode).mean() > Duration::ZERO);
        assert_eq!(m.stage(Stage::Fallback).count, 0);

        // And the exposition carries them.
        let text = service.render_prometheus();
        assert!(text.contains("mtmlf_tracing_enabled 1"));
        assert!(text.contains("mtmlf_traces_total 2"));
        assert!(text.contains("mtmlf_stage_latency_seconds_count{stage=\"forward\"} 1"));
    }

    #[test]
    fn untraced_service_keeps_no_traces_and_empty_stage_histograms() {
        let (model, _db, queries) = setup();
        let service = PlannerService::builder(model).start().expect("start");
        service.plan(queries[0].clone()).expect("plan");
        assert!(service.traces().is_empty());
        let m = service.metrics();
        assert!(!m.tracing_enabled);
        assert_eq!(m.traces, 0);
        assert!(m.stage_latency.iter().all(|h| h.count == 0));
        let text = service.render_prometheus();
        assert!(text.contains("mtmlf_tracing_enabled 0"));
    }

    #[test]
    fn in_flight_gauge_returns_to_zero_when_quiescent() {
        let (model, _db, queries) = setup();
        let service = PlannerService::builder(model)
            .tracing(TraceConfig::default())
            .start()
            .expect("start");
        for query in &queries {
            service.plan(query.clone()).expect("plan");
        }
        service.shutdown();
        let m = service.metrics();
        assert_eq!(m.in_flight, 0, "every admitted miss left");
        assert_eq!(m.cached_plans, queries.len() as u64);
        assert_eq!(m.breaker_state, BreakerState::Closed);
    }
}
