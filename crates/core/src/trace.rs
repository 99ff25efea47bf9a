//! Plan-lifecycle tracing: where each request's time went.
//!
//! [`MetricsSnapshot`](crate::metrics::MetricsSnapshot) counters say how
//! *often* things happen; this module says *where the time went* and *what
//! happened to request X*. Every request admitted by a tracing-enabled
//! [`PlannerService`](crate::serve::PlannerService) is decomposed into
//! [`Stage`] spans — fingerprinting, cache lookup, featurization,
//! the transformer forwards, beam decode, retry backoff, classical
//! fallback — aggregated into per-stage latency histograms plus a bounded
//! ring buffer of the last N complete [`RequestTrace`]s.
//!
//! Determinism (lint rule L2): this module never reads the wall clock.
//! Every timestamp flows through the injectable [`Clock`] carried by
//! [`TraceConfig`], so tests can drive trace time with a
//! [`ManualClock`](crate::resilience::ManualClock) and replay exactly. The
//! L2 checker enforces this shape: in `trace.rs`/`metrics.rs` even naming a
//! std clock type is a violation.
//!
//! Cost model: tracing is opt-in per service
//! (`PlannerService::builder(..).tracing(cfg)`). When it is off the service
//! holds no `Tracer` at all and the per-request cost is one `Option`
//! discriminant check — no clock reads, no allocation. When on, each
//! request performs a handful of monotonic clock reads and one small `Vec`
//! of spans; traced `perfbench` runs measure the end-to-end overhead
//! (`bench.trace_overhead`, see DESIGN.md §10).

use crate::resilience::{BreakerState, Clock};
use crate::serve::{AtomicHistogram, LatencyHistogram, PlanSource};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// A lifecycle stage of one planning request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Canonical fingerprinting of the query.
    Fingerprint = 0,
    /// Plan-cache probe.
    CacheLookup = 1,
    /// Plan serialization into node-embedding sequences (both the initial
    /// plan and the chosen plan's re-serialization).
    Featurize = 2,
    /// The `Trans_Share` forward over the initial plan.
    Encode = 3,
    /// The estimation forward over the chosen plan plus the card/cost
    /// heads.
    Forward = 4,
    /// Legality-pruned beam decode of the join orders.
    Beam = 5,
    /// Deterministic backoff sleeps between retried forwards.
    Retry = 6,
    /// The classical fallback planner.
    Fallback = 7,
}

impl Stage {
    /// Number of stages (array dimension for per-stage aggregates).
    pub const COUNT: usize = 8;

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Fingerprint,
        Stage::CacheLookup,
        Stage::Featurize,
        Stage::Encode,
        Stage::Forward,
        Stage::Beam,
        Stage::Retry,
        Stage::Fallback,
    ];

    /// Stable snake_case name, used as the Prometheus `stage` label.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Fingerprint => "fingerprint",
            Stage::CacheLookup => "cache_lookup",
            Stage::Featurize => "featurize",
            Stage::Encode => "encode",
            Stage::Forward => "forward",
            Stage::Beam => "beam",
            Stage::Retry => "retry",
            Stage::Fallback => "fallback",
        }
    }

    /// Index into [`Stage::COUNT`]-sized arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One timed stage within a request trace. `start`/`end` are offsets from
/// the tracing [`Clock`]'s epoch, not wall-clock times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpan {
    /// Which stage this span measures.
    pub stage: Stage,
    /// Stage entry, as clock offset.
    pub start: Duration,
    /// Stage exit, as clock offset (`>= start`).
    pub end: Duration,
}

impl StageSpan {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// How a traced request left the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Answered with a plan from this source.
    Served(PlanSource),
    /// Shed at admission (`max_in_flight` misses already being planned).
    Shed,
    /// Its deadline had passed before the forward; never planned.
    Expired,
    /// Returned a typed error (model failure with no fallback, shutdown
    /// refusal, a forward that overran the deadline, …).
    Error,
}

/// One complete request trace, as kept in the [`Tracer`]'s ring buffer.
///
/// The calling thread completes the trace just before `plan` returns, so
/// `completed_at` marks when the response was ready.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// Monotonically increasing per-service request id.
    pub id: u64,
    /// When `plan` accepted the request (clock offset).
    pub accepted_at: Duration,
    /// When the trace was completed (clock offset).
    pub completed_at: Duration,
    /// How the request left the service.
    pub outcome: TraceOutcome,
    /// Circuit-breaker state observed at admission.
    pub breaker: BreakerState,
    /// Cache misses in flight observed at admission.
    pub in_flight: usize,
    /// Stage spans in the order they were recorded.
    pub spans: Vec<StageSpan>,
    /// The model's cardinality estimate for the served plan, when the
    /// request was answered by the model (`None` for cache hits, fallbacks,
    /// sheds, and errors). Paired with the cardinality observed when the
    /// plan executes, it gives that request's q-error.
    pub est_card: Option<f64>,
}

impl RequestTrace {
    /// Total time attributed to `stage` (a stage may have several spans,
    /// e.g. `Featurize` runs once per serialization pass).
    pub fn stage_total(&self, stage: Stage) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(StageSpan::duration)
            .fold(Duration::ZERO, |a, d| a.saturating_add(d))
    }

    /// Whether the recorded spans are well-formed: starts are
    /// monotonically non-decreasing in recording order, every span ends at
    /// or after it starts, and all spans lie within
    /// `[accepted_at, completed_at]`.
    pub fn is_monotonic(&self) -> bool {
        let mut prev_start = self.accepted_at;
        for span in &self.spans {
            if span.start < prev_start || span.end < span.start || span.end > self.completed_at {
                return false;
            }
            prev_start = span.start;
        }
        self.completed_at >= self.accepted_at
    }

    /// End-to-end service-side duration.
    pub fn total(&self) -> Duration {
        self.completed_at.saturating_sub(self.accepted_at)
    }
}

/// Tracing configuration for `PlannerService::builder(..).tracing(..)`.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// How many complete [`RequestTrace`]s the ring buffer retains.
    pub ring_capacity: usize,
    /// The monotonic time source spans are stamped with. Defaults to
    /// [`SystemClock`](crate::resilience::SystemClock); tests inject a
    /// [`ManualClock`](crate::resilience::ManualClock).
    pub clock: Arc<dyn Clock>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            ring_capacity: 128,
            clock: Arc::new(crate::resilience::SystemClock::new()),
        }
    }
}

/// The per-service trace sink: per-stage histograms plus a bounded ring
/// buffer of complete request traces. Shared by every calling thread; all
/// methods are thread-safe.
pub struct Tracer {
    clock: Arc<dyn Clock>,
    next_id: AtomicU64,
    completed: AtomicU64,
    stages: [AtomicHistogram; Stage::COUNT],
    ring_capacity: usize,
    ring: Mutex<VecDeque<RequestTrace>>,
}

impl Tracer {
    /// Builds a tracer from its config.
    pub fn new(config: &TraceConfig) -> Self {
        Self {
            clock: Arc::clone(&config.clock),
            next_id: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            stages: Default::default(),
            ring_capacity: config.ring_capacity,
            ring: Mutex::new(VecDeque::with_capacity(config.ring_capacity.min(1024))),
        }
    }

    /// Opens a trace for one accepted request, stamping the admission-time
    /// breaker state and misses in flight.
    pub fn begin(&self, breaker: BreakerState, in_flight: usize) -> TraceBuilder {
        TraceBuilder {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            accepted_at: self.clock.now(),
            breaker,
            in_flight,
            recorder: StageRecorder::new(Arc::clone(&self.clock)),
            est_card: None,
        }
    }

    /// Traces completed so far (sheds and errors included). Unlike the ring
    /// buffer this never forgets, so tests can audit "every accepted
    /// request produced exactly one complete trace" without sizing the ring
    /// to the workload.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// The last N complete traces, oldest first.
    pub fn recent(&self) -> Vec<RequestTrace> {
        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        ring.iter().cloned().collect()
    }

    /// Point-in-time per-stage latency histograms, indexed by
    /// [`Stage::index`]. Each completed trace contributes at most one
    /// sample per stage: the total across that trace's spans of the stage.
    pub fn stage_histograms(&self) -> [LatencyHistogram; Stage::COUNT] {
        std::array::from_fn(|i| self.stages[i].snapshot())
    }

    fn complete(&self, trace: RequestTrace) {
        for stage in Stage::ALL {
            let mut total: u64 = 0;
            let mut present = false;
            for span in trace.spans.iter().filter(|s| s.stage == stage) {
                present = true;
                total = total
                    .saturating_add(u64::try_from(span.duration().as_nanos()).unwrap_or(u64::MAX));
            }
            if present {
                self.stages[stage.index()].record_nanos(total);
            }
        }
        self.completed.fetch_add(1, Ordering::Relaxed);
        if self.ring_capacity == 0 {
            return;
        }
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() >= self.ring_capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("completed", &self.completed())
            .field("ring_capacity", &self.ring_capacity)
            .finish_non_exhaustive()
    }
}

/// An in-flight request trace, created by [`Tracer::begin`] on the calling
/// thread. Every stage of the request, planning included, records into its
/// [`TraceBuilder::recorder`].
#[derive(Debug)]
pub struct TraceBuilder {
    id: u64,
    accepted_at: Duration,
    breaker: BreakerState,
    in_flight: usize,
    recorder: StageRecorder,
    est_card: Option<f64>,
}

impl TraceBuilder {
    /// The request's span collector.
    pub fn recorder(&mut self) -> &mut StageRecorder {
        &mut self.recorder
    }

    /// Records the model's cardinality estimate for the served plan.
    pub fn set_est_card(&mut self, est_card: f64) {
        self.est_card = Some(est_card);
    }

    /// Completes the trace into `tracer` with its final outcome.
    pub fn finish(self, tracer: &Tracer, outcome: TraceOutcome) {
        tracer.complete(RequestTrace {
            id: self.id,
            accepted_at: self.accepted_at,
            completed_at: tracer.clock.now(),
            outcome,
            breaker: self.breaker,
            in_flight: self.in_flight,
            spans: self.recorder.spans,
            est_card: self.est_card,
        });
    }
}

/// A span collector for a request's stages (fingerprint, cache probe,
/// [`crate::batch::plan_traced`]'s planning stages, retry backoff,
/// fallback calls). When disabled it performs no clock reads and keeps no
/// spans, so the untraced planning path pays nothing.
#[derive(Debug)]
pub struct StageRecorder {
    clock: Option<Arc<dyn Clock>>,
    spans: Vec<StageSpan>,
}

impl StageRecorder {
    /// A recorder that measures nothing (zero clock reads).
    pub fn disabled() -> Self {
        Self {
            clock: None,
            spans: Vec::new(),
        }
    }

    /// A recorder stamping spans with `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Self {
            clock: Some(clock),
            spans: Vec::new(),
        }
    }

    /// Runs `f`, recording it as one `stage` span when enabled.
    pub fn timed<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let Some(clock) = &self.clock else {
            return f();
        };
        let start = clock.now();
        let out = f();
        let end = clock.now();
        self.spans.push(StageSpan { stage, start, end });
        out
    }

    /// The collected spans, in recording order.
    pub fn spans(&self) -> &[StageSpan] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::ManualClock;

    fn manual_tracer(ring: usize) -> (Tracer, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::new(&TraceConfig {
            ring_capacity: ring,
            clock: Arc::clone(&clock) as Arc<dyn Clock>,
        });
        (tracer, clock)
    }

    #[test]
    fn spans_aggregate_per_stage_and_land_in_the_ring() {
        let (tracer, clock) = manual_tracer(8);
        let mut tb = tracer.begin(BreakerState::Closed, 3);
        let rec = tb.recorder();
        rec.timed(Stage::Fingerprint, || {
            clock.advance(Duration::from_nanos(100))
        });
        rec.timed(Stage::CacheLookup, || {
            clock.advance(Duration::from_nanos(50))
        });
        // Two Featurize spans fold into one histogram sample.
        rec.timed(Stage::Featurize, || clock.advance(Duration::from_nanos(30)));
        rec.timed(Stage::Featurize, || clock.advance(Duration::from_nanos(20)));
        tb.finish(&tracer, TraceOutcome::Served(PlanSource::Model));

        assert_eq!(tracer.completed(), 1);
        let traces = tracer.recent();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.id, 0);
        assert_eq!(t.in_flight, 3);
        assert_eq!(t.outcome, TraceOutcome::Served(PlanSource::Model));
        assert!(t.is_monotonic(), "{t:?}");
        assert_eq!(t.stage_total(Stage::Fingerprint), Duration::from_nanos(100));
        assert_eq!(t.stage_total(Stage::Featurize), Duration::from_nanos(50));

        let hists = tracer.stage_histograms();
        assert_eq!(hists[Stage::Featurize.index()].count, 1);
        assert_eq!(hists[Stage::Featurize.index()].total_nanos, 50);
        assert_eq!(hists[Stage::Featurize.index()].max_nanos, 50);
        assert_eq!(hists[Stage::CacheLookup.index()].count, 1);
        assert_eq!(hists[Stage::Fallback.index()].count, 0);
    }

    #[test]
    fn ring_buffer_is_bounded_and_completed_counter_is_not() {
        let (tracer, _clock) = manual_tracer(2);
        for _ in 0..5 {
            let tb = tracer.begin(BreakerState::Closed, 0);
            tb.finish(&tracer, TraceOutcome::Shed);
        }
        assert_eq!(tracer.completed(), 5);
        let traces = tracer.recent();
        assert_eq!(traces.len(), 2, "ring keeps only the last N");
        assert_eq!(traces[0].id, 3);
        assert_eq!(traces[1].id, 4);
    }

    #[test]
    fn disabled_recorder_reads_no_clock_and_keeps_no_spans() {
        let mut rec = StageRecorder::disabled();
        let v = rec.timed(Stage::Forward, || 42);
        assert_eq!(v, 42);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn enabled_recorder_stamps_spans_with_the_injected_clock() {
        let clock = Arc::new(ManualClock::new());
        let mut rec = StageRecorder::new(Arc::clone(&clock) as Arc<dyn Clock>);
        clock.advance(Duration::from_nanos(10));
        rec.timed(Stage::Encode, || clock.advance(Duration::from_nanos(7)));
        assert_eq!(rec.spans().len(), 1);
        let span = rec.spans()[0];
        assert_eq!(span.stage, Stage::Encode);
        assert_eq!(span.start, Duration::from_nanos(10));
        assert_eq!(span.end, Duration::from_nanos(17));
        assert_eq!(span.duration(), Duration::from_nanos(7));
    }
}
