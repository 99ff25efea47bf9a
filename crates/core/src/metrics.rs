//! Metrics snapshots and Prometheus text exposition.
//!
//! [`MetricsSnapshot`] is the one shape in which service state leaves
//! [`PlannerService`](crate::serve::PlannerService): counters, latency
//! histograms, gauges (cache occupancy, misses in flight, breaker state), and —
//! when tracing is enabled — the per-[`Stage`] latency histograms from the
//! [`Tracer`](crate::trace::Tracer).
//!
//! # Consistency guarantee
//!
//! A snapshot is a single point-in-time pass over relaxed atomic counters:
//! each field is individually exact, and no counter can decrease between
//! snapshots. Fields are *not* read inside one global critical section, so
//! a snapshot taken while requests are in flight may catch a request
//! between its `requests` increment and its outcome counter; once the
//! service is quiescent (all replies delivered, or after
//! [`shutdown`](crate::serve::PlannerService::shutdown)) the counting
//! identity `requests == cache_hits + model_plans + fallbacks + errors`
//! holds exactly. The chaos suite audits this identity under fault storms.
//!
//! # Exposition format
//!
//! [`render_prometheus`] emits the Prometheus text format (v0.0.4):
//! counters as `_total`, gauges plainly, breaker state as a one-hot state
//! set, and every histogram with its native power-of-two buckets converted
//! to seconds (`le` edges `2^(i+1)` ns), plus `_sum`/`_count` and a
//! companion `_max_seconds` gauge carrying the true maximum (see
//! [`LatencyHistogram::max_nanos`]). Output is deterministic for a given
//! snapshot — CI diffs it against a golden file to catch format drift.

use crate::resilience::BreakerState;
use crate::serve::LatencyHistogram;
use crate::trace::Stage;
use std::fmt::Write as _;

/// A point-in-time snapshot of service counters, histograms, and gauges,
/// from [`metrics`](crate::serve::PlannerService::metrics). See the
/// [module docs](self) for the consistency guarantee.
///
/// Counting identity: `requests == cache_hits + model_plans + fallbacks +
/// errors` — every accepted request is counted exactly once by how it
/// returned. `timeouts` and `sheds` are sub-counts of `errors`.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Requests accepted by [`plan`](crate::serve::PlannerService::plan).
    pub requests: u64,
    /// Requests answered from the plan cache.
    pub cache_hits: u64,
    /// Requests answered by a model forward.
    pub model_plans: u64,
    /// Requests answered by the classical fallback planner.
    pub fallbacks: u64,
    /// Requests that returned an error (includes timeouts and sheds).
    pub errors: u64,
    /// Requests that returned [`MtmlfError::Timeout`](crate::MtmlfError::Timeout).
    pub timeouts: u64,
    /// Requests shed at admission with
    /// [`MtmlfError::Overloaded`](crate::MtmlfError::Overloaded).
    pub sheds: u64,
    /// Cache misses never planned because their deadline had already
    /// passed at admission (each is also counted in `timeouts`).
    pub expired: u64,
    /// Model forward attempts that were retried after a transient error.
    pub retries: u64,
    /// Times the circuit breaker transitioned to Open.
    pub breaker_opens: u64,
    /// Model passes run: one per cache miss that reached the planning
    /// ladder (a pass plans exactly one query).
    pub batches: u64,
    /// Queries planned by those model passes; equal to `batches`, since a
    /// pass plans one query.
    pub batched_queries: u64,
    /// Model hot swaps completed (each real change of the active version).
    pub swaps: u64,
    /// Candidate adoptions rejected before promotion (corrupt or
    /// truncated registry snapshots).
    pub swap_rejections: u64,
    /// Active model version (registry-assigned; 0 for an unregistered
    /// boot model).
    pub model_version: u64,
    /// Plan-cache entries restored from the durable log when the service
    /// started (0 for volatile services; DESIGN.md §16).
    pub warm_start_entries: u64,
    /// Durable-log snapshot compactions performed since the service
    /// started.
    pub log_compactions: u64,
    /// Latency distribution of cache-served responses.
    pub cache_latency: LatencyHistogram,
    /// Latency distribution of model-served responses.
    pub model_latency: LatencyHistogram,
    /// Latency distribution of fallback-served responses.
    pub fallback_latency: LatencyHistogram,
    /// Circuit-breaker state at snapshot time.
    pub breaker_state: BreakerState,
    /// Plan-cache entries at snapshot time.
    pub cached_plans: u64,
    /// Cache misses being planned at snapshot time.
    pub in_flight: u64,
    /// Whether the service was built with `.tracing(..)`.
    pub tracing_enabled: bool,
    /// Complete request traces recorded (0 when tracing is off).
    pub traces: u64,
    /// Per-stage latency histograms, indexed by [`Stage::index`]; all empty
    /// when tracing is off.
    pub stage_latency: [LatencyHistogram; Stage::COUNT],
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        Self {
            requests: 0,
            cache_hits: 0,
            model_plans: 0,
            fallbacks: 0,
            errors: 0,
            timeouts: 0,
            sheds: 0,
            expired: 0,
            retries: 0,
            breaker_opens: 0,
            batches: 0,
            batched_queries: 0,
            swaps: 0,
            swap_rejections: 0,
            model_version: 0,
            warm_start_entries: 0,
            log_compactions: 0,
            cache_latency: LatencyHistogram::default(),
            model_latency: LatencyHistogram::default(),
            fallback_latency: LatencyHistogram::default(),
            breaker_state: BreakerState::Closed,
            cached_plans: 0,
            in_flight: 0,
            tracing_enabled: false,
            traces: 0,
            stage_latency: std::array::from_fn(|_| LatencyHistogram::default()),
        }
    }
}

impl MetricsSnapshot {
    /// Fraction of answered requests served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let answered = self.cache_hits + self.model_plans + self.fallbacks;
        if answered == 0 {
            0.0
        } else {
            self.cache_hits as f64 / answered as f64
        }
    }

    /// The latency histogram for one lifecycle stage.
    pub fn stage(&self, stage: Stage) -> &LatencyHistogram {
        &self.stage_latency[stage.index()]
    }
}

/// Renders `nanos` as decimal seconds with no trailing zeros, via exact
/// integer arithmetic (so the exposition is deterministic — no float
/// formatting in the output path).
fn seconds(nanos: u64) -> String {
    let secs = nanos / 1_000_000_000;
    let frac = nanos % 1_000_000_000;
    if frac == 0 {
        return format!("{secs}");
    }
    let mut f = format!("{frac:09}");
    while f.ends_with('0') {
        f.pop();
    }
    format!("{secs}.{f}")
}

fn push_counter(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

fn push_gauge(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// One histogram series under an already-declared metric family.
fn push_histogram(out: &mut String, name: &str, label: &str, value: &str, h: &LatencyHistogram) {
    let mut cumulative = 0u64;
    for (i, &n) in h.buckets.iter().enumerate() {
        cumulative += n;
        if i == h.buckets.len() - 1 {
            // The top bucket is a catch-all, so its edge is +Inf.
            let _ = writeln!(
                out,
                "{name}_bucket{{{label}=\"{value}\",le=\"+Inf\"}} {cumulative}"
            );
        } else {
            let edge = seconds(1u64 << (i + 1));
            let _ = writeln!(
                out,
                "{name}_bucket{{{label}=\"{value}\",le=\"{edge}\"}} {cumulative}"
            );
        }
    }
    let _ = writeln!(
        out,
        "{name}_sum{{{label}=\"{value}\"}} {}",
        seconds(h.total_nanos)
    );
    let _ = writeln!(out, "{name}_count{{{label}=\"{value}\"}} {}", h.count);
}

fn push_histogram_family<'a>(
    out: &mut String,
    name: &str,
    help: &str,
    label: &str,
    series: impl Iterator<Item = (&'a str, &'a LatencyHistogram)> + Clone,
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for (value, h) in series.clone() {
        push_histogram(out, name, label, value, h);
    }
    let max_name = format!("{name}_max");
    let _ = writeln!(
        out,
        "# HELP {max_name} True maximum observed for {name} (histograms round up to bucket edges)."
    );
    let _ = writeln!(out, "# TYPE {max_name} gauge");
    for (value, h) in series {
        let _ = writeln!(
            out,
            "{max_name}{{{label}=\"{value}\"}} {}",
            seconds(h.max_nanos)
        );
    }
}

/// Renders a snapshot in the Prometheus text exposition format (v0.0.4).
///
/// The output is deterministic: same snapshot, same bytes. CI compares a
/// synthetic snapshot's rendering against
/// `crates/core/testdata/prometheus_golden.txt` so that accidental drift in
/// names, labels, or bucket edges fails the build.
pub fn render_prometheus(m: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(16 * 1024);

    push_counter(
        &mut out,
        "mtmlf_requests_total",
        "Requests accepted by the planner service.",
        m.requests,
    );
    let _ = writeln!(
        out,
        "# HELP mtmlf_responses_total Requests answered, by plan source."
    );
    let _ = writeln!(out, "# TYPE mtmlf_responses_total counter");
    let _ = writeln!(
        out,
        "mtmlf_responses_total{{source=\"cache\"}} {}",
        m.cache_hits
    );
    let _ = writeln!(
        out,
        "mtmlf_responses_total{{source=\"model\"}} {}",
        m.model_plans
    );
    let _ = writeln!(
        out,
        "mtmlf_responses_total{{source=\"fallback\"}} {}",
        m.fallbacks
    );
    push_counter(
        &mut out,
        "mtmlf_errors_total",
        "Requests that returned an error (includes timeouts and sheds).",
        m.errors,
    );
    push_counter(
        &mut out,
        "mtmlf_timeouts_total",
        "Requests that exceeded their deadline.",
        m.timeouts,
    );
    push_counter(
        &mut out,
        "mtmlf_sheds_total",
        "Cache misses shed at admission because max_in_flight misses were being planned.",
        m.sheds,
    );
    push_counter(
        &mut out,
        "mtmlf_expired_total",
        "Cache misses never planned because their deadline had passed at admission.",
        m.expired,
    );
    push_counter(
        &mut out,
        "mtmlf_retries_total",
        "Model forwards retried after a transient error.",
        m.retries,
    );
    push_counter(
        &mut out,
        "mtmlf_breaker_opens_total",
        "Circuit-breaker transitions to Open.",
        m.breaker_opens,
    );
    push_counter(
        &mut out,
        "mtmlf_batches_total",
        "Model passes run (one query each).",
        m.batches,
    );
    push_counter(
        &mut out,
        "mtmlf_batched_queries_total",
        "Cache-miss queries planned through model passes.",
        m.batched_queries,
    );
    push_counter(
        &mut out,
        "mtmlf_traces_total",
        "Complete request traces recorded.",
        m.traces,
    );
    push_counter(
        &mut out,
        "mtmlf_model_swaps_total",
        "Model hot swaps completed (each real change of the active version).",
        m.swaps,
    );
    push_counter(
        &mut out,
        "mtmlf_swap_rejected_total",
        "Candidate adoptions rejected before promotion (corrupt snapshots).",
        m.swap_rejections,
    );
    push_counter(
        &mut out,
        "mtmlf_warm_start_entries_total",
        "Plan-cache entries restored from the durable log at service start.",
        m.warm_start_entries,
    );
    push_counter(
        &mut out,
        "mtmlf_log_compactions_total",
        "Durable-log snapshot compactions since service start.",
        m.log_compactions,
    );

    push_gauge(
        &mut out,
        "mtmlf_cache_entries",
        "Plan-cache entries currently held.",
        m.cached_plans,
    );
    push_gauge(
        &mut out,
        "mtmlf_in_flight",
        "Cache misses being planned.",
        m.in_flight,
    );
    push_gauge(
        &mut out,
        "mtmlf_tracing_enabled",
        "1 when the service records plan-lifecycle traces.",
        u64::from(m.tracing_enabled),
    );
    push_gauge(
        &mut out,
        "mtmlf_model_version",
        "Active model version (0 for an unregistered boot model).",
        m.model_version,
    );
    let _ = writeln!(
        out,
        "# HELP mtmlf_breaker_state Circuit-breaker state as a one-hot set."
    );
    let _ = writeln!(out, "# TYPE mtmlf_breaker_state gauge");
    for (state, name) in [
        (BreakerState::Closed, "closed"),
        (BreakerState::Open, "open"),
        (BreakerState::HalfOpen, "half_open"),
    ] {
        let _ = writeln!(
            out,
            "mtmlf_breaker_state{{state=\"{name}\"}} {}",
            u64::from(m.breaker_state == state)
        );
    }

    push_histogram_family(
        &mut out,
        "mtmlf_response_latency_seconds",
        "End-to-end response latency, by plan source.",
        "source",
        [
            ("cache", &m.cache_latency),
            ("model", &m.model_latency),
            ("fallback", &m.fallback_latency),
        ]
        .into_iter(),
    );
    push_histogram_family(
        &mut out,
        "mtmlf_stage_latency_seconds",
        "Per-request time spent in each plan-lifecycle stage.",
        "stage",
        Stage::ALL
            .iter()
            .map(|&s| (s.name(), &m.stage_latency[s.index()])),
    );

    out
}

/// One counter family with a `replica` label, one series per replica.
fn push_replica_counter(
    out: &mut String,
    name: &str,
    help: &str,
    series: impl Iterator<Item = (usize, u64)>,
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    for (id, value) in series {
        let _ = writeln!(out, "{name}{{replica=\"{id}\"}} {value}");
    }
}

/// Renders a cluster snapshot in the Prometheus text exposition format:
/// router-level counters plus per-replica series labeled `replica="N"`.
///
/// Deterministic like [`render_prometheus`]; CI diffs a synthetic
/// snapshot's rendering against
/// `crates/core/testdata/prometheus_cluster_golden.txt`.
pub fn render_prometheus_cluster(m: &crate::cluster::ClusterMetricsSnapshot) -> String {
    let mut out = String::with_capacity(8 * 1024);

    push_replica_counter(
        &mut out,
        "mtmlf_cluster_routed_total",
        "Requests answered by each replica.",
        m.replicas.iter().map(|r| (r.id, r.routed)),
    );
    push_counter(
        &mut out,
        "mtmlf_cluster_failovers_total",
        "Requests answered by a replica other than their ring primary.",
        m.failovers,
    );
    push_counter(
        &mut out,
        "mtmlf_cluster_breaker_skips_total",
        "Route candidates skipped because their router-side breaker was open.",
        m.breaker_skips,
    );
    push_counter(
        &mut out,
        "mtmlf_cluster_unhealthy_skips_total",
        "Route candidates skipped because the replica reported unhealthy.",
        m.unhealthy_skips,
    );
    push_counter(
        &mut out,
        "mtmlf_cluster_warms_sent_total",
        "Cache-warming messages gossiped to peer replicas.",
        m.warms_sent,
    );
    push_counter(
        &mut out,
        "mtmlf_cluster_warms_applied_total",
        "Cache-warming messages applied to a peer's plan cache.",
        m.warms_applied,
    );
    push_counter(
        &mut out,
        "mtmlf_cluster_warms_discarded_total",
        "Cache-warming messages discarded as stale (tombstoned).",
        m.warms_discarded,
    );
    push_counter(
        &mut out,
        "mtmlf_cluster_invalidations_total",
        "Cluster-wide plan invalidations issued.",
        m.invalidations,
    );
    push_gauge(
        &mut out,
        "mtmlf_cluster_epoch",
        "Current cluster coherence epoch (bumped by every invalidation).",
        m.epoch,
    );

    let _ = writeln!(
        out,
        "# HELP mtmlf_cluster_replica_healthy 1 when the replica passes the router's health check."
    );
    let _ = writeln!(out, "# TYPE mtmlf_cluster_replica_healthy gauge");
    for r in &m.replicas {
        let _ = writeln!(
            out,
            "mtmlf_cluster_replica_healthy{{replica=\"{}\"}} {}",
            r.id,
            u64::from(r.healthy)
        );
    }
    let _ = writeln!(
        out,
        "# HELP mtmlf_cluster_replica_in_ring 1 when the replica currently owns ring positions."
    );
    let _ = writeln!(out, "# TYPE mtmlf_cluster_replica_in_ring gauge");
    for r in &m.replicas {
        let _ = writeln!(
            out,
            "mtmlf_cluster_replica_in_ring{{replica=\"{}\"}} {}",
            r.id,
            u64::from(r.in_ring)
        );
    }
    let _ = writeln!(
        out,
        "# HELP mtmlf_cluster_replica_breaker_state Router-side breaker state per replica, one-hot."
    );
    let _ = writeln!(out, "# TYPE mtmlf_cluster_replica_breaker_state gauge");
    for r in &m.replicas {
        for (state, name) in [
            (BreakerState::Closed, "closed"),
            (BreakerState::Open, "open"),
            (BreakerState::HalfOpen, "half_open"),
        ] {
            let _ = writeln!(
                out,
                "mtmlf_cluster_replica_breaker_state{{replica=\"{}\",state=\"{name}\"}} {}",
                r.id,
                u64::from(r.breaker_state == state)
            );
        }
    }

    // Per-replica service counters, for replicas that keep service metrics.
    push_replica_counter(
        &mut out,
        "mtmlf_cluster_replica_requests_total",
        "Requests accepted by each replica's planner service.",
        m.replicas
            .iter()
            .filter_map(|r| r.service.as_ref().map(|s| (r.id, s.requests))),
    );
    push_replica_counter(
        &mut out,
        "mtmlf_cluster_replica_cache_hits_total",
        "Plan-cache hits served by each replica.",
        m.replicas
            .iter()
            .filter_map(|r| r.service.as_ref().map(|s| (r.id, s.cache_hits))),
    );
    let _ = writeln!(
        out,
        "# HELP mtmlf_cluster_replica_cache_entries Plan-cache entries currently held per replica."
    );
    let _ = writeln!(out, "# TYPE mtmlf_cluster_replica_cache_entries gauge");
    for r in &m.replicas {
        if let Some(s) = &r.service {
            let _ = writeln!(
                out,
                "mtmlf_cluster_replica_cache_entries{{replica=\"{}\"}} {}",
                r.id, s.cached_plans
            );
        }
    }
    let _ = writeln!(
        out,
        "# HELP mtmlf_cluster_replica_model_version Active model version per replica."
    );
    let _ = writeln!(out, "# TYPE mtmlf_cluster_replica_model_version gauge");
    for r in &m.replicas {
        if let Some(s) = &r.service {
            let _ = writeln!(
                out,
                "mtmlf_cluster_replica_model_version{{replica=\"{}\"}} {}",
                r.id, s.model_version
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic snapshot with every field distinct and deterministic —
    /// the subject of the golden-file drift check.
    fn fixture() -> MetricsSnapshot {
        let mut m = MetricsSnapshot {
            requests: 100,
            cache_hits: 40,
            model_plans: 30,
            fallbacks: 20,
            errors: 10,
            timeouts: 4,
            sheds: 3,
            expired: 2,
            retries: 7,
            breaker_opens: 1,
            batches: 12,
            batched_queries: 50,
            breaker_state: BreakerState::HalfOpen,
            cached_plans: 17,
            in_flight: 5,
            tracing_enabled: true,
            traces: 97,
            swaps: 6,
            swap_rejections: 1,
            model_version: 4,
            warm_start_entries: 13,
            log_compactions: 3,
            ..MetricsSnapshot::default()
        };
        for nanos in [800, 1_500, 70_000] {
            m.cache_latency.record_nanos(nanos);
        }
        for nanos in [2_000_000, 9_000_000] {
            m.model_latency.record_nanos(nanos);
        }
        m.fallback_latency.record_nanos(350_000);
        for (i, stage) in Stage::ALL.iter().enumerate() {
            m.stage_latency[stage.index()].record_nanos(1_000 * (i as u64 + 1));
            m.stage_latency[stage.index()].record_nanos(250);
        }
        m
    }

    #[test]
    fn prometheus_rendering_matches_the_golden_snapshot() {
        let rendered = render_prometheus(&fixture());
        if std::env::var_os("MTMLF_UPDATE_GOLDEN").is_some() {
            let path = concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/testdata/prometheus_golden.txt"
            );
            std::fs::write(path, &rendered).expect("write golden");
        }
        let golden = include_str!("../testdata/prometheus_golden.txt");
        assert_eq!(
            rendered, golden,
            "render_prometheus drifted from the golden snapshot; if the change \
             is intentional, regenerate with MTMLF_UPDATE_GOLDEN=1 and commit"
        );
    }

    #[test]
    fn exposition_covers_counters_gauges_and_required_stages() {
        let text = render_prometheus(&fixture());
        assert!(text.contains("mtmlf_requests_total 100"));
        assert!(text.contains("mtmlf_responses_total{source=\"cache\"} 40"));
        assert!(text.contains("mtmlf_responses_total{source=\"model\"} 30"));
        assert!(text.contains("mtmlf_responses_total{source=\"fallback\"} 20"));
        assert!(text.contains("mtmlf_breaker_opens_total 1"));
        assert!(text.contains("mtmlf_cache_entries 17"));
        assert!(text.contains("mtmlf_in_flight 5"));
        assert!(text.contains("mtmlf_tracing_enabled 1"));
        assert!(text.contains("mtmlf_breaker_state{state=\"half_open\"} 1"));
        assert!(text.contains("mtmlf_breaker_state{state=\"closed\"} 0"));
        assert!(text.contains("mtmlf_model_swaps_total 6"));
        assert!(text.contains("mtmlf_swap_rejected_total 1"));
        assert!(text.contains("mtmlf_model_version 4"));
        assert!(text.contains("mtmlf_warm_start_entries_total 13"));
        assert!(text.contains("mtmlf_log_compactions_total 3"));
        // The acceptance-critical stages all appear with bucket series.
        for stage in ["cache_lookup", "featurize", "forward", "beam", "fallback"] {
            assert!(
                text.contains(&format!(
                    "mtmlf_stage_latency_seconds_bucket{{stage=\"{stage}\""
                )),
                "missing stage series {stage}"
            );
            assert!(text.contains(&format!(
                "mtmlf_stage_latency_seconds_count{{stage=\"{stage}\"}} 2"
            )));
        }
        // Histograms carry sum, count, +Inf, and the true-max gauge.
        assert!(
            text.contains("mtmlf_response_latency_seconds_bucket{source=\"cache\",le=\"+Inf\"} 3")
        );
        assert!(text.contains("mtmlf_response_latency_seconds_count{source=\"cache\"} 3"));
        assert!(text.contains("mtmlf_response_latency_seconds_max{source=\"cache\"} 0.00007"));
        assert!(text.contains("mtmlf_response_latency_seconds_max{source=\"model\"} 0.009"));
    }

    /// A synthetic cluster snapshot: two replicas in different states, one
    /// with service metrics and one without.
    fn cluster_fixture() -> crate::cluster::ClusterMetricsSnapshot {
        use crate::cluster::{ClusterMetricsSnapshot, ReplicaSnapshot};
        let service = MetricsSnapshot {
            requests: 60,
            cache_hits: 25,
            cached_plans: 9,
            model_version: 3,
            ..MetricsSnapshot::default()
        };
        ClusterMetricsSnapshot {
            replicas: vec![
                ReplicaSnapshot {
                    id: 0,
                    routed: 55,
                    healthy: true,
                    in_ring: true,
                    breaker_state: BreakerState::Closed,
                    service: Some(service),
                },
                ReplicaSnapshot {
                    id: 1,
                    routed: 45,
                    healthy: false,
                    in_ring: false,
                    breaker_state: BreakerState::Open,
                    service: None,
                },
            ],
            failovers: 6,
            breaker_skips: 4,
            unhealthy_skips: 3,
            warms_sent: 80,
            warms_applied: 70,
            warms_discarded: 5,
            invalidations: 2,
            epoch: 2,
        }
    }

    #[test]
    fn cluster_prometheus_rendering_matches_the_golden_snapshot() {
        let rendered = render_prometheus_cluster(&cluster_fixture());
        if std::env::var_os("MTMLF_UPDATE_GOLDEN").is_some() {
            let path = concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/testdata/prometheus_cluster_golden.txt"
            );
            std::fs::write(path, &rendered).expect("write golden");
        }
        let golden = include_str!("../testdata/prometheus_cluster_golden.txt");
        assert_eq!(
            rendered, golden,
            "render_prometheus_cluster drifted from the golden snapshot; if \
             the change is intentional, regenerate with MTMLF_UPDATE_GOLDEN=1 \
             and commit"
        );
    }

    #[test]
    fn cluster_exposition_labels_every_replica() {
        let text = render_prometheus_cluster(&cluster_fixture());
        assert!(text.contains("mtmlf_cluster_routed_total{replica=\"0\"} 55"));
        assert!(text.contains("mtmlf_cluster_routed_total{replica=\"1\"} 45"));
        assert!(text.contains("mtmlf_cluster_failovers_total 6"));
        assert!(text.contains("mtmlf_cluster_breaker_skips_total 4"));
        assert!(text.contains("mtmlf_cluster_warms_sent_total 80"));
        assert!(text.contains("mtmlf_cluster_warms_discarded_total 5"));
        assert!(text.contains("mtmlf_cluster_epoch 2"));
        assert!(text.contains("mtmlf_cluster_replica_healthy{replica=\"0\"} 1"));
        assert!(text.contains("mtmlf_cluster_replica_healthy{replica=\"1\"} 0"));
        assert!(text.contains("mtmlf_cluster_replica_in_ring{replica=\"1\"} 0"));
        assert!(
            text.contains("mtmlf_cluster_replica_breaker_state{replica=\"1\",state=\"open\"} 1")
        );
        assert!(
            text.contains("mtmlf_cluster_replica_breaker_state{replica=\"0\",state=\"closed\"} 1")
        );
        // Service sub-metrics appear only for the replica that has them.
        assert!(text.contains("mtmlf_cluster_replica_requests_total{replica=\"0\"} 60"));
        assert!(!text.contains("mtmlf_cluster_replica_requests_total{replica=\"1\"}"));
        assert!(text.contains("mtmlf_cluster_replica_cache_entries{replica=\"0\"} 9"));
        assert!(text.contains("mtmlf_cluster_replica_model_version{replica=\"0\"} 3"));
        assert!(!text.contains("mtmlf_cluster_replica_model_version{replica=\"1\"}"));
    }

    #[test]
    fn seconds_formatting_is_exact_and_trimmed() {
        assert_eq!(seconds(0), "0");
        assert_eq!(seconds(2), "0.000000002");
        assert_eq!(seconds(1u64 << 31), "2.147483648");
        assert_eq!(seconds(1_000_000_000), "1");
        assert_eq!(seconds(1_500_000_000), "1.5");
        assert_eq!(seconds(70_000), "0.00007");
    }

    #[test]
    fn default_snapshot_is_empty_and_closed() {
        let m = MetricsSnapshot::default();
        assert_eq!(m.requests, 0);
        assert_eq!(m.breaker_state, BreakerState::Closed);
        assert!(!m.tracing_enabled);
        assert_eq!(m.cache_hit_rate(), 0.0);
        assert_eq!(m.stage(Stage::Forward).count, 0);
    }
}
