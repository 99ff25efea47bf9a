//! The unified client surface for plan serving.
//!
//! Every way of getting a plan out of this crate — the single-threaded
//! [`MtmlfQo`](crate::model::MtmlfQo) facade, a single-node
//! [`PlannerService`](crate::serve::PlannerService), or a sharded
//! [`ClusterService`](crate::cluster::ClusterService) — speaks the same
//! request/response shape and implements the same object-safe
//! [`PlanClient`] trait. Benches, tests, and examples written against
//! `&dyn PlanClient` are mode-agnostic: swapping a facade for a cluster is
//! a constructor change, not a call-site change.
//!
//! The shapes live here (not in [`crate::serve`]) so the client vocabulary
//! has no dependency on any particular serving implementation; `serve`
//! re-exports them for path stability.

use crate::Result;
use mtmlf_query::{JoinOrder, Query};
use std::time::Duration;

/// A planning request. Convertible from a bare [`Query`]; a struct so the
/// API can grow fields without breaking callers.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// The query to plan.
    pub query: Query,
    /// Time budget for this request, measured from the `plan` call. A
    /// response not ready within it becomes
    /// [`MtmlfError::Timeout`](crate::MtmlfError::Timeout), and a miss whose
    /// budget is already spent at admission is dropped before the forward.
    /// `None` falls back to the serving side's default deadline.
    pub deadline: Option<Duration>,
    /// Per-request trace opt-in/out. `None` follows the serving side's
    /// configuration (traced whenever the service was built with
    /// `.tracing(..)`); `Some(false)` opts this request out of tracing even
    /// on a tracing service; `Some(true)` requests a trace (a no-op when
    /// the service holds no tracer).
    pub trace: Option<bool>,
}

impl PlanRequest {
    /// A request with no per-request deadline or trace override.
    pub fn new(query: Query) -> Self {
        Self {
            query,
            deadline: None,
            trace: None,
        }
    }

    /// Sets this request's deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets this request's trace opt-in (`true`) or opt-out (`false`).
    pub fn with_tracing(mut self, trace: bool) -> Self {
        self.trace = Some(trace);
        self
    }
}

impl From<Query> for PlanRequest {
    fn from(query: Query) -> Self {
        Self::new(query)
    }
}

/// Where a response came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// Replayed from the plan cache without running the model.
    Cache,
    /// Computed by a model pass.
    Model,
    /// Computed by the classical
    /// [`FallbackPlanner`](crate::resilience::FallbackPlanner) because the
    /// model path failed or the circuit breaker rejected it.
    Fallback,
}

/// The durable payload of a planned query: what the plan cache stores and
/// what cluster replicas exchange when warming each other.
///
/// A [`PlanResponse`] is a `PlanPayload` plus per-call context (source,
/// latency); the payload is context-free and safe to replay.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanPayload {
    /// The chosen join order (always legal for the query).
    pub join_order: JoinOrder,
    /// Predicted root cardinality of the chosen plan.
    pub est_card: f64,
    /// Predicted total cost of the chosen plan.
    pub est_cost: f64,
}

impl PlanPayload {
    /// Assembles a payload from the `(order, card, cost)` triple the model
    /// and fallback planners return.
    pub fn new(join_order: JoinOrder, est_card: f64, est_cost: f64) -> Self {
        Self {
            join_order,
            est_card,
            est_cost,
        }
    }
}

/// A planned query as returned by any [`PlanClient`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanResponse {
    /// The chosen join order (always legal for the query).
    pub join_order: JoinOrder,
    /// Predicted root cardinality of the chosen plan.
    pub est_card: f64,
    /// Predicted total cost of the chosen plan.
    pub est_cost: f64,
    /// Whether the answer was cached, freshly computed, or degraded.
    pub source: PlanSource,
    /// End-to-end latency observed by the calling thread, from the `plan`
    /// call to the response.
    pub latency: Duration,
}

impl PlanResponse {
    /// Builds a response from a stored payload plus call context.
    pub fn from_payload(payload: PlanPayload, source: PlanSource, latency: Duration) -> Self {
        Self {
            join_order: payload.join_order,
            est_card: payload.est_card,
            est_cost: payload.est_cost,
            source,
            latency,
        }
    }

    /// The context-free payload of this response (what a cache would store).
    pub fn payload(&self) -> PlanPayload {
        PlanPayload {
            join_order: self.join_order.clone(),
            est_card: self.est_card,
            est_cost: self.est_cost,
        }
    }
}

/// The mode-agnostic planning interface.
///
/// Implemented by [`MtmlfQo`](crate::model::MtmlfQo) (single-threaded
/// facade), [`PlannerService`](crate::serve::PlannerService) (single node),
/// and [`ClusterService`](crate::cluster::ClusterService) (sharded
/// replicas). Object-safe: callers can hold `Arc<dyn PlanClient>` and stay
/// oblivious to the serving topology.
///
/// Contract shared by every implementation:
///
/// * **Exactly one result per request** — a call returns one
///   [`PlanResponse`] or one typed error, never hangs, never double-answers.
/// * **Deadlines are honored** — a request whose deadline expires gets
///   [`MtmlfError::Timeout`](crate::MtmlfError::Timeout).
/// * **Payload fidelity** — for a given query, model-path responses carry
///   the same `(join_order, est_card, est_cost)` the facade would produce.
pub trait PlanClient: Send + Sync {
    /// Plans one query.
    fn plan(&self, request: PlanRequest) -> Result<PlanResponse>;

    /// Plans a batch of queries, one result per request in order, by
    /// calling [`PlanClient::plan`] on each. No implementation overrides
    /// it: every model pass plans one query.
    fn plan_batch(&self, requests: Vec<PlanRequest>) -> Vec<Result<PlanResponse>> {
        requests.into_iter().map(|r| self.plan(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MtmlfError;
    use mtmlf_storage::TableId;
    use std::collections::BTreeMap;

    fn query() -> Query {
        Query::new(vec![TableId(0)], vec![], BTreeMap::new()).expect("query")
    }

    #[test]
    fn request_builders_compose() {
        let r = PlanRequest::new(query())
            .with_deadline(Duration::from_millis(5))
            .with_tracing(false);
        assert_eq!(r.deadline, Some(Duration::from_millis(5)));
        assert_eq!(r.trace, Some(false));
        let bare: PlanRequest = query().into();
        assert_eq!(bare.deadline, None);
        assert_eq!(bare.trace, None);
    }

    #[test]
    fn payload_roundtrips_through_response() {
        let payload = PlanPayload::new(JoinOrder::LeftDeep(vec![TableId(0)]), 10.0, 3.5);
        let resp = PlanResponse::from_payload(
            payload.clone(),
            PlanSource::Model,
            Duration::from_micros(7),
        );
        assert_eq!(resp.est_card, 10.0);
        assert_eq!(resp.source, PlanSource::Model);
        assert_eq!(resp.payload(), payload);
    }

    #[test]
    fn plan_client_is_object_safe_and_batch_defaults_to_loop() {
        struct Fixed(PlanPayload);
        impl PlanClient for Fixed {
            fn plan(&self, _request: PlanRequest) -> Result<PlanResponse> {
                Ok(PlanResponse::from_payload(
                    self.0.clone(),
                    PlanSource::Model,
                    Duration::ZERO,
                ))
            }
        }
        let client: Box<dyn PlanClient> = Box::new(Fixed(PlanPayload::new(
            JoinOrder::LeftDeep(vec![TableId(0)]),
            1.0,
            2.0,
        )));
        let out = client.plan_batch(vec![query().into(), query().into()]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.is_ok()));

        struct Failing;
        impl PlanClient for Failing {
            fn plan(&self, _request: PlanRequest) -> Result<PlanResponse> {
                Err(MtmlfError::Timeout)
            }
        }
        let failing: &dyn PlanClient = &Failing;
        let out = failing.plan_batch(vec![query().into()]);
        assert!(matches!(out[0], Err(MtmlfError::Timeout)));
    }
}
