//! # mtmlf — A Unified Transferable Model for ML-Enhanced DBMS
//!
//! Rust reproduction of the CIDR 2022 paper's MTMLF framework and its
//! query-optimization case study **MTMLF-QO**.
//!
//! The model follows the paper's Figure 2 architecture:
//!
//! - **(F) Featurization & encoding** ([`featurize`], [`encoder`]) — the
//!   *database-specific* module: per-table transformer encoders `Enc_i`
//!   trained on single-table cardinality estimation summarize each table's
//!   distribution under a filter; a serializer ([`serialize`]) flattens the
//!   tree-structured plan into a node-embedding sequence `E(P)` with tree
//!   positional encodings.
//! - **(S) Shared representation** ([`shared`]) — `Trans_Share`, a
//!   transformer encoder producing one representation `S_i` per plan node,
//!   jointly trained on all tasks (the *task-shared* knowledge).
//! - **(T) Task-specific heads** ([`tasks`], [`transjo`]) — `M_CardEst`
//!   and `M_CostEst` MLPs read per-node cardinality/cost; `Trans_JO`, a
//!   transformer decoder with a pointer output over the query's table
//!   representations, generates the join order as a sequence (seq2seq with
//!   teacher forcing).
//! - **(L) Loss & training** ([`train`]) — the weighted multi-task loss
//!   `L_QO = w_card·L_card + w_cost·L_cost + w_jo·L_jo` (Eq. 1); join-order
//!   training supports both the token-level cross-entropy and the
//!   sequence-level JOEU loss of Section 5 ([`joeu()`]).
//! - **Beam search** ([`beam`]) — the legality-pruned beam decoding of
//!   Section 4.3: the query's join-graph adjacency masks candidates at
//!   every step, so emitted orders are guaranteed executable.
//! - **Meta-learning** ([`meta`]) — Algorithm 1 (MLA): per-DB (F) modules,
//!   cross-DB shuffled training of (S)+(T), and transfer to a new DB by
//!   training only its featurizer (plus optional fine-tuning).
//! - **Serving** ([`serve`], [`cache`], [`batch`]) — a thread-safe
//!   [`PlannerService`] over a trained model: a sharded plan cache keyed by
//!   canonical query fingerprints, one model pass per cache miss on the
//!   calling thread, and latency/throughput metrics. Responses are bitwise
//!   identical to the single-threaded facade.
//! - **Fault tolerance** ([`resilience`]) — per-request deadlines, a
//!   circuit breaker over the model path, bounded deterministic retry,
//!   admission control, and a classical-optimizer [`FallbackPlanner`], so
//!   a model failure never becomes a query failure (DESIGN.md §9's
//!   degradation ladder).
//! - **Clustered serving** ([`cluster`], [`client`]) — N replica services
//!   behind a consistent-hash router ([`ClusterService`]): canonical query
//!   fingerprints shard onto a virtual-node [`HashRing`], plans gossip to
//!   peer caches with epoch-tombstoned invalidation, and per-replica
//!   circuit breakers fail requests over to ring survivors. Single-node and
//!   cluster modes share the [`PlanClient`] trait, so callers are
//!   mode-agnostic (DESIGN.md §12).
//! - **Observability** ([`trace`], [`metrics`]) — plan-lifecycle tracing
//!   (per-[`trace::Stage`] latency histograms plus a ring buffer of
//!   complete request traces, opt-in via
//!   `PlannerService::builder(..).tracing(..)`) and Prometheus text
//!   exposition of every service counter, histogram, and gauge
//!   ([`metrics::render_prometheus`]); DESIGN.md §10.
//! - **Model lifecycle** ([`lifecycle`]) — a versioned, checksummed
//!   [`ModelRegistry`] over the persist envelope and an atomic hot swap of
//!   the live model ([`ModelSlot`]); a rollback re-adopts an older
//!   registry version (DESIGN.md §14).
//! - **Durability** ([`durable`]) — a write-behind persistent plan cache:
//!   an append-only checksummed record log with snapshot compaction
//!   behind [`PlanStore`], opened via
//!   `PlannerService::builder(..).durable(path)` so a rebooted service
//!   warm-starts its cache and serves the first pass of a repeated
//!   workload bitwise-identically with zero model forwards. Tombstone and
//!   epoch records flush eagerly, so invalidations and hot-swap clears
//!   survive any crash; recovery replays the longest valid log prefix and
//!   truncates torn tails (DESIGN.md §16).
//!
//! One deliberate implementation choice: the paper formulates `P̂_t` as a
//! fixed-length multinoulli over the database's `n` tables. This
//! reproduction computes the same distribution with a *pointer* layer
//! (decoder state dotted with each candidate table's shared
//! representation), which is size-agnostic across databases — required for
//! the cross-DB meta-learning experiment, where table counts differ — and
//! reduces to the paper's formulation on a single DB.

#![forbid(unsafe_code)]

pub mod batch;
pub mod beam;
pub mod cache;
pub mod client;
pub mod cluster;
pub mod config;
pub mod durable;
pub mod encoder;
pub mod envelope;
pub mod error;
pub mod featurize;
pub mod joeu;
pub mod lifecycle;
pub mod meta;
pub mod metrics;
pub mod model;
pub mod persist;
pub mod resilience;
pub mod serialize;
pub mod serve;
pub mod shared;
pub mod tasks;
pub mod trace;
pub mod train;
pub mod transjo;

pub use batch::{plan_batch, plan_traced, PlannedQuery};
pub use beam::{BeamConfig, Legality, TreeShape};
pub use cache::ShardedLruCache;
pub use client::{PlanClient, PlanPayload, PlanRequest, PlanResponse, PlanSource};
pub use cluster::{ClusterBuilder, ClusterConfig, ClusterService, HashRing, ReplicaId};
pub use config::{LossWeights, MtmlfConfig, MtmlfConfigBuilder};
pub use durable::{DurableConfig, DurableLog, LogRecord, PlanStore, RecoveryReport};
pub use error::MtmlfError;
/// The crate's unified error type, under its conventional short name.
pub use error::MtmlfError as Error;
pub use featurize::FeaturizationModule;
pub use joeu::joeu;
pub use lifecycle::{ModelRegistry, ModelSlot, ModelVersion, SwapOutcome};
pub use meta::MetaLearner;
pub use metrics::{render_prometheus, MetricsSnapshot};
pub use model::MtmlfQo;
pub use resilience::{
    Admission, BreakerConfig, BreakerState, CircuitBreaker, Clock, FallbackPlanner, ManualClock,
    RetryPolicy, SystemClock,
};
pub use serve::{LatencyHistogram, PlannerService, ServiceBuilder, ServiceConfig};
pub use trace::{RequestTrace, Stage, StageRecorder, StageSpan, TraceConfig, TraceOutcome, Tracer};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MtmlfError>;

/// One-line imports for the common workflow: build a model, plan queries,
/// serve them concurrently.
///
/// ```no_run
/// use mtmlf::prelude::*;
/// ```
pub mod prelude {
    pub use crate::beam::{BeamConfig, Legality, TreeShape};
    pub use crate::client::{PlanClient, PlanPayload, PlanRequest, PlanResponse, PlanSource};
    pub use crate::cluster::{ClusterBuilder, ClusterConfig, ClusterService, ReplicaId};
    pub use crate::config::{MtmlfConfig, MtmlfConfigBuilder};
    pub use crate::durable::{DurableConfig, PlanStore};
    pub use crate::error::MtmlfError;
    pub use crate::lifecycle::{ModelRegistry, ModelVersion, SwapOutcome};
    pub use crate::metrics::{render_prometheus, MetricsSnapshot};
    pub use crate::model::MtmlfQo;
    pub use crate::resilience::{BreakerConfig, BreakerState, FallbackPlanner, RetryPolicy};
    pub use crate::serve::{PlannerService, ServiceBuilder, ServiceConfig};
    pub use crate::trace::{RequestTrace, Stage, StageSpan, TraceConfig, TraceOutcome};
    pub use crate::Result;
    pub use mtmlf_query::{JoinOrder, Query};
}
