//! The unified top-level error type.
//!
//! Every per-crate error (`StorageError`, `QueryError`, `ExecError`,
//! `OptError`) converts into [`MtmlfError`] via `From`, so application code
//! and the serving layer propagate a single error type (`mtmlf::Error`).

use std::fmt;

/// Errors produced by model construction, configuration, training,
/// inference, and serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MtmlfError {
    /// Underlying storage failure.
    Storage(mtmlf_storage::StorageError),
    /// Underlying query/plan failure.
    Query(mtmlf_query::QueryError),
    /// Underlying execution failure.
    Exec(mtmlf_exec::ExecError),
    /// Underlying classical-optimizer failure.
    Opt(String),
    /// The query touches more tables than the model was configured for.
    TooManyQueryTables {
        /// Tables in the query.
        got: usize,
        /// Configured maximum.
        max: usize,
    },
    /// A table has more columns than the configured featurization width.
    TooManyColumns {
        /// Columns in the table.
        got: usize,
        /// Configured maximum.
        max: usize,
    },
    /// The featurization module has no encoder for a table (not fitted).
    EncoderMissing(u32),
    /// Beam search produced no legal candidate (impossible for connected
    /// queries; indicates a malformed join graph).
    NoLegalOrder,
    /// A training sample lacked the label needed by the requested task.
    MissingLabel(&'static str),
    /// An invalid hyper-parameter combination, rejected at construction by
    /// [`crate::MtmlfConfig::builder`] instead of panicking mid-training.
    InvalidConfig(String),
    /// The planner service could not accept or answer a request (it was
    /// shut down, or planning panicked).
    Service(String),
    /// SQL text could not be parsed into a [`mtmlf_query::Query`].
    Sql(mtmlf_query::SqlError),
    /// An internal invariant was violated. Library code returns this
    /// instead of panicking (lint rule L1), so a single bad request cannot
    /// take down a serving thread.
    Internal(String),
    /// The request's deadline expired before a response was produced. The
    /// caller is free to retry, fall back to a classical plan, or give up.
    Timeout,
    /// The service shed this request at admission because its bounded queue
    /// was full. Callers should back off; nothing was planned.
    Overloaded,
    /// A file-system operation failed (weight save/load). Carries the
    /// rendered `std::io::Error` so the enum stays `Clone + Eq`.
    Io(String),
    /// A persisted artifact (weight checkpoint) failed integrity
    /// validation: bad magic, truncated payload, or checksum mismatch.
    Corrupt(String),
}

impl fmt::Display for MtmlfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Storage(e) => write!(f, "storage error: {e}"),
            Self::Query(e) => write!(f, "query error: {e}"),
            Self::Exec(e) => write!(f, "execution error: {e}"),
            Self::Opt(e) => write!(f, "optimizer error: {e}"),
            Self::TooManyQueryTables { got, max } => {
                write!(f, "query touches {got} tables, model supports {max}")
            }
            Self::TooManyColumns { got, max } => {
                write!(f, "table has {got} columns, featurizer supports {max}")
            }
            Self::EncoderMissing(t) => write!(f, "no trained encoder for table T{t}"),
            Self::NoLegalOrder => write!(f, "beam search found no legal join order"),
            Self::MissingLabel(which) => write!(f, "training sample lacks {which} label"),
            Self::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            Self::Service(why) => write!(f, "planner service error: {why}"),
            Self::Sql(e) => write!(f, "SQL parse error: {e}"),
            Self::Internal(why) => write!(f, "internal invariant violated: {why}"),
            Self::Timeout => write!(f, "request deadline expired before a plan was produced"),
            Self::Overloaded => write!(f, "service overloaded: request shed at admission"),
            Self::Io(why) => write!(f, "I/O error: {why}"),
            Self::Corrupt(why) => write!(f, "corrupt artifact: {why}"),
        }
    }
}

impl std::error::Error for MtmlfError {}

impl From<mtmlf_storage::StorageError> for MtmlfError {
    fn from(e: mtmlf_storage::StorageError) -> Self {
        Self::Storage(e)
    }
}

impl From<mtmlf_query::QueryError> for MtmlfError {
    fn from(e: mtmlf_query::QueryError) -> Self {
        Self::Query(e)
    }
}

impl From<mtmlf_exec::ExecError> for MtmlfError {
    fn from(e: mtmlf_exec::ExecError) -> Self {
        Self::Exec(e)
    }
}

impl From<mtmlf_optd::OptError> for MtmlfError {
    fn from(e: mtmlf_optd::OptError) -> Self {
        Self::Opt(e.to_string())
    }
}

impl From<mtmlf_query::SqlError> for MtmlfError {
    fn from(e: mtmlf_query::SqlError) -> Self {
        Self::Sql(e)
    }
}

impl From<std::io::Error> for MtmlfError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}
