//! Online model lifecycle: a versioned registry and one atomic swap point.
//!
//! The paper's central claim is that one transferable model can serve
//! evolving workloads: pre-train, transfer to a new database, serve it.
//! This module makes the last step operational for a live
//! [`PlannerService`](crate::serve::PlannerService):
//!
//! 1. [`ModelRegistry`] — a directory of versioned, checksummed weight
//!    snapshots over the persist envelope (`crate::persist`). Versions are
//!    monotonic; every load re-validates the FNV-1a checksum, so a
//!    truncated or bit-flipped candidate is rejected with
//!    [`MtmlfError::Corrupt`](crate::error::MtmlfError::Corrupt) *before*
//!    any parameter is touched and can never be promoted.
//! 2. [`ModelSlot`] — the swap point itself: one lock over the live model
//!    and its version. Workers read it *once per job* through
//!    [`ModelSlot::active`], so a job is planned end-to-end by exactly
//!    one version; the swap is a single short write-lock pointer exchange,
//!    and in-flight jobs keep their `Arc` to the old version until they
//!    finish.
//!
//! A rollback is a re-adopt: the registry keeps every published version,
//! so [`PlannerService::adopt_version`](crate::serve::PlannerService::adopt_version)
//! with an older version restores it bitwise, checksum-verified.
//!
//! Candidate models must be *freshly constructed* instances
//! (`MtmlfQo::new` is deterministic per seed): parameters are shared
//! handles, so loading registry weights into anything aliasing the live
//! model would mutate it in place. [`ModelRegistry::load_into`] therefore
//! takes `&mut MtmlfQo` — the caller proves it owns the target exclusively.
//!
//! Determinism (lint rule L2, strict tier like `trace.rs`): this module
//! never reads a std clock and never names one.

use crate::model::MtmlfQo;
use crate::Result;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// A monotonically increasing model version. `ModelVersion(0)` is the
/// boot version of a service started from an unregistered model; the
/// registry hands out versions starting at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ModelVersion(pub u64);

impl ModelVersion {
    /// The successor version.
    pub fn next(self) -> Self {
        ModelVersion(self.0.saturating_add(1))
    }
}

impl fmt::Display for ModelVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

// ---------------------------------------------------------------------------
// Model registry
// ---------------------------------------------------------------------------

/// A directory of versioned weight snapshots in the checksummed persist
/// envelope. Thread-safe: `publish` serializes version assignment under a
/// mutex, so concurrent publishers get distinct, strictly increasing
/// versions.
pub struct ModelRegistry {
    dir: PathBuf,
    /// Sorted list of versions present on disk.
    versions: Mutex<Vec<u64>>,
}

impl ModelRegistry {
    /// Opens (creating if needed) a registry at `dir` and scans it for
    /// existing snapshots. Files that do not match the snapshot naming
    /// scheme are ignored.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut versions = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            if let Some(v) = Self::parse_version(&entry.file_name().to_string_lossy()) {
                versions.push(v);
            }
        }
        versions.sort_unstable();
        versions.dedup();
        Ok(Self {
            dir,
            versions: Mutex::new(versions),
        })
    }

    fn parse_version(name: &str) -> Option<u64> {
        let rest = name.strip_prefix("model-v")?;
        let digits = rest.strip_suffix(".weights")?;
        digits.parse().ok()
    }

    fn file_name(version: ModelVersion) -> String {
        // Zero-padded so lexicographic directory order equals version order.
        format!("model-v{:020}.weights", version.0)
    }

    /// The on-disk path of `version`'s snapshot (whether or not it exists).
    /// Fault-injection tests corrupt the file behind this path to prove
    /// that a damaged candidate can never be promoted.
    pub fn path_of(&self, version: ModelVersion) -> PathBuf {
        self.dir.join(Self::file_name(version))
    }

    /// Snapshots `model`'s weights as the next version and returns it.
    /// The write goes to a temporary file first and is renamed into place,
    /// so a crash mid-publish leaves no half-written snapshot under a
    /// version name — and even if it did, the checksum check on load
    /// rejects it.
    pub fn publish(&self, model: &MtmlfQo) -> Result<ModelVersion> {
        let mut versions = self.versions.lock().unwrap_or_else(PoisonError::into_inner);
        let version = ModelVersion(versions.last().copied().unwrap_or(0).saturating_add(1));
        let path = self.path_of(version);
        let tmp = path.with_extension("weights.tmp");
        model.save_weights(&tmp)?;
        std::fs::rename(&tmp, &path)?;
        versions.push(version.0);
        Ok(version)
    }

    /// All versions on disk, oldest first.
    pub fn versions(&self) -> Vec<ModelVersion> {
        self.versions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .copied()
            .map(ModelVersion)
            .collect()
    }

    /// The newest published version, if any.
    pub fn latest(&self) -> Option<ModelVersion> {
        self.versions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .last()
            .copied()
            .map(ModelVersion)
    }

    /// Whether `version` has a snapshot on disk.
    pub fn contains(&self, version: ModelVersion) -> bool {
        self.versions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .binary_search(&version.0)
            .is_ok()
    }

    /// Loads `version`'s weights into `target`, a freshly constructed model
    /// of the same architecture. The persist envelope validates magic,
    /// length, and checksum before any parameter is written, so on
    /// [`MtmlfError::Corrupt`](crate::error::MtmlfError::Corrupt) (or any
    /// other error) `target` is untouched — and the live model, which
    /// `target` must not alias, is never at risk.
    pub fn load_into(&self, version: ModelVersion, target: &mut MtmlfQo) -> Result<()> {
        target.load_weights(self.path_of(version))
    }
}

impl fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("dir", &self.dir)
            .field("versions", &self.versions())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// The swap point
// ---------------------------------------------------------------------------

/// The outcome of a [`ModelSlot::swap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapOutcome {
    /// The slot now serves the new version. The displaced model is freed
    /// as soon as the last job still planning with it finishes.
    Swapped {
        /// The version that was displaced.
        previous: ModelVersion,
    },
    /// The requested version was already active; nothing changed (swap is
    /// idempotent — promoting twice equals promoting once).
    AlreadyActive,
}

/// The atomic swap point a [`PlannerService`](crate::serve::PlannerService)
/// plans through.
///
/// # Atomicity argument
///
/// The only state is one `RwLock` over the live model and its version.
/// A cache miss takes the read lock exactly once
/// ([`ModelSlot::active`]) and clones the `Arc` out; a swap takes the write
/// lock and exchanges the pair. Thus:
///
/// * A miss observes the state before a swap or after it — never a mix.
///   "Half-swapped" is unrepresentable because the unit of exchange is one
///   pair, not a field-by-field copy.
/// * Misses in flight that read the old model keep it alive through
///   their own `Arc` and complete normally; the swap never blocks on them
///   and they never block the swap (the write lock is held only for the
///   exchange, not for any planning or freeing).
/// * No request is dropped: a swap changes only the pointer the next miss
///   reads.
pub struct ModelSlot {
    state: RwLock<(Arc<MtmlfQo>, ModelVersion)>,
}

impl ModelSlot {
    /// A slot serving `model` as [`ModelVersion::default`] (v0).
    pub fn new(model: Arc<MtmlfQo>) -> Self {
        Self::with_version(model, ModelVersion::default())
    }

    /// A slot serving `model` as `version`.
    pub fn with_version(model: Arc<MtmlfQo>, version: ModelVersion) -> Self {
        Self {
            state: RwLock::new((model, version)),
        }
    }

    /// The active model and its version, read together. A cache miss
    /// calls this once and plans, retries included, with the returned
    /// `Arc`, so no request ever straddles a swap.
    pub fn active(&self) -> (Arc<MtmlfQo>, ModelVersion) {
        let state = self.state.read().unwrap_or_else(PoisonError::into_inner);
        (Arc::clone(&state.0), state.1)
    }

    /// The active version.
    pub fn version(&self) -> ModelVersion {
        self.state.read().unwrap_or_else(PoisonError::into_inner).1
    }

    /// Atomically makes `model` the active version. Idempotent on
    /// `version`: re-swapping the already-active version is a no-op.
    pub fn swap(&self, model: Arc<MtmlfQo>, version: ModelVersion) -> SwapOutcome {
        let mut state = self.state.write().unwrap_or_else(PoisonError::into_inner);
        if state.1 == version {
            return SwapOutcome::AlreadyActive;
        }
        let (displaced, previous) = std::mem::replace(&mut *state, (model, version));
        // Release the lock before the displaced model can drop: when this
        // was its last handle, freeing it must not stall every miss's
        // read.
        drop(state);
        drop(displaced);
        SwapOutcome::Swapped { previous }
    }
}

impl fmt::Debug for ModelSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelSlot")
            .field("version", &self.version())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_ordering_and_display() {
        assert!(ModelVersion(1) < ModelVersion(2));
        assert_eq!(ModelVersion(3).next(), ModelVersion(4));
        assert_eq!(ModelVersion(7).to_string(), "v7");
        assert_eq!(ModelVersion::default(), ModelVersion(0));
    }

    #[test]
    fn registry_file_names_sort_like_versions() {
        let a = ModelRegistry::file_name(ModelVersion(9));
        let b = ModelRegistry::file_name(ModelVersion(10));
        assert!(a < b, "zero padding keeps lexicographic == numeric");
        assert_eq!(ModelRegistry::parse_version(&a), Some(9));
        assert_eq!(ModelRegistry::parse_version("weights.bin"), None);
        assert_eq!(ModelRegistry::parse_version("model-vX.weights"), None);
    }
}
