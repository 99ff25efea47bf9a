//! Fault-tolerance primitives for the serving path.
//!
//! The degradation ladder (DESIGN.md §9) is: plan cache → model pass →
//! bounded retry → classical fallback → load shedding. This module holds
//! the pieces the ladder is built from:
//!
//! * [`Clock`] — an injectable monotonic time source. Planning code is
//!   forbidden from reading the wall clock directly (lint rule L2); the
//!   breaker measures cool-downs through this trait so tests and the
//!   interleaving model can drive time deterministically.
//! * [`CircuitBreaker`] — Closed → Open → HalfOpen failure isolation for
//!   the model path, with a consecutive-failure threshold and a cool-down
//!   before a single half-open probe is admitted.
//! * [`RetryPolicy`] — bounded retry with deterministic exponential
//!   backoff for transient errors.
//! * [`FallbackPlanner`] — the classical `optd` PostgreSQL-style DP
//!   optimizer, answering when the model path errors, times out, or the
//!   breaker is open. A model failure must never become a query failure.
//! * [`FaultPlan`] (tests / `fault-injection` feature only) — a seeded,
//!   deterministic fault-injection harness consulted ahead of every model
//!   forward: error-on-nth-forward, latency spikes, and panicking forwards
//!   (poisoned-lock) simulation, driving the chaos suite in
//!   `crates/core/tests/chaos.rs`.

use crate::error::MtmlfError;
use crate::Result;
use mtmlf_optd::PgOptimizer;
use mtmlf_query::{JoinOrder, Query};
use mtmlf_storage::Database;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A monotonic time source: elapsed time since an arbitrary fixed epoch.
///
/// The circuit breaker measures cool-downs through this trait instead of
/// calling `Instant::now` so that (a) lint rule L2's determinism holds for
/// planning code and (b) tests can step time manually ([`ManualClock`]).
pub trait Clock: fmt::Debug + Send + Sync {
    /// Time elapsed since the clock's epoch. Must be monotonic.
    fn now(&self) -> Duration;
}

/// The production [`Clock`]: monotonic time from `std::time::Instant`,
/// anchored at construction.
#[derive(Debug)]
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    /// Creates a clock whose epoch is "now".
    pub fn new() -> Self {
        // The one sanctioned wall-clock read on the planning path: every
        // other component receives time through the Clock trait.
        let epoch = Instant::now(); // lint: allow(clock)
        Self { epoch }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }
}

/// A hand-cranked [`Clock`] for deterministic tests: time only moves when
/// [`ManualClock::advance`] is called.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves time forward by `by`.
    pub fn advance(&self, by: Duration) {
        let nanos = u64::try_from(by.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }
}

/// Circuit-breaker tuning. Part of `ServiceConfig`.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive model-path failures that trip the breaker open.
    /// `0` disables the breaker entirely (every request is admitted).
    pub failure_threshold: u32,
    /// How long an open breaker rejects before admitting one half-open
    /// probe. Also bounds how long a probe may stay unresolved before
    /// another request may take it over (recovery from a probe whose
    /// planning panicked).
    pub cooldown: Duration,
    /// The time source cool-downs are measured with.
    pub clock: Arc<dyn Clock>,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 5,
            cooldown: Duration::from_millis(250),
            clock: Arc::new(SystemClock::new()),
        }
    }
}

/// The breaker's three states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: all requests go to the model path.
    Closed,
    /// Tripped: model path is skipped until the cool-down elapses.
    Open,
    /// Probing: one request is testing whether the model path recovered.
    HalfOpen,
}

/// What [`CircuitBreaker::try_acquire`] decided for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: run the model path normally.
    Admitted,
    /// Breaker half-open and this request is the probe: run the model path
    /// and report the outcome — it decides whether the breaker closes.
    Probe,
    /// Breaker open (or another probe is in flight): skip the model path
    /// and degrade straight to the fallback.
    Rejected,
}

struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Duration,
    probe_in_flight: bool,
    probe_started: Duration,
}

/// A Closed → Open → HalfOpen circuit breaker guarding the model path.
///
/// Every admitted or probing request must report its outcome with
/// [`CircuitBreaker::on_success`] / [`CircuitBreaker::on_failure`]. A probe
/// whose holder dies unreported is taken over by a later request once the
/// cool-down has elapsed again, so a panicked probe cannot wedge the
/// breaker half-open forever. The `breaker-*` models in `mtmlf-lint`
/// explore this protocol's interleavings exhaustively for small schedules.
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
    opened_total: AtomicU64,
}

impl fmt::Debug for CircuitBreaker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CircuitBreaker")
            .field("state", &self.state())
            .field("config", &self.config)
            .finish()
    }
}

impl CircuitBreaker {
    /// Creates a closed breaker.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: Duration::ZERO,
                probe_in_flight: false,
                probe_started: Duration::ZERO,
            }),
            opened_total: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Decides whether one request may use the model path right now.
    pub fn try_acquire(&self) -> Admission {
        if self.config.failure_threshold == 0 {
            return Admission::Admitted;
        }
        let now = self.config.clock.now();
        let mut g = self.lock();
        match g.state {
            BreakerState::Closed => Admission::Admitted,
            BreakerState::Open => {
                if now.saturating_sub(g.opened_at) >= self.config.cooldown {
                    g.state = BreakerState::HalfOpen;
                    g.probe_in_flight = true;
                    g.probe_started = now;
                    Admission::Probe
                } else {
                    Admission::Rejected
                }
            }
            BreakerState::HalfOpen => {
                if g.probe_in_flight && now.saturating_sub(g.probe_started) < self.config.cooldown {
                    Admission::Rejected
                } else {
                    // The previous probe never reported (its planning
                    // panicked):
                    // hand the probe to this request rather than wedging.
                    g.probe_in_flight = true;
                    g.probe_started = now;
                    Admission::Probe
                }
            }
        }
    }

    /// Reports a model-path success: closes the breaker and resets counts.
    pub fn on_success(&self) {
        if self.config.failure_threshold == 0 {
            return;
        }
        let mut g = self.lock();
        g.state = BreakerState::Closed;
        g.consecutive_failures = 0;
        g.probe_in_flight = false;
    }

    /// Reports a model-path failure. Counts toward the trip threshold when
    /// closed; re-opens immediately when it was the half-open probe.
    pub fn on_failure(&self) {
        if self.config.failure_threshold == 0 {
            return;
        }
        let now = self.config.clock.now();
        let mut g = self.lock();
        match g.state {
            BreakerState::HalfOpen => {
                g.state = BreakerState::Open;
                g.opened_at = now;
                g.probe_in_flight = false;
                self.opened_total.fetch_add(1, Ordering::Relaxed);
            }
            BreakerState::Closed => {
                g.consecutive_failures += 1;
                if g.consecutive_failures >= self.config.failure_threshold {
                    g.state = BreakerState::Open;
                    g.opened_at = now;
                    self.opened_total.fetch_add(1, Ordering::Relaxed);
                }
            }
            // A straggler that was admitted before the trip: the breaker
            // is already open, nothing more to record.
            BreakerState::Open => {}
        }
    }

    /// Closes the breaker and forgets its failure count and any probe, as
    /// if freshly built; [`Self::times_opened`] keeps its count.
    pub fn reset(&self) {
        let mut g = self.lock();
        g.state = BreakerState::Closed;
        g.consecutive_failures = 0;
        g.probe_in_flight = false;
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// How many times the breaker has transitioned to Open.
    pub fn times_opened(&self) -> u64 {
        self.opened_total.load(Ordering::Relaxed)
    }
}

/// Bounded retry with deterministic exponential backoff. Part of
/// `ServiceConfig`; applied only to [transient](is_transient) errors.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` disables retry).
    pub max_retries: u32,
    /// Backoff before retry `n` is `base_backoff * 2^n` — deterministic,
    /// no jitter, so replays and tests are exact.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 1,
            base_backoff: Duration::from_micros(100),
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff before retry number `retry` (0-based).
    pub fn backoff(&self, retry: u32) -> Duration {
        self.base_backoff.saturating_mul(1u32 << retry.min(16))
    }
}

/// Whether an error is worth retrying: infrastructure hiccups are, a
/// query the model structurally cannot plan (too many tables, missing
/// encoder, illegal graph) is not — it would fail identically every time.
pub fn is_transient(err: &MtmlfError) -> bool {
    matches!(err, MtmlfError::Service(_) | MtmlfError::Internal(_))
}

/// The classical-optimizer safety net: a PostgreSQL-style DP optimizer
/// (from `mtmlf-optd`) that answers when the learned path cannot.
///
/// Returns the same `(join order, root cardinality, cost)` shape as the
/// model path, so a degraded response is indistinguishable to callers
/// except for `PlanSource::Fallback`. Deterministic: same database and
/// query always produce the same plan.
#[derive(Clone)]
pub struct FallbackPlanner {
    db: Arc<Database>,
}

impl fmt::Debug for FallbackPlanner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FallbackPlanner").finish_non_exhaustive()
    }
}

impl FallbackPlanner {
    /// Creates a fallback planner over an analyzed database.
    pub fn new(db: Arc<Database>) -> Self {
        Self { db }
    }

    /// Plans `query` classically: `(order, est_card, est_cost)`.
    pub fn plan(&self, query: &Query) -> Result<(JoinOrder, f64, f64)> {
        let (planned, card) = PgOptimizer::new(&self.db).plan_with_estimates(query)?;
        Ok((planned.order, card, planned.estimated_cost))
    }
}

#[cfg(any(test, feature = "fault-injection"))]
mod fault {
    //! Deterministic fault injection for model forwards. Compiled only
    //! into tests and the `fault-injection` feature; release builds carry
    //! no trace of it.

    use crate::cache::splitmix64;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// One injected fault, applied to one model forward.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Fault {
        /// The forward fails with a transient `MtmlfError::Service`.
        Error,
        /// The forward stalls for this long before running (latency spike).
        Delay(Duration),
        /// The forward panics mid-plan — simulates a crashing planner and
        /// exercises poisoned-lock recovery end to end.
        Panic,
    }

    /// A deterministic schedule of faults, keyed by the global forward
    /// sequence number (0-based, incremented once per forward *attempt*,
    /// retries included). Optionally overlaid with seeded random errors so
    /// chaos tests can sweep many schedules reproducibly from one seed.
    #[derive(Debug, Default)]
    pub struct FaultPlan {
        scripted: HashMap<u64, Fault>,
        seeded: Option<(u64, u16)>,
        counter: AtomicU64,
    }

    impl FaultPlan {
        /// A plan that injects nothing (until faults are scripted onto it).
        pub fn new() -> Self {
            Self::default()
        }

        /// A plan that errors each forward independently with probability
        /// `error_permille`/1000, derived purely from `seed` and the
        /// forward sequence number. `1000` fails every forward.
        pub fn seeded(seed: u64, error_permille: u16) -> Self {
            Self {
                seeded: Some((seed, error_permille)),
                ..Self::default()
            }
        }

        /// Scripts a transient error on the `n`-th forward.
        pub fn fail_on(mut self, n: u64) -> Self {
            self.scripted.insert(n, Fault::Error);
            self
        }

        /// Scripts a latency spike on the `n`-th forward.
        pub fn delay_on(mut self, n: u64, by: Duration) -> Self {
            self.scripted.insert(n, Fault::Delay(by));
            self
        }

        /// Scripts a panic on the `n`-th forward.
        pub fn panic_on(mut self, n: u64) -> Self {
            self.scripted.insert(n, Fault::Panic);
            self
        }

        /// Consumes the next forward sequence number and returns the fault
        /// (if any) to apply to that forward.
        pub fn next_fault(&self) -> Option<Fault> {
            let seq = self.counter.fetch_add(1, Ordering::SeqCst);
            if let Some(f) = self.scripted.get(&seq) {
                return Some(*f);
            }
            let (seed, permille) = self.seeded?;
            if splitmix64(seed ^ seq) % 1000 < u64::from(permille) {
                Some(Fault::Error)
            } else {
                None
            }
        }

        /// Forward attempts observed so far.
        pub fn forwards(&self) -> u64 {
            self.counter.load(Ordering::SeqCst)
        }

        /// Applies the next scheduled fault at a forward site: sleeps
        /// through a latency spike, panics for a crash simulation,
        /// or returns the transient error the forward should fail with.
        pub fn inject(&self) -> Result<(), crate::MtmlfError> {
            match self.next_fault() {
                Some(Fault::Error) => Err(crate::MtmlfError::Service(
                    "injected fault: model forward failed".into(),
                )),
                Some(Fault::Delay(by)) => {
                    std::thread::sleep(by);
                    Ok(())
                }
                Some(Fault::Panic) => panic!("injected fault: forward panic"),
                None => Ok(()),
            }
        }
    }
}

#[cfg(any(test, feature = "fault-injection"))]
pub use fault::{Fault, FaultPlan};

#[cfg(test)]
mod tests {
    use super::*;

    fn manual_breaker(threshold: u32, cooldown_ms: u64) -> (CircuitBreaker, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown: Duration::from_millis(cooldown_ms),
            clock: Arc::clone(&clock) as Arc<dyn Clock>,
        });
        (breaker, clock)
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_through_probe() {
        let (b, clock) = manual_breaker(2, 100);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.try_acquire(), Admission::Admitted);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.times_opened(), 1);

        // Open + cool-down not elapsed: reject.
        assert_eq!(b.try_acquire(), Admission::Rejected);
        clock.advance(Duration::from_millis(99));
        assert_eq!(b.try_acquire(), Admission::Rejected);

        // Cool-down elapsed: exactly one probe, competitors rejected.
        clock.advance(Duration::from_millis(1));
        assert_eq!(b.try_acquire(), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.try_acquire(), Admission::Rejected);

        // Probe success closes; counts reset (two fresh failures re-trip).
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.try_acquire(), Admission::Admitted);
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.times_opened(), 2);
    }

    #[test]
    fn failed_probe_reopens_and_restarts_cooldown() {
        let (b, clock) = manual_breaker(1, 50);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        clock.advance(Duration::from_millis(50));
        assert_eq!(b.try_acquire(), Admission::Probe);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.times_opened(), 2);
        assert_eq!(b.try_acquire(), Admission::Rejected);
        clock.advance(Duration::from_millis(50));
        assert_eq!(b.try_acquire(), Admission::Probe);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn unresolved_probe_is_taken_over_after_cooldown() {
        let (b, clock) = manual_breaker(1, 50);
        b.on_failure();
        clock.advance(Duration::from_millis(50));
        assert_eq!(b.try_acquire(), Admission::Probe);
        // The probe holder dies without reporting. Within the cool-down the
        // breaker stays conservative...
        clock.advance(Duration::from_millis(49));
        assert_eq!(b.try_acquire(), Admission::Rejected);
        // ...but after it, a new request inherits the probe: no wedge.
        clock.advance(Duration::from_millis(1));
        assert_eq!(b.try_acquire(), Admission::Probe);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn zero_threshold_disables_breaker() {
        let (b, _clock) = manual_breaker(0, 50);
        for _ in 0..10 {
            b.on_failure();
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.try_acquire(), Admission::Admitted);
        assert_eq!(b.times_opened(), 0);
    }

    #[test]
    fn retry_backoff_is_deterministic_and_exponential() {
        let p = RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_micros(100),
        };
        assert_eq!(p.backoff(0), Duration::from_micros(100));
        assert_eq!(p.backoff(1), Duration::from_micros(200));
        assert_eq!(p.backoff(2), Duration::from_micros(400));
        // Saturates instead of overflowing for absurd retry counts.
        let huge = RetryPolicy {
            max_retries: u32::MAX,
            base_backoff: Duration::from_secs(u64::MAX / 2),
        };
        let _ = huge.backoff(60);
    }

    #[test]
    fn transient_classification() {
        assert!(is_transient(&MtmlfError::Service("worker died".into())));
        assert!(is_transient(&MtmlfError::Internal("oops".into())));
        assert!(!is_transient(&MtmlfError::TooManyQueryTables {
            got: 9,
            max: 4
        }));
        assert!(!is_transient(&MtmlfError::NoLegalOrder));
        assert!(!is_transient(&MtmlfError::Timeout));
    }

    #[test]
    fn fault_plan_is_deterministic_by_sequence() {
        let plan = FaultPlan::new()
            .fail_on(1)
            .delay_on(2, Duration::from_millis(5))
            .panic_on(4);
        assert_eq!(plan.next_fault(), None);
        assert_eq!(plan.next_fault(), Some(Fault::Error));
        assert_eq!(
            plan.next_fault(),
            Some(Fault::Delay(Duration::from_millis(5)))
        );
        assert_eq!(plan.next_fault(), None);
        assert_eq!(plan.next_fault(), Some(Fault::Panic));
        assert_eq!(plan.forwards(), 5);
    }

    #[test]
    fn seeded_fault_plan_replays_exactly() {
        let a = FaultPlan::seeded(42, 300);
        let b = FaultPlan::seeded(42, 300);
        let run_a: Vec<_> = (0..64).map(|_| a.next_fault()).collect();
        let run_b: Vec<_> = (0..64).map(|_| b.next_fault()).collect();
        assert_eq!(run_a, run_b);
        let errors = run_a.iter().filter(|f| f.is_some()).count();
        assert!(errors > 0 && errors < 64, "p=0.3 should hit some, not all");
        // permille=1000 fails every forward; 0 fails none.
        let always = FaultPlan::seeded(7, 1000);
        assert!((0..16).all(|_| always.next_fault() == Some(Fault::Error)));
        let never = FaultPlan::seeded(7, 0);
        assert!((0..16).all(|_| never.next_fault().is_none()));
    }
}
