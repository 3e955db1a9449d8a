//! The Lambda-like function runtime with Step-Functions-like retry
//! policies.
//!
//! SpotVerse's control logic runs as serverless functions (paper §4): a
//! metrics-collector on a schedule, an interruption handler on
//! EventBridge events — wrapped in Step Functions so failed or delayed spot
//! requests are retried with backoff. The runtime here accounts invocation
//! duration and memory for billing, executes the caller's closure, and
//! applies the retry policy deterministically in sim time.

use std::collections::BTreeMap;
use std::fmt;

use sim_kernel::{keyed_hash, SimDuration, SimRng, SimTime};

use cloud_compute::{BillingLedger, ServiceKind};
use cloud_market::Usd;

use crate::fault::{ServiceFault, ServiceFaultInjector, ServiceOp};

/// Configuration of a registered function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FunctionConfig {
    /// Allocated memory in MiB (the paper allocates 128 MB).
    pub memory_mib: u32,
    /// Execution timeout (the paper uses 15 minutes).
    pub timeout: SimDuration,
    /// Modelled execution duration per invocation.
    pub exec_duration: SimDuration,
}

impl Default for FunctionConfig {
    fn default() -> Self {
        FunctionConfig {
            memory_mib: 128,
            timeout: SimDuration::from_mins(15),
            exec_duration: SimDuration::from_secs(2),
        }
    }
}

/// A Step-Functions-like retry policy: capped exponential backoff that
/// doubles per retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts (≥ 1).
    pub max_attempts: u32,
    /// Delay before the first retry; each later retry doubles it.
    pub initial_backoff: SimDuration,
    /// Hard cap on any single backoff delay, however many retries have
    /// elapsed.
    pub max_delay: SimDuration,
    /// Maximum deterministic jitter added by [`RetryPolicy::backoff_jittered`];
    /// zero (the default) adds none.
    pub jitter: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            initial_backoff: SimDuration::from_secs(30),
            max_delay: SimDuration::from_hours(1),
            jitter: SimDuration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (1-based): the initial
    /// backoff doubled `retry - 1` times, capped at
    /// [`RetryPolicy::max_delay`] (or at the initial backoff, if larger).
    pub fn backoff_before(&self, retry: u32) -> SimDuration {
        let cap = self.max_delay.as_secs().max(self.initial_backoff.as_secs());
        let doubling = 1u64.checked_shl(retry.saturating_sub(1)).unwrap_or(u64::MAX);
        SimDuration::from_secs(self.initial_backoff.as_secs().saturating_mul(doubling).min(cap))
    }

    /// [`RetryPolicy::backoff_before`] plus deterministic jitter in
    /// `[0, jitter]` seconds, taken from the [`keyed_hash`] of
    /// `(seed, retry, key)`. Distinct keys (e.g. shard ids) spread
    /// re-dispatches so they don't thundering-herd the event bus; identical
    /// inputs always produce the identical delay.
    pub fn backoff_jittered(&self, retry: u32, seed: u64, key: &str) -> SimDuration {
        let base = self.backoff_before(retry);
        let max_jitter = self.jitter.as_secs();
        if max_jitter == 0 {
            return base;
        }
        base + SimDuration::from_secs(keyed_hash(seed, u64::from(retry), key) % (max_jitter + 1))
    }

    /// [`RetryPolicy::backoff_before`] (at least one second) with "equal
    /// jitter": half of it fixed, the rest drawn uniformly from `rng`, so
    /// callers throttled at the same instant retry apart. Ignores
    /// [`RetryPolicy::jitter`].
    pub fn backoff_equal_jitter(&self, retry: u32, rng: &mut SimRng) -> SimDuration {
        let full = self.backoff_before(retry).as_secs().max(1);
        let half = full / 2;
        SimDuration::from_secs(half + rng.uniform_u64(full - half + 1))
    }
}

/// Function-runtime errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FunctionError {
    /// The function name is not registered.
    UnknownFunction(String),
    /// Every attempt failed; carries the last failure message.
    RetriesExhausted {
        /// Function name.
        name: String,
        /// Attempts made.
        attempts: u32,
        /// The last error message.
        last_error: String,
    },
}

impl fmt::Display for FunctionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FunctionError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            FunctionError::RetriesExhausted {
                name,
                attempts,
                last_error,
            } => write!(
                f,
                "function `{name}` failed after {attempts} attempts: {last_error}"
            ),
        }
    }
}

impl std::error::Error for FunctionError {}

/// The outcome of a successful (possibly retried) invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationOutcome<T> {
    /// The closure's value.
    pub value: T,
    /// When the final attempt finished (includes backoff delays).
    pub finished_at: SimTime,
    /// Attempts used.
    pub attempts: u32,
}

/// Per GiB-second compute price.
const GB_SECOND_PRICE: f64 = 1.66667e-5;
/// Per-request price.
const REQUEST_PRICE: f64 = 2.0e-7;

/// The function runtime.
///
/// # Examples
///
/// ```
/// use aws_stack::{FunctionConfig, FunctionRuntime, RetryPolicy};
/// use cloud_compute::BillingLedger;
/// use sim_kernel::SimTime;
///
/// let mut runtime = FunctionRuntime::new();
/// let mut ledger = BillingLedger::new();
/// runtime.register("metrics-collector", FunctionConfig::default());
/// let outcome = runtime.invoke(
///     "metrics-collector",
///     SimTime::ZERO,
///     RetryPolicy::default(),
///     &mut ledger,
///     |attempt| if attempt == 1 { Ok(42) } else { Err("flaky".into()) },
/// )?;
/// assert_eq!(outcome.value, 42);
/// # Ok::<(), aws_stack::FunctionError>(())
/// ```
#[derive(Debug, Default)]
pub struct FunctionRuntime {
    functions: BTreeMap<String, FunctionConfig>,
    injector: Option<Box<dyn ServiceFaultInjector>>,
}

impl FunctionRuntime {
    /// Creates an empty runtime.
    pub fn new() -> Self {
        FunctionRuntime::default()
    }

    /// Installs a fault injector consulted before every invocation
    /// attempt: throttled attempts fail into the retry policy, delayed
    /// attempts push the completion time out. Chaos-only.
    pub fn set_fault_injector(&mut self, injector: Box<dyn ServiceFaultInjector>) {
        self.injector = Some(injector);
    }

    /// Registers (or replaces) a function.
    pub fn register(&mut self, name: impl Into<String>, config: FunctionConfig) {
        self.functions.insert(name.into(), config);
    }

    /// Whether a function is registered.
    pub fn is_registered(&self, name: &str) -> bool {
        self.functions.contains_key(name)
    }

    /// Invokes a function with retries. The closure receives the 1-based
    /// attempt number and returns `Ok(value)` or an error message; each
    /// attempt is billed, and retries are separated by the policy's
    /// backoff in sim time.
    ///
    /// # Errors
    ///
    /// Returns [`FunctionError::UnknownFunction`] for unregistered names and
    /// [`FunctionError::RetriesExhausted`] when every attempt fails.
    pub fn invoke<T, F>(
        &mut self,
        name: &str,
        at: SimTime,
        policy: RetryPolicy,
        ledger: &mut BillingLedger,
        mut body: F,
    ) -> Result<InvocationOutcome<T>, FunctionError>
    where
        F: FnMut(u32) -> Result<T, String>,
    {
        let config = self
            .functions
            .get(name)
            .copied()
            .ok_or_else(|| FunctionError::UnknownFunction(name.to_owned()))?;
        let max_attempts = policy.max_attempts.max(1);
        let mut clock = at;
        let mut last_error = String::new();
        for attempt in 1..=max_attempts {
            if attempt > 1 {
                clock += policy.backoff_before(attempt - 1);
            }
            Self::bill_attempt(config, ledger);
            match self
                .injector
                .as_mut()
                .and_then(|i| i.intercept(ServiceOp::FunctionInvoke, clock))
            {
                Some(ServiceFault::Throttled) => {
                    // The attempt is consumed by the control plane itself.
                    last_error = format!("invocation of `{name}` throttled");
                    clock += config.exec_duration.min(config.timeout);
                    continue;
                }
                Some(ServiceFault::Lost) => {
                    // The request never reached the runtime; the attempt is
                    // consumed waiting for a response that never comes.
                    last_error = format!("invocation of `{name}` lost in transit");
                    clock += config.exec_duration.min(config.timeout);
                    continue;
                }
                Some(ServiceFault::Delayed(d)) => clock += d,
                // Invocations are deduplicated by the runtime itself.
                Some(ServiceFault::Duplicate) | None => {}
            }
            clock += config.exec_duration.min(config.timeout);
            match body(attempt) {
                Ok(value) => {
                    return Ok(InvocationOutcome {
                        value,
                        finished_at: clock,
                        attempts: attempt,
                    });
                }
                Err(e) => last_error = e,
            }
        }
        Err(FunctionError::RetriesExhausted {
            name: name.to_owned(),
            attempts: max_attempts,
            last_error,
        })
    }

    fn bill_attempt(config: FunctionConfig, ledger: &mut BillingLedger) {
        let gb_seconds =
            f64::from(config.memory_mib) / 1024.0 * config.exec_duration.as_secs() as f64;
        let cost = Usd::new(GB_SECOND_PRICE * gb_seconds + REQUEST_PRICE);
        ledger.charge(ServiceKind::FunctionRuntime, cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime() -> (FunctionRuntime, BillingLedger) {
        let mut rt = FunctionRuntime::new();
        rt.register("f", FunctionConfig::default());
        (rt, BillingLedger::new())
    }

    #[test]
    fn first_attempt_success() {
        let (mut rt, mut ledger) = runtime();
        let out = rt
            .invoke("f", SimTime::ZERO, RetryPolicy::default(), &mut ledger, |_| Ok(7))
            .unwrap();
        assert_eq!(out.value, 7);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.finished_at, SimTime::from_secs(2));
        assert!(ledger.total_for_service(ServiceKind::FunctionRuntime) > Usd::ZERO);
        assert_eq!(ledger.len(), 1, "one attempt, one charge");
    }

    #[test]
    fn retries_with_backoff_then_succeeds() {
        let (mut rt, mut ledger) = runtime();
        let out = rt
            .invoke("f", SimTime::ZERO, RetryPolicy::default(), &mut ledger, |attempt| {
                if attempt < 3 {
                    Err("spot request open".into())
                } else {
                    Ok("fulfilled")
                }
            })
            .unwrap();
        assert_eq!(out.attempts, 3);
        // exec(2) + backoff(30) + exec(2) + backoff(60) + exec(2) = 96 s.
        assert_eq!(out.finished_at, SimTime::from_secs(96));
    }

    #[test]
    fn retries_exhausted_is_an_error() {
        let (mut rt, mut ledger) = runtime();
        let err = rt
            .invoke("f", SimTime::ZERO, RetryPolicy::default(), &mut ledger, |_| {
                Err::<(), _>("down".into())
            })
            .unwrap_err();
        match err {
            FunctionError::RetriesExhausted { attempts, last_error, .. } => {
                assert_eq!(attempts, 3);
                assert_eq!(last_error, "down");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn unknown_function_errors() {
        let (mut rt, mut ledger) = runtime();
        let err = rt
            .invoke("ghost", SimTime::ZERO, RetryPolicy::default(), &mut ledger, |_| Ok(()))
            .unwrap_err();
        assert!(matches!(err, FunctionError::UnknownFunction(_)));
        assert!(!rt.is_registered("ghost"));
        assert!(rt.is_registered("f"));
    }

    #[test]
    fn backoff_grows_geometrically() {
        let p = RetryPolicy {
            max_attempts: 5,
            initial_backoff: SimDuration::from_secs(10),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_before(1), SimDuration::from_secs(10));
        assert_eq!(p.backoff_before(2), SimDuration::from_secs(20));
        assert_eq!(p.backoff_before(3), SimDuration::from_secs(40));
    }

    #[test]
    fn backoff_saturates_at_max_delay() {
        let p = RetryPolicy {
            max_attempts: 100,
            initial_backoff: SimDuration::from_secs(30),
            max_delay: SimDuration::from_mins(15),
            jitter: SimDuration::ZERO,
        };
        // 30 * 2^63 overflows u64 seconds; the cap keeps it bounded.
        assert_eq!(p.backoff_before(64), SimDuration::from_mins(15));
        // Still capped where the doubling itself no longer fits in u64.
        assert_eq!(p.backoff_before(4096), SimDuration::from_mins(15));
        // And untouched below the cap.
        assert_eq!(p.backoff_before(2), SimDuration::from_secs(60));
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            jitter: SimDuration::from_secs(40),
            ..RetryPolicy::default()
        };
        let a = p.backoff_jittered(2, 7, "shard-3");
        let b = p.backoff_jittered(2, 7, "shard-3");
        assert_eq!(a, b, "same inputs, same delay");
        let base = p.backoff_before(2);
        assert!(a >= base && a <= base + SimDuration::from_secs(40));
        // Distinct keys spread out (for this seed they genuinely differ).
        assert_ne!(a, p.backoff_jittered(2, 7, "shard-4"));
        // Zero jitter is exactly the plain backoff.
        let plain = RetryPolicy::default();
        assert_eq!(plain.backoff_jittered(2, 7, "shard-3"), plain.backoff_before(2));
    }

    #[test]
    fn each_attempt_is_billed() {
        let (mut rt, mut ledger) = runtime();
        let _ = rt.invoke("f", SimTime::ZERO, RetryPolicy::default(), &mut ledger, |_| {
            Err::<(), _>("x".into())
        });
        assert_eq!(ledger.len(), 3, "three attempts, three charges");
    }
}
