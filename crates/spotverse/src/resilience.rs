//! Bounded exponential backoff with jitter for throttled control-plane
//! calls.
//!
//! Under chaos scenarios the managed services can return throttling
//! errors; the hardened Controller retries those with capped exponential
//! backoff and equal jitter instead of panicking. On the fault-free path
//! the first attempt succeeds and **no randomness is consumed**, so
//! installing the policy changes nothing.

use aws_stack::RetryPolicy;
use sim_kernel::{SimDuration, SimRng, SimTime};

/// Checkpoint writes (the KV progress record, then the working-set
/// upload): four attempts, backoff doubling from 2 s to a 30 s cap.
pub(crate) const CHECKPOINT_WRITE_RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 4,
    initial_backoff: SimDuration::from_secs(2),
    max_delay: SimDuration::from_secs(30),
    jitter: SimDuration::ZERO,
};

/// The result of a retried call.
#[derive(Debug)]
pub struct RetryOutcome<T, E> {
    /// The final attempt's result.
    pub result: Result<T, E>,
    /// When the final attempt ran (`now` + accumulated backoff).
    pub finished_at: SimTime,
    /// How many retries were taken (0 on first-attempt success).
    pub retries: u32,
}

/// Calls `call` at `now`, retrying with equal-jitter exponential backoff
/// ([`RetryPolicy::backoff_equal_jitter`]) while `retryable` holds for the
/// error, up to the policy's attempt budget. Each retry advances the
/// effective call time by the backoff.
pub fn retry_with_backoff<T, E>(
    policy: &RetryPolicy,
    rng: &mut SimRng,
    now: SimTime,
    mut retryable: impl FnMut(&E) -> bool,
    mut call: impl FnMut(SimTime) -> Result<T, E>,
) -> RetryOutcome<T, E> {
    let mut at = now;
    let mut retries = 0;
    loop {
        match call(at) {
            Ok(v) => {
                return RetryOutcome {
                    result: Ok(v),
                    finished_at: at,
                    retries,
                }
            }
            Err(e) => {
                if retries + 1 >= policy.max_attempts || !retryable(&e) {
                    return RetryOutcome {
                        result: Err(e),
                        finished_at: at,
                        retries,
                    };
                }
                retries += 1;
                at += policy.backoff_equal_jitter(retries, rng);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(9)
    }

    #[test]
    fn first_attempt_success_consumes_no_rng() {
        let mut r = rng();
        let before = r.clone().next_u64();
        let out = retry_with_backoff(
            &CHECKPOINT_WRITE_RETRY,
            &mut r,
            SimTime::from_hours(1),
            |_: &&str| true,
            Ok::<_, &str>,
        );
        assert_eq!(out.retries, 0);
        assert_eq!(out.finished_at, SimTime::from_hours(1));
        assert_eq!(r.clone().next_u64(), before);
    }

    #[test]
    fn retries_until_success_advancing_time() {
        let mut r = rng();
        let mut calls = 0;
        let out = retry_with_backoff(
            &CHECKPOINT_WRITE_RETRY,
            &mut r,
            SimTime::ZERO,
            |_: &&str| true,
            |at| {
                calls += 1;
                if calls < 3 {
                    Err("throttled")
                } else {
                    Ok(at)
                }
            },
        );
        assert_eq!(out.retries, 2);
        assert!(out.result.is_ok());
        assert!(out.finished_at > SimTime::ZERO);
    }

    #[test]
    fn gives_up_after_attempt_budget() {
        let mut r = rng();
        let mut calls = 0;
        let out = retry_with_backoff(
            &CHECKPOINT_WRITE_RETRY,
            &mut r,
            SimTime::ZERO,
            |_: &&str| true,
            |_| -> Result<(), &str> {
                calls += 1;
                Err("throttled")
            },
        );
        assert_eq!(calls, 4);
        assert!(out.result.is_err());
    }

    #[test]
    fn non_retryable_errors_fail_fast() {
        let mut r = rng();
        let mut calls = 0;
        let out = retry_with_backoff(
            &CHECKPOINT_WRITE_RETRY,
            &mut r,
            SimTime::ZERO,
            |e: &&str| *e == "throttled",
            |_| -> Result<(), &str> {
                calls += 1;
                Err("no such table")
            },
        );
        assert_eq!(calls, 1);
        assert_eq!(out.retries, 0);
        assert!(out.result.is_err());
    }

    #[test]
    fn delay_is_bounded_by_cap() {
        let policy = CHECKPOINT_WRITE_RETRY;
        let mut r = rng();
        for retry in 1..=10 {
            let d = policy.backoff_equal_jitter(retry, &mut r);
            assert!(d <= policy.max_delay);
            assert!(d >= SimDuration::ZERO);
        }
    }

    /// Reference copies of the backoff and keyed-hash arithmetic that
    /// [`RetryPolicy`] and [`sim_kernel::keyed_hash`] replaced, kept to
    /// prove the replacements compute the same values. The goldens do not
    /// show it: none of them retries a throttled call or re-drives a shard.
    mod reference {
        use cloud_market::Region;
        use sim_kernel::{SimDuration, SimRng};

        /// The equal-jitter delay the checkpoint and Monitor retries drew
        /// before [`RetryPolicy::backoff_equal_jitter`], 0-based `retry`.
        pub fn equal_jitter_delay(
            base: SimDuration,
            cap: SimDuration,
            retry: u32,
            rng: &mut SimRng,
        ) -> SimDuration {
            let exp = base
                .as_secs()
                .saturating_mul(1u64.checked_shl(retry).unwrap_or(u64::MAX))
                .min(cap.as_secs())
                .max(1);
            let half = exp / 2;
            SimDuration::from_secs(half + rng.uniform_u64(exp - half + 1))
        }

        /// [`RetryPolicy::backoff_before`] as it was, in floating point at
        /// a growth rate of 2.0.
        pub fn backoff_before(initial: SimDuration, max_delay: SimDuration, retry: u32) -> u64 {
            let cap = max_delay.as_secs().max(initial.as_secs());
            let exponent = retry.saturating_sub(1).min(1024) as i32;
            let raw = initial.as_secs() as f64 * 2.0f64.powi(exponent);
            let secs = if raw.is_finite() && raw < cap as f64 {
                raw.round() as u64
            } else {
                cap
            };
            secs.min(cap)
        }

        /// The hash the re-drive jitter, the quarantine jitter and the
        /// chaos engine's corruption draw each computed for themselves:
        /// FNV-1a over `(seed, n, key)`, finished with SplitMix64.
        pub fn hash(seed: u64, n: u64, key: &str) -> u64 {
            let mut h: u64 = 0xcbf29ce484222325;
            let bytes = seed.to_le_bytes().into_iter().chain(n.to_le_bytes()).chain(key.bytes());
            for byte in bytes {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x100000001b3);
            }
            let mut z = h.wrapping_add(0x9e3779b97f4a7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        /// The old `health::quarantine`: 1 h doubling per trip, capped at
        /// 8 h, plus up to 10 min of jitter.
        pub fn quarantine(seed: u64, region: Region, trip: u32) -> SimDuration {
            let base = SimDuration::from_hours(1).as_secs();
            let doubled =
                base.saturating_mul(1u64.checked_shl(trip.saturating_sub(1)).unwrap_or(u64::MAX));
            let capped = doubled.min(SimDuration::from_hours(8).as_secs());
            let jitter = hash(seed, u64::from(trip), region.name()) % (600 + 1);
            SimDuration::from_secs(capped + jitter)
        }
    }

    const SEEDS: [u64; 6] = [0, 1, 7, 2024, 0x5eed_5eed_5eed_5eed, u64::MAX];

    fn keys() -> Vec<&'static str> {
        let mut keys = vec!["", "shard-0", "shard-17", "w-000042"];
        keys.extend(cloud_market::Region::ALL.iter().map(|r| r.name()));
        keys
    }

    #[test]
    fn equal_jitter_matches_the_old_backoff_policy() {
        let monitor = crate::fleet::MONITOR_RETRY;
        for policy in [CHECKPOINT_WRITE_RETRY, monitor] {
            for seed in SEEDS {
                let (mut new, mut old) = (SimRng::seed_from_u64(seed), SimRng::seed_from_u64(seed));
                for retry in 1..=64 {
                    let (base, cap) = (policy.initial_backoff, policy.max_delay);
                    assert_eq!(
                        policy.backoff_equal_jitter(retry, &mut new),
                        reference::equal_jitter_delay(base, cap, retry - 1, &mut old),
                        "{policy:?} seed {seed} retry {retry}"
                    );
                }
                assert_eq!(new.next_u64(), old.next_u64(), "same draws consumed");
            }
        }
    }

    #[test]
    fn integer_doubling_matches_the_old_float_backoff() {
        let policies = [
            RetryPolicy::default(),
            CHECKPOINT_WRITE_RETRY,
            crate::fleet::MONITOR_RETRY,
            crate::health::QUARANTINE,
            crate::orchestrate::REDRIVE_BACKOFF,
            RetryPolicy {
                initial_backoff: SimDuration::from_secs(7),
                max_delay: SimDuration::from_secs(3),
                ..RetryPolicy::default()
            },
        ];
        for policy in policies {
            for retry in 0..=64 {
                assert_eq!(
                    policy.backoff_before(retry).as_secs(),
                    reference::backoff_before(policy.initial_backoff, policy.max_delay, retry),
                    "{policy:?} retry {retry}"
                );
            }
        }
    }

    #[test]
    fn keyed_jitter_matches_the_old_hashes() {
        let redrive = crate::orchestrate::REDRIVE_BACKOFF;
        for seed in SEEDS {
            for key in keys() {
                for retry in 1..=64u32 {
                    let hash = reference::hash(seed, u64::from(retry), key);
                    assert_eq!(sim_kernel::keyed_hash(seed, u64::from(retry), key), hash);
                    let (base, cap) = (redrive.initial_backoff, redrive.max_delay);
                    let old = reference::backoff_before(base, cap, retry)
                        + hash % (redrive.jitter.as_secs() + 1);
                    assert_eq!(
                        redrive.backoff_jittered(retry, seed, key),
                        SimDuration::from_secs(old),
                        "seed {seed} key {key:?} retry {retry}"
                    );
                }
            }
        }
    }

    #[test]
    fn quarantine_matches_the_old_breaker_arithmetic() {
        for seed in SEEDS {
            for region in cloud_market::Region::ALL {
                for trip in 1..=64 {
                    assert_eq!(
                        crate::health::quarantine(seed, region, trip),
                        reference::quarantine(seed, region, trip),
                        "seed {seed} {region} trip {trip}"
                    );
                }
            }
        }
    }
}
