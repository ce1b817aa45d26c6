//! Bounded retry with exponential backoff for transient failures.
//!
//! The evaluation oracle distinguishes failure classes: a panic may be
//! transient (a raced resource, an injected fault), while a budget
//! blow-up or a build failure is deterministic and retrying it would only
//! waste the evaluation budget. Callers teach the policy which is which
//! through the [`Transient`] trait.

use augem_obs::Tracer;
use std::time::Duration;

/// Marks which of a caller's failures are worth retrying.
pub trait Transient {
    /// `true` when a retry has a chance of succeeding (the failure was
    /// not a deterministic property of the input).
    fn transient(&self) -> bool;
}

/// Retry budget and backoff shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries *after* the first attempt (0 = single attempt).
    pub max_retries: u32,
    /// First backoff delay, in milliseconds.
    pub base_ms: u64,
    /// Each subsequent delay doubles, capped here.
    pub cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_ms: 1,
            cap_ms: 50,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `retry` (0-based).
    pub fn delay(&self, retry: u32) -> Duration {
        let ms = self
            .base_ms
            .saturating_mul(1u64 << retry.min(16))
            .min(self.cap_ms);
        Duration::from_millis(ms)
    }
}

/// Runs `attempt` under `policy`: transient failures are retried (with
/// backoff) up to `policy.max_retries` times; fatal failures and
/// exhausted budgets return the last error. Every retry bumps the
/// `resil.retry` counter and emits a `resil.retry` event on `tracer`.
pub fn with_retry<T, E: Transient + std::fmt::Display>(
    policy: &RetryPolicy,
    tracer: &dyn Tracer,
    key: &str,
    mut attempt: impl FnMut(u32) -> Result<T, E>,
) -> Result<T, E> {
    let mut tried = 0u32;
    loop {
        match attempt(tried) {
            Ok(v) => return Ok(v),
            Err(e) if e.transient() && tried < policy.max_retries => {
                tracer.add(crate::counter::RETRY, 1);
                tracer.event(
                    "resil.retry",
                    &[
                        ("key", key.into()),
                        ("attempt", u64::from(tried + 1).into()),
                        ("error", e.to_string().into()),
                    ],
                );
                let d = policy.delay(tried);
                if !d.is_zero() {
                    std::thread::sleep(d);
                }
                tried += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_obs::Collector;

    /// A policy that retries immediately, without sleeping.
    fn no_backoff(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base_ms: 0,
            cap_ms: 0,
        }
    }

    #[derive(Debug)]
    struct Flaky(bool);
    impl Transient for Flaky {
        fn transient(&self) -> bool {
            self.0
        }
    }
    impl std::fmt::Display for Flaky {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "flaky(transient={})", self.0)
        }
    }

    #[test]
    fn transient_failure_recovers_within_budget() {
        let c = Collector::new();
        let r = with_retry(&no_backoff(3), &c, "k", |attempt| {
            if attempt < 2 {
                Err(Flaky(true))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(r.unwrap(), 2);
        let snap = c.snapshot();
        assert_eq!(snap.counters[crate::counter::RETRY], 2);
        assert_eq!(
            snap.events
                .iter()
                .filter(|e| e.name == "resil.retry")
                .count(),
            2
        );
    }

    #[test]
    fn fatal_failure_is_not_retried() {
        let c = Collector::new();
        let mut calls = 0;
        let r: Result<(), Flaky> = with_retry(&no_backoff(5), &c, "k", |_| {
            calls += 1;
            Err(Flaky(false))
        });
        assert!(r.is_err());
        assert_eq!(calls, 1);
        assert!(!c.snapshot().counters.contains_key(crate::counter::RETRY));
    }

    #[test]
    fn exhausted_budget_returns_last_error() {
        let c = Collector::new();
        let mut calls = 0;
        let r: Result<(), Flaky> = with_retry(&no_backoff(2), &c, "k", |_| {
            calls += 1;
            Err(Flaky(true))
        });
        assert!(r.is_err());
        assert_eq!(calls, 3, "first attempt plus two retries");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 10,
            base_ms: 4,
            cap_ms: 10,
        };
        assert_eq!(p.delay(0), Duration::from_millis(4));
        assert_eq!(p.delay(1), Duration::from_millis(8));
        assert_eq!(p.delay(2), Duration::from_millis(10), "capped");
        assert_eq!(p.delay(9), Duration::from_millis(10));
    }
}
