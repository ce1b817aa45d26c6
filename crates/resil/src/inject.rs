//! Deterministic fault injection for resilience testing.
//!
//! The integration suite needs to prove the pipeline survives panics,
//! budget blow-ups, journal corruption, and mid-run crashes — without
//! flaky tests. Every injection decision here is a pure function of
//! `(seed, site, key, attempt)`: rate-triggered rules hash those four
//! through a splitmix64-style mixer, and nth-occurrence rules count
//! matching probes. Re-running the same sweep with the same seed injects
//! the same faults at the same candidates, so expected outcomes can be
//! asserted exactly.
//!
//! Production runs use [`Injector::disabled`], whose probe is a single
//! `Vec::is_empty` check.

use std::sync::atomic::{AtomicU64, Ordering};

/// Where in the pipeline a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Around one candidate's end-to-end evaluation (build + sim).
    Eval,
    /// Inside the timing simulation of one candidate.
    Sim,
    /// When appending a finished record to the tune journal.
    JournalAppend,
    /// While verifying the chosen winner.
    Verify,
    /// When appending a commit record to the kernel-store journal
    /// (`augem-serve`'s persistent cache).
    StoreJournal,
    /// In the middle of the store-journal append itself: a kill -9
    /// here leaves a torn, unterminated record (tests store recovery).
    StoreCommit,
}

impl Site {
    fn name(self) -> &'static str {
        match self {
            Site::Eval => "eval",
            Site::Sim => "sim",
            Site::JournalAppend => "journal-append",
            Site::Verify => "verify",
            Site::StoreJournal => "store-journal",
            Site::StoreCommit => "store-commit",
        }
    }
}

/// What kind of fault to inject when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the sandboxed region (tests panic isolation).
    Panic,
    /// Exhaust the step budget (tests budget enforcement).
    Budget,
    /// Write a garbage line to the journal (tests tolerant reload).
    CorruptEntry,
    /// Abort the sweep as if the process died (tests resume); surfaces
    /// as an interrupted `TuneError`, leaving a partial journal behind.
    Crash,
}

/// When a rule fires at its site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fires on roughly this fraction of probes, chosen by hashing
    /// `(seed, site, key, attempt)` — deterministic and independent of
    /// probe order.
    Rate(f64),
    /// Fires on exactly the `n`-th matching probe (1-based), counted in
    /// probe order.
    Nth(u64),
}

/// One injection rule: at `site`, under `trigger`, raise `fault`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    pub site: Site,
    pub fault: Fault,
    pub trigger: Trigger,
}

/// A seeded set of injection rules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InjectionPlan {
    pub seed: u64,
    pub rules: Vec<Rule>,
}

impl InjectionPlan {
    pub fn new(seed: u64) -> Self {
        InjectionPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder style).
    pub fn with(mut self, site: Site, fault: Fault, trigger: Trigger) -> Self {
        self.rules.push(Rule {
            site,
            fault,
            trigger,
        });
        self
    }
}

use augem_obs::hash::{mix_str, splitmix64};

/// Evaluates an [`InjectionPlan`] at runtime. Probing a disabled
/// injector is free; a live one decides deterministically per rule.
pub struct Injector {
    plan: InjectionPlan,
    /// Per-rule occurrence counters for [`Trigger::Nth`], indexed in
    /// plan order.
    occurrences: Vec<AtomicU64>,
}

impl Injector {
    pub fn new(plan: InjectionPlan) -> Self {
        let occurrences = (0..plan.rules.len()).map(|_| AtomicU64::new(0)).collect();
        Injector { plan, occurrences }
    }

    /// An injector that never fires.
    pub fn disabled() -> Self {
        Injector::new(InjectionPlan::default())
    }

    pub fn is_enabled(&self) -> bool {
        !self.plan.rules.is_empty()
    }

    /// Should a fault fire at `site` for `key` (e.g. a candidate tag) on
    /// this `attempt`? The first matching rule wins. `Nth` counters
    /// advance once per probe of their site regardless of outcome.
    pub fn fault(&self, site: Site, key: &str, attempt: u32) -> Option<Fault> {
        let mut fired = None;
        for (rule, occ) in self.plan.rules.iter().zip(&self.occurrences) {
            if rule.site != site {
                continue;
            }
            let fires = match rule.trigger {
                Trigger::Rate(rate) => {
                    let mut h = splitmix64(self.plan.seed);
                    h = mix_str(h, site.name());
                    h = mix_str(h, key);
                    h = splitmix64(h ^ u64::from(attempt));
                    // Map the hash into [0,1) and compare against the rate.
                    (h >> 11) as f64 / (1u64 << 53) as f64 > (1.0 - rate.clamp(0.0, 1.0))
                }
                Trigger::Nth(n) => occ.fetch_add(1, Ordering::Relaxed) + 1 == n,
            };
            if fires && fired.is_none() {
                fired = Some(rule.fault);
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let inj = Injector::disabled();
        assert!(!inj.is_enabled());
        for i in 0..100 {
            assert_eq!(inj.fault(Site::Eval, &format!("c{i}"), 0), None);
        }
    }

    #[test]
    fn rate_one_always_fires_rate_zero_never() {
        let always =
            Injector::new(InjectionPlan::new(7).with(Site::Sim, Fault::Budget, Trigger::Rate(1.0)));
        let never =
            Injector::new(InjectionPlan::new(7).with(Site::Sim, Fault::Budget, Trigger::Rate(0.0)));
        for i in 0..50 {
            let key = format!("k{i}");
            assert_eq!(always.fault(Site::Sim, &key, 0), Some(Fault::Budget));
            assert_eq!(never.fault(Site::Sim, &key, 0), None);
        }
    }

    #[test]
    fn rate_is_deterministic_and_order_independent() {
        let plan = InjectionPlan::new(42).with(Site::Eval, Fault::Panic, Trigger::Rate(0.5));
        let keys: Vec<String> = (0..64).map(|i| format!("cand-{i}")).collect();
        let a = Injector::new(plan.clone());
        let forward: Vec<_> = keys.iter().map(|k| a.fault(Site::Eval, k, 0)).collect();
        let b = Injector::new(plan);
        let mut backward: Vec<_> = keys
            .iter()
            .rev()
            .map(|k| b.fault(Site::Eval, k, 0))
            .collect();
        backward.reverse();
        assert_eq!(forward, backward, "rate decisions must not depend on order");
        let fired = forward.iter().filter(|f| f.is_some()).count();
        assert!(
            (16..=48).contains(&fired),
            "rate 0.5 over 64 probes fired {fired} times"
        );
    }

    #[test]
    fn different_attempts_can_differ() {
        // A transient injected panic: fires on attempt 0 for some key but
        // not on every retry of it. Scan for a key that demonstrates it.
        let inj =
            Injector::new(InjectionPlan::new(3).with(Site::Eval, Fault::Panic, Trigger::Rate(0.5)));
        let mut saw_difference = false;
        for i in 0..64 {
            let key = format!("c{i}");
            if inj.fault(Site::Eval, &key, 0) != inj.fault(Site::Eval, &key, 1) {
                saw_difference = true;
                break;
            }
        }
        assert!(saw_difference, "attempt number must feed the hash");
    }

    #[test]
    fn nth_fires_exactly_once() {
        let inj =
            Injector::new(InjectionPlan::new(0).with(Site::Eval, Fault::Crash, Trigger::Nth(3)));
        let fires: Vec<_> = (0..6)
            .map(|i| inj.fault(Site::Eval, &format!("c{i}"), 0))
            .collect();
        assert_eq!(
            fires,
            vec![None, None, Some(Fault::Crash), None, None, None]
        );
    }

    #[test]
    fn sites_are_independent() {
        let inj = Injector::new(InjectionPlan::new(0).with(
            Site::JournalAppend,
            Fault::CorruptEntry,
            Trigger::Nth(1),
        ));
        assert_eq!(inj.fault(Site::Eval, "x", 0), None);
        assert_eq!(inj.fault(Site::Sim, "x", 0), None);
        assert_eq!(
            inj.fault(Site::JournalAppend, "x", 0),
            Some(Fault::CorruptEntry)
        );
        assert_eq!(inj.fault(Site::JournalAppend, "y", 0), None, "Nth(1) spent");
    }

    #[test]
    fn first_matching_rule_wins_but_counters_still_advance() {
        let inj = Injector::new(
            InjectionPlan::new(0)
                .with(Site::Eval, Fault::Panic, Trigger::Nth(1))
                .with(Site::Eval, Fault::Budget, Trigger::Nth(1)),
        );
        assert_eq!(inj.fault(Site::Eval, "a", 0), Some(Fault::Panic));
        // Both Nth(1) counters were consumed by the first probe.
        assert_eq!(inj.fault(Site::Eval, "b", 0), None);
    }
}
