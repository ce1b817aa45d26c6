//! # augem-resil
//!
//! Fault tolerance for the AUGEM tuning and generation pipeline.
//!
//! The empirical tuner treats candidate evaluation as an unreliable
//! oracle: a candidate may panic the simulator, diverge past any useful
//! instruction budget, or fail to build. The last-mile generator
//! literature (Veras et al.; Castelló et al.) survives such oracles by
//! isolating each measurement and keeping enough state to continue; this
//! crate gives the Rust pipeline the same property, in five pieces:
//!
//! - [`sandboxed`] — runs one candidate evaluation under
//!   `catch_unwind`, so a panic becomes a value instead of killing the
//!   whole tuning sweep;
//! - [`RetryPolicy`] / [`with_retry`] — bounded retry with exponential
//!   backoff for failure classes the caller marks [`Transient`];
//! - [`CircuitBreaker`] — prunes an entire candidate *family* after
//!   repeated consecutive failures, so a pathological corner of the
//!   search space cannot burn the whole evaluation budget;
//! - [`Journal`] — an append-only JSON-lines file of checksummed,
//!   fsynced records: the tuner's checkpoint of every evaluated
//!   candidate (a crashed run resumes by replaying it) and
//!   `augem-serve`'s kernel store. Loading drops and counts torn,
//!   damaged and altered lines instead of failing, and never trusts a
//!   record whose checksum does not match;
//! - [`Injector`] — a seeded, deterministic fault-injection harness that
//!   plants panics, budget blow-ups, journal corruption, and simulated
//!   crashes at configurable [`Site`]s, driving the integration suite
//!   that proves the pipeline always terminates with either a verified
//!   kernel or a typed degradation report.
//!
//! [`write_atomic`] rounds the crate out: report/benchmark sinks write
//! through a temp-file-and-rename so a crash mid-run can never leave a
//! truncated JSON document behind, and [`quarantine`] keeps damaged
//! state aside for post-mortem.
//!
//! Everything here is deterministic by construction (seeded hashing, no
//! wall-clock decisions), because the acceptance bar for checkpointing is
//! bit-for-bit agreement between an interrupted-then-resumed run and an
//! uninterrupted one.

#![forbid(unsafe_code)]

mod breaker;
mod fsio;
mod inject;
mod journal;
mod retry;
mod sandbox;

pub use breaker::CircuitBreaker;
pub use fsio::{dir_fsyncs, quarantine, write_atomic};
pub use inject::{Fault, InjectionPlan, Injector, Rule, Site, Trigger};
pub use journal::{
    check_header as check_journal_header, header as journal_header, Journal, JournalError, Record,
    JOURNAL_SCHEMA,
};
pub use retry::{with_retry, RetryPolicy, Transient};
pub use sandbox::sandboxed;

/// Canonical `resil.*` counter names, spelled once so producers (the
/// resilient tuner, the degradation chain) and consumers (run reports,
/// tests) agree. See `augem_obs::stage::RESIL` for the span name.
pub mod counter {
    /// Evaluation attempts that panicked (caught by the sandbox).
    pub const EVAL_PANIC: &str = "resil.eval.panic";
    /// Evaluations that blew their step/instruction budget.
    pub const EVAL_BUDGET: &str = "resil.eval.budget";
    /// Evaluations that failed in the build pipeline (transform/codegen
    /// defects, as opposed to legitimate search pruning).
    pub const EVAL_BUILD: &str = "resil.eval.build";
    /// Evaluations pruned as part of the search (register pressure,
    /// shapes the ISA cannot vectorize).
    pub const EVAL_PRUNE: &str = "resil.eval.prune";
    /// Retries performed after a transient failure.
    pub const RETRY: &str = "resil.retry";
    /// Circuit-breaker trips (a family crossed the failure threshold).
    pub const BREAKER_TRIP: &str = "resil.breaker.trip";
    /// Candidates skipped because their family's circuit was open.
    pub const BREAKER_SKIPPED: &str = "resil.breaker.skipped";
    /// Candidates restored from a checkpoint journal instead of re-run.
    pub const JOURNAL_RESUMED: &str = "resil.journal.resumed";
    /// Journal lines dropped during load: a torn tail, or damage (not
    /// UTF-8, a failed checksum, no tag).
    pub const JOURNAL_CORRUPT: &str = "resil.journal.corrupt";
    /// Fallbacks to a next-ranked candidate after the winner failed
    /// verification.
    pub const FALLBACK_NEXT_RANKED: &str = "resil.fallback.next_ranked";
    /// Fallbacks to the paper-default configuration.
    pub const FALLBACK_DEFAULT: &str = "resil.fallback.default";
    /// Runs that ended degraded (any fallback, or report-only).
    pub const DEGRADED: &str = "resil.degraded";
}
