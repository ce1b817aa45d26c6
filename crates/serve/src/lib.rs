//! # augem-serve
//!
//! The kernel-compilation service: a long-running daemon that turns the
//! one-shot `augem-gen` pipeline into something that can sit behind
//! heavy traffic. Requests (kernel × machine × knobs) arrive as
//! newline-delimited JSON; a bounded queue feeds a worker pool; every
//! response is typed — a tuned kernel, a degraded-but-usable kernel, a
//! structured rejection, or a structured error — and embeds an `obs`
//! run report. The daemon never hangs and never panics its way down:
//!
//! - **Admission control** ([`daemon`]): a full queue sheds load with
//!   `rejected(queue_full)` instead of unbounded buffering; a request
//!   that waited past its deadline is shed at dequeue with
//!   `rejected(deadline)`; a kernel×machine family whose requests keep
//!   failing trips a [`augem_resil::CircuitBreaker`] and is refused with
//!   `rejected(breaker)` until the process restarts.
//! - **Persistent kernel cache** ([`store`]): tuned winners are kept in
//!   a content-addressed on-disk store (key = kernel × machine
//!   fingerprint × budget, the same fingerprints `tune::EvalCache`
//!   uses). The store is one [`augem_resil::Journal`] of whole,
//!   checksummed kernel records, and a commit is one fsynced append.
//!   Loading is tolerant: a torn tail, damaged lines and foreign
//!   journals are dropped or quarantined and counted, never fatal, and
//!   recovery compacts the journal back to the surviving records —
//!   bit-identical to the pre-crash state.
//! - **Graceful degradation**: a cache hit answers without re-tuning; a
//!   miss runs `Augem::run`, whose ladder (tuned winner → next-ranked
//!   verified → paper default → report-only) maps onto
//!   the response's `status`/`degradation` fields. Worker panics are
//!   contained by [`augem_resil::sandboxed`] and become typed errors.
//! - **Single flight** ([`daemon`]): concurrent misses on one store key
//!   share one tune. The first leads; the rest park without holding a
//!   worker and get the leader's outcome under their own ids, each with
//!   a report of its own (no stages, `serve.coalesced` 1).
//!
//! Fault injection reuses [`augem_resil::Injector`] with two
//! store-specific sites: `StoreJournal` (write a garbage line before
//! the append) and `StoreCommit` (die mid-append, leaving a torn record
//! — the kill-9 window the recovery path is built for).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod daemon;
pub mod proto;
pub mod store;

pub use daemon::{serve_lines, ServeConfig, ServeSummary, Server, ServerPool};
pub use proto::{parse_request, Op, Reject, Request, Response, Status, RESPONSE_SCHEMA};
pub use store::{
    store_key, KernelStore, LoadStats, StoreError, StoredKernel, STORE_JOURNAL_SCHEMA,
};

/// Canonical `serve.*` counter names, spelled once so the daemon, the
/// stats endpoint, the benchmark, and the tests agree.
pub mod counter {
    /// Requests accepted into the queue.
    pub const ACCEPTED: &str = "serve.accepted";
    /// Requests answered from the persistent kernel store.
    pub const STORE_HIT: &str = "serve.store.hit";
    /// Requests the store could not answer. Each either ran the tuning
    /// pipeline or was coalesced, so tunes run = miss − coalesced.
    pub const STORE_MISS: &str = "serve.store.miss";
    /// Misses answered by another request's tune: they arrived while a
    /// tune of the same store key was running and parked on it.
    pub const COALESCED: &str = "serve.coalesced";
    /// Winners committed to the persistent store.
    pub const STORE_COMMIT: &str = "serve.store.commit";
    /// Store journals kept in `quarantine/` during load: damaged beyond
    /// a torn tail, or foreign. Every dropped line, a torn tail
    /// included, also counts on `resil.journal.corrupt`.
    pub const STORE_QUARANTINED: &str = "serve.store.quarantined";
    /// Requests shed because the queue was full.
    pub const REJECT_QUEUE_FULL: &str = "serve.reject.queue_full";
    /// Requests shed because their deadline passed while queued.
    pub const REJECT_DEADLINE: &str = "serve.reject.deadline";
    /// Requests refused because their family's circuit was open.
    pub const REJECT_BREAKER: &str = "serve.reject.breaker";
    /// Worker panics contained by the sandbox (the request got a typed
    /// error; the worker lived).
    pub const WORKER_PANIC: &str = "serve.worker.panic";
}
