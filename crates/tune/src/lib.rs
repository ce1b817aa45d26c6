//! # augem-tune
//!
//! Empirical auto-tuning (paper §2.1): "because loop unrolling factors are
//! extremely sensitive to variations of the underlying machine
//! architecture, our Optimized C Kernel Generator automatically experiments
//! with different unrolling and unroll&jam configurations and selects the
//! best performing configurations based on the performance of their
//! optimized code."
//!
//! In the paper, candidates are compiled and run on hardware; here they
//! are generated through the full pipeline and *timed on the
//! cycle-approximate simulator* (`augem-sim`) over a cache-resident
//! steady-state micro-problem — the same feedback loop, with the simulator
//! standing in for the testbed (DESIGN.md substitution table).
//!
//! The loop is one generic [`sweep`] over the [`Candidate`] trait, which
//! both tuning spaces ([`GemmConfig`], [`VectorConfig`]) implement; its
//! optional stages (legality checking, bound pruning) and its resilience
//! (sandboxing, retry, circuit breaking, checkpoint/resume) are options,
//! not separate drivers.
//!
//! The tuner also doubles as the ablation driver: every configuration
//! dimension (unroll&jam factors, inner unrolling, Vdup vs Shuf, FMA
//! policy, prefetching, instruction scheduling) can be frozen to measure
//! its contribution.

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod evaluate;
pub mod legal;
pub mod prune;
pub mod resilient;
pub mod search;

/// The crates whose types [`sweep`] takes (tracer, injector, journal),
/// for callers that do not depend on them directly.
pub use augem_obs as obs;
pub use augem_resil as resil;

pub use cache::{EvalCache, Transformed};
pub use config::{
    build_logged, gemm_candidates, vector_candidates, BuildError, Candidate, GemmConfig,
    LoggedBuild, VectorConfig, VectorKernel,
};
pub use evaluate::{
    evaluate, gemm_eval_args, profile, vector_eval_args, EvalClass, EvalError, Evaluation,
    ProfiledEvaluation,
};
pub use legal::check_legality;
pub use resilient::{sweep, ResilOptions};
pub use search::{SweepStats, TuneError, TuneResult};
