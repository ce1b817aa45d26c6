//! # augem-transforms
//!
//! The **Optimized C Kernel Generator** (paper §2.1): five source-to-source
//! transformations that rewrite a simple C DLA kernel into the low-level,
//! three-address C that the Template Identifier consumes.
//!
//! | Pass | Paper name | Module |
//! |---|---|---|
//! | [`unroll::unroll_and_jam`] | loop unroll&jam | [`unroll`] |
//! | [`unroll::unroll_inner`] | loop unrolling | [`unroll`] |
//! | [`strength::strength_reduce`] | strength reduction | [`strength`] |
//! | [`scalar::scalar_replace`] | scalar replacement | [`scalar`] |
//! | [`prefetch::insert_prefetch`] | data prefetching | [`prefetch`] |
//!
//! [`pipeline::generate_optimized`] chains them in the paper's order, and
//! [`pipeline::OptimizeConfig`] is the tuning surface that `augem-tune`
//! sweeps ("our Optimized C Kernel Generator automatically experiments with
//! different unrolling and unroll&jam configurations").
//!
//! Every pass is semantics-preserving; the test suites prove it by running
//! kernels through `augem-ir`'s interpreter before and after each pass.
//! The one deliberate exception is accumulator expansion during inner-loop
//! unrolling (needed so reduction kernels like DOT can be vectorized),
//! which reassociates a floating-point reduction; tests for it compare
//! against a reference that performs the same lane-wise association.

#![forbid(unsafe_code)]

pub mod linear;
pub mod pipeline;
pub mod prefetch;
pub mod scalar;
pub mod strength;
pub mod unroll;

pub use pipeline::{
    finish_optimized, generate_optimized, generate_optimized_logged, optimize_prefix,
    OptimizeConfig, PassRecord, PrefetchConfig, Prefix, TransformLog, TransformStep,
};
pub use strength::SrGroup;
pub use unroll::TransformError;
