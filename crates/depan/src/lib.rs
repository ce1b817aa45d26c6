//! # augem-depan
//!
//! Static dependence analysis and **proof-carrying transform legality
//! checking** for the IR-level Optimized C Kernel Generator.
//!
//! The source-to-source passes in `augem-transforms` are trusted to be
//! semantics-preserving, and their test suites argue it empirically by
//! interpretation. This crate closes the loop the same way the register
//! allocator does with its `BindingLog`: the generator *records* every
//! pass it applied ([`augem_transforms::TransformLog`], one entry per
//! pass with the kernel snapshots before/after and the facts the pass
//! relied on), and an **independent** checker replays the log, proving
//! each pass's preconditions from scratch:
//!
//! * [`affine`] — loop-nest and affine-access analysis: every counted
//!   loop with bounds, and every array access with the [`LinearForm`]
//!   normal form of its subscript.
//! * [`deps`] — dependence testing between access pairs (GCD and
//!   bounds tests over signature-partitioned Diophantine equations),
//!   classifying loop-carried vs loop-independent dependences with
//!   constant distances where determined.
//! * [`check`] — the per-pass precondition proofs, reporting failures
//!   as `T001`–`T012` diagnostics through the shared
//!   [`augem_verify::diag`] rule table.
//!
//! The checker is not a tuning stage: every configuration the tuner
//! enumerates is legal by construction, so it runs in two places off the
//! sweep. The facade checks the shipped kernel's log when asked
//! (`RunOptions::check_transforms`, under [`traced`]'s `stage::DEPAN`
//! span with `depan.*` counters), and CI checks every candidate of every
//! kernel family (`figures depan`, `tests/depan_matrix.rs`). Both read
//! the tuner's cached transforms: candidates that share a transform
//! prefix share its steps, and a [`PrefixVerdict`] replays those steps
//! once; each candidate then re-checks only its own steps. If a tuning
//! space ever holds a candidate the checker must reject, legality comes
//! back as a sweep stage that is always on.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod affine;
pub mod check;
pub mod deps;

pub use affine::{Access, AccessMap, LoopInfo};
pub use augem_transforms::linear::{LinearForm, Term};
pub use augem_transforms::{TransformLog, TransformStep};
pub use check::{check_transforms, PrefixVerdict};
pub use deps::{
    bounds_test, decompose, dependence_on, gcd, gcd_test, uniform_solution, DepSolution, Verdict,
};

use augem_verify::{Diagnostic, Severity};

/// Runs a legality check with telemetry: wraps it in a `depan` stage
/// span, emits one `depan.diagnostic` event per finding, and counts
/// errors/warnings — the same shape as `augem_verify::check_traced`.
pub fn traced(
    tracer: &dyn augem_obs::Tracer,
    check: impl FnOnce() -> Vec<Diagnostic>,
) -> Vec<Diagnostic> {
    let _stage = augem_obs::span(tracer, augem_obs::stage::DEPAN);
    let diags = check();
    let mut errors = 0u64;
    let mut warnings = 0u64;
    for d in &diags {
        tracer.event(
            "depan.diagnostic",
            &[
                ("rule", d.rule.code().into()),
                ("severity", d.severity.to_string().into()),
                ("span", d.span.to_string().into()),
                ("message", d.message.as_str().into()),
            ],
        );
        match d.severity {
            Severity::Error => errors += 1,
            Severity::Warning => warnings += 1,
        }
    }
    tracer.add("depan.errors", errors);
    tracer.add("depan.warnings", warnings);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_obs::Collector;
    use augem_transforms::{generate_optimized_logged, OptimizeConfig};

    #[test]
    fn traced_check_spans_and_counts() {
        let k = augem_kernels::gemm_simple();
        let (out, log) =
            generate_optimized_logged(&k, &OptimizeConfig::gemm_2x2(), augem_obs::null()).unwrap();
        let tracer = Collector::new();
        let diags = traced(&tracer, || check_transforms(&k, &log, Some(&out)));
        assert!(diags.is_empty(), "{diags:?}");
        let snap = tracer.snapshot();
        assert_eq!(snap.counters.get("depan.errors"), Some(&0));
        assert!(snap
            .stages()
            .iter()
            .any(|s| s.name == augem_obs::stage::DEPAN));
    }
}
