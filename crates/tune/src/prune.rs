//! Bound-based dominated-candidate pruning.
//!
//! The static analyzer in `augem-cost` computes a provable *lower* bound
//! on the cycles the timing simulator will report for a candidate, which
//! converts (through the same `useful_mflops` formula the evaluator
//! uses) into a provable *upper* bound on its Mflops. Any candidate
//! whose upper bound is strictly below the best measurement seen so far
//! cannot win — or even tie — the sweep, so its simulation can be
//! skipped entirely.
//!
//! With [`ResilOptions::prune`](crate::ResilOptions::prune), on by
//! default and the sweep's one optional stage (it runs first, see
//! [`crate::resilient`]), the sweep is therefore best-first: it bounds
//! every candidate from its (cached) build and its arguments' shapes
//! ([`Candidate::eval_shapes`](crate::Candidate::eval_shapes): no
//! evaluation array is built) in a parallel pass under a `cost` span,
//! then commits candidates in descending bound order, pruning each one
//! whose bound falls below the incumbent. Evaluation keeps every core
//! busy ahead of the commit, and a worker skips a candidate whose bound
//! is already below the committed incumbent, which the commit would
//! prune anyway. Because the bound is sound and the cut is strict
//! (`ub < best`), the surviving set always contains every candidate
//! whose true Mflops equals the sweep maximum; results are re-assembled
//! in the *original* candidate order before ranking, so the winner, the
//! tie-breaking, and the best measurement are bit-for-bit identical to
//! the exhaustive sweep (`tests/cost_pruning.rs` machine-checks this on
//! every kernel family and both machines).

/// Converts a cycle lower bound into the Mflops *upper* bound implied by
/// the evaluator's own formula (`TimingReport::useful_mflops` at the
/// turbo clock). Mirrors that formula term-for-term so the comparison
/// against measured Mflops is monotone even at f64 granularity: a
/// division by a larger (correctly-rounded) denominator never yields a
/// larger quotient.
pub(crate) fn ub_mflops(bound_cycles: u64, useful_flops: u64, ghz: f64) -> f64 {
    if bound_cycles == 0 {
        // No lower bound on time means no upper bound on rate: never
        // prune on it. (The evaluator maps zero cycles to 0.0 Mflops,
        // which infinity also never prunes.)
        return f64::INFINITY;
    }
    let secs = bound_cycles as f64 / (ghz * 1e9);
    useful_flops as f64 / secs / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate, vector_candidates, Candidate, EvalCache, VectorKernel};
    use augem_machine::MachineSpec;

    #[test]
    fn bound_is_an_upper_bound_on_every_measured_candidate() {
        // The inequality behind the whole scheme, checked end-to-end on
        // the axpy space: static ub >= measured Mflops, per candidate.
        let machine = MachineSpec::sandy_bridge();
        let cache = EvalCache::new();
        for cfg in vector_candidates(VectorKernel::Axpy, &machine) {
            let Ok(build) = cache.logged(&cfg, &machine, augem_obs::null()) else {
                continue;
            };
            let (shapes, useful) = cfg.eval_shapes();
            let report = augem_cost::analyze_shapes(&build.asm, &shapes, &machine).unwrap();
            let ub = ub_mflops(report.lower_bound_cycles, useful, machine.turbo_ghz);
            let e = evaluate(&cfg, &machine, augem_obs::null(), None, &cache).unwrap();
            assert!(
                e.mflops <= ub,
                "{}: measured {} exceeds static upper bound {}",
                cfg.tag(),
                e.mflops,
                ub
            );
        }
    }
}
