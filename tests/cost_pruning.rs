//! No combination of sweep stages changes the answer.
//!
//! The sweep's optional stages — bound-based pruning, which uses the
//! static lower bound to skip candidates whose best-case Mflops cannot
//! beat the incumbent, and depan legality checking — must keep the
//! exhaustive sweep's winner. Because the bound is sound (see
//! `cost_soundness.rs`) and every candidate is legal (see
//! `depan_matrix.rs`), the winner's tag, its exact Mflops bits and its
//! cycle count must be identical to the exhaustive sweep's under every
//! combination, on every kernel and both machines — including a
//! journaled pruned sweep that crashes mid-way and resumes from its
//! journal. This suite also pins that the bound actually earns its
//! keep: on at least one kernel the prune rate clears 25%.

use augem_machine::MachineSpec;
use augem_resil::{Fault, InjectionPlan, Injector, Journal, Site, Trigger};
use augem_tune::{
    gemm_candidates, sweep, vector_candidates, Candidate, EvalCache, ResilOptions, TuneResult,
    VectorKernel,
};

const VECTOR_KERNELS: [VectorKernel; 5] = [
    VectorKernel::Axpy,
    VectorKernel::Dot,
    VectorKernel::Gemv,
    VectorKernel::Ger,
    VectorKernel::Scal,
];

/// The stage combinations checked against the exhaustive sweep:
/// `(name, prune, check_legality, crash at the CRASH_AT-th evaluation
/// and resume from the journal)`.
const STAGES: [(&str, bool, bool, bool); 5] = [
    ("plain", false, false, false),
    ("prune", true, false, false),
    ("check", false, true, false),
    ("prune+check", true, true, false),
    ("prune+crash+resume", true, false, true),
];

/// The evaluation the injected crash kills. A family whose pruned sweep
/// evaluates fewer candidates finishes before it.
const CRASH_AT: u64 = 2;

/// Sweeps one kernel family under every stage combination and checks
/// each winner against the exhaustive sweep's. One cache serves the
/// whole family, so the combinations mostly replay its measurements.
/// Returns the family's prune rate.
fn check_family<C: Candidate + Copy + Send + Sync>(candidates: Vec<C>, m: &MachineSpec) -> f64 {
    let kernel = candidates[0].kernel().name();
    let arch = m.arch.short_name();
    let cache = EvalCache::new();
    let off = Injector::disabled();
    let run = |opts: &ResilOptions, journal: Option<&mut Journal>, injector: &Injector| {
        let null = augem_obs::null();
        sweep(candidates.clone(), m, opts, journal, injector, null, &cache)
    };
    let winner = |r: &TuneResult<C>| {
        (
            r.best.tag(),
            r.best_eval.mflops.to_bits(),
            r.best_eval.report.cycles,
        )
    };
    let exhaustive = run(&ResilOptions::plain(), None, &off).expect("exhaustive sweep");

    let mut prune_rate = 0.0;
    for (name, prune, check_legality, crash) in STAGES {
        let opts = ResilOptions {
            prune,
            check_legality,
            ..ResilOptions::plain()
        };
        let r = if crash {
            let mut journal = Journal::in_memory();
            let plan = InjectionPlan::new(0).with(Site::Eval, Fault::Crash, Trigger::Nth(CRASH_AT));
            match run(&opts, Some(&mut journal), &Injector::new(plan)) {
                Err(e) if e.interrupted => run(&opts, Some(&mut journal), &off),
                finished => finished,
            }
        } else {
            run(&opts, None, &off)
        }
        .unwrap_or_else(|e| panic!("{name} sweep of {kernel} on {arch}: {e}"));
        assert_eq!(
            winner(&r),
            winner(&exhaustive),
            "{name}: {kernel} winner (tag, Mflops bits, cycles) changed on {arch}"
        );
        assert_eq!(r.generated, exhaustive.generated);
        assert_eq!(r.stats.rejected, 0, "{name}: false rejection in {kernel}");
        if prune && !crash {
            let stats = r.stats;
            assert_eq!(stats.analyzed, stats.pruned + stats.evaluated);
            assert_eq!(r.eval_latency_ns.count(), stats.evaluated as u64);
            assert!(stats.bound_ns > 0);
            prune_rate = stats.pruned as f64 / stats.analyzed.max(1) as f64;
        }
    }
    prune_rate
}

#[test]
fn pruned_sweeps_keep_the_exhaustive_winner_on_every_kernel_and_machine() {
    let mut best_rate = 0.0f64;
    for m in [MachineSpec::sandy_bridge(), MachineSpec::piledriver()] {
        let gemm_rate = check_family(gemm_candidates(&m), &m);
        assert!(gemm_rate > 0.0, "gemm pruning did nothing on {:?}", m.arch);
        best_rate = best_rate.max(gemm_rate);
        for kernel in VECTOR_KERNELS {
            best_rate = best_rate.max(check_family(vector_candidates(kernel, &m), &m));
        }
    }
    assert!(
        best_rate >= 0.25,
        "no kernel reached a 25% prune rate (best {best_rate:.2})"
    );
}
