use augem_machine::MachineSpec;
use augem_resil::Injector;
use augem_tune::{
    gemm_candidates, sweep, vector_candidates, Candidate, EvalCache, ResilOptions, TuneResult,
    VectorKernel,
};

/// The exhaustive sweep over `candidates`.
fn tune<C: Candidate + Copy + Send + Sync>(candidates: Vec<C>, m: &MachineSpec) -> TuneResult<C> {
    let opts = ResilOptions::plain();
    let (inj, cache) = (Injector::disabled(), EvalCache::new());
    sweep(candidates, m, &opts, None, &inj, augem_obs::null(), &cache)
        .unwrap_or_else(|e| panic!("{e}"))
}

fn main() {
    for m in MachineSpec::paper_platforms() {
        println!(
            "== {} (peak {:.0} Mflops) ==",
            m.arch.name(),
            m.peak_mflops()
        );
        let g = tune(gemm_candidates(&m), &m);
        println!(
            "GEMM best: {}  -> {:.0} Mflops ({:.1}% of peak)",
            g.best.tag(),
            g.best_eval.mflops,
            100.0 * g.best_eval.mflops / m.peak_mflops()
        );
        for (c, f) in g.ranking.iter().take(5) {
            println!("   {:>8.0}  {}", f, c.tag());
        }
        for k in [VectorKernel::Axpy, VectorKernel::Dot, VectorKernel::Gemv] {
            let r = tune(vector_candidates(k, &m), &m);
            println!(
                "{} best: {} -> {:.0} Mflops",
                k.name(),
                r.best.tag(),
                r.best_eval.mflops
            );
        }
    }
}
