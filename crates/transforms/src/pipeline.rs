//! The full Optimized C Kernel Generator (paper §2.1, Figure 1 left half):
//! chains the five source-to-source passes in the paper's order.

use crate::prefetch::insert_prefetch;
pub use crate::prefetch::PrefetchConfig;
use crate::scalar::scalar_replace;
use crate::strength::{strength_reduce_logged, SrGroup};
use crate::unroll::{unroll_and_jam, unroll_inner_logged, TransformError};
use augem_ir::{Kernel, Sym};
use augem_obs::{span, stage, Tracer};
use std::sync::Arc;

/// One optimization configuration — the point in the tuning space that
/// `augem-tune` sweeps ("automatically experiments with different unrolling
/// and unroll&jam configurations and selects the best performing").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizeConfig {
    /// Outer loops to unroll&jam, outermost first: `(loop var name, factor)`.
    pub unroll_jam: Vec<(String, usize)>,
    /// Innermost loop to unroll: `(loop var name, factor, expand accumulators)`.
    pub inner_unroll: Option<(String, usize, bool)>,
    /// Prefetch insertion parameters.
    pub prefetch: PrefetchConfig,
}

impl OptimizeConfig {
    /// The paper's Figure 13 configuration for GEMM: `j` and `i` unrolled
    /// by 2 and jammed, inner `l` unrolling "optionally turned off".
    pub fn gemm_2x2() -> Self {
        OptimizeConfig {
            unroll_jam: vec![("j".into(), 2), ("i".into(), 2)],
            inner_unroll: None,
            prefetch: PrefetchConfig::default(),
        }
    }

    /// A GEMM configuration with arbitrary unroll&jam factors.
    pub fn gemm(nu: usize, mu: usize, ku: usize) -> Self {
        OptimizeConfig {
            unroll_jam: vec![("j".into(), nu), ("i".into(), mu)],
            inner_unroll: if ku > 1 {
                Some(("l".into(), ku, false))
            } else {
                None
            },
            prefetch: PrefetchConfig::default(),
        }
    }

    /// Vector-kernel configuration (AXPY/DOT): unroll `i` by `factor`,
    /// expanding accumulators when the kernel is a reduction.
    pub fn vector(factor: usize, expand: bool) -> Self {
        OptimizeConfig {
            unroll_jam: Vec::new(),
            inner_unroll: Some(("i".into(), factor, expand)),
            prefetch: PrefetchConfig::default(),
        }
    }

    /// GEMV configuration: unroll the row loop `j` by `factor`.
    pub fn gemv(factor: usize) -> Self {
        OptimizeConfig {
            unroll_jam: Vec::new(),
            inner_unroll: Some(("j".into(), factor, false)),
            prefetch: PrefetchConfig::default(),
        }
    }
}

/// One applied pass with the parameters it ran under and the facts it
/// claims to have relied on. The facts are the pass's *own* report;
/// `crates/depan` replays each record against the surrounding kernel
/// snapshots and refuses the compilation when a precondition does not
/// actually hold — the same proof-carrying shape as the register
/// allocator's `BindingLog`.
#[derive(Debug, Clone)]
pub enum PassRecord {
    /// `unroll::unroll_and_jam(var, factor)`.
    UnrollJam { var: String, factor: usize },
    /// `unroll::unroll_inner(var, factor, expand)`; `accumulators` are the
    /// locals the pass scalar-expanded (reassociating their reductions).
    UnrollInner {
        var: String,
        factor: usize,
        expand: bool,
        accumulators: Vec<Sym>,
    },
    /// `strength::strength_reduce`, with every pointer group introduced.
    StrengthReduce { groups: Vec<SrGroup> },
    /// `scalar::scalar_replace` (facts are recovered from the snapshots).
    ScalarReplace,
    /// `prefetch::insert_prefetch` under `config`.
    Prefetch { config: PrefetchConfig },
}

impl PassRecord {
    /// Short pass name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            PassRecord::UnrollJam { .. } => "unroll_jam",
            PassRecord::UnrollInner { .. } => "unroll_inner",
            PassRecord::StrengthReduce { .. } => "strength_reduce",
            PassRecord::ScalarReplace => "scalar_replace",
            PassRecord::Prefetch { .. } => "prefetch",
        }
    }
}

/// One step of the transform pipeline: the pass plus the kernel
/// immediately before and after it ran. Snapshots are shared: a step's
/// `before` is the previous step's `after` (or the source), the same
/// allocation, so a log costs one kernel per pass and the chain check
/// can compare pointers.
#[derive(Debug, Clone)]
pub struct TransformStep {
    pub pass: PassRecord,
    pub before: Arc<Kernel>,
    pub after: Arc<Kernel>,
}

/// The ordered record of every pass one `generate_optimized` run applied.
/// Steps are shared by reference, so logs that share a [`Prefix`] share
/// its steps.
#[derive(Debug, Clone, Default)]
pub struct TransformLog {
    pub steps: Vec<Arc<TransformStep>>,
}

/// The passes before prefetch insertion — unroll&jam, inner unrolling,
/// strength reduction and scalar replacement — applied to a source
/// kernel. They depend only on the source and the two unroll settings of
/// an [`OptimizeConfig`], so configurations that differ only in
/// prefetching share one prefix.
#[derive(Debug, Clone)]
pub struct Prefix {
    /// The simple source kernel the first step starts from.
    pub source: Arc<Kernel>,
    /// One step per applied pass; the last step's `after` is the
    /// scalar-replaced kernel.
    pub steps: Vec<Arc<TransformStep>>,
}

impl Prefix {
    /// The kernel after the last pass of the prefix.
    pub fn kernel(&self) -> &Arc<Kernel> {
        self.steps.last().map_or(&self.source, |s| &s.after)
    }
}

/// Runs the Optimized C Kernel Generator: unroll&jam → inner unrolling →
/// strength reduction → scalar replacement → prefetch insertion.
pub fn generate_optimized(kernel: &Kernel, cfg: &OptimizeConfig) -> Result<Kernel, TransformError> {
    generate_optimized_logged(kernel, cfg, augem_obs::null()).map(|(k, _)| k)
}

/// [`generate_optimized`] with instrumentation that also returns the
/// [`TransformLog`] of every applied pass, for replay by `crates/depan`:
/// [`optimize_prefix`] then [`finish_optimized`] under one `cgen` span,
/// with one sub-span per pass. The IR statement counts before and after
/// the pass chain go to the `cgen.stmts.before` / `cgen.stmts.after`
/// counters (per-pass growth is recorded as `cgen.stmts.<pass>`).
pub fn generate_optimized_logged(
    kernel: &Kernel,
    cfg: &OptimizeConfig,
    tracer: &dyn Tracer,
) -> Result<(Kernel, TransformLog), TransformError> {
    let _stage = span(tracer, stage::CGEN);
    let prefix = optimize_prefix(Arc::new(kernel.clone()), cfg, tracer)?;
    Ok(finish_optimized(&prefix, &cfg.prefetch, tracer))
}

/// Appends a step for `pass`, which turned the latest snapshot (the last
/// step's `after`, or `source` before the first step) into `k`.
fn record(steps: &mut Vec<Arc<TransformStep>>, source: &Arc<Kernel>, pass: PassRecord, k: &Kernel) {
    let before = steps.last().map_or(source, |s| &s.after).clone();
    steps.push(Arc::new(TransformStep {
        pass,
        before,
        after: Arc::new(k.clone()),
    }));
}

/// The four passes before prefetch insertion (`cfg.prefetch` is not
/// read), each under its `cgen.<pass>` sub-span; the caller owns the
/// `cgen` span. Counts `cgen.stmts.before` and the per-pass growth.
pub fn optimize_prefix(
    source: Arc<Kernel>,
    cfg: &OptimizeConfig,
    tracer: &dyn Tracer,
) -> Result<Prefix, TransformError> {
    let mut k = (*source).clone();
    let mut steps = Vec::new();
    tracer.add("cgen.stmts.before", k.stmt_count() as u64);
    {
        let _s = span(tracer, "cgen.unroll_jam");
        for (v, f) in &cfg.unroll_jam {
            unroll_and_jam(&mut k, v, *f)?;
            let pass = PassRecord::UnrollJam {
                var: v.clone(),
                factor: *f,
            };
            record(&mut steps, &source, pass, &k);
        }
        tracer.add("cgen.stmts.unroll_jam", k.stmt_count() as u64);
    }
    {
        let _s = span(tracer, "cgen.unroll_inner");
        if let Some((v, f, expand)) = &cfg.inner_unroll {
            let accumulators = unroll_inner_logged(&mut k, v, *f, *expand)?;
            let pass = PassRecord::UnrollInner {
                var: v.clone(),
                factor: *f,
                expand: *expand,
                accumulators,
            };
            record(&mut steps, &source, pass, &k);
        }
        tracer.add("cgen.stmts.unroll_inner", k.stmt_count() as u64);
    }
    {
        let _s = span(tracer, "cgen.strength_reduce");
        let groups = strength_reduce_logged(&mut k);
        record(
            &mut steps,
            &source,
            PassRecord::StrengthReduce { groups },
            &k,
        );
    }
    {
        let _s = span(tracer, "cgen.scalar_replace");
        scalar_replace(&mut k);
        record(&mut steps, &source, PassRecord::ScalarReplace, &k);
    }
    Ok(Prefix { source, steps })
}

/// Prefetch insertion on `prefix` under a `cgen.prefetch` sub-span: the
/// optimized kernel and the full log, whose leading steps are the
/// prefix's own. Counts `cgen.stmts.after`.
pub fn finish_optimized(
    prefix: &Prefix,
    prefetch: &PrefetchConfig,
    tracer: &dyn Tracer,
) -> (Kernel, TransformLog) {
    let mut steps = prefix.steps.clone();
    let mut k = (**prefix.kernel()).clone();
    {
        let _s = span(tracer, "cgen.prefetch");
        insert_prefetch(&mut k, prefetch);
        let pass = PassRecord::Prefetch { config: *prefetch };
        record(&mut steps, &prefix.source, pass, &k);
    }
    tracer.add("cgen.stmts.after", k.stmt_count() as u64);
    (k, TransformLog { steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_ir::print::print_kernel;
    use augem_ir::{ArgValue, Interpreter};
    use augem_kernels::{axpy_simple, dot_simple, gemm_simple, gemv_simple};

    #[test]
    fn figure_13_configuration_runs_end_to_end() {
        let k = generate_optimized(&gemm_simple(), &OptimizeConfig::gemm_2x2()).unwrap();
        let c = print_kernel(&k);
        // Strength-reduced pointers, scalar temporaries and prefetches all
        // present, as in Figure 13.
        assert!(c.contains("ptr_A"), "{c}");
        assert!(c.contains("tmp"), "{c}");
        assert!(c.contains("__builtin_prefetch"), "{c}");
    }

    #[test]
    fn full_generator_preserves_gemm_semantics() {
        let args = |mr: i64, nr: i64, kc: i64| {
            let (mc, ldb, ldc) = (mr, nr, mr + 2);
            vec![
                ArgValue::Int(mr),
                ArgValue::Int(nr),
                ArgValue::Int(kc),
                ArgValue::Int(mc),
                ArgValue::Int(ldb),
                ArgValue::Int(ldc),
                ArgValue::Array((0..(mc * kc) as usize).map(|x| (x % 13) as f64).collect()),
                ArgValue::Array((0..(kc * ldb) as usize).map(|x| (x % 7) as f64).collect()),
                ArgValue::Array((0..(ldc * nr) as usize).map(|x| (x % 3) as f64).collect()),
            ]
        };
        let expect = Interpreter::new()
            .run(&gemm_simple(), args(8, 6, 9))
            .unwrap();
        for cfg in [
            OptimizeConfig::gemm_2x2(),
            OptimizeConfig::gemm(2, 4, 1),
            OptimizeConfig::gemm(2, 4, 2),
            OptimizeConfig::gemm(4, 4, 4),
        ] {
            let k = generate_optimized(&gemm_simple(), &cfg).unwrap();
            assert_eq!(
                Interpreter::new().run(&k, args(8, 6, 9)).unwrap(),
                expect,
                "cfg {cfg:?}"
            );
        }
    }

    #[test]
    fn full_generator_preserves_axpy_and_gemv_semantics() {
        let n = 21usize;
        let axpy_args = || {
            vec![
                ArgValue::Int(n as i64),
                ArgValue::F64(0.5),
                ArgValue::Array((0..n).map(|x| x as f64).collect()),
                ArgValue::Array((0..n).map(|x| (x % 4) as f64).collect()),
            ]
        };
        let expect = Interpreter::new().run(&axpy_simple(), axpy_args()).unwrap();
        for f in [2, 4, 8] {
            let k = generate_optimized(&axpy_simple(), &OptimizeConfig::vector(f, false)).unwrap();
            assert_eq!(Interpreter::new().run(&k, axpy_args()).unwrap(), expect);
        }

        let (m, nn, lda) = (14usize, 5usize, 14usize);
        let gemv_args = || {
            vec![
                ArgValue::Int(m as i64),
                ArgValue::Int(nn as i64),
                ArgValue::Int(lda as i64),
                ArgValue::Array((0..lda * nn).map(|x| ((x * 3) % 8) as f64).collect()),
                ArgValue::Array((0..nn).map(|x| x as f64 - 1.0).collect()),
                ArgValue::Array(vec![1.0; m]),
            ]
        };
        let expect = Interpreter::new().run(&gemv_simple(), gemv_args()).unwrap();
        let k = generate_optimized(&gemv_simple(), &OptimizeConfig::gemv(4)).unwrap();
        assert_eq!(Interpreter::new().run(&k, gemv_args()).unwrap(), expect);
    }

    #[test]
    fn dot_reduction_pipeline_close_to_reference() {
        let n = 33usize;
        let x: Vec<f64> = (0..n).map(|v| (v as f64).sin()).collect();
        let y: Vec<f64> = (0..n).map(|v| (v as f64 * 0.5).cos()).collect();
        let args = || {
            vec![
                ArgValue::Int(n as i64),
                ArgValue::Array(x.clone()),
                ArgValue::Array(y.clone()),
                ArgValue::Array(vec![0.0]),
            ]
        };
        let exact: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let k = generate_optimized(&dot_simple(), &OptimizeConfig::vector(4, true)).unwrap();
        let got = Interpreter::new().run(&k, args()).unwrap()[2][0];
        assert!((got - exact).abs() < 1e-12 * n as f64, "{got} vs {exact}");
    }

    #[test]
    fn bad_config_surfaces_error() {
        let cfg = OptimizeConfig {
            unroll_jam: vec![("nope".into(), 2)],
            inner_unroll: None,
            prefetch: PrefetchConfig::disabled(),
        };
        assert!(generate_optimized(&gemm_simple(), &cfg).is_err());
    }
}
