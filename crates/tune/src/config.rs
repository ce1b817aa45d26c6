//! Tunable kernel configurations, the [`Candidate`] trait the sweep is
//! generic over, and candidate generation.

use crate::cache::EvalCache;
use crate::evaluate::{gemm_eval_args, gemm_problem, shapes, vector_eval_args, vector_problem};
use augem_asm::AsmKernel;
use augem_cost::ArgShape;
use augem_ir::Kernel;
use augem_kernels::DlaKernel;
use augem_machine::{MachineSpec, SimdMode};
use augem_opt::{CodegenError, CodegenOptions, FmaPolicy, StrategyPref};
use augem_sim::SimValue;
use augem_transforms::{OptimizeConfig, PrefetchConfig, TransformError};
use augem_verify::{EquivArg, EquivSpec};
use std::sync::Arc;

/// A point in the GEMM tuning space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmConfig {
    /// unroll&jam factor of the column loop `j` (Nr direction).
    pub nu: usize,
    /// unroll&jam factor of the row loop `i` (Mr direction).
    pub mu: usize,
    /// inner (`l`) unrolling factor (1 = off, as in Figure 13).
    pub ku: usize,
    pub strategy: StrategyPref,
    pub fma: FmaPolicy,
    pub prefetch: PrefetchConfig,
    pub schedule: bool,
}

impl GemmConfig {
    /// The paper's Figure 13 starting point.
    pub fn fig13() -> Self {
        GemmConfig {
            nu: 2,
            mu: 2,
            ku: 1,
            strategy: StrategyPref::Vdup,
            fma: FmaPolicy::Auto,
            prefetch: PrefetchConfig::default(),
            schedule: true,
        }
    }

    /// Human-readable tag for reports.
    pub fn tag(&self) -> String {
        format!(
            "{}x{}x{} {:?} {:?} pf={} sched={}",
            self.mu,
            self.nu,
            self.ku,
            self.strategy,
            self.fma,
            self.prefetch
                .read_dist
                .map(|d| d.to_string())
                .unwrap_or_else(|| "off".into()),
            self.schedule
        )
    }

    fn opt_config(&self) -> OptimizeConfig {
        let mut cfg = OptimizeConfig::gemm(self.nu, self.mu, self.ku);
        cfg.prefetch = self.prefetch;
        cfg
    }

    /// The transform half of the pipeline this configuration drives: the
    /// simple source kernel and the optimization recipe, for callers that
    /// run the transform passes themselves.
    pub fn transform_inputs(&self) -> (Kernel, OptimizeConfig) {
        (DlaKernel::Gemm.build(), self.opt_config())
    }

    fn codegen_options(&self) -> CodegenOptions {
        CodegenOptions {
            strategy: self.strategy,
            fma: self.fma,
            schedule: self.schedule,
            ..Default::default()
        }
    }

    /// Runs the full pipeline for this configuration.
    pub fn build(&self, machine: &MachineSpec) -> Result<AsmKernel, BuildError> {
        self.build_logged(machine).map(|b| b.asm)
    }

    /// [`build`](GemmConfig::build) keeping every artifact the static
    /// verifier consumes.
    pub fn build_logged(&self, machine: &MachineSpec) -> Result<LoggedBuild, BuildError> {
        build_logged(self, machine)
    }

    /// The translation-validation problem instance for this
    /// configuration: the smallest shape that drives every unrolled body
    /// *and* every remainder path (each unrolled dimension gets
    /// `2*factor + 1` iterations — two main-loop trips plus a nonzero
    /// remainder), with symbolic array contents.
    ///
    /// Parameter order matches `gemm_simple`:
    /// `(Mr, Nr, Kc, Mc, LDB, LDC, A, B, C)`.
    pub fn equiv_spec(&self) -> EquivSpec {
        let mr = 2 * self.mu + 1;
        let nr = 2 * self.nu + 1;
        let kc = 2 * self.ku.max(1) + 1;
        // Leading dimensions strictly larger than the accessed extents,
        // so stride bugs shift results instead of hiding.
        let mc = mr + 1;
        let ldb = nr + 2;
        let ldc = mr + 3;
        EquivSpec::new(vec![
            EquivArg::Int(mr as i64),
            EquivArg::Int(nr as i64),
            EquivArg::Int(kc as i64),
            EquivArg::Int(mc as i64),
            EquivArg::Int(ldb as i64),
            EquivArg::Int(ldc as i64),
            EquivArg::Array(mc * kc),
            EquivArg::Array(kc * ldb),
            EquivArg::Array(ldc * nr),
        ])
    }
}

/// Which vector-style kernel a [`VectorConfig`] tunes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorKernel {
    Axpy,
    Dot,
    Gemv,
    Ger,
    Scal,
}

impl VectorKernel {
    pub fn name(self) -> &'static str {
        match self {
            VectorKernel::Axpy => "daxpy",
            VectorKernel::Dot => "ddot",
            VectorKernel::Gemv => "dgemv",
            VectorKernel::Ger => "dger",
            VectorKernel::Scal => "dscal",
        }
    }

    /// The facade's kernel id for this kernel.
    pub fn dla(self) -> DlaKernel {
        match self {
            VectorKernel::Axpy => DlaKernel::Axpy,
            VectorKernel::Dot => DlaKernel::Dot,
            VectorKernel::Gemv => DlaKernel::Gemv,
            VectorKernel::Ger => DlaKernel::Ger,
            VectorKernel::Scal => DlaKernel::Scal,
        }
    }

    /// The vector kernel a DLA kernel tunes as; `None` for GEMM, which
    /// has its own tuning space.
    pub fn of(kernel: DlaKernel) -> Option<VectorKernel> {
        match kernel {
            DlaKernel::Gemm => None,
            DlaKernel::Axpy => Some(VectorKernel::Axpy),
            DlaKernel::Dot => Some(VectorKernel::Dot),
            DlaKernel::Gemv => Some(VectorKernel::Gemv),
            DlaKernel::Ger => Some(VectorKernel::Ger),
            DlaKernel::Scal => Some(VectorKernel::Scal),
        }
    }
}

/// A point in the Level-1/2 tuning space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorConfig {
    pub kernel: VectorKernel,
    pub unroll: usize,
    pub prefetch: PrefetchConfig,
    pub schedule: bool,
}

impl VectorConfig {
    pub fn tag(&self) -> String {
        format!(
            "{} u{} pf={} sched={}",
            self.kernel.name(),
            self.unroll,
            self.prefetch
                .read_dist
                .map(|d| d.to_string())
                .unwrap_or_else(|| "off".into()),
            self.schedule
        )
    }

    /// Runs the full pipeline for this configuration.
    pub fn build(&self, machine: &MachineSpec) -> Result<AsmKernel, BuildError> {
        self.build_logged(machine).map(|b| b.asm)
    }

    /// [`build`](VectorConfig::build) keeping every artifact the static
    /// verifier consumes.
    pub fn build_logged(&self, machine: &MachineSpec) -> Result<LoggedBuild, BuildError> {
        build_logged(self, machine)
    }

    /// The translation-validation problem instance for this
    /// configuration. The unrolled direction gets `2*unroll + 3`
    /// iterations — at least two main-loop trips plus a nonzero
    /// remainder — and matrix kernels get a small second extent with a
    /// leading dimension one past the accessed rows.
    pub fn equiv_spec(&self) -> EquivSpec {
        let u = 2 * self.unroll + 3;
        let args = match self.kernel {
            // daxpy(n, alpha, X, Y)
            VectorKernel::Axpy => vec![
                EquivArg::Int(u as i64),
                EquivArg::SymF64,
                EquivArg::Array(u),
                EquivArg::Array(u),
            ],
            // ddot(n, X, Y, R)
            VectorKernel::Dot => vec![
                EquivArg::Int(u as i64),
                EquivArg::Array(u),
                EquivArg::Array(u),
                EquivArg::Array(1),
            ],
            // dgemv(m, n, LDA, A, X, Y) — inner (unrolled) loop over m.
            VectorKernel::Gemv => {
                let (m, n, lda) = (u, 3usize, u + 1);
                vec![
                    EquivArg::Int(m as i64),
                    EquivArg::Int(n as i64),
                    EquivArg::Int(lda as i64),
                    EquivArg::Array(lda * n),
                    EquivArg::Array(n),
                    EquivArg::Array(m),
                ]
            }
            // dger(m, n, LDA, X, Y, A) — inner (unrolled) loop over m.
            VectorKernel::Ger => {
                let (m, n, lda) = (u, 3usize, u + 1);
                vec![
                    EquivArg::Int(m as i64),
                    EquivArg::Int(n as i64),
                    EquivArg::Int(lda as i64),
                    EquivArg::Array(m),
                    EquivArg::Array(n),
                    EquivArg::Array(lda * n),
                ]
            }
            // dscal(n, alpha, Y)
            VectorKernel::Scal => vec![
                EquivArg::Int(u as i64),
                EquivArg::SymF64,
                EquivArg::Array(u),
            ],
        };
        EquivSpec::new(args)
    }

    /// The transform half of the pipeline this configuration drives (see
    /// [`GemmConfig::transform_inputs`]).
    pub fn transform_inputs(&self) -> (Kernel, OptimizeConfig) {
        (self.kernel.dla().build(), self.opt_config())
    }

    fn opt_config(&self) -> OptimizeConfig {
        let mut cfg = match self.kernel {
            VectorKernel::Dot => OptimizeConfig::vector(self.unroll, true),
            VectorKernel::Gemv => OptimizeConfig::gemv(self.unroll),
            // GER's inner loop runs over i (rows); SCAL over its only loop i.
            VectorKernel::Axpy | VectorKernel::Ger | VectorKernel::Scal => {
                OptimizeConfig::vector(self.unroll, false)
            }
        };
        cfg.prefetch = self.prefetch;
        cfg
    }

    fn codegen_options(&self) -> CodegenOptions {
        CodegenOptions {
            strategy: StrategyPref::Vdup,
            fma: FmaPolicy::Auto,
            schedule: self.schedule,
            ..Default::default()
        }
    }
}

/// One point of a tuning space, as the sweep and the facade see it:
/// everything needed to build, measure, rank and verify a candidate
/// without knowing its family. Object-safe, so a winner of either family
/// travels as `&dyn Candidate`. Each method forwards to the
/// configuration's inherent method of the same purpose.
pub trait Candidate {
    /// The DLA kernel this candidate implements.
    fn kernel(&self) -> DlaKernel;
    /// The human-readable tag — also the journal and cache key.
    fn tag(&self) -> String;
    /// The circuit-breaker family: candidates that share a register
    /// shape (`"8x4"`) or an unroll factor (`"u8"`) tend to fail together.
    fn family(&self) -> String;
    /// The pipeline inputs besides the source kernel (which is
    /// `self.kernel().build()`): the transform recipe and the
    /// code-generation options. The evaluation cache runs the stages.
    fn pipeline_inputs(&self) -> (OptimizeConfig, CodegenOptions);
    /// The evaluation micro-problem's arguments and useful-flop count.
    fn eval_args(&self) -> (Vec<SimValue>, u64);
    /// [`eval_args`](Candidate::eval_args) as shapes: integer values and
    /// array lengths, all the static bound reads, with no array built.
    fn eval_shapes(&self) -> (Vec<ArgShape>, u64);
    /// Measured warm (steady state, cache-resident) rather than cold.
    fn warm(&self) -> bool;
    /// The translation-validation problem instance.
    fn equiv_spec(&self) -> EquivSpec;
}

impl Candidate for GemmConfig {
    fn kernel(&self) -> DlaKernel {
        DlaKernel::Gemm
    }
    fn tag(&self) -> String {
        GemmConfig::tag(self)
    }
    fn family(&self) -> String {
        format!("{}x{}", self.mu, self.nu)
    }
    fn pipeline_inputs(&self) -> (OptimizeConfig, CodegenOptions) {
        (self.opt_config(), self.codegen_options())
    }
    fn eval_args(&self) -> (Vec<SimValue>, u64) {
        gemm_eval_args(self)
    }
    fn eval_shapes(&self) -> (Vec<ArgShape>, u64) {
        shapes(gemm_problem(self))
    }
    fn warm(&self) -> bool {
        true
    }
    fn equiv_spec(&self) -> EquivSpec {
        GemmConfig::equiv_spec(self)
    }
}

impl Candidate for VectorConfig {
    fn kernel(&self) -> DlaKernel {
        self.kernel.dla()
    }
    fn tag(&self) -> String {
        VectorConfig::tag(self)
    }
    fn family(&self) -> String {
        format!("u{}", self.unroll)
    }
    fn pipeline_inputs(&self) -> (OptimizeConfig, CodegenOptions) {
        (self.opt_config(), self.codegen_options())
    }
    fn eval_args(&self) -> (Vec<SimValue>, u64) {
        vector_eval_args(self)
    }
    fn eval_shapes(&self) -> (Vec<ArgShape>, u64) {
        shapes(vector_problem(self))
    }
    fn warm(&self) -> bool {
        false
    }
    fn equiv_spec(&self) -> EquivSpec {
        VectorConfig::equiv_spec(self)
    }
}

/// Pipeline failure (either half).
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    Transform(TransformError),
    Codegen(CodegenError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Transform(e) => write!(f, "transform: {e}"),
            BuildError::Codegen(e) => write!(f, "codegen: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// One compilation with every artifact the static verifier needs: the
/// template-tagged IR kernel, the final assembly, and the allocator's
/// decision log. The machine-independent half is shared by reference
/// with every build of the same transform configuration (see
/// [`EvalCache`]).
#[derive(Debug, Clone)]
pub struct LoggedBuild {
    /// The *simple* pre-transform kernel — the source side of
    /// translation validation, so the proof covers the source-to-source
    /// transforms as well as code generation.
    pub source: Arc<Kernel>,
    /// The optimized, template-tagged low-level C kernel.
    pub kernel: Arc<Kernel>,
    /// The final (scheduled) assembly kernel.
    pub asm: AsmKernel,
    /// The register-allocation decision log.
    pub log: augem_opt::BindingLog,
    /// The transform-pass record (one step per applied pass, with
    /// before/after snapshots) — what `augem-depan` replays to prove the
    /// source-to-source half legal. Note `kernel` is post-`identify`
    /// (Regions added), so the log's chain ends one stage earlier.
    pub tlog: augem_transforms::TransformLog,
}

/// Runs every stage of the pipeline for `c` on `machine` on a fresh
/// cache: the path [`GemmConfig::build_logged`] and
/// [`VectorConfig::build_logged`] take, for any candidate.
pub fn build_logged(c: &dyn Candidate, machine: &MachineSpec) -> Result<LoggedBuild, BuildError> {
    // The cache is dropped with the statement, so the build's `Arc` is
    // unique and unwraps without a copy.
    let built = EvalCache::new().logged(c, machine, augem_obs::null());
    built.map(Arc::unwrap_or_clone)
}

/// GEMM candidate set for a machine's SIMD width (the tuner's search
/// space). Shapes that cannot vectorize on the machine are omitted.
pub fn gemm_candidates(machine: &MachineSpec) -> Vec<GemmConfig> {
    let w = machine.simd_mode().f64_lanes();
    let shapes: &[(usize, usize)] = if machine.simd_mode() == SimdMode::Avx {
        &[
            (4, 1),
            (4, 2),
            (4, 4),
            (8, 1),
            (8, 2),
            (8, 3),
            (8, 4),
            (12, 2),
        ]
    } else {
        &[
            (2, 1),
            (2, 2),
            (2, 4),
            (4, 2),
            (4, 3),
            (4, 4),
            (6, 2),
            (8, 2),
        ]
    };
    let mut out = Vec::new();
    for &(mu, nu) in shapes {
        for ku in [1usize, 2] {
            for strategy in [StrategyPref::Vdup, StrategyPref::Shuf] {
                if strategy == StrategyPref::Shuf && (mu != w || nu != w) {
                    continue;
                }
                for pf in [PrefetchConfig::default(), PrefetchConfig::disabled()] {
                    out.push(GemmConfig {
                        nu,
                        mu,
                        ku,
                        strategy,
                        fma: FmaPolicy::Auto,
                        prefetch: pf,
                        schedule: true,
                    });
                }
            }
        }
    }
    out
}

/// Vector-kernel candidate set.
pub fn vector_candidates(kernel: VectorKernel, machine: &MachineSpec) -> Vec<VectorConfig> {
    let w = machine.simd_mode().f64_lanes();
    let mut out = Vec::new();
    for unroll in [w, 2 * w, 4 * w] {
        for dist in [None, Some(32i64), Some(64), Some(128)] {
            let prefetch = match dist {
                None => PrefetchConfig::disabled(),
                Some(d) => PrefetchConfig {
                    read_dist: Some(d),
                    write_prefetch: false,
                    locality: 3,
                },
            };
            out.push(VectorConfig {
                kernel,
                unroll,
                prefetch,
                schedule: true,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_sets_are_nonempty_and_buildable_mostly() {
        for m in MachineSpec::paper_platforms() {
            let cands = gemm_candidates(&m);
            assert!(cands.len() >= 10);
            let ok = cands.iter().filter(|c| c.build(&m).is_ok()).count();
            assert!(
                ok * 2 >= cands.len(),
                "most GEMM candidates should build on {}: {ok}/{}",
                m.arch.short_name(),
                cands.len()
            );
        }
    }

    #[test]
    fn shuf_candidates_only_square_width_shapes() {
        let m = MachineSpec::sandy_bridge();
        for c in gemm_candidates(&m) {
            if c.strategy == StrategyPref::Shuf {
                assert_eq!(c.mu, 4);
                assert_eq!(c.nu, 4);
            }
        }
    }

    #[test]
    fn vector_candidates_build() {
        let m = MachineSpec::piledriver();
        for k in [VectorKernel::Axpy, VectorKernel::Dot, VectorKernel::Gemv] {
            let cands = vector_candidates(k, &m);
            assert_eq!(cands.len(), 12);
            for c in &cands {
                c.build(&m)
                    .unwrap_or_else(|e| panic!("{} failed: {e}", c.tag()));
            }
        }
    }

    #[test]
    fn fig13_config_builds_everywhere() {
        for m in MachineSpec::paper_platforms() {
            GemmConfig::fig13().build(&m).unwrap();
        }
    }
}
