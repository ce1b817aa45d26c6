//! # augem — AUGEM, reproduced in Rust
//!
//! A from-scratch reproduction of *AUGEM: Automatically Generate High
//! Performance Dense Linear Algebra Kernels on x86 CPUs* (Wang, Zhang,
//! Zhang, Yi — SC'13): a template-based framework that turns a simple C
//! implementation of a DLA kernel into a fully optimized assembly kernel,
//! with no manual intervention.
//!
//! This crate is the facade: [`Augem::run`] drives the whole pipeline
//! (Figure 1 of the paper) and re-exports the component crates.
//!
//! ```
//! use augem::{Augem, DlaKernel, RunOptions, Target};
//! use augem::machine::MachineSpec;
//! use augem::resil::Injector;
//!
//! let driver = Augem::new(MachineSpec::sandy_bridge());
//! let run = driver.run(Target::Tune(DlaKernel::Axpy), &RunOptions::plain(), &Injector::disabled());
//! let result = run.generated.expect("axpy tunes");
//! println!("{}", result.assembly_text());           // AT&T .s text
//! assert!(result.mflops > 0.0);                     // simulated speed
//! ```
//!
//! Pipeline stages (each usable separately through the re-exported
//! crates):
//!
//! 1. **Optimized C Kernel Generator** ([`transforms`]) — unroll&jam,
//!    unrolling, strength reduction, scalar replacement, prefetching;
//! 2. **Template Identifier** ([`templates`]) — matches the mmCOMP /
//!    mmSTORE / mvCOMP families and their unrolled merges;
//! 3. **Template Optimizer + Assembly Kernel Generator** ([`opt`]) —
//!    per-array register queues, Vdup/Shuf SIMD vectorization,
//!    SSE/AVX/FMA3/FMA4 instruction selection, scheduling;
//! 4. **Empirical tuning** ([`tune`]) — candidate sweep scored on the
//!    cycle-approximate simulator ([`sim`]);
//! 5. **Library layer** ([`blas`]) — a native Rust BLAS subset plus the
//!    comparison-library models behind the paper's figures.

#![forbid(unsafe_code)]

pub use augem_asm as asm;
pub use augem_blas as blas;
pub use augem_cost as cost;
pub use augem_depan as depan;
pub use augem_ir as ir;
pub use augem_kernels as kernels;
pub use augem_machine as machine;
pub use augem_obs as obs;
pub use augem_opt as opt;
pub use augem_resil as resil;
pub use augem_sim as sim;
pub use augem_templates as templates;
pub use augem_transforms as transforms;
pub use augem_tune as tune;
pub use augem_verify as verify;

pub use augem_kernels::DlaKernel;

use augem_asm::AsmKernel;
use augem_machine::MachineSpec;
use augem_obs::{
    CandidateFailure, Collector, RankedCandidate, RunReport, SimCounters, Tracer, TunerTelemetry,
};
use augem_prof::Profile;
use augem_resil::{sandboxed, Injector, Journal, Site};
use augem_sim::TimingReport;
use augem_tune::config::{GemmConfig, LoggedBuild, VectorConfig, VectorKernel};
use augem_tune::{
    evaluate, gemm_candidates, profile, sweep, vector_candidates, Candidate, EvalCache, EvalError,
    Evaluation, ResilOptions, TuneError, TuneResult,
};
use augem_verify::Diagnostic;
use std::path::PathBuf;
use std::sync::Arc;

/// A fully generated, tuned, simulated kernel.
#[derive(Debug, Clone)]
pub struct Generated {
    /// Which DLA kernel this is.
    pub kernel: DlaKernel,
    /// The target machine.
    pub machine: MachineSpec,
    /// The generated assembly.
    pub asm: AsmKernel,
    /// Human-readable description of the winning configuration.
    pub config_tag: String,
    /// Timing-simulator measurement of the tuned kernel.
    pub report: TimingReport,
    /// Useful Mflops of the tuning micro-problem.
    pub mflops: f64,
}

impl Generated {
    /// The AT&T-syntax `.s` text — the paper's output artifact.
    pub fn assembly_text(&self) -> String {
        augem_asm::emit::emit_att(&self.asm, &self.machine.isa)
    }
}

/// Converts a tuner result into report telemetry.
fn telemetry_of<C: Candidate>(t: &TuneResult<C>) -> TunerTelemetry {
    let mut telemetry = TunerTelemetry::from_ranking(
        t.ranking
            .iter()
            .map(|(c, mflops)| RankedCandidate {
                tag: c.tag(),
                mflops: *mflops,
            })
            .collect(),
        t.failures
            .iter()
            .map(|(tag, reason)| CandidateFailure {
                tag: tag.clone(),
                reason: reason.clone(),
            })
            .collect(),
        t.generated as u64,
    );
    telemetry.eval_latency_ns = t.eval_latency_ns.clone();
    telemetry
}

/// Repackages the winner's [`TimingReport`] for the run report.
fn sim_counters(r: &TimingReport) -> SimCounters {
    SimCounters {
        cycles: r.cycles,
        dyn_insts: r.dyn_insts,
        flops: r.flops,
        mem_accesses: r.mem_accesses,
        l1_hits: r.l1_hits(),
        l1_misses: r.l1_misses,
        llc_misses: r.llc_misses,
        port_uops: r.port_uops.clone(),
    }
}

/// What a sweep hands the ladder, with the candidate family erased:
/// empty when no sweep ran or the sweep found nothing.
#[derive(Default)]
struct Tuned {
    /// Every ranked candidate, best first.
    ranking: Vec<Box<dyn Candidate>>,
    /// The winner's measurement.
    best_eval: Option<Evaluation>,
    telemetry: Option<TunerTelemetry>,
}

/// What [`Augem::run`] generates.
#[derive(Clone, Copy)]
pub enum Target<'a> {
    /// Sweep the kernel's tuning space and ship the first rung of the
    /// degradation ladder that passes.
    Tune(DlaKernel),
    /// Build and measure exactly this configuration: no sweep, no
    /// fallback. [`Augem::paper_default`] is the untuned "before".
    Config(&'a dyn Candidate),
}

/// Which checks gate each rung of [`Augem::run`]'s ladder. A kernel with
/// an error diagnostic never ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verify {
    /// No checks: the first rung that builds and measures ships.
    Off,
    /// The structural checks ([`verify::check`]) over the rung's logged
    /// build.
    Structural,
    /// The structural checks, then the translation validator
    /// ([`verify::check_equivalence`]) at the rung's own problem shape.
    Equivalence,
}

/// What [`Augem::run`] does around the pipeline. `default()` is the
/// serving policy: a resilient sweep that prunes by bound
/// ([`ResilOptions::prune`]) and full verification. `plain()` is the
/// exhaustive, unverified sweep.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Sandbox / budget / retry / breaker knobs for the sweep and for
    /// each rung's evaluation.
    pub resil: ResilOptions,
    /// The checks each rung must pass to ship.
    pub verify: Verify,
    /// Profile the shipped kernel (per-pc attribution via `augem-prof`)
    /// and embed the region rollup in the run report. A cache hit
    /// replays a stored profile instead of re-simulating.
    pub profile: bool,
    /// Replay the shipped kernel's transform log through the [`depan`]
    /// legality checker.
    pub check_transforms: bool,
    /// Journal path for checkpoint/resume (`None` = in-memory only).
    pub checkpoint: Option<PathBuf>,
    /// Resume from an existing journal at `checkpoint` instead of
    /// starting the sweep over.
    pub resume: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            resil: ResilOptions::default(),
            verify: Verify::Equivalence,
            profile: false,
            check_transforms: false,
            checkpoint: None,
            resume: false,
        }
    }
}

impl RunOptions {
    /// The exhaustive sweep ([`ResilOptions::plain`]) with no
    /// verification: the winner ships as measured.
    pub fn plain() -> Self {
        RunOptions {
            resil: ResilOptions::plain(),
            verify: Verify::Off,
            ..Self::default()
        }
    }
}

/// [`RunOptions`] under the name [`Augem::generate_degradable`] takes.
pub type DegradationPolicy = RunOptions;

/// How many next-ranked candidates the ladder tries when the winner
/// fails, before it falls back to the paper default.
const MAX_NEXT_RANKED: usize = 3;

/// Which rung of [`Augem::run`]'s ladder shipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Degradation {
    /// The tuned winner (or the explicit configuration) passed — no
    /// degradation.
    None,
    /// The winner failed; a lower-ranked verified candidate shipped
    /// instead (`rank` is its 0-based position in the tuner's ranking).
    NextRanked { rank: usize, tag: String },
    /// The whole ranking failed; the paper-default configuration
    /// shipped instead.
    PaperDefault { tag: String },
    /// The sweep was interrupted mid-run (simulated crash); the journal
    /// holds the completed prefix and the run can be resumed.
    Interrupted,
    /// Nothing usable could be generated; only the report survives.
    ReportOnly,
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Degradation::None => write!(f, "none"),
            Degradation::NextRanked { rank, tag } => {
                write!(f, "fell back to rank-{rank} candidate {tag}")
            }
            Degradation::PaperDefault { tag } => {
                write!(f, "fell back to paper-default configuration {tag}")
            }
            Degradation::Interrupted => write!(f, "interrupted (resumable from checkpoint)"),
            Degradation::ReportOnly => write!(f, "no kernel generated; report only"),
        }
    }
}

/// The infallible outcome of [`Augem::run`]: a kernel that passed its
/// rung, or a typed degradation — never a panic, never an abort.
#[derive(Debug)]
pub struct RunOutcome {
    /// The shipped kernel, when any rung produced one.
    pub generated: Option<Generated>,
    /// The run report — always produced, even report-only.
    pub report: RunReport,
    /// Verifier diagnostics for the shipped kernel: warnings only, since
    /// a kernel with errors never ships.
    pub diagnostics: Vec<Diagnostic>,
    /// `T`-rule diagnostics from replaying the shipped kernel's transform
    /// log (empty unless `check_transforms` was set).
    pub tchecks: Vec<Diagnostic>,
    /// The shipped kernel's full profile (per-pc attribution, annotated
    /// listing, `augem.profile/v1` artifact), when `profile` was set.
    pub profile: Option<Result<Profile, EvalError>>,
    /// Which rung (if any) the kernel came from.
    pub degradation: Degradation,
    /// Why the first rung failed (`None` when not degraded).
    pub cause: Option<String>,
}

impl RunOutcome {
    /// Did any fallback fire?
    pub fn is_degraded(&self) -> bool {
        !matches!(self.degradation, Degradation::None)
    }

    fn unshipped(report: RunReport, degradation: Degradation, cause: Option<String>) -> Self {
        RunOutcome {
            generated: None,
            report,
            diagnostics: Vec::new(),
            tchecks: Vec::new(),
            profile: None,
            degradation,
            cause,
        }
    }
}

/// The end-to-end driver: "taking as input a simple C implementation of a
/// DLA kernel, it automatically generates an efficient assembly kernel"
/// (paper §2), selecting configurations by empirical feedback.
#[derive(Debug, Clone)]
pub struct Augem {
    machine: MachineSpec,
    /// The driver's evaluation cache: every pipeline stage and
    /// measurement in the sweep, the ladder, verification and profiling
    /// is content-addressed here, so each transform runs once per
    /// configuration, each build once per `(configuration, machine)` and
    /// each measurement once per `(configuration, machine, budget)`.
    /// Clones of the driver share the cache.
    cache: Arc<EvalCache>,
}

impl Augem {
    pub fn new(machine: MachineSpec) -> Self {
        Augem {
            machine,
            cache: Arc::new(EvalCache::new()),
        }
    }

    /// A driver sharing an externally owned cache. Build and measurement
    /// keys include the machine fingerprint and transform keys need none,
    /// so one cache can back drivers for *different* machines, which then
    /// share every transform — the serving daemon uses this to keep a
    /// single in-process memoization layer across its whole request mix.
    pub fn with_cache(machine: MachineSpec, cache: Arc<EvalCache>) -> Self {
        Augem { machine, cache }
    }

    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// The driver's evaluation cache (sizes are handy in reports/tests).
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// The conservative, always-supported configuration: the paper's
    /// Figure-13 starting point for GEMM, the narrowest vectorizable
    /// unroll with no prefetching for the vector kernels. It is the last
    /// rung of every tuned run's ladder and, as [`Target::Config`], the
    /// "before" side of the paper's naive-vs-tuned comparisons — the
    /// kernel the performance lints ([`cost::lint`]) complain about.
    pub fn paper_default(&self, kernel: DlaKernel) -> Box<dyn Candidate> {
        match VectorKernel::of(kernel) {
            None => Box::new(GemmConfig::fig13()),
            Some(kernel) => Box::new(VectorConfig {
                kernel,
                unroll: self.machine.simd_mode().f64_lanes(),
                prefetch: augem_transforms::PrefetchConfig::disabled(),
                schedule: true,
            }),
        }
    }

    /// Runs the pipeline for `target` and packages everything it saw
    /// into an `augem.run-report/v1` [`RunReport`].
    ///
    /// [`Target::Tune`] sweeps the kernel's space (per `opts.resil`,
    /// journaling to `opts.checkpoint`), then walks the degradation
    /// ladder: the winner, the next three ranked candidates, the
    /// paper-default configuration. [`Target::Config`]'s ladder is that
    /// one configuration. The first rung that evaluates (a cache hit for
    /// ranked candidates), rebuilds (a hit) and passes `opts.verify`
    /// ships; every step is sandboxed, so a panic fails the rung, not
    /// the run. The shipped kernel is then profiled and its transform
    /// log replayed through [`depan`] when asked. Every path ends in a
    /// kernel or a typed [`Degradation`]. `injector` plants
    /// deterministic faults for the resilience suites; pass
    /// [`Injector::disabled`] otherwise.
    pub fn run(&self, target: Target<'_>, opts: &RunOptions, injector: &Injector) -> RunOutcome {
        let collector = Collector::new();
        let mut cause = None;
        let (kernel, tuned) = match target {
            Target::Config(c) => (c.kernel(), Tuned::default()),
            Target::Tune(kernel) => match self.tune(kernel, opts, injector, &collector) {
                Ok(t) => (kernel, t),
                Err(e) if e.interrupted => {
                    let report = self.finish_report(&collector, kernel, None, None);
                    let cause = Some(e.to_string());
                    return RunOutcome::unshipped(report, Degradation::Interrupted, cause);
                }
                // Empty search space: straight to the paper default.
                Err(e) => {
                    cause = Some(e.to_string());
                    (kernel, Tuned::default())
                }
            },
        };
        let default = self.paper_default(kernel);
        let rungs: Vec<&dyn Candidate> = match target {
            Target::Config(c) => vec![c],
            Target::Tune(_) => tuned
                .ranking
                .iter()
                .take(1 + MAX_NEXT_RANKED)
                .map(|c| &**c)
                .chain([&*default])
                .collect(),
        };

        for (rank, &w) in rungs.iter().enumerate() {
            let tag = w.tag();
            let is_default = matches!(target, Target::Tune(_)) && rank + 1 == rungs.len();
            if is_default {
                collector.add(augem_resil::counter::FALLBACK_DEFAULT, 1);
                collector.add(augem_resil::counter::DEGRADED, 1);
                collector.event(
                    "resil.fallback",
                    &[("kind", "default".into()), ("tag", tag.as_str().into())],
                );
            } else if rank > 0 {
                collector.add(augem_resil::counter::FALLBACK_NEXT_RANKED, 1);
                collector.event(
                    "resil.fallback",
                    &[("kind", "next_ranked".into()), ("tag", tag.as_str().into())],
                );
            }
            let known = tuned.best_eval.as_ref().filter(|_| rank == 0);
            let (g, diagnostics) = match self.try_rung(w, known, opts, injector, &collector) {
                Ok(shipped) => shipped,
                Err(why) => {
                    collector.event(
                        "resil.verify.failed",
                        &[("tag", tag.as_str().into()), ("error", why.as_str().into())],
                    );
                    cause = Some(match cause {
                        Some(c) if is_default => format!("{c}; paper default {tag}: {why}"),
                        Some(c) => c,
                        None => format!("{tag}: {why}"),
                    });
                    continue;
                }
            };
            let degradation = if is_default {
                Degradation::PaperDefault { tag }
            } else if rank > 0 {
                collector.add(augem_resil::counter::DEGRADED, 1);
                Degradation::NextRanked { rank, tag }
            } else {
                Degradation::None
            };

            let profile = opts.profile.then(|| self.profile_of(w, &collector));
            let tchecks = if opts.check_transforms {
                // The rung built through the cache, which keeps every
                // transform it ran, so this is a hit.
                let t = self
                    .cache
                    .transformed(w, augem_obs::null())
                    .expect("the shipped rung's transform is cached");
                augem_depan::traced(&collector, || t.legality())
            } else {
                Vec::new()
            };
            let mut report = self.finish_report(&collector, kernel, Some(&g), tuned.telemetry);
            report.profile = profile
                .as_ref()
                .and_then(|p| p.as_ref().ok())
                .map(Profile::summary);
            report.tchecks = tchecks.iter().map(|d| d.to_string()).collect();
            return RunOutcome {
                generated: Some(g),
                report,
                diagnostics,
                tchecks,
                profile,
                degradation,
                cause,
            };
        }

        // Every rung failed, and each failure recorded a cause.
        let report = self.finish_report(&collector, kernel, None, tuned.telemetry);
        RunOutcome::unshipped(report, Degradation::ReportOnly, cause)
    }

    /// [`run`](Augem::run) on [`Target::Tune`]`(kernel)`, under the name
    /// its callers used before `run` existed.
    pub fn generate_degradable(
        &self,
        kernel: DlaKernel,
        policy: &DegradationPolicy,
        injector: &Injector,
    ) -> RunOutcome {
        self.run(Target::Tune(kernel), policy, injector)
    }

    /// The header line of a tune checkpoint of `kernel` on this
    /// driver's machine; a journal that starts otherwise is another
    /// run's, and `run` does not resume from it.
    pub fn checkpoint_header(&self, kernel: DlaKernel) -> augem_obs::Json {
        augem_resil::journal_header(kernel.name(), self.machine.arch.short_name())
    }

    /// Sweeps `kernel`'s tuning space — the one place the facade
    /// dispatches on the kernel family.
    fn tune(
        &self,
        kernel: DlaKernel,
        opts: &RunOptions,
        injector: &Injector,
        tracer: &dyn Tracer,
    ) -> Result<Tuned, TuneError> {
        let m = &self.machine;
        let mut journal = opts.checkpoint.as_ref().and_then(|path| {
            // An unusable journal (wrong header, I/O error) degrades to
            // an uncheckpointed sweep, not a crash.
            Journal::load_or_create(path, self.checkpoint_header(kernel), opts.resume)
                .map_err(|e| {
                    tracer.event("resil.journal.unusable", &[("error", e.to_string().into())])
                })
                .ok()
        });
        let (resil, journal) = (&opts.resil, journal.as_mut());
        match VectorKernel::of(kernel) {
            None => self.tune_space(gemm_candidates(m), resil, journal, injector, tracer),
            Some(vk) => self.tune_space(vector_candidates(vk, m), resil, journal, injector, tracer),
        }
    }

    fn tune_space<C: Candidate + Copy + Send + Sync + 'static>(
        &self,
        candidates: Vec<C>,
        opts: &ResilOptions,
        journal: Option<&mut Journal>,
        injector: &Injector,
        tracer: &dyn Tracer,
    ) -> Result<Tuned, TuneError> {
        let (m, cache) = (&self.machine, &*self.cache);
        let t = sweep(candidates, m, opts, journal, injector, tracer, cache)?;
        Ok(Tuned {
            telemetry: Some(telemetry_of(&t)),
            ranking: t
                .ranking
                .iter()
                .map(|(c, _)| Box::new(*c) as Box<dyn Candidate>)
                .collect(),
            best_eval: Some(t.best_eval),
        })
    }

    /// Evaluates (unless the sweep already measured it), rebuilds and
    /// verifies one rung — every step sandboxed, so a panic anywhere
    /// becomes an `Err` and the ladder moves on to the next rung.
    fn try_rung(
        &self,
        w: &dyn Candidate,
        known_eval: Option<&Evaluation>,
        opts: &RunOptions,
        injector: &Injector,
        collector: &Collector,
    ) -> Result<(Generated, Vec<Diagnostic>), String> {
        let tag = w.tag();
        let eval = match known_eval {
            Some(e) => e.clone(),
            // A next-ranked candidate was already measured by the sweep
            // under the same budget — this is an eval-cache hit.
            None => sandboxed(|| {
                let limit = opts.resil.step_limit;
                evaluate(w, &self.machine, collector, limit, &self.cache)
            })
            .map_err(|p| format!("evaluation panicked: {p}"))?
            .map_err(|e| format!("evaluation failed: {e}"))?,
        };

        let (logged, diags) = sandboxed(|| {
            if injector.fault(Site::Verify, &tag, 0).is_some() {
                panic!("injected fault: verification of {tag} panicked");
            }
            // The evaluation built through the cache: this is a hit that
            // replays the build's labels, so last-write state (e.g.
            // `opt.simd_strategy`) describes the shipped kernel.
            let logged = self
                .cache
                .logged(w, &self.machine, collector)
                .map_err(|e| format!("build failed: {e}"))?;
            let diags = self.verify(w, &logged, opts.verify, collector);
            Ok::<_, String>((logged, diags))
        })
        .map_err(|p| format!("verification panicked: {p}"))??;

        let errs = augem_verify::errors(&diags);
        if !errs.is_empty() {
            return Err(format!(
                "verification errors: {}",
                errs.iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            ));
        }

        let g = Generated {
            kernel: w.kernel(),
            machine: self.machine.clone(),
            asm: logged.asm.clone(),
            config_tag: tag,
            report: eval.report,
            mflops: eval.mflops,
        };
        Ok((g, diags))
    }

    /// The checks `verify` selects over a candidate's logged build.
    fn verify(
        &self,
        c: &dyn Candidate,
        logged: &LoggedBuild,
        verify: Verify,
        tracer: &dyn Tracer,
    ) -> Vec<Diagnostic> {
        if verify == Verify::Off {
            return Vec::new();
        }
        let mut diags =
            augem_verify::check_traced(&logged.kernel, &logged.asm, &logged.log, tracer);
        if verify == Verify::Equivalence {
            diags.extend(augem_verify::check_equivalence_traced(
                &logged.source,
                &logged.asm,
                self.machine.isa,
                &c.equiv_spec(),
                tracer,
            ));
        }
        diags
    }

    /// Profiles a shipped configuration through the evaluation cache
    /// (the build is a hit; the profiled replay is cached under
    /// `cache.profile.*` so repeated runs replay the stored attribution)
    /// and rolls the raw per-pc counters up into a [`Profile`].
    fn profile_of(&self, w: &dyn Candidate, tracer: &dyn Tracer) -> Result<Profile, EvalError> {
        let pe = profile(w, &self.machine, tracer, None, &self.cache)?;
        Ok(Profile::build(
            &pe.build.asm,
            &self.machine,
            &pe.report,
            &pe.pcs,
            Some(&pe.build.log),
        ))
    }

    fn finish_report(
        &self,
        collector: &Collector,
        kernel: DlaKernel,
        g: Option<&Generated>,
        tuner: Option<TunerTelemetry>,
    ) -> RunReport {
        let mut report = RunReport::from_snapshot(&collector.snapshot());
        report.kernel = kernel.name().to_string();
        report.machine = self.machine.arch.short_name().to_string();
        report.simd_strategy = report
            .labels
            .get("opt.simd_strategy")
            .cloned()
            .unwrap_or_default();
        if let Some(g) = g {
            report.config = g.config_tag.clone();
            report.mflops = g.mflops;
            report.sim = Some(sim_counters(&g.report));
        }
        report.tuner = tuner;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_obs::stage;
    use augem_resil::{Fault, InjectionPlan, Trigger};

    fn run(driver: &Augem, kernel: DlaKernel, opts: &RunOptions, inj: &Injector) -> RunOutcome {
        driver.run(Target::Tune(kernel), opts, inj)
    }

    #[test]
    fn facade_generates_all_four_kernels() {
        let driver = Augem::new(MachineSpec::sandy_bridge());
        for k in DlaKernel::ALL {
            let r = run(&driver, k, &RunOptions::plain(), &Injector::disabled());
            let g = r
                .generated
                .unwrap_or_else(|| panic!("{k:?}: {:?}", r.cause));
            assert!(g.mflops > 0.0);
            let text = g.assembly_text();
            assert!(text.contains(&format!(".globl {}", k.name())), "{text}");
            assert!(g.asm.validate().is_ok());
        }
    }

    #[test]
    fn verified_generation_is_error_free() {
        let driver = Augem::new(MachineSpec::sandy_bridge());
        let opts = RunOptions {
            verify: Verify::Equivalence,
            profile: true,
            ..RunOptions::plain()
        };
        let r = run(&driver, DlaKernel::Gemv, &opts, &Injector::disabled());
        // The tuned winner itself passed: nothing fell back.
        assert_eq!(r.degradation, Degradation::None, "{:?}", r.cause);
        let g = r.generated.expect("gemv generates");
        assert!(g.mflops > 0.0);
        assert!(r.report.mflops > 0.0);
        let errs = augem_verify::errors(&r.diagnostics);
        assert!(errs.is_empty(), "verifier errors on tuned winner: {errs:?}");
        assert!(matches!(r.profile, Some(Ok(_))));
        assert!(r.report.profile.is_some());
    }

    #[test]
    fn winner_transform_log_is_provably_legal() {
        // Every kernel on both machines: the memoized check the facade
        // runs equals a full replay of the shipped build's transform log.
        let opts = RunOptions {
            check_transforms: true,
            verify: Verify::Off,
            ..RunOptions::default()
        };
        for machine in [MachineSpec::sandy_bridge(), MachineSpec::piledriver()] {
            let driver = Augem::new(machine.clone());
            for kernel in DlaKernel::ALL {
                let name = format!("{} on {}", kernel.name(), machine.arch.short_name());
                let r = run(&driver, kernel, &opts, &Injector::disabled());
                let g = r
                    .generated
                    .unwrap_or_else(|| panic!("{name}: {:?}", r.cause));
                let space: Vec<Box<dyn Candidate>> = match VectorKernel::of(kernel) {
                    None => boxed(gemm_candidates(&machine)),
                    Some(vk) => boxed(vector_candidates(vk, &machine)),
                };
                let shipped = space
                    .into_iter()
                    .chain([driver.paper_default(kernel)])
                    .find(|c| c.tag() == g.config_tag)
                    .unwrap_or_else(|| panic!("{name}: {} not enumerated", g.config_tag));
                let build = driver
                    .cache()
                    .logged(&*shipped, &machine, augem_obs::null())
                    .unwrap();
                let replay = augem_depan::check_transforms(&build.source, &build.tlog, None);
                assert_eq!(r.tchecks, replay, "{name}");
                assert!(r.tchecks.is_empty(), "{name}: {:?}", r.tchecks);
                assert!(
                    r.report.stages.iter().any(|s| s.name == stage::DEPAN),
                    "{name}: no depan stage span recorded"
                );
                assert_eq!(r.report.counters.get("depan.errors").copied(), Some(0));
            }
        }
    }

    fn boxed<C: Candidate + 'static>(space: Vec<C>) -> Vec<Box<dyn Candidate>> {
        space
            .into_iter()
            .map(|c| Box::new(c) as Box<dyn Candidate>)
            .collect()
    }

    #[test]
    fn degradable_path_without_faults_is_not_degraded() {
        let driver = Augem::new(MachineSpec::sandy_bridge());
        let r = run(
            &driver,
            DlaKernel::Axpy,
            &RunOptions::default(),
            &Injector::disabled(),
        );
        assert_eq!(r.degradation, Degradation::None);
        assert!(!r.is_degraded());
        assert!(r.cause.is_none());
        let g = r.generated.expect("a clean run ships a kernel");
        assert!(g.mflops > 0.0);
        assert_eq!(r.report.mflops, g.mflops);
        // The clean winner matches the plain pipeline's.
        let plain = run(
            &driver,
            DlaKernel::Axpy,
            &RunOptions::plain(),
            &Injector::disabled(),
        );
        assert_eq!(g.config_tag, plain.generated.unwrap().config_tag);
    }

    #[test]
    fn injected_verify_panic_falls_back_to_next_ranked() {
        let driver = Augem::new(MachineSpec::sandy_bridge());
        // Panic verification of the winner only; rank 1 verifies fine.
        let inj =
            Injector::new(InjectionPlan::new(0).with(Site::Verify, Fault::Panic, Trigger::Nth(1)));
        let r = run(&driver, DlaKernel::Axpy, &RunOptions::default(), &inj);
        assert!(
            matches!(r.degradation, Degradation::NextRanked { rank: 1, .. }),
            "{:?}",
            r.degradation
        );
        assert!(r.is_degraded());
        assert!(r.generated.is_some());
        let cause = r.cause.expect("degraded results carry a cause");
        assert!(cause.contains("panicked"), "{cause}");
        assert_eq!(r.report.counters["resil.fallback.next_ranked"], 1);
        assert_eq!(r.report.counters["resil.degraded"], 1);
    }

    #[test]
    fn exhausted_ranking_falls_back_to_paper_default_then_report_only() {
        let driver = Augem::new(MachineSpec::sandy_bridge());
        // Panic the verification of the winner and the three next-ranked
        // candidates; the 5th verify probe is the paper default, which
        // passes.
        let plan = (1..=4).fold(InjectionPlan::new(0), |plan, n| {
            plan.with(Site::Verify, Fault::Panic, Trigger::Nth(n))
        });
        let r = run(
            &driver,
            DlaKernel::Axpy,
            &RunOptions::default(),
            &Injector::new(plan),
        );
        assert!(
            matches!(r.degradation, Degradation::PaperDefault { .. }),
            "{:?}",
            r.degradation
        );
        assert!(r.generated.is_some());
        assert_eq!(r.report.counters["resil.fallback.default"], 1);

        // Panic *every* verification: nothing ships, but the pipeline
        // still terminates with a typed report-only result.
        let all = Injector::new(InjectionPlan::new(0).with(
            Site::Verify,
            Fault::Panic,
            Trigger::Rate(1.0),
        ));
        let r = run(&driver, DlaKernel::Axpy, &RunOptions::default(), &all);
        assert_eq!(r.degradation, Degradation::ReportOnly);
        assert!(r.generated.is_none());
        assert!(r.report.counters["resil.degraded"] >= 1);
        assert!(r.cause.unwrap().contains("paper default"));
    }

    #[test]
    fn verified_generation_builds_each_unique_config_exactly_once() {
        let driver = Augem::new(MachineSpec::sandy_bridge());
        let opts = RunOptions {
            verify: Verify::Equivalence,
            ..RunOptions::plain()
        };
        let r = run(&driver, DlaKernel::Axpy, &opts, &Injector::disabled());
        assert!(r.generated.is_some(), "axpy generates");
        let generated = r.report.tuner.as_ref().expect("tuner telemetry").generated;
        // Every successful candidate built once; failures died before
        // akg or inside it, so akg spans never exceed generated count.
        let akg = r
            .report
            .stages
            .iter()
            .find(|s| s.name == stage::AKG)
            .expect("akg stage traced");
        assert_eq!(
            akg.calls, generated,
            "one akg span per enumerated candidate — winner rebuilds must hit the cache"
        );
        // One winner lookup (rebuild + verify of rank 0), and it hits.
        assert_eq!(r.report.counters["cache.build.hit"], 1);
        assert_eq!(
            r.report.counters["cache.build.miss"], generated,
            "every unique config missed exactly once"
        );
        // The hit re-asserted the winner's strategy label.
        assert!(r.report.labels.contains_key("opt.simd_strategy"));
    }

    #[test]
    fn explicit_config_path_works() {
        let driver = Augem::new(MachineSpec::piledriver());
        let cfg = GemmConfig {
            mu: 8,
            nu: 2,
            ..GemmConfig::fig13()
        };
        let r = driver.run(
            Target::Config(&cfg),
            &RunOptions::plain(),
            &Injector::disabled(),
        );
        let g = r.generated.unwrap();
        assert!(g.config_tag.contains("8x2"));
        assert!(g.assembly_text().contains("vfmadd231pd"));
    }

    #[test]
    fn paper_default_run_traces_every_stage_into_its_report() {
        let driver = Augem::new(MachineSpec::sandy_bridge());
        let naive = driver.paper_default(DlaKernel::Gemm);
        let r = driver.run(
            Target::Config(&*naive),
            &RunOptions::plain(),
            &Injector::disabled(),
        );
        assert_eq!(r.degradation, Degradation::None);
        for name in [stage::CGEN, stage::IDENTIFY, stage::AKG, stage::SIM] {
            let s = r
                .report
                .stages
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("stage `{name}` missing from {:?}", r.report.stages));
            assert_eq!(s.calls, 1, "stage `{name}`");
            assert!(s.wall_ns > 0, "stage `{name}` has zero wall time");
        }
        assert!(!r.report.simd_strategy.is_empty());
        assert!(r.report.sim.as_ref().expect("sim counters").cycles > 0);
    }

    #[test]
    fn failing_explicit_config_is_report_only() {
        // Every verification panics: the one rung fails and there is no
        // fallback to take.
        let driver = Augem::new(MachineSpec::sandy_bridge());
        let naive = driver.paper_default(DlaKernel::Axpy);
        let all = Injector::new(InjectionPlan::new(0).with(
            Site::Verify,
            Fault::Panic,
            Trigger::Rate(1.0),
        ));
        let r = driver.run(Target::Config(&*naive), &RunOptions::default(), &all);
        assert_eq!(r.degradation, Degradation::ReportOnly);
        assert!(r.generated.is_none());
        assert!(r.cause.unwrap().contains(&naive.tag()));
        assert!(!r.report.counters.contains_key("resil.fallback.default"));
    }
}
