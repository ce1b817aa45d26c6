//! # augem — AUGEM, reproduced in Rust
//!
//! A from-scratch reproduction of *AUGEM: Automatically Generate High
//! Performance Dense Linear Algebra Kernels on x86 CPUs* (Wang, Zhang,
//! Zhang, Yi — SC'13): a template-based framework that turns a simple C
//! implementation of a DLA kernel into a fully optimized assembly kernel,
//! with no manual intervention.
//!
//! This crate is the facade: [`Augem`] drives the whole pipeline
//! (Figure 1 of the paper) and re-exports the component crates.
//!
//! ```
//! use augem::{Augem, DlaKernel};
//! use augem::machine::MachineSpec;
//!
//! let machine = MachineSpec::sandy_bridge();
//! let result = Augem::new(machine).generate(DlaKernel::Axpy).unwrap();
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
use augem_resil::{sandboxed, Injector, Site, TuneJournal};
use augem_sim::TimingReport;
use augem_tune::config::{GemmConfig, LoggedBuild, VectorConfig, VectorKernel};
use augem_tune::{
    evaluate, gemm_candidates, profile, sweep, vector_candidates, BuildError, Candidate, EvalCache,
    EvalError, Evaluation, ResilOptions, TuneError, TuneResult,
};
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

/// Pipeline failure.
#[derive(Debug)]
pub enum AugemError {
    Eval(EvalError),
    /// The empirical search had no viable candidate (carries the
    /// per-candidate failure reasons).
    Tune(TuneError),
}

impl std::fmt::Display for AugemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AugemError::Eval(e) => write!(f, "{e}"),
            AugemError::Tune(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AugemError {}

impl From<BuildError> for AugemError {
    fn from(e: BuildError) -> Self {
        AugemError::Eval(EvalError::Build(e))
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

/// A finished sweep with the candidate family erased: everything the
/// entry points need from the tuner, winners kept so the verifier and
/// profiler can rebuild exactly the measured kernel.
struct Tuned {
    best: Box<dyn Candidate>,
    best_eval: Evaluation,
    /// Every ranked candidate, best first.
    ranking: Vec<Box<dyn Candidate>>,
    telemetry: TunerTelemetry,
}

/// Which verification stages
/// [`Augem::generate_report_verified_profiled_with`] runs over the
/// winning configuration.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Run the translation validator ([`verify::check_equivalence`]) in
    /// addition to the structural checks. On by default.
    pub equivalence: bool,
    /// Profile the winning kernel (per-pc cycle attribution via
    /// `augem-prof`) and embed the region rollup in the run report. On
    /// by default; a cache hit replays a stored profile instead of
    /// re-simulating.
    pub profile: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            equivalence: true,
            profile: true,
        }
    }
}

/// How [`Augem::generate_degradable`] degrades when the primary path
/// fails: tuner resilience knobs, how far down the ranking to fall back,
/// and where (if anywhere) to checkpoint the sweep.
#[derive(Debug, Clone)]
pub struct DegradationPolicy {
    /// Sandbox / budget / retry / breaker knobs for the tuning sweep.
    pub resil: ResilOptions,
    /// Run the translation validator over each candidate winner, in
    /// addition to the structural checks. On by default.
    pub equivalence: bool,
    /// How many next-ranked candidates to try when the winner fails
    /// verification, before falling back to the paper default.
    pub max_next_ranked: usize,
    /// Journal path for checkpoint/resume (`None` = in-memory only).
    pub checkpoint: Option<std::path::PathBuf>,
    /// Resume from an existing journal at `checkpoint` instead of
    /// starting the sweep over.
    pub resume: bool,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            resil: ResilOptions::default(),
            equivalence: true,
            max_next_ranked: 3,
            checkpoint: None,
            resume: false,
        }
    }
}

/// How far [`Augem::generate_degradable`] had to fall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Degradation {
    /// The tuned winner verified cleanly — no degradation.
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

/// The infallible outcome of [`Augem::generate_degradable`]: either a
/// verified kernel ([`Degradation::None`]) or a typed degradation — never
/// a panic, never an abort.
#[derive(Debug)]
pub struct DegradedResult {
    /// The shipped kernel, when any fallback level produced one.
    pub generated: Option<Generated>,
    /// The run report — always produced, even report-only.
    pub report: RunReport,
    /// Verifier diagnostics for the shipped kernel (empty if none).
    pub diagnostics: Vec<augem_verify::Diagnostic>,
    /// Which fallback level (if any) the result came from.
    pub degradation: Degradation,
    /// Why the primary path failed (`None` when not degraded).
    pub cause: Option<String>,
}

impl DegradedResult {
    /// Did any fallback fire?
    pub fn is_degraded(&self) -> bool {
        !matches!(self.degradation, Degradation::None)
    }
}

/// The end-to-end driver: "taking as input a simple C implementation of a
/// DLA kernel, it automatically generates an efficient assembly kernel"
/// (paper §2), selecting configurations by empirical feedback.
#[derive(Debug, Clone)]
pub struct Augem {
    machine: MachineSpec,
    /// The driver's evaluation cache: every build and measurement in the
    /// sweep, the winner rebuild, verification and the degradation chain
    /// is content-addressed here, so one pipeline run per unique
    /// `(configuration, machine, budget)` is all that ever happens.
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

    /// A driver sharing an externally owned cache. The cache's keys
    /// already include the machine fingerprint, so one cache can back
    /// drivers for *different* machines — the serving daemon uses this
    /// to keep a single in-process memoization layer across its whole
    /// request mix.
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

    /// Sweeps `kernel`'s tuning space — the one place the facade
    /// dispatches on the kernel family.
    fn tune(
        &self,
        kernel: DlaKernel,
        opts: &ResilOptions,
        journal: Option<&mut TuneJournal>,
        injector: &Injector,
        tracer: &dyn Tracer,
    ) -> Result<Tuned, TuneError> {
        let m = &self.machine;
        match VectorKernel::of(kernel) {
            None => self.tune_space(gemm_candidates(m), opts, journal, injector, tracer),
            Some(vk) => self.tune_space(vector_candidates(vk, m), opts, journal, injector, tracer),
        }
    }

    fn tune_space<C: Candidate + Copy + Send + Sync + 'static>(
        &self,
        candidates: Vec<C>,
        opts: &ResilOptions,
        journal: Option<&mut TuneJournal>,
        injector: &Injector,
        tracer: &dyn Tracer,
    ) -> Result<Tuned, TuneError> {
        let (m, cache) = (&self.machine, &*self.cache);
        let t = sweep(candidates, m, opts, journal, injector, tracer, cache)?;
        Ok(Tuned {
            best: Box::new(t.best),
            telemetry: telemetry_of(&t),
            ranking: t
                .ranking
                .iter()
                .map(|(c, _)| Box::new(*c) as Box<dyn Candidate>)
                .collect(),
            best_eval: t.best_eval,
        })
    }

    /// Runs the full pipeline with empirical tuning for `kernel`.
    pub fn generate(&self, kernel: DlaKernel) -> Result<Generated, AugemError> {
        self.generate_traced(kernel, augem_obs::null())
    }

    /// [`generate`](Augem::generate) with every stage instrumented
    /// through `tracer`: per-stage spans and counters from the whole
    /// tuning sweep, then a cache hit on the winner that replays its
    /// build labels (so last-write labels like `opt.simd_strategy`
    /// describe the winning configuration, not whichever candidate
    /// happened to finish last — without rebuilding it).
    pub fn generate_traced(
        &self,
        kernel: DlaKernel,
        tracer: &dyn Tracer,
    ) -> Result<Generated, AugemError> {
        self.generate_inner(kernel, tracer).map(|(g, _, _)| g)
    }

    /// Runs a traced generation and packages everything the collector and
    /// the tuner saw into an `augem.run-report/v1` [`RunReport`].
    pub fn generate_report(&self, kernel: DlaKernel) -> Result<(Generated, RunReport), AugemError> {
        let collector = Collector::new();
        let (g, tuner, _) = self.generate_inner(kernel, &collector)?;
        let report = self.finish_report(&collector, kernel, Some(&g), Some(tuner));
        Ok((g, report))
    }

    /// [`generate_report`](Augem::generate_report), then runs the static
    /// kernel verifier ([`verify::check`]) over the winning
    /// configuration's logged build, followed — unless
    /// `opts.equivalence` is off — by the translation validator
    /// ([`verify::check_equivalence`]) proving the assembly computes the
    /// same expressions as the pre-transform source kernel at a shape
    /// derived from the winner's unroll factors. Diagnostics are returned
    /// and also land in the run report as `verify.diagnostic` /
    /// `equiv.diagnostic` events plus `verify.errors` / `verify.warnings`
    /// / `equiv.errors` counters. With `opts.profile` the winning
    /// kernel's full [`Profile`] (per-pc attribution, annotated listing
    /// and `augem.profile/v1` artifact) is returned too, and the run
    /// report carries its region rollup (`report.profile`).
    pub fn generate_report_verified_profiled_with(
        &self,
        kernel: DlaKernel,
        opts: &VerifyOptions,
    ) -> Result<
        (
            Generated,
            RunReport,
            Vec<augem_verify::Diagnostic>,
            Option<Profile>,
        ),
        AugemError,
    > {
        let collector = Collector::new();
        let (g, tuner, winner) = self.generate_inner(kernel, &collector)?;
        // The sweep already built the winner; this is a cache hit, not a
        // third pipeline run.
        let logged = self.cache.logged(&*winner, &self.machine, &collector)?;
        let diags = self.verify(&*winner, &logged, opts.equivalence, &collector);
        let profile = if opts.profile {
            Some(
                self.profile_winner(&*winner, &collector)
                    .map_err(AugemError::Eval)?,
            )
        } else {
            None
        };
        let mut report = self.finish_report(&collector, kernel, Some(&g), Some(tuner));
        if let Some(p) = &profile {
            report.profile = Some(p.summary());
        }
        Ok((g, report, diags, profile))
    }

    /// The structural checks over a candidate's logged build, followed by
    /// the translation validator at the candidate's own problem shape
    /// when `equivalence` is set.
    fn verify(
        &self,
        c: &dyn Candidate,
        logged: &LoggedBuild,
        equivalence: bool,
        tracer: &dyn Tracer,
    ) -> Vec<augem_verify::Diagnostic> {
        let mut diags =
            augem_verify::check_traced(&logged.kernel, &logged.asm, &logged.log, tracer);
        if equivalence {
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

    /// Replays the tuned winner's transform recipe through the
    /// [`depan`] proof-carrying legality checker: every pass the
    /// pipeline applied must re-derive from its recorded facts against
    /// an independent dependence analysis of the snapshot it ran on.
    /// Returns the `T`-rule diagnostics (empty for a legal recipe); the
    /// replay is instrumented through `tracer` (a `depan` stage span,
    /// `depan.errors` / `depan.warnings` counters, and one
    /// `depan.diagnostic` event per finding).
    ///
    /// After a `generate*` call on the same driver this is all cache
    /// hits — the sweep is not re-run and the winner is not rebuilt.
    pub fn check_transforms_traced(
        &self,
        kernel: DlaKernel,
        tracer: &dyn Tracer,
    ) -> Result<Vec<augem_verify::Diagnostic>, AugemError> {
        let (_, _, winner) = self.generate_inner(kernel, tracer)?;
        let logged = self.cache.logged(&*winner, &self.machine, tracer)?;
        // `logged.kernel` is post-`identify` (Regions added), so the
        // log's snapshot chain ends one stage earlier: no final kernel.
        Ok(augem_depan::check_transforms_traced(
            &logged.source,
            &logged.tlog,
            None,
            tracer,
        ))
    }

    /// Runs a traced generation like
    /// [`generate_report`](Augem::generate_report), then profiles the
    /// winner and returns the full [`Profile`] alongside the report
    /// (whose `profile` field carries the region rollup). The
    /// `augem-gen --profile` path when verification is off.
    pub fn generate_report_profiled(
        &self,
        kernel: DlaKernel,
    ) -> Result<(Generated, RunReport, Profile), AugemError> {
        let collector = Collector::new();
        let (g, tuner, winner) = self.generate_inner(kernel, &collector)?;
        let profile = self
            .profile_winner(&*winner, &collector)
            .map_err(AugemError::Eval)?;
        let mut report = self.finish_report(&collector, kernel, Some(&g), Some(tuner));
        report.profile = Some(profile.summary());
        Ok((g, report, profile))
    }

    /// Profiles a winning configuration through the evaluation cache
    /// (the sweep already built it — the build is a hit; the profiled
    /// replay is cached under `cache.profile.*` so repeated reports
    /// replay the stored attribution) and rolls the raw per-pc counters
    /// up into an [`augem_prof::Profile`].
    fn profile_winner(&self, w: &dyn Candidate, tracer: &dyn Tracer) -> Result<Profile, EvalError> {
        let pe = profile(w, &self.machine, tracer, None, &self.cache)?;
        Ok(Profile::build(
            &pe.build.asm,
            &self.machine,
            &pe.report,
            &pe.pcs,
            Some(&pe.build.log),
        ))
    }

    /// The fault-tolerant end-to-end driver: tunes resiliently
    /// (sandboxed + budgeted evaluation, retry, circuit breaking,
    /// checkpoint journal per `policy`), then verifies the winner and
    /// *degrades gracefully* instead of failing — in order: the winner,
    /// the next-ranked verified candidates, the paper-default
    /// configuration, and finally a report-only result. Infallible by
    /// construction: every path terminates with either a verified kernel
    /// or a typed [`DegradedResult`]. `injector` plants deterministic
    /// faults for the resilience suite; pass
    /// [`Injector::disabled`](augem_resil::Injector::disabled) in
    /// production.
    pub fn generate_degradable(
        &self,
        kernel: DlaKernel,
        policy: &DegradationPolicy,
        injector: &Injector,
    ) -> DegradedResult {
        let collector = Collector::new();
        let header = augem_resil::journal_header(kernel.name(), self.machine.arch.short_name());
        let mut journal = match &policy.checkpoint {
            Some(path) => {
                match TuneJournal::load_or_create(path, header.clone(), policy.resume) {
                    Ok(j) => j,
                    Err(e) => {
                        // An unusable journal (wrong header, I/O error)
                        // degrades to an uncheckpointed sweep, not a crash.
                        collector
                            .event("resil.journal.unusable", &[("error", e.to_string().into())]);
                        TuneJournal::in_memory(header)
                    }
                }
            }
            None => TuneJournal::in_memory(header),
        };

        let tuned = self.tune(
            kernel,
            &policy.resil,
            Some(&mut journal),
            injector,
            &collector,
        );
        let t = match tuned {
            Ok(t) => t,
            Err(e) if e.interrupted => {
                let report = self.finish_report(&collector, kernel, None, None);
                return DegradedResult {
                    generated: None,
                    report,
                    diagnostics: Vec::new(),
                    degradation: Degradation::Interrupted,
                    cause: Some(e.to_string()),
                };
            }
            Err(e) => {
                // Empty search space: straight to the paper default.
                return self.degrade_to_default(
                    kernel,
                    policy,
                    injector,
                    &collector,
                    None,
                    e.to_string(),
                );
            }
        };

        let mut cause: Option<String> = None;
        for (rank, w) in t
            .ranking
            .iter()
            .take(1 + policy.max_next_ranked)
            .enumerate()
        {
            let tag = w.tag();
            if rank > 0 {
                collector.add(augem_resil::counter::FALLBACK_NEXT_RANKED, 1);
                collector.event(
                    "resil.fallback",
                    &[("kind", "next_ranked".into()), ("tag", tag.as_str().into())],
                );
            }
            let known = if rank == 0 { Some(&t.best_eval) } else { None };
            match self.try_winner(&**w, known, policy, injector, &collector) {
                Ok((g, diags)) => {
                    let degradation = if rank == 0 {
                        Degradation::None
                    } else {
                        Degradation::NextRanked { rank, tag }
                    };
                    if !matches!(degradation, Degradation::None) {
                        collector.add(augem_resil::counter::DEGRADED, 1);
                    }
                    let report =
                        self.finish_report(&collector, kernel, Some(&g), Some(t.telemetry));
                    return DegradedResult {
                        generated: Some(g),
                        report,
                        diagnostics: diags,
                        degradation,
                        cause,
                    };
                }
                Err(why) => {
                    collector.event(
                        "resil.verify.failed",
                        &[("tag", tag.as_str().into()), ("error", why.as_str().into())],
                    );
                    cause.get_or_insert(format!("{tag}: {why}"));
                }
            }
        }

        let cause = cause.unwrap_or_else(|| "no candidate survived verification".to_string());
        self.degrade_to_default(
            kernel,
            policy,
            injector,
            &collector,
            Some(t.telemetry),
            cause,
        )
    }

    /// The conservative, always-supported configuration the pipeline
    /// falls back to when the tuned ranking fails: the paper's Figure-13
    /// starting point for GEMM, the narrowest vectorizable unroll with
    /// no prefetching for the vector kernels.
    fn paper_default(&self, kernel: DlaKernel) -> Box<dyn Candidate> {
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

    fn degrade_to_default(
        &self,
        kernel: DlaKernel,
        policy: &DegradationPolicy,
        injector: &Injector,
        collector: &Collector,
        telemetry: Option<TunerTelemetry>,
        cause: String,
    ) -> DegradedResult {
        let w = self.paper_default(kernel);
        let tag = w.tag();
        collector.add(augem_resil::counter::FALLBACK_DEFAULT, 1);
        collector.add(augem_resil::counter::DEGRADED, 1);
        collector.event(
            "resil.fallback",
            &[("kind", "default".into()), ("tag", tag.as_str().into())],
        );
        match self.try_winner(&*w, None, policy, injector, collector) {
            Ok((g, diags)) => {
                let report = self.finish_report(collector, kernel, Some(&g), telemetry);
                DegradedResult {
                    generated: Some(g),
                    report,
                    diagnostics: diags,
                    degradation: Degradation::PaperDefault { tag },
                    cause: Some(cause),
                }
            }
            Err(why) => {
                collector.event(
                    "resil.verify.failed",
                    &[("tag", tag.as_str().into()), ("error", why.as_str().into())],
                );
                let report = self.finish_report(collector, kernel, None, telemetry);
                DegradedResult {
                    generated: None,
                    report,
                    diagnostics: Vec::new(),
                    degradation: Degradation::ReportOnly,
                    cause: Some(format!("{cause}; paper default {tag}: {why}")),
                }
            }
        }
    }

    /// Evaluates (if needed), rebuilds, and verifies one configuration —
    /// every step sandboxed, so a panic anywhere becomes an `Err` and
    /// the degradation chain moves on to the next fallback.
    fn try_winner(
        &self,
        w: &dyn Candidate,
        known_eval: Option<&Evaluation>,
        policy: &DegradationPolicy,
        injector: &Injector,
        collector: &Collector,
    ) -> Result<(Generated, Vec<augem_verify::Diagnostic>), String> {
        let tag = w.tag();
        let eval = match known_eval {
            Some(e) => e.clone(),
            // A next-ranked candidate was already measured by the sweep
            // under the same budget — this is an eval-cache hit.
            None => sandboxed(|| {
                let limit = policy.resil.step_limit;
                evaluate(w, &self.machine, collector, limit, &self.cache)
            })
            .map_err(|p| format!("evaluation panicked: {p}"))?
            .map_err(|e| format!("evaluation failed: {e}"))?,
        };

        let (logged, diags) = sandboxed(|| {
            if injector.fault(Site::Verify, &tag, 0).is_some() {
                panic!("injected fault: verification of {tag} panicked");
            }
            let logged = self
                .cache
                .logged(w, &self.machine, collector)
                .map_err(|e| format!("build failed: {e}"))?;
            let diags = self.verify(w, &logged, policy.equivalence, collector);
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

        Ok((self.generated(w, &logged, eval), diags))
    }

    /// A candidate's kernel: the assembly of its build and its
    /// measurement.
    fn generated(&self, c: &dyn Candidate, logged: &LoggedBuild, eval: Evaluation) -> Generated {
        Generated {
            kernel: c.kernel(),
            machine: self.machine.clone(),
            asm: logged.asm.clone(),
            config_tag: c.tag(),
            report: eval.report,
            mflops: eval.mflops,
        }
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

    /// The exhaustive sweep for `kernel` and its winner's assembly.
    fn generate_inner(
        &self,
        kernel: DlaKernel,
        tracer: &dyn Tracer,
    ) -> Result<(Generated, TunerTelemetry, Box<dyn Candidate>), AugemError> {
        let t = self
            .tune(
                kernel,
                &ResilOptions::plain(),
                None,
                &Injector::disabled(),
                tracer,
            )
            .map_err(AugemError::Tune)?;
        // Cache hit: the sweep built the winner already; the hit replays
        // its labels so last-write state (e.g. `opt.simd_strategy`)
        // describes the winning config.
        let logged = self.cache.logged(&*t.best, &self.machine, tracer)?;
        let g = self.generated(&*t.best, &logged, t.best_eval);
        Ok((g, t.telemetry, t.best))
    }

    /// Runs the pipeline for the paper-default configuration *without*
    /// tuning: the Figure-13 starting-point kernel for GEMM, the
    /// narrowest vectorizable unroll with no prefetching for the vector
    /// kernels. This is the "before" side of the paper's
    /// naive-vs-tuned comparisons — and the kernel the performance
    /// lints ([`Augem::lint_generated`]) are expected to complain
    /// about.
    pub fn generate_naive(&self, kernel: DlaKernel) -> Result<Generated, AugemError> {
        self.generate_with(&*self.paper_default(kernel))
    }

    /// [`generate_naive`](Augem::generate_naive) with a run report
    /// (stages, counters, sim measurement of the untuned kernel).
    pub fn generate_naive_report(
        &self,
        kernel: DlaKernel,
    ) -> Result<(Generated, RunReport), AugemError> {
        let collector = Collector::new();
        let g = self.generate_naive(kernel)?;
        let report = self.finish_report(&collector, kernel, Some(&g), None);
        Ok((g, report))
    }

    /// Runs the static performance lints (the `augem-cost` P-rules) over
    /// a generated kernel: accumulator-chain serialization, port
    /// oversubscription, loop spills, narrow SIMD, missing prefetch,
    /// dead remainder code.
    pub fn lint_generated(&self, g: &Generated) -> Vec<augem_verify::Diagnostic> {
        augem_cost::lint(&g.asm, &self.machine)
    }

    /// Runs the pipeline for one explicit configuration (no tuning).
    pub fn generate_with(&self, cfg: &dyn Candidate) -> Result<Generated, AugemError> {
        let eval = evaluate(cfg, &self.machine, augem_obs::null(), None, &self.cache)
            .map_err(AugemError::Eval)?;
        // The evaluation above built through the cache; reuse it.
        let logged = self.cache.logged(cfg, &self.machine, augem_obs::null())?;
        Ok(self.generated(cfg, &logged, eval))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_generates_all_four_kernels() {
        let driver = Augem::new(MachineSpec::sandy_bridge());
        for k in DlaKernel::ALL {
            let g = driver.generate(k).unwrap_or_else(|e| panic!("{k:?}: {e}"));
            assert!(g.mflops > 0.0);
            let text = g.assembly_text();
            assert!(text.contains(&format!(".globl {}", k.name())), "{text}");
            assert!(g.asm.validate().is_ok());
        }
    }

    #[test]
    fn verified_generation_is_error_free() {
        let driver = Augem::new(MachineSpec::sandy_bridge());
        let (g, report, diags, _) = driver
            .generate_report_verified_profiled_with(DlaKernel::Gemv, &VerifyOptions::default())
            .expect("gemv generates");
        assert!(g.mflops > 0.0);
        assert!(report.mflops > 0.0);
        let errs = augem_verify::errors(&diags);
        assert!(errs.is_empty(), "verifier errors on tuned winner: {errs:?}");
    }

    #[test]
    fn winner_transform_log_is_provably_legal() {
        let driver = Augem::new(MachineSpec::sandy_bridge());
        let collector = Collector::new();
        let diags = driver
            .check_transforms_traced(DlaKernel::Axpy, &collector)
            .expect("axpy tunes");
        assert!(diags.is_empty(), "depan rejects tuned winner: {diags:?}");
        let snap = collector.snapshot();
        assert!(
            snap.stages()
                .iter()
                .any(|s| s.name == augem_obs::stage::DEPAN),
            "no depan stage span recorded"
        );
        assert_eq!(snap.counters.get("depan.errors").copied(), Some(0));
    }

    #[test]
    fn degradable_path_without_faults_is_not_degraded() {
        let driver = Augem::new(MachineSpec::sandy_bridge());
        let policy = DegradationPolicy {
            resil: ResilOptions::fast(),
            ..DegradationPolicy::default()
        };
        let r = driver.generate_degradable(
            DlaKernel::Axpy,
            &policy,
            &augem_resil::Injector::disabled(),
        );
        assert_eq!(r.degradation, Degradation::None);
        assert!(!r.is_degraded());
        assert!(r.cause.is_none());
        let g = r.generated.expect("a clean run ships a kernel");
        assert!(g.mflops > 0.0);
        assert_eq!(r.report.mflops, g.mflops);
        // The clean winner matches the plain pipeline's.
        let plain = driver.generate(DlaKernel::Axpy).unwrap();
        assert_eq!(g.config_tag, plain.config_tag);
    }

    #[test]
    fn injected_verify_panic_falls_back_to_next_ranked() {
        use augem_resil::{Fault, InjectionPlan, Injector, Site, Trigger};
        let driver = Augem::new(MachineSpec::sandy_bridge());
        let policy = DegradationPolicy {
            resil: ResilOptions::fast(),
            ..DegradationPolicy::default()
        };
        // Panic verification of the winner only; rank 1 verifies fine.
        let inj =
            Injector::new(InjectionPlan::new(0).with(Site::Verify, Fault::Panic, Trigger::Nth(1)));
        let r = driver.generate_degradable(DlaKernel::Axpy, &policy, &inj);
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
        use augem_resil::{Fault, InjectionPlan, Injector, Site, Trigger};
        let driver = Augem::new(MachineSpec::sandy_bridge());
        let policy = DegradationPolicy {
            resil: ResilOptions::fast(),
            max_next_ranked: 1,
            ..DegradationPolicy::default()
        };
        // Panic the winner's and rank-1's verification; the 3rd verify
        // probe is the paper default, which passes.
        let inj = Injector::new(
            InjectionPlan::new(0)
                .with(Site::Verify, Fault::Panic, Trigger::Nth(1))
                .with(Site::Verify, Fault::Panic, Trigger::Nth(2)),
        );
        let r = driver.generate_degradable(DlaKernel::Axpy, &policy, &inj);
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
        let r = driver.generate_degradable(DlaKernel::Axpy, &policy, &all);
        assert_eq!(r.degradation, Degradation::ReportOnly);
        assert!(r.generated.is_none());
        assert!(r.report.counters["resil.degraded"] >= 1);
        assert!(r.cause.unwrap().contains("paper default"));
    }

    #[test]
    fn verified_generation_builds_each_unique_config_exactly_once() {
        let driver = Augem::new(MachineSpec::sandy_bridge());
        let collector = Collector::new();
        let (_, tuner, winner) = driver
            .generate_inner(DlaKernel::Axpy, &collector)
            .expect("axpy generates");
        // Winner verification on top of the traced generation: both the
        // rebuild in generate_inner and this one come from the cache.
        driver
            .cache
            .logged(&*winner, &driver.machine, &collector)
            .unwrap();
        let snap = collector.snapshot();
        // Every successful candidate built once; failures died before
        // akg or inside it, so akg spans never exceed generated count.
        let akg = snap
            .stages()
            .into_iter()
            .find(|s| s.name == augem_obs::stage::AKG)
            .expect("akg stage traced");
        assert_eq!(
            akg.calls, tuner.generated,
            "one akg span per enumerated candidate — winner rebuilds must hit the cache"
        );
        // Two winner lookups (generate_inner + verify) both hit.
        assert_eq!(snap.counters["cache.build.hit"], 2);
        assert_eq!(
            snap.counters["cache.build.miss"], tuner.generated,
            "every unique config missed exactly once"
        );
        // The hit re-asserted the winner's strategy label.
        assert!(snap.labels.contains_key("opt.simd_strategy"));
    }

    #[test]
    fn explicit_config_path_works() {
        let driver = Augem::new(MachineSpec::piledriver());
        let g = driver
            .generate_with(&GemmConfig {
                mu: 8,
                nu: 2,
                ..GemmConfig::fig13()
            })
            .unwrap();
        assert!(g.config_tag.contains("8x2"));
        assert!(g.assembly_text().contains("vfmadd231pd"));
    }
}
