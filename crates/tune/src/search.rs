//! What a sweep returns — the paper's "selects the best performing
//! configurations based on the performance of their optimized code" —
//! and the ranking step that produces it. The sweep itself lives in
//! [`crate::resilient`].

use crate::config::Candidate;
use crate::evaluate::Evaluation;
use augem_machine::MachineSpec;
use augem_obs::{Histogram, Tracer, Value};

/// The tuner's verdict for one kernel on one machine.
#[derive(Debug, Clone)]
pub struct TuneResult<C> {
    pub best: C,
    pub best_eval: Evaluation,
    /// Every evaluated `(config, mflops)` pair, best first.
    pub ranking: Vec<(C, f64)>,
    /// Candidates the generator enumerated (evaluated + pruned).
    pub generated: usize,
    /// Candidates that failed to build or simulate: `(config tag, why)`.
    /// Some shapes legitimately exceed the register file — pruning is
    /// part of the search, not an error — but the reasons are kept so a
    /// run report can show what the search rejected.
    pub failures: Vec<(String, String)>,
    /// Wall-clock latency of every candidate evaluation in nanoseconds,
    /// one sample per candidate the sweep evaluated (failures included —
    /// their latency is real sweep time too; journal replays, breaker
    /// skips and prunes are not evaluations).
    pub eval_latency_ns: Histogram,
    /// What the sweep's stages did.
    pub stats: SweepStats,
}

/// What the sweep's bound stage and commit did to the candidate space.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepStats {
    /// Candidates that built and went to the static analyzer.
    pub analyzed: usize,
    /// Evaluations skipped because the bound proved the candidate
    /// dominated.
    pub pruned: usize,
    /// Wall-clock time of the bound stage's parallel pass, each
    /// candidate's argument shapes included: the cost pruning adds to a
    /// sweep. The builds it bounds are the sweep's own, shared with
    /// evaluation through the cache, so they are not counted.
    pub bound_ns: u64,
    /// The bound stage's per-candidate times summed: its CPU time.
    pub bound_cpu_ns: u64,
    /// Candidates actually evaluated (simulated or served by the cache).
    pub evaluated: usize,
}

/// Every candidate failed: the search has nothing to rank. Carries the
/// per-candidate reasons so the caller can see *why* the space was empty
/// (the usual causes: an ISA too narrow for every shape, or a machine
/// description with too few vector registers).
#[derive(Debug, Clone)]
pub struct TuneError {
    /// Kernel being tuned (e.g. `dgemm`).
    pub kernel: String,
    /// Target microarchitecture short name.
    pub machine: String,
    /// `(config tag, failure reason)` for every candidate tried.
    pub failures: Vec<(String, String)>,
    /// The sweep was cut short (simulated crash under fault injection)
    /// rather than exhausted; a checkpoint journal, if one was being
    /// written, holds the completed prefix for resumption.
    pub interrupted: bool,
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.interrupted {
            writeln!(
                f,
                "{} tuning on {} interrupted ({} candidates recorded):",
                self.kernel,
                self.machine,
                self.failures.len()
            )?;
        } else {
            writeln!(
                f,
                "no {} candidate built on {} ({} tried):",
                self.kernel,
                self.machine,
                self.failures.len()
            )?;
        }
        // Each line is self-contained — kernel and machine included — so
        // a single candidate failure stays attributable when these lines
        // are grepped out of interleaved multi-kernel logs.
        for (tag, why) in &self.failures {
            writeln!(f, "  [{}@{}] {tag}: {why}", self.kernel, self.machine)?;
        }
        Ok(())
    }
}

impl std::error::Error for TuneError {}

/// Sorts the evaluated candidates (in candidate order, so the stable sort
/// breaks ties by enumeration order) and packages the result, emitting
/// the search telemetry along the way.
pub(crate) fn rank<C: Candidate + Copy>(
    kernel: &str,
    machine: &MachineSpec,
    evaluated: Vec<(C, Result<Evaluation, String>)>,
    tracer: &dyn Tracer,
) -> Result<TuneResult<C>, TuneError> {
    let generated = evaluated.len();
    let mut scored: Vec<(C, Evaluation)> = Vec::new();
    let mut failures: Vec<(String, String)> = Vec::new();
    for (c, r) in evaluated {
        let outcome = match &r {
            Ok(e) => ("mflops", Value::from(e.mflops)),
            Err(why) => ("error", Value::from(why.clone())),
        };
        tracer.event("tuner.candidate", &[("tag", Value::from(c.tag())), outcome]);
        match r {
            Ok(e) => scored.push((c, e)),
            Err(why) => failures.push((c.tag(), why)),
        }
    }
    tracer.add("tuner.generated", generated as u64);
    tracer.add("tuner.built", scored.len() as u64);
    tracer.add("tuner.pruned", failures.len() as u64);
    if scored.is_empty() {
        return Err(TuneError {
            kernel: kernel.to_string(),
            machine: machine.arch.short_name().to_string(),
            failures,
            interrupted: false,
        });
    }
    scored.sort_by(|a, b| b.1.mflops.partial_cmp(&a.1.mflops).unwrap());
    let ranking = scored.iter().map(|(c, e)| (*c, e.mflops)).collect();
    let (best, best_eval) = scored.into_iter().next().unwrap();
    tracer.label("tuner.best", &best.tag());
    Ok(TuneResult {
        best,
        best_eval,
        ranking,
        generated,
        failures,
        eval_latency_ns: Histogram::new(),
        stats: SweepStats::default(),
    })
}
