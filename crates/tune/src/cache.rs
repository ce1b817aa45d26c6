//! Content-addressed pipeline and evaluation cache.
//!
//! One tuned kernel is built and simulated many times by the layers above
//! the sweep: the sweep measures every candidate, the facade rebuilds the
//! winner for its traced report, the verifier rebuilds it again with a
//! binding log, and the degradation chain re-evaluates next-ranked
//! candidates it already measured. Every one of those is a pure function
//! of its inputs — the pipeline and the simulator are deterministic — so
//! the [`EvalCache`] memoizes the pipeline stage by stage, each stage
//! under the key of exactly what it reads:
//!
//! * **prefixes** — the four passes before prefetch (unroll&jam, inner
//!   unrolling, strength reduction, scalar replacement), keyed by
//!   `(source kernel, unroll&jam, inner unroll)`; each holds the depan
//!   verdict on its steps once something asks for it;
//! * **transforms** — prefetch insertion on a prefix and template
//!   identification: the post-`identify` kernel and the full
//!   [`TransformLog`], keyed by the prefix key plus the
//!   [`PrefetchConfig`];
//! * **builds** — code generation, keyed by `(config tag, machine
//!   fingerprint)` → [`LoggedBuild`] behind an [`Arc`] (the logged build
//!   subsumes the plain one: same assembly, same spans, plus the
//!   artifacts the verifier needs);
//! * **evaluations** — keyed by `(config tag, machine fingerprint,
//!   step budget)` → [`Evaluation`].
//!
//! The first two stages never see the machine (the paper's Optimized C
//! Kernel Generator and Template Identifier are machine-independent), so
//! their keys carry no fingerprint: a dgemm space of 36 candidates has 16
//! prefixes and 32 transforms, and tuning the same kernel for a second
//! machine runs no transform pass at all. Their artifacts are shared by
//! reference — a build holds the transform's kernel, source and log
//! steps, not copies. Both stages are single-flight: concurrent misses on
//! one key run the stage once, and the others wait for its result, so the
//! miss counters count distinct keys under any interleaving.
//!
//! The machine half of the later keys is [`MachineSpec::fingerprint`],
//! which hashes everything that can change a simulated measurement, so
//! ISA-clamped variants of the same microarchitecture never alias.
//!
//! Telemetry stays honest across hits: a build records its labels (e.g.
//! `opt.simd_strategy`) into a private collector via [`Tee`] while
//! forwarding everything to the live tracer; a later hit replays *only
//! the labels* — last-write-wins state describing the artifact — and
//! bumps `cache.build.hit` / `cache.eval.hit`. Spans and counters are
//! deliberately not replayed: they count work actually done, and the
//! whole point of a hit is that no work was done. A transform miss is one
//! `cgen` span, holding the per-pass sub-spans of its prefix only when
//! the prefix missed too, and one `identify` span.
//!
//! A cache lives as long as its owner: one per facade instance by
//! default, or one shared by every driver of a long-running process —
//! `augem-serve` keeps one for its whole request mix, across machines
//! (see `Augem::with_cache`). Nothing is evicted.

use crate::config::{BuildError, Candidate, LoggedBuild};
use crate::evaluate::{Evaluation, ProfiledEvaluation};
use augem_depan::PrefixVerdict;
use augem_ir::Kernel;
use augem_kernels::DlaKernel;
use augem_machine::MachineSpec;
use augem_obs::{span, stage, Collector, Tee, Tracer};
use augem_transforms::{OptimizeConfig, PrefetchConfig, Prefix, TransformLog};
use augem_verify::Diagnostic;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

/// Counter names the cache emits on the live tracer.
pub mod counter {
    /// A transform prefix was served from the cache.
    pub const PREFIX_HIT: &str = "cache.prefix.hit";
    /// A transform prefix ran its four passes and was stored.
    pub const PREFIX_MISS: &str = "cache.prefix.miss";
    /// A transformed kernel was served from the cache.
    pub const TRANSFORM_HIT: &str = "cache.transform.hit";
    /// A transformed kernel ran prefetch insertion and identification.
    pub const TRANSFORM_MISS: &str = "cache.transform.miss";
    /// A logged build was served from the cache.
    pub const BUILD_HIT: &str = "cache.build.hit";
    /// A logged build ran code generation and was stored.
    pub const BUILD_MISS: &str = "cache.build.miss";
    /// An evaluation was served from the cache.
    pub const EVAL_HIT: &str = "cache.eval.hit";
    /// An evaluation ran the simulator and was stored.
    pub const EVAL_MISS: &str = "cache.eval.miss";
    /// A profiled evaluation was served from the cache.
    pub const PROFILE_HIT: &str = "cache.profile.hit";
    /// A profiled evaluation ran the simulator and was stored.
    pub const PROFILE_MISS: &str = "cache.profile.miss";
}

/// What the passes before prefetch read: the source kernel and the two
/// unroll settings.
type PrefixKey = (
    DlaKernel,
    Vec<(String, usize)>,
    Option<(String, usize, bool)>,
);
fn prefix_key(source: DlaKernel, cfg: &OptimizeConfig) -> PrefixKey {
    (source, cfg.unroll_jam.clone(), cfg.inner_unroll.clone())
}

/// What the transform stage reads: the prefix and the prefetch settings.
type TransformKey = (PrefixKey, PrefetchConfig);
type BuildKey = (String, u64);
type EvalKey = (String, u64, Option<u64>);
/// A single-flight slot: the first caller fills it, concurrent callers
/// wait for that result. Stage failures are deterministic and stored too.
type Flight<T> = Arc<OnceLock<Result<Arc<T>, BuildError>>>;

/// The passes before prefetch for one prefix key, with the depan verdict
/// on their steps, replayed on first use and shared by every candidate
/// built on the prefix.
#[derive(Debug)]
struct PrefixBuild {
    prefix: Prefix,
    verdict: OnceLock<PrefixVerdict>,
}

/// The machine-independent half of a build: the template-tagged kernel
/// and the full transform log. Shared by every build of the same
/// transform configuration, on every machine.
#[derive(Debug)]
pub struct Transformed {
    /// The simple source kernel the log starts from.
    pub source: Arc<Kernel>,
    /// The optimized, template-tagged kernel (post-`identify`, so the
    /// log's chain ends one stage earlier).
    pub kernel: Arc<Kernel>,
    /// One step per applied pass; the leading steps are the prefix's.
    pub tlog: TransformLog,
    prefix: Arc<PrefixBuild>,
}

impl Transformed {
    /// depan's findings on the transform log — exactly
    /// `augem_depan::check_transforms(&self.source, &self.tlog, None)` —
    /// with the prefix's steps replayed once per prefix and only the
    /// prefetch step per transform. The facade's shipped-kernel check
    /// and the CI legality analysis (`figures depan`) both read it; the
    /// sweep does not.
    pub fn legality(&self) -> Vec<Diagnostic> {
        let p = &self.prefix;
        let verdict = p
            .verdict
            .get_or_init(|| PrefixVerdict::new(p.prefix.source.clone(), p.prefix.steps.clone()));
        verdict.check(&self.source, &self.tlog, None)
    }
}

#[derive(Debug)]
struct CachedBuild {
    build: Arc<LoggedBuild>,
    /// Last-write-wins labels the build emitted, replayed on every hit
    /// so e.g. `opt.simd_strategy` always describes the *last* artifact
    /// the caller touched, exactly as if it had been rebuilt.
    labels: Vec<(String, String)>,
}

#[derive(Debug, Default)]
struct Inner {
    prefixes: HashMap<PrefixKey, Flight<PrefixBuild>>,
    transforms: HashMap<TransformKey, Flight<Transformed>>,
    builds: HashMap<BuildKey, CachedBuild>,
    evals: HashMap<EvalKey, Evaluation>,
    profiles: HashMap<EvalKey, Arc<ProfiledEvaluation>>,
}

/// Memoizes pipeline stages and simulator evaluations. Thread-safe:
/// the parallel sweep's workers share one cache. Builds, evaluations and
/// profiles store only successes — failures are either deterministic
/// prunes (cheap to rediscover and carried in the sweep result anyway)
/// or transient panics that the retry machinery owns. A panicking stage
/// stores nothing. A one-shot caller that wants every stage run takes a
/// fresh cache.
#[derive(Debug, Default)]
pub struct EvalCache {
    inner: Mutex<Inner>,
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `stage` once per `key` for the cache's lifetime: a miss runs
    /// it (bumping `miss`), a hit or a wait on a concurrent miss shares
    /// its result (bumping `hit`).
    fn once<K: Hash + Eq, T>(
        &self,
        pick: fn(&mut Inner) -> &mut HashMap<K, Flight<T>>,
        key: K,
        (hit, miss): (&str, &str),
        tracer: &dyn Tracer,
        stage: impl FnOnce() -> Result<T, BuildError>,
    ) -> Result<Arc<T>, BuildError> {
        let slot = pick(&mut self.lock()).entry(key).or_default().clone();
        let mut ran = false;
        let out = slot.get_or_init(|| {
            ran = true;
            stage().map(Arc::new)
        });
        tracer.add(if ran { miss } else { hit }, 1);
        out.clone()
    }

    /// The passes before prefetch for `source` under `cfg`'s unroll
    /// settings, run at most once per prefix key.
    fn prefix(
        &self,
        source: DlaKernel,
        cfg: &OptimizeConfig,
        tracer: &dyn Tracer,
    ) -> Result<Arc<PrefixBuild>, BuildError> {
        let counters = (counter::PREFIX_HIT, counter::PREFIX_MISS);
        self.once(
            |i| &mut i.prefixes,
            prefix_key(source, cfg),
            counters,
            tracer,
            || {
                let prefix =
                    augem_transforms::optimize_prefix(Arc::new(source.build()), cfg, tracer)
                        .map_err(BuildError::Transform)?;
                Ok(PrefixBuild {
                    prefix,
                    verdict: OnceLock::new(),
                })
            },
        )
    }

    /// The machine-independent half of `c`'s build, run at most once per
    /// transform key: prefetch insertion on the shared prefix under one
    /// `cgen` span, then template identification.
    pub fn transformed(
        &self,
        c: &dyn Candidate,
        tracer: &dyn Tracer,
    ) -> Result<Arc<Transformed>, BuildError> {
        let (cfg, _) = c.pipeline_inputs();
        let source = c.kernel();
        let key = (prefix_key(source, &cfg), cfg.prefetch);
        let counters = (counter::TRANSFORM_HIT, counter::TRANSFORM_MISS);
        self.once(
            |i| &mut i.transforms,
            key,
            counters,
            tracer,
            || {
                let (prefix, mut kernel, tlog) = {
                    let _cgen = span(tracer, stage::CGEN);
                    let prefix = self.prefix(source, &cfg, tracer)?;
                    let (kernel, tlog) =
                        augem_transforms::finish_optimized(&prefix.prefix, &cfg.prefetch, tracer);
                    (prefix, kernel, tlog)
                };
                augem_templates::identify_traced(&mut kernel, tracer);
                Ok(Transformed {
                    source: prefix.prefix.source.clone(),
                    kernel: Arc::new(kernel),
                    tlog,
                    prefix,
                })
            },
        )
    }

    /// The logged build for a candidate: code generation on its shared
    /// transform, run at most once per `(tag, machine)` across the
    /// cache's lifetime.
    pub fn logged(
        &self,
        c: &dyn Candidate,
        machine: &MachineSpec,
        tracer: &dyn Tracer,
    ) -> Result<Arc<LoggedBuild>, BuildError> {
        let key = (c.tag(), machine.fingerprint());
        if let Some(hit) = self.lock().builds.get(&key) {
            tracer.add(counter::BUILD_HIT, 1);
            for (k, v) in &hit.labels {
                tracer.label(k, v);
            }
            return Ok(hit.build.clone());
        }
        tracer.add(counter::BUILD_MISS, 1);
        // Build outside the lock: workers of the parallel sweep must not
        // serialize on each other's code generation. Two racing misses on
        // the same key both generate (deterministically, the same
        // artifact); the first insert wins.
        let local = Collector::new();
        let tee = Tee::new(tracer, &local);
        let t = self.transformed(c, &tee)?;
        let (_, opts) = c.pipeline_inputs();
        let (asm, log) = augem_opt::generate_with_log(&t.kernel, machine, &opts, &tee)
            .map_err(BuildError::Codegen)?;
        let built = Arc::new(LoggedBuild {
            source: t.source.clone(),
            kernel: t.kernel.clone(),
            asm,
            log,
            tlog: t.tlog.clone(),
        });
        let labels = local.snapshot().labels.into_iter().collect();
        self.lock().builds.entry(key).or_insert(CachedBuild {
            build: built.clone(),
            labels,
        });
        Ok(built)
    }

    /// A cached measurement from the map `pick` selects, if one exists.
    /// Bumps the `hit` or `miss` counter and, on a hit, replays the
    /// corresponding build's labels.
    fn lookup<T: Clone>(
        &self,
        pick: fn(&Inner) -> &HashMap<EvalKey, T>,
        (hit, miss): (&str, &str),
        tag: &str,
        machine: &MachineSpec,
        step_limit: Option<u64>,
        tracer: &dyn Tracer,
    ) -> Option<T> {
        let fp = machine.fingerprint();
        let (found, labels) = {
            let inner = self.lock();
            match pick(&inner).get(&(tag.to_string(), fp, step_limit)) {
                Some(v) => {
                    let build = inner.builds.get(&(tag.to_string(), fp));
                    (Some(v.clone()), build.map(|b| b.labels.clone()))
                }
                None => (None, None),
            }
        };
        tracer.add(if found.is_some() { hit } else { miss }, 1);
        for (k, v) in labels.iter().flatten() {
            tracer.label(k, v);
        }
        found
    }

    /// Stores a completed measurement under its content key in the map
    /// `pick` selects.
    fn store<T: Clone>(
        &self,
        pick: fn(&mut Inner) -> &mut HashMap<EvalKey, T>,
        tag: &str,
        machine: &MachineSpec,
        step_limit: Option<u64>,
        value: &T,
    ) {
        pick(&mut self.lock())
            .entry((tag.to_string(), machine.fingerprint(), step_limit))
            .or_insert_with(|| value.clone());
    }

    /// A cached evaluation, if one exists (see [`lookup`](Self::lookup)).
    pub(crate) fn eval_lookup(
        &self,
        tag: &str,
        machine: &MachineSpec,
        step_limit: Option<u64>,
        tracer: &dyn Tracer,
    ) -> Option<Evaluation> {
        let counters = (counter::EVAL_HIT, counter::EVAL_MISS);
        self.lookup(|i| &i.evals, counters, tag, machine, step_limit, tracer)
    }

    /// Stores a completed evaluation under its content key.
    pub(crate) fn eval_store(
        &self,
        tag: &str,
        machine: &MachineSpec,
        step_limit: Option<u64>,
        eval: &Evaluation,
    ) {
        self.store(|i| &mut i.evals, tag, machine, step_limit, eval);
    }

    /// A cached profiled evaluation, if one exists — same key and
    /// label-replay semantics as [`eval_lookup`](Self::eval_lookup),
    /// separate `cache.profile.*` counters.
    pub(crate) fn profile_lookup(
        &self,
        tag: &str,
        machine: &MachineSpec,
        step_limit: Option<u64>,
        tracer: &dyn Tracer,
    ) -> Option<Arc<ProfiledEvaluation>> {
        let counters = (counter::PROFILE_HIT, counter::PROFILE_MISS);
        self.lookup(|i| &i.profiles, counters, tag, machine, step_limit, tracer)
    }

    /// Stores a completed profiled evaluation under its content key.
    pub(crate) fn profile_store(
        &self,
        tag: &str,
        machine: &MachineSpec,
        step_limit: Option<u64>,
        profile: &Arc<ProfiledEvaluation>,
    ) {
        self.store(|i| &mut i.profiles, tag, machine, step_limit, profile);
    }

    /// How many distinct transforms the cache holds (test/report helper).
    pub fn transforms_len(&self) -> usize {
        self.lock().transforms.len()
    }

    /// How many distinct builds the cache holds.
    pub fn builds_len(&self) -> usize {
        self.lock().builds.len()
    }

    /// How many distinct profiled evaluations the cache holds.
    pub fn profiles_len(&self) -> usize {
        self.lock().profiles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GemmConfig;
    use crate::evaluate::{evaluate, profile};

    #[test]
    fn second_build_is_a_hit_with_identical_asm_and_labels() {
        let m = MachineSpec::sandy_bridge();
        let cfg = GemmConfig {
            mu: 8,
            nu: 4,
            ..GemmConfig::fig13()
        };
        let cache = EvalCache::new();
        let c = Collector::new();
        let first = cache.logged(&cfg, &m, &c).unwrap();
        let again = cache.logged(&cfg, &m, &c).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "hit must share the artifact");
        let snap = c.snapshot();
        assert_eq!(snap.counters[counter::BUILD_MISS], 1);
        assert_eq!(snap.counters[counter::BUILD_HIT], 1);
        // The pipeline ran once: one akg span, not two.
        let akg = snap
            .stages()
            .into_iter()
            .find(|s| s.name == augem_obs::stage::AKG)
            .expect("akg stage present");
        assert_eq!(akg.calls, 1);
        // The hit re-asserted the strategy label.
        assert!(snap.labels.contains_key("opt.simd_strategy"));
    }

    #[test]
    fn machine_fingerprint_separates_entries() {
        let snb = MachineSpec::sandy_bridge();
        let sse = snb.with_isa_clamped(augem_machine::SimdMode::Sse);
        let cfg = GemmConfig {
            mu: 4,
            nu: 4,
            ..GemmConfig::fig13()
        };
        let cache = EvalCache::new();
        let c = Collector::new();
        let wide = cache.logged(&cfg, &snb, &c).unwrap();
        let narrow = cache.logged(&cfg, &sse, &c).unwrap();
        assert!(!Arc::ptr_eq(&wide, &narrow));
        assert_eq!(c.snapshot().counters[counter::BUILD_MISS], 2);
        assert_eq!(cache.builds_len(), 2);
    }

    #[test]
    fn cached_eval_is_bit_identical_and_skips_the_simulator() {
        let m = MachineSpec::sandy_bridge();
        let cfg = GemmConfig {
            mu: 8,
            nu: 4,
            ..GemmConfig::fig13()
        };
        let cache = EvalCache::new();
        let c = Collector::new();
        let cold = evaluate(&cfg, &m, &c, None, &cache).unwrap();
        let sim_cycles_after_miss = c.snapshot().counters["sim.cycles"];
        let warm = evaluate(&cfg, &m, &c, None, &cache).unwrap();
        assert_eq!(cold.mflops.to_bits(), warm.mflops.to_bits());
        let snap = c.snapshot();
        assert_eq!(snap.counters[counter::EVAL_MISS], 1);
        assert_eq!(snap.counters[counter::EVAL_HIT], 1);
        // The hit did not re-simulate: sim counters unchanged.
        assert_eq!(snap.counters["sim.cycles"], sim_cycles_after_miss);
        // A different budget is a different measurement key.
        let budgeted = evaluate(&cfg, &m, &c, Some(1 << 32), &cache).unwrap();
        assert_eq!(budgeted.mflops.to_bits(), cold.mflops.to_bits());
        assert_eq!(c.snapshot().counters[counter::EVAL_MISS], 2);
    }

    #[test]
    fn cached_profile_is_shared_and_conserves_cycles() {
        let m = MachineSpec::sandy_bridge();
        let cfg = GemmConfig {
            mu: 8,
            nu: 4,
            ..GemmConfig::fig13()
        };
        let cache = EvalCache::new();
        let c = Collector::new();
        let cold = profile(&cfg, &m, &c, None, &cache).unwrap();
        let warm = profile(&cfg, &m, &c, None, &cache).unwrap();
        assert!(Arc::ptr_eq(&cold, &warm), "hit must share the profile");
        let snap = c.snapshot();
        assert_eq!(snap.counters[counter::PROFILE_MISS], 1);
        assert_eq!(snap.counters[counter::PROFILE_HIT], 1);
        assert_eq!(cache.profiles_len(), 1);
        // The profiled replay measures the same thing the plain one does,
        // and its per-pc attribution telescopes to the total.
        let plain = evaluate(&cfg, &m, &c, None, &cache).unwrap();
        assert_eq!(plain.report, cold.report);
        assert_eq!(plain.mflops.to_bits(), cold.mflops.to_bits());
        assert_eq!(cold.pcs.total_cycles(), cold.report.cycles);
        assert_eq!(cold.pcs.port_totals(), cold.report.port_uops);
    }
}
