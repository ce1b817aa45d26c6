//! The sweep: the one empirical-tuning loop, generic over [`Candidate`].
//!
//! The sweep assumes an ill-behaved evaluation oracle. Each candidate is
//! evaluated inside a panic sandbox under an optional per-candidate
//! instruction budget, transient failures get up to two retries
//! ([`RetryPolicy::default`]: 1–2 ms backoffs, which change no decision),
//! repeatedly-failing candidate *families* are circuit-broken, and every
//! completed measurement is checkpointed to a [`Journal`] so a
//! crashed run resumes where it stopped — reproducing the uninterrupted
//! run's winner bit-for-bit (measurements are replayed from the journal,
//! never re-simulated, and the journal stores the exact `f64`).
//!
//! Its stages run in this order:
//!
//! 1. **Bounds** ([`ResilOptions::prune`]): the candidates' builds are
//!    fetched through the cache in parallel, then every build gets a
//!    static Mflops upper bound from its arguments' shapes in a parallel
//!    pass of its own, and the commit order becomes best bound first
//!    ([`crate::prune`]).
//! 2. **Evaluation ahead of the commit**: one worker per core takes
//!    candidates in commit order and evaluates each under a private
//!    [`Collector`], skipping the candidates the commit will not
//!    evaluate — journaled, or bounded below the committed incumbent,
//!    which only rises, so the commit prunes them too.
//! 3. **Commit**: strictly sequential and concurrent with stage 2 —
//!    journal replay, breaker, bound, then the evaluation a worker made,
//!    whose telemetry is merged ([`replay_into`]) at the candidate's
//!    slot. A result the commit does not use (a candidate the breaker
//!    skips, or one it prunes after a worker took it) is dropped unseen,
//!    so journal bytes, rankings, counters and events are bit-for-bit
//!    those of a sequential sweep.
//! 4. **Rank** ([`crate::search`]) over the results in candidate order.
//!
//! Transform legality is not a stage: every enumerated candidate is
//! legal by construction, which `augem-depan` proves off the sweep (the
//! facade's `check_transforms` and `figures depan`, see DESIGN.md).
//!
//! The journal is append-ordered, the breaker counts consecutive
//! failures, pruning compares against the best measurement committed so
//! far, and resume must replay decisions in the order they were made —
//! hence the sequential commit. Injected faults (`Trigger::Nth` counters
//! in particular) are order-dependent by design, so an enabled
//! [`Injector`] evaluates inline at the commit instead: the one
//! sequential sweep.
//!
//! [`ResilOptions::plain`] turns the breaker, the budget and pruning off,
//! so every candidate is measured: the exhaustive sweep.

use crate::cache::EvalCache;
use crate::config::{Candidate, LoggedBuild};
use crate::evaluate::{evaluate, EvalClass, EvalError, Evaluation};
use crate::prune::ub_mflops;
use crate::search::{rank, SweepStats, TuneError, TuneResult};
use augem_machine::MachineSpec;
use augem_obs::{replay_into, span, stage, Collector, Histogram, Tracer, Value};
use augem_resil::{
    counter, sandboxed, with_retry, CircuitBreaker, Fault, Injector, Journal, RetryPolicy, Site,
};
use augem_sim::TimingReport;
use rayon::prelude::*;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// One evaluation: the measurement (or typed failure) with its wall time
/// in ns, or `None` when an injected `Crash` killed the sweep.
type Attempt = Option<(Result<Evaluation, EvalError>, u64)>;

/// Default per-candidate instruction budget: far above any healthy
/// micro-problem trace (worst evaluator runs a few million dynamic
/// instructions), far below the functional simulator's own runaway
/// backstop.
pub const DEFAULT_STEP_BUDGET: u64 = 1 << 26;

/// Knobs for the sweep.
#[derive(Debug, Clone, Copy)]
pub struct ResilOptions {
    /// Consecutive failures before a candidate family is circuit-broken
    /// (0 disables the breaker).
    pub breaker_threshold: u32,
    /// Per-candidate instruction budget (`None` = simulator default).
    pub step_limit: Option<u64>,
    /// Skip candidates whose static Mflops upper bound (`augem-cost`)
    /// falls strictly below the best measurement committed so far,
    /// committing best-bound-first. The winner and its measurement are
    /// unchanged (the bound is sound and the cut strict); pruned
    /// candidates are journaled with outcome `"pruned"` so a resumed
    /// sweep replays the same decisions bit-for-bit. Evaluation still
    /// runs on every core ahead of the commit; workers skip candidates
    /// the committed incumbent already dominates. On by default, off in
    /// [`plain`](ResilOptions::plain).
    pub prune: bool,
}

impl Default for ResilOptions {
    fn default() -> Self {
        ResilOptions {
            breaker_threshold: 3,
            step_limit: Some(DEFAULT_STEP_BUDGET),
            prune: true,
        }
    }
}

impl ResilOptions {
    /// The exhaustive sweep: no circuit breaker, no step budget and no
    /// pruning, so every candidate is measured.
    pub fn plain() -> Self {
        ResilOptions {
            breaker_threshold: 0,
            step_limit: None,
            prune: false,
        }
    }
}

fn class_name(class: EvalClass) -> &'static str {
    match class {
        EvalClass::Panic => "panic",
        EvalClass::Budget => "budget",
        EvalClass::Build => "build",
        EvalClass::Prune => "prune",
    }
}

fn report_to_json(e: &Evaluation) -> augem_obs::Json {
    use augem_obs::Json;
    let r = &e.report;
    Json::obj(vec![
        ("cycles", Json::uint(r.cycles)),
        ("dyn_insts", Json::uint(r.dyn_insts)),
        ("flops", Json::uint(r.flops)),
        ("mem_accesses", Json::uint(r.mem_accesses)),
        ("l1_misses", Json::uint(r.l1_misses)),
        ("llc_misses", Json::uint(r.llc_misses)),
        (
            "port_uops",
            Json::Arr(r.port_uops.iter().map(|&u| Json::uint(u)).collect()),
        ),
    ])
}

fn evaluation_from_json(entry: &augem_obs::Json) -> Option<Evaluation> {
    let report = entry.get("report")?;
    Some(Evaluation {
        report: TimingReport {
            cycles: report.get("cycles")?.as_u64()?,
            dyn_insts: report.get("dyn_insts")?.as_u64()?,
            flops: report.get("flops")?.as_u64()?,
            mem_accesses: report.get("mem_accesses")?.as_u64()?,
            l1_misses: report.get("l1_misses")?.as_u64()?,
            llc_misses: report.get("llc_misses")?.as_u64()?,
            port_uops: report
                .get("port_uops")?
                .as_arr()?
                .iter()
                .map(|j| j.as_u64())
                .collect::<Option<Vec<u64>>>()?,
        },
        // The journal stores the exact f64 (the JSON layer round-trips
        // doubles through the shortest representation), so a resumed
        // ranking is bit-identical to the uninterrupted one.
        mflops: entry.get("mflops")?.as_f64()?,
        useful_flops: entry.get("useful_flops")?.as_u64()?,
    })
}

/// A journaled decision, restored at commit instead of re-run.
enum Journaled {
    /// A measurement, replayed bit-for-bit.
    Ok(Evaluation),
    /// A failed evaluation; it counted against the breaker.
    Failed(String),
    /// A breaker skip or prune; it never touched the breaker, so
    /// restoring it must not either.
    Decided(String),
}

/// The journal's final word on `tag`, if it has one. A well-formed "ok"
/// line with a mangled payload is treated like a corrupt line: counted,
/// dropped and re-evaluated.
fn journaled(journal: &Journal, tag: &str, tracer: &dyn Tracer) -> Option<Journaled> {
    use augem_obs::Json;
    let entry = journal.get(tag)?;
    let outcome = entry.get("outcome").and_then(Json::as_str).unwrap_or("?");
    let why = entry.get("error").and_then(Json::as_str).unwrap_or(outcome);
    match outcome {
        "ok" => {
            let e = evaluation_from_json(entry);
            if e.is_none() {
                tracer.add(counter::JOURNAL_CORRUPT, 1);
            }
            e.map(Journaled::Ok)
        }
        "skipped" | "pruned" => Some(Journaled::Decided(why.to_string())),
        _ => Some(Journaled::Failed(why.to_string())),
    }
}

/// Runs `f` over `items` in parallel, each call recording into a private
/// collector for the caller to replay in item order — so the merged
/// telemetry does not depend on how the workers interleaved.
fn par_traced<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T, &dyn Tracer) -> R + Sync,
) -> Vec<(R, Collector)> {
    items
        .par_iter()
        .map(|item| {
            let local = Collector::new();
            (f(item, &local), local)
        })
        .collect()
}

/// Evaluation ahead of the commit (stage 2). Workers take candidates in
/// commit order and leave each result for the commit, which takes them
/// in that same order. The atomics are `Relaxed`: each publishes only
/// its own value, and results pass through the mutex. A poisoned mutex
/// is recovered, since every update is a single slot assignment.
struct Ahead<'a> {
    order: &'a [usize],
    /// By candidate: may the commit need it evaluated? Journaled
    /// candidates never are.
    wanted: Vec<bool>,
    bounds: &'a [Option<f64>],
    /// The next position in `order` a worker takes.
    next: AtomicUsize,
    /// The committed incumbent's Mflops, as bits. It only rises.
    incumbent: AtomicU64,
    stopped: AtomicBool,
    /// By candidate: a worker's result with the telemetry it recorded,
    /// until the commit takes it.
    done: Mutex<Vec<Option<(Attempt, Collector)>>>,
    ready: Condvar,
}

impl<'a> Ahead<'a> {
    /// Workers for the candidates `todo` lists, taken in `order`.
    fn new(order: &'a [usize], todo: &[usize], bounds: &'a [Option<f64>]) -> Self {
        let mut wanted = vec![false; order.len()];
        for &i in todo {
            wanted[i] = true;
        }
        Ahead {
            order,
            done: Mutex::new((0..order.len()).map(|_| None).collect()),
            wanted,
            bounds,
            next: AtomicUsize::new(0),
            incumbent: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            stopped: AtomicBool::new(false),
            ready: Condvar::new(),
        }
    }

    /// One worker: takes candidates until none are left or the commit
    /// has finished. A candidate whose bound is below the incumbent
    /// read here is below the one the commit compares it with, so the
    /// commit prunes it and never asks for its result.
    fn work(&self, eval: impl Fn(usize, &dyn Tracer) -> Attempt) {
        while !self.stopped.load(Relaxed) {
            let Some(&i) = self.order.get(self.next.fetch_add(1, Relaxed)) else {
                return;
            };
            let best = f64::from_bits(self.incumbent.load(Relaxed));
            if !self.wanted[i] || self.bounds[i].is_some_and(|ub| ub < best) {
                continue;
            }
            let local = Collector::new();
            // `attempt` sandboxes the evaluation; this keeps a panic
            // anywhere else from leaving the commit waiting forever.
            let outcome = sandboxed(|| eval(i, &local))
                .unwrap_or_else(|p| Some((Err(EvalError::Panicked(p)), 0)));
            self.done.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some((outcome, local));
            self.ready.notify_all();
        }
    }

    /// Waits for candidate `i`'s result.
    fn take(&self, i: usize) -> (Attempt, Collector) {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = done[i].take() {
                return result;
            }
            done = self
                .ready
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn raise(&self, best: f64) {
        self.incumbent.store(best.to_bits(), Relaxed);
    }

    fn stop(&self) {
        self.stopped.store(true, Relaxed);
    }
}

/// Tunes over `candidates` on `machine` and ranks the survivors. See the
/// module docs for the stages `opts` selects. `journal` checkpoints every
/// decision and is replayed first (`None` keeps an in-memory one);
/// `injector` plants deterministic faults for the resilience suites —
/// pass [`Injector::disabled`] otherwise. Builds and measurements go
/// through `cache`, so the layers above the sweep reuse them.
pub fn sweep<C: Candidate + Copy + Send + Sync>(
    candidates: Vec<C>,
    machine: &MachineSpec,
    opts: &ResilOptions,
    journal: Option<&mut Journal>,
    injector: &Injector,
    tracer: &dyn Tracer,
    cache: &EvalCache,
) -> Result<TuneResult<C>, TuneError> {
    use augem_obs::Json;

    let kernel = candidates.first().map_or("", |c| c.kernel().name());
    let mut unsaved;
    let journal = match journal {
        Some(j) => j,
        None => {
            unsaved = Journal::in_memory();
            &mut unsaved
        }
    };

    let _t = span(tracer, stage::TUNE);
    let _r = span(tracer, stage::RESIL);

    if journal.corrupt_dropped() > 0 {
        tracer.add(counter::JOURNAL_CORRUPT, journal.corrupt_dropped() as u64);
        tracer.event(
            "resil.journal.corrupt",
            &[("dropped", Value::from(journal.corrupt_dropped()))],
        );
    }

    let n = candidates.len();
    let mut stats = SweepStats::default();
    // Journaled candidates are restored at commit: never re-bounded or
    // re-evaluated.
    let mut replay: Vec<Option<Journaled>> = candidates
        .iter()
        .map(|c| journaled(journal, &c.tag(), tracer))
        .collect();
    let todo: Vec<usize> = (0..n).filter(|&i| replay[i].is_none()).collect();

    // Stage 1: the candidates' logged builds, fetched through the cache
    // that evaluation then hits, then static bounds from the builds and
    // the arguments' shapes, then best-first order. A candidate that
    // fails to build has no build here; evaluation reports its failure.
    let mut bounds: Vec<Option<f64>> = vec![None; n];
    let mut order: Vec<usize> = (0..n).collect();
    if opts.prune {
        let mut builds: Vec<(usize, Arc<LoggedBuild>)> = Vec::new();
        let fetched = par_traced(&todo, |&i, t| cache.logged(&candidates[i], machine, t));
        for (&i, (build, local)) in todo.iter().zip(fetched) {
            replay_into(tracer, &local.snapshot());
            if let Ok(build) = build {
                builds.push((i, build));
            }
        }
        let _c = span(tracer, stage::COST);
        // The stage's cost is the wall time of its parallel pass; each
        // candidate's own time (shapes and analysis) sums to its CPU.
        let b0 = Instant::now();
        let bounded: Vec<(Option<f64>, u64)> = builds
            .par_iter()
            .map(|(i, build)| {
                let a0 = Instant::now();
                let (shapes, useful) = candidates[*i].eval_shapes();
                // The analyzer declining to bound a kernel is not a
                // candidate failure — it just can't be pruned.
                let ub = augem_cost::analyze_shapes(&build.asm, &shapes, machine)
                    .ok()
                    .map(|r| ub_mflops(r.lower_bound_cycles, useful, machine.turbo_ghz));
                (ub, a0.elapsed().as_nanos() as u64)
            })
            .collect();
        stats.bound_ns = b0.elapsed().as_nanos() as u64;
        for (&(i, _), (ub, ns)) in builds.iter().zip(bounded) {
            bounds[i] = ub;
            stats.bound_cpu_ns += ns;
        }
        stats.analyzed = builds.len();
        tracer.add("cost.analyzed", stats.analyzed as u64);
        tracer.add("cost.bound_ns", stats.bound_ns);
        // Descending bound, original index breaking ties. Unbounded
        // candidates (journaled, unbuildable, or declined by the
        // analyzer) can never be pruned and go first.
        let ub = |i: usize| bounds[i].unwrap_or(f64::INFINITY);
        order.sort_by(|&a, &b| ub(b).total_cmp(&ub(a)).then(a.cmp(&b)));
    }

    // Stages 2 and 3: workers evaluate ahead of the sequential commit,
    // unless an enabled injector makes evaluation order-dependent; then
    // the commit evaluates inline.
    let parallel = !injector.is_enabled();
    let ahead = Ahead::new(&order, &todo, &bounds);
    let breaker = CircuitBreaker::new(opts.breaker_threshold);
    let mut slots: Vec<Option<Result<Evaluation, String>>> = (0..n).map(|_| None).collect();
    let mut latency = Histogram::new();
    let mut interrupted = false;
    // Best Mflops committed so far — the pruning incumbent. Replayed
    // "ok" entries feed it too, so a resumed sweep reaches each pruning
    // decision with exactly the state the original sweep had.
    let mut best_mflops = f64::NEG_INFINITY;

    std::thread::scope(|s| {
        if parallel {
            for _ in 0..rayon::current_num_threads().min(todo.len()) {
                s.spawn(|| {
                    ahead.work(|i, t| attempt(&candidates[i], machine, opts, injector, t, cache))
                });
            }
        }
        for &i in &order {
            let c = &candidates[i];
            let tag = c.tag();
            let family = c.family();

            // Checkpoint replay: a journaled outcome is final — restore
            // it (and its effect on the breaker) without re-simulating.
            if let Some(journaled) = replay[i].take() {
                slots[i] = Some(match journaled {
                    Journaled::Ok(e) => {
                        breaker.record(&family, true);
                        best_mflops = best_mflops.max(e.mflops);
                        ahead.raise(best_mflops);
                        Ok(e)
                    }
                    Journaled::Failed(why) => {
                        if breaker.record(&family, false) {
                            tracer.add(counter::BREAKER_TRIP, 1);
                        }
                        Err(why)
                    }
                    Journaled::Decided(why) => Err(why),
                });
                tracer.add(counter::JOURNAL_RESUMED, 1);
                continue;
            }

            // Circuit check: a family past its failure threshold is
            // skipped, recorded as a pruned candidate (an expected
            // search outcome).
            if breaker.is_open(&family) {
                let why = format!("skipped: circuit open for family {family}");
                tracer.add(counter::BREAKER_SKIPPED, 1);
                tracer.event(
                    "resil.breaker.skipped",
                    &[
                        ("tag", Value::from(tag.as_str())),
                        ("family", Value::from(family.as_str())),
                    ],
                );
                let _ = journal.append(Json::obj(vec![
                    ("tag", Json::str(&tag)),
                    ("outcome", Json::str("skipped")),
                    ("error", Json::str(&why)),
                ]));
                slots[i] = Some(Err(why));
                continue;
            }

            // Bound check: a candidate the static analyzer proves
            // strictly slower than the incumbent is skipped without
            // simulation. Not a failure — the breaker never sees it.
            if let Some(ub) = bounds[i].filter(|&ub| ub < best_mflops) {
                let why = format!(
                    "pruned(bound): static bound {ub:.1} Mflops below incumbent {best_mflops:.1} Mflops"
                );
                stats.pruned += 1;
                tracer.add("cost.pruned", 1);
                tracer.event(
                    "cost.pruned",
                    &[
                        ("tag", Value::from(tag.as_str())),
                        ("bound_mflops", Value::from(ub)),
                    ],
                );
                let entry = Json::obj(vec![
                    ("tag", Json::str(&tag)),
                    ("outcome", Json::str("pruned")),
                    ("error", Json::str(&why)),
                ]);
                append_maybe_corrupted(journal, injector, &tag, entry);
                slots[i] = Some(Err(why));
                continue;
            }

            let attempted = if parallel {
                // Merge the worker's telemetry at this candidate's slot
                // in the commit order, then proceed exactly as if it had
                // just been evaluated inline.
                let (attempted, local) = ahead.take(i);
                replay_into(tracer, &local.snapshot());
                attempted
            } else {
                attempt(c, machine, opts, injector, tracer, cache)
            };
            let Some((outcome, eval_ns)) = attempted else {
                // An injected crash: the "process" died mid-sweep,
                // leaving the journal's completed prefix behind.
                interrupted = true;
                tracer.event("resil.crash", &[("tag", Value::from(tag.as_str()))]);
                break;
            };
            latency.record(eval_ns);
            stats.evaluated += 1;

            match outcome {
                Ok(e) => {
                    breaker.record(&family, true);
                    best_mflops = best_mflops.max(e.mflops);
                    ahead.raise(best_mflops);
                    let entry = Json::obj(vec![
                        ("tag", Json::str(&tag)),
                        ("outcome", Json::str("ok")),
                        ("mflops", Json::Num(e.mflops)),
                        ("useful_flops", Json::uint(e.useful_flops)),
                        ("report", report_to_json(&e)),
                    ]);
                    append_maybe_corrupted(journal, injector, &tag, entry);
                    slots[i] = Some(Ok(e));
                }
                Err(e) => {
                    // The class counter was already bumped per attempt;
                    // here we only record the terminal event.
                    let class = e.class();
                    let why = e.to_string();
                    tracer.event(
                        "resil.eval.failed",
                        &[
                            ("tag", Value::from(tag.as_str())),
                            ("class", Value::from(class_name(class))),
                            ("error", Value::from(why.as_str())),
                        ],
                    );
                    if breaker.record(&family, false) {
                        tracer.add(counter::BREAKER_TRIP, 1);
                        tracer.event(
                            "resil.breaker.trip",
                            &[("family", Value::from(family.as_str()))],
                        );
                    }
                    let entry = Json::obj(vec![
                        ("tag", Json::str(&tag)),
                        ("outcome", Json::str("err")),
                        ("class", Json::str(class_name(class))),
                        ("error", Json::str(&why)),
                    ]);
                    append_maybe_corrupted(journal, injector, &tag, entry);
                    slots[i] = Some(Err(why));
                }
            }
        }
        ahead.stop();
    });

    // Stage 4: rank, in candidate order so ties resolve by enumeration
    // order whatever order the commit ran in.
    let done: Vec<(C, Result<Evaluation, String>)> = candidates
        .into_iter()
        .zip(slots)
        .filter_map(|(c, slot)| slot.map(|r| (c, r)))
        .collect();
    if interrupted {
        return Err(TuneError {
            kernel: kernel.to_string(),
            machine: machine.arch.short_name().to_string(),
            failures: done
                .iter()
                .map(|(c, r)| {
                    (
                        c.tag(),
                        match r {
                            Ok(e) => format!("ok: {:.1} Mflops", e.mflops),
                            Err(why) => why.clone(),
                        },
                    )
                })
                .collect(),
            interrupted: true,
        });
    }
    let mut result = rank(kernel, machine, done, tracer)?;
    result.eval_latency_ns = latency;
    result.stats = stats;
    Ok(result)
}

/// Evaluates one candidate: sandboxed, under the step budget, retried
/// on transient failures, with every failed attempt counted by class —
/// including failures a later retry recovers from, which would
/// otherwise vanish from the telemetry. Faults `injector` plants at the
/// eval and sim sites stand in for the evaluation; a disabled injector
/// plants none. Returns the outcome and its wall time in ns, or `None`
/// when an injected `Crash` killed the sweep.
fn attempt<C: Candidate>(
    c: &C,
    machine: &MachineSpec,
    opts: &ResilOptions,
    injector: &Injector,
    tracer: &dyn Tracer,
    cache: &EvalCache,
) -> Option<(Result<Evaluation, EvalError>, u64)> {
    let tag = &c.tag();
    let eval = |limit| {
        sandboxed(|| evaluate(c, machine, tracer, limit, cache))
            .map_err(EvalError::Panicked)
            .and_then(|r| r)
    };
    let crashed = Cell::new(false);
    let t0 = Instant::now();
    let outcome = with_retry(&RetryPolicy::default(), tracer, tag, |attempt| {
        // A fault injected at the simulator layer shows up to the tuner
        // like one around the whole evaluation: a panic, or a budget
        // exhausted on the first instruction.
        let fault = match injector.fault(Site::Eval, tag, attempt) {
            Some(Fault::CorruptEntry) | None => injector
                .fault(Site::Sim, tag, attempt)
                .map(|f| (Site::Sim, f)),
            fault => fault.map(|f| (Site::Eval, f)),
        };
        let r = match fault {
            Some((Site::Eval, Fault::Crash)) => {
                crashed.set(true);
                // Fatal class: stops the retry loop immediately.
                return Err(EvalError::Budget(0));
            }
            Some((site, Fault::Panic)) => {
                sandboxed(|| -> Evaluation { panic!("injected fault: {site:?} panicked on {tag}") })
                    .map_err(EvalError::Panicked)
            }
            // A one-instruction budget genuinely exhausts.
            Some((_, Fault::Budget)) => eval(Some(1)),
            _ => eval(opts.step_limit),
        };
        if let Err(e) = &r {
            tracer.add(e.class().counter(), 1);
        }
        r
    });
    (!crashed.get()).then(|| (outcome, t0.elapsed().as_nanos() as u64))
}

/// Journal append with the corruption fault-site applied: when the
/// injector fires, garbage is written *instead of* the record — exactly
/// what a crash mid-write leaves — and the candidate will be
/// re-evaluated on resume.
fn append_maybe_corrupted(
    journal: &mut Journal,
    injector: &Injector,
    tag: &str,
    entry: augem_obs::Json,
) {
    if let Some(Fault::CorruptEntry) = injector.fault(Site::JournalAppend, tag, 0) {
        let _ = journal.append_corrupt(&format!("{{\"tag\":\"{tag}\",\"outcome\":\"o"));
    } else {
        let _ = journal.append(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{gemm_candidates, vector_candidates, GemmConfig, VectorKernel};
    use augem_obs::Collector;
    use augem_resil::{journal_header, InjectionPlan, Trigger};

    /// A checkpointed gemm sweep on a fresh cache.
    fn gemm(
        m: &MachineSpec,
        opts: &ResilOptions,
        journal: &mut Journal,
        injector: &Injector,
        tracer: &dyn Tracer,
    ) -> Result<TuneResult<GemmConfig>, TuneError> {
        let cache = EvalCache::new();
        let cands = gemm_candidates(m);
        sweep(cands, m, opts, Some(journal), injector, tracer, &cache)
    }

    /// A checkpointed daxpy sweep on a fresh cache.
    fn axpy(
        m: &MachineSpec,
        opts: &ResilOptions,
        journal: &mut Journal,
        injector: &Injector,
        tracer: &dyn Tracer,
    ) -> Result<TuneResult<crate::VectorConfig>, TuneError> {
        let cands = vector_candidates(VectorKernel::Axpy, m);
        let cache = EvalCache::new();
        sweep(cands, m, opts, Some(journal), injector, tracer, &cache)
    }

    /// The exhaustive sweep.
    fn plain<C: Candidate + Copy + Send + Sync>(
        candidates: Vec<C>,
        m: &MachineSpec,
        tracer: &dyn Tracer,
    ) -> Result<TuneResult<C>, TuneError> {
        let opts = ResilOptions::plain();
        let cache = EvalCache::new();
        let inj = Injector::disabled();
        sweep(candidates, m, &opts, None, &inj, tracer, &cache)
    }

    #[test]
    fn tuned_gemm_reaches_most_of_peak() {
        // Piledriver's FMA-era peak is the harder one to approach.
        for (m, floor) in [
            (MachineSpec::sandy_bridge(), 0.5),
            (MachineSpec::piledriver(), 0.4),
        ] {
            let r = plain(gemm_candidates(&m), &m, augem_obs::null()).unwrap();
            let frac = r.best_eval.mflops / m.peak_mflops();
            let arch = m.arch.short_name();
            assert!(
                frac > floor,
                "tuned GEMM reaches {:.1}% of {arch} peak",
                frac * 100.0
            );
            // The winner must be a vectorizable shape.
            assert_eq!(
                r.best.mu % m.simd_mode().f64_lanes(),
                0,
                "winner {:?}",
                r.best
            );
            assert!(r.ranking.len() > 4);
            assert_eq!(r.generated, r.ranking.len() + r.failures.len());
        }
    }

    #[test]
    fn empty_search_space_reports_every_failure() {
        // A machine with almost no vector registers cannot build any
        // candidate; the error must name each one with a reason.
        let mut m = MachineSpec::sandy_bridge();
        m.regs.vector_regs = 1;
        match plain(gemm_candidates(&m), &m, augem_obs::null()) {
            Err(e) => {
                assert!(!e.failures.is_empty());
                assert_eq!(e.kernel, "dgemm");
                for (tag, why) in &e.failures {
                    assert!(!tag.is_empty() && !why.is_empty());
                }
                let msg = e.to_string();
                assert!(msg.contains("no dgemm candidate"), "{msg}");
            }
            Ok(r) => {
                // If some candidate still builds with one register, the
                // search must at least have pruned most of the space.
                assert!(r.failures.len() > r.ranking.len());
            }
        }
    }

    #[test]
    fn traced_search_orders_candidates_and_emits_their_events() {
        let m = MachineSpec::sandy_bridge();
        let c = Collector::new();
        let r = plain(vector_candidates(VectorKernel::Axpy, &m), &m, &c).unwrap();
        for w in r.ranking.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(r.best_eval.mflops, r.ranking[0].1);
        let snap = c.snapshot();
        let events: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.name == "tuner.candidate")
            .collect();
        assert_eq!(events.len(), r.generated);
        // One latency sample per enumerated candidate, successes and
        // failures alike.
        assert_eq!(r.eval_latency_ns.count(), r.generated as u64);
        assert!(r.eval_latency_ns.p50() <= r.eval_latency_ns.p99());
        assert_eq!(snap.counters["tuner.generated"], r.generated as u64);
        assert_eq!(snap.counters["tuner.built"], r.ranking.len() as u64);
        assert!(snap.stages().iter().any(|s| s.name == stage::TUNE));
        assert!(snap.stages().iter().any(|s| s.name == stage::SIM));
    }

    #[test]
    fn resilient_matches_plain_tuner_without_faults() {
        let m = MachineSpec::sandy_bridge();
        let reference = plain(gemm_candidates(&m), &m, augem_obs::null()).unwrap();
        let mut j = Journal::in_memory();
        let opts = ResilOptions::default();
        let r = gemm(&m, &opts, &mut j, &Injector::disabled(), augem_obs::null()).unwrap();
        assert_eq!(r.best.tag(), reference.best.tag());
        assert_eq!(
            r.best_eval.mflops.to_bits(),
            reference.best_eval.mflops.to_bits(),
            "sequential resilient sweep must measure identically"
        );
        assert_eq!(r.generated, reference.generated);
    }

    #[test]
    fn injected_panics_cost_candidates_not_the_sweep() {
        let m = MachineSpec::sandy_bridge();
        let c = Collector::new();
        let mut j = Journal::in_memory();
        // Panic on every first attempt; retries are injected again, so
        // with a 30% per-attempt rate most candidates still succeed.
        let inj = Injector::new(InjectionPlan::new(11).with(
            Site::Eval,
            Fault::Panic,
            Trigger::Rate(0.3),
        ));
        let r = axpy(&m, &ResilOptions::default(), &mut j, &inj, &c);
        let snap = c.snapshot();
        assert!(
            snap.counters.get("resil.retry").copied().unwrap_or(0) > 0,
            "a 30% panic rate must cause retries"
        );
        // The sweep terminated with a typed outcome either way.
        if let Ok(r) = r {
            assert!(r.best_eval.mflops > 0.0);
        }
        assert!(snap.stages().iter().any(|s| s.name == stage::RESIL));
    }

    #[test]
    fn crash_interrupts_and_resume_completes_bit_for_bit() {
        let m = MachineSpec::sandy_bridge();
        let path = std::env::temp_dir().join(format!(
            "augem-resil-unit-resume-{}.jsonl",
            std::process::id()
        ));
        let header = journal_header("dgemm", m.arch.short_name());
        let opts = ResilOptions::default();

        // Uninterrupted reference run.
        let mut jref = Journal::in_memory();
        let reference = gemm(
            &m,
            &opts,
            &mut jref,
            &Injector::disabled(),
            augem_obs::null(),
        )
        .unwrap();

        // Crash at the 4th evaluated candidate.
        let mut j1 = Journal::create(&path, header.clone()).unwrap();
        let crash =
            Injector::new(InjectionPlan::new(0).with(Site::Eval, Fault::Crash, Trigger::Nth(4)));
        let err = gemm(&m, &opts, &mut j1, &crash, augem_obs::null()).unwrap_err();
        assert!(err.interrupted, "{err}");
        assert_eq!(err.failures.len(), 3, "three candidates completed");

        // Resume from the journal on disk.
        let c = Collector::new();
        let mut j2 = Journal::load(&path, header).unwrap();
        assert_eq!(j2.len(), 3);
        let resumed = gemm(&m, &opts, &mut j2, &Injector::disabled(), &c).unwrap();
        assert_eq!(resumed.best.tag(), reference.best.tag());
        assert_eq!(
            resumed.best_eval.mflops.to_bits(),
            reference.best_eval.mflops.to_bits(),
            "resumed winner must be bit-identical"
        );
        assert_eq!(c.snapshot().counters["resil.journal.resumed"], 3);
        // Replayed candidates are not evaluations, and neither are the
        // candidates the default options prune by bound.
        assert!(resumed.stats.pruned > 0, "the default sweep prunes");
        assert_eq!(
            resumed.eval_latency_ns.count(),
            (resumed.generated - 3 - resumed.stats.pruned) as u64
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pruned_resilient_keeps_winner_and_resumes_bit_for_bit() {
        let m = MachineSpec::sandy_bridge();
        let reference_plain = plain(gemm_candidates(&m), &m, augem_obs::null()).unwrap();
        let opts = ResilOptions::default();

        // Uninterrupted pruned run: winner and measurement unchanged.
        let c = Collector::new();
        let mut jref = Journal::in_memory();
        let reference = gemm(&m, &opts, &mut jref, &Injector::disabled(), &c).unwrap();
        assert_eq!(reference.best.tag(), reference_plain.best.tag());
        assert_eq!(
            reference.best_eval.mflops.to_bits(),
            reference_plain.best_eval.mflops.to_bits(),
            "pruning must not change the winning measurement"
        );
        let snap = c.snapshot();
        assert!(snap.counters["cost.analyzed"] > 0);
        let pruned_count = snap.counters.get("cost.pruned").copied().unwrap_or(0);
        assert_eq!(pruned_count, reference.stats.pruned as u64);

        // Crash partway through, then resume: decisions replay from the
        // journal, including the pruned ones, bit-for-bit.
        let path = std::env::temp_dir().join(format!(
            "augem-resil-unit-prune-resume-{}.jsonl",
            std::process::id()
        ));
        let header = journal_header("dgemm", m.arch.short_name());
        let mut j1 = Journal::create(&path, header.clone()).unwrap();
        let crash =
            Injector::new(InjectionPlan::new(0).with(Site::Eval, Fault::Crash, Trigger::Nth(4)));
        let err = gemm(&m, &opts, &mut j1, &crash, augem_obs::null()).unwrap_err();
        assert!(err.interrupted);

        let c2 = Collector::new();
        let mut j2 = Journal::load(&path, header).unwrap();
        let resumed = gemm(&m, &opts, &mut j2, &Injector::disabled(), &c2).unwrap();
        assert_eq!(resumed.best.tag(), reference.best.tag());
        assert_eq!(
            resumed.best_eval.mflops.to_bits(),
            reference.best_eval.mflops.to_bits(),
            "resumed pruned sweep must be bit-identical"
        );
        // Failure lists (which include every pruned tag and reason)
        // must match entry for entry — the resumed sweep made the same
        // pruning decisions with the same incumbents.
        assert_eq!(resumed.failures, reference.failures);
        let snap2 = c2.snapshot();
        assert!(snap2.counters["resil.journal.resumed"] > 0);
        // Prunes re-decided after the crash point can't exceed the
        // uninterrupted run's total.
        assert!(snap2.counters.get("cost.pruned").copied().unwrap_or(0) <= pruned_count);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn breaker_skips_rest_of_failing_family() {
        let m = MachineSpec::sandy_bridge();
        let c = Collector::new();
        let mut j = Journal::in_memory();
        // Tiny budget: every candidate blows it. Families have >threshold
        // members, so the breaker must trip and start skipping.
        let opts = ResilOptions {
            step_limit: Some(1),
            breaker_threshold: 2,
            ..ResilOptions::default()
        };
        let err = gemm(&m, &opts, &mut j, &Injector::disabled(), &c).unwrap_err();
        assert!(!err.interrupted);
        let snap = c.snapshot();
        assert!(snap.counters["resil.breaker.trip"] > 0);
        assert!(snap.counters["resil.breaker.skipped"] > 0);
        assert!(snap.counters["resil.eval.budget"] > 0);
        // Budget failures and skips cover the whole space.
        assert_eq!(
            err.failures.len(),
            gemm_candidates(&m).len(),
            "every candidate accounted for"
        );
    }

    #[test]
    fn journal_corruption_is_survived_on_resume() {
        let m = MachineSpec::sandy_bridge();
        // Its own directory: the damaged load keeps a copy in
        // `quarantine/` beside the journal.
        let dir =
            std::env::temp_dir().join(format!("augem-resil-unit-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("daxpy.jsonl");
        let header = journal_header("daxpy", m.arch.short_name());
        let mut j1 = Journal::create(&path, header.clone()).unwrap();
        // Corrupt the 2nd journal append, then crash at the 4th eval.
        let inj = Injector::new(
            InjectionPlan::new(0)
                .with(Site::JournalAppend, Fault::CorruptEntry, Trigger::Nth(2))
                .with(Site::Eval, Fault::Crash, Trigger::Nth(4)),
        );
        let err = axpy(
            &m,
            &ResilOptions::default(),
            &mut j1,
            &inj,
            augem_obs::null(),
        )
        .unwrap_err();
        assert!(err.interrupted);

        let c = Collector::new();
        let mut j2 = Journal::load(&path, header).unwrap();
        assert_eq!(j2.corrupt_dropped(), 1, "the corrupted line is dropped");
        assert!(j2.quarantined(), "and kept aside as damage");
        let resumed = axpy(
            &m,
            &ResilOptions::default(),
            &mut j2,
            &Injector::disabled(),
            &c,
        )
        .unwrap();
        let snap = c.snapshot();
        assert_eq!(snap.counters["resil.journal.corrupt"], 1);
        // 2 clean entries restored; the corrupted one re-evaluated.
        assert_eq!(snap.counters["resil.journal.resumed"], 2);
        let cands = vector_candidates(VectorKernel::Axpy, &m);
        let reference = plain(cands, &m, augem_obs::null()).unwrap();
        assert_eq!(resumed.best.tag(), reference.best.tag());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
