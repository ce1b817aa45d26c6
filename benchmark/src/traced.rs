//! The traced run: the timed run's work re-executed in-process on one
//! core, with a span around every call into a layer crate.
//!
//! For each family the facade call (`Augem::generate_degradable`) is timed
//! on a fresh cache, then the same sweep is replayed through the layers'
//! public functions, candidate by candidate:
//! `transforms::generate_optimized_logged` → `templates::identify` →
//! `opt::generate_with_log` → `sim::simulate_timing{,_steady}_budgeted`,
//! then `verify::check` and `verify::check_equivalence` on the winner.
//! The replayed winner must be bit-identical to the facade's (tag, Mflops
//! and assembly text), and the replay's spans must add up to the facade
//! call: the remainder is reported as `augem.unattributed_frac`. The
//! off-path analyzers (`cost::analyze`, `depan::check_transforms`) are
//! timed on the winner. The serve path is timed on a 768-entry store:
//! `KernelStore::open` and `commit`, then `parse_request`, store `get`,
//! `Server::handle` and `Response` rendering over seeded hit requests.
//!
//! Spans are kept in memory; `--trace-out` writes them as Chrome
//! trace-event JSON (chrome://tracing, Perfetto).

use crate::family::{Family, Rng};
use crate::metrics::Metrics;
use crate::stats::Samples;
use crate::wire::{self, Op, STEP_BUDGET};
use crate::workloads::{store_error, Workload, BUDGETS};
use augem::asm::AsmKernel;
use augem::ir::Kernel;
use augem::machine::MachineSpec;
use augem::obs::Json;
use augem::opt::{CodegenOptions, FmaPolicy, StrategyPref};
use augem::resil::Injector;
use augem::sim::SimValue;
use augem::transforms::OptimizeConfig;
use augem::tune::{GemmConfig, VectorConfig};
use augem::verify::EquivSpec;
use augem::{Augem, Degradation, DegradationPolicy};
use augem_serve::{store_key, KernelStore, ServeConfig, Server, StoredKernel};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    /// The request (family or hit iteration) the span belongs to.
    pub rid: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// An in-memory span recorder with a stack of open spans.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    pub fn open(&mut self, name: &'static str, rid: u64) -> usize {
        let id = self.spans.len();
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            rid,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    pub fn time<T>(&mut self, name: &'static str, rid: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, rid);
        let out = f();
        self.close(id);
        out
    }

    /// Wall time of every span named `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Summed self time (duration minus the time its child spans cover)
    /// of every span named `name`, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.ms();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.ms() - children[i])
            .sum()
    }

    /// Chrome trace-event JSON (complete events, µs timestamps).
    pub fn chrome(&self) -> Json {
        let us = |d: Duration| Json::Num(d.as_secs_f64() * 1e6);
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                    ("ph", Json::str("X")),
                    ("ts", us(s.start)),
                    ("dur", us(s.end - s.start)),
                    ("pid", Json::uint(1)),
                    ("tid", Json::uint(1)),
                    (
                        "args",
                        Json::obj(vec![
                            ("id", Json::uint(i as u64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::uint(p as u64)),
                            ),
                            ("rid", Json::uint(s.rid)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

/// The pipeline inputs of one tuning candidate, read through the `tune`
/// crate's public configuration types.
trait Candidate {
    fn tag(&self) -> String;
    fn inputs(&self) -> (Kernel, OptimizeConfig);
    fn codegen(&self) -> CodegenOptions;
    fn eval_args(&self) -> (Vec<SimValue>, u64);
    fn equiv_spec(&self) -> EquivSpec;
    /// GEMM is measured warm (cache-resident), vector kernels cold.
    const STEADY: bool;
}

impl Candidate for GemmConfig {
    fn tag(&self) -> String {
        GemmConfig::tag(self)
    }
    fn inputs(&self) -> (Kernel, OptimizeConfig) {
        self.transform_inputs()
    }
    fn codegen(&self) -> CodegenOptions {
        CodegenOptions {
            strategy: self.strategy,
            fma: self.fma,
            schedule: self.schedule,
            ..Default::default()
        }
    }
    fn eval_args(&self) -> (Vec<SimValue>, u64) {
        augem::tune::gemm_eval_args(self)
    }
    fn equiv_spec(&self) -> EquivSpec {
        GemmConfig::equiv_spec(self)
    }
    const STEADY: bool = true;
}

impl Candidate for VectorConfig {
    fn tag(&self) -> String {
        VectorConfig::tag(self)
    }
    fn inputs(&self) -> (Kernel, OptimizeConfig) {
        self.transform_inputs()
    }
    fn codegen(&self) -> CodegenOptions {
        CodegenOptions {
            strategy: StrategyPref::Vdup,
            fma: FmaPolicy::Auto,
            schedule: self.schedule,
            ..Default::default()
        }
    }
    fn eval_args(&self) -> (Vec<SimValue>, u64) {
        augem::tune::vector_eval_args(self)
    }
    fn equiv_spec(&self) -> EquivSpec {
        VectorConfig::equiv_spec(self)
    }
    const STEADY: bool = false;
}

/// A family's replayed winner.
struct Replayed {
    facade_ms: f64,
    config: String,
    mflops: f64,
    asm_text: String,
    insts: u64,
    dyn_insts: u64,
}

/// The best candidate so far: its measurement and build artifacts.
struct Best<C> {
    mflops: f64,
    candidate: C,
    source: Kernel,
    kernel: Kernel,
    asm: AsmKernel,
    log: augem::opt::BindingLog,
    tlog: augem::transforms::TransformLog,
}

/// Replays one sweep candidate by candidate; returns the winner (the
/// first candidate with the highest Mflops, as the tuner ranks) and the
/// dynamic instructions simulated over all candidates.
fn sweep<C: Candidate + Copy>(
    spans: &mut Spans,
    rid: u64,
    spec: &MachineSpec,
    candidates: Vec<C>,
) -> (Option<Best<C>>, u64) {
    let null = augem::obs::null();
    let mut best: Option<Best<C>> = None;
    let mut dyn_insts = 0;
    for c in candidates {
        let (source, opt_config) = c.inputs();
        let Ok((mut kernel, tlog)) =
            spans.time("transforms.generate_optimized_logged", rid, || {
                augem::transforms::generate_optimized_logged(&source, &opt_config, null)
            })
        else {
            continue;
        };
        spans.time("templates.identify", rid, || {
            augem::templates::identify(&mut kernel)
        });
        let codegen = c.codegen();
        let Ok((asm, log)) = spans.time("opt.generate_with_log", rid, || {
            augem::opt::generate_with_log(&kernel, spec, &codegen, null)
        }) else {
            continue;
        };
        let (args, useful) = c.eval_args();
        let simulated = spans.time("sim.simulate_timing", rid, || {
            if C::STEADY {
                augem::sim::simulate_timing_steady_budgeted(&asm, args, spec, STEP_BUDGET)
            } else {
                augem::sim::simulate_timing_budgeted(&asm, args, spec, STEP_BUDGET)
            }
        });
        let Ok((report, _)) = simulated else {
            continue;
        };
        dyn_insts += report.dyn_insts;
        let mflops = report.useful_mflops(useful, spec.turbo_ghz);
        if best.as_ref().is_none_or(|b| mflops > b.mflops) {
            best = Some(Best {
                mflops,
                candidate: c,
                source,
                kernel,
                asm,
                log,
                tlog,
            });
        }
    }
    (best, dyn_insts)
}

/// Facade call, replay, winner verification and the off-path analyzers
/// for one family.
fn replay_family(spans: &mut Spans, rid: u64, family: Family) -> Result<Replayed, String> {
    let spec = family.machine.spec();
    let facade_span = spans.open("augem.generate_degradable", rid);
    let facade = Augem::new(spec.clone()).generate_degradable(
        family.kernel,
        &DegradationPolicy::default(),
        &Injector::disabled(),
    );
    spans.close(facade_span);
    let facade_ms = spans.spans[facade_span].ms();
    let generated = match (facade.generated, facade.degradation) {
        (Some(g), Degradation::None) => g,
        (_, d) => return Err(format!("facade did not ship a clean kernel: {d}")),
    };
    let (config, mflops, asm, dyn_insts) = match family.vector_kernel() {
        None => replay(spans, rid, &spec, augem::tune::gemm_candidates(&spec)),
        Some(vk) => replay(spans, rid, &spec, augem::tune::vector_candidates(vk, &spec)),
    }?;
    if config != generated.config_tag {
        return Err(format!(
            "replay won with {config}, facade with {}",
            generated.config_tag
        ));
    }
    if mflops.to_bits() != generated.mflops.to_bits() {
        return Err(format!(
            "replay measured {mflops} Mflops, facade {}",
            generated.mflops
        ));
    }
    let asm_text = augem::asm::emit::emit_att(&asm, &spec.isa);
    if asm_text != generated.assembly_text() {
        return Err(format!("replayed {config} emits different assembly"));
    }
    Ok(Replayed {
        facade_ms,
        config,
        mflops,
        asm_text,
        insts: asm.insts.len() as u64,
        dyn_insts,
    })
}

/// The replayed sweep and the winner's verification under one
/// `tune.sweep` span (the facade's counterpart), then the off-path
/// analyzers on the winner outside it. Returns the winner's tag, Mflops
/// and assembly, and the instructions simulated over the sweep.
fn replay<C: Candidate + Copy>(
    spans: &mut Spans,
    rid: u64,
    spec: &MachineSpec,
    candidates: Vec<C>,
) -> Result<(String, f64, AsmKernel, u64), String> {
    let root = spans.open("tune.sweep", rid);
    let (best, dyn_insts) = sweep(spans, rid, spec, candidates);
    let verified = best.ok_or("no candidate survived the replay").map(|b| {
        let mut diags = spans.time("verify.check", rid, || {
            augem::verify::check(&b.kernel, &b.asm, &b.log)
        });
        let equiv = b.candidate.equiv_spec();
        diags.extend(spans.time("verify.check_equivalence", rid, || {
            augem::verify::check_equivalence(&b.source, &b.asm, spec.isa, &equiv)
        }));
        (b, diags)
    });
    spans.close(root);
    let (b, diags) = verified?;
    if let Some(e) = augem::verify::errors(&diags).first() {
        return Err(format!("winner fails verification: {e}"));
    }
    let (args, _) = b.candidate.eval_args();
    let _ = black_box(spans.time("cost.analyze", rid, || {
        augem::cost::analyze(&b.asm, &args, spec)
    }));
    black_box(spans.time("depan.check_transforms", rid, || {
        augem::depan::check_transforms(&b.source, &b.tlog, None)
    }));
    Ok((b.candidate.tag(), b.mflops, b.asm, dyn_insts))
}

/// What the traced run hands back to the timed run.
pub struct TracedResult {
    pub metrics: Metrics,
    /// Facade wall time per family name, in ms.
    pub facade_ms: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub families: usize,
}

impl TracedResult {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .0
                        .iter()
                        .map(|(n, v)| (n.to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "facade_ms",
                Json::Obj(
                    self.facade_ms
                        .iter()
                        .map(|(f, ms)| (f.clone(), Json::Num(*ms)))
                        .collect(),
                ),
            ),
            ("attempted", Json::uint(self.attempted)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| Json::str(f.clone())).collect()),
            ),
            ("families", Json::uint(self.families as u64)),
        ])
    }

    pub fn from_json(doc: &Json) -> Option<TracedResult> {
        let names: Vec<&'static str> = crate::metrics::TRACED_LAYERS
            .iter()
            .map(|(n, _)| *n)
            .collect();
        let mut metrics = Metrics::default();
        for name in names {
            if let Some(v) = doc.get("metrics")?.get(name).and_then(Json::as_f64) {
                metrics.set(name, v);
            }
        }
        let facade_ms = match doc.get("facade_ms")? {
            Json::Obj(pairs) => pairs
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            _ => return None,
        };
        Some(TracedResult {
            metrics,
            facade_ms,
            attempted: doc.get("attempted")?.as_u64()?,
            failures: doc
                .get("failures")?
                .as_arr()?
                .iter()
                .filter_map(|f| f.as_str().map(String::from))
                .collect(),
            families: doc.get("families")?.as_u64()? as usize,
        })
    }
}

/// Runs the traced workload. `work` is a scratch directory.
pub fn run(
    workload: Workload,
    seed: u64,
    quick: bool,
    work: &Path,
    trace_out: Option<&Path>,
) -> io::Result<TracedResult> {
    std::fs::create_dir_all(work)?;
    let mut spans = Spans::default();
    let mut failures = Vec::new();
    let mut attempted = 0;

    let mut families = workload.families();
    if quick {
        families.truncate(1);
    }
    Rng::new(seed, 70).shuffle(&mut families);
    let mut winners: Vec<(Family, Replayed)> = Vec::new();
    for (rid, &family) in families.iter().enumerate() {
        attempted += 1;
        match replay_family(&mut spans, rid as u64, family) {
            Ok(r) => winners.push((family, r)),
            Err(why) => failures.push(format!("{}: {why}", family.name())),
        }
    }
    if winners.is_empty() {
        return Err(io::Error::other(format!(
            "no family replayed: {failures:?}"
        )));
    }

    let store_dir = work.join("traced-store");
    let entries = build_store(&mut spans, &store_dir, &winners)?;
    for i in 0..5 {
        let store = spans.time("serve.store_open", i, || {
            KernelStore::open(&store_dir, augem::obs::null())
        });
        if store.map_err(store_error)?.len() != entries.len() {
            failures.push("reopened store lost entries".to_string());
        }
    }
    let iterations = if quick { 200 } else { 10_000 };
    attempted += iterations;
    hit_path(
        &mut spans,
        &store_dir,
        &entries,
        iterations,
        seed,
        &mut failures,
    )?;
    std::fs::remove_dir_all(&store_dir)?;

    let metrics = layer_metrics(&spans, &winners);
    if let Some(path) = trace_out {
        std::fs::write(path, spans.chrome().render())?;
    }
    Ok(TracedResult {
        metrics,
        facade_ms: winners
            .iter()
            .map(|(f, r)| (f.name(), r.facade_ms))
            .collect(),
        attempted,
        failures,
        families: winners.len(),
    })
}

/// One entry of the traced store: the family it serves, the budget in its
/// key, and the key.
struct Entry {
    family: Family,
    budget: u64,
    key: String,
}

/// Commits 768 entries (every winner under successive budgets, cycling
/// through the replayed families) into a fresh store.
fn build_store(
    spans: &mut Spans,
    dir: &Path,
    winners: &[(Family, Replayed)],
) -> io::Result<Vec<Entry>> {
    let mut store = KernelStore::open(dir, augem::obs::null()).map_err(store_error)?;
    let n = Family::all().len() * BUDGETS as usize;
    let mut entries = Vec::with_capacity(n);
    for i in 0..n {
        let (family, r) = &winners[i % winners.len()];
        let spec = family.machine.spec();
        let budget = STEP_BUDGET - (i / winners.len()) as u64;
        let key = store_key(family.kernel.name(), &spec, Some(budget));
        let entry = StoredKernel {
            key: key.clone(),
            kernel: family.kernel.name().to_string(),
            machine: spec.fingerprint_tag(),
            config_tag: r.config.clone(),
            mflops: r.mflops,
            asm: r.asm_text.clone(),
        };
        spans
            .time("serve.store_commit", i as u64, || {
                store.commit(entry, &Injector::disabled(), augem::obs::null())
            })
            .map_err(store_error)?;
        entries.push(Entry {
            family: *family,
            budget,
            key,
        });
    }
    Ok(entries)
}

/// Seeded store hits through each serve-layer call in turn.
fn hit_path(
    spans: &mut Spans,
    dir: &Path,
    entries: &[Entry],
    iterations: u64,
    seed: u64,
    failures: &mut Vec<String>,
) -> io::Result<()> {
    let store = KernelStore::open(dir, augem::obs::null()).map_err(store_error)?;
    let config = ServeConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    };
    let server = Server::open(config, Injector::disabled()).map_err(store_error)?;
    let mut rng = Rng::new(seed, 80);
    for it in 0..iterations {
        let e = &entries[rng.below(entries.len())];
        let op = if rng.unit() < 0.25 {
            Op::Generate
        } else {
            Op::Tune
        };
        let line = wire::request(it, op, e.family, Some(e.budget));
        let req = spans.time("serve.parse_request", it, || {
            augem_serve::parse_request(line.trim_end())
        });
        let found = spans.time("serve.store_get", it, || store.get(&e.key).is_some());
        let Ok(req) = req else {
            failures.push(format!("r{it}: request did not parse"));
            continue;
        };
        let resp = spans.time("serve.handle", it, || server.handle(&req));
        let Ok(resp) = resp else {
            failures.push(format!("r{it}: handle reported a crash"));
            continue;
        };
        let rendered = spans.time("serve.render", it, || resp.to_json().render());
        let hit = wire::scan(&rendered).cache == Some("hit");
        if !found || !hit || resp.config_tag.is_none() {
            failures.push(format!("r{it}: not served from the store"));
        }
        black_box(rendered);
    }
    Ok(())
}

fn layer_metrics(spans: &Spans, winners: &[(Family, Replayed)]) -> Metrics {
    let median = |name: &str, scale: f64| {
        Samples::new(spans.durations_ms(name))
            .median()
            .unwrap_or(0.0)
            * scale
    };
    let facade = spans.total_ms("augem.generate_degradable");
    let replayed = spans.total_ms("tune.sweep");
    let sim_ms = spans.self_ms("sim.simulate_timing");
    let dyn_insts: u64 = winners.iter().map(|(_, r)| r.dyn_insts).sum();
    let mut m = Metrics::default();
    m.set("serve.parse_us", median("serve.parse_request", 1e3));
    m.set("serve.store_get_us", median("serve.store_get", 1e3));
    m.set("serve.handle_us", median("serve.handle", 1e3));
    m.set("serve.render_us", median("serve.render", 1e3));
    m.set("serve.store_open_ms", median("serve.store_open", 1.0));
    m.set("serve.store_commit_ms", median("serve.store_commit", 1.0));
    m.set("augem.degradable_ms", facade);
    m.set(
        "augem.unattributed_frac",
        ((facade - replayed) / facade).abs(),
    );
    m.set("tune.sweep_self_ms", spans.self_ms("tune.sweep"));
    m.set(
        "transforms.cgen_ms",
        spans.self_ms("transforms.generate_optimized_logged"),
    );
    m.set("templates.identify_ms", spans.self_ms("templates.identify"));
    m.set("opt.akg_ms", spans.self_ms("opt.generate_with_log"));
    m.set(
        "opt.winner_insts",
        winners.iter().map(|(_, r)| r.insts).sum::<u64>() as f64,
    );
    m.set("sim.sim_ms", sim_ms);
    m.set("sim.dyn_insts", dyn_insts as f64);
    m.set("sim.msteps_per_s", dyn_insts as f64 / (sim_ms * 1e3));
    m.set("verify.check_ms", spans.self_ms("verify.check"));
    m.set("verify.equiv_ms", spans.self_ms("verify.check_equivalence"));
    m.set("cost.analyze_ms", spans.self_ms("cost.analyze"));
    m.set("depan.check_ms", spans.self_ms("depan.check_transforms"));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_totals_conserve() {
        let mut spans = Spans::default();
        let root = spans.open("root", 0);
        spans.time("child", 0, || std::thread::sleep(Duration::from_millis(5)));
        spans.time("child", 0, || std::thread::sleep(Duration::from_millis(5)));
        std::thread::sleep(Duration::from_millis(2));
        spans.close(root);
        let total = spans.total_ms("root");
        let parts = spans.self_ms("root") + spans.self_ms("child");
        assert!((total - parts).abs() < 1e-9, "{total} vs {parts}");
        assert!(spans.self_ms("child") >= 10.0);
        assert!(spans.self_ms("root") >= 2.0);
        let trace = spans.chrome();
        assert_eq!(
            trace
                .get("traceEvents")
                .and_then(Json::as_arr)
                .map(|e| e.len()),
            Some(3)
        );
    }

    #[test]
    fn replay_matches_the_facade_bit_for_bit() {
        let family = Family {
            kernel: augem::DlaKernel::Gemm,
            machine: crate::family::Machine::SandyBridge,
        };
        let mut spans = Spans::default();
        let r = replay_family(&mut spans, 0, family).expect("replay agrees with the facade");
        assert!(r.mflops > 0.0 && r.insts > 0 && r.dyn_insts > 0);
        let facade = spans.total_ms("augem.generate_degradable");
        let replay = spans.total_ms("tune.sweep");
        assert!(facade > 0.0 && replay > 0.0);
    }
}
