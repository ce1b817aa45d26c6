//! The four timed workloads. Each drives real `augem-serve` processes
//! over their stdin/stdout protocol and fills a [`Record`] with raw
//! samples and counts; `metrics` turns a record into metrics.
//!
//! - `cold-gemm` / `cold-vector`: a closed loop with one client. Each
//!   round starts a daemon on an empty store and asks for every family of
//!   the workload once, in seeded order. GEMM sweeps are codegen-heavy;
//!   vector sweeps spend nearly all their time in the simulator.
//! - `warm`: an open loop of store hits at a fixed Poisson rate, then a
//!   closed loop that keeps the same daemon saturated. No tuning
//!   happens, so only the serve path is measured.
//! - `mixed`: the same hits at a lower rate while pairs of identical cold
//!   tunes arrive beside them, so store commits and tunes compete with
//!   hits for the two workers.

use crate::daemon::Daemon;
use crate::family::{Family, Rng};
use crate::gate::Gate;
use crate::openloop::{self, Outcome};
use crate::stats::Samples;
use crate::wire::{self, Op, Reply, STEP_BUDGET};
use augem::obs::Json;
use augem::resil::Injector;
use augem_serve::{store_key, KernelStore, StoredKernel};
use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Step budgets each winner is stored under in the warm store.
pub const BUDGETS: u64 = 64;
/// Budgets of `mixed` misses count down from here, below every stored one.
const MISS_BUDGET: u64 = 1 << 25;
/// Share of hits that ask for the assembly (`generate`) instead of the
/// measurement alone (`tune`).
const GENERATE_SHARE: f64 = 0.25;
/// `warm` requests per second in its fixed-rate segments.
const WARM_RATE: f64 = 4000.0;
/// `mixed` hits per second.
const MIXED_RATE: f64 = 1000.0;
/// How long a segment waits for its last answers (a `mixed` miss can
/// take a second).
const DRAIN: Duration = Duration::from_secs(60);
/// Latency limits, in ms.
const LIMIT_COLD_GEMM_MS: f64 = 250.0;
const LIMIT_COLD_VECTOR_MS: f64 = 1000.0;
const LIMIT_WARM_HIT_MS: f64 = 5.0;
const LIMIT_MIXED_HIT_MS: f64 = 10.0;
const LIMIT_MIXED_MISS_MS: f64 = 2000.0;
/// Length of each timed phase under `--quick`, in seconds.
const QUICK_SPAN_S: f64 = 0.3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdGemm,
    ColdVector,
    Warm,
    Mixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdGemm,
        Workload::ColdVector,
        Workload::Warm,
        Workload::Mixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdGemm => "cold-gemm",
            Workload::ColdVector => "cold-vector",
            Workload::Warm => "warm",
            Workload::Mixed => "mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The families the workload tunes, and the traced run replays.
    pub fn families(self) -> Vec<Family> {
        match self {
            Workload::ColdGemm => Family::gemm(),
            Workload::ColdVector => Family::vector(),
            Workload::Warm | Workload::Mixed => Family::all(),
        }
    }
}

/// Where a run works and how long it measures.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `augem-serve` executable.
    pub serve_bin: PathBuf,
    /// Scratch directory for kernel stores; removed by the caller.
    pub work: PathBuf,
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Minimal run: one round, or a fraction of a second per phase.
    pub quick: bool,
}

/// What a request is, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// A cold-workload tune: the primary request, and a miss.
    Cold,
    /// A store hit: the primary request of `warm` and `mixed`.
    Hit,
    /// A `mixed` miss.
    Miss,
}

/// One request of an open-loop schedule.
#[derive(Debug, Clone)]
struct Planned {
    due: Duration,
    family: Family,
    budget: u64,
    op: Op,
    class: Class,
    limit_ms: f64,
    /// Outside the discarded warm-up.
    measured: bool,
}

/// Raw samples and counts of one timed run.
#[derive(Debug, Default)]
pub struct Record {
    /// Seconds from daemon spawn to its first `stats` response, over
    /// repeated starts on the store the workload starts from.
    pub setup_s: Vec<f64>,
    /// Latency of the primary requests (cold tunes, or store hits), per
    /// family name.
    pub latency_ms: BTreeMap<String, Vec<f64>>,
    /// Latency of requests the store could not answer.
    pub miss_latency_ms: Vec<f64>,
    /// Latency of one-at-a-time cold tunes per family name.
    pub tune_ms: BTreeMap<String, Vec<f64>>,
    /// Latency minus the daemon's own `work_ns`.
    pub queue_wait_ms: Vec<f64>,
    /// `work_ns` of the primary requests, in µs.
    pub service_us: Vec<f64>,
    /// Open-loop generator lag of measured requests.
    pub lag_ms: Vec<f64>,
    /// Kernel requests sent that had to be answered.
    pub attempted: u64,
    /// Measured requests, and those answered within their limit.
    pub measured: u64,
    pub within_limit: u64,
    pub replies: u64,
    pub degraded: u64,
    pub hits: u64,
    pub misses: u64,
    /// Distinct store keys that missed, per daemon.
    pub miss_keys: u64,
    /// Sums over the tuner reports embedded in miss responses.
    pub candidates: u64,
    pub candidate_failures: u64,
    pub tune_reports: u64,
    pub peak_rss_mb: f64,
    /// Workload-specific rate; see `metrics`.
    pub throughput_rps: f64,
    pub segments: u64,
    pub valid_segments: u64,
    pub gate: Gate,
}

impl Record {
    /// Checks one kernel response and counts what kind it was; returns
    /// whether it passed the gate.
    fn answer(&mut self, family: Family, class: Class, reply: &Reply, line: &str) -> bool {
        self.replies += 1;
        let ok = self.gate.check(family, reply, line);
        if reply.status == "degraded" {
            self.degraded += 1;
        }
        match reply.cache {
            Some("hit") => self.hits += 1,
            Some("miss") => {
                self.misses += 1;
                self.note_tuner(line);
            }
            _ => {}
        }
        let expect = if class == Class::Hit { "hit" } else { "miss" };
        if ok && reply.cache != Some(expect) {
            self.gate.fail(format!(
                "{} r{}: cache {:?}, expected {expect}",
                family.name(),
                reply.id.unwrap_or(u64::MAX),
                reply.cache
            ));
            return false;
        }
        ok
    }

    fn note_tuner(&mut self, line: &str) {
        let doc = Json::parse(line).ok();
        let Some(tuner) = doc.as_ref().and_then(|d| d.get("report")?.get("tuner")) else {
            return;
        };
        self.tune_reports += 1;
        self.candidates += tuner.get("generated").and_then(Json::as_u64).unwrap_or(0);
        self.candidate_failures += tuner
            .get("failures")
            .and_then(Json::as_arr)
            .map_or(0, |f| f.len() as u64);
    }

    /// Records one measured request: `latency_ms` is `None` when it
    /// failed or got no answer, which misses any limit.
    fn time(
        &mut self,
        family: Family,
        class: Class,
        latency_ms: Option<f64>,
        work_ns: Option<u64>,
        limit_ms: f64,
    ) {
        self.measured += 1;
        let Some(ms) = latency_ms else {
            return;
        };
        if ms <= limit_ms {
            self.within_limit += 1;
        }
        if class != Class::Miss {
            self.latency_ms.entry(family.name()).or_default().push(ms);
        }
        if class != Class::Hit {
            self.miss_latency_ms.push(ms);
        }
        if let Some(ns) = work_ns {
            self.queue_wait_ms.push(ms - ns as f64 / 1e6);
            if class != Class::Miss {
                self.service_us.push(ns as f64 / 1e3);
            }
        }
    }
}

/// Runs `workload` once and returns its record (the gate's per-winner
/// checks are left to the caller).
pub fn run(workload: Workload, env: &Env) -> io::Result<Record> {
    std::fs::create_dir_all(&env.work)?;
    let mut rec = Record::default();
    match workload {
        Workload::ColdGemm => cold(env, Family::gemm(), LIMIT_COLD_GEMM_MS, &mut rec)?,
        Workload::ColdVector => cold(env, Family::vector(), LIMIT_COLD_VECTOR_MS, &mut rec)?,
        Workload::Warm => warm(env, &mut rec)?,
        Workload::Mixed => mixed(env, &mut rec)?,
    }
    Ok(rec)
}

/// Daemon starts timed for `setup_s` per batch. Batches are spread over
/// the run (one every [`PROBE_EVERY`] in the cold workloads, one before
/// each segment otherwise), so the median covers the machine's fast and
/// slow spells instead of landing wholly in one.
const SETUP_PROBES: usize = 15;
const PROBE_EVERY: Duration = Duration::from_secs(8);

/// Times [`SETUP_PROBES`] daemon starts, each from spawn to the first
/// `stats` response: on a fresh empty store each, or (with `store`) on
/// one copy of it, which a daemon that only answers `stats` leaves as
/// it found it.
fn probe_setup(env: &Env, store: Option<&Path>, rec: &mut Record) -> io::Result<()> {
    let dir = env.work.join("setup-store");
    if let Some(store) = store {
        copy_store(store, &dir)?;
    }
    for _ in 0..SETUP_PROBES {
        if store.is_none() && dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        let (daemon, setup) = Daemon::start(&env.serve_bin, &dir)?;
        daemon.shutdown()?;
        rec.setup_s.push(setup);
    }
    std::fs::remove_dir_all(&dir)
}

/// Closed loop, one client: rounds of (fresh daemon on an empty store,
/// `stats`, one `generate` per family in seeded order, `shutdown`) until
/// the measurement time is used up. The throughput is the 90th
/// percentile of the rounds' kernels per second (a round includes the
/// daemon's start and shutdown).
fn cold(env: &Env, families: Vec<Family>, limit_ms: f64, rec: &mut Record) -> io::Result<()> {
    let mut order_rng = Rng::new(env.seed, 1);
    let start = Instant::now();
    let mut round_rps = Vec::new();
    let mut probed: Option<Instant> = None;
    for round in 0.. {
        if probed.is_none_or(|t| t.elapsed() >= PROBE_EVERY) {
            probe_setup(env, None, rec)?;
            probed = Some(Instant::now());
        }
        let dir = env.work.join(format!("cold-{round}"));
        let round_start = Instant::now();
        let (mut daemon, _) = Daemon::start(&env.serve_bin, &dir)?;
        let mut kernels = 0;
        let mut order = families.clone();
        order_rng.shuffle(&mut order);
        for (i, &family) in order.iter().enumerate() {
            let id = i as u64;
            rec.attempted += 1;
            rec.miss_keys += 1;
            let (line, elapsed) = daemon.call(&wire::request(id, Op::Generate, family, None))?;
            let reply = wire::scan(&line);
            let ms = elapsed.as_secs_f64() * 1e3;
            let ok = if reply.id == Some(id) {
                rec.answer(family, Class::Cold, &reply, &line)
            } else {
                rec.gate
                    .fail(format!("cold r{id}: answered {:?}", reply.id));
                false
            };
            if ok {
                kernels += 1;
                rec.tune_ms.entry(family.name()).or_default().push(ms);
            }
            rec.time(
                family,
                Class::Cold,
                ok.then_some(ms),
                reply.work_ns,
                limit_ms,
            );
        }
        rec.peak_rss_mb = rec.peak_rss_mb.max(daemon.peak_rss_mb()?);
        daemon.shutdown()?;
        round_rps.push(kernels as f64 / round_start.elapsed().as_secs_f64());
        std::fs::remove_dir_all(&dir)?;
        if env.quick || start.elapsed().as_secs_f64() >= env.seconds {
            break;
        }
    }
    rec.throughput_rps = Samples::new(round_rps).quantile(0.9).unwrap_or(0.0);
    Ok(())
}

/// A kernel-store failure as an I/O error of the benchmark.
pub(crate) fn store_error(e: augem_serve::StoreError) -> io::Error {
    io::Error::other(e.to_string())
}

/// Untimed set-up of `warm` and `mixed`: tunes all twelve families once
/// through a daemon (one request at a time, seeded order), then copies
/// each winner under [`BUDGETS`] step budgets with the public
/// `KernelStore::commit`. Returns the 768-entry store and the latency of
/// each set-up tune.
fn warm_store(env: &Env, rec: &mut Record) -> io::Result<(PathBuf, Vec<f64>)> {
    let base = env.work.join("store-768");
    let (mut daemon, _) = Daemon::start(&env.serve_bin, &base)?;
    let mut order = Family::all();
    Rng::new(env.seed, 2).shuffle(&mut order);
    let mut tunes = Vec::new();
    for (i, &family) in order.iter().enumerate() {
        rec.attempted += 1;
        rec.miss_keys += 1;
        let (line, elapsed) = daemon.call(&wire::request(i as u64, Op::Generate, family, None))?;
        let ms = elapsed.as_secs_f64() * 1e3;
        if rec.answer(family, Class::Cold, &wire::scan(&line), &line) {
            rec.tune_ms.entry(family.name()).or_default().push(ms);
            tunes.push(ms);
        }
    }
    // Not a measured daemon: its memory is the cold workloads' concern.
    daemon.shutdown()?;

    let mut store = KernelStore::open(&base, augem::obs::null()).map_err(store_error)?;
    for family in Family::all() {
        let missing = || io::Error::other(format!("no assembly served for {}", family.name()));
        let w = rec.gate.winner(family).ok_or_else(missing)?;
        let asm = w.asm.clone().ok_or_else(missing)?;
        let mflops: f64 = w
            .mflops
            .parse()
            .map_err(|_| io::Error::other(format!("bad mflops {:?}", w.mflops)))?;
        let spec = family.machine.spec();
        for j in 1..BUDGETS {
            let entry = StoredKernel {
                key: store_key(family.kernel.name(), &spec, Some(STEP_BUDGET - j)),
                kernel: family.kernel.name().to_string(),
                machine: spec.fingerprint_tag(),
                config_tag: w.config.clone(),
                mflops,
                asm: asm.clone(),
            };
            store
                .commit(entry, &Injector::disabled(), augem::obs::null())
                .map_err(store_error)?;
        }
    }
    let want = Family::all().len() * BUDGETS as usize;
    if store.len() != want {
        return Err(io::Error::other(format!(
            "warm store holds {} entries, expected {want}",
            store.len()
        )));
    }
    Ok((base, tunes))
}

/// Copies a store directory (journal and entries) for a fresh daemon.
fn copy_store(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to.join("entries"))?;
    std::fs::copy(from.join("journal.jsonl"), to.join("journal.jsonl"))?;
    for entry in std::fs::read_dir(from.join("entries"))? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join("entries").join(entry.file_name()))?;
    }
    Ok(())
}

/// Store hits at `rate` per second over `span`: Poisson arrivals, each
/// drawing one of the warm store's keys uniformly and `generate` one
/// time in four. Requests due before `warmup` are not measured.
fn hits(
    arrivals: &mut Rng,
    draws: &mut Rng,
    rate: f64,
    span: Duration,
    warmup: Duration,
    limit_ms: f64,
) -> Vec<Planned> {
    let families = Family::all();
    openloop::poisson(arrivals, rate, span)
        .into_iter()
        .map(|due| {
            let (family, budget, op) = draw_hit(draws, &families);
            Planned {
                due,
                family,
                budget,
                op,
                class: Class::Hit,
                limit_ms,
                measured: due >= warmup,
            }
        })
        .collect()
}

/// One warm-store key, uniformly, and `generate` one time in four.
fn draw_hit(draws: &mut Rng, families: &[Family]) -> (Family, u64, Op) {
    let key = draws.below(families.len() * BUDGETS as usize);
    let op = if draws.unit() < GENERATE_SHARE {
        Op::Generate
    } else {
        Op::Tune
    };
    let budget = STEP_BUDGET - (key / families.len()) as u64;
    (families[key % families.len()], budget, op)
}

/// One open-loop segment's answers, per planned request, and the
/// daemon's saturation throughput per slice when it was measured.
struct Segment {
    latency_ms: Vec<Option<f64>>,
    work_ns: Vec<Option<u64>>,
    outcome: Outcome,
    saturation_rps: Vec<f64>,
}

/// Times a batch of daemon starts on `store`, runs `plan` against a
/// fresh daemon on a copy of it, then, with `saturate`, keeps the same
/// daemon saturated for that long.
fn segment(
    env: &Env,
    rec: &mut Record,
    store: &Path,
    name: &str,
    plan: &[Planned],
    drain_timeout: Duration,
    saturate: Option<(Duration, &mut Rng)>,
) -> io::Result<Segment> {
    probe_setup(env, Some(store), rec)?;
    let dir = env.work.join(name);
    copy_store(store, &dir)?;
    let (mut daemon, _) = Daemon::start(&env.serve_bin, &dir)?;
    let lines: Vec<String> = plan
        .iter()
        .enumerate()
        .map(|(i, p)| wire::request(i as u64, p.op, p.family, Some(p.budget)))
        .collect();
    let due: Vec<Duration> = plan.iter().map(|p| p.due).collect();
    let mut answered = vec![false; plan.len()];
    let mut latency_ms = vec![None; plan.len()];
    let mut work_ns = vec![None; plan.len()];
    let start = Instant::now() + Duration::from_millis(20);
    let (stdin, stdout, child) = daemon.parts();
    let kill = move || {
        let _ = child.kill();
    };
    let on_reply = |line: &str, at: Duration| {
        let reply = wire::scan(line);
        let Some(i) = reply.id.map(|i| i as usize).filter(|&i| i < plan.len()) else {
            rec.gate
                .fail(format!("{name}: unexpected response {line:.100}"));
            return;
        };
        if std::mem::replace(&mut answered[i], true) {
            rec.gate.fail(format!("{name}: second response to r{i}"));
            return;
        }
        let p = &plan[i];
        if rec.answer(p.family, p.class, &reply, line) {
            latency_ms[i] = Some(at.saturating_sub(p.due).as_secs_f64() * 1e3);
            work_ns[i] = reply.work_ns;
        }
    };
    let outcome = openloop::drive(
        start,
        &due,
        &lines,
        stdin,
        stdout,
        drain_timeout,
        kill,
        on_reply,
    )?;
    rec.attempted += plan.len() as u64;
    for (i, _) in answered.iter().enumerate().filter(|(_, a)| !**a) {
        rec.gate.fail(format!("{name}: no response to r{i}"));
    }
    let saturation_rps = match saturate {
        Some((span, draws)) if !outcome.gave_up => {
            saturation(&mut daemon, rec, draws, span, plan.len() as u64)?
        }
        _ => Vec::new(),
    };
    if outcome.gave_up {
        drop(daemon);
    } else {
        rec.peak_rss_mb = rec.peak_rss_mb.max(daemon.peak_rss_mb()?);
        daemon.shutdown()?;
    }
    std::fs::remove_dir_all(&dir)?;
    Ok(Segment {
        latency_ms,
        work_ns,
        outcome,
        saturation_rps,
    })
}

/// Requests kept in flight while measuring saturation throughput.
const WINDOW: usize = 64;
/// Saturation throughput is counted in slices this long.
const SLICE: Duration = Duration::from_millis(100);

/// A closed loop with [`WINDOW`] hits in flight for `span`: the
/// completions per second of each [`SLICE`] after the first eighth of
/// `span` (the daemon's saturation throughput, slice by slice). Request
/// ids start at `first_id`.
fn saturation(
    daemon: &mut Daemon,
    rec: &mut Record,
    draws: &mut Rng,
    span: Duration,
    first_id: u64,
) -> io::Result<Vec<f64>> {
    let families = Family::all();
    let (stdin, stdout, _) = daemon.parts();
    let mut out = io::BufWriter::new(stdin);
    let mut sent: Vec<Family> = Vec::new();
    let mut send = |out: &mut io::BufWriter<_>, sent: &mut Vec<Family>| {
        let (family, budget, op) = draw_hit(draws, &families);
        let id = first_id + sent.len() as u64;
        sent.push(family);
        out.write_all(wire::request(id, op, family, Some(budget)).as_bytes())
    };
    for _ in 0..WINDOW {
        send(&mut out, &mut sent)?;
    }
    out.flush()?;
    let start = Instant::now();
    let (from, until) = (start + span / 8, start + span);
    let mut answered = vec![false; WINDOW];
    let mut in_flight = WINDOW;
    let count = ((until - from).as_secs_f64() / SLICE.as_secs_f64()) as usize;
    let mut slices = vec![0u64; count.max(1)];
    let mut line = String::new();
    while in_flight > 0 {
        line.clear();
        if stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::other("daemon closed its output while saturated"));
        }
        let now = Instant::now();
        in_flight -= 1;
        let reply = wire::scan(line.trim_end());
        let slot = reply
            .id
            .and_then(|id| id.checked_sub(first_id))
            .map(|i| i as usize)
            .filter(|&i| i < sent.len() && !answered[i]);
        match slot {
            Some(i) => {
                answered[i] = true;
                rec.answer(sent[i], Class::Hit, &reply, line.trim_end());
            }
            None => rec
                .gate
                .fail(format!("saturation: unexpected response {line:.100}")),
        }
        if let Some(slice) = now
            .checked_duration_since(from)
            .and_then(|t| slices.get_mut((t.as_secs_f64() / SLICE.as_secs_f64()) as usize))
        {
            *slice += 1;
        }
        if now < until {
            send(&mut out, &mut sent)?;
            answered.push(false);
            in_flight += 1;
        }
        if stdout.buffer().is_empty() {
            out.flush()?;
        }
    }
    out.flush()?;
    rec.attempted += sent.len() as u64;
    Ok(slices
        .into_iter()
        .map(|n| n as f64 / SLICE.as_secs_f64())
        .collect())
}

/// Folds fixed-rate segments into the record. With `drop_late`, a
/// segment whose generator lag p99 exceeds [`openloop::MAX_LAG_MS`] did
/// not offer its load and is left out, unless no segment kept to schedule
/// (then all are kept and `valid_segments` reads 0).
fn merge_segments(rec: &mut Record, segments: &[(Vec<Planned>, Segment)], drop_late: bool) {
    let lag_valid = |(plan, seg): &(Vec<Planned>, Segment)| {
        let lags = plan
            .iter()
            .zip(&seg.outcome.lag_ms)
            .filter(|(p, _)| p.measured)
            .map(|(_, l)| *l)
            .collect();
        openloop::on_schedule(lags)
    };
    let valid: Vec<bool> = segments.iter().map(lag_valid).collect();
    rec.segments += segments.len() as u64;
    rec.valid_segments += valid.iter().filter(|v| **v).count() as u64;
    let none_valid = !valid.iter().any(|v| *v);
    if drop_late && none_valid {
        eprintln!("augem-bench: no segment kept to its schedule; reporting all of them");
    }
    let keep_all = !drop_late || none_valid;
    for ((plan, seg), ok) in segments.iter().zip(valid) {
        if !(ok || keep_all) {
            continue;
        }
        for (i, p) in plan.iter().enumerate().filter(|(_, p)| p.measured) {
            rec.lag_ms.push(seg.outcome.lag_ms[i]);
            rec.time(
                p.family,
                p.class,
                seg.latency_ms[i],
                seg.work_ns[i],
                p.limit_ms,
            );
        }
    }
}

/// Each `warm` segment is a fixed-rate open loop (its first sixteenth a
/// discarded warm-up) followed by a saturation phase on the same daemon:
/// (warm-up, measured, saturation) lengths. The throughput is the 90th
/// percentile of the saturation slices.
fn warm_phases(env: &Env) -> (Duration, Duration, Duration) {
    let segment = if env.quick {
        QUICK_SPAN_S
    } else {
        env.seconds / 3.0
    };
    let secs = Duration::from_secs_f64;
    (
        secs(segment / 16.0),
        secs(segment / 2.0),
        secs(segment * 7.0 / 16.0),
    )
}

fn warm(env: &Env, rec: &mut Record) -> io::Result<()> {
    let (store, set_up_tunes) = warm_store(env, rec)?;
    // The warm workload's only misses are its set-up tunes.
    rec.miss_latency_ms.extend(set_up_tunes);
    let (warmup, measure, saturate) = warm_phases(env);
    let mut segments = Vec::new();
    let mut saturation = Vec::new();
    for s in 0..3 {
        let plan = hits(
            &mut Rng::new(env.seed, 10 + s),
            &mut Rng::new(env.seed, 20 + s),
            WARM_RATE,
            warmup + measure,
            warmup,
            LIMIT_WARM_HIT_MS,
        );
        let mut draws = Rng::new(env.seed, 30 + s);
        let name = format!("warm-{s}");
        let seg = segment(
            env,
            rec,
            &store,
            &name,
            &plan,
            DRAIN,
            Some((saturate, &mut draws)),
        )?;
        saturation.extend_from_slice(&seg.saturation_rps);
        segments.push((plan, seg));
    }
    merge_segments(rec, &segments, true);
    rec.throughput_rps = Samples::new(saturation).quantile(0.9).unwrap_or(0.0);
    Ok(())
}

fn mixed(env: &Env, rec: &mut Record) -> io::Result<()> {
    let (store, _) = warm_store(env, rec)?;
    let span = if env.quick {
        QUICK_SPAN_S
    } else {
        env.seconds / 3.0
    };
    // Each family misses equally often (twelve pairs per ~18 s), so every
    // seed draws the same mix of cold tunes, in its own order.
    let pairs = if env.quick {
        3
    } else {
        12 * ((env.seconds / 18.0).round() as usize).max(1)
    };
    let all = Family::all();
    let mut miss_families: Vec<Family> = (0..pairs).map(|k| all[k % all.len()]).collect();
    Rng::new(env.seed, 5).shuffle(&mut miss_families);
    let per_segment = pairs / 3;
    let mut segments = Vec::new();
    for s in 0..3 {
        let mut plan = hits(
            &mut Rng::new(env.seed, 50 + s as u64),
            &mut Rng::new(env.seed, 60 + s as u64),
            MIXED_RATE,
            Duration::from_secs_f64(span),
            Duration::ZERO,
            LIMIT_MIXED_HIT_MS,
        );
        for m in 0..per_segment {
            let k = s * per_segment + m;
            let at = Duration::from_secs_f64((m as f64 + 0.5) * span / per_segment as f64);
            // Two identical requests 1 ms apart for a key the store lacks.
            for gap in [Duration::ZERO, Duration::from_millis(1)] {
                plan.push(Planned {
                    due: at + gap,
                    family: miss_families[k],
                    budget: MISS_BUDGET - k as u64,
                    op: Op::Tune,
                    class: Class::Miss,
                    limit_ms: LIMIT_MIXED_MISS_MS,
                    measured: true,
                });
            }
        }
        plan.sort_by_key(|p| p.due);
        rec.miss_keys += per_segment as u64;
        let seg = segment(env, rec, &store, &format!("mixed-{s}"), &plan, DRAIN, None)?;
        segments.push((plan, seg));
    }
    // Tunes saturate both cores, so the generator runs late by design;
    // timing from due time charges that lateness to the requests.
    let within_before = rec.within_limit;
    merge_segments(rec, &segments, false);
    let total = segments.len() as f64 * span;
    rec.throughput_rps = (rec.within_limit - within_before) as f64 / total;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_round_trip_their_names() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hot"), None);
    }

    #[test]
    fn hit_plans_cover_the_warm_store_keys_only() {
        let plan = hits(
            &mut Rng::new(1, 0),
            &mut Rng::new(1, 1),
            4000.0,
            Duration::from_secs(1),
            Duration::from_millis(100),
            5.0,
        );
        assert!(plan.iter().all(|p| p.budget > STEP_BUDGET - BUDGETS));
        assert!(plan.iter().all(|p| p.class == Class::Hit));
        let generate = plan.iter().filter(|p| p.op == Op::Generate).count() as f64;
        assert!((generate / plan.len() as f64 - GENERATE_SHARE).abs() < 0.05);
        assert!(plan.iter().any(|p| !p.measured) && plan.iter().any(|p| p.measured));
    }

    #[test]
    fn warm_phases_fill_the_measurement_time() {
        let env = Env {
            serve_bin: PathBuf::new(),
            work: PathBuf::new(),
            seed: 1,
            seconds: 25.5,
            quick: false,
        };
        let (warmup, measured, saturation) = warm_phases(&env);
        let total = 3.0 * (warmup + measured + saturation).as_secs_f64();
        assert!((total - 25.5).abs() < 1e-6, "{total}");
    }
}
