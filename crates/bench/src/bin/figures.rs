//! Regenerates the paper's figures and tables, and writes the
//! `BENCH_*.json` reports whose gates CI enforces.
//!
//! ```text
//! cargo run --release -p augem-bench --bin figures -- all
//! cargo run --release -p augem-bench --bin figures -- fig18 fig19
//! cargo run --release -p augem-bench --bin figures -- table6 ablations
//! cargo run --release -p augem-bench --bin figures -- asm      # dump tuned kernels
//! cargo run --release -p augem-bench --bin figures -- verify   # BENCH_verify.json
//! cargo run --release -p augem-bench --bin figures -- tune     # BENCH_tune.json
//! cargo run --release -p augem-bench --bin figures -- prof     # BENCH_prof.json
//! cargo run --release -p augem-bench --bin figures -- cost     # BENCH_cost.json
//! cargo run --release -p augem-bench --bin figures -- depan    # BENCH_depan.json
//! ```
//!
//! With no argument it prints the figures, Table 6 and the ablations;
//! `all` runs every report first, and `asm` runs only when named. An
//! unknown subcommand exits 2.

use augem::obs::Json;
use augem::resil::{write_atomic, Injector};
use augem::{Augem, RunOptions, Target, Verify};
use augem_asm::AsmKernel;
use augem_bench::{
    ablations, format_figure, phase_share, sample, Models, Series, Spread, PHASE_BOUND,
};
use augem_kernels::DlaKernel;
use augem_machine::{IsaFeature, MachineSpec};
use augem_sim::{FuncSim, SimError, SimValue};
use augem_tune::{
    build_logged, gemm_candidates, sweep, vector_candidates, Candidate, EvalCache, GemmConfig,
    LoggedBuild, ResilOptions, TuneResult, VectorConfig, VectorKernel,
};
use std::cell::OnceCell;
use std::time::Instant;

/// Timed runs of each engine per kernel in `figures tune`.
const ENGINE_RUNS: usize = 400;
/// Timed replay pairs per kernel in `figures prof`.
const REPLAY_RUNS: usize = 200;
/// Repetitions of each family's sweep pair in `figures cost` and
/// `figures depan`: a sweep pair takes seconds, not microseconds.
const SWEEP_REPS: usize = 3;

/// Seconds one call of `f` takes, or its error. The result is dropped
/// outside the timed window.
fn secs<T, E>(f: impl FnOnce() -> Result<T, E>) -> Result<f64, E> {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    let s = t0.elapsed().as_secs_f64();
    out.map(|_| s)
}

/// Writes `BENCH_<name>.json` (schema `augem.bench-<name>/v1`, then
/// `fields`) and reports each gate that failed. Returns `false` — the CI
/// gate — when the file cannot be written or any gate failed.
fn write_bench(name: &str, fields: Vec<(&str, Json)>, gates: &[(bool, &str)]) -> bool {
    let path = format!("BENCH_{name}.json");
    let schema = Json::str(format!("augem.bench-{name}/v1"));
    let doc = Json::obj([("schema", schema)].into_iter().chain(fields).collect());
    let mut ok = match write_atomic(&path, doc.render_pretty() + "\n") {
        Ok(()) => {
            println!("wrote {path}");
            true
        }
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            false
        }
    };
    for (pass, why) in gates {
        if !pass {
            eprintln!("{name} bench FAILED: {why}");
            ok = false;
        }
    }
    ok
}

/// The vector configuration the reports measure for `kernel`: two SIMD
/// registers' worth of unrolling, default prefetch, scheduled.
fn vector_config(kernel: VectorKernel, machine: &MachineSpec) -> VectorConfig {
    VectorConfig {
        kernel,
        unroll: 2 * machine.simd_mode().f64_lanes(),
        prefetch: augem::transforms::PrefetchConfig::default(),
        schedule: true,
    }
}

/// Runs both verifier stages — the structural checks and the
/// translation validator — over a representative configuration per
/// kernel × platform, and writes per-kernel wall times and finding
/// counts to `BENCH_verify.json` (`augem.bench-verify/v1`). No gate.
fn emit_verify_report(platforms: &[MachineSpec]) -> bool {
    let mut entries = Vec::new();
    for machine in platforms {
        let mut configs: Vec<Box<dyn Candidate>> = vec![Box::new(GemmConfig::fig13())];
        for kernel in [
            VectorKernel::Gemv,
            VectorKernel::Ger,
            VectorKernel::Axpy,
            VectorKernel::Dot,
            VectorKernel::Scal,
        ] {
            configs.push(Box::new(vector_config(kernel, machine)));
        }
        for cfg in &configs {
            match build_logged(&**cfg, machine) {
                Ok(build) => entries.push(verify_entry(&**cfg, machine, &build)),
                Err(e) => eprintln!("verify bench: {} build failed: {e}", cfg.kernel().name()),
            }
        }
    }
    write_bench("verify", vec![("kernels", Json::Arr(entries))], &[])
}

fn verify_entry(cfg: &dyn Candidate, machine: &MachineSpec, build: &LoggedBuild) -> Json {
    let kernel = cfg.kernel();
    let spec = &cfg.equiv_spec();
    let t0 = Instant::now();
    let structural = augem_verify::check(&build.kernel, &build.asm, &build.log);
    let check_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let equiv = augem_verify::check_equivalence(&build.source, &build.asm, machine.isa, spec);
    let equiv_ms = t1.elapsed().as_secs_f64() * 1e3;
    println!(
        "verify {:>6} on {:<12} {:7.2} ms structural, {:7.2} ms equivalence ({} finding(s))",
        kernel.name(),
        machine.arch.short_name(),
        check_ms,
        equiv_ms,
        structural.len() + equiv.len(),
    );
    Json::obj(vec![
        ("kernel", Json::str(kernel.name())),
        ("machine", Json::str(machine.arch.short_name())),
        ("config", Json::str(cfg.tag())),
        ("insts", Json::uint(build.asm.insts.len() as u64)),
        ("check_ms", Json::Num(check_ms)),
        ("equiv_ms", Json::Num(equiv_ms)),
        (
            "errors",
            Json::uint(structural.iter().filter(|d| d.is_error()).count() as u64),
        ),
        (
            "warnings",
            Json::uint(structural.iter().filter(|d| !d.is_error()).count() as u64),
        ),
        ("equiv_findings", Json::uint(equiv.len() as u64)),
    ])
}

/// Times one built kernel through the pre-decoded engine
/// ([`FuncSim::run_decoded`], decode done once up front — the engine's
/// designed amortization) against the legacy string-dispatch interpreter
/// ([`FuncSim::run_legacy`]), arguments cloned outside the timed window,
/// and times that one-time decode. Returns the JSON entry and whether the
/// decoded engine is at least as fast as the legacy one.
fn engine_entry(
    kernel: &str,
    machine: &MachineSpec,
    asm: &AsmKernel,
    args: &[SimValue],
) -> Result<(Json, bool), SimError> {
    let (_, trace) = FuncSim::new(machine.isa)
        .with_trace()
        .run(asm, args.to_vec())?;
    let steps = trace.len() as f64;
    let sim = FuncSim::new(machine.isa);
    let vex = machine.isa.has(IsaFeature::Avx);
    let prog = augem_sim::decode(asm, vex)?;
    let [decode, decoded, legacy] = sample(ENGINE_RUNS, || -> Result<_, SimError> {
        let (a, b) = (args.to_vec(), args.to_vec());
        Ok([
            secs(|| augem_sim::decode(asm, vex))?,
            secs(|| sim.run_decoded(&prog, asm, a))?,
            secs(|| sim.run_legacy(asm, b))?,
        ])
    })?;
    let decoded_sps = steps / decoded.min;
    let legacy_sps = steps / legacy.min;
    println!(
        "engine {:>6} on {:<12} {:>7.0} steps: decoded {:>6.1} Msteps/s, legacy {:>6.1} Msteps/s ({:.2}x), decode {:.2} us",
        kernel,
        machine.arch.short_name(),
        steps,
        decoded_sps / 1e6,
        legacy_sps / 1e6,
        decoded_sps / legacy_sps,
        decode.min * 1e6,
    );
    let entry = Json::obj(vec![
        ("kernel", Json::str(kernel)),
        ("machine", Json::str(machine.arch.short_name())),
        ("dyn_steps", Json::uint(steps as u64)),
        ("decode_us", Json::Num(decode.min * 1e6)),
        ("decoded_steps_per_sec", Json::Num(decoded_sps)),
        ("legacy_steps_per_sec", Json::Num(legacy_sps)),
        ("speedup", Json::Num(decoded_sps / legacy_sps)),
    ]);
    Ok((entry, decoded_sps >= legacy_sps))
}

/// One cached verified generation: sweep wall time, the evaluation
/// cache's per-stage (prefix, transform, build, eval) hit/miss counters
/// from the run report, and every stage span of that report
/// (`cgen`, `identify`, `akg`, `akg.sched`, `sim`, ...) with its
/// call count and summed milliseconds. The counts repeat exactly from
/// run to run; the times move with the host's load.
fn sweep_entry(machine: &MachineSpec, kernel: DlaKernel) -> Option<Json> {
    let driver = Augem::new(machine.clone());
    let t0 = Instant::now();
    let opts = RunOptions {
        verify: Verify::Equivalence,
        profile: true,
        ..RunOptions::plain()
    };
    let r = driver.run(Target::Tune(kernel), &opts, &Injector::disabled());
    let (Some(g), report) = (r.generated, r.report) else {
        eprintln!(
            "tune bench: verified generation failed for {} on {}: {}",
            kernel.name(),
            machine.arch.short_name(),
            r.cause.unwrap_or_default()
        );
        return None;
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let c = |name: &str| report.counters.get(name).copied().unwrap_or(0);
    let rate = |hits: u64, misses: u64| {
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    };
    let (ph, pm) = (c("cache.prefix.hit"), c("cache.prefix.miss"));
    let (th, tm) = (c("cache.transform.hit"), c("cache.transform.miss"));
    let (bh, bm) = (c("cache.build.hit"), c("cache.build.miss"));
    let (eh, em) = (c("cache.eval.hit"), c("cache.eval.miss"));
    println!(
        "sweep  {:>6} on {:<12} {:>8.0} ms: prefix cache {ph} hit / {pm} miss, transform cache {th} hit / {tm} miss, build cache {bh} hit / {bm} miss, eval cache {eh} hit / {em} miss",
        kernel.name(),
        machine.arch.short_name(),
        wall_ms,
    );
    Some(Json::obj(vec![
        ("kernel", Json::str(kernel.name())),
        ("machine", Json::str(machine.arch.short_name())),
        ("config", Json::str(g.config_tag.clone())),
        ("mflops", Json::Num(g.mflops)),
        ("wall_ms", Json::Num(wall_ms)),
        (
            "cache",
            Json::obj(vec![
                ("prefix_hits", Json::uint(ph)),
                ("prefix_misses", Json::uint(pm)),
                ("transform_hits", Json::uint(th)),
                ("transform_misses", Json::uint(tm)),
                ("build_hits", Json::uint(bh)),
                ("build_misses", Json::uint(bm)),
                ("build_hit_rate", Json::Num(rate(bh, bm))),
                ("eval_hits", Json::uint(eh)),
                ("eval_misses", Json::uint(em)),
                ("eval_hit_rate", Json::Num(rate(eh, em))),
            ]),
        ),
        (
            "stages",
            Json::Obj(
                report
                    .stages
                    .iter()
                    .map(|s| {
                        let entry = Json::obj(vec![
                            ("calls", Json::uint(s.calls)),
                            ("ms", Json::Num(s.wall_ns as f64 / 1e6)),
                        ]);
                        (s.name.clone(), entry)
                    })
                    .collect(),
            ),
        ),
    ]))
}

/// Benchmarks the tuning substrate itself and writes `BENCH_tune.json`
/// (`augem.bench-tune/v1`): pre-decoded vs legacy simulator throughput
/// and the one-time decode cost per kernel × platform, and cached
/// verified-generation sweeps with per-stage cache hit rates and stage
/// span counts and times. Returns `false` — the CI regression gate — if
/// the decoded engine is slower than the legacy interpreter anywhere.
fn emit_tune_report(platforms: &[MachineSpec]) -> bool {
    let mut engine = Vec::new();
    let mut ok = true;
    for machine in platforms {
        let fig13 = GemmConfig::fig13();
        // Cache-resident: the engine comparison should measure dispatch
        // throughput, not the host's DRAM bandwidth.
        let n = 2_048usize;
        let axpy_args = vec![
            SimValue::Int(n as i64),
            SimValue::F64(1.5),
            SimValue::Array(vec![0.5; n]),
            SimValue::Array(vec![1.0; n]),
        ];
        let problems: [(Box<dyn Candidate>, Vec<SimValue>); 2] = [
            (Box::new(fig13), fig13.eval_args().0),
            (
                Box::new(vector_config(VectorKernel::Axpy, machine)),
                axpy_args,
            ),
        ];
        for (cfg, args) in problems {
            let kernel = cfg.kernel().name();
            match build_logged(&*cfg, machine) {
                Ok(build) => match engine_entry(kernel, machine, &build.asm, &args) {
                    Ok((entry, faster)) => {
                        ok &= faster;
                        engine.push(entry);
                    }
                    Err(e) => eprintln!("tune bench: {kernel} functional run failed: {e}"),
                },
                Err(e) => eprintln!("tune bench: {kernel} build failed: {e}"),
            }
        }
    }

    let mut sweeps = Vec::new();
    for machine in platforms {
        for kernel in [DlaKernel::Gemm, DlaKernel::Axpy] {
            if let Some(entry) = sweep_entry(machine, kernel) {
                sweeps.push(entry);
            }
        }
    }

    write_bench(
        "tune",
        vec![("engine", Json::Arr(engine)), ("sweeps", Json::Arr(sweeps))],
        &[(ok, "decoded engine slower than the legacy interpreter")],
    )
}

/// Times the plain timing replay against the profiled replay on one
/// pre-built kernel trace, then rolls the profiled counters up into the
/// region summary that goes into the report entry. Returns the JSON
/// entry and whether the profiled replay costs at most 2x the plain one.
fn prof_entry(
    cfg: &dyn Candidate,
    machine: &MachineSpec,
    build: &LoggedBuild,
) -> Result<(Json, bool), SimError> {
    let (kernel, warm) = (cfg.kernel().name(), cfg.warm());
    let (_, trace) = FuncSim::new(machine.isa)
        .with_trace()
        .run(&build.asm, cfg.eval_args().0)?;
    let [plain, profiled] = sample(REPLAY_RUNS, || -> Result<_, SimError> {
        Ok([
            secs(|| Ok::<_, SimError>(augem_sim::replay(&build.asm, &trace, machine, warm)))?,
            secs(|| {
                Ok::<_, SimError>(augem_sim::replay_profiled(
                    &build.asm, &trace, machine, warm,
                ))
            })?,
        ])
    })?;
    let (plain_s, profiled_s) = (plain.min, profiled.min);
    let (report, pcs) = augem_sim::replay_profiled(&build.asm, &trace, machine, warm);
    let profile = augem_prof::Profile::build(&build.asm, machine, &report, &pcs, Some(&build.log));
    let overhead = profiled_s / plain_s;
    println!(
        "prof   {:>6} on {:<12} {:>8} cycles: plain {:>8.1} us, profiled {:>8.1} us ({:.2}x)",
        kernel,
        machine.arch.short_name(),
        report.cycles,
        plain_s * 1e6,
        profiled_s * 1e6,
        overhead,
    );
    let regions: Vec<Json> = profile
        .regions
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("name", Json::str(r.name.clone())),
                ("cycles", Json::uint(r.cycles)),
                ("pct", Json::Num(r.pct)),
            ])
        })
        .collect();
    let entry = Json::obj(vec![
        ("kernel", Json::str(kernel)),
        ("machine", Json::str(machine.arch.short_name())),
        ("cycles", Json::uint(report.cycles)),
        ("dyn_insts", Json::uint(report.dyn_insts)),
        ("plain_replay_s", Json::Num(plain_s)),
        ("profiled_replay_s", Json::Num(profiled_s)),
        ("overhead", Json::Num(overhead)),
        ("regions", Json::Arr(regions)),
    ]);
    Ok((entry, profiled_s <= 2.0 * plain_s))
}

/// Benchmarks the profiler itself and writes `BENCH_prof.json`
/// (`augem.bench-prof/v1`): plain vs profiled timing-replay wall time
/// per kernel × platform plus each kernel's region rollup. Returns
/// `false` — the CI overhead gate — when the profiled replay costs more
/// than 2x the plain replay anywhere.
fn emit_prof_report(platforms: &[MachineSpec]) -> bool {
    let mut entries = Vec::new();
    let mut ok = true;
    for machine in platforms {
        let configs: [Box<dyn Candidate>; 2] = [
            Box::new(GemmConfig::fig13()),
            Box::new(vector_config(VectorKernel::Axpy, machine)),
        ];
        for cfg in configs {
            let kernel = cfg.kernel().name();
            match build_logged(&*cfg, machine) {
                Ok(build) => match prof_entry(&*cfg, machine, &build) {
                    Ok((entry, cheap)) => {
                        ok &= cheap;
                        entries.push(entry);
                    }
                    Err(e) => eprintln!("prof bench: {kernel} functional run failed: {e}"),
                },
                Err(e) => eprintln!("prof bench: {kernel} build failed: {e}"),
            }
        }
    }
    write_bench(
        "prof",
        vec![("kernels", Json::Arr(entries))],
        &[(ok, "profiled replay more than 2x the plain replay")],
    )
}

/// The vector kernel families the cost and depan reports sweep.
const VECTOR_KERNELS: [VectorKernel; 5] = [
    VectorKernel::Axpy,
    VectorKernel::Dot,
    VectorKernel::Gemv,
    VectorKernel::Ger,
    VectorKernel::Scal,
];

/// The exhaustive sweep of one kernel family and its sweep with `opts`,
/// each timed on a fresh cache, so both sides share transform prefixes
/// and do the same build work: the sweep with `opts`, whether it picked
/// the exhaustive winner at the same cycles, and both wall times.
fn compare_sweeps<C: Candidate + Copy + Send + Sync>(
    candidates: &[C],
    machine: &MachineSpec,
    opts: &ResilOptions,
) -> Result<(TuneResult<C>, bool, f64, f64), String> {
    let run = |opts: &ResilOptions| {
        let cache = EvalCache::new();
        let (inj, null) = (Injector::disabled(), augem::obs::null());
        let t0 = Instant::now();
        let r = sweep(candidates.to_vec(), machine, opts, None, &inj, null, &cache);
        (r, t0.elapsed().as_secs_f64())
    };
    match (run(&ResilOptions::plain()), run(opts)) {
        ((Ok(plain), exhaustive_s), (Ok(other), other_s)) => {
            let same_winner = plain.best.tag() == other.best.tag()
                && plain.best_eval.report.cycles == other.best_eval.report.cycles;
            Ok((other, same_winner, exhaustive_s, other_s))
        }
        ((plain, _), (other, _)) => Err(format!("plain={:?} other={:?}", plain.err(), other.err())),
    }
}

/// The gate ingredients of one family's pruned-vs-exhaustive comparison.
struct CostSample {
    /// On every repetition.
    winners_preserved: bool,
    prune_rate: f64,
    exhaustive: Spread,
    pruned: Spread,
    /// The bound stage's wall time, argument shapes included.
    bound: Spread,
}

/// [`SWEEP_REPS`] pruned-vs-exhaustive sweep comparisons for a kernel
/// family: its JSON entry and its gate ingredients. `naive` adds a
/// bound-tightness sample for an untuned configuration.
fn cost_entry<C: Candidate + Copy + Send + Sync>(
    machine: &MachineSpec,
    candidates: Vec<C>,
    naive: Option<C>,
) -> Result<(Json, CostSample), String> {
    let prune = ResilOptions {
        prune: true,
        ..ResilOptions::plain()
    };
    let mut winners_preserved = true;
    let mut last = None;
    let [exhaustive, pruned_s, bound, bound_cpu] = sample(SWEEP_REPS, || -> Result<_, String> {
        let (pruned, same_winner, exhaustive_s, pruned_s) =
            compare_sweeps(&candidates, machine, &prune)?;
        winners_preserved &= same_winner;
        let stats = pruned.stats;
        last = Some(pruned);
        Ok([
            exhaustive_s,
            pruned_s,
            stats.bound_ns as f64 / 1e9,
            stats.bound_cpu_ns as f64 / 1e9,
        ])
    })?;
    let pruned = last.expect("every sweep pair ran at least once");
    let kernel = pruned.best.kernel().name();
    let stats = &pruned.stats;
    let prune_rate = stats.pruned as f64 / stats.analyzed.max(1) as f64;
    let bound_frac = phase_share(&[bound], &[exhaustive]);
    let tightness: Vec<(String, f64)> = naive
        .iter()
        .chain([&pruned.best])
        .filter_map(|c| tightness(c, machine))
        .collect();
    println!(
        "cost   {:>6} on {:<12} {:>3}/{:<3} pruned ({:>4.0}%): sweep {:>7.1} ms -> {:>7.1} ms, bounds {:>6.2} ms (max {:.2}; {:.2}% of sweep, {:.2} ms CPU){}",
        kernel,
        machine.arch.short_name(),
        stats.pruned,
        stats.analyzed,
        prune_rate * 100.0,
        exhaustive.min * 1e3,
        pruned_s.min * 1e3,
        bound.min * 1e3,
        bound.max * 1e3,
        bound_frac * 100.0,
        bound_cpu.min * 1e3,
        if winners_preserved { "" } else { "  WINNER CHANGED" },
    );
    let entry = Json::obj(vec![
        ("kernel", Json::str(kernel)),
        ("machine", Json::str(machine.arch.short_name())),
        ("generated", Json::uint(pruned.generated as u64)),
        ("analyzed", Json::uint(stats.analyzed as u64)),
        ("pruned", Json::uint(stats.pruned as u64)),
        ("evaluated", Json::uint(stats.evaluated as u64)),
        ("prune_rate", Json::Num(prune_rate)),
        ("exhaustive_sweep_s", Json::Num(exhaustive.min)),
        ("exhaustive_sweep_s_max", Json::Num(exhaustive.max)),
        ("pruned_sweep_s", Json::Num(pruned_s.min)),
        ("pruned_sweep_s_max", Json::Num(pruned_s.max)),
        ("bound_phase_s", Json::Num(bound.min)),
        ("bound_phase_s_max", Json::Num(bound.max)),
        ("bound_phase_cpu_s", Json::Num(bound_cpu.min)),
        ("bound_phase_cpu_s_max", Json::Num(bound_cpu.max)),
        ("bound_phase_frac_of_sweep", Json::Num(bound_frac)),
        ("winner", Json::str(pruned.best.tag())),
        ("winner_preserved", Json::Bool(winners_preserved)),
        (
            "tightness",
            Json::Arr(
                tightness
                    .iter()
                    .map(|(tag, t)| {
                        Json::obj(vec![
                            ("config", Json::str(tag.clone())),
                            ("bound_over_actual", Json::Num(*t)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let sample = CostSample {
        winners_preserved,
        prune_rate,
        exhaustive,
        pruned: pruned_s,
        bound,
    };
    Ok((entry, sample))
}

/// Bound tightness (static bound / simulated cycles) for one built
/// configuration; `None` when the shape cannot build.
fn tightness(c: &dyn Candidate, machine: &MachineSpec) -> Option<(String, f64)> {
    let asm = build_logged(c, machine).ok()?.asm;
    let (args, _) = c.eval_args();
    let r = augem::cost::analyze(&asm, &args, machine).ok()?;
    let (t, _) = if c.warm() {
        augem_sim::simulate_timing_steady(&asm, args, machine)
    } else {
        augem_sim::simulate_timing(&asm, args, machine)
    }
    .ok()?;
    Some((
        c.tag(),
        r.lower_bound_cycles as f64 / t.cycles.max(1) as f64,
    ))
}

/// Benchmarks bound-based sweep pruning and writes `BENCH_cost.json`
/// (`augem.bench-cost/v1`): per kernel × platform prune rates, sweep
/// wall time with and without pruning, the bound phase's cost (the wall
/// time of its parallel pass, argument shapes included, and its CPU
/// time), and bound tightness (static bound / simulated cycles) for the
/// naive and winning configurations. Each timing is the minimum over
/// [`SWEEP_REPS`] sweep pairs, with a `_max` twin for spread. Returns
/// `false` — the CI gate — when pruning changes any winner in any
/// repetition, when the bound phases cost 1% or more of the exhaustive
/// sweeps overall ([`phase_share`]), when the pruned sweeps take as long
/// as the exhaustive ones overall (pruning must pay for itself), or when
/// no kernel reaches a 25% prune rate.
fn emit_cost_report(platforms: &[MachineSpec]) -> bool {
    let mut entries = Vec::new();
    let mut winners_ok = true;
    let (mut exhaustive, mut pruned, mut bounds) = (Vec::new(), Vec::new(), Vec::new());
    let mut best_rate = 0.0f64;

    for machine in platforms {
        let gemm = gemm_candidates(machine);
        let mut results = vec![cost_entry(machine, gemm, Some(GemmConfig::fig13()))];
        for vk in VECTOR_KERNELS {
            results.push(cost_entry(machine, vector_candidates(vk, machine), None));
        }
        for r in results {
            match r {
                Ok((entry, sample)) => {
                    entries.push(entry);
                    winners_ok &= sample.winners_preserved;
                    exhaustive.push(sample.exhaustive);
                    pruned.push(sample.pruned);
                    bounds.push(sample.bound);
                    best_rate = best_rate.max(sample.prune_rate);
                }
                Err(e) => {
                    eprintln!(
                        "cost bench: sweep failed on {}: {e}",
                        machine.arch.short_name()
                    );
                    winners_ok = false;
                }
            }
        }
    }

    let total_frac = phase_share(&bounds, &exhaustive);
    let (exhaustive, pruned) = (Spread::total(&exhaustive), Spread::total(&pruned));
    let bound_cheap = total_frac < PHASE_BOUND;
    let pruned_faster = pruned.min < exhaustive.min;
    let rate_ok = best_rate >= 0.25;
    println!(
        "cost   all sweeps: exhaustive {:.1} ms, pruned {:.1} ms; bound phases {:.2}% (min of {SWEEP_REPS} each)",
        exhaustive.min * 1e3,
        pruned.min * 1e3,
        total_frac * 100.0,
    );
    write_bench(
        "cost",
        vec![
            ("winners_preserved", Json::Bool(winners_ok)),
            ("bound_phase_under_1pct", Json::Bool(bound_cheap)),
            ("bound_phase_total_frac", Json::Num(total_frac)),
            ("pruned_faster", Json::Bool(pruned_faster)),
            ("repetitions", Json::uint(SWEEP_REPS as u64)),
            ("exhaustive_total_s", Json::Num(exhaustive.min)),
            ("exhaustive_total_s_max", Json::Num(exhaustive.max)),
            ("pruned_total_s", Json::Num(pruned.min)),
            ("pruned_total_s_max", Json::Num(pruned.max)),
            ("best_prune_rate", Json::Num(best_rate)),
            ("sweeps", Json::Arr(entries)),
        ],
        &[
            (winners_ok, "pruning changed a sweep winner"),
            (bound_cheap, "bound phases cost 1% or more of the sweeps"),
            (pruned_faster, "pruned sweeps no faster than exhaustive"),
            (rate_ok, "no kernel reached a 25% prune rate"),
        ],
    )
}

/// The gate ingredients of one family's legality-checked sweeps.
struct DepanSample {
    /// On every repetition.
    winners_preserved: bool,
    /// On every repetition.
    no_rejections: bool,
    check: Spread,
    sweep: Spread,
}

/// [`SWEEP_REPS`] legality-checked sweeps of a kernel family, each beside
/// an exhaustive one: its JSON entry and its gate ingredients.
fn depan_entry<C: Candidate + Copy + Send + Sync>(
    machine: &MachineSpec,
    candidates: Vec<C>,
) -> Result<(Json, DepanSample), String> {
    let check = ResilOptions {
        check_legality: true,
        ..ResilOptions::plain()
    };
    let (mut winners_preserved, mut no_rejections) = (true, true);
    let mut last = None;
    let [check_s, sweep_s] = sample(SWEEP_REPS, || -> Result<_, String> {
        let (checked, same_winner, _, sweep_s) = compare_sweeps(&candidates, machine, &check)?;
        winners_preserved &= same_winner;
        no_rejections &= checked.stats.rejected == 0;
        let check_s = checked.stats.check_ns as f64 / 1e9;
        last = Some(checked);
        Ok([check_s, sweep_s])
    })?;
    let checked = last.expect("every sweep pair ran at least once");
    let kernel = checked.best.kernel().name();
    let stats = &checked.stats;
    let check_frac = phase_share(&[check_s], &[sweep_s]);
    println!(
        "depan  {:>6} on {:<12} {:>3}/{:<3} checked, {} rejected: legality {:>6.2} ms (max {:.2}) of {:>7.1} ms sweep ({:.2}%){}{}",
        kernel,
        machine.arch.short_name(),
        stats.checked,
        checked.generated,
        stats.rejected,
        check_s.min * 1e3,
        check_s.max * 1e3,
        sweep_s.min * 1e3,
        check_frac * 100.0,
        if winners_preserved { "" } else { "  WINNER CHANGED" },
        if no_rejections { "" } else { "  FALSE REJECTION" },
    );
    let entry = Json::obj(vec![
        ("kernel", Json::str(kernel)),
        ("machine", Json::str(machine.arch.short_name())),
        ("generated", Json::uint(checked.generated as u64)),
        ("checked", Json::uint(stats.checked as u64)),
        ("rejected", Json::uint(stats.rejected as u64)),
        ("check_phase_s", Json::Num(check_s.min)),
        ("check_phase_s_max", Json::Num(check_s.max)),
        ("sweep_s", Json::Num(sweep_s.min)),
        ("sweep_s_max", Json::Num(sweep_s.max)),
        ("check_frac_of_sweep", Json::Num(check_frac)),
        ("winner", Json::str(checked.best.tag())),
        ("winner_preserved", Json::Bool(winners_preserved)),
    ]);
    let sample = DepanSample {
        winners_preserved,
        no_rejections,
        check: check_s,
        sweep: sweep_s,
    };
    Ok((entry, sample))
}

/// Benchmarks the depan transform-legality filter and writes
/// `BENCH_depan.json` (`augem.bench-depan/v1`): per kernel × platform,
/// how many candidates the checker replayed, how many it rejected, and
/// what the legality phase cost relative to the whole sweep, each timing
/// the minimum over [`SWEEP_REPS`] sweeps with a `_max` twin. Returns
/// `false` — the CI gate — when any tuner candidate is rejected in any
/// repetition (every enumerated candidate is legal by construction, so
/// any rejection is a false positive), when checking changes a winner,
/// or when the legality phases cost 1% or more of the checked sweeps
/// overall ([`phase_share`]).
fn emit_depan_report(platforms: &[MachineSpec]) -> bool {
    let mut entries = Vec::new();
    let mut winners_ok = true;
    let mut rejections_ok = true;
    let (mut checks, mut sweeps) = (Vec::new(), Vec::new());

    for machine in platforms {
        let mut results = vec![depan_entry(machine, gemm_candidates(machine))];
        for vk in VECTOR_KERNELS {
            results.push(depan_entry(machine, vector_candidates(vk, machine)));
        }
        for r in results {
            match r {
                Ok((entry, sample)) => {
                    entries.push(entry);
                    winners_ok &= sample.winners_preserved;
                    rejections_ok &= sample.no_rejections;
                    checks.push(sample.check);
                    sweeps.push(sample.sweep);
                }
                Err(e) => {
                    eprintln!(
                        "depan bench: sweep failed on {}: {e}",
                        machine.arch.short_name()
                    );
                    rejections_ok = false;
                }
            }
        }
    }

    let total_frac = phase_share(&checks, &sweeps);
    let check_cheap = total_frac < PHASE_BOUND;
    println!(
        "depan  all sweeps: legality phases {:.2}% of the checked sweeps (min of {SWEEP_REPS} each)",
        total_frac * 100.0,
    );
    write_bench(
        "depan",
        vec![
            ("zero_false_rejections", Json::Bool(rejections_ok)),
            ("winners_preserved", Json::Bool(winners_ok)),
            ("check_phase_under_1pct", Json::Bool(check_cheap)),
            ("check_phase_total_frac", Json::Num(total_frac)),
            ("repetitions", Json::uint(SWEEP_REPS as u64)),
            ("sweeps", Json::Arr(entries)),
        ],
        &[
            (rejections_ok, "a legal candidate was rejected"),
            (winners_ok, "the legality filter changed a sweep winner"),
            (check_cheap, "legality phases cost 1% or more of the sweeps"),
        ],
    )
}

/// Prints every tuned kernel's assembly on every platform.
fn print_tuned_asm(platforms: &[MachineSpec]) -> bool {
    for machine in platforms {
        let driver = Augem::new(machine.clone());
        for k in DlaKernel::ALL {
            let g = driver
                .run(Target::Tune(k), &RunOptions::plain(), &Injector::disabled())
                .generated
                .expect("generation");
            println!(
                "### {} on {} ({}, {:.0} Mflops steady-state)\n",
                k.name(),
                machine.arch.name(),
                g.config_tag,
                g.mflops
            );
            println!("{}", g.assembly_text());
        }
    }
    true
}

/// One platform of the paper's evaluation, its library models built on
/// first use: the expensive part (AUGEM's empirical tuning plus every
/// calibration simulation), which the ablations alone do without.
struct Platform {
    machine: MachineSpec,
    models: OnceCell<Models>,
}

impl Platform {
    fn models(&self) -> &Models {
        self.models.get_or_init(|| Models::build(&self.machine))
    }
}

/// Prints one figure of the paper for one platform.
fn print_figure(p: &Platform, figure: u32, what: &str, series: fn(&Models) -> Vec<Series>) {
    let title = format!("Figure {figure} ({}): {what}", p.machine.arch.short_name());
    println!("{}", format_figure(&title, &series(p.models())));
}

fn print_fig18(p: &Platform) {
    print_figure(p, 18, "DGEMM Mflops, m=n sweep, k=256", Models::fig18);
}

fn print_fig19(p: &Platform) {
    print_figure(p, 19, "DGEMV Mflops, m=n sweep", Models::fig19);
}

fn print_fig20(p: &Platform) {
    print_figure(p, 20, "DAXPY Mflops, vector-length sweep", Models::fig20);
}

fn print_fig21(p: &Platform) {
    print_figure(p, 21, "DDOT Mflops, vector-length sweep", Models::fig21);
}

fn print_table6(p: &Platform) {
    println!(
        "## Table 6 ({}): higher-level routines, average Mflops\n",
        p.machine.arch.short_name()
    );
    let table = p.models().table6();
    print!("{:>8}", "routine");
    for (lib, _) in &table[0].1 {
        print!("{:>16}", lib);
    }
    println!();
    for (kind, row) in &table {
        print!("{:>8}", kind.name());
        for (_, v) in row {
            print!("{:>16.0}", v);
        }
        println!();
    }
    println!();
}

fn print_ablations(p: &Platform) {
    println!(
        "## Ablations ({}): GEMM micro-kernel steady-state Mflops\n",
        p.machine.arch.short_name()
    );
    for a in ablations(&p.machine) {
        println!("{:>10.0}  {}", a.mflops, a.name);
    }
    println!();
}

/// The arguments that select a subcommand besides its own name.
#[derive(Clone, Copy, PartialEq)]
enum Group {
    /// `all`, or no argument at all: the paper's figures and tables.
    Paper,
    /// `all`: the reports and their gates.
    All,
    /// Nothing else.
    Named,
}

/// What a subcommand runs.
enum Run {
    /// A report over every platform; `false` fails its gate.
    Report(fn(&[MachineSpec]) -> bool),
    /// A section of the paper's evaluation, printed per platform.
    Section(fn(&Platform)),
}

fn main() {
    let commands: [(&str, Group, Run); 12] = [
        ("verify", Group::All, Run::Report(emit_verify_report)),
        ("tune", Group::All, Run::Report(emit_tune_report)),
        ("prof", Group::All, Run::Report(emit_prof_report)),
        ("cost", Group::All, Run::Report(emit_cost_report)),
        ("depan", Group::All, Run::Report(emit_depan_report)),
        ("asm", Group::Named, Run::Report(print_tuned_asm)),
        ("fig18", Group::Paper, Run::Section(print_fig18)),
        ("fig19", Group::Paper, Run::Section(print_fig19)),
        ("fig20", Group::Paper, Run::Section(print_fig20)),
        ("fig21", Group::Paper, Run::Section(print_fig21)),
        ("table6", Group::Paper, Run::Section(print_table6)),
        ("ablations", Group::Paper, Run::Section(print_ablations)),
    ];

    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args
        .iter()
        .find(|a| *a != "all" && commands.iter().all(|c| c.0 != *a))
    {
        eprintln!("figures: unknown subcommand `{bad}`");
        std::process::exit(2);
    }
    let selected = |name: &str, group: Group| {
        args.iter()
            .any(|a| a == name || (a == "all" && group != Group::Named))
            || (args.is_empty() && group == Group::Paper)
    };

    let platforms = MachineSpec::paper_platforms();
    let mut sections = Vec::new();
    for (name, group, run) in &commands {
        match run {
            _ if !selected(name, *group) => {}
            Run::Report(report) => {
                if !report(&platforms) {
                    std::process::exit(1);
                }
            }
            Run::Section(section) => sections.push(section),
        }
    }
    if sections.is_empty() {
        return;
    }
    for machine in platforms {
        println!("==================================================================");
        println!("Platform: {}", machine.arch.name());
        println!("==================================================================\n");
        let platform = Platform {
            machine,
            models: OnceCell::new(),
        };
        for section in &sections {
            section(&platform);
        }
    }
}
