//! Regenerates the paper's figures and tables.
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

use augem::obs::Json;
use augem::resil::write_atomic;
use augem::resil::Injector;
use augem::{Augem, RunOptions, Target, Verify};
use augem_asm::AsmKernel;
use augem_bench::{ablations, format_figure, Models};
use augem_kernels::DlaKernel;
use augem_machine::MachineSpec;
use augem_sim::{FuncSim, SimValue};
use augem_tune::{
    build_logged, gemm_candidates, sweep, vector_candidates, Candidate, EvalCache, GemmConfig,
    ResilOptions, TuneResult, VectorConfig, VectorKernel,
};
use std::time::Instant;

/// Runs both verifier stages — the structural checks and the
/// translation validator — over a representative configuration per
/// kernel × platform, and writes per-kernel wall times and finding
/// counts to `BENCH_verify.json` (`augem.bench-verify/v1`).
fn emit_verify_reports(platforms: &[MachineSpec]) {
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
            configs.push(Box::new(VectorConfig {
                kernel,
                unroll: 2 * machine.simd_mode().f64_lanes(),
                prefetch: augem::transforms::PrefetchConfig::default(),
                schedule: true,
            }));
        }
        for cfg in &configs {
            match build_logged(&**cfg, machine) {
                Ok(build) => entries.push(verify_entry(&**cfg, machine, &build)),
                Err(e) => eprintln!("verify bench: {} build failed: {e}", cfg.kernel().name()),
            }
        }
    }
    let doc = Json::obj(vec![
        ("schema", Json::str("augem.bench-verify/v1")),
        ("kernels", Json::Arr(entries)),
    ]);
    let path = "BENCH_verify.json";
    match write_atomic(path, doc.render_pretty() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

fn verify_entry(
    cfg: &dyn Candidate,
    machine: &MachineSpec,
    build: &augem_tune::LoggedBuild,
) -> Json {
    let kernel = cfg.kernel();
    let spec = &cfg.equiv_spec();
    let t0 = std::time::Instant::now();
    let structural = augem_verify::check(&build.kernel, &build.asm, &build.log);
    let check_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = std::time::Instant::now();
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

/// Fastest observed run time of `f` over ~400 invocations. Each run's
/// argument clone happens outside the timed window (harness cost, not
/// engine cost); the minimum sheds scheduler and frequency noise.
fn secs_per_run(args: &[SimValue], mut f: impl FnMut(Vec<SimValue>)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..400 {
        let a = args.to_vec();
        let t0 = Instant::now();
        f(a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Times the pre-decoded engine ([`FuncSim::run_decoded`], decode done
/// once up front — the engine's designed amortization) against the
/// legacy string-dispatch interpreter ([`FuncSim::run_legacy`]) on one
/// built kernel. Returns the JSON entry plus both steps/sec figures.
fn engine_entry(
    kernel: &str,
    machine: &MachineSpec,
    asm: &AsmKernel,
    args: &[SimValue],
) -> Option<(Json, f64, f64)> {
    let traced = FuncSim::new(machine.isa).with_trace();
    let (_, trace) = match traced.run(asm, args.to_vec()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tune bench: {kernel} functional run failed: {e}");
            return None;
        }
    };
    let steps = trace.len() as f64;
    let sim = FuncSim::new(machine.isa);
    let prog = augem_sim::decode(asm, machine.isa.has(augem_machine::IsaFeature::Avx))
        .expect("decode of a built kernel cannot fail");
    let decoded_s = secs_per_run(args, |a| {
        sim.run_decoded(&prog, asm, a).unwrap();
    });
    let legacy_s = secs_per_run(args, |a| {
        sim.run_legacy(asm, a).unwrap();
    });
    let decoded_sps = steps / decoded_s;
    let legacy_sps = steps / legacy_s;
    println!(
        "engine {:>6} on {:<12} {:>7.0} steps: decoded {:>6.1} Msteps/s, legacy {:>6.1} Msteps/s ({:.2}x)",
        kernel,
        machine.arch.short_name(),
        steps,
        decoded_sps / 1e6,
        legacy_sps / 1e6,
        decoded_sps / legacy_sps,
    );
    let entry = Json::obj(vec![
        ("kernel", Json::str(kernel)),
        ("machine", Json::str(machine.arch.short_name())),
        ("dyn_steps", Json::uint(steps as u64)),
        ("decoded_steps_per_sec", Json::Num(decoded_sps)),
        ("legacy_steps_per_sec", Json::Num(legacy_sps)),
        ("speedup", Json::Num(decoded_sps / legacy_sps)),
    ]);
    Some((entry, decoded_sps, legacy_sps))
}

/// One cached verified generation: sweep wall time plus the evaluation
/// cache's per-stage (prefix, transform, build, eval) hit/miss counters
/// from the driver's run report.
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
    ]))
}

/// Benchmarks the tuning substrate itself and writes `BENCH_tune.json`
/// (`augem.bench-tune/v1`): pre-decoded vs legacy simulator throughput
/// per kernel × platform, and cached verified-generation sweeps with
/// per-stage cache hit rates. Returns `false` — the CI regression gate —
/// if the decoded engine is slower than the legacy interpreter anywhere.
fn emit_tune_report(platforms: &[MachineSpec]) -> bool {
    let mut engine = Vec::new();
    let mut ok = true;
    for machine in platforms {
        let gemm_cfg = GemmConfig::fig13();
        match gemm_cfg.build_logged(machine) {
            Ok(build) => {
                let (mr, nr, kc) = augem_tune::evaluate::gemm_eval_dims(&gemm_cfg);
                let (mc, ldb, ldc) = (mr, nr, mr);
                let args = vec![
                    SimValue::Int(mr as i64),
                    SimValue::Int(nr as i64),
                    SimValue::Int(kc as i64),
                    SimValue::Int(mc as i64),
                    SimValue::Int(ldb as i64),
                    SimValue::Int(ldc as i64),
                    SimValue::Array((0..mc * kc).map(|v| (v % 17) as f64 * 0.25).collect()),
                    SimValue::Array((0..kc * ldb).map(|v| (v % 13) as f64 * 0.5).collect()),
                    SimValue::Array(vec![0.0; ldc * nr]),
                ];
                if let Some((entry, d, l)) = engine_entry("dgemm", machine, &build.asm, &args) {
                    ok &= d >= l;
                    engine.push(entry);
                }
            }
            Err(e) => eprintln!("tune bench: gemm build failed: {e}"),
        }
        let axpy_cfg = VectorConfig {
            kernel: VectorKernel::Axpy,
            unroll: 2 * machine.simd_mode().f64_lanes(),
            prefetch: augem::transforms::PrefetchConfig::default(),
            schedule: true,
        };
        match axpy_cfg.build_logged(machine) {
            Ok(build) => {
                // Cache-resident: the engine comparison should measure
                // dispatch throughput, not the host's DRAM bandwidth.
                let n = 2_048usize;
                let args = vec![
                    SimValue::Int(n as i64),
                    SimValue::F64(1.5),
                    SimValue::Array(vec![0.5; n]),
                    SimValue::Array(vec![1.0; n]),
                ];
                if let Some((entry, d, l)) = engine_entry("daxpy", machine, &build.asm, &args) {
                    ok &= d >= l;
                    engine.push(entry);
                }
            }
            Err(e) => eprintln!("tune bench: axpy build failed: {e}"),
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

    let doc = Json::obj(vec![
        ("schema", Json::str("augem.bench-tune/v1")),
        ("engine", Json::Arr(engine)),
        ("sweeps", Json::Arr(sweeps)),
    ]);
    let path = "BENCH_tune.json";
    match write_atomic(path, doc.render_pretty() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            ok = false;
        }
    }
    if !ok {
        eprintln!("tune bench FAILED: decoded engine slower than the legacy interpreter");
    }
    ok
}

/// Minimum observed wall time of `f` over ~200 invocations. The replay
/// is deterministic, so the minimum sheds scheduler and frequency noise.
fn secs_per_replay(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..200 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Times the plain timing replay against the profiled replay on one
/// pre-built kernel trace, then rolls the profiled counters up into the
/// region summary that goes into the report entry. Returns the JSON
/// entry plus both per-replay wall times.
fn prof_entry(
    cfg: &dyn Candidate,
    machine: &MachineSpec,
    build: &augem_tune::LoggedBuild,
) -> Option<(Json, f64, f64)> {
    let (kernel, warm) = (cfg.kernel().name(), cfg.warm());
    let traced = FuncSim::new(machine.isa).with_trace();
    let (_, trace) = match traced.run(&build.asm, cfg.eval_args().0) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("prof bench: {kernel} functional run failed: {e}");
            return None;
        }
    };
    let plain_s = secs_per_replay(|| {
        let _ = augem_sim::replay(&build.asm, &trace, machine, warm);
    });
    let profiled_s = secs_per_replay(|| {
        let _ = augem_sim::replay_profiled(&build.asm, &trace, machine, warm);
    });
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
    Some((entry, plain_s, profiled_s))
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
        let axpy: Box<dyn Candidate> = Box::new(VectorConfig {
            kernel: VectorKernel::Axpy,
            unroll: 2 * machine.simd_mode().f64_lanes(),
            prefetch: augem::transforms::PrefetchConfig::default(),
            schedule: true,
        });
        for cfg in [Box::new(GemmConfig::fig13()), axpy] {
            match build_logged(&*cfg, machine) {
                Ok(build) => {
                    if let Some((entry, p, q)) = prof_entry(&*cfg, machine, &build) {
                        ok &= q <= 2.0 * p;
                        entries.push(entry);
                    }
                }
                Err(e) => eprintln!("prof bench: {} build failed: {e}", cfg.kernel().name()),
            }
        }
    }
    let doc = Json::obj(vec![
        ("schema", Json::str("augem.bench-prof/v1")),
        ("kernels", Json::Arr(entries)),
    ]);
    let path = "BENCH_prof.json";
    match write_atomic(path, doc.render_pretty() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            ok = false;
        }
    }
    if !ok {
        eprintln!("prof bench FAILED: profiled replay more than 2x the plain replay");
    }
    ok
}

/// The vector kernel families the cost and depan benches sweep.
const VECTOR_KERNELS: [VectorKernel; 5] = [
    VectorKernel::Axpy,
    VectorKernel::Dot,
    VectorKernel::Gemv,
    VectorKernel::Ger,
    VectorKernel::Scal,
];

/// The exhaustive sweep of one kernel family (uncached) and the sweep
/// with `opts` (fresh cache), each with its wall time in seconds.
fn compare_sweeps<C: Candidate + Copy + Send + Sync>(
    candidates: Vec<C>,
    machine: &MachineSpec,
    opts: &ResilOptions,
) -> Result<(TuneResult<C>, f64, TuneResult<C>, f64), String> {
    let run = |opts: &ResilOptions, cache: &EvalCache| {
        let t0 = Instant::now();
        let inj = Injector::disabled();
        let null = augem::obs::null();
        let r = sweep(candidates.clone(), machine, opts, None, &inj, null, cache);
        (r, t0.elapsed().as_secs_f64())
    };
    match (
        run(&ResilOptions::plain(), &EvalCache::disabled()),
        run(opts, &EvalCache::new()),
    ) {
        ((Ok(plain), plain_s), (Ok(other), other_s)) => Ok((plain, plain_s, other, other_s)),
        ((plain, _), (other, _)) => Err(format!("plain={:?} other={:?}", plain.err(), other.err())),
    }
}

/// Do two sweeps agree on the winner and its cycles?
fn same_winner<C: Candidate>(a: &TuneResult<C>, b: &TuneResult<C>) -> bool {
    a.best.tag() == b.best.tag() && a.best_eval.report.cycles == b.best_eval.report.cycles
}

/// The gate ingredients of one pruned-vs-exhaustive comparison.
struct CostSample {
    winner_preserved: bool,
    prune_rate: f64,
    /// The bound stage's wall time, argument shapes included.
    bound_s: f64,
    exhaustive_s: f64,
    pruned_s: f64,
}

/// One pruned-vs-exhaustive sweep comparison for a kernel family: its
/// JSON entry and its gate ingredients. `naive` adds a bound-tightness
/// sample for an untuned configuration.
fn cost_entry<C: Candidate + Copy + Send + Sync>(
    machine: &MachineSpec,
    candidates: Vec<C>,
    naive: Option<C>,
) -> Result<(Json, CostSample), String> {
    let prune = ResilOptions {
        prune: true,
        ..ResilOptions::plain()
    };
    let (plain, exhaustive_s, pruned, pruned_s) = compare_sweeps(candidates, machine, &prune)?;
    let kernel = pruned.best.kernel().name();
    let stats = &pruned.stats;
    let winner_preserved = same_winner(&plain, &pruned);
    let prune_rate = stats.pruned as f64 / stats.analyzed.max(1) as f64;
    let bound_s = stats.bound_ns as f64 / 1e9;
    let bound_cpu_s = stats.bound_cpu_ns as f64 / 1e9;
    let bound_frac = bound_s / exhaustive_s.max(1e-12);
    let tightness: Vec<(String, f64)> = naive
        .iter()
        .chain([&pruned.best])
        .filter_map(|c| tightness(c, machine))
        .collect();
    println!(
        "cost   {:>6} on {:<12} {:>3}/{:<3} pruned ({:>4.0}%): sweep {:>7.1} ms -> {:>7.1} ms, bounds {:>6.2} ms ({:.2}% of sweep, {:.2} ms CPU){}",
        kernel,
        machine.arch.short_name(),
        stats.pruned,
        stats.analyzed,
        prune_rate * 100.0,
        exhaustive_s * 1e3,
        pruned_s * 1e3,
        bound_s * 1e3,
        bound_frac * 100.0,
        bound_cpu_s * 1e3,
        if winner_preserved { "" } else { "  WINNER CHANGED" },
    );
    let entry = Json::obj(vec![
        ("kernel", Json::str(kernel)),
        ("machine", Json::str(machine.arch.short_name())),
        ("generated", Json::uint(pruned.generated as u64)),
        ("analyzed", Json::uint(stats.analyzed as u64)),
        ("pruned", Json::uint(stats.pruned as u64)),
        ("evaluated", Json::uint(stats.evaluated as u64)),
        ("prune_rate", Json::Num(prune_rate)),
        ("exhaustive_sweep_s", Json::Num(exhaustive_s)),
        ("pruned_sweep_s", Json::Num(pruned_s)),
        ("bound_phase_s", Json::Num(bound_s)),
        ("bound_phase_cpu_s", Json::Num(bound_cpu_s)),
        ("bound_phase_frac_of_sweep", Json::Num(bound_frac)),
        ("winner", Json::str(pruned.best.tag())),
        ("winner_preserved", Json::Bool(winner_preserved)),
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
        winner_preserved,
        prune_rate,
        bound_s,
        exhaustive_s,
        pruned_s,
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
/// naive and winning configurations. Returns `false` — the CI gate —
/// when pruning changes any winner, when the bound phases cost 1% or
/// more of the exhaustive sweeps overall (per-sweep fractions are
/// reported in the JSON; the gate is the aggregate, since the
/// steady-regime GEMM sweep is milliseconds long and its denominator
/// tells us nothing about analyzer cost), when the pruned sweeps take
/// as long as the exhaustive ones overall (pruning must pay for
/// itself), or when no kernel reaches a 25% prune rate.
fn emit_cost_report(platforms: &[MachineSpec]) -> bool {
    let mut entries = Vec::new();
    let mut winners_ok = true;
    let mut total_bound_s = 0.0f64;
    let mut total_exhaustive_s = 0.0f64;
    let mut total_pruned_s = 0.0f64;
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
                    winners_ok &= sample.winner_preserved;
                    total_bound_s += sample.bound_s;
                    total_exhaustive_s += sample.exhaustive_s;
                    total_pruned_s += sample.pruned_s;
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

    let total_frac = total_bound_s / total_exhaustive_s.max(1e-12);
    let bound_cheap = total_frac < 0.01;
    let pruned_faster = total_pruned_s < total_exhaustive_s;
    let rate_ok = best_rate >= 0.25;
    let ok = winners_ok && bound_cheap && pruned_faster && rate_ok;
    println!(
        "cost   all sweeps: exhaustive {:.1} ms, pruned {:.1} ms; bound phases {:.2} ms ({:.2}%)",
        total_exhaustive_s * 1e3,
        total_pruned_s * 1e3,
        total_bound_s * 1e3,
        total_frac * 100.0,
    );
    let doc = Json::obj(vec![
        ("schema", Json::str("augem.bench-cost/v1")),
        ("winners_preserved", Json::Bool(winners_ok)),
        ("bound_phase_under_1pct", Json::Bool(bound_cheap)),
        ("bound_phase_total_frac", Json::Num(total_frac)),
        ("pruned_faster", Json::Bool(pruned_faster)),
        ("exhaustive_total_s", Json::Num(total_exhaustive_s)),
        ("pruned_total_s", Json::Num(total_pruned_s)),
        ("best_prune_rate", Json::Num(best_rate)),
        ("sweeps", Json::Arr(entries)),
    ]);
    let path = "BENCH_cost.json";
    match write_atomic(path, doc.render_pretty() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            return false;
        }
    }
    if !winners_ok {
        eprintln!("cost bench FAILED: pruning changed a sweep winner");
    }
    if !bound_cheap {
        eprintln!(
            "cost bench FAILED: bound phases cost {:.2}% of the exhaustive sweeps (gate: <1%)",
            total_frac * 100.0
        );
    }
    if !pruned_faster {
        eprintln!(
            "cost bench FAILED: the pruned sweeps took {:.1} ms against {:.1} ms exhaustive",
            total_pruned_s * 1e3,
            total_exhaustive_s * 1e3
        );
    }
    if !rate_ok {
        eprintln!("cost bench FAILED: best prune rate {best_rate:.2} below 25%");
    }
    ok
}

/// One legality-checked sweep of a kernel family: its JSON entry plus
/// the gate ingredients — winner preservation, zero rejections, and the
/// legality phase's and the checked sweep's seconds.
fn depan_entry<C: Candidate + Copy + Send + Sync>(
    machine: &MachineSpec,
    candidates: Vec<C>,
) -> Result<(Json, bool, bool, f64, f64), String> {
    let check = ResilOptions {
        check_legality: true,
        ..ResilOptions::plain()
    };
    let (plain, _, checked, sweep_s) = compare_sweeps(candidates, machine, &check)?;
    let kernel = checked.best.kernel().name();
    let stats = &checked.stats;
    let winner_preserved = same_winner(&plain, &checked);
    let no_rejections = stats.rejected == 0;
    let check_s = stats.check_ns as f64 / 1e9;
    let check_frac = check_s / sweep_s.max(1e-12);
    println!(
        "depan  {:>6} on {:<12} {:>3}/{:<3} checked, {} rejected: legality {:>6.2} ms of {:>7.1} ms sweep ({:.2}%){}{}",
        kernel,
        machine.arch.short_name(),
        stats.checked,
        checked.generated,
        stats.rejected,
        check_s * 1e3,
        sweep_s * 1e3,
        check_frac * 100.0,
        if winner_preserved { "" } else { "  WINNER CHANGED" },
        if no_rejections { "" } else { "  FALSE REJECTION" },
    );
    let entry = Json::obj(vec![
        ("kernel", Json::str(kernel)),
        ("machine", Json::str(machine.arch.short_name())),
        ("generated", Json::uint(checked.generated as u64)),
        ("checked", Json::uint(stats.checked as u64)),
        ("rejected", Json::uint(stats.rejected as u64)),
        ("check_phase_s", Json::Num(check_s)),
        ("sweep_s", Json::Num(sweep_s)),
        ("check_frac_of_sweep", Json::Num(check_frac)),
        ("winner", Json::str(checked.best.tag())),
        ("winner_preserved", Json::Bool(winner_preserved)),
    ]);
    Ok((entry, winner_preserved, no_rejections, check_s, sweep_s))
}

/// Benchmarks the depan transform-legality filter and writes
/// `BENCH_depan.json` (`augem.bench-depan/v1`): per kernel × platform,
/// how many candidates the checker replayed, how many it rejected, and
/// what the legality phase cost relative to the whole sweep. Returns
/// `false` — the CI gate — when any tuner candidate is rejected (every
/// enumerated candidate is legal by construction, so any rejection is a
/// false positive), when checking changes a winner, or when the
/// legality phases cost 1% or more of the checked sweeps overall (the
/// aggregate, for the same reason as the cost gate: millisecond GEMM
/// sweeps make per-sweep fractions noise).
fn emit_depan_report(platforms: &[MachineSpec]) -> bool {
    let mut entries = Vec::new();
    let mut winners_ok = true;
    let mut rejections_ok = true;
    let mut total_check_s = 0.0f64;
    let mut total_sweep_s = 0.0f64;

    for machine in platforms {
        let mut results = vec![depan_entry(machine, gemm_candidates(machine))];
        for vk in VECTOR_KERNELS {
            results.push(depan_entry(machine, vector_candidates(vk, machine)));
        }
        for r in results {
            match r {
                Ok((entry, wok, rok, check_s, sweep_s)) => {
                    entries.push(entry);
                    winners_ok &= wok;
                    rejections_ok &= rok;
                    total_check_s += check_s;
                    total_sweep_s += sweep_s;
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

    let total_frac = total_check_s / total_sweep_s.max(1e-12);
    let check_cheap = total_frac < 0.01;
    let ok = winners_ok && rejections_ok && check_cheap;
    let doc = Json::obj(vec![
        ("schema", Json::str("augem.bench-depan/v1")),
        ("zero_false_rejections", Json::Bool(rejections_ok)),
        ("winners_preserved", Json::Bool(winners_ok)),
        ("check_phase_under_1pct", Json::Bool(check_cheap)),
        ("check_phase_total_frac", Json::Num(total_frac)),
        ("sweeps", Json::Arr(entries)),
    ]);
    let path = "BENCH_depan.json";
    match write_atomic(path, doc.render_pretty() + "\n") {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            return false;
        }
    }
    if !rejections_ok {
        eprintln!("depan bench FAILED: a legal tuner candidate was rejected (false positive)");
    }
    if !winners_ok {
        eprintln!("depan bench FAILED: the legality filter changed a sweep winner");
    }
    if !check_cheap {
        eprintln!(
            "depan bench FAILED: legality phases cost {:.2}% of the checked sweeps (gate: <1%)",
            total_frac * 100.0
        );
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");

    let platforms = MachineSpec::paper_platforms();

    if want("verify") && args.iter().any(|a| a == "verify" || a == "all") {
        emit_verify_reports(&platforms);
        if args.iter().all(|a| a == "verify") {
            return;
        }
    }

    if want("tune") && args.iter().any(|a| a == "tune" || a == "all") {
        if !emit_tune_report(&platforms) {
            std::process::exit(1);
        }
        if args.iter().all(|a| a == "tune") {
            return;
        }
    }

    if want("prof") && args.iter().any(|a| a == "prof" || a == "all") {
        if !emit_prof_report(&platforms) {
            std::process::exit(1);
        }
        if args.iter().all(|a| a == "prof") {
            return;
        }
    }

    if want("cost") && args.iter().any(|a| a == "cost" || a == "all") {
        if !emit_cost_report(&platforms) {
            std::process::exit(1);
        }
        if args.iter().all(|a| a == "cost") {
            return;
        }
    }

    if want("depan") && args.iter().any(|a| a == "depan" || a == "all") {
        if !emit_depan_report(&platforms) {
            std::process::exit(1);
        }
        if args.iter().all(|a| a == "depan") {
            return;
        }
    }

    if want("asm") && args.iter().any(|a| a == "asm") {
        for machine in &platforms {
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
        if args.len() == 1 {
            return;
        }
    }

    let needs_models = ["fig18", "fig19", "fig20", "fig21", "table6", "all"]
        .iter()
        .any(|f| want(f) && (args.is_empty() || args.iter().any(|a| a == f || a == "all")));

    for machine in &platforms {
        println!("==================================================================");
        println!("Platform: {}", machine.arch.name());
        println!("==================================================================\n");

        if needs_models {
            let models = Models::build(machine);
            if want("fig18") {
                print!(
                    "{}",
                    format_figure(
                        &format!(
                            "Figure 18 ({}): DGEMM Mflops, m=n sweep, k=256",
                            machine.arch.short_name()
                        ),
                        &models.fig18()
                    )
                );
                println!();
            }
            if want("fig19") {
                print!(
                    "{}",
                    format_figure(
                        &format!(
                            "Figure 19 ({}): DGEMV Mflops, m=n sweep",
                            machine.arch.short_name()
                        ),
                        &models.fig19()
                    )
                );
                println!();
            }
            if want("fig20") {
                print!(
                    "{}",
                    format_figure(
                        &format!(
                            "Figure 20 ({}): DAXPY Mflops, vector-length sweep",
                            machine.arch.short_name()
                        ),
                        &models.fig20()
                    )
                );
                println!();
            }
            if want("fig21") {
                print!(
                    "{}",
                    format_figure(
                        &format!(
                            "Figure 21 ({}): DDOT Mflops, vector-length sweep",
                            machine.arch.short_name()
                        ),
                        &models.fig21()
                    )
                );
                println!();
            }
            if want("table6") {
                println!(
                    "## Table 6 ({}): higher-level routines, average Mflops\n",
                    machine.arch.short_name()
                );
                let table = models.table6();
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
        }

        if want("ablations") {
            println!(
                "## Ablations ({}): GEMM micro-kernel steady-state Mflops\n",
                machine.arch.short_name()
            );
            for a in ablations(machine) {
                println!("{:>10.0}  {}", a.mflops, a.name);
            }
            println!();
        }
    }
}
