//! `augem-bench` — the end-to-end benchmark of the `augem-serve` daemon.
//!
//! ```text
//! augem-bench --workload NAME --seed N [--seconds S] [--trace 0|1]
//!             [--trace-out FILE] [--out FILE] [--quick]
//!             [--serve-bin PATH] [--work-dir DIR]
//! ```
//!
//! Workloads: `cold-gemm`, `cold-vector`, `warm`, `mixed`. The daemon is
//! looked up next to this executable unless `--serve-bin` names it. With
//! `--trace 1` half of the time goes to the timed run and the rest to a
//! traced in-process re-run pinned to one core. Prints a details line,
//! then as the last line
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` with every
//! end-to-end metric (`--trace 0`) or every per-layer metric (`--trace 1`).
//! Exits non-zero, printing no result, when it cannot run at all.

use augem::obs::Json;
use augem_e2e_bench::metrics::{self, END_TO_END, TIMED_LAYERS, TRACED_LAYERS};
use augem_e2e_bench::stats::Samples;
use augem_e2e_bench::traced::{self, TracedResult};
use augem_e2e_bench::workloads::{self, Env, Record, Workload};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    quick: bool,
    serve_bin: Option<PathBuf>,
    work_dir: PathBuf,
    /// Internal: run only the traced part (the re-executed child).
    traced_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut args = Args {
        workload: Workload::ColdGemm,
        seed: 0,
        seconds: 25.0,
        trace: false,
        trace_out: None,
        out: None,
        quick: false,
        serve_bin: None,
        work_dir: PathBuf::from(".augem-bench-work"),
        traced_child: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs a number")?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--out" => args.out = Some(value()?.into()),
            "--quick" => args.quick = true,
            "--serve-bin" => args.serve_bin = Some(value()?.into()),
            "--work-dir" => args.work_dir = value()?.into(),
            "--traced-child" => args.traced_child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    args.seed = seed.ok_or("--seed is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("augem-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    if args.traced_child {
        let result = traced::run(
            args.workload,
            args.seed,
            args.quick,
            &args.work_dir,
            args.trace_out.as_deref(),
        )
        .map_err(|e| format!("traced run: {e}"));
        let _ = std::fs::remove_dir_all(&args.work_dir);
        println!("{}", result?.to_json().render());
        return Ok(());
    }
    let run_dir = args.work_dir.join(format!("run-{}", std::process::id()));
    let result = timed(args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    // Leaves the work directory only if another run is still using it.
    let _ = std::fs::remove_dir(&args.work_dir);
    result
}

fn timed(args: &Args, run_dir: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let serve_bin = args
        .serve_bin
        .clone()
        .unwrap_or_else(|| exe.with_file_name("augem-serve"));
    if !serve_bin.is_file() {
        return Err(format!(
            "no daemon at {}: build it with `cargo build --release -p augem-serve`",
            serve_bin.display()
        ));
    }
    let t0 = Instant::now();
    let env = Env {
        serve_bin,
        work: run_dir.join("timed"),
        seed: args.seed,
        seconds: if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        },
        quick: args.quick,
    };
    let mut rec = workloads::run(args.workload, &env)
        .map_err(|e| format!("{} workload: {e}", args.workload.name()))?;
    let mut attempted = rec.attempted + rec.gate.verify_winners(args.seed);
    let mut failures = rec.gate.failures().to_vec();

    let mut traced_families = 0;
    let metrics = if args.trace {
        let traced = run_traced(&exe, args, &run_dir.join("traced"))?;
        attempted += traced.attempted;
        failures.extend(traced.failures.iter().cloned());
        traced_families = traced.families;
        let mut m = metrics::timed_layers(&rec);
        for &(name, value) in &traced.metrics.0 {
            m.set(name, value);
        }
        m.set("tune.parallel_speedup", parallel_speedup(&rec, &traced));
        m
    } else {
        metrics::end_to_end(args.workload, &rec)
    };
    let expected: Vec<&str> = if args.trace {
        TIMED_LAYERS
            .iter()
            .chain(&TRACED_LAYERS)
            .map(|(n, _)| *n)
            .collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    for name in expected {
        match metrics.get(name) {
            Some(v) if v.is_finite() => {}
            _ => return Err(format!("metric {name} was not measured")),
        }
    }

    let failed = failures.len() as u64;
    let details = details(args, &env, &rec, &failures, traced_families, t0).render();
    let result = metrics::result_line(failed == 0, attempted, failed, &metrics);
    for f in failures.iter().take(20) {
        eprintln!("augem-bench: FAILED {f}");
    }
    if let Some(path) = &args.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{details}\n{result}").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{details}");
    println!("{result}");
    Ok(())
}

/// One-core facade time over the timed run's lower-decile one-at-a-time
/// tune latency, summed over the families both runs measured.
fn parallel_speedup(rec: &Record, traced: &TracedResult) -> f64 {
    let (mut one_core, mut served) = (0.0, 0.0);
    for (family, facade_ms) in &traced.facade_ms {
        if let Some(p10) = rec
            .tune_ms
            .get(family)
            .and_then(|v| Samples::new(v.clone()).quantile(0.1))
        {
            one_core += facade_ms;
            served += p10;
        }
    }
    if served > 0.0 {
        one_core / served
    } else {
        0.0
    }
}

/// The first CPU this process may run on (the traced run's one core).
fn first_allowed_cpu() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let list = s
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
            let first = list.trim().split([',', '-']).next()?;
            Some(first.to_string())
        })
        .unwrap_or_else(|| "0".to_string())
}

/// Re-executes this binary under `taskset` for the traced run, so the
/// rayon shim's sweeps run on a single core.
fn run_traced(exe: &Path, args: &Args, work: &Path) -> Result<TracedResult, String> {
    let mut cmd = Command::new("taskset");
    cmd.arg("-c")
        .arg(first_allowed_cpu())
        .arg(exe)
        .arg("--traced-child")
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .arg("--work-dir")
        .arg(work)
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    if let Some(path) = &args.trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run the traced child under taskset: {e}"))?;
    if !out.status.success() {
        return Err(format!("traced child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    Json::parse(last)
        .ok()
        .as_ref()
        .and_then(TracedResult::from_json)
        .ok_or_else(|| format!("traced child printed no result: {last:.200}"))
}

fn details(
    args: &Args,
    env: &Env,
    rec: &Record,
    failures: &[String],
    traced_families: usize,
    t0: Instant,
) -> Json {
    let winners = args
        .workload
        .families()
        .into_iter()
        .filter_map(|f| {
            let w = rec.gate.winner(f)?;
            let mflops = w.mflops.parse().map_or(Json::Null, Json::Num);
            let latency = Samples::new(rec.latency_ms.get(&f.name()).cloned().unwrap_or_default());
            let quantile = |p| latency.quantile(p).map_or(Json::Null, Json::Num);
            let entry = Json::obj(vec![
                ("config", Json::str(w.config.clone())),
                ("mflops", mflops),
                ("requests", Json::uint(latency.len() as u64)),
                ("latency_p10_ms", quantile(0.1)),
                ("latency_p50_ms", quantile(0.5)),
            ]);
            Some((f.name(), entry))
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::obj(vec![
        ("schema", Json::str("augem.e2e-bench/v1")),
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::uint(args.seed)),
        ("timed_seconds", Json::Num(env.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("quick", Json::Bool(args.quick)),
        ("available_parallelism", Json::uint(cores)),
        ("wall_s", Json::Num(t0.elapsed().as_secs_f64())),
        ("samples", metrics::sample_details(rec)),
        (
            "segments",
            Json::obj(vec![
                ("total", Json::uint(rec.segments)),
                ("valid", Json::uint(rec.valid_segments)),
            ]),
        ),
        ("traced_families", Json::uint(traced_families as u64)),
        ("winners", Json::Obj(winners)),
        (
            "failures",
            Json::Arr(
                failures
                    .iter()
                    .take(20)
                    .map(|f| Json::str(f.clone()))
                    .collect(),
            ),
        ),
    ])
}
