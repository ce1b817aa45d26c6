//! `augem-gen` — command-line front end to the AUGEM pipeline.
//!
//! ```text
//! augem-gen --kernel gemm --machine sandybridge            # tuned .s to stdout
//! augem-gen --kernel axpy --machine piledriver --emit c    # optimized C instead
//! augem-gen --kernel gemm --machine sandybridge --emit tagged
//! augem-gen --kernel dot  --machine sandybridge -o dot.s   # write to a file
//! augem-gen --kernel gemm --machine piledriver --verify    # static verification
//! augem-gen --kernel gemm --machine sandybridge --profile  # cycle attribution
//! augem-gen --list                                         # kernels & machines
//! ```
//!
//! `--lint` runs the static performance lints (the `augem-cost`
//! P-rules: accumulator-chain serialization, port oversubscription,
//! loop spills, narrow SIMD, missing prefetch, dead remainder code)
//! over the shipped kernel, prints them to stderr and embeds them in
//! the run report. Lints are advisory — they never change the exit
//! status. `--naive` skips tuning and ships the paper-default
//! configuration (the Figure-13 starting point for GEMM) instead; the
//! pair `--naive --lint` shows what the paper's hand analysis shows:
//! the untuned kernel stalls on its accumulator chain (P001), the
//! tuned winner is clean.
//!
//! `--verify` reruns the winning configuration through the pipeline with
//! binding-event logging and runs the static kernel verifier
//! (`augem-verify`) over the result: register-allocation replay, dataflow,
//! SIMD width/ISA typing, memory bounds, and — unless `--no-equiv` is
//! given — the translation validator, which symbolically executes the
//! source kernel and the generated assembly and proves every output
//! location computes the same expression. Diagnostics go to stderr; any
//! `error:`-severity diagnostic makes the exit status non-zero, as does
//! a warning count above `--max-warnings N`.
//!
//! `--profile[=PATH]` profiles the winning kernel on the timing
//! simulator with per-instruction cycle attribution (stall causes, port
//! occupancy, cache behaviour), prints the annotated listing to stderr,
//! and writes the `augem.profile/v1` JSON artifact to PATH (default
//! `<kernel>_<machine>.profile.json`). Works with or without
//! `--verify`; the run report's `profile` section carries the region
//! rollup either way.
//!
//! `--degrade` switches to the fault-tolerant driver: candidate
//! evaluation is sandboxed and budgeted, the winner is verified, and on
//! failure the pipeline falls back (next-ranked candidate → paper
//! default → report only) instead of erroring. `--checkpoint FILE`
//! journals every completed measurement there; `--resume` continues from
//! an interrupted journal, skipping completed work (both imply
//! `--degrade`). `--inject-crash N` simulates the process dying at the
//! N-th evaluated candidate — the hook the resilience smoke tests use.
//!
//! Exit status: 0 on success; 1 when generation fails, verification
//! reports errors, warnings exceed `--max-warnings`, a degraded run
//! ships nothing, or an interrupted run leaves only a checkpoint; 2 on
//! usage errors; 3 when `--degrade` ships a kernel through a fallback
//! (degraded success).

use augem::ir::print::print_kernel;
use augem::machine::{MachineSpec, Microarch};
use augem::resil::{write_atomic, Fault, InjectionPlan, Injector, Site, Trigger};
use augem::templates::identify;
use augem::transforms::{generate_optimized, OptimizeConfig};
use augem::{Augem, Degradation, DegradationPolicy, DlaKernel, VerifyOptions};
use std::io::Write as _;
use std::process::ExitCode;

struct Args {
    kernel: DlaKernel,
    machine: MachineSpec,
    emit: Emit,
    output: Option<String>,
    /// Print the run report (stages, tuner, sim counters) to stderr.
    trace: bool,
    /// Write the machine-readable JSON run report here.
    report: Option<String>,
    /// Run the static kernel verifier on the winning configuration.
    verify: bool,
    /// Skip the translation-validation stage of `--verify`.
    no_equiv: bool,
    /// Profile the winner: `Some(None)` = default artifact path,
    /// `Some(Some(p))` = explicit `--profile=p`.
    profile: Option<Option<String>>,
    /// Fail (exit 1) when `--verify` emits more than this many warnings.
    max_warnings: Option<usize>,
    /// Use the fault-tolerant driver with graceful degradation.
    degrade: bool,
    /// Journal completed measurements to this path.
    checkpoint: Option<String>,
    /// Resume from the journal at `--checkpoint`.
    resume: bool,
    /// Test hook: simulate a crash at the N-th evaluated candidate.
    inject_crash: Option<u64>,
    /// Run the performance lints over the shipped kernel.
    lint: bool,
    /// Replay the winner's transform log through the depan legality
    /// checker (`T`-rule errors fail the run).
    check_transforms: bool,
    /// Ship the paper-default configuration instead of tuning.
    naive: bool,
}

#[derive(PartialEq)]
enum Emit {
    Asm,
    C,
    Tagged,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: augem-gen --kernel <gemm|gemv|ger|axpy|dot|scal> \
         --machine <sandybridge|piledriver> [--emit asm|c|tagged] [-o FILE]\n\
         \x20                [--trace] [--report FILE.json] [--verify]\n\
         \x20                [--no-equiv] [--max-warnings N] [--profile[=FILE.json]]\n\
         \x20                [--degrade] [--checkpoint FILE.jsonl] [--resume]\n\
         \x20                [--inject-crash N] [--lint] [--check-transforms] [--naive]\n\
         \x20      augem-gen --list"
    );
    ExitCode::from(2)
}

fn parse() -> Result<Option<Args>, ExitCode> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--list") {
        println!("kernels:");
        for k in DlaKernel::ALL {
            println!("  {}", &k.name()[1..]); // strip the 'd' prefix
        }
        println!("machines:");
        for m in [Microarch::SandyBridge, Microarch::Piledriver] {
            println!("  {} ({})", m.short_name(), m.name());
        }
        return Ok(None);
    }

    let mut kernel = None;
    let mut machine = None;
    let mut emit = Emit::Asm;
    let mut output = None;
    let mut trace = false;
    let mut report = None;
    let mut verify = false;
    let mut no_equiv = false;
    let mut profile = None;
    let mut max_warnings = None;
    let mut degrade = false;
    let mut checkpoint = None;
    let mut resume = false;
    let mut inject_crash = None;
    let mut lint = false;
    let mut check_transforms = false;
    let mut naive = false;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().ok_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--kernel" => {
                let v = val("--kernel")?;
                kernel = Some(match v.as_str() {
                    "gemm" => DlaKernel::Gemm,
                    "gemv" => DlaKernel::Gemv,
                    "ger" => DlaKernel::Ger,
                    "axpy" => DlaKernel::Axpy,
                    "dot" => DlaKernel::Dot,
                    "scal" => DlaKernel::Scal,
                    other => {
                        eprintln!("unknown kernel `{other}`");
                        return Err(usage());
                    }
                });
            }
            "--machine" => {
                let v = val("--machine")?;
                machine = Some(match v.as_str() {
                    "sandybridge" | "snb" => MachineSpec::sandy_bridge(),
                    "piledriver" | "pd" => MachineSpec::piledriver(),
                    other => {
                        eprintln!("unknown machine `{other}`");
                        return Err(usage());
                    }
                });
            }
            "--emit" => {
                let v = val("--emit")?;
                emit = match v.as_str() {
                    "asm" => Emit::Asm,
                    "c" => Emit::C,
                    "tagged" => Emit::Tagged,
                    other => {
                        eprintln!("unknown emit mode `{other}`");
                        return Err(usage());
                    }
                };
            }
            "-o" | "--output" => output = Some(val("-o")?),
            "--trace" => trace = true,
            "--report" => report = Some(val("--report")?),
            "--verify" => verify = true,
            "--no-equiv" => no_equiv = true,
            "--profile" => profile = Some(None),
            "--max-warnings" => {
                let v = val("--max-warnings")?;
                max_warnings = Some(match v.parse::<usize>() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("--max-warnings needs a non-negative integer, got `{v}`");
                        return Err(usage());
                    }
                });
            }
            "--lint" => lint = true,
            "--check-transforms" => check_transforms = true,
            "--naive" => naive = true,
            "--degrade" => degrade = true,
            "--checkpoint" => checkpoint = Some(val("--checkpoint")?),
            "--resume" => resume = true,
            "--inject-crash" => {
                let v = val("--inject-crash")?;
                inject_crash = Some(match v.parse::<u64>() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("--inject-crash needs a positive integer, got `{v}`");
                        return Err(usage());
                    }
                });
            }
            other => {
                if let Some(p) = other.strip_prefix("--profile=") {
                    if p.is_empty() {
                        eprintln!("--profile= needs a path (or use bare --profile)");
                        return Err(usage());
                    }
                    profile = Some(Some(p.to_string()));
                } else {
                    eprintln!("unknown flag `{other}`");
                    return Err(usage());
                }
            }
        }
    }
    let (Some(kernel), Some(machine)) = (kernel, machine) else {
        return Err(usage());
    };
    // Checkpointing, resuming, and crash injection all need the
    // fault-tolerant driver.
    let degrade = degrade || checkpoint.is_some() || resume || inject_crash.is_some();
    Ok(Some(Args {
        kernel,
        machine,
        emit,
        output,
        trace,
        report,
        verify,
        no_equiv,
        profile,
        max_warnings,
        degrade,
        checkpoint,
        resume,
        inject_crash,
        lint,
        check_transforms,
        naive,
    }))
}

/// The tuner's preferred source-level config for non-GEMM kernels when
/// emitting intermediate forms (asm mode retunes from scratch).
fn default_config(kernel: DlaKernel, machine: &MachineSpec) -> OptimizeConfig {
    let w = machine.simd_mode().f64_lanes();
    match kernel {
        DlaKernel::Gemm => OptimizeConfig::gemm(4, 2 * w, 1),
        DlaKernel::Gemv => OptimizeConfig::gemv(2 * w),
        DlaKernel::Dot => OptimizeConfig::vector(2 * w, true),
        _ => OptimizeConfig::vector(2 * w, false),
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(code) => return code,
    };

    if (args.trace
        || args.report.is_some()
        || args.verify
        || args.degrade
        || args.profile.is_some()
        || args.lint
        || args.check_transforms
        || args.naive)
        && args.emit != Emit::Asm
    {
        eprintln!(
            "--trace/--report/--verify/--profile/--degrade/--lint/--check-transforms/--naive only apply to --emit asm (the tuned pipeline)"
        );
        return ExitCode::from(2);
    }
    if args.naive
        && (args.verify || args.degrade || args.profile.is_some() || args.check_transforms)
    {
        eprintln!(
            "--naive does not combine with --verify/--profile/--degrade/--check-transforms (it skips tuning)"
        );
        return ExitCode::from(2);
    }
    if args.lint && args.degrade {
        eprintln!("--lint does not combine with --degrade (lint the shipped kernel separately)");
        return ExitCode::from(2);
    }
    if args.check_transforms && args.degrade {
        eprintln!(
            "--check-transforms does not combine with --degrade (check the winner separately)"
        );
        return ExitCode::from(2);
    }
    if args.profile.is_some() && args.degrade {
        eprintln!("--profile does not combine with --degrade (profile the winner separately)");
        return ExitCode::from(2);
    }
    if (args.no_equiv || args.max_warnings.is_some()) && !(args.verify || args.degrade) {
        eprintln!("--no-equiv/--max-warnings only apply together with --verify/--degrade");
        return ExitCode::from(2);
    }
    if args.resume && args.checkpoint.is_none() {
        eprintln!("--resume needs --checkpoint FILE to resume from");
        return ExitCode::from(2);
    }
    if args.degrade {
        return run_degradable(&args);
    }

    let mut verify_errors = 0usize;
    let mut verify_warnings = 0usize;
    let mut tcheck_errors = 0usize;
    let text = match args.emit {
        Emit::Asm => {
            let driver = Augem::new(args.machine.clone());
            let generated = if args.verify {
                let opts = VerifyOptions {
                    equivalence: !args.no_equiv,
                    profile: args.profile.is_some(),
                };
                driver
                    .generate_report_verified_profiled_with(args.kernel, &opts)
                    .map(|(g, run, diags, prof)| {
                        for d in &diags {
                            eprintln!("{d}");
                        }
                        verify_errors = augem::verify::errors(&diags).len();
                        verify_warnings = diags.len() - verify_errors;
                        eprintln!(
                            "verify: {} error(s), {} warning(s) for {} on {}",
                            verify_errors,
                            verify_warnings,
                            g.config_tag,
                            args.machine.arch.short_name()
                        );
                        (g, run, prof)
                    })
            } else if args.profile.is_some() {
                driver
                    .generate_report_profiled(args.kernel)
                    .map(|(g, run, prof)| (g, run, Some(prof)))
            } else if args.naive {
                driver
                    .generate_naive_report(args.kernel)
                    .map(|(g, run)| (g, run, None))
            } else {
                driver
                    .generate_report(args.kernel)
                    .map(|(g, run)| (g, run, None))
            };
            match generated {
                Ok((g, mut run, prof)) => {
                    if args.lint {
                        let lints = driver.lint_generated(&g);
                        for d in &lints {
                            eprintln!("{d}");
                        }
                        eprintln!(
                            "lint: {} performance warning(s) for {} on {}",
                            lints.len(),
                            g.config_tag,
                            args.machine.arch.short_name()
                        );
                        run.lints = lints.iter().map(|d| d.to_string()).collect();
                    }
                    if args.check_transforms {
                        // All cache hits on this driver: the sweep is not
                        // re-run and the winner is not rebuilt.
                        let null = augem::obs::null();
                        let tchecks = match driver.check_transforms_traced(args.kernel, null) {
                            Ok(d) => d,
                            Err(e) => {
                                eprintln!("transform check failed: {e}");
                                return ExitCode::FAILURE;
                            }
                        };
                        for d in &tchecks {
                            eprintln!("{d}");
                        }
                        tcheck_errors = augem::verify::errors(&tchecks).len();
                        eprintln!(
                            "transform legality: {} error(s), {} warning(s) for {} on {}",
                            tcheck_errors,
                            tchecks.len() - tcheck_errors,
                            g.config_tag,
                            args.machine.arch.short_name()
                        );
                        run.tchecks = tchecks.iter().map(|d| d.to_string()).collect();
                    }
                    if args.trace {
                        eprint!("{}", run.render_text());
                    }
                    if let Some(path) = &args.report {
                        let json = run.to_json().render_pretty();
                        if let Err(e) = write_atomic(path, json + "\n") {
                            eprintln!("cannot write {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                    if let (Some(dest), Some(p)) = (&args.profile, &prof) {
                        let path = dest.clone().unwrap_or_else(|| {
                            format!(
                                "{}_{}.profile.json",
                                args.kernel.name(),
                                args.machine.arch.short_name()
                            )
                        });
                        let json = p.to_json().render_pretty();
                        if let Err(e) = write_atomic(&path, json + "\n") {
                            eprintln!("cannot write {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                        eprint!("{}", p.annotated_listing());
                        eprintln!("profile artifact written to {path}");
                    }
                    format!(
                        "# {} configuration: {} ({:.0} Mflops steady-state)\n{}",
                        if args.naive { "paper-default" } else { "tuned" },
                        g.config_tag,
                        g.mflops,
                        g.assembly_text()
                    )
                }
                Err(e) => {
                    eprintln!("generation failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        Emit::C | Emit::Tagged => {
            let cfg = default_config(args.kernel, &args.machine);
            let mut k = match generate_optimized(&args.kernel.build(), &cfg) {
                Ok(k) => k,
                Err(e) => {
                    eprintln!("optimization failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if args.emit == Emit::Tagged {
                identify(&mut k);
            }
            print_kernel(&k)
        }
    };

    match args.output {
        Some(path) => {
            if let Err(e) = write_atomic(&path, text) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => {
            let _ = std::io::stdout().write_all(text.as_bytes());
        }
    }
    if verify_errors > 0 {
        eprintln!("verification failed: {verify_errors} error(s)");
        return ExitCode::FAILURE;
    }
    if tcheck_errors > 0 {
        eprintln!("transform legality failed: {tcheck_errors} error(s)");
        return ExitCode::FAILURE;
    }
    if let Some(max) = args.max_warnings {
        if verify_warnings > max {
            eprintln!(
                "verification failed: {verify_warnings} warning(s) exceed --max-warnings {max}"
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The `--degrade` path: the fault-tolerant driver with checkpointing
/// and graceful fallback. Exit codes: 0 verified winner, 3 degraded
/// success (a fallback kernel shipped), 1 interrupted or report-only.
fn run_degradable(args: &Args) -> ExitCode {
    let policy = DegradationPolicy {
        equivalence: !args.no_equiv,
        checkpoint: args.checkpoint.as_ref().map(std::path::PathBuf::from),
        resume: args.resume,
        ..DegradationPolicy::default()
    };
    let injector = match args.inject_crash {
        Some(n) => {
            Injector::new(InjectionPlan::new(0).with(Site::Eval, Fault::Crash, Trigger::Nth(n)))
        }
        None => Injector::disabled(),
    };
    let driver = Augem::new(args.machine.clone());
    let r = driver.generate_degradable(args.kernel, &policy, &injector);

    if args.verify {
        for d in &r.diagnostics {
            eprintln!("{d}");
        }
    }
    if args.trace {
        eprint!("{}", r.report.render_text());
    }
    if let Some(path) = &args.report {
        let json = r.report.to_json().render_pretty();
        if let Err(e) = write_atomic(path, json + "\n") {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(max) = args.max_warnings {
        let warnings = r.diagnostics.len() - augem::verify::errors(&r.diagnostics).len();
        if warnings > max {
            eprintln!("verification failed: {warnings} warning(s) exceed --max-warnings {max}");
            return ExitCode::FAILURE;
        }
    }

    match (&r.generated, &r.degradation) {
        (Some(g), degradation) => {
            let mut text = format!(
                "# tuned configuration: {} ({:.0} Mflops steady-state)\n",
                g.config_tag, g.mflops
            );
            if !matches!(degradation, Degradation::None) {
                text.push_str(&format!("# DEGRADED: {degradation}\n"));
            }
            text.push_str(&g.assembly_text());
            match &args.output {
                Some(path) => {
                    if let Err(e) = write_atomic(path, text) {
                        eprintln!("cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                None => {
                    let _ = std::io::stdout().write_all(text.as_bytes());
                }
            }
            if matches!(degradation, Degradation::None) {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "degraded success: {degradation} (cause: {})",
                    r.cause.as_deref().unwrap_or("unknown")
                );
                ExitCode::from(3)
            }
        }
        (None, Degradation::Interrupted) => {
            eprintln!(
                "tuning interrupted: {}",
                r.cause.as_deref().unwrap_or("crash")
            );
            if let Some(path) = &args.checkpoint {
                eprintln!("checkpoint saved; rerun with --checkpoint {path} --resume");
            }
            ExitCode::FAILURE
        }
        (None, _) => {
            eprintln!(
                "generation failed ({}): {}",
                r.degradation,
                r.cause.as_deref().unwrap_or("unknown")
            );
            ExitCode::FAILURE
        }
    }
}
