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
//! Every `--emit asm` run is one [`Augem::run`]. It tunes, then ships
//! the first rung of the degradation ladder that passes: the winner, the
//! next three ranked candidates, the paper default. `--naive` builds the
//! paper-default configuration (the Figure-13 starting point for GEMM)
//! alone instead. The flags below combine freely, except that `--naive`
//! has no sweep to checkpoint, resume or crash.
//!
//! `--verify` checks each rung with the static kernel verifier
//! (`augem-verify`): register-allocation replay, dataflow, SIMD
//! width/ISA typing, memory bounds, and — unless `--no-equiv` is given —
//! the translation validator, which symbolically executes the source
//! kernel and the generated assembly and proves every output location
//! computes the same expression. A kernel with an `error:`-severity
//! diagnostic never ships: the next rung does. The shipped kernel's
//! diagnostics go to stderr; a warning count above `--max-warnings N`
//! makes the exit status non-zero.
//!
//! `--degrade` runs the sweep fault-tolerantly — candidate evaluation
//! sandboxed and budgeted, with retry and circuit breaking — and
//! verifies each rung like `--verify`. `--checkpoint FILE` journals every
//! completed measurement there; `--resume` continues from an interrupted
//! journal, skipping completed work (both imply `--degrade`). A journal
//! whose header names another kernel, machine or schema is refused
//! before tuning, with exit status 2.
//! `--inject-crash N` simulates the process dying at the N-th evaluated
//! candidate — the hook the resilience smoke tests use.
//!
//! `--profile[=PATH]` profiles the shipped kernel on the timing
//! simulator with per-instruction cycle attribution (stall causes, port
//! occupancy, cache behaviour), prints the annotated listing to stderr,
//! and writes the `augem.profile/v1` JSON artifact to PATH (default
//! `<kernel>_<machine>.profile.json`); the run report's `profile`
//! section carries the region rollup.
//!
//! `--lint` runs the static performance lints (the `augem-cost`
//! P-rules: accumulator-chain serialization, port oversubscription,
//! loop spills, narrow SIMD, missing prefetch, dead remainder code)
//! over the shipped kernel, prints them to stderr and embeds them in
//! the run report. Lints are advisory — they never change the exit
//! status. The pair `--naive --lint` shows what the paper's hand
//! analysis shows: the untuned kernel stalls on its accumulator chain
//! (P001), the tuned winner is clean. `--check-transforms` replays the
//! shipped kernel's transform log through the `augem-depan` legality
//! checker.
//!
//! Exit status: 0 on success; 1 when the shipped kernel has transform
//! legality errors, verifier warnings above `--max-warnings`, or a
//! profile that fails, when nothing ships, or when an interrupted run
//! leaves only a checkpoint; 2 on usage errors and on a `--resume`
//! journal of another run; 3 when a fallback rung shipped (degraded
//! success).

use augem::ir::print::print_kernel;
use augem::machine::{MachineSpec, Microarch};
use augem::resil::{
    check_journal_header, write_atomic, Fault, InjectionPlan, Injector, JournalError, Site, Trigger,
};
use augem::templates::identify;
use augem::transforms::{generate_optimized, OptimizeConfig};
use augem::tune::ResilOptions;
use augem::{Augem, Degradation, DlaKernel, RunOptions, Target, Verify};
use std::io::Write as _;
use std::path::PathBuf;
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
    /// Run the static kernel verifier on each rung of the ladder.
    verify: bool,
    /// Skip the translation-validation stage of `--verify`.
    no_equiv: bool,
    /// Profile the winner: `Some(None)` = default artifact path,
    /// `Some(Some(p))` = explicit `--profile=p`.
    profile: Option<Option<String>>,
    /// Fail (exit 1) when `--verify` emits more than this many warnings.
    max_warnings: Option<usize>,
    /// Sweep fault-tolerantly and verify each rung.
    degrade: bool,
    /// Journal completed measurements to this path.
    checkpoint: Option<String>,
    /// Resume from the journal at `--checkpoint`.
    resume: bool,
    /// Test hook: simulate a crash at the N-th evaluated candidate.
    inject_crash: Option<u64>,
    /// Run the performance lints over the shipped kernel.
    lint: bool,
    /// Replay the shipped kernel's transform log through the depan
    /// legality checker (`T`-rule errors fail the run).
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
    // Checkpointing, resuming, and crash injection all imply the
    // fault-tolerant sweep.
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
    if (args.no_equiv || args.max_warnings.is_some()) && !(args.verify || args.degrade) {
        eprintln!("--no-equiv/--max-warnings only apply together with --verify/--degrade");
        return ExitCode::from(2);
    }
    if args.resume && args.checkpoint.is_none() {
        eprintln!("--resume needs --checkpoint FILE to resume from");
        return ExitCode::from(2);
    }
    if args.naive && (args.checkpoint.is_some() || args.inject_crash.is_some()) {
        eprintln!(
            "--naive does not combine with --checkpoint/--resume/--inject-crash (there is no sweep to journal)"
        );
        return ExitCode::from(2);
    }

    let (text, code) = match args.emit {
        Emit::Asm => match generate(&args) {
            Ok(shipped) => shipped,
            Err(code) => return code,
        },
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
            (print_kernel(&k), ExitCode::SUCCESS)
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
    code
}

/// The `--emit asm` path: one [`Augem::run`] with the options the flags
/// select, its diagnostics and artifacts, and the exit status the
/// shipped kernel gets. `Err` carries the exit status when nothing
/// ships.
fn generate(args: &Args) -> Result<(String, ExitCode), ExitCode> {
    let verify = match (args.verify || args.degrade, args.no_equiv) {
        (false, _) => Verify::Off,
        (true, true) => Verify::Structural,
        (true, false) => Verify::Equivalence,
    };
    let opts = RunOptions {
        resil: if args.degrade {
            ResilOptions::default()
        } else {
            ResilOptions::plain()
        },
        verify,
        profile: args.profile.is_some(),
        check_transforms: args.check_transforms,
        checkpoint: args.checkpoint.as_ref().map(PathBuf::from),
        resume: args.resume,
    };
    let injector = match args.inject_crash {
        Some(n) => {
            Injector::new(InjectionPlan::new(0).with(Site::Eval, Fault::Crash, Trigger::Nth(n)))
        }
        None => Injector::disabled(),
    };
    let driver = Augem::new(args.machine.clone());
    // A journal with another header (another kernel, machine or schema)
    // cannot be resumed: `run` would tune from scratch and leave it as
    // it is. Refuse it before tuning.
    if let (true, Some(path)) = (args.resume, &args.checkpoint) {
        let header = driver.checkpoint_header(args.kernel);
        match check_journal_header(path, &header) {
            Ok(()) => {}
            // No journal yet: the run starts one.
            Err(JournalError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                eprintln!("cannot resume from {path}: {e}");
                return Err(ExitCode::from(2));
            }
        }
    }
    let naive = args.naive.then(|| driver.paper_default(args.kernel));
    let target = match &naive {
        Some(c) => Target::Config(&**c),
        None => Target::Tune(args.kernel),
    };
    let mut r = driver.run(target, &opts, &injector);
    let machine = args.machine.arch.short_name();

    let mut failed = false;
    if let Some(g) = &r.generated {
        if verify != Verify::Off {
            for d in &r.diagnostics {
                eprintln!("{d}");
            }
            // A kernel with error diagnostics never ships.
            let warnings = r.diagnostics.len();
            eprintln!(
                "verify: 0 error(s), {warnings} warning(s) for {} on {machine}",
                g.config_tag
            );
            if let Some(max) = args.max_warnings.filter(|&max| warnings > max) {
                eprintln!("verification failed: {warnings} warning(s) exceed --max-warnings {max}");
                failed = true;
            }
        }
        if args.lint {
            let lints = augem::cost::lint(&g.asm, &args.machine);
            for d in &lints {
                eprintln!("{d}");
            }
            eprintln!(
                "lint: {} performance warning(s) for {} on {machine}",
                lints.len(),
                g.config_tag
            );
            r.report.lints = lints.iter().map(|d| d.to_string()).collect();
        }
        if args.check_transforms {
            for d in &r.tchecks {
                eprintln!("{d}");
            }
            let errors = augem::verify::errors(&r.tchecks).len();
            eprintln!(
                "transform legality: {errors} error(s), {} warning(s) for {} on {machine}",
                r.tchecks.len() - errors,
                g.config_tag
            );
            if errors > 0 {
                eprintln!("transform legality failed: {errors} error(s)");
                failed = true;
            }
        }
    }
    if args.trace {
        eprint!("{}", r.report.render_text());
    }
    if let Some(path) = &args.report {
        let json = r.report.to_json().render_pretty();
        if let Err(e) = write_atomic(path, json + "\n") {
            eprintln!("cannot write {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
    }
    match (&args.profile, &r.profile) {
        (Some(dest), Some(Ok(p))) => {
            let path = dest
                .clone()
                .unwrap_or_else(|| format!("{}_{machine}.profile.json", args.kernel.name()));
            let json = p.to_json().render_pretty();
            if let Err(e) = write_atomic(&path, json + "\n") {
                eprintln!("cannot write {path}: {e}");
                return Err(ExitCode::FAILURE);
            }
            eprint!("{}", p.annotated_listing());
            eprintln!("profile artifact written to {path}");
        }
        (_, Some(Err(e))) => {
            eprintln!("profiling failed: {e}");
            failed = true;
        }
        _ => {}
    }

    let cause = r.cause.as_deref().unwrap_or("unknown");
    let Some(g) = &r.generated else {
        if r.degradation == Degradation::Interrupted {
            eprintln!("tuning interrupted: {cause}");
            if let Some(path) = &args.checkpoint {
                eprintln!("checkpoint saved; rerun with --checkpoint {path} --resume");
            }
        } else {
            eprintln!("generation failed ({}): {cause}", r.degradation);
        }
        return Err(ExitCode::FAILURE);
    };
    let mut text = format!(
        "# {} configuration: {} ({:.0} Mflops steady-state)\n",
        if args.naive { "paper-default" } else { "tuned" },
        g.config_tag,
        g.mflops
    );
    if r.is_degraded() {
        text.push_str(&format!("# DEGRADED: {}\n", r.degradation));
        eprintln!("degraded success: {} (cause: {cause})", r.degradation);
    }
    text.push_str(&g.assembly_text());
    let code = if failed {
        ExitCode::FAILURE
    } else if r.is_degraded() {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    };
    Ok((text, code))
}
