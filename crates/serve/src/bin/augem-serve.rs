//! `augem-serve` — the kernel-compilation daemon.
//!
//! Reads newline-delimited JSON requests from stdin, writes one JSON
//! response per line to stdout (completion order; correlate by `id`).
//! See the crate docs for the protocol and the degradation ladder.
//!
//! Exit codes:
//! - `0` — clean shutdown (`op: shutdown` or EOF), all work drained
//! - `1` — fatal I/O error (store directory unusable, broken pipe)
//! - `2` — usage error
//! - `9` — injected kill-9 (`--inject-crash-commit`) fired in the
//!   store-commit window; the store journal ends in a torn record for
//!   the recovery path to drop

use augem_resil::{Fault, InjectionPlan, Injector, Site, Trigger};
use augem_serve::{serve_lines, ServeConfig, Server};
use std::io::BufWriter;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: augem-serve [OPTIONS]

The AUGEM kernel-compilation daemon: newline-delimited JSON requests on
stdin, one JSON response per line on stdout.

options:
  --cache-dir DIR        persistent crash-safe kernel store (default: in-memory)
  --workers N            worker threads (default 4)
  --queue-cap N          bounded request-queue capacity (default 64)
  --deadline-ms N        default per-request deadline (default: none)
  --breaker N            consecutive failures opening a family's circuit
                         (default 3; 0 disables)
  --step-limit N         default per-candidate simulator step budget
  --inject-crash-commit N  die (exit 9) in the N-th store commit,
                         leaving a torn journal record
  --inject-seed N        seed for the fault-injection plan (default 0)
  -h, --help             this text

request lines:
  {\"id\":\"r1\",\"op\":\"generate\",\"kernel\":\"dgemm\",\"machine\":\"snb\"}
  ops: generate | tune | stats | shutdown
  knobs: deadline_ms, step_limit";

/// A bad command line: exit 2, with the usage text.
struct Usage(String);

fn parse_num(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<u64, Usage> {
    let v = args
        .next()
        .ok_or_else(|| Usage(format!("{flag} needs a value")))?;
    v.parse()
        .map_err(|_| Usage(format!("{flag}: bad number {v:?}")))
}

/// Parses the command line into the daemon's configuration and fault
/// injector; `None` means `--help`.
fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<Option<(ServeConfig, Injector)>, Usage> {
    let mut config = ServeConfig::default();
    let mut crash_nth: Option<u64> = None;
    let mut seed = 0u64;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cache-dir" => {
                let dir = args
                    .next()
                    .ok_or_else(|| Usage("--cache-dir needs a value".into()))?;
                config.cache_dir = Some(dir.into());
            }
            "--workers" => config.workers = parse_num(&mut args, "--workers")?.max(1) as usize,
            "--queue-cap" => {
                config.queue_capacity = parse_num(&mut args, "--queue-cap")?.max(1) as usize
            }
            "--deadline-ms" => {
                config.default_deadline_ms = Some(parse_num(&mut args, "--deadline-ms")?)
            }
            "--breaker" => config.breaker_threshold = parse_num(&mut args, "--breaker")? as u32,
            "--step-limit" => {
                config.run.resil.step_limit = Some(parse_num(&mut args, "--step-limit")?)
            }
            "--inject-crash-commit" => {
                crash_nth = Some(parse_num(&mut args, "--inject-crash-commit")?)
            }
            "--inject-seed" => seed = parse_num(&mut args, "--inject-seed")?,
            "-h" | "--help" => return Ok(None),
            other => return Err(Usage(format!("unknown argument {other:?}"))),
        }
    }

    let injector = match crash_nth {
        Some(n) => {
            // The injected death is fatal for the real daemon: exit 9
            // with no cleanup, emulating kill -9 in the commit window.
            config.crash_is_fatal = true;
            Injector::new(InjectionPlan::new(seed).with(
                Site::StoreCommit,
                Fault::Crash,
                Trigger::Nth(n),
            ))
        }
        None => Injector::disabled(),
    };
    Ok(Some((config, injector)))
}

/// Runs the daemon until shutdown or EOF; an error is fatal I/O.
fn serve(config: ServeConfig, injector: Injector) -> Result<(), String> {
    let server =
        Server::open(config, injector).map_err(|e| format!("cannot open kernel store: {e}"))?;
    let stdin = std::io::stdin();
    // `Stdout` is line-buffered, which would make every response line
    // its own write(2); `serve_lines` flushes after each batch instead.
    let stdout = BufWriter::new(std::io::stdout());
    let summary = serve_lines(Arc::new(server), stdin.lock(), stdout)
        .map_err(|e| format!("serve I/O: {e}"))?;
    eprintln!(
        "augem-serve: {} responses, shutdown={}, crashed={}",
        summary.responses, summary.clean_shutdown, summary.crashed
    );
    Ok(())
}

fn main() -> ExitCode {
    let (config, injector) = match parse_args(std::env::args().skip(1)) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(Usage(msg)) => {
            eprintln!("augem-serve: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match serve(config, injector) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("augem-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}
