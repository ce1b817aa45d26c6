//! One `augem-serve` process: spawn, readiness, closed-loop requests,
//! peak memory, and shutdown. Every daemon the benchmark starts is
//! waited for; dropping a [`Daemon`] kills one that is still running.

use crate::wire;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Fixed daemon shape: two workers (one per core of the reference
/// machine) and a queue large enough that no workload sheds load.
const DAEMON_ARGS: [&str; 4] = ["--workers", "2", "--queue-cap", "100000"];

pub struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts a daemon on the store at `store` and waits for its first
    /// `stats` response. Returns the daemon and the seconds from spawn to
    /// that response (the `setup_s` sample).
    pub fn start(bin: &Path, store: &Path) -> io::Result<(Daemon, f64)> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(DAEMON_ARGS)
            .arg("--cache-dir")
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| {
                io::Error::new(e.kind(), format!("cannot start {}: {e}", bin.display()))
            })?;
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("daemon pipes missing"));
        };
        let mut d = Daemon {
            child,
            stdin,
            stdout: BufReader::new(stdout),
        };
        let (reply, _) = d.call(&wire::control("ready", "stats"))?;
        if wire::scan(&reply).status != "ok" {
            return Err(io::Error::other(format!("stats failed: {reply}")));
        }
        Ok((d, t0.elapsed().as_secs_f64()))
    }

    /// Closed loop: sends one line, reads one response line, and returns
    /// it with the time between the two.
    pub fn call(&mut self, line: &str) -> io::Result<(String, Duration)> {
        let t0 = Instant::now();
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.flush()?;
        let mut reply = String::new();
        if self.stdout.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed its output",
            ));
        }
        let elapsed = t0.elapsed();
        reply.truncate(reply.trim_end().len());
        Ok((reply, elapsed))
    }

    /// The daemon's peak resident set (`VmHWM`) so far, in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// The request pipe, the response pipe, and the process, borrowed
    /// apart for the open-loop generator and reader. Killing the process
    /// closes its output, which ends a reader blocked on it.
    pub fn parts(&mut self) -> (&mut ChildStdin, &mut BufReader<ChildStdout>, &mut Child) {
        (&mut self.stdin, &mut self.stdout, &mut self.child)
    }

    /// Clean shutdown: the daemon drains its queue, answers, and exits 0.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stdin
            .write_all(wire::control("bye", "shutdown").as_bytes())?;
        self.stdin.flush()?;
        let mut sink = String::new();
        while self.stdout.read_line(&mut sink)? > 0 {
            sink.clear();
        }
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("daemon exited with {status}")))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
