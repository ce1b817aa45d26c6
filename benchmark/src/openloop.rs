//! The open-loop load generator: requests leave on a precomputed
//! schedule whether or not earlier ones were answered.
//!
//! One generator thread writes request lines when they fall due; the
//! calling thread reads responses and timestamps each on arrival. Callers
//! time a request from when it was *due*, not when it was sent, so a
//! stall that holds the generator back is charged to every request it
//! delayed (no coordinated omission). How late the generator ran is
//! returned per request; a segment whose lag p99 exceeds [`MAX_LAG_MS`]
//! did not offer the load it claims and is invalid.

use crate::stats::Samples;
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Largest acceptable generator lag p99, in ms.
pub const MAX_LAG_MS: f64 = 1.0;

/// Whether a generator with these per-request lags kept to its
/// schedule (lag p99 at most [`MAX_LAG_MS`]).
pub fn on_schedule(lag_ms: Vec<f64>) -> bool {
    Samples::new(lag_ms).quantile(0.99).unwrap_or(0.0) <= MAX_LAG_MS
}

#[derive(Debug, Clone)]
pub struct Outcome {
    /// Per request: send time minus due time, in ms.
    pub lag_ms: Vec<f64>,
    /// The generator gave up waiting and called the give-up hook.
    pub gave_up: bool,
}

/// Sends `lines[i]` at `start + due[i]` into `sink` while reading
/// response lines from `source`, handing each to `on_reply` with its
/// arrival time since `start`. Returns once every request is answered,
/// or the source closes after `give_up` (called by the generator when
/// answers are still missing `drain` after the last send; it must make
/// `source` reach end of input).
#[allow(clippy::too_many_arguments)]
pub fn drive<W, R>(
    start: Instant,
    due: &[Duration],
    lines: &[String],
    sink: &mut W,
    source: &mut R,
    drain: Duration,
    give_up: impl FnOnce() + Send,
    mut on_reply: impl FnMut(&str, Duration),
) -> io::Result<Outcome>
where
    W: Write + Send,
    R: BufRead,
{
    assert_eq!(due.len(), lines.len(), "one due time per request line");
    let received = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let generator =
            scope.spawn(|| generate(start, due, lines, sink, &received, drain, give_up));
        let mut line = String::new();
        let mut read_result = Ok(());
        while received.load(Ordering::SeqCst) < due.len() {
            line.clear();
            match source.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {
                    let at = start.elapsed();
                    received.fetch_add(1, Ordering::SeqCst);
                    on_reply(line.trim_end(), at);
                }
                Err(e) => {
                    read_result = Err(e);
                    break;
                }
            }
        }
        let outcome = generator
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p))?;
        read_result.map(|()| outcome)
    })
}

fn generate<W: Write>(
    start: Instant,
    due: &[Duration],
    lines: &[String],
    sink: &mut W,
    received: &AtomicUsize,
    drain: Duration,
    give_up: impl FnOnce(),
) -> io::Result<Outcome> {
    let mut out = io::BufWriter::with_capacity(1 << 16, sink);
    let mut lag_ms = vec![0.0; due.len()];
    // Requests written to the buffer but not yet flushed to the sink;
    // their lag is taken when they actually leave.
    let mut pending = 0..0;
    let mut flush = |out: &mut io::BufWriter<&mut W>, pending: &mut std::ops::Range<usize>| {
        out.flush()?;
        let now = Instant::now();
        for i in pending.clone() {
            lag_ms[i] = now.saturating_duration_since(start + due[i]).as_secs_f64() * 1e3;
        }
        *pending = pending.end..pending.end;
        io::Result::Ok(())
    };
    for (i, line) in lines.iter().enumerate() {
        let target = start + due[i];
        if target > Instant::now() {
            flush(&mut out, &mut pending)?;
            while let Some(wait) = target.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        out.write_all(line.as_bytes())?;
        pending.end = i + 1;
        if out.buffer().len() > (1 << 15) {
            flush(&mut out, &mut pending)?;
        }
    }
    flush(&mut out, &mut pending)?;

    let deadline = Instant::now() + drain;
    while received.load(Ordering::SeqCst) < due.len() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let gave_up = received.load(Ordering::SeqCst) < due.len();
    if gave_up {
        give_up();
    }
    Ok(Outcome { lag_ms, gave_up })
}

/// Seeded Poisson arrival times at `rate` per second over `[0, span)`.
pub fn poisson(rng: &mut crate::family::Rng, rate: f64, span: Duration) -> Vec<Duration> {
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += rng.exp_gap(rate);
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::Rng;
    use std::io::{BufReader, Read};
    use std::sync::{Arc, Mutex};

    /// A request sink that blocks its writer for `stall` on the first
    /// write carrying request `stall_on`, recording when the stall ended.
    struct StallingSink {
        inner: io::PipeWriter,
        stall_on: String,
        stall: Duration,
        stalled_until: Arc<Mutex<Option<Instant>>>,
    }

    impl Write for StallingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut until = self.stalled_until.lock().unwrap();
            if until.is_none() && String::from_utf8_lossy(buf).contains(&self.stall_on) {
                std::thread::sleep(self.stall);
                *until = Some(Instant::now());
            }
            self.inner.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    /// Answers every request line at once with `{"id":...,"status":"ok"}`.
    fn echo_daemon(requests: io::PipeReader, mut responses: io::PipeWriter) {
        let mut lines = BufReader::new(requests);
        let mut line = String::new();
        while lines.read_line(&mut line).unwrap_or(0) > 0 {
            let id = crate::wire::scan(line.trim_end()).id.unwrap();
            writeln!(responses, "{{\"id\":\"r{id}\",\"status\":\"ok\"}}").unwrap();
            line.clear();
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        let n = 200;
        let due: Vec<Duration> = (0..n).map(Duration::from_millis).collect();
        let lines: Vec<String> = (0..n).map(|i| format!("{{\"id\":\"r{i}\"}}\n")).collect();
        let (req_rx, req_tx) = io::pipe().unwrap();
        let (resp_rx, resp_tx) = io::pipe().unwrap();
        let daemon = std::thread::spawn(move || echo_daemon(req_rx, resp_tx));

        let stall = Duration::from_millis(50);
        let stalled_until = Arc::new(Mutex::new(None));
        let mut sink = StallingSink {
            inner: req_tx,
            stall_on: "\"r60\"".into(),
            stall,
            stalled_until: Arc::clone(&stalled_until),
        };
        let mut source = BufReader::new(resp_rx);
        let start = Instant::now() + Duration::from_millis(5);
        let mut latency = vec![None; n as usize];
        let drain = Duration::from_secs(10);
        let outcome = drive(
            start,
            &due,
            &lines,
            &mut sink,
            &mut source,
            drain,
            || {},
            |line, at| {
                let id = crate::wire::scan(line).id.unwrap() as usize;
                latency[id] = Some(at.saturating_sub(due[id]));
            },
        )
        .unwrap();
        drop(sink);
        daemon.join().unwrap();
        let mut rest = Vec::new();
        source.read_to_end(&mut rest).unwrap();

        let stall_end = stalled_until.lock().unwrap().expect("the sink stalled");
        let stall_end = stall_end.duration_since(start);
        let stall_start = stall_end.saturating_sub(stall);
        let mut delayed = 0;
        for (i, d) in due.iter().enumerate() {
            let got = latency[i].expect("every request answered");
            if *d >= stall_start && *d < stall_end {
                delayed += 1;
                assert!(
                    got >= stall_end - *d,
                    "request {i} due {d:?} waited {:?} but recorded {got:?}",
                    stall_end - *d
                );
            }
        }
        assert!(delayed >= 40, "only {delayed} requests fell in the stall");
        assert!(!outcome.gave_up);
        assert!(
            !on_schedule(outcome.lag_ms),
            "a stalled generator must invalidate the segment"
        );
    }

    #[test]
    fn a_missing_answer_ends_in_give_up_after_the_drain() {
        let n = 20;
        let due: Vec<Duration> = (0..n).map(Duration::from_millis).collect();
        let lines: Vec<String> = (0..n).map(|i| format!("{{\"id\":\"r{i}\"}}\n")).collect();
        let (req_rx, mut req_tx) = io::pipe().unwrap();
        let (resp_rx, mut resp_tx) = io::pipe().unwrap();
        // Answers all but the last request, then closes its output (as a
        // killed daemon would) while still reading its input.
        let daemon = std::thread::spawn(move || {
            let mut lines = BufReader::new(req_rx);
            let mut line = String::new();
            for _ in 0..n - 1 {
                line.clear();
                lines.read_line(&mut line).unwrap();
                let id = crate::wire::scan(line.trim_end()).id.unwrap();
                writeln!(resp_tx, "{{\"id\":\"r{id}\"}}").unwrap();
            }
            drop(resp_tx);
            while lines.read_line(&mut line).unwrap() > 0 {}
        });
        let mut source = BufReader::new(resp_rx);
        let gave_up = std::sync::atomic::AtomicBool::new(false);
        let mut answered = 0;
        let outcome = drive(
            Instant::now(),
            &due,
            &lines,
            &mut req_tx,
            &mut source,
            Duration::from_millis(50),
            || gave_up.store(true, Ordering::SeqCst),
            |_, _| answered += 1,
        )
        .unwrap();
        drop(req_tx);
        daemon.join().unwrap();
        assert_eq!(answered, n - 1);
        assert!(outcome.gave_up && gave_up.load(Ordering::SeqCst));
        assert_eq!(outcome.lag_ms.len(), n as usize);
    }

    #[test]
    fn poisson_arrivals_are_seeded_and_near_their_rate() {
        let a = poisson(&mut Rng::new(3, 0), 1000.0, Duration::from_secs(2));
        let b = poisson(&mut Rng::new(3, 0), 1000.0, Duration::from_secs(2));
        assert_eq!(a, b);
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
