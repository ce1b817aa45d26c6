//! The daemon: bounded queue, worker pool, admission control, and the
//! per-request degradation ladder.
//!
//! [`Server`] is the synchronous core — `handle(request) → response` —
//! shared by the worker threads, the tests, and the benchmark.
//! [`ServerPool`] wraps it in a bounded queue and `std::thread` workers
//! (the rayon shim exposes only data-parallel iterators, not thread
//! spawning). [`serve_lines`] is the transport harness: newline-
//! delimited JSON in, newline-delimited JSON out, responses in
//! completion order (the `id` correlates).
//!
//! # The degradation ladder, per request
//!
//! 1. **Persistent store hit** — answer from the crash-safe kernel
//!    cache, no tuning at all (the warm-start path).
//! 2. **Tuned winner** — `Augem::run`, which itself degrades:
//!    next-ranked verified candidate, then the paper-default
//!    configuration.
//! 3. **Typed error** — report-only outcomes become `status: "error"`
//!    responses carrying the run report; the daemon never hangs and
//!    never panics outward (workers run under [`sandboxed`]).
//!
//! Admission control rejects before work starts: full queue at submit
//! (`queue_full`), expired deadline at dequeue (`deadline`), open
//! circuit for the kernel×machine family (`breaker`). Consecutive
//! failing tunes trip the family's breaker so a poisoned corner of
//! the request space cannot monopolize the pool.
//!
//! # Single flight, per store key
//!
//! Concurrent misses on one store key share one tune. The first miss
//! leads: it registers the key as in flight and runs `Augem::run`.
//! A later miss on the same key parks: its id, op and response sender
//! are stored beside the key and its worker moves on, so a parked
//! request holds no worker. The leader commits its winner and releases
//! the key in one critical section, then answers every parked request
//! with its own outcome under the parked request's id. A leader that
//! unwinds answers them with a typed error; one that dies in the
//! commit window leaves them unanswered, like the rest of the dead
//! process's requests.

use crate::counter;
use crate::proto::{Op, Reject, Request, Response, Status};
use crate::store::{store_key, KernelStore, StoreError, StoredKernel};
use augem::{Augem, Degradation, RunOptions, Target};
use augem_obs::{Collector, RunReport, Tracer};
use augem_resil::{sandboxed, CircuitBreaker, Injector};
use augem_tune::{cache_enabled, note_cache_disabled, EvalCache};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Deadline applied to requests that carry none (`None` = no
    /// default deadline).
    pub default_deadline_ms: Option<u64>,
    /// Consecutive failures before a kernel×machine family's circuit
    /// opens (0 disables the breaker).
    pub breaker_threshold: u32,
    /// Options for cache-miss tuning runs.
    pub run: RunOptions,
    /// Persistent store directory (`None` = in-memory only).
    pub cache_dir: Option<PathBuf>,
    /// On an injected commit-window crash, kill the process with exit
    /// code 9 (the binary's kill-9 emulation) instead of simulating the
    /// death in-process (the library default, used by tests/benches).
    pub crash_is_fatal: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            default_deadline_ms: None,
            breaker_threshold: 3,
            run: RunOptions::default(),
            cache_dir: None,
            crash_is_fatal: false,
        }
    }
}

/// Marker: an injected crash fired inside the store-commit window. The
/// "process" is dead — the request must NOT be answered (the real
/// daemon would have been killed before responding).
#[derive(Debug)]
pub struct Crashed;

/// The kernel store and the store keys being tuned, behind one mutex:
/// a miss checks both in one critical section, and a leader commits
/// and releases its key in another, so no request can miss the store
/// and also find the key free while its tune lands.
struct StoreState {
    kernels: KernelStore,
    /// Store keys with a tune running, each with the requests parked
    /// on it.
    in_flight: HashMap<String, Vec<Parked>>,
}

/// A miss waiting on another request's tune of the same store key.
struct Parked {
    id: String,
    op: Op,
    /// When a worker dequeued it; its `work_ns` runs from here.
    started: Instant,
    respond: mpsc::Sender<Response>,
}

impl Parked {
    fn answer(self, mut resp: Response) {
        resp.id = self.id;
        resp.work_ns = Some(self.started.elapsed().as_nanos() as u64);
        let _ = self.respond.send(resp);
    }
}

/// What a request found under the store lock.
enum Lookup<'a> {
    Hit(StoredKernel),
    /// The key's tune is running; the leader will answer.
    Parked,
    /// The key was free; this request now leads its tune.
    Lead(Flight<'a>),
}

/// A leader's claim on an in-flight store key. [`Flight::land`]
/// releases it; dropping it unlanded (the leader unwound) frees the key
/// and answers every parked request with a typed error.
struct Flight<'a> {
    store: &'a Mutex<StoreState>,
    key: String,
    landed: bool,
}

impl Flight<'_> {
    /// Releases the key; the caller holds the store lock as `state`.
    fn land(&mut self, state: &mut StoreState) -> Vec<Parked> {
        self.landed = true;
        state.in_flight.remove(&self.key).unwrap_or_default()
    }
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        if self.landed {
            return;
        }
        let parked = lock(self.store)
            .in_flight
            .remove(&self.key)
            .unwrap_or_default();
        for p in parked {
            let err = Response::error(&p.id, "the tune this request waited on panicked");
            p.answer(err);
        }
    }
}

/// The synchronous serving core. Thread-safe; workers share one
/// instance behind an `Arc`.
pub struct Server {
    config: ServeConfig,
    store: Mutex<StoreState>,
    breaker: CircuitBreaker,
    injector: Injector,
    /// One tuning driver per machine fingerprint, all sharing `cache`.
    drivers: Mutex<HashMap<u64, Augem>>,
    cache: Arc<EvalCache>,
    /// Daemon-lifetime counters (`serve.*`), exposed by `op: stats`.
    counters: Collector,
}

impl Server {
    /// Opens the server: loads (and crash-recovers) the persistent
    /// store when `cache_dir` is set.
    pub fn open(config: ServeConfig, injector: Injector) -> Result<Self, StoreError> {
        let counters = Collector::new();
        let store = match &config.cache_dir {
            Some(dir) => KernelStore::open(dir, &counters)?,
            None => KernelStore::in_memory(),
        };
        if !cache_enabled() {
            note_cache_disabled(&counters);
        }
        let breaker = CircuitBreaker::new(config.breaker_threshold);
        Ok(Server {
            config,
            store: Mutex::new(StoreState {
                kernels: store,
                in_flight: HashMap::new(),
            }),
            breaker,
            injector,
            drivers: Mutex::new(HashMap::new()),
            cache: Arc::new(EvalCache::new()),
            counters,
        })
    }

    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The daemon-lifetime counter collector (`serve.*` namespace).
    pub fn counters(&self) -> &Collector {
        &self.counters
    }

    /// Load-recovery statistics of the persistent store.
    pub fn store_stats(&self) -> crate::store::LoadStats {
        *lock(&self.store).kernels.stats()
    }

    /// Number of kernels currently warm in the store.
    pub fn store_len(&self) -> usize {
        lock(&self.store).kernels.len()
    }

    fn family(req: &Request) -> String {
        format!("{}@{}", req.kernel.name(), req.machine.arch.short_name())
    }

    /// Serves one request to completion. `Err(Crashed)` means an
    /// injected commit-window crash fired: the caller must treat the
    /// process as dead (no response may be emitted). A miss on a key
    /// whose tune is already running waits for that tune's outcome.
    pub fn handle(&self, req: &Request) -> Result<Response, Crashed> {
        let (respond, answer) = mpsc::channel();
        match self.serve(req, &respond, Instant::now())? {
            Some(resp) => Ok(resp),
            None => {
                drop(respond);
                answer.recv().map_err(|_| Crashed)
            }
        }
    }

    /// Serves one request dequeued at `started`. `Ok(None)` means it
    /// parked behind another request's tune of the same store key: that
    /// tune's leader answers it on `respond`.
    fn serve(
        &self,
        req: &Request,
        respond: &mpsc::Sender<Response>,
        started: Instant,
    ) -> Result<Option<Response>, Crashed> {
        match req.op {
            Op::Stats | Op::Shutdown => Ok(Some(self.control_response(req))),
            Op::Generate | Op::Tune => self.serve_kernel(req, respond, started),
        }
    }

    fn control_response(&self, req: &Request) -> Response {
        let mut resp = Response::new(&req.id, Status::Ok);
        if req.op == Op::Stats {
            let mut report = RunReport::from_snapshot(&self.counters.snapshot());
            report.kernel = "serve".into();
            resp.report = Some(report.to_json());
        }
        resp
    }

    /// Answers from the store, parks behind the key's running tune, or
    /// registers the key and leads its tune — all in one critical
    /// section.
    fn lookup(
        &self,
        key: &str,
        req: &Request,
        respond: &mpsc::Sender<Response>,
        started: Instant,
    ) -> Lookup<'_> {
        let mut state = lock(&self.store);
        if let Some(hit) = state.kernels.get(key) {
            return Lookup::Hit(hit.clone());
        }
        if let Some(parked) = state.in_flight.get_mut(key) {
            parked.push(Parked {
                id: req.id.clone(),
                op: req.op,
                started,
                respond: respond.clone(),
            });
            return Lookup::Parked;
        }
        state.in_flight.insert(key.to_owned(), Vec::new());
        Lookup::Lead(Flight {
            store: &self.store,
            key: key.to_owned(),
            landed: false,
        })
    }

    fn serve_kernel(
        &self,
        req: &Request,
        respond: &mpsc::Sender<Response>,
        started: Instant,
    ) -> Result<Option<Response>, Crashed> {
        let family = Self::family(req);
        if self.config.breaker_threshold > 0 && self.breaker.is_open(&family) {
            self.counters.add(counter::REJECT_BREAKER, 1);
            return Ok(Some(Response::rejected(&req.id, Reject::Breaker)));
        }
        let step_limit = req.step_limit.or(self.config.run.resil.step_limit);
        let key = store_key(req.kernel.name(), &req.machine, step_limit);

        let mut flight = match self.lookup(&key, req, respond, started) {
            Lookup::Hit(hit) => {
                self.counters.add(counter::STORE_HIT, 1);
                return Ok(Some(self.hit_response(req, &hit)));
            }
            Lookup::Parked => {
                self.counters.add(counter::STORE_MISS, 1);
                self.counters.add(counter::COALESCED, 1);
                return Ok(None);
            }
            Lookup::Lead(flight) => flight,
        };
        self.counters.add(counter::STORE_MISS, 1);

        let driver = self.driver_for(req);
        let mut opts = self.config.run.clone();
        opts.resil.step_limit = step_limit;
        let result = driver.run(Target::Tune(req.kernel), &opts, &self.injector);

        // One breaker outcome per tune, however many requests share it.
        let ok = result.generated.is_some();
        if self.config.breaker_threshold > 0 && self.breaker.record(&family, ok) {
            self.counters.add(augem_resil::counter::BREAKER_TRIP, 1);
        }

        let mut resp = match (&result.generated, &result.degradation) {
            (Some(_), Degradation::None) => Response::new(&req.id, Status::Ok),
            (Some(_), _) => {
                let mut r = Response::new(&req.id, Status::Degraded);
                r.degradation = Some(result.degradation.to_string());
                r
            }
            (None, _) => {
                let mut r = Response::error(
                    &req.id,
                    result
                        .cause
                        .clone()
                        .unwrap_or_else(|| result.degradation.to_string()),
                );
                r.degradation = Some(result.degradation.to_string());
                r
            }
        };
        resp.cache = Some("miss");
        resp.kernel = Some(req.kernel.name().to_string());
        resp.machine = Some(req.machine.fingerprint_tag());
        resp.error = resp.error.or_else(|| result.cause.clone());
        resp.report = Some(result.report.to_json());
        let asm = result.generated.as_ref().map(|g| g.assembly_text());
        if let Some(generated) = &result.generated {
            resp.config_tag = Some(generated.config_tag.clone());
            resp.mflops = Some(generated.mflops);
        }

        // Commit and release the key in one critical section.
        let parked = {
            let mut state = lock(&self.store);
            // Only clean (undegraded) winners enter the persistent
            // store: a fallback kernel is served but not memorialized,
            // so a later request retries the full ladder.
            if let (Some(generated), Some(asm), Degradation::None) =
                (&result.generated, &asm, &result.degradation)
            {
                let entry = StoredKernel {
                    key,
                    kernel: req.kernel.name().to_string(),
                    machine: req.machine.fingerprint_tag(),
                    config_tag: generated.config_tag.clone(),
                    mflops: generated.mflops,
                    asm: asm.clone(),
                };
                match state.kernels.commit(entry, &self.injector, &self.counters) {
                    Ok(()) => {}
                    Err(StoreError::Interrupted) => {
                        if self.config.crash_is_fatal {
                            // Emulate kill -9 in the commit window: no
                            // cleanup, no response, nonzero exit.
                            std::process::exit(9);
                        }
                        // The parked requests die unanswered with the
                        // "process".
                        drop(flight.land(&mut state));
                        return Err(Crashed);
                    }
                    Err(StoreError::Io(e)) => {
                        // Persistence failure degrades durability, not
                        // the response: the kernel still ships.
                        self.counters
                            .event("serve.store.error", &[("error", e.to_string().into())]);
                    }
                }
            }
            flight.land(&mut state)
        };
        for p in parked {
            let mut shared = resp.clone();
            if p.op == Op::Generate {
                shared.asm = asm.clone();
            }
            p.answer(shared);
        }
        if req.op == Op::Generate {
            resp.asm = asm;
        }
        Ok(Some(resp))
    }

    fn hit_response(&self, req: &Request, hit: &StoredKernel) -> Response {
        // A per-request collector so the embedded report reflects this
        // request's (trivial) work, not the daemon's lifetime.
        let c = Collector::new();
        c.add(counter::STORE_HIT, 1);
        let mut report = RunReport::from_snapshot(&c.snapshot());
        report.kernel = hit.kernel.clone();
        report.machine = hit.machine.clone();
        report.config = hit.config_tag.clone();
        report.mflops = hit.mflops;
        let mut resp = Response::new(&req.id, Status::Ok);
        resp.cache = Some("hit");
        resp.kernel = Some(hit.kernel.clone());
        resp.machine = Some(hit.machine.clone());
        resp.config_tag = Some(hit.config_tag.clone());
        resp.mflops = Some(hit.mflops);
        if req.op == Op::Generate {
            resp.asm = Some(hit.asm.clone());
        }
        resp.report = Some(report.to_json());
        resp
    }

    fn driver_for(&self, req: &Request) -> Augem {
        let fp = req.machine.fingerprint();
        let mut drivers = self.drivers.lock().unwrap_or_else(|e| e.into_inner());
        drivers
            .entry(fp)
            .or_insert_with(|| Augem::with_cache(req.machine.clone(), Arc::clone(&self.cache)))
            .clone()
    }
}

fn lock(store: &Mutex<StoreState>) -> std::sync::MutexGuard<'_, StoreState> {
    store.lock().unwrap_or_else(|e| e.into_inner())
}

/// One queued request with its response channel and deadline.
struct Job {
    req: Request,
    deadline: Option<Instant>,
    respond: mpsc::Sender<Response>,
}

struct PoolInner {
    server: Arc<Server>,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// An injected crash "killed the process": workers drop all
    /// remaining work unanswered.
    crashed: AtomicBool,
}

/// Bounded-queue worker pool over a [`Server`].
pub struct ServerPool {
    inner: Arc<PoolInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerPool {
    pub fn start(server: Arc<Server>) -> Self {
        let inner = Arc::new(PoolInner {
            server,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
        });
        let workers = (0..inner.server.config.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        ServerPool { inner, workers }
    }

    /// Submits a request. The response (including typed rejections)
    /// arrives on `respond`; after an injected crash the channel closes
    /// with nothing sent — the request died with the "process".
    pub fn submit(&self, req: Request, respond: mpsc::Sender<Response>) {
        let server = &self.inner.server;
        let deadline = req
            .deadline_ms
            .or(server.config.default_deadline_ms)
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        {
            let mut q = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            if q.len() >= server.config.queue_capacity {
                server.counters.add(counter::REJECT_QUEUE_FULL, 1);
                let _ = respond.send(Response::rejected(&req.id, Reject::QueueFull));
                return;
            }
            server.counters.add(counter::ACCEPTED, 1);
            q.push_back(Job {
                req,
                deadline,
                respond,
            });
        }
        self.inner.available.notify_one();
    }

    /// Convenience: submit and return the response receiver.
    pub fn request(&self, req: Request) -> mpsc::Receiver<Response> {
        let (tx, rx) = mpsc::channel();
        self.submit(req, tx);
        rx
    }

    /// Did an injected crash "kill" the daemon?
    pub fn crashed(&self) -> bool {
        self.inner.crashed.load(Ordering::SeqCst)
    }

    /// Drains the queue and joins the workers. Returns whether an
    /// injected crash "killed" the daemon during the session.
    pub fn shutdown(self) -> bool {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.available.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
        self.inner.crashed.load(Ordering::SeqCst)
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let job = {
            let mut q = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(j) = q.pop_front() {
                    break Some(j);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = inner.available.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else {
            return;
        };
        if inner.crashed.load(Ordering::SeqCst) {
            // The "process" is dead; queued work dies with it.
            continue;
        }
        if let Some(deadline) = job.deadline {
            if Instant::now() > deadline {
                inner.server.counters.add(counter::REJECT_DEADLINE, 1);
                let _ = job
                    .respond
                    .send(Response::rejected(&job.req.id, Reject::Deadline));
                continue;
            }
        }
        let started = Instant::now();
        // The sandbox keeps a panicking request from killing the
        // worker: the client gets a typed error, the thread lives.
        let outcome = sandboxed(|| inner.server.serve(&job.req, &job.respond, started));
        let response = match outcome {
            Ok(Ok(Some(mut resp))) => {
                resp.work_ns = Some(started.elapsed().as_nanos() as u64);
                resp
            }
            // Parked: the leader of the key's tune answers it.
            Ok(Ok(None)) => continue,
            Ok(Err(Crashed)) => {
                inner.crashed.store(true, Ordering::SeqCst);
                continue; // died before responding
            }
            Err(panic_msg) => {
                inner.server.counters.add(counter::WORKER_PANIC, 1);
                Response::error(&job.req.id, format!("worker panicked: {panic_msg}"))
            }
        };
        let _ = job.respond.send(response);
    }
}

/// What one [`serve_lines`] session did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Responses written (any status).
    pub responses: u64,
    /// Requests submitted whose response never arrived (crash).
    pub lost_to_crash: u64,
    /// The session ended via an `op: shutdown` request.
    pub clean_shutdown: bool,
    /// An injected crash fired during the session.
    pub crashed: bool,
}

/// The stdin/stdout (or any `BufRead`/`Write`) transport harness: one
/// JSON request per input line, one JSON response per output line, in
/// completion order (a dedicated writer thread streams responses as
/// workers finish them — slow tunes never stall fast cache hits behind
/// them). Malformed lines get `status: "error"` responses without
/// touching the queue. `op: shutdown` drains the pool and ends the
/// session; EOF does the same.
pub fn serve_lines(
    server: Arc<Server>,
    input: impl std::io::BufRead,
    mut output: impl std::io::Write + Send,
) -> std::io::Result<ServeSummary> {
    let pool = ServerPool::start(Arc::clone(&server));
    let (tx, rx) = mpsc::channel::<Response>();
    let mut summary = ServeSummary::default();
    let mut submitted: u64 = 0;
    let mut shutdown_id: Option<String> = None;
    let sink = Mutex::new(&mut output);

    let write_line = |resp: &Response| -> std::io::Result<()> {
        let mut out = sink.lock().unwrap_or_else(|e| e.into_inner());
        writeln!(out, "{}", resp.to_json().render())?;
        out.flush()
    };

    let (crashed, written) = std::thread::scope(|scope| -> std::io::Result<(bool, u64)> {
        let write_line = &write_line;
        let sink = &sink;
        let writer = scope.spawn(move || write_responses(&rx, sink));

        let mut reader_result: std::io::Result<()> = Ok(());
        for line in input.lines() {
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    reader_result = Err(e);
                    break;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            match crate::proto::parse_request(&line) {
                Ok(req) if req.op == Op::Shutdown => {
                    summary.clean_shutdown = true;
                    shutdown_id = Some(req.id);
                    break;
                }
                Ok(req) => {
                    pool.submit(req, tx.clone());
                    submitted += 1;
                }
                Err(msg) => {
                    // Answer inline; a garbage line must not wait in
                    // the queue behind real work.
                    summary.responses += 1;
                    if let Err(e) = write_line(&Response::error("?", msg)) {
                        reader_result = Err(e);
                        break;
                    }
                }
            }
        }

        // Drain: every accepted request gets exactly one response,
        // unless an injected crash killed the "process" mid-request.
        drop(tx);
        let crashed = pool.shutdown();
        let written = match writer.join() {
            Ok(r) => r?,
            Err(_) => 0,
        };
        reader_result?;
        Ok((crashed, written))
    })?;

    summary.crashed = crashed;
    summary.responses += written;
    summary.lost_to_crash = submitted.saturating_sub(written);
    if let Some(id) = shutdown_id {
        let resp = Response::new(&id, Status::Ok);
        writeln!(output, "{}", resp.to_json().render())?;
        output.flush()?;
    }
    Ok(summary)
}

/// The writer thread of [`serve_lines`]: blocks for the next response,
/// writes it and every response already queued behind it, then flushes
/// once. A burst shares one flush, so behind a `BufWriter` it costs one
/// `write(2)`; a lone response is flushed before the loop blocks again,
/// so a quiet daemon adds no latency. Returns the responses written.
fn write_responses<W: std::io::Write>(
    rx: &mpsc::Receiver<Response>,
    sink: &Mutex<W>,
) -> std::io::Result<u64> {
    let mut written = 0u64;
    while let Ok(first) = rx.recv() {
        let mut out = sink.lock().unwrap_or_else(|e| e.into_inner());
        for resp in std::iter::once(first).chain(rx.try_iter()) {
            writeln!(out, "{}", resp.to_json().render())?;
            written += 1;
        }
        out.flush()?;
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// A sink that records its bytes and reports each flush, with the
    /// line count at that moment, on a channel.
    struct FlushProbe {
        bytes: Vec<u8>,
        flushes: mpsc::Sender<usize>,
    }

    impl Write for FlushProbe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            let lines = self.bytes.iter().filter(|&&b| b == b'\n').count();
            let _ = self.flushes.send(lines);
            Ok(())
        }
    }

    fn probe() -> (Mutex<FlushProbe>, mpsc::Receiver<usize>) {
        let (flushes, seen) = mpsc::channel();
        let sink = FlushProbe {
            bytes: Vec::new(),
            flushes,
        };
        (Mutex::new(sink), seen)
    }

    fn response(i: usize) -> Response {
        Response::new(&format!("r{i}"), Status::Ok)
    }

    #[test]
    fn queued_responses_are_written_whole_then_flushed_once() {
        let (tx, rx) = mpsc::channel();
        for i in 0..5 {
            tx.send(response(i)).unwrap();
        }
        drop(tx);
        let (sink, flushes) = probe();
        assert_eq!(write_responses(&rx, &sink).unwrap(), 5);
        assert_eq!(flushes.try_iter().collect::<Vec<_>>(), [5], "one flush");
        let sink = sink.into_inner().unwrap();
        let text = String::from_utf8(sink.bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(*line, response(i).to_json().render());
        }
    }

    fn daxpy(id: &str) -> Request {
        Request {
            id: id.to_string(),
            op: Op::Tune,
            kernel: augem_kernels::DlaKernel::Axpy,
            machine: augem_machine::MachineSpec::sandy_bridge(),
            deadline_ms: None,
            step_limit: None,
        }
    }

    #[test]
    fn an_unwinding_leader_frees_its_key_and_answers_each_parked_request() {
        let server = Server::open(ServeConfig::default(), Injector::disabled()).unwrap();
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        let unwound = sandboxed(|| {
            let Lookup::Lead(_flight) = server.lookup("k", &daxpy("leader"), &tx, now) else {
                panic!("a free key leads");
            };
            for id in ["f1", "f2"] {
                let parked = server.lookup("k", &daxpy(id), &tx, now);
                assert!(matches!(parked, Lookup::Parked), "{id} parks");
            }
            panic!("the leader unwinds mid-tune");
        });
        assert_eq!(unwound.unwrap_err(), "the leader unwinds mid-tune");
        drop(tx);
        let answers: Vec<Response> = rx.iter().collect();
        let ids: Vec<&str> = answers.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["f1", "f2"], "each parked request gets one answer");
        for r in &answers {
            assert_eq!(r.status, Status::Error);
            assert!(r.error.as_deref().unwrap().contains("panicked"));
            assert!(r.work_ns.is_some());
        }
        assert!(lock(&server.store).in_flight.is_empty(), "the key is free");
        let (tx, _rx) = mpsc::channel();
        let next = server.lookup("k", &daxpy("next"), &tx, now);
        assert!(matches!(next, Lookup::Lead(_)), "the next miss leads");
    }

    #[test]
    fn a_lone_response_is_flushed_before_the_writer_waits_again() {
        let (tx, rx) = mpsc::channel();
        let (sink, flushes) = probe();
        let wait = Duration::from_secs(30);
        std::thread::scope(|s| {
            let sink = &sink;
            let writer = s.spawn(move || write_responses(&rx, sink));
            // The sender stays open: the writer must flush each
            // response without waiting for company.
            tx.send(response(0)).unwrap();
            assert_eq!(flushes.recv_timeout(wait), Ok(1));
            tx.send(response(1)).unwrap();
            assert_eq!(flushes.recv_timeout(wait), Ok(2));
            drop(tx);
            assert_eq!(writer.join().unwrap().unwrap(), 2);
        });
    }
}
