//! The daemon fault-injection matrix, single flight, and the serving
//! loop's gates.
//!
//! Every row proves the same global property from a different angle:
//! the daemon never hangs and never poisons state — every accepted
//! request either gets a typed response or dies with the (injected)
//! process crash, and a restart recovers the persistent store to a
//! state bit-identical to a clean run over the surviving requests.
//! Concurrent misses on one store key run one tune, and the requests
//! waiting on it hold no worker.

use augem_kernels::DlaKernel;
use augem_machine::MachineSpec;
use augem_obs::hash::splitmix64;
use augem_obs::Json;
use augem_resil::{Fault, InjectionPlan, Injector, Site, Trigger};
use augem_serve::{
    counter, serve_lines, Op, Reject, Request, Response, ServeConfig, Server, ServerPool, Status,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("augem-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn req(id: &str, kernel: DlaKernel) -> Request {
    Request {
        id: id.to_string(),
        op: Op::Tune,
        kernel,
        machine: MachineSpec::sandy_bridge(),
        deadline_ms: None,
        step_limit: None,
    }
}

/// A lifetime counter of `server` (0 if it never moved).
fn count(server: &Server, name: &str) -> u64 {
    let snap = server.counters().snapshot();
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Tunes that ran: every miss either tuned or parked on a tune.
fn tunes(server: &Server) -> u64 {
    count(server, counter::STORE_MISS) - count(server, counter::COALESCED)
}

/// Eight identical requests for one store key on Sandy Bridge, `tune`
/// and `generate` alternating.
fn storm(kernel: DlaKernel) -> Vec<Request> {
    (0..8)
        .map(|i| {
            let mut r = req(&format!("s{i}"), kernel);
            if i % 2 == 1 {
                r.op = Op::Generate;
            }
            r
        })
        .collect()
}

fn serve_one(server: &Arc<Server>, r: Request) -> Option<Response> {
    let pool = ServerPool::start(Arc::clone(server));
    let rx = pool.request(r);
    let resp = rx.recv().ok();
    pool.shutdown();
    resp
}

/// Byte-for-byte comparison of two store directories: the journal, and
/// `entries/`, which must be empty (the quarantine area is post-mortem
/// state, not cache state).
fn assert_bit_identical(a: &Path, b: &Path) {
    assert_eq!(
        std::fs::read(a.join("journal.jsonl")).unwrap(),
        std::fs::read(b.join("journal.jsonl")).unwrap(),
        "journals differ between {} and {}",
        a.display(),
        b.display()
    );
    for d in [a, b] {
        let entries = std::fs::read_dir(d.join("entries")).unwrap().count();
        assert_eq!(entries, 0, "{} holds entry files", d.display());
    }
}

/// Row 1 — worker panic mid-tune: every candidate evaluation in the
/// sweep panics (injected), the ladder degrades to the paper-default
/// configuration, and the client still gets a kernel — typed as
/// `degraded`, carrying the run report. The daemon machinery survives.
#[test]
fn panics_mid_tune_degrade_to_paper_default_not_a_hang() {
    let injector =
        Injector::new(InjectionPlan::new(11).with(Site::Eval, Fault::Panic, Trigger::Rate(1.0)));
    let config = ServeConfig {
        workers: 1,
        breaker_threshold: 0, // isolate the panic row from the breaker row
        ..ServeConfig::default()
    };
    let server = Arc::new(Server::open(config, injector).unwrap());

    let resp = serve_one(&server, req("p1", DlaKernel::Axpy)).expect("a response, not a hang");
    assert_eq!(resp.status, Status::Degraded, "ladder ships the default");
    let rung = resp.degradation.expect("degradation rung is named");
    assert!(rung.contains("default"), "paper default rung: {rung}");
    assert!(resp.report.is_some(), "degraded responses carry the report");
    assert!(
        resp.mflops.is_some(),
        "a fallback kernel still has a measurement"
    );

    // A fresh server without injection serves the same request clean:
    // the failure storm poisoned nothing.
    let server2 = Arc::new(Server::open(ServeConfig::default(), Injector::disabled()).unwrap());
    let ok = serve_one(&server2, req("p2", DlaKernel::Axpy)).unwrap();
    assert_eq!(ok.status, Status::Ok);
}

/// Row 1a — when even the paper default cannot be verified (injected
/// verification panics at every rung), the ladder bottoms out in a
/// *typed* error carrying the run report — never a hang, never a
/// poisoned worker.
#[test]
fn exhausted_ladder_yields_typed_error_with_report() {
    let injector =
        Injector::new(InjectionPlan::new(11).with(Site::Verify, Fault::Panic, Trigger::Rate(1.0)));
    let config = ServeConfig {
        workers: 1,
        breaker_threshold: 0,
        ..ServeConfig::default()
    };
    let server = Arc::new(Server::open(config, injector).unwrap());
    let resp = serve_one(&server, req("e1", DlaKernel::Axpy)).expect("a response, not a hang");
    assert_eq!(resp.status, Status::Error, "typed error, not a panic");
    assert!(resp.error.is_some());
    assert!(resp.report.is_some(), "even errors carry the run report");
}

/// Row 1b — a panic that escapes the tuner's own sandboxes is contained
/// by the worker's outer sandbox: typed error response, worker thread
/// lives to serve the next request.
#[test]
fn outer_sandbox_contains_escaped_panics() {
    // A request whose machine has been mutilated so the pipeline
    // panics outside the per-candidate sandbox is hard to fabricate
    // through the public API; instead, verify the containment contract
    // directly at the resil layer the worker uses...
    let caught: Result<(), String> = augem_resil::sandboxed(|| panic!("escaped"));
    assert!(caught.is_err());

    // ...and that the pool keeps serving after a (tuner-contained)
    // failure storm: verification panics at every ladder rung, both
    // requests come back as typed errors, the worker thread lives.
    let storm =
        Injector::new(InjectionPlan::new(7).with(Site::Verify, Fault::Panic, Trigger::Rate(1.0)));
    let cfg2 = ServeConfig {
        workers: 1,
        breaker_threshold: 0,
        ..ServeConfig::default()
    };
    let stormy = Arc::new(Server::open(cfg2, storm).unwrap());
    let spool = ServerPool::start(Arc::clone(&stormy));
    let r1 = spool.request(req("s1", DlaKernel::Axpy));
    let r2 = spool.request(req("s2", DlaKernel::Scal));
    assert_eq!(r1.recv().unwrap().status, Status::Error);
    assert_eq!(r2.recv().unwrap().status, Status::Error);
    spool.shutdown();
}

/// Row 2 — kill-9 in the middle of a commit's journal append: the
/// crashed request goes unanswered (the process died), restart recovery
/// drops the torn record, and re-serving the pending request converges
/// to a store bit-identical to a never-crashed run.
#[test]
fn crash_in_commit_window_recovers_bit_identical_and_reserves() {
    let dir = tmpdir("crashwin");
    let reference = tmpdir("crashwin-ref");

    // Reference: a clean daemon serving both requests.
    {
        let config = ServeConfig {
            workers: 1,
            cache_dir: Some(reference.clone()),
            ..ServeConfig::default()
        };
        let server = Arc::new(Server::open(config, Injector::disabled()).unwrap());
        let pool = ServerPool::start(Arc::clone(&server));
        let r1 = pool.request(req("a", DlaKernel::Axpy));
        let r2 = pool.request(req("b", DlaKernel::Scal));
        assert_eq!(r1.recv().unwrap().status, Status::Ok);
        assert_eq!(r2.recv().unwrap().status, Status::Ok);
        assert!(!pool.shutdown());
    }

    // Crash run: the second commit dies in the window.
    {
        let config = ServeConfig {
            workers: 1,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let injector = Injector::new(InjectionPlan::new(0).with(
            Site::StoreCommit,
            Fault::Crash,
            Trigger::Nth(2),
        ));
        let server = Arc::new(Server::open(config, injector).unwrap());
        let pool = ServerPool::start(Arc::clone(&server));
        let r1 = pool.request(req("a", DlaKernel::Axpy));
        let r2 = pool.request(req("b", DlaKernel::Scal));
        assert_eq!(r1.recv().unwrap().status, Status::Ok);
        assert!(
            r2.recv().is_err(),
            "the crashed request must NOT get a response"
        );
        assert!(pool.shutdown(), "the pool must report the crash");
    }
    let torn = std::fs::read(dir.join("journal.jsonl")).unwrap();
    assert!(!torn.ends_with(b"\n"), "the journal ends in a torn record");

    // Restart: recovery + re-serving the pending request converges.
    {
        let config = ServeConfig {
            workers: 1,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let server = Arc::new(Server::open(config, Injector::disabled()).unwrap());
        let stats = server.store_stats();
        assert_eq!(stats.journal_lines_dropped, 1, "the torn record is dropped");
        assert!(!stats.quarantined, "a torn tail is a crash, not damage");
        assert_eq!(server.store_len(), 1, "only the clean commit survived");
        let resp = serve_one(&server, req("b", DlaKernel::Scal)).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.cache, Some("miss"), "the pending request re-tunes");
    }
    assert_bit_identical(&dir, &reference);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reference);
}

/// Row 3 — a damaged record on disk: one byte of the second record
/// with its high bit flipped (not UTF-8). The daemon still opens, keeps
/// the journal as found in `quarantine/`, serves the intact record from
/// the store, never serves the damaged one, re-tunes that key, and the
/// store converges back to the clean bytes.
#[test]
fn a_damaged_record_is_dropped_then_reconverges() {
    let dir = tmpdir("corrupt");
    let reference = tmpdir("corrupt-ref");
    let config = |d: &Path| ServeConfig {
        workers: 1,
        cache_dir: Some(d.to_path_buf()),
        ..ServeConfig::default()
    };
    for d in [&dir, &reference] {
        let server = Arc::new(Server::open(config(d), Injector::disabled()).unwrap());
        for (id, kernel) in [("c", DlaKernel::Axpy), ("d", DlaKernel::Scal)] {
            let resp = serve_one(&server, req(id, kernel)).unwrap();
            assert_eq!(resp.status, Status::Ok);
        }
    }
    let journal = dir.join("journal.jsonl");
    let mut bytes = std::fs::read(&journal).unwrap();
    let last = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .unwrap();
    bytes[last + 40] ^= 0x80;
    std::fs::write(&journal, &bytes).unwrap();

    let server = Arc::new(Server::open(config(&dir), Injector::disabled()).unwrap());
    let stats = server.store_stats();
    assert_eq!(stats.journal_lines_dropped, 1);
    assert!(stats.quarantined);
    assert_eq!(server.store_len(), 1);
    assert_eq!(
        std::fs::read(dir.join("quarantine").join("journal.jsonl")).unwrap(),
        bytes,
        "the damaged journal is kept for post-mortem"
    );
    let hit = serve_one(&server, req("c2", DlaKernel::Axpy)).unwrap();
    assert_eq!(hit.cache, Some("hit"), "the intact record still serves");
    let resp = serve_one(&server, req("d2", DlaKernel::Scal)).unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.cache, Some("miss"), "damaged records are never served");
    assert_eq!(tunes(&server), 1, "the damaged key re-tunes");
    assert_bit_identical(&dir, &reference);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reference);
}

/// Row 4 — overload: a full queue sheds with `queue_full` at admission;
/// a request whose deadline lapses in the queue is shed with
/// `deadline` at dequeue; the in-flight request still completes.
#[test]
fn overload_sheds_typed_rejections_not_hangs() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let server = Arc::new(Server::open(config, Injector::disabled()).unwrap());
    let pool = ServerPool::start(Arc::clone(&server));

    // Occupy the single worker with a real tune.
    let busy = pool.request(req("busy", DlaKernel::Axpy));
    std::thread::sleep(std::time::Duration::from_millis(150));

    // Fills the queue; its deadline is already over when dequeued.
    let mut late = req("late", DlaKernel::Scal);
    late.deadline_ms = Some(0);
    let late_rx = pool.request(late);

    // Queue is now full: immediate typed rejection.
    let shed_rx = pool.request(req("shed", DlaKernel::Dot));
    let shed = shed_rx.recv().unwrap();
    assert_eq!(shed.status, Status::Rejected);
    assert_eq!(shed.rejected, Some(Reject::QueueFull));

    let busy_resp = busy.recv().unwrap();
    assert_eq!(busy_resp.status, Status::Ok);
    let late_resp = late_rx.recv().unwrap();
    assert_eq!(late_resp.status, Status::Rejected);
    assert_eq!(late_resp.rejected, Some(Reject::Deadline));
    pool.shutdown();
}

/// Row 5 — circuit breaker: consecutive failing requests for one
/// kernel×machine family open its circuit; further requests are
/// refused with `breaker` while other families still serve.
#[test]
fn failing_family_trips_breaker_other_families_survive() {
    // Verification panics at every rung → generated: None → the
    // breaker counts the failure (a degraded-but-shipped kernel would
    // not trip it).
    let injector =
        Injector::new(InjectionPlan::new(3).with(Site::Verify, Fault::Panic, Trigger::Rate(1.0)));
    let config = ServeConfig {
        workers: 1,
        breaker_threshold: 2,
        ..ServeConfig::default()
    };
    let server = Arc::new(Server::open(config, injector).unwrap());
    let pool = ServerPool::start(Arc::clone(&server));

    for id in ["f1", "f2"] {
        let r = pool.request(req(id, DlaKernel::Axpy)).recv().unwrap();
        assert_eq!(r.status, Status::Error);
    }
    let tripped = pool.request(req("f3", DlaKernel::Axpy)).recv().unwrap();
    assert_eq!(tripped.status, Status::Rejected);
    assert_eq!(tripped.rejected, Some(Reject::Breaker));
    pool.shutdown();

    let snap = server.counters().snapshot();
    assert_eq!(
        snap.counters.get(augem_resil::counter::BREAKER_TRIP),
        Some(&1)
    );
    assert_eq!(
        snap.counters.get(augem_serve::counter::REJECT_BREAKER),
        Some(&1)
    );
}

/// Warm start: a second daemon process (same store dir) answers repeat
/// requests from disk without re-tuning, and the response still embeds
/// a run report.
#[test]
fn warm_start_serves_hits_without_retuning() {
    let dir = tmpdir("warm");
    let cold_cfg = ServeConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let cold = Arc::new(Server::open(cold_cfg.clone(), Injector::disabled()).unwrap());
    let first = serve_one(&cold, req("w1", DlaKernel::Scal)).unwrap();
    assert_eq!(first.cache, Some("miss"));
    drop(cold);

    let warm = Arc::new(Server::open(cold_cfg, Injector::disabled()).unwrap());
    assert_eq!(warm.store_len(), 1);
    let second = serve_one(&warm, req("w2", DlaKernel::Scal)).unwrap();
    assert_eq!(second.status, Status::Ok);
    assert_eq!(second.cache, Some("hit"), "no re-tune on a warm store");
    assert_eq!(second.config_tag, first.config_tag);
    assert_eq!(second.mflops, first.mflops);
    let report = second.report.expect("hits still embed a run report");
    assert_eq!(
        report.get("schema").and_then(Json::as_str),
        Some("augem.run-report/v1")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The NDJSON harness end to end: every request line gets exactly one
/// response line (garbage included), correlated by id, and `shutdown`
/// ends the session cleanly.
#[test]
fn serve_lines_round_trip_with_garbage_and_shutdown() {
    let input = concat!(
        "{\"id\":\"r1\",\"op\":\"tune\",\"kernel\":\"daxpy\",\"machine\":\"snb\"}\n",
        "this is not json\n",
        "{\"id\":\"r2\",\"op\":\"tune\",\"kernel\":\"daxpy\",\"machine\":\"snb\"}\n",
        "{\"id\":\"st\",\"op\":\"stats\"}\n",
        "{\"id\":\"bye\",\"op\":\"shutdown\"}\n",
        "{\"id\":\"after\",\"op\":\"tune\",\"kernel\":\"ddot\",\"machine\":\"snb\"}\n",
    );
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Arc::new(Server::open(config, Injector::disabled()).unwrap());
    let mut output = Vec::new();
    let summary = serve_lines(Arc::clone(&server), input.as_bytes(), &mut output).unwrap();
    assert!(summary.clean_shutdown);
    assert!(!summary.crashed);
    assert_eq!(summary.lost_to_crash, 0);

    let text = String::from_utf8(output).unwrap();
    let responses: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    let ids: Vec<&str> = responses
        .iter()
        .filter_map(|r| r.get("id").and_then(Json::as_str))
        .collect();
    // r1 + garbage + r2 + stats + shutdown echo; nothing after shutdown.
    assert_eq!(ids.len(), 5, "5 responses: {ids:?}");
    assert!(!ids.contains(&"after"), "no service past shutdown");
    for want in ["r1", "r2", "st", "bye", "?"] {
        assert_eq!(
            ids.iter().filter(|i| **i == want).count(),
            1,
            "exactly one response for {want:?}"
        );
    }
    // r1 and r2 are the same key. Whichever is dequeued first tunes;
    // the other parks on that tune (a miss) or, if it arrives after
    // the commit, hits. Either way exactly one tune runs.
    assert_eq!(tunes(&server), 1, "one tune for one key");
    let hits = responses
        .iter()
        .filter(|r| r.get("cache").and_then(Json::as_str) == Some("hit"))
        .count();
    let misses = responses
        .iter()
        .filter(|r| r.get("cache").and_then(Json::as_str) == Some("miss"))
        .count();
    assert_eq!(hits + misses, 2);
}

/// Single flight — a cold storm of identical requests on two workers
/// runs one tune and one commit, and every request gets its own
/// response carrying the same kernel (assembly on the `generate` ones).
#[test]
fn a_cold_storm_on_one_key_runs_exactly_one_tune() {
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Arc::new(Server::open(config, Injector::disabled()).unwrap());
    let pool = ServerPool::start(Arc::clone(&server));
    let sent: Vec<(Request, mpsc::Receiver<Response>)> = storm(DlaKernel::Ger)
        .into_iter()
        .map(|r| (r.clone(), pool.request(r)))
        .collect();
    let answers: Vec<(Request, Response)> = sent
        .into_iter()
        .map(|(r, rx)| {
            let resp = rx.recv().expect("every request is answered");
            (r, resp)
        })
        .collect();
    assert!(!pool.shutdown());

    assert_eq!(tunes(&server), 1, "one tune for eight requests");
    assert_eq!(count(&server, counter::STORE_COMMIT), 1);
    // The storm is queued within microseconds and a dger tune takes
    // hundreds of milliseconds, so all seven followers park (a
    // follower dequeued after the commit would hit instead).
    assert_eq!(count(&server, counter::COALESCED), 7, "seven parked");
    // Exactly one report carries the tune; the seven parked requests
    // report only their own work.
    let report = |resp: &Response| resp.report.clone().expect("every response has a report");
    let tuned: Vec<&Response> = answers
        .iter()
        .map(|(_, resp)| resp)
        .filter(|resp| {
            let r = report(resp);
            r.get("tuner").is_some()
                && r.get("stages").and_then(Json::as_arr).is_some_and(|s| {
                    s.iter()
                        .any(|st| st.get("name").and_then(Json::as_str) == Some("akg"))
                })
        })
        .collect();
    assert_eq!(tuned.len(), 1, "one report carries the tune");
    for (r, resp) in &answers {
        if std::ptr::eq(resp, tuned[0]) {
            continue;
        }
        let rep = report(resp);
        let reported = |name: &str| {
            rep.get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_u64)
        };
        assert_eq!(reported(counter::COALESCED), Some(1), "{}", r.id);
        assert_eq!(reported(counter::STORE_MISS), Some(1), "{}", r.id);
        assert!(rep.get("tuner").is_none(), "{}: no tuner block", r.id);
        assert_eq!(
            rep.get("stages").and_then(Json::as_arr).map(<[Json]>::len),
            Some(0)
        );
        assert_eq!(
            rep.get("config").and_then(Json::as_str),
            resp.config_tag.as_deref()
        );
    }
    let (_, first) = &answers[0];
    let asm = answers
        .iter()
        .find_map(|(r, resp)| (r.op == Op::Generate).then(|| resp.asm.clone()))
        .flatten()
        .expect("generate responses carry assembly");
    for (r, resp) in &answers {
        assert_eq!(resp.id, r.id, "answered under its own id");
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.cache, Some("miss"), "{}: parked requests missed", r.id);
        assert_eq!(resp.config_tag, first.config_tag);
        assert_eq!(resp.mflops, first.mflops);
        assert!(resp.report.is_some());
        assert!(resp.work_ns.is_some());
        match r.op {
            Op::Generate => assert_eq!(resp.asm.as_ref(), Some(&asm)),
            _ => assert_eq!(resp.asm, None),
        }
    }
}

/// Single flight — requests parked on a running tune hold no worker:
/// with a storm for a slow family in flight on two workers, a store
/// hit submitted after the storm is answered first.
#[test]
fn requests_parked_on_a_tune_hold_no_worker() {
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Arc::new(Server::open(config, Injector::disabled()).unwrap());
    let pool = ServerPool::start(Arc::clone(&server));
    let warm = pool.request(req("warm", DlaKernel::Scal)).recv().unwrap();
    assert_eq!(warm.status, Status::Ok);

    let (tx, rx) = mpsc::channel();
    for r in storm(DlaKernel::Ger) {
        pool.submit(r, tx.clone());
    }
    pool.submit(req("hit", DlaKernel::Scal), tx);
    let first = rx.recv().unwrap();
    assert_eq!(first.id, "hit", "the hit waited behind the storm's tune");
    assert_eq!(first.cache, Some("hit"));
    assert_eq!(rx.iter().count(), 8, "the storm is answered too");
    assert!(!pool.shutdown());
}

/// Single flight under a crash — a storm whose leader dies in the
/// commit window gets no response at all: the parked requests die
/// with the "process". A restart serves the key after one tune.
#[test]
fn a_storm_whose_leader_crashes_gets_no_response_and_restarts_with_one_tune() {
    let dir = tmpdir("stormcrash");
    let config = ServeConfig {
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    {
        let injector = Injector::new(InjectionPlan::new(0).with(
            Site::StoreCommit,
            Fault::Crash,
            Trigger::Nth(1),
        ));
        let server = Arc::new(Server::open(config.clone(), injector).unwrap());
        let pool = ServerPool::start(Arc::clone(&server));
        let rxs: Vec<_> = storm(DlaKernel::Axpy)
            .into_iter()
            .map(|r| pool.request(r))
            .collect();
        for rx in &rxs {
            assert!(rx.recv().is_err(), "no response from a dead daemon");
        }
        assert!(pool.shutdown(), "the pool must report the crash");
    }
    {
        let server = Arc::new(Server::open(config, Injector::disabled()).unwrap());
        assert_eq!(server.store_stats().journal_lines_dropped, 1);
        let pool = ServerPool::start(Arc::clone(&server));
        let rxs: Vec<_> = storm(DlaKernel::Axpy)
            .into_iter()
            .map(|r| pool.request(r))
            .collect();
        for rx in &rxs {
            assert_eq!(rx.recv().unwrap().status, Status::Ok);
        }
        assert!(!pool.shutdown());
        assert_eq!(tunes(&server), 1, "one tune after the restart");
        assert_eq!(count(&server, counter::STORE_COMMIT), 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every kernel × paper-platform family.
fn families() -> Vec<(DlaKernel, MachineSpec)> {
    MachineSpec::paper_platforms()
        .into_iter()
        .flat_map(|m| DlaKernel::ALL.into_iter().map(move |k| (k, m.clone())))
        .collect()
}

fn family_req(id: String, op: Op, (kernel, machine): &(DlaKernel, MachineSpec)) -> Request {
    Request {
        id,
        op,
        kernel: *kernel,
        machine: machine.clone(),
        deadline_ms: None,
        step_limit: None,
    }
}

/// The serving loop's three gates over all 12 families. A daemon tunes
/// every family into a store; a warm-started daemon answers at least
/// 90% of 2,000 seeded generate/tune requests from it. A one-worker
/// daemon killed in its 5th commit window, then restarted on exactly
/// the unanswered requests, answers every request exactly once, and
/// its recovered store is byte-identical to a never-crashed run's.
#[test]
fn serving_loop_hits_warm_answers_exactly_once_and_recovers_bit_identical() {
    let families = families();
    let store_dir = tmpdir("loop");
    let pool_config = |workers: usize, dir: &Path| ServeConfig {
        workers,
        queue_capacity: 4096,
        cache_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    };

    // Cold: tune every family once through the pool.
    {
        let server =
            Arc::new(Server::open(pool_config(4, &store_dir), Injector::disabled()).unwrap());
        let pool = ServerPool::start(Arc::clone(&server));
        let rxs: Vec<_> = families
            .iter()
            .enumerate()
            .map(|(i, f)| pool.request(family_req(format!("cold-{i}"), Op::Tune, f)))
            .collect();
        for rx in &rxs {
            rx.recv().expect("every cold request is answered");
        }
        pool.shutdown();
    }

    // Repeat: a warm-started daemon over the same store.
    const REPEAT: usize = 2000;
    let hits = {
        let server =
            Arc::new(Server::open(pool_config(4, &store_dir), Injector::disabled()).unwrap());
        let pool = ServerPool::start(Arc::clone(&server));
        let rxs: Vec<_> = (0..REPEAT)
            .map(|i| {
                let r = splitmix64(0xBE9C ^ i as u64);
                let family = &families[(r % families.len() as u64) as usize];
                let op = if r.is_multiple_of(4) {
                    Op::Generate
                } else {
                    Op::Tune
                };
                pool.request(family_req(format!("r-{i}"), op, family))
            })
            .collect();
        let hits = rxs
            .iter()
            .filter(|rx| rx.recv().expect("every repeat request is answered").cache == Some("hit"))
            .count();
        pool.shutdown();
        hits
    };
    assert!(
        hits as f64 / REPEAT as f64 >= 0.90,
        "repeat-phase hit rate {hits}/{REPEAT} (gate: >= 90%)"
    );

    // Crash-restart: one worker, so commits land in request order.
    let run =
        |dir: &Path, injector: Injector, ids: &[usize], answered: &mut HashMap<String, usize>| {
            let server = Arc::new(Server::open(pool_config(1, dir), injector).unwrap());
            let pool = ServerPool::start(Arc::clone(&server));
            let rxs: Vec<_> = ids
                .iter()
                .map(|&i| {
                    let id = format!("x-{i}");
                    (
                        id.clone(),
                        pool.request(family_req(id, Op::Tune, &families[i])),
                    )
                })
                .collect();
            for (id, rx) in &rxs {
                if rx.recv().is_ok() {
                    *answered.entry(id.clone()).or_insert(0) += 1;
                }
            }
            pool.shutdown()
        };
    let all: Vec<usize> = (0..families.len()).collect();
    let reference = tmpdir("loop-ref");
    assert!(!run(
        &reference,
        Injector::disabled(),
        &all,
        &mut HashMap::new()
    ));

    let crashed = tmpdir("loop-crash");
    let mut answered = HashMap::new();
    let crash =
        Injector::new(InjectionPlan::new(0).with(Site::StoreCommit, Fault::Crash, Trigger::Nth(5)));
    assert!(run(&crashed, crash, &all, &mut answered), "the crash fired");
    let pending: Vec<usize> = all
        .iter()
        .copied()
        .filter(|i| !answered.contains_key(&format!("x-{i}")))
        .collect();
    assert!(!pending.is_empty(), "the crash left requests unanswered");
    assert!(!run(
        &crashed,
        Injector::disabled(),
        &pending,
        &mut answered
    ));
    let lost = all
        .iter()
        .filter(|i| !answered.contains_key(&format!("x-{i}")))
        .count();
    let duplicated = answered.values().filter(|&&c| c > 1).count();
    assert_eq!((lost, duplicated), (0, 0), "lost / duplicated responses");
    assert_bit_identical(&crashed, &reference);

    for d in [&store_dir, &reference, &crashed] {
        let _ = std::fs::remove_dir_all(d);
    }
}
