//! End-to-end telemetry: a traced GEMM generation must account for every
//! pipeline stage and produce a valid `augem.run-report/v1` document.

use augem::machine::MachineSpec;
use augem::obs::{stage, Json};
use augem::resil::{Fault, InjectionPlan, Injector, Site, Trigger};
use augem::{Augem, Degradation, DlaKernel, RunOptions, Target};

#[test]
fn traced_gemm_reports_all_four_pipeline_stages() {
    let driver = Augem::new(MachineSpec::sandy_bridge());
    let r = driver.run(
        Target::Tune(DlaKernel::Gemm),
        &RunOptions::plain(),
        &Injector::disabled(),
    );
    let g = r.generated.expect("traced generation");
    assert!(g.mflops > 0.0);

    let snap = &r.report;
    let stages = &snap.stages;
    for name in [stage::CGEN, stage::IDENTIFY, stage::AKG, stage::SIM] {
        let s = stages
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("stage `{name}` missing from {stages:?}"));
        assert!(s.wall_ns > 0, "stage `{name}` has zero wall time");
        assert!(s.calls > 0, "stage `{name}` has zero calls");
    }
    // The tuner sweep wraps everything. Code generation and simulation
    // run per candidate; the transform stage (cgen + identify) runs once
    // per distinct transform configuration, which is still many.
    let tune = stages.iter().find(|s| s.name == stage::TUNE).unwrap();
    assert_eq!(tune.calls, 1);
    let cgen = stages.iter().find(|s| s.name == stage::CGEN).unwrap();
    assert!(cgen.calls > 1, "tuning should run cgen per candidate");

    // Pipeline counters accumulated across the sweep.
    assert!(snap.counters["cgen.stmts.before"] > 0);
    assert!(snap.counters["cgen.stmts.after"] >= snap.counters["cgen.stmts.before"]);
    assert!(snap.counters["identify.regions"] > 0);
    assert!(snap.counters["sim.cycles"] > 0);
    assert!(snap.highwater["regs.vec"] > 0);
    // The winner's strategy label survives the final rebuild.
    assert!(!snap.labels["opt.simd_strategy"].is_empty());
}

#[test]
fn run_report_document_is_complete_and_round_trips() {
    let driver = Augem::new(MachineSpec::sandy_bridge());
    let r = driver.run(
        Target::Tune(DlaKernel::Gemm),
        &RunOptions::plain(),
        &Injector::disabled(),
    );
    let (g, run) = (r.generated.expect("report generation"), r.report);

    assert_eq!(run.kernel, "dgemm");
    assert_eq!(run.machine, "sandybridge");
    assert_eq!(run.config, g.config_tag);
    assert!(run.mflops > 0.0);
    assert!(!run.simd_strategy.is_empty());
    for name in [stage::CGEN, stage::IDENTIFY, stage::AKG, stage::SIM] {
        assert!(run.stage_wall_ns(name).unwrap_or(0) > 0, "stage {name}");
    }

    let tuner = run.tuner.as_ref().expect("tuner telemetry");
    assert!(tuner.ranking.len() >= 2, "expected a real search space");
    assert_eq!(tuner.built as usize, tuner.ranking.len());
    assert_eq!(tuner.generated, tuner.built + tuner.pruned);
    assert!(tuner.best_mflops >= tuner.median_mflops);
    assert!((tuner.best_mflops - run.mflops).abs() < 1e-9);

    let sim = run.sim.as_ref().expect("sim counters");
    assert!(sim.cycles > 0 && sim.flops > 0);
    assert_eq!(sim.cycles, g.report.cycles);
    assert_eq!(sim.l1_hits + sim.l1_misses, sim.mem_accesses);

    // The emitted text parses back into the same document, so it carries
    // every field's value (`RunReport::to_json` renders every field).
    let doc = run.to_json();
    assert_eq!(Json::parse(&doc.render_pretty()).unwrap(), doc);
}

#[test]
fn resilient_run_reports_fault_counters_under_the_resil_stage() {
    let driver = Augem::new(MachineSpec::sandy_bridge());
    let policy = RunOptions::default();
    // One injected evaluation panic: absorbed by a retry, and every
    // step of that recovery must be visible in the run report.
    let inj = Injector::new(InjectionPlan::new(1).with(Site::Eval, Fault::Panic, Trigger::Nth(1)));
    let r = driver.run(Target::Tune(DlaKernel::Axpy), &policy, &inj);
    assert_eq!(r.degradation, Degradation::None);

    let counters = &r.report.counters;
    assert_eq!(counters["resil.eval.panic"], 1, "{counters:?}");
    assert!(counters["resil.retry"] >= 1, "{counters:?}");
    assert!(
        !counters.contains_key("resil.degraded"),
        "a recovered run is not degraded: {counters:?}"
    );
    // The fault-tolerance envelope is a stage of its own in the report.
    assert!(
        r.report.stage_wall_ns(stage::RESIL).unwrap_or(0) > 0,
        "resil stage missing from report"
    );

    // A clean resilient run reports no resil fault counters at all.
    let clean = driver.run(
        Target::Tune(DlaKernel::Axpy),
        &policy,
        &Injector::disabled(),
    );
    assert_eq!(clean.degradation, Degradation::None);
    // The serving path prunes by bound and reports one evaluation
    // latency per candidate it did not prune.
    let tuner = clean.report.tuner.as_ref().expect("tuner telemetry");
    let pruned = clean.report.counters["cost.pruned"];
    assert!(
        pruned > 0,
        "the serving sweep prunes: {:?}",
        clean.report.counters
    );
    assert_eq!(tuner.eval_latency_ns.count(), tuner.generated - pruned);
    assert!(
        !clean
            .report
            .counters
            .keys()
            .any(|k| { k.starts_with("resil.") && k != "resil.journal.resumed" }),
        "clean run leaked fault counters: {:?}",
        clean.report.counters
    );
}
