//! Fault-injection matrix for the fault-tolerant pipeline.
//!
//! Every scenario drives `Augem::run` with a seeded,
//! deterministic [`InjectionPlan`] and asserts the one invariant the
//! resilience layer promises: the pipeline **always terminates with
//! either a verified kernel or a typed degradation** — it never
//! panics, aborts, or returns an untyped failure, no matter which
//! site faults or how often.
//!
//! The matrix covers every injection site (`Eval`, `Sim`,
//! `JournalAppend`, `Verify`) crossed with the fault classes each
//! site can exhibit (`Panic`, `Budget`, `CorruptEntry`, `Crash`),
//! under both one-shot (`Nth`) and stochastic (`Rate`) triggers,
//! plus combined multi-site plans. A separate test proves the
//! checkpoint/resume contract: a run killed mid-sweep and resumed
//! from its journal reproduces the uninterrupted winner bit-for-bit.

use augem::machine::MachineSpec;
use augem::resil::{Fault, InjectionPlan, Injector, Site, Trigger};
use augem::{Augem, Degradation, DlaKernel, RunOptions, Target};

/// Runs one scenario and checks the terminate-with-typed-outcome
/// invariant. Returns the degradation for scenario-specific checks.
fn run_scenario(name: &str, kernel: DlaKernel, plan: InjectionPlan) -> Degradation {
    let driver = Augem::new(MachineSpec::sandy_bridge());
    let r = driver.run(
        Target::Tune(kernel),
        &RunOptions::default(),
        &Injector::new(plan),
    );
    match (&r.generated, &r.degradation) {
        (Some(g), Degradation::None) => {
            // Verified winner: a real kernel with no degradation.
            assert!(g.mflops > 0.0, "{name}: winner has no speed");
            assert!(g.asm.validate().is_ok(), "{name}: winner fails validation");
            assert!(r.cause.is_none(), "{name}: clean run carries a cause");
        }
        (Some(g), d @ (Degradation::NextRanked { .. } | Degradation::PaperDefault { .. })) => {
            // Degraded success: still a real kernel, plus a typed
            // explanation of what was given up.
            assert!(g.mflops > 0.0, "{name}: fallback has no speed");
            assert!(
                g.asm.validate().is_ok(),
                "{name}: fallback fails validation"
            );
            assert!(r.cause.is_some(), "{name}: degraded ({d}) but no cause");
            assert!(r.is_degraded(), "{name}");
            assert!(
                r.report
                    .counters
                    .get("resil.degraded")
                    .copied()
                    .unwrap_or(0)
                    >= 1,
                "{name}: degraded result without resil.degraded counter"
            );
        }
        (None, Degradation::Interrupted | Degradation::ReportOnly) => {
            // No kernel shipped, but the outcome is typed and carries
            // a cause — never a panic or an untyped error.
            assert!(r.cause.is_some(), "{name}: no kernel and no cause");
        }
        (g, d) => panic!(
            "{name}: incoherent outcome generated={} degradation={d}",
            g.is_some()
        ),
    }
    r.degradation
}

#[test]
fn eval_faults_never_take_down_the_pipeline() {
    // Site::Eval × {Panic, Budget, Crash} under Nth and Rate triggers.
    let d = run_scenario(
        "eval/panic/nth1",
        DlaKernel::Axpy,
        InjectionPlan::new(1).with(Site::Eval, Fault::Panic, Trigger::Nth(1)),
    );
    // One panicked candidate is retried or pruned; the sweep still wins.
    assert_eq!(d, Degradation::None, "retry should absorb a single panic");

    run_scenario(
        "eval/panic/rate.5",
        DlaKernel::Dot,
        InjectionPlan::new(2).with(Site::Eval, Fault::Panic, Trigger::Rate(0.5)),
    );
    run_scenario(
        "eval/budget/nth2",
        DlaKernel::Axpy,
        InjectionPlan::new(3).with(Site::Eval, Fault::Budget, Trigger::Nth(2)),
    );

    // Every evaluation exhausts its budget: no candidate builds, so the
    // pipeline must fall back to the paper-default configuration.
    let d = run_scenario(
        "eval/budget/rate1",
        DlaKernel::Scal,
        InjectionPlan::new(4).with(Site::Eval, Fault::Budget, Trigger::Rate(1.0)),
    );
    assert!(
        matches!(d, Degradation::PaperDefault { .. }),
        "total budget exhaustion should degrade to the paper default, got {d}"
    );

    // A crash mid-sweep interrupts (resumable), it does not degrade.
    let d = run_scenario(
        "eval/crash/nth3",
        DlaKernel::Axpy,
        InjectionPlan::new(5).with(Site::Eval, Fault::Crash, Trigger::Nth(3)),
    );
    assert_eq!(d, Degradation::Interrupted);
}

#[test]
fn sim_faults_never_take_down_the_pipeline() {
    // Site::Sim × {Panic, Budget}.
    let d = run_scenario(
        "sim/panic/nth1",
        DlaKernel::Axpy,
        InjectionPlan::new(6).with(Site::Sim, Fault::Panic, Trigger::Nth(1)),
    );
    assert_eq!(
        d,
        Degradation::None,
        "retry should absorb a single sim panic"
    );

    let d = run_scenario(
        "sim/panic/rate1",
        DlaKernel::Dot,
        InjectionPlan::new(7).with(Site::Sim, Fault::Panic, Trigger::Rate(1.0)),
    );
    assert!(
        matches!(d, Degradation::PaperDefault { .. }),
        "a simulator that always panics should degrade to the paper default, got {d}"
    );

    run_scenario(
        "sim/budget/nth2",
        DlaKernel::Scal,
        InjectionPlan::new(8).with(Site::Sim, Fault::Budget, Trigger::Nth(2)),
    );
}

#[test]
fn journal_faults_never_take_down_the_pipeline() {
    // Site::JournalAppend × CorruptEntry: corruption only costs a
    // replay on resume; a live sweep keeps its in-memory results.
    let d = run_scenario(
        "journal/corrupt/nth1",
        DlaKernel::Axpy,
        InjectionPlan::new(9).with(Site::JournalAppend, Fault::CorruptEntry, Trigger::Nth(1)),
    );
    assert_eq!(d, Degradation::None);

    let d = run_scenario(
        "journal/corrupt/rate1",
        DlaKernel::Dot,
        InjectionPlan::new(10).with(Site::JournalAppend, Fault::CorruptEntry, Trigger::Rate(1.0)),
    );
    assert_eq!(d, Degradation::None);
}

#[test]
fn verify_faults_degrade_in_order() {
    // Site::Verify × Panic: the winner's verification dies, so the
    // next-ranked verified candidate ships instead.
    let d = run_scenario(
        "verify/panic/nth1",
        DlaKernel::Axpy,
        InjectionPlan::new(11).with(Site::Verify, Fault::Panic, Trigger::Nth(1)),
    );
    assert!(matches!(d, Degradation::NextRanked { rank: 1, .. }), "{d}");

    // Verification always dies: nothing can ship, but the outcome is
    // still a typed report-only result.
    let d = run_scenario(
        "verify/panic/rate1",
        DlaKernel::Scal,
        InjectionPlan::new(12).with(Site::Verify, Fault::Panic, Trigger::Rate(1.0)),
    );
    assert_eq!(d, Degradation::ReportOnly);
}

#[test]
fn combined_multi_site_faults_never_take_down_the_pipeline() {
    // Faults at several sites in one run.
    run_scenario(
        "eval+verify",
        DlaKernel::Axpy,
        InjectionPlan::new(13)
            .with(Site::Eval, Fault::Panic, Trigger::Nth(1))
            .with(Site::Verify, Fault::Panic, Trigger::Nth(1)),
    );
    run_scenario(
        "sim+journal",
        DlaKernel::Dot,
        InjectionPlan::new(14)
            .with(Site::Sim, Fault::Budget, Trigger::Rate(0.4))
            .with(Site::JournalAppend, Fault::CorruptEntry, Trigger::Rate(0.5)),
    );
    run_scenario(
        "everything-at-once",
        DlaKernel::Scal,
        InjectionPlan::new(15)
            .with(Site::Eval, Fault::Panic, Trigger::Rate(0.3))
            .with(Site::Sim, Fault::Budget, Trigger::Rate(0.2))
            .with(Site::JournalAppend, Fault::CorruptEntry, Trigger::Rate(0.3))
            .with(Site::Verify, Fault::Panic, Trigger::Nth(1)),
    );
}

#[test]
fn killed_run_resumes_to_the_uninterrupted_winner_bit_for_bit() {
    let dir = std::env::temp_dir().join(format!("augem-resil-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("axpy.jsonl");
    let _ = std::fs::remove_file(&ckpt);

    let driver = Augem::new(MachineSpec::sandy_bridge());
    let policy = RunOptions {
        checkpoint: Some(ckpt.clone()),
        resume: true,
        ..RunOptions::default()
    };

    // Run 1: the process "dies" after three evaluations. The journal
    // keeps the completed prefix.
    let crash =
        Injector::new(InjectionPlan::new(0).with(Site::Eval, Fault::Crash, Trigger::Nth(4)));
    let r1 = driver.run(Target::Tune(DlaKernel::Axpy), &policy, &crash);
    assert_eq!(r1.degradation, Degradation::Interrupted);
    assert!(r1.generated.is_none());
    assert!(
        ckpt.exists(),
        "interrupted run must leave its journal behind"
    );

    // Run 2: resume from the journal with the fault gone.
    let r2 = driver.run(
        Target::Tune(DlaKernel::Axpy),
        &policy,
        &Injector::disabled(),
    );
    assert_eq!(r2.degradation, Degradation::None);
    let resumed = r2.generated.expect("resumed run ships a kernel");
    assert!(
        r2.report
            .counters
            .get("resil.journal.resumed")
            .copied()
            .unwrap_or(0)
            >= 3,
        "resume should replay the journaled prefix: {:?}",
        r2.report.counters
    );

    // Reference: the same tune with no faults and no journal.
    let reference = driver
        .run(
            Target::Tune(DlaKernel::Axpy),
            &RunOptions::default(),
            &Injector::disabled(),
        )
        .generated
        .expect("reference run ships a kernel");

    assert_eq!(resumed.config_tag, reference.config_tag);
    assert_eq!(
        resumed.mflops.to_bits(),
        reference.mflops.to_bits(),
        "resumed winner must be bit-for-bit identical"
    );
    assert_eq!(resumed.assembly_text(), reference.assembly_text());

    let _ = std::fs::remove_dir_all(&dir);
}
