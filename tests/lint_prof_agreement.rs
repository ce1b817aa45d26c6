//! Agreement between the static accumulator-chain lint (P001) and the
//! dynamic profiler on the paper's Figure-13 kernel.
//!
//! P001 claims a loop-carried FP chain is longer than the body's
//! per-iteration throughput bound — i.e. the kernel is *dependence
//! limited*, not throughput limited. The dynamic statement of that
//! same claim is the **latency gap**: simulated cycles exceeding the
//! latency-free throughput floor `max(port_bound, front_bound)` by a
//! real margin. This suite pins the biconditional over the four
//! (kernel, machine) cells — the naive Figure-13 kernel and the tuned
//! split-accumulator winner on both paper machines:
//!
//! * P001 fires exactly where the simulator confirms a latency gap
//!   above 10% (empirically ~19% on the one dependence-limited cell,
//!   <3% everywhere else).
//! * Where P001 fires, `prof`'s per-line stall attribution marks the
//!   flagged loop's hottest instruction `Dep`-dominant — the profiler
//!   names the same culprit the lint found statically.
//! * P001 is quiet on the tuned winner on both machines.
//!
//! A note on `ProfileSummary`-level dominant stalls: the scoreboard's
//! raw `stall_dep` bucket measures operand-readiness above the fetch
//! and reorder-window floors, which is nonzero even for kernels
//! running flat at their throughput bound (the floors lag real time in
//! any loop that is not purely front-bound). Kernel-wide bucket sums
//! therefore over-attribute to `dep` and cannot separate a serialized
//! chain from a fully pipelined one; the latency gap is the faithful
//! dynamic witness, and the per-line attribution localizes it.

use augem_machine::MachineSpec;
use augem_prof::StallCause;
use augem_resil::Injector;
use augem_tune::{gemm_candidates, gemm_eval_args, sweep, EvalCache, GemmConfig, ResilOptions};
use augem_verify::diag::Rule;

/// The tuned GEMM winner, from the bound-pruned sweep (which keeps the
/// exhaustive sweep's winner).
fn tuned(m: &MachineSpec) -> GemmConfig {
    let opts = ResilOptions {
        prune: true,
        ..ResilOptions::plain()
    };
    let (inj, cache, null) = (Injector::disabled(), EvalCache::new(), augem_obs::null());
    let candidates = gemm_candidates(m);
    sweep(candidates, m, &opts, None, &inj, null, &cache)
        .expect("tune")
        .best
}

/// The dynamic witness for "dependence limited": simulated cycles
/// relative to the latency-free throughput floor.
const LATENCY_GAP_THRESHOLD: f64 = 1.10;

struct Cell {
    fires: bool,
    gap: f64,
    /// `(target_pc, branch_pc)` spans of loops P001 flagged.
    flagged: Vec<(usize, usize)>,
}

fn analyze_cell(cfg: &GemmConfig, m: &MachineSpec) -> (Cell, augem_asm::AsmKernel) {
    let asm = cfg.build(m).expect("build");
    let (args, _) = gemm_eval_args(cfg);
    let report = augem_cost::analyze(&asm, &args, m).expect("analyze");
    let (timing, _) = augem_sim::simulate_timing_steady(&asm, args, m).expect("sim");
    let floor = report.port_bound.max(report.front_bound).max(1);
    let diags = augem_cost::lint(&asm, m);
    let flagged: Vec<(usize, usize)> = diags
        .iter()
        .filter(|d| d.rule == Rule::AccumulatorChain)
        .filter_map(|d| match d.span {
            augem_verify::diag::Span::Insts { first, last } => Some((first, last)),
            _ => None,
        })
        .collect();
    (
        Cell {
            fires: !flagged.is_empty(),
            gap: timing.cycles as f64 / floor as f64,
            flagged,
        },
        asm,
    )
}

#[test]
fn p001_fires_exactly_where_the_simulator_confirms_a_latency_gap() {
    for m in [MachineSpec::sandy_bridge(), MachineSpec::piledriver()] {
        let naive = GemmConfig::fig13();
        let winner = tuned(&m);
        for (name, cfg) in [("fig13", &naive), ("winner", &winner)] {
            let (cell, _) = analyze_cell(cfg, &m);
            assert_eq!(
                cell.fires,
                cell.gap > LATENCY_GAP_THRESHOLD,
                "{name} on {:?}: P001 fired={} but latency gap is {:.3}",
                m.arch,
                cell.fires,
                cell.gap
            );
        }
    }
}

#[test]
fn p001_quiet_on_the_tuned_split_accumulator_winner() {
    for m in [MachineSpec::sandy_bridge(), MachineSpec::piledriver()] {
        let winner = tuned(&m);
        let (cell, _) = analyze_cell(&winner, &m);
        assert!(
            !cell.fires,
            "P001 fired on the tuned winner {} on {:?}",
            winner.tag(),
            m.arch
        );
    }
}

#[test]
fn profiler_blames_dep_on_the_loop_p001_flags() {
    let mut fired_somewhere = false;
    for m in [MachineSpec::sandy_bridge(), MachineSpec::piledriver()] {
        let naive = GemmConfig::fig13();
        let (cell, asm) = analyze_cell(&naive, &m);
        if !cell.fires {
            continue;
        }
        fired_somewhere = true;
        let (args, _) = gemm_eval_args(&naive);
        let (_, profile) =
            augem_prof::profile_kernel(&asm, args, &m, true, None, None).expect("profile");
        // The hottest instruction of each flagged loop must be
        // Dep-dominant: the profiler attributes the loop's critical
        // cycles to waiting on operands, as the lint predicted.
        for &(first, last) in &cell.flagged {
            let hot = profile.lines[first..=last]
                .iter()
                .max_by_key(|l| l.cycles)
                .expect("non-empty loop body");
            if hot.cycles == 0 {
                // A flagged loop the micro-problem never enters (e.g.
                // a remainder path) has no dynamic evidence to check.
                continue;
            }
            let (cause, n) = hot.dominant_stall();
            assert_eq!(
                cause,
                StallCause::Dep,
                "hottest inst of flagged loop {first}..={last} on {:?} \
                 stalls on {cause:?} ({n} cycles), not Dep",
                m.arch
            );
        }
    }
    assert!(
        fired_somewhere,
        "P001 never fired on the naive Figure-13 kernel on either machine"
    );
}
