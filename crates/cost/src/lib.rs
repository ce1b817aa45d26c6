//! Static cost analysis for generated kernels.
//!
//! The tuner's inner loop — generate a candidate, simulate it, keep the
//! best — spends almost all of its time in the timing simulator. This
//! crate computes, *without running the scoreboard*, a provable lower
//! bound on the cycles the simulator will report, plus a set of
//! performance lints (P-rules) that explain statically why a kernel is
//! slow (the paper's Figure 13 accumulator-chain stall, port
//! oversubscription, spills in hot loops, narrow SIMD, missing
//! prefetch, dead remainder code).
//!
//! # Soundness contract
//!
//! For every kernel, argument set, and machine on which the timing
//! simulator (`augem_sim::simulate_timing` and its `_steady`,
//! `_budgeted` and `_profiled` variants) succeeds:
//!
//! ```text
//! analyze(kernel, args, machine).lower_bound_cycles <= TimingReport.cycles
//! ```
//!
//! The pipeline: [`walk`](walk::walk) reconstructs the dynamic per-pc
//! execution counts by re-executing only the general-purpose register
//! file (control flow never depends on FP data), accelerating affine
//! loops in closed form; [`bounds`](bounds::compute_bounds) turns the
//! counts into four independent lower bounds — front-end issue width,
//! execution-port occupancy, memory-port occupancy, and
//! latency-weighted loop-carried dependence chains — and takes their
//! maximum. When the walk cannot finish (step budget, an untracked GP
//! load), the bounds are computed from the prefix it did cover, which
//! keeps them sound: extending a trace never lowers the completion
//! cycle of what was already issued.
//!
//! The machine-checked version of this contract lives in the workspace
//! integration suite (`tests/cost_soundness.rs`), which asserts the
//! inequality for every tuner candidate of every kernel family on both
//! paper platforms, with zero exceptions.

#![forbid(unsafe_code)]
// A panic inside the analyzer would take down a whole tuning sweep; the
// strict-clippy CI tier keeps this crate (and `augem-prof`) panic-free
// on the unwrap/expect axis. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bounds;
pub mod lint;
pub mod walk;

pub use bounds::{Bounds, LoopBound};
pub use lint::lint;
pub use walk::{ArgShape, WalkSummary};

use augem_asm::AsmKernel;
use augem_machine::{IsaFeature, MachineSpec};
use augem_sim::{SimError, SimValue};

/// Concrete steps the walk may execute before giving up and returning a
/// prefix. Affine-accelerated iterations are free, so real kernels
/// (including the 2^18-element vector sweeps) finish far below this.
pub const DEFAULT_WALK_BUDGET: u64 = 10_000_000;

/// Everything the static analyzer can say about one run of a kernel.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// `max` of the four bounds: provably `<=` the simulated cycles.
    pub lower_bound_cycles: u64,
    /// Latency-weighted longest carried-dependence chain bound.
    pub dep_bound: u64,
    /// Execution-port occupancy bound.
    pub port_bound: u64,
    /// Front-end (issue width) bound.
    pub front_bound: u64,
    /// Port bound restricted to memory micro-ops (diagnostic; always
    /// `<=` `port_bound`).
    pub mem_bound: u64,
    /// Dynamic classed instructions covered (equals the timing
    /// simulator's `dyn_insts` when `walk_complete`).
    pub dyn_insts: u64,
    /// Simulated steps the walk covered (labels and `Ret` included).
    pub walk_steps: u64,
    /// Whether the walk covered the whole run; `false` means every
    /// number above is computed from a sound prefix.
    pub walk_complete: bool,
    /// Per-loop dependency-bound breakdown.
    pub loops: Vec<LoopBound>,
}

/// Statically analyzes one run of `kernel` on `args` as `machine` would
/// execute it. Fails only where the simulator's own setup would fail
/// (argument/parameter mismatch, undecodable kernel).
pub fn analyze(
    kernel: &AsmKernel,
    args: &[SimValue],
    machine: &MachineSpec,
) -> Result<CostReport, SimError> {
    let shapes: Vec<ArgShape> = args.iter().map(ArgShape::of).collect();
    analyze_shapes(kernel, &shapes, machine)
}

/// [`analyze`] from the arguments' shapes alone: the same report, with
/// no array built.
pub fn analyze_shapes(
    kernel: &AsmKernel,
    args: &[ArgShape],
    machine: &MachineSpec,
) -> Result<CostReport, SimError> {
    analyze_with_budget(kernel, args, machine, DEFAULT_WALK_BUDGET)
}

/// [`analyze_shapes`] with an explicit walk step budget.
pub fn analyze_with_budget(
    kernel: &AsmKernel,
    args: &[ArgShape],
    machine: &MachineSpec,
    budget: u64,
) -> Result<CostReport, SimError> {
    let vex = machine.isa.has(IsaFeature::Avx);
    let prog = augem_sim::decode(kernel, vex)?;
    let w = walk::walk(&prog, kernel, args, budget)?;
    let b = bounds::compute_bounds(kernel, &w.counts, &w.max_runs, machine);
    let dyn_insts = kernel
        .insts
        .iter()
        .zip(&w.counts)
        .filter(|(i, _)| i.class().is_some())
        .map(|(_, &c)| c)
        .fold(0u64, |a, c| a.saturating_add(c));
    Ok(CostReport {
        lower_bound_cycles: b.lower_bound_cycles(),
        dep_bound: b.dep_bound,
        port_bound: b.port_bound,
        front_bound: b.front_bound,
        mem_bound: b.mem_bound,
        dyn_insts,
        walk_steps: w.steps,
        walk_complete: w.complete,
        loops: b.loops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_asm::{GpOrImm, Mem, ParamLoc, Width, XInst};
    use augem_machine::{GpReg, VecReg};

    /// End-to-end: bounds from `analyze` are `<=` the real timing
    /// simulation on a hand-built reduction kernel, on both machines.
    #[test]
    fn analyze_is_sound_on_a_reduction_loop() {
        let mut k = AsmKernel::new("reduce");
        k.params.push(("X".into(), ParamLoc::Gp(GpReg(0))));
        k.params.push(("Y".into(), ParamLoc::Gp(GpReg(1))));
        k.params.push(("N".into(), ParamLoc::Gp(GpReg(3))));
        k.insts.push(XInst::IMovImm {
            dst: GpReg(2),
            imm: 0,
        });
        k.insts.push(XInst::FZero {
            dst: VecReg(0),
            w: Width::V2,
        });
        k.insts.push(XInst::Label("l".into()));
        k.insts.push(XInst::FLoad {
            dst: VecReg(1),
            mem: Mem::new(GpReg(0), 0),
            w: Width::V2,
        });
        k.insts.push(XInst::FAdd2 {
            dstsrc: VecReg(0),
            src: VecReg(1),
            w: Width::V2,
        });
        k.insts.push(XInst::IAdd {
            dst: GpReg(0),
            src: GpOrImm::Imm(16),
        });
        k.insts.push(XInst::IAdd {
            dst: GpReg(2),
            src: GpOrImm::Imm(1),
        });
        k.insts.push(XInst::Cmp {
            a: GpReg(2),
            b: GpOrImm::Gp(GpReg(3)),
        });
        k.insts.push(XInst::Jl("l".into()));
        k.insts.push(XInst::FStore {
            src: VecReg(0),
            mem: Mem::new(GpReg(1), 0),
            w: Width::V2,
        });
        k.insts.push(XInst::Ret);

        let n = 4096i64;
        let args = || {
            vec![
                augem_sim::SimValue::Array(vec![1.0; 2 * n as usize]),
                augem_sim::SimValue::Array(vec![0.0; 2]),
                augem_sim::SimValue::Int(n),
            ]
        };
        for machine in [MachineSpec::sandy_bridge(), MachineSpec::piledriver()] {
            let report = analyze(&k, &args(), &machine).expect("analyze");
            assert!(report.walk_complete);
            let (timing, _) = augem_sim::simulate_timing(&k, args(), &machine).expect("timing sim");
            assert!(
                report.lower_bound_cycles <= timing.cycles,
                "{:?}: bound {} > simulated {}",
                machine.arch,
                report.lower_bound_cycles,
                timing.cycles
            );
            assert_eq!(report.dyn_insts, timing.dyn_insts);
            // The bound should not be trivial either: the FAdd
            // recurrence alone forces ~3 cycles per iteration on SNB.
            assert!(
                report.lower_bound_cycles as f64 >= 0.5 * timing.cycles as f64,
                "{:?}: bound {} is uselessly loose vs {}",
                machine.arch,
                report.lower_bound_cycles,
                timing.cycles
            );
        }
    }
}
