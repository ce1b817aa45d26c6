//! Cycle-approximate timing model.
//!
//! Times the functional simulator's dynamic instruction stream with an
//! out-of-order scoreboard. The scoreboard consumes each step as the
//! decoded engine executes it, so a measurement keeps no trace and its
//! memory does not grow with the step count; [`replay`] feeds a recorded
//! [`Trace`] through the same scoreboard.
//!
//! The front end delivers `issue_width` instructions per cycle into a
//! reorder window of [`ROB_WINDOW`] entries; within the window, an
//! instruction issues as soon as its inputs are ready and an execution
//! port is free (register renaming is implicit — only true RAW
//! dependences stall), and results become available after their class
//! latency (loads: the cache simulator's latency for that address).
//! Total cycles = completion of the last instruction.
//!
//! This captures the effects the AUGEM paper's optimizations target:
//!
//! * SIMD width and FMA fusion change the *number* of µops per flop;
//! * per-array register queues avoid false WAR/WAW dependences, which this
//!   model penalizes exactly like true dependences (in-order scoreboard);
//! * instruction scheduling spreads dependent ops so latency overlaps;
//! * software prefetch converts demand misses into hits.

use crate::cache::CacheSim;
use crate::decode::{decode, StepSink};
use crate::func::{FuncSim, MemAccess, SimError, SimValue, Trace};
use augem_asm::{AsmKernel, GpOrImm, XInst};
use augem_machine::{InstClass, IsaFeature, MachineSpec};

/// Reorder-window size: between the scheduler capacity and the reorder
/// buffer of the modeled cores (SNB: 54-entry scheduler / 168-entry ROB;
/// Piledriver: 40-entry queue / 128-entry ROB). Big enough to overlap
/// adjacent unrolled loop iterations, as the real machines do.
pub const ROB_WINDOW: usize = 96;

/// Result of a timed simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingReport {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Executed (dynamic) instructions.
    pub dyn_insts: u64,
    /// Floating-point operations executed (lane-counted; FMA = 2/lane).
    pub flops: u64,
    /// Demand memory accesses.
    pub mem_accesses: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Last-level-cache misses.
    pub llc_misses: u64,
    /// µops executed per port (model diagnostics).
    pub port_uops: Vec<u64>,
}

impl TimingReport {
    /// Mflops at the given clock, counting the *executed* flops.
    pub fn mflops(&self, ghz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let secs = self.cycles as f64 / (ghz * 1e9);
        self.flops as f64 / secs / 1e6
    }

    /// Mflops for a caller-supplied useful-flop count (e.g. `2*m*n*k`).
    pub fn useful_mflops(&self, useful_flops: u64, ghz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let secs = self.cycles as f64 / (ghz * 1e9);
        useful_flops as f64 / secs / 1e6
    }

    /// Cycles per executed instruction.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.dyn_insts.max(1) as f64
    }

    /// Demand accesses served by L1 (accesses minus L1 misses).
    pub fn l1_hits(&self) -> u64 {
        self.mem_accesses.saturating_sub(self.l1_misses)
    }
}

fn flops_of(inst: &XInst) -> u64 {
    match inst {
        XInst::FMul2 { w, .. }
        | XInst::FAdd2 { w, .. }
        | XInst::FMul3 { w, .. }
        | XInst::FAdd3 { w, .. } => w.lanes() as u64,
        XInst::Fma3 { w, .. } | XInst::Fma4 { w, .. } => 2 * w.lanes() as u64,
        _ => 0,
    }
}

fn gp_inputs(inst: &XInst, out: &mut Vec<u8>) {
    fn op(o: &GpOrImm, out: &mut Vec<u8>) {
        if let GpOrImm::Gp(r) = o {
            out.push(r.0);
        }
    }
    match inst {
        XInst::FLoad { mem, .. }
        | XInst::FStore { mem, .. }
        | XInst::FDup { mem, .. }
        | XInst::Prefetch { mem, .. } => out.push(mem.base.0),
        XInst::IMov { src, .. } => out.push(src.0),
        XInst::ILoad { mem, .. } => out.push(mem.base.0),
        XInst::IStore { src, mem } => {
            out.push(src.0);
            out.push(mem.base.0);
        }
        XInst::IAdd { dst, src } | XInst::ISub { dst, src } | XInst::IMul { dst, src } => {
            out.push(dst.0);
            op(src, out);
        }
        XInst::Lea { base, idx, .. } => {
            out.push(base.0);
            if let Some((r, _)) = idx {
                out.push(r.0);
            }
        }
        XInst::Cmp { a, b } => {
            out.push(a.0);
            op(b, out);
        }
        _ => {}
    }
}

fn gp_output(inst: &XInst) -> Option<u8> {
    match inst {
        XInst::IMovImm { dst, .. }
        | XInst::IMov { dst, .. }
        | XInst::IAdd { dst, .. }
        | XInst::ISub { dst, .. }
        | XInst::IMul { dst, .. }
        | XInst::ILoad { dst, .. }
        | XInst::Lea { dst, .. } => Some(dst.0),
        _ => None,
    }
}

/// How a step reaches the cache and where its latency comes from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Labels and comments: executed steps, but no instruction.
    Inert,
    /// Loads and broadcasts: latency is the cache's service time.
    Load,
    /// Stores: a write access at the class's fixed latency.
    Store,
    /// Software prefetch: fills every level at the class's latency.
    Prefetch,
    /// Everything else: the class's fixed latency, no cache traffic.
    Compute,
}

/// Static per-pc facts the scoreboard needs, computed once per kernel
/// instead of per dynamic step: the operand registers and the machine's
/// latency, µop count and allowed ports for the instruction's class.
#[derive(Clone, Copy)]
struct InstMeta {
    kind: Kind,
    flops: u16,
    vec_uses: [u8; 3],
    n_vec: u8,
    gp_uses: [u8; 2],
    n_gp: u8,
    vec_def: u8,
    gp_def: u8,
    /// The class's result latency (a load's L1-hit latency).
    latency: u32,
    /// µops that each take one port-cycle; zero when no allowed port
    /// exists on this machine.
    uops: u32,
    /// Allowed ports, clipped to the machine's `num_ports`.
    ports: u8,
}

const NO_REG: u8 = 0xFF;

fn decode_meta(insts: &[XInst], machine: &MachineSpec) -> Vec<InstMeta> {
    let num_ports = u32::from(machine.timing.num_ports);
    let port_mask = if num_ports >= 8 {
        u8::MAX
    } else {
        ((1u32 << num_ports) - 1) as u8
    };
    let mut gp_in = Vec::with_capacity(4);
    insts
        .iter()
        .map(|inst| {
            let mut m = InstMeta {
                kind: Kind::Inert,
                flops: flops_of(inst) as u16,
                vec_uses: [0; 3],
                n_vec: 0,
                gp_uses: [0; 2],
                n_gp: 0,
                vec_def: inst.vec_def().map_or(NO_REG, |r| r.0),
                gp_def: gp_output(inst).unwrap_or(NO_REG),
                latency: 0,
                uops: 0,
                ports: 0,
            };
            if let Some((class, mode)) = inst.class() {
                let t = machine.timing.timing(class, mode);
                m.kind = match class {
                    InstClass::Load | InstClass::Broadcast => Kind::Load,
                    InstClass::Store => Kind::Store,
                    InstClass::Prefetch => Kind::Prefetch,
                    _ => Kind::Compute,
                };
                m.latency = t.latency;
                m.ports = t.ports.0 & port_mask;
                m.uops = if m.ports == 0 { 0 } else { t.uops };
            }
            for (i, r) in inst.vec_uses().iter().take(3).enumerate() {
                m.vec_uses[i] = r.0;
                m.n_vec = (i + 1) as u8;
            }
            gp_in.clear();
            gp_inputs(inst, &mut gp_in);
            for (i, &r) in gp_in.iter().take(2).enumerate() {
                m.gp_uses[i] = r;
                m.n_gp = (i + 1) as u8;
            }
            m
        })
        .collect()
}

/// Raw per-pc samples collected by a profiled replay ([`replay_profiled`]).
///
/// Every vector is indexed by the *static* pc — the instruction's index in
/// `AsmKernel::insts` (labels and comments occupy a pc but never execute).
/// The attribution is conservative by construction:
///
/// * `cycles[pc]` sums **bit-exactly** to [`TimingReport::cycles`]: each
///   dynamic instruction is charged the amount by which its completion
///   advances the critical frontier (`complete - last_complete` when
///   positive), so the per-pc charges telescope to the total.
/// * `port_uops` rolled up over pcs equals [`TimingReport::port_uops`],
///   and the per-pc cache counters sum to the report's totals.
///
/// The stall counters are diagnostics (they classify *why* issue was
/// delayed and how much load latency exceeded the L1 service time); they
/// are not part of the conservation identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcProfile {
    /// Ports in the machine's timing model (row width of `port_uops`).
    pub num_ports: usize,
    /// Dynamic executions per pc.
    pub execs: Vec<u64>,
    /// Critical-frontier cycles attributed per pc (sums to total cycles).
    pub cycles: Vec<u64>,
    /// Issue cycles lost waiting on operands (RAW dependences).
    pub stall_dep: Vec<u64>,
    /// Issue cycles lost to execution-port contention.
    pub stall_port: Vec<u64>,
    /// Issue cycles lost to the front end / reorder-window floor.
    pub stall_front: Vec<u64>,
    /// Load latency beyond the class's nominal (L1-hit) latency.
    pub stall_mem: Vec<u64>,
    /// µops issued per `(pc, port)`, row-major: `pc * num_ports + port`.
    pub port_uops: Vec<u64>,
    /// Demand accesses at this pc that hit L1.
    pub l1_hits: Vec<u64>,
    /// L1 misses at this pc.
    pub l1_misses: Vec<u64>,
    /// Last-level-cache misses at this pc.
    pub llc_misses: Vec<u64>,
}

impl PcProfile {
    /// An all-zero profile for a kernel of `pcs` instructions.
    pub fn new(pcs: usize, num_ports: usize) -> Self {
        PcProfile {
            num_ports,
            execs: vec![0; pcs],
            cycles: vec![0; pcs],
            stall_dep: vec![0; pcs],
            stall_port: vec![0; pcs],
            stall_front: vec![0; pcs],
            stall_mem: vec![0; pcs],
            port_uops: vec![0; pcs * num_ports],
            l1_hits: vec![0; pcs],
            l1_misses: vec![0; pcs],
            llc_misses: vec![0; pcs],
        }
    }

    /// Number of static pcs covered.
    pub fn pcs(&self) -> usize {
        self.execs.len()
    }

    /// Sum of the per-pc attributed cycles (equals the report's total).
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Per-port µop totals rolled up over every pc (equals
    /// [`TimingReport::port_uops`]).
    pub fn port_totals(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.num_ports];
        for pc in 0..self.pcs() {
            for (p, t) in totals.iter_mut().enumerate() {
                *t += self.port_uops[pc * self.num_ports + p];
            }
        }
        totals
    }
}

/// Trains the cache on a run's access stream without timing anything:
/// the steady-state regime's warm-up pass.
struct Warmup<'a>(&'a mut CacheSim);

impl StepSink for Warmup<'_> {
    #[inline]
    fn step(&mut self, _pc: u32, access: Option<MemAccess>) {
        if let Some(a) = access {
            if a.prefetch {
                self.0.prefetch(a.addr);
            } else {
                self.0.access(a.addr, a.bytes, a.write);
            }
        }
    }
}

/// The out-of-order scoreboard (see module docs): one dynamic step at a
/// time, fed live by the decoded engine or from a recorded [`Trace`].
/// `PROF = true` adds the per-pc attribution of [`PcProfile`];
/// `PROF = false` monomorphizes every profiling probe away.
struct Scoreboard<const PROF: bool> {
    meta: Vec<InstMeta>,
    cache: CacheSim,
    num_ports: usize,
    issue_width: u64,
    vec_ready: [u64; 16],
    gp_ready: [u64; 16],
    // Each port serves one µop per cycle. `PortSet` is a byte, so no
    // machine uses more than eight.
    port_free: [u64; 8],
    port_uops: [u64; 8],
    last_complete: u64,
    flops: u64,
    dyn_insts: u64,
    // The front end fetches `issue_width` instructions per cycle:
    // instruction k is fetched no earlier than cycle k / issue_width.
    fetch_cycle: u64,
    fetch_slot: u64,
    store_ready_floor: u64, // stores retire in order w.r.t. loads
    // Reorder window: issue cycle of the last `ROB_WINDOW` instructions
    // as a ring (zero before the window first fills); an instruction
    // cannot issue until the one `ROB_WINDOW` ahead of it has issued.
    window: [u64; ROB_WINDOW],
    head: usize,
    prof: PcProfile,
}

impl<const PROF: bool> Scoreboard<PROF> {
    fn new(kernel: &AsmKernel, machine: &MachineSpec, cache: CacheSim) -> Self {
        let num_ports = machine.timing.num_ports as usize;
        let pcs = if PROF { kernel.insts.len() } else { 0 };
        Scoreboard {
            meta: decode_meta(&kernel.insts, machine),
            cache,
            num_ports,
            issue_width: machine.timing.issue_width.max(1) as u64,
            vec_ready: [0; 16],
            gp_ready: [0; 16],
            port_free: [0; 8],
            port_uops: [0; 8],
            last_complete: 0,
            flops: 0,
            dyn_insts: 0,
            fetch_cycle: 0,
            fetch_slot: 0,
            store_ready_floor: 0,
            window: [0; ROB_WINDOW],
            head: 0,
            prof: PcProfile::new(pcs, num_ports),
        }
    }

    fn finish(self) -> (TimingReport, PcProfile) {
        let mut port_uops = vec![0u64; self.num_ports];
        for (dst, src) in port_uops.iter_mut().zip(self.port_uops) {
            *dst = src;
        }
        let report = TimingReport {
            cycles: self.last_complete,
            dyn_insts: self.dyn_insts,
            flops: self.flops,
            mem_accesses: self.cache.accesses,
            l1_misses: self.cache.l1_misses,
            llc_misses: self.cache.llc_misses,
            port_uops,
        };
        (report, self.prof)
    }
}

impl<const PROF: bool> StepSink for Scoreboard<PROF> {
    #[inline]
    fn step(&mut self, pc: u32, access: Option<MemAccess>) {
        let pc = pc as usize;
        let m = self.meta[pc];
        if m.kind == Kind::Inert {
            return;
        }
        self.dyn_insts += 1;
        self.flops += u64::from(m.flops);

        // Data readiness (true dependences only — renaming is implicit).
        let mut ready = 0u64;
        for &r in &m.vec_uses[..m.n_vec as usize] {
            ready = ready.max(self.vec_ready[(r & 15) as usize]);
        }
        for &r in &m.gp_uses[..m.n_gp as usize] {
            ready = ready.max(self.gp_ready[(r & 15) as usize]);
        }
        if m.kind == Kind::Store {
            ready = ready.max(self.store_ready_floor);
        }

        // Front end: instruction k is fetched no earlier than k/width.
        let fetched = self.fetch_cycle;
        self.fetch_slot += 1;
        if self.fetch_slot == self.issue_width {
            self.fetch_slot = 0;
            self.fetch_cycle += 1;
        }
        // Window: wait for the instruction ROB_WINDOW back to have issued.
        let window_floor = self.window[self.head];
        let pre_port = ready.max(fetched).max(window_floor);
        let mut issue = pre_port;

        // Port scheduling: each µop takes the allowed port that frees
        // up first (lowest index on ties).
        for _ in 0..m.uops {
            let mut best_port = 0;
            let mut best_cycle = u64::MAX;
            let mut ports = m.ports;
            while ports != 0 {
                let p = ports.trailing_zeros() as usize;
                ports &= ports - 1;
                let c = self.port_free[p].max(issue);
                if c < best_cycle {
                    best_cycle = c;
                    best_port = p;
                }
            }
            self.port_free[best_port] = best_cycle + 1;
            self.port_uops[best_port] += 1;
            issue = issue.max(best_cycle);
            if PROF {
                self.prof.port_uops[pc * self.num_ports + best_port] += 1;
            }
        }
        self.window[self.head] = issue;
        self.head += 1;
        if self.head == ROB_WINDOW {
            self.head = 0;
        }

        // Latency: loads ask the cache model.
        let cache = &mut self.cache;
        let pre_access = if PROF {
            (cache.accesses, cache.l1_misses, cache.llc_misses)
        } else {
            (0, 0, 0)
        };
        let latency = match (m.kind, access) {
            (Kind::Load, Some(a)) => cache.access(a.addr, a.bytes, a.write),
            (Kind::Store, Some(a)) => {
                cache.access(a.addr, a.bytes, true);
                m.latency
            }
            (Kind::Prefetch, Some(a)) => {
                cache.prefetch(a.addr);
                m.latency
            }
            _ => m.latency,
        } as u64;

        let complete = issue + latency;
        if PROF {
            let prof = &mut self.prof;
            prof.execs[pc] += 1;
            // Attribute the slice of the critical frontier this dynamic
            // instruction extends; the slices telescope to total cycles.
            prof.cycles[pc] += complete.saturating_sub(self.last_complete);
            // Stall taxonomy: which floor dominated the issue cycle, and
            // by how much it exceeded the others.
            prof.stall_dep[pc] += ready.saturating_sub(fetched.max(window_floor));
            prof.stall_front[pc] += window_floor.saturating_sub(ready.max(fetched));
            prof.stall_port[pc] += issue - pre_port;
            prof.stall_mem[pc] += latency.saturating_sub(u64::from(m.latency));
            // Cache behavior of this access site (demand accesses only).
            let (a0, l1m0, llcm0) = pre_access;
            let demand = cache.accesses - a0;
            let l1m = cache.l1_misses - l1m0;
            prof.l1_hits[pc] += demand.saturating_sub(l1m.min(demand));
            prof.l1_misses[pc] += l1m;
            prof.llc_misses[pc] += cache.llc_misses - llcm0;
        }
        self.last_complete = self.last_complete.max(complete);
        if m.vec_def != NO_REG {
            self.vec_ready[(m.vec_def & 15) as usize] = complete;
        }
        if m.gp_def != NO_REG {
            self.gp_ready[(m.gp_def & 15) as usize] = complete;
        }
        if m.kind == Kind::Store {
            self.store_ready_floor = self.store_ready_floor.max(issue);
        }
    }
}

/// Runs `kernel` once with the scoreboard consuming every step. The
/// steady-state regime (`warm`) first runs it into the cache alone, on
/// its own copy of `args` so outputs the kernel accumulates into (GEMM's
/// `C`) start from the same values in the timed run.
fn timed<const PROF: bool>(
    kernel: &AsmKernel,
    args: Vec<SimValue>,
    machine: &MachineSpec,
    warm: bool,
    step_limit: Option<u64>,
) -> Result<(TimingReport, PcProfile, Vec<Vec<f64>>), SimError> {
    let mut sim = FuncSim::new(machine.isa);
    if let Some(limit) = step_limit {
        sim = sim.with_step_limit(limit);
    }
    let prog = decode(kernel, machine.isa.has(IsaFeature::Avx))?;
    let mut cache = CacheSim::new(&machine.caches);
    if warm {
        sim.run_into(&prog, kernel, args.clone(), &mut Warmup(&mut cache))?;
        cache.clear_counters();
    }
    let mut board = Scoreboard::<PROF>::new(kernel, machine, cache);
    let arrays = sim.run_into(&prog, kernel, args, &mut board)?;
    let (report, prof) = board.finish();
    Ok((report, prof, arrays))
}

/// Profiled twin of the `simulate_timing*` family: the same streamed
/// measurement with [`replay_profiled`]'s per-pc attribution. `warm`
/// selects the steady-state (pre-warmed cache) regime and `step_limit`
/// bounds the dynamic step count, exactly as in the unprofiled entry
/// points.
pub fn simulate_timing_profiled(
    kernel: &AsmKernel,
    args: Vec<SimValue>,
    machine: &MachineSpec,
    warm: bool,
    step_limit: Option<u64>,
) -> Result<(TimingReport, PcProfile, Vec<Vec<f64>>), SimError> {
    timed::<true>(kernel, args, machine, warm, step_limit)
}

/// Runs the functional simulator with the scoreboard timing each step
/// as it executes. Returns the timing report and final arrays.
pub fn simulate_timing(
    kernel: &AsmKernel,
    args: Vec<SimValue>,
    machine: &MachineSpec,
) -> Result<(TimingReport, Vec<Vec<f64>>), SimError> {
    timed::<false>(kernel, args, machine, false, None).map(|(r, _, a)| (r, a))
}

/// Steady-state variant: the cache is pre-warmed with the run's own
/// access stream before the timed run, so cold-start misses don't
/// pollute micro-kernel measurements (the tuner's view of a kernel whose
/// packed operands already sit in cache, as in the Goto algorithm).
pub fn simulate_timing_steady(
    kernel: &AsmKernel,
    args: Vec<SimValue>,
    machine: &MachineSpec,
) -> Result<(TimingReport, Vec<Vec<f64>>), SimError> {
    timed::<false>(kernel, args, machine, true, None).map(|(r, _, a)| (r, a))
}

/// [`simulate_timing`] under an explicit per-candidate instruction
/// budget: a kernel whose dynamic step count exceeds `step_limit` fails
/// with [`SimError::StepLimit`] instead of monopolizing the sweep (the
/// tuner maps this to its budget-exhausted evaluation class).
pub fn simulate_timing_budgeted(
    kernel: &AsmKernel,
    args: Vec<SimValue>,
    machine: &MachineSpec,
    step_limit: u64,
) -> Result<(TimingReport, Vec<Vec<f64>>), SimError> {
    timed::<false>(kernel, args, machine, false, Some(step_limit)).map(|(r, _, a)| (r, a))
}

/// [`simulate_timing_steady`] under an explicit per-candidate budget;
/// see [`simulate_timing_budgeted`].
pub fn simulate_timing_steady_budgeted(
    kernel: &AsmKernel,
    args: Vec<SimValue>,
    machine: &MachineSpec,
    step_limit: u64,
) -> Result<(TimingReport, Vec<Vec<f64>>), SimError> {
    timed::<false>(kernel, args, machine, true, Some(step_limit)).map(|(r, _, a)| (r, a))
}

/// Feeds a recorded trace through the scoreboard, after training the
/// cache on the trace's access stream when `warm`.
fn replay_impl<const PROF: bool>(
    kernel: &AsmKernel,
    trace: &Trace,
    machine: &MachineSpec,
    warm: bool,
) -> (TimingReport, PcProfile) {
    let steps = || trace.inst_indices.iter().zip(&trace.accesses);
    let mut cache = CacheSim::new(&machine.caches);
    if warm {
        let mut warm_up = Warmup(&mut cache);
        steps().for_each(|(&pc, &a)| warm_up.step(pc, a));
        cache.clear_counters();
    }
    let mut board = Scoreboard::<PROF>::new(kernel, machine, cache);
    steps().for_each(|(&pc, &a)| board.step(pc, a));
    board.finish()
}

/// Scoreboard timing of a recorded trace (see module docs): the same
/// scoreboard the `simulate_timing*` entry points drive live. With
/// `warm`, the cache is pre-trained on the access stream first.
pub fn replay(
    kernel: &AsmKernel,
    trace: &Trace,
    machine: &MachineSpec,
    warm: bool,
) -> TimingReport {
    replay_impl::<false>(kernel, trace, machine, warm).0
}

/// [`replay`] with per-pc attribution: cycles on the critical frontier,
/// issue stalls split by cause (operand dependency / port contention /
/// front-end), memory latency beyond L1, per-port µop occupancy and cache
/// hit/miss counts per access site. The returned [`TimingReport`] is
/// identical to the unprofiled one for the same trace.
pub fn replay_profiled(
    kernel: &AsmKernel,
    trace: &Trace,
    machine: &MachineSpec,
    warm: bool,
) -> (TimingReport, PcProfile) {
    replay_impl::<true>(kernel, trace, machine, warm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_asm::{Mem, ParamLoc, Width};
    use augem_machine::{GpReg, VecReg};

    fn fma_chain_kernel(independent: bool) -> AsmKernel {
        // 64 FMAs: either all into one accumulator (latency-bound) or
        // round-robin into 8 accumulators (throughput-bound).
        let ry = GpReg::allocatable()[0];
        let mut k = AsmKernel::new("chain");
        k.params.push(("Y".into(), ParamLoc::Gp(ry)));
        k.insts.push(XInst::FLoad {
            dst: VecReg(0),
            mem: Mem::elem(ry, 0),
            w: Width::V4,
        });
        for i in 0..64u8 {
            let acc = if independent { 1 + (i % 8) } else { 1 };
            k.insts.push(XInst::Fma3 {
                acc: VecReg(acc),
                a: VecReg(0),
                b: VecReg(0),
                w: Width::V4,
            });
        }
        k.insts.push(XInst::FStore {
            src: VecReg(1),
            mem: Mem::elem(ry, 0),
            w: Width::V4,
        });
        k.insts.push(XInst::Ret);
        k
    }

    #[test]
    fn independent_accumulators_beat_serial_chain() {
        let m = augem_machine::MachineSpec::piledriver();
        let args = || vec![SimValue::Array(vec![1.0; 8])];
        let (serial, _) = simulate_timing(&fma_chain_kernel(false), args(), &m).unwrap();
        let (parallel, _) = simulate_timing(&fma_chain_kernel(true), args(), &m).unwrap();
        assert!(
            parallel.cycles * 2 < serial.cycles,
            "parallel {} vs serial {}",
            parallel.cycles,
            serial.cycles
        );
        assert_eq!(parallel.flops, serial.flops);
        assert_eq!(parallel.flops, 64 * 2 * 4);
    }

    #[test]
    fn flop_counting_by_width() {
        assert_eq!(
            flops_of(&XInst::Fma3 {
                acc: VecReg(0),
                a: VecReg(1),
                b: VecReg(2),
                w: Width::V4
            }),
            8
        );
        assert_eq!(
            flops_of(&XInst::FMul2 {
                dstsrc: VecReg(0),
                src: VecReg(1),
                w: Width::S
            }),
            1
        );
        assert_eq!(flops_of(&XInst::Ret), 0);
    }

    #[test]
    fn profiled_replay_matches_plain_and_conserves() {
        let m = augem_machine::MachineSpec::sandy_bridge();
        let k = fma_chain_kernel(true);
        let args = vec![SimValue::Array(vec![1.0; 8])];
        let sim = crate::FuncSim::new(m.isa).with_trace();
        let (_, trace) = sim.run(&k, args).unwrap();
        let plain = replay(&k, &trace, &m, false);
        let (profiled, prof) = replay_profiled(&k, &trace, &m, false);
        // The profiled replay is observationally identical...
        assert_eq!(plain.cycles, profiled.cycles);
        assert_eq!(plain.port_uops, profiled.port_uops);
        assert_eq!(plain.l1_misses, profiled.l1_misses);
        // ...and its attribution conserves every aggregate.
        assert_eq!(prof.total_cycles(), plain.cycles);
        assert_eq!(prof.port_totals(), plain.port_uops);
        assert_eq!(prof.execs.iter().sum::<u64>(), plain.dyn_insts);
        assert_eq!(prof.l1_misses.iter().sum::<u64>(), plain.l1_misses);
        assert_eq!(prof.llc_misses.iter().sum::<u64>(), plain.llc_misses);
        // The FMA pcs (1..=64) carry all the flops-producing executions.
        assert_eq!(prof.execs[1], 1);
        assert!(prof.cycles.iter().sum::<u64>() > 0);
    }

    #[test]
    fn mflops_math() {
        let r = TimingReport {
            cycles: 1000,
            dyn_insts: 100,
            flops: 8000,
            mem_accesses: 0,
            l1_misses: 0,
            llc_misses: 0,
            port_uops: vec![],
        };
        // 8 flops/cycle at 1 GHz = 8 Gflops = 8000 Mflops.
        assert!((r.mflops(1.0) - 8000.0).abs() < 1e-9);
        assert!((r.useful_mflops(4000, 1.0) - 4000.0).abs() < 1e-9);
        assert!((r.cpi() - 10.0).abs() < 1e-9);
    }
}
