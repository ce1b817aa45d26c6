//! The Assembly Kernel Generator (paper §2.4) and overall code-generation
//! driver.
//!
//! [`generate`] turns a template-tagged low-level C kernel into a complete
//! [`AsmKernel`]: template regions are lowered by the specialized emitters
//! in [`crate::emit_tpl`], and *everything else* — loop control, pointer
//! arithmetic, prefetches, accumulator initialization and reduction
//! epilogues — is translated "in a straightforward fashion" here, with the
//! shared `reg_table` keeping register assignments consistent across
//! template and non-template code.
//!
//! Two cross-cutting rules handle the seams between scalar C statements
//! and lane-packed SIMD accumulators:
//!
//! * **Zero-init coalescing** — `res0 = 0.0; res1 = 0.0; ...` over scalars
//!   that the plan packed into one vector register become a single
//!   `xorpd`/`vxorpd`.
//! * **Horizontal-sum detection** — the reduction epilogue
//!   `res = res + res_l1; res = res + res_l2; ...` over lanes of one
//!   register becomes an extract/shuffle/add horizontal sum, after which
//!   `res` is rebound as a scalar.

use crate::binding::{AllocError, Binding, BindingEvent, RegAllocator};
use crate::isel;
use crate::plan::{self, Plan, PlanOptions, StrategyPref, VecStrategy};
use crate::sched;
use augem_asm::{AsmKernel, GpOrImm, Mem, ParamLoc, Width, XInst};
use augem_ir::{BinOp, Expr, Kernel, LValue, Liveness, Stmt, Sym, Ty};
use augem_machine::{GpReg, IsaSet, MachineSpec, VecReg};
use augem_templates::TemplateKind;
use std::collections::HashSet;

pub use crate::isel::FmaPolicy;

/// Code-generation options (tuning dimensions + ablation knobs).
#[derive(Debug, Clone, Copy)]
pub struct CodegenOptions {
    pub strategy: StrategyPref,
    pub fma: FmaPolicy,
    /// Run the post-pass instruction scheduler.
    pub schedule: bool,
    /// Use the per-array register queues of §3.1 (false = one shared
    /// pool, the ablation baseline).
    pub per_array_queues: bool,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            strategy: StrategyPref::Vdup,
            fma: FmaPolicy::Auto,
            schedule: true,
            per_array_queues: true,
        }
    }
}

/// Code-generation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CodegenError {
    Alloc(AllocError),
    /// A statement shape the straightforward translator does not support.
    Unsupported(String),
    /// Internal consistency failure (malformed annotation etc.).
    Malformed(String),
}

impl From<AllocError> for CodegenError {
    fn from(e: AllocError) -> Self {
        CodegenError::Alloc(e)
    }
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodegenError::Alloc(e) => write!(f, "register allocation failed: {e}"),
            CodegenError::Unsupported(m) => write!(f, "unsupported construct: {m}"),
            CodegenError::Malformed(m) => write!(f, "malformed input: {m}"),
        }
    }
}

impl std::error::Error for CodegenError {}

/// Everything the verifier needs to replay a compilation: the
/// allocator's decision log, the pre-schedule instruction stream those
/// decisions refer to, and the generator's planning context.
///
/// Produced by [`generate_with_log`]; consumed by `verify::check`.
#[derive(Debug, Clone)]
pub struct BindingLog {
    /// Allocator decisions in emission order.
    pub events: Vec<BindingEvent>,
    /// Pre-schedule instruction stream (event `inst_pos` indexes here).
    pub insts: Vec<XInst>,
    /// Canonical IR position of the statement each instruction lowers.
    pub inst_ir: Vec<u32>,
    /// Vector registers pre-bound to f64 parameters.
    pub reserved: Vec<VecReg>,
    /// ISA features the stream was generated for.
    pub isa: IsaSet,
    /// Packed width of the target's SIMD mode.
    pub packed: Width,
    /// Per-region vectorization strategy the plan chose.
    pub strategies: Vec<VecStrategy>,
    /// Stack slots (8-byte, `%rsp`-relative) the kernel owns.
    pub stack_slots: usize,
}

/// Shared code-generation state (used by the template emitters too).
pub(crate) struct Codegen<'a> {
    pub(crate) kernel: &'a Kernel,
    pub(crate) isa: IsaSet,
    pub(crate) packed: Width,
    pub(crate) opts: CodegenOptions,
    pub(crate) alloc: RegAllocator,
    pub(crate) liveness: Liveness,
    pub(crate) plan: Plan,
    /// Allocated accumulator registers per plan group (lazy).
    pub(crate) group_regs: Vec<Option<Vec<VecReg>>>,
    pub(crate) out: Vec<XInst>,
    /// Canonical IR position of the statement each `out` entry lowers.
    inst_ir: Vec<u32>,
    /// IR position of the statement currently being translated.
    cur_ir: u32,
    pub(crate) pos: u32,
    pub(crate) region_idx: usize,
    pub(crate) zeroed: HashSet<VecReg>,
    pub(crate) hsum_consumed: HashSet<Sym>,
    label_counter: u32,
    /// GP registers that must not be spill victims right now.
    pinned: Vec<GpReg>,
    /// Stack slot assigned to each spilled symbol (sticky).
    spill_slot: std::collections::HashMap<Sym, usize>,
    next_slot: usize,
    /// Symbols referenced inside innermost loops — spilled last.
    hot_syms: HashSet<Sym>,
    /// Id source for synthetic symbols (loop-bound temporaries).
    synth_counter: u32,
    /// Loop-nesting depth during body walks: releases are deferred until
    /// the enclosing loop finishes (symbols are live across back edges).
    suppress_release: u32,
}

/// Generates assembly for a template-tagged kernel on `machine`.
pub fn generate(
    kernel: &Kernel,
    machine: &MachineSpec,
    opts: &CodegenOptions,
) -> Result<AsmKernel, CodegenError> {
    generate_with_log(kernel, machine, opts, augem_obs::null()).map(|(asm, _)| asm)
}

/// [`generate`] under an `akg` span that additionally returns the
/// [`BindingLog`] the verifier replays: every allocator decision, stamped
/// with instruction and IR positions, plus the pre-schedule instruction
/// stream. Records the SIMD strategy the plan chose (`opt.simd_strategy`
/// label), register-pressure high-water marks (`regs.vec` / `regs.gp`
/// gauges) and the emitted instruction count (`akg.insts`).
pub fn generate_with_log(
    kernel: &Kernel,
    machine: &MachineSpec,
    opts: &CodegenOptions,
    tracer: &dyn augem_obs::Tracer,
) -> Result<(AsmKernel, BindingLog), CodegenError> {
    let _stage = augem_obs::span(tracer, augem_obs::stage::AKG);
    let plan_opts = PlanOptions {
        strategy: opts.strategy,
        fma: opts.fma,
    };
    let plan = plan::build(kernel, machine, &plan_opts);
    // The strategy the vectorizer actually used: the first vectorized
    // region's choice, or Scalar if nothing vectorized.
    let chosen = plan
        .strategies
        .iter()
        .find(|s| !matches!(s, VecStrategy::Scalar))
        .copied()
        .unwrap_or(VecStrategy::Scalar);
    tracer.label("opt.simd_strategy", &format!("{chosen:?}"));
    let liveness = Liveness::analyze(kernel);

    // Pre-bind parameters: f64 params reserve low vector registers.
    let mut reserved = Vec::new();
    let mut f64_params = Vec::new();
    for &p in &kernel.params {
        if kernel.syms.ty(p) == Ty::F64 {
            let r = VecReg(reserved.len() as u8);
            reserved.push(r);
            f64_params.push((p, r));
        }
    }
    let mut alloc =
        RegAllocator::with_queue_mode(kernel, machine, &reserved, opts.per_array_queues);
    let mut params = Vec::new();
    let mut gp_iter = GpReg::allocatable().iter();
    for &p in &kernel.params {
        let name = kernel.syms.name(p).to_string();
        match kernel.syms.ty(p) {
            Ty::F64 => {
                let (_, r) = f64_params.iter().find(|(s, _)| *s == p).unwrap();
                // Broadcast-bind: consumers use lane 0 for scalar math and
                // the full register as a Vdup'ed multiplicand.
                alloc.bind(p, Binding::Broadcast(*r));
                params.push((name, ParamLoc::VecBroadcast(*r)));
            }
            _ => {
                let r = *gp_iter.next().ok_or_else(|| {
                    CodegenError::Unsupported("too many integer parameters".into())
                })?;
                alloc.claim_gp(r);
                alloc.bind(p, Binding::Gp(r));
                params.push((name, ParamLoc::Gp(r)));
            }
        }
    }

    let mut hot_syms = HashSet::new();
    collect_hot_syms(&kernel.body, &mut hot_syms);

    let group_count = plan.groups.len();
    let mut cg = Codegen {
        kernel,
        isa: machine.isa,
        packed: Width::packed(machine.simd_mode()),
        opts: *opts,
        alloc,
        liveness,
        plan,
        group_regs: vec![None; group_count],
        out: Vec::new(),
        inst_ir: Vec::new(),
        cur_ir: 0,
        pos: 0,
        region_idx: 0,
        zeroed: HashSet::new(),
        hsum_consumed: HashSet::new(),
        label_counter: 0,
        pinned: Vec::new(),
        spill_slot: std::collections::HashMap::new(),
        next_slot: 0,
        hot_syms,
        synth_counter: 0,
        suppress_release: 0,
    };

    cg.walk(&kernel.body)?;
    cg.push(XInst::Ret);

    tracer.hwm("regs.vec", cg.alloc.vec_high_water() as u64);
    tracer.hwm("regs.gp", cg.alloc.gp_high_water() as u64);

    // ABI prologue/epilogue: the GP pool hands out callee-saved
    // registers (%rbx, %r12–%r15) once the caller-saved ones run out,
    // so any the kernel writes must be parked in stack slots around
    // the body — a C caller owns their values across the call.
    let mut saved: Vec<(GpReg, usize)> = Vec::new();
    for i in &cg.out {
        if let Some(d) = i.gp_def() {
            if d.is_callee_saved() && !saved.iter().any(|(r, _)| *r == d) {
                let slot = cg.next_slot;
                cg.next_slot += 1;
                saved.push((d, slot));
            }
        }
    }
    let mut pre = cg.out;
    let mut pre_ir = cg.inst_ir;
    if !saved.is_empty() {
        let ret_ir = pre_ir.last().copied().unwrap_or(0);
        let body_len = pre.len() - 1; // Ret is always last
        let mut insts = Vec::with_capacity(pre.len() + 2 * saved.len());
        let mut ir = Vec::with_capacity(insts.capacity());
        for &(r, slot) in &saved {
            insts.push(XInst::IStore {
                src: r,
                mem: Mem::elem(GpReg(7), slot as i64),
            });
            ir.push(0);
        }
        insts.extend(pre.drain(..body_len));
        ir.extend(pre_ir[..body_len].iter().copied());
        for &(r, slot) in &saved {
            insts.push(XInst::ILoad {
                dst: r,
                mem: Mem::elem(GpReg(7), slot as i64),
            });
            ir.push(ret_ir);
        }
        insts.push(XInst::Ret);
        ir.push(ret_ir);
        pre = insts;
        pre_ir = ir;
    }
    let mut events = cg.alloc.take_events();
    for e in &mut events {
        e.inst_pos += saved.len();
    }

    let stack_slots = cg.next_slot;
    let log = BindingLog {
        events,
        insts: pre.clone(),
        inst_ir: pre_ir,
        reserved,
        isa: machine.isa,
        packed: Width::packed(machine.simd_mode()),
        strategies: cg.plan.strategies.clone(),
        stack_slots,
    };

    let mut insts = pre;
    if opts.schedule {
        let _s = augem_obs::span(tracer, "akg.sched");
        insts = sched::schedule(insts, machine);
    }
    tracer.add("akg.insts", insts.len() as u64);

    let asm = AsmKernel {
        name: kernel.name.clone(),
        params,
        insts,
        stack_slots,
    };
    asm.validate().map_err(CodegenError::Malformed)?;
    Ok((asm, log))
}

impl<'a> Codegen<'a> {
    pub(crate) fn push(&mut self, inst: XInst) {
        if let Some(d) = inst.vec_def() {
            if !matches!(inst, XInst::FZero { .. }) {
                self.zeroed.remove(&d);
            }
        }
        self.inst_ir.push(self.cur_ir);
        self.out.push(inst);
        self.alloc.note_inst_count(self.out.len());
    }

    pub(crate) fn push_all(&mut self, insts: Vec<XInst>) {
        for i in insts {
            self.push(i);
        }
    }

    pub(crate) fn fresh_label(&mut self, tag: &str) -> String {
        let n = self.label_counter;
        self.label_counter += 1;
        format!(".L{tag}{n}")
    }

    /// Ensures a symbol's plan-mandated binding exists.
    pub(crate) fn ensure_sym(&mut self, s: Sym) -> Result<(), CodegenError> {
        if self.alloc.lookup(s).is_some() {
            return Ok(());
        }
        if let Some(&gi) = self.plan.sym_group.get(&s) {
            if self.group_regs[gi].is_none() {
                let group = self.plan.groups[gi].clone();
                let mut regs = Vec::with_capacity(group.accs);
                for _ in 0..group.accs {
                    regs.push(self.alloc.alloc_vec(group.class)?);
                }
                for &(sym, acc, lane) in &group.layout {
                    self.alloc.bind(
                        sym,
                        Binding::Lane {
                            reg: regs[acc as usize],
                            lane,
                        },
                    );
                }
                self.group_regs[gi] = Some(regs);
            }
            return Ok(());
        }
        if let Some(&class) = self.plan.scalar_res_class.get(&s) {
            let r = self.alloc.alloc_vec(class)?;
            self.alloc.bind(s, Binding::ScalarVec(r));
            return Ok(());
        }
        Ok(())
    }

    /// Register (and lane) of an f64 symbol usable in *scalar* context.
    pub(crate) fn scalar_reg(&mut self, s: Sym) -> Result<VecReg, CodegenError> {
        self.ensure_sym(s)?;
        match self.alloc.lookup(s) {
            Some(Binding::ScalarVec(r)) | Some(Binding::Broadcast(r)) => Ok(r),
            Some(Binding::Lane { reg, lane: 0 }) => Ok(reg),
            Some(Binding::Lane { lane, .. }) => Err(CodegenError::Unsupported(format!(
                "scalar use of lane-{lane} packed accumulator {}",
                self.kernel.syms.name(s)
            ))),
            Some(Binding::Gp(_)) | Some(Binding::Spilled(_)) => {
                Err(CodegenError::Malformed(format!(
                    "{} is float-typed but bound to a GP register",
                    self.kernel.syms.name(s)
                )))
            }
            None => Err(CodegenError::Malformed(format!(
                "no binding for {}",
                self.kernel.syms.name(s)
            ))),
        }
    }

    /// GP register of an integer/pointer symbol (reloading a spill if
    /// needed). The returned register is pinned for the current statement.
    pub(crate) fn gp_reg(&mut self, s: Sym) -> Result<GpReg, CodegenError> {
        match self.alloc.lookup(s) {
            Some(Binding::Gp(r)) => {
                self.pin(r);
                Ok(r)
            }
            Some(Binding::Spilled(slot)) => {
                let r = self.get_gp()?;
                self.push(XInst::ILoad {
                    dst: r,
                    mem: Mem::elem(GpReg(7), slot as i64), // %rsp-relative
                });
                self.alloc.rebind(s, Binding::Gp(r));
                Ok(r)
            }
            Some(_) => Err(CodegenError::Malformed(format!(
                "{} used as integer but bound to a vector register",
                self.kernel.syms.name(s)
            ))),
            None => Err(CodegenError::Malformed(format!(
                "integer {} read before assignment",
                self.kernel.syms.name(s)
            ))),
        }
    }

    pub(crate) fn pin(&mut self, r: GpReg) {
        if !self.pinned.contains(&r) {
            self.pinned.push(r);
        }
    }

    pub(crate) fn clear_pins(&mut self) {
        self.pinned.clear();
    }

    fn name_of(&self, s: Sym) -> String {
        if (s.0 as usize) < self.kernel.syms.len() {
            self.kernel.syms.name(s).to_string()
        } else {
            format!("<synth{}>", s.0)
        }
    }

    fn fresh_synth(&mut self) -> Sym {
        let id = self.kernel.syms.len() as u32 + 1_000_000 + self.synth_counter;
        self.synth_counter += 1;
        Sym(id)
    }

    /// Spills `sym` (currently in `r`) to its sticky stack slot.
    fn spill_sym_to_slot(&mut self, sym: Sym, r: GpReg) {
        let slot = *self.spill_slot.entry(sym).or_insert_with(|| {
            let sl = self.next_slot;
            self.next_slot += 1;
            sl
        });
        self.push(XInst::IStore {
            src: r,
            mem: Mem::elem(GpReg(7), slot as i64),
        });
        self.alloc.rebind(sym, Binding::Spilled(slot));
        self.alloc.free_gp(r);
    }

    /// Restores the GP binding state captured at a loop head so that the
    /// back edge sees exactly the register assignment the loop-top code
    /// was generated against. Symbols that moved are parked on the stack
    /// and reloaded into their snapshot registers; body-local symbols
    /// squatting on wanted registers are spilled out of the way.
    fn reconcile_gp(
        &mut self,
        snapshot: &std::collections::HashMap<Sym, GpReg>,
    ) -> Result<(), CodegenError> {
        let wanted: HashSet<GpReg> = snapshot.values().copied().collect();
        // Pass 1: evict everything out of place.
        for (s, r) in self.alloc.gp_bound_syms() {
            match snapshot.get(&s) {
                Some(&r2) if r2 == r => {}
                Some(_) => self.spill_sym_to_slot(s, r),
                None => {
                    if wanted.contains(&r) {
                        self.spill_sym_to_slot(s, r);
                    }
                }
            }
        }
        // Pass 2: reload snapshot symbols into their original registers
        // (sorted: iteration order must be deterministic).
        let mut entries: Vec<(Sym, GpReg)> = snapshot.iter().map(|(&a, &b)| (a, b)).collect();
        entries.sort();
        for (s, r2) in entries {
            match self.alloc.lookup(s) {
                Some(Binding::Gp(r)) if r == r2 => {}
                Some(Binding::Spilled(slot)) => {
                    self.alloc.claim_gp(r2);
                    self.push(XInst::ILoad {
                        dst: r2,
                        mem: Mem::elem(GpReg(7), slot as i64),
                    });
                    self.alloc.rebind(s, Binding::Gp(r2));
                }
                None => {} // released: dead past this point
                Some(other) => {
                    return Err(CodegenError::Malformed(format!(
                        "loop-head symbol {} changed binding class to {other:?}",
                        self.name_of(s)
                    )))
                }
            }
        }
        Ok(())
    }

    /// Allocates a GP register, spilling a victim to the stack when the
    /// file is full. The returned register is pinned.
    pub(crate) fn get_gp(&mut self) -> Result<GpReg, CodegenError> {
        if let Ok(r) = self.alloc.alloc_gp() {
            self.pin(r);
            return Ok(r);
        }
        // Choose a victim: prefer cold integer params, then cold symbols,
        // then anything unpinned.
        let candidates = self.alloc.gp_bound_syms();
        let rank = |cg: &Codegen, s: Sym| -> u8 {
            let hot = cg.hot_syms.contains(&s);
            let is_real = (s.0 as usize) < cg.kernel.syms.len();
            let int_param = is_real
                && cg.kernel.syms.kind(s) == augem_ir::SymKind::Param
                && cg.kernel.syms.ty(s) == Ty::I64;
            match (hot, int_param) {
                (false, true) => 0,
                (false, false) => 1,
                (true, _) => 2,
            }
        };
        let mut best: Option<(u8, Sym, GpReg)> = None;
        for (s, r) in candidates {
            if self.pinned.contains(&r) {
                continue;
            }
            let k = rank(self, s);
            if best.as_ref().map(|(bk, _, _)| k < *bk).unwrap_or(true) {
                best = Some((k, s, r));
            }
        }
        let Some((_, victim, vr)) = best else {
            return Err(CodegenError::Alloc(AllocError::OutOfGpRegs));
        };
        self.spill_sym_to_slot(victim, vr);
        let r = self.alloc.alloc_gp().map_err(CodegenError::Alloc)?;
        self.pin(r);
        Ok(r)
    }

    fn release_dying(&mut self, pos: u32) {
        if self.suppress_release > 0 {
            return;
        }
        // Stamp releases with the position they are "as of" so the
        // verifier can compare against the symbol's live range.
        self.alloc.set_ir_pos(pos);
        for s in self.liveness.dying_at(pos) {
            self.alloc.release(s);
            self.hsum_consumed.remove(&s);
        }
    }

    /// Advances the canonical position counter over a region body without
    /// translating (the template emitter already covered it), releasing
    /// dying symbols on the way.
    fn advance_over(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            let here = self.pos;
            self.pos += 1;
            self.release_dying(here);
            if let Stmt::For { body, .. } | Stmt::Region { body, .. } = s {
                self.advance_over(body);
            }
        }
    }

    pub(crate) fn walk(&mut self, stmts: &[Stmt]) -> Result<(), CodegenError> {
        for s in stmts {
            self.clear_pins();
            let here = self.pos;
            self.pos += 1;
            self.cur_ir = here;
            self.alloc.set_ir_pos(here);
            match s {
                Stmt::Region { annot, body } => {
                    let idx = self.region_idx;
                    self.region_idx += 1;
                    let strategy = self
                        .plan
                        .strategies
                        .get(idx)
                        .copied()
                        .unwrap_or(VecStrategy::Scalar);
                    let kind = TemplateKind::from_name(&annot.template);
                    self.push(XInst::Comment(format!(
                        "region {}: {} [{:?}]",
                        idx, annot.template, strategy
                    )));
                    match kind {
                        Some(TemplateKind::MmComp) => self.emit_mm_comp(annot)?,
                        Some(TemplateKind::MmStore) => self.emit_mm_store(annot)?,
                        Some(TemplateKind::MvComp) => self.emit_mv_comp(annot)?,
                        Some(TemplateKind::MmUnrolledComp) => {
                            self.emit_mm_unrolled_comp(annot, strategy)?
                        }
                        Some(TemplateKind::MmUnrolledStore) => {
                            self.emit_mm_unrolled_store(annot)?
                        }
                        Some(TemplateKind::MvUnrolledComp) => {
                            self.emit_mv_unrolled_comp(annot, strategy)?
                        }
                        Some(TemplateKind::SvScal) => self.emit_sv_scal(annot)?,
                        Some(TemplateKind::SvUnrolledScal) => {
                            self.emit_sv_unrolled_scal(annot, strategy)?
                        }
                        None => {
                            return Err(CodegenError::Malformed(format!(
                                "unknown template {}",
                                annot.template
                            )))
                        }
                    }
                    self.release_dying(here);
                    self.advance_over(body);
                }
                Stmt::For {
                    var,
                    init,
                    bound,
                    step,
                    body,
                } => {
                    self.translate_for(*var, init, bound, *step, body, here)?;
                }
                Stmt::Assign { dst, src } => {
                    self.translate_assign(dst, src)?;
                    self.release_dying(here);
                }
                Stmt::Prefetch {
                    base,
                    index,
                    write,
                    locality,
                } => {
                    let b = self.gp_reg(*base)?;
                    let disp = index.as_const_int().ok_or_else(|| {
                        CodegenError::Unsupported("non-constant prefetch index".into())
                    })?;
                    self.push(XInst::Prefetch {
                        mem: Mem::elem(b, disp),
                        write: *write,
                        locality: *locality,
                    });
                    self.release_dying(here);
                }
                Stmt::Comment(c) => {
                    if !c.is_empty() {
                        self.push(XInst::Comment(c.clone()));
                    }
                    self.release_dying(here);
                }
            }
        }
        Ok(())
    }

    fn translate_for(
        &mut self,
        var: Sym,
        init: &Expr,
        bound: &Expr,
        step: i64,
        body: &[Stmt],
        header_pos: u32,
    ) -> Result<(), CodegenError> {
        // Induction variable register.
        let rv = match self.alloc.lookup(var) {
            Some(Binding::Gp(_)) | Some(Binding::Spilled(_)) => self.gp_reg(var)?,
            Some(_) => {
                return Err(CodegenError::Malformed(
                    "loop variable bound to a vector register".into(),
                ))
            }
            None => {
                let r = self.get_gp()?;
                self.alloc.bind(var, Binding::Gp(r));
                r
            }
        };
        // v = init
        match self.eval_int(init)? {
            IVal::Imm(c) => self.push(XInst::IMovImm { dst: rv, imm: c }),
            IVal::Reg { reg, owned } => {
                if reg != rv {
                    self.push(XInst::IMov { dst: rv, src: reg });
                }
                if owned {
                    self.alloc.free_gp(reg);
                }
            }
        }
        // Bound: spill-safe handle. Body code generation may spill any
        // symbol, so the bound lives either as an immediate, as a named
        // variable re-queried at each comparison, or as a synthetic
        // spillable symbol.
        enum BoundHandle {
            Imm(i64),
            Var(Sym),
            Synth(Sym),
        }
        let handle = if let Some(c) = bound.as_const_int() {
            BoundHandle::Imm(c)
        } else if let Expr::Var(sv) = bound {
            BoundHandle::Var(*sv)
        } else {
            match self.eval_int(bound)? {
                IVal::Imm(c) => BoundHandle::Imm(c),
                IVal::Reg { reg, owned } => {
                    let synth = self.fresh_synth();
                    if owned {
                        self.alloc.bind(synth, Binding::Gp(reg));
                    } else {
                        let copy = self.get_gp()?;
                        self.push(XInst::IMov {
                            dst: copy,
                            src: reg,
                        });
                        self.alloc.bind(synth, Binding::Gp(copy));
                    }
                    BoundHandle::Synth(synth)
                }
            }
        };
        let bound_operand = |cg: &mut Self| -> Result<GpOrImm, CodegenError> {
            Ok(match &handle {
                BoundHandle::Imm(c) => GpOrImm::Imm(*c),
                BoundHandle::Var(sv) => GpOrImm::Gp(cg.gp_reg(*sv)?),
                BoundHandle::Synth(sy) => GpOrImm::Gp(cg.gp_reg(*sy)?),
            })
        };

        let l_body = self.fresh_label("body");
        let l_end = self.fresh_label("end");
        let b0 = bound_operand(self)?;
        self.push(XInst::Cmp { a: rv, b: b0 });
        self.push(XInst::Jge(l_end.clone()));
        self.push(XInst::Label(l_body.clone()));
        // Snapshot the GP assignment the loop-top code was generated
        // against; the back edge must restore it.
        let snapshot: std::collections::HashMap<Sym, GpReg> =
            self.alloc.gp_bound_syms().into_iter().collect();

        self.suppress_release += 1;
        self.walk(body)?;
        self.suppress_release -= 1;

        self.clear_pins();
        self.reconcile_gp(&snapshot)?;

        // Body statements may have spilled/moved the induction variable
        // and the bound; re-query both.
        self.clear_pins();
        let rv2 = self.gp_reg(var)?;
        self.push(XInst::IAdd {
            dst: rv2,
            src: GpOrImm::Imm(step),
        });
        let b1 = bound_operand(self)?;
        self.push(XInst::Cmp { a: rv2, b: b1 });
        self.push(XInst::Jl(l_body));
        self.push(XInst::Label(l_end));

        if let BoundHandle::Synth(sy) = handle {
            self.alloc.release(sy);
        }
        // Sweep every release deferred inside this (outermost) loop,
        // including the header's own position.
        if self.suppress_release == 0 {
            for p in header_pos..self.pos {
                self.alloc.set_ir_pos(p);
                for s in self.liveness.dying_at(p) {
                    self.alloc.release(s);
                    self.hsum_consumed.remove(&s);
                }
            }
        }
        // Lane-accumulator state does not survive unknown trip counts.
        self.zeroed.clear();
        Ok(())
    }

    fn translate_assign(&mut self, dst: &LValue, src: &Expr) -> Result<(), CodegenError> {
        match dst {
            LValue::Var(x) => match self.kernel.syms.ty(*x) {
                Ty::F64 => self.translate_f64_assign(*x, src),
                Ty::I64 | Ty::PtrF64 => self.translate_int_assign(*x, src),
            },
            LValue::ArrayRef { base, index } => {
                // arr[idx] = var
                let Expr::Var(v) = src else {
                    return Err(CodegenError::Unsupported(
                        "store of a non-variable expression (not three-address)".into(),
                    ));
                };
                let r = self.scalar_reg(*v)?;
                let mem = self.mem_operand(*base, index)?;
                self.push(XInst::FStore {
                    src: r,
                    mem,
                    w: Width::S,
                });
                Ok(())
            }
        }
    }

    fn translate_f64_assign(&mut self, x: Sym, src: &Expr) -> Result<(), CodegenError> {
        match src {
            Expr::F64(c) if *c == 0.0 => {
                self.ensure_sym(x)?;
                let (reg, w) = match self.alloc.lookup(x) {
                    Some(Binding::Lane { reg, .. }) => (reg, self.packed),
                    Some(Binding::ScalarVec(r)) | Some(Binding::Broadcast(r)) => (r, self.packed),
                    Some(Binding::Gp(_)) | Some(Binding::Spilled(_)) => {
                        return Err(CodegenError::Malformed("f64 bound to GP".into()))
                    }
                    None => {
                        // Plain scalar accumulator: temp-class register.
                        let r = self.alloc.alloc_vec(None)?;
                        self.alloc.bind(x, Binding::ScalarVec(r));
                        (r, self.packed)
                    }
                };
                if !self.zeroed.contains(&reg) {
                    self.push(XInst::FZero { dst: reg, w });
                    self.zeroed.insert(reg);
                }
                Ok(())
            }
            Expr::F64(_) => Err(CodegenError::Unsupported(
                "non-zero floating-point literal".into(),
            )),
            Expr::Var(y) => {
                let ry = self.scalar_reg(*y)?;
                self.ensure_sym(x)?;
                match self.alloc.lookup(x) {
                    Some(b) => {
                        let rx = b.vec_reg().ok_or_else(|| {
                            CodegenError::Malformed("f64 copy into GP binding".into())
                        })?;
                        if rx != ry {
                            self.push(XInst::FMov {
                                dst: rx,
                                src: ry,
                                w: Width::S,
                            });
                        }
                    }
                    None => {
                        let rx = self.alloc.alloc_vec(None)?;
                        self.alloc.bind(x, Binding::ScalarVec(rx));
                        self.push(XInst::FMov {
                            dst: rx,
                            src: ry,
                            w: Width::S,
                        });
                    }
                }
                Ok(())
            }
            Expr::ArrayRef { base, index } => {
                self.ensure_sym(x)?;
                let broadcast = self.plan.broadcast_syms.contains(&x)
                    || matches!(self.alloc.lookup(x), Some(Binding::Broadcast(_)));
                let mem = self.mem_operand(*base, index)?;
                let class = Some(self.kernel.origin_of(*base));
                let reg = match self.alloc.lookup(x) {
                    Some(b) => b.vec_reg().ok_or_else(|| {
                        CodegenError::Malformed("f64 load into GP binding".into())
                    })?,
                    None => {
                        let r = self.alloc.alloc_vec(class)?;
                        self.alloc.bind(
                            x,
                            if broadcast {
                                Binding::Broadcast(r)
                            } else {
                                Binding::ScalarVec(r)
                            },
                        );
                        r
                    }
                };
                if broadcast {
                    self.push(XInst::FDup {
                        dst: reg,
                        mem,
                        w: self.packed,
                    });
                } else {
                    self.push(XInst::FLoad {
                        dst: reg,
                        mem,
                        w: Width::S,
                    });
                }
                Ok(())
            }
            Expr::Bin(op, l, r) => {
                let (Expr::Var(a), Expr::Var(b)) = (&**l, &**r) else {
                    return Err(CodegenError::Unsupported(
                        "non-three-address floating-point expression".into(),
                    ));
                };
                self.translate_f64_binop(x, *op, *a, *b)
            }
            Expr::Int(_) => Err(CodegenError::Unsupported(
                "integer literal assigned to double".into(),
            )),
        }
    }

    fn translate_f64_binop(
        &mut self,
        x: Sym,
        op: BinOp,
        a: Sym,
        b: Sym,
    ) -> Result<(), CodegenError> {
        if !matches!(op, BinOp::Add | BinOp::Mul) {
            return Err(CodegenError::Unsupported(format!(
                "floating-point operator {op:?}"
            )));
        }
        self.ensure_sym(a)?;
        self.ensure_sym(b)?;

        // Reduction-epilogue handling: x = x + <lane-mate or consumed sym>.
        if op == BinOp::Add && (x == a || x == b) {
            let other = if x == a { b } else { a };
            if self.hsum_consumed.contains(&other) {
                return Ok(()); // already folded into the horizontal sum
            }
            let bx = self.alloc.lookup(x);
            let bo = self.alloc.lookup(other);
            if let Some(Binding::Lane { reg: ro, .. }) = bo {
                if matches!(bx, Some(Binding::Lane { reg, .. }) if reg == ro) {
                    return self.emit_hsum(x, ro);
                }
                // The addend's partial sums live in a *different* packed
                // register (unroll factor > SIMD width): fold that
                // register horizontally first, then do the scalar add.
                self.emit_hsum(other, ro)?;
            }
        }

        let ra = self.scalar_reg(a)?;
        let rb = self.scalar_reg(b)?;
        let avx = self.isa.has(augem_machine::IsaFeature::Avx);
        let w = Width::S;
        if x == a || x == b {
            let rx = self.scalar_reg(x)?;
            let other = if x == a { rb } else { ra };
            let inst = if avx {
                match op {
                    BinOp::Add => XInst::FAdd3 {
                        dst: rx,
                        a: rx,
                        b: other,
                        w,
                    },
                    BinOp::Mul => XInst::FMul3 {
                        dst: rx,
                        a: rx,
                        b: other,
                        w,
                    },
                    _ => unreachable!(),
                }
            } else {
                match op {
                    BinOp::Add => XInst::FAdd2 {
                        dstsrc: rx,
                        src: other,
                        w,
                    },
                    BinOp::Mul => XInst::FMul2 {
                        dstsrc: rx,
                        src: other,
                        w,
                    },
                    _ => unreachable!(),
                }
            };
            self.push(inst);
            return Ok(());
        }

        // x is a fresh destination.
        self.ensure_sym(x)?;
        let rx = match self.alloc.lookup(x) {
            Some(bi) => bi
                .vec_reg()
                .ok_or_else(|| CodegenError::Malformed("f64 result into GP".into()))?,
            None => {
                let r = self.alloc.alloc_vec(None)?;
                self.alloc.bind(x, Binding::ScalarVec(r));
                r
            }
        };
        if avx {
            let inst = match op {
                BinOp::Add => XInst::FAdd3 {
                    dst: rx,
                    a: ra,
                    b: rb,
                    w,
                },
                BinOp::Mul => XInst::FMul3 {
                    dst: rx,
                    a: ra,
                    b: rb,
                    w,
                },
                _ => unreachable!(),
            };
            self.push(inst);
        } else {
            self.push(XInst::FMov {
                dst: rx,
                src: ra,
                w,
            });
            let inst = match op {
                BinOp::Add => XInst::FAdd2 {
                    dstsrc: rx,
                    src: rb,
                    w,
                },
                BinOp::Mul => XInst::FMul2 {
                    dstsrc: rx,
                    src: rb,
                    w,
                },
                _ => unreachable!(),
            };
            self.push(inst);
        }
        Ok(())
    }

    /// Emits a horizontal sum of `v`'s lanes into lane 0 and rebinds `x`
    /// as a scalar living in `v`. Every other symbol lane-bound to `v` is
    /// marked consumed.
    fn emit_hsum(&mut self, x: Sym, v: VecReg) -> Result<(), CodegenError> {
        let avx_wide = self.packed == Width::V4;
        let t = self.alloc.alloc_vec(None)?;
        if avx_wide {
            self.push(XInst::ExtractHi { dst: t, src: v });
            self.push(XInst::FAdd3 {
                dst: v,
                a: v,
                b: t,
                w: Width::V2,
            });
        }
        // Pair sum: t = (v[1], v[0]); v[0] += t[0].
        if self.isa.has(augem_machine::IsaFeature::Avx) {
            self.push(XInst::Shuf3 {
                dst: t,
                a: v,
                b: v,
                imm: 1,
                w: Width::V2,
            });
            self.push(XInst::FAdd3 {
                dst: v,
                a: v,
                b: t,
                w: Width::S,
            });
        } else {
            self.push(XInst::FMov {
                dst: t,
                src: v,
                w: Width::V2,
            });
            self.push(XInst::Shuf2 {
                dstsrc: t,
                src: v,
                imm: 1,
                w: Width::V2,
            });
            self.push(XInst::FAdd2 {
                dstsrc: v,
                src: t,
                w: Width::S,
            });
        }
        self.alloc.free_vec(t);

        // Mark lane mates consumed and rebind x scalar.
        let mates: Vec<Sym> = self
            .alloc
            .bound_syms()
            .into_iter()
            .filter(|s| {
                *s != x
                    && matches!(
                        self.alloc.lookup(*s),
                        Some(Binding::Lane { reg, .. }) if reg == v
                    )
            })
            .collect();
        for m in mates {
            self.hsum_consumed.insert(m);
        }
        self.alloc.rebind(x, Binding::ScalarVec(v));
        Ok(())
    }

    fn translate_int_assign(&mut self, x: Sym, src: &Expr) -> Result<(), CodegenError> {
        let is_ptr = self.kernel.syms.ty(x) == Ty::PtrF64;
        // Fast paths for in-place pointer/counter updates.
        if let Expr::Bin(BinOp::Add, l, r) = src {
            if matches!(**l, Expr::Var(v) if v == x) {
                if let Some(rx) = self.alloc.lookup(x).and_then(|b| match b {
                    Binding::Gp(g) => Some(g),
                    _ => None,
                }) {
                    match &**r {
                        Expr::Int(c) => {
                            let scaled = if is_ptr { c * 8 } else { *c };
                            self.push(XInst::IAdd {
                                dst: rx,
                                src: GpOrImm::Imm(scaled),
                            });
                            return Ok(());
                        }
                        Expr::Var(v) if self.kernel.syms.ty(*v) == Ty::I64 => {
                            let rv = self.gp_reg(*v)?;
                            if is_ptr {
                                self.push(XInst::Lea {
                                    dst: rx,
                                    base: rx,
                                    idx: Some((rv, 8)),
                                    disp: 0,
                                });
                            } else {
                                self.push(XInst::IAdd {
                                    dst: rx,
                                    src: GpOrImm::Gp(rv),
                                });
                            }
                            return Ok(());
                        }
                        other => {
                            // p = p + <int expr>
                            let val = self.eval_int(other)?;
                            match val {
                                IVal::Imm(c) => {
                                    let scaled = if is_ptr { c * 8 } else { c };
                                    self.push(XInst::IAdd {
                                        dst: rx,
                                        src: GpOrImm::Imm(scaled),
                                    });
                                }
                                IVal::Reg { reg, owned } => {
                                    if is_ptr {
                                        self.push(XInst::Lea {
                                            dst: rx,
                                            base: rx,
                                            idx: Some((reg, 8)),
                                            disp: 0,
                                        });
                                    } else {
                                        self.push(XInst::IAdd {
                                            dst: rx,
                                            src: GpOrImm::Gp(reg),
                                        });
                                    }
                                    if owned {
                                        self.alloc.free_gp(reg);
                                    }
                                }
                            }
                            return Ok(());
                        }
                    }
                }
            }
        }

        // General: compute the value, then land it in x's register.
        let computed = if is_ptr {
            IVal::Reg {
                reg: self.eval_ptr(src)?,
                owned: true,
            }
        } else {
            self.eval_int(src)?
        };
        let rx = match self.alloc.lookup(x) {
            Some(Binding::Gp(_)) | Some(Binding::Spilled(_)) => self.gp_reg(x)?,
            Some(_) => {
                return Err(CodegenError::Malformed(
                    "integer symbol with vector binding".into(),
                ))
            }
            None => {
                // Steal an owned register when possible.
                if let IVal::Reg { reg, owned: true } = computed {
                    self.alloc.bind(x, Binding::Gp(reg));
                    return Ok(());
                }
                let r = self.get_gp()?;
                self.alloc.bind(x, Binding::Gp(r));
                r
            }
        };
        match computed {
            IVal::Imm(c) => self.push(XInst::IMovImm { dst: rx, imm: c }),
            IVal::Reg { reg, owned } => {
                if reg != rx {
                    self.push(XInst::IMov { dst: rx, src: reg });
                }
                if owned && reg != rx {
                    self.alloc.free_gp(reg);
                }
            }
        }
        Ok(())
    }

    /// Evaluates a pointer-typed expression into a fresh (owned) GP
    /// register holding a byte address.
    fn eval_ptr(&mut self, e: &Expr) -> Result<GpReg, CodegenError> {
        match e {
            Expr::Var(p) => {
                let rp = self.gp_reg(*p)?;
                let dst = self.get_gp()?;
                self.push(XInst::IMov { dst, src: rp });
                Ok(dst)
            }
            Expr::Bin(BinOp::Add, l, r) => {
                // ptr + int-elements (scaled by 8)
                let base = self.eval_ptr(l)?;
                match self.eval_int(r)? {
                    IVal::Imm(c) => {
                        if c != 0 {
                            self.push(XInst::IAdd {
                                dst: base,
                                src: GpOrImm::Imm(c * 8),
                            });
                        }
                        Ok(base)
                    }
                    IVal::Reg { reg, owned } => {
                        self.push(XInst::Lea {
                            dst: base,
                            base,
                            idx: Some((reg, 8)),
                            disp: 0,
                        });
                        if owned {
                            self.alloc.free_gp(reg);
                        }
                        Ok(base)
                    }
                }
            }
            _ => Err(CodegenError::Unsupported(
                "pointer expression outside ptr + int form".into(),
            )),
        }
    }

    /// Evaluates an integer expression.
    fn eval_int(&mut self, e: &Expr) -> Result<IVal, CodegenError> {
        match e {
            Expr::Int(c) => Ok(IVal::Imm(*c)),
            Expr::Var(s) => Ok(IVal::Reg {
                reg: self.gp_reg(*s)?,
                owned: false,
            }),
            Expr::Bin(op, l, r) => {
                let lv = self.eval_int(l)?;
                let rv = self.eval_int(r)?;
                if let (IVal::Imm(a), IVal::Imm(b)) = (&lv, &rv) {
                    let c = match op {
                        BinOp::Add => a + b,
                        BinOp::Sub => a - b,
                        BinOp::Mul => a * b,
                        BinOp::Div => {
                            return Err(CodegenError::Unsupported("integer division".into()))
                        }
                    };
                    return Ok(IVal::Imm(c));
                }
                // Materialize the left side in an owned register.
                let dst = match lv {
                    IVal::Imm(c) => {
                        let d = self.get_gp()?;
                        self.push(XInst::IMovImm { dst: d, imm: c });
                        d
                    }
                    IVal::Reg { reg, owned: true } => reg,
                    IVal::Reg { reg, owned: false } => {
                        let d = self.get_gp()?;
                        self.push(XInst::IMov { dst: d, src: reg });
                        d
                    }
                };
                let operand = match &rv {
                    IVal::Imm(c) => GpOrImm::Imm(*c),
                    IVal::Reg { reg, .. } => GpOrImm::Gp(*reg),
                };
                let inst = match op {
                    BinOp::Add => XInst::IAdd { dst, src: operand },
                    BinOp::Sub => XInst::ISub { dst, src: operand },
                    BinOp::Mul => XInst::IMul { dst, src: operand },
                    BinOp::Div => unreachable!(),
                };
                self.push(inst);
                if let IVal::Reg { reg, owned: true } = rv {
                    self.alloc.free_gp(reg);
                }
                Ok(IVal::Reg {
                    reg: dst,
                    owned: true,
                })
            }
            _ => Err(CodegenError::Unsupported(
                "unsupported integer expression".into(),
            )),
        }
    }

    /// Builds a memory operand `disp(base)` for `base[index]`.
    pub(crate) fn mem_operand(&mut self, base: Sym, index: &Expr) -> Result<Mem, CodegenError> {
        let b = self.gp_reg(base)?;
        if let Some(c) = index.as_const_int() {
            return Ok(Mem::elem(b, c));
        }
        Err(CodegenError::Unsupported(
            "non-constant array subscript outside strength-reduced form".into(),
        ))
    }
}

/// Symbols referenced inside innermost loop bodies (and their bounds) —
/// the spill-victim chooser protects these.
fn collect_hot_syms(stmts: &[Stmt], hot: &mut HashSet<Sym>) {
    fn contains_loop(stmts: &[Stmt]) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::For { .. } => true,
            Stmt::Region { body, .. } => contains_loop(body),
            _ => false,
        })
    }
    fn all_syms(stmts: &[Stmt], out: &mut HashSet<Sym>) {
        let mut v = Vec::new();
        for s in stmts {
            v.clear();
            augem_ir::visit::stmt_uses(s, &mut v);
            out.extend(v.iter().copied());
            if let Some(d) = augem_ir::visit::stmt_def(s) {
                out.insert(d);
            }
            if let Stmt::For { body, .. } | Stmt::Region { body, .. } = s {
                all_syms(body, out);
            }
        }
    }
    for s in stmts {
        match s {
            Stmt::For {
                var,
                init,
                bound,
                body,
                ..
            } => {
                if contains_loop(body) {
                    collect_hot_syms(body, hot);
                } else {
                    hot.insert(*var);
                    let mut v = Vec::new();
                    init.collect_syms(&mut v);
                    bound.collect_syms(&mut v);
                    hot.extend(v);
                    all_syms(body, hot);
                }
            }
            Stmt::Region { body, .. } => collect_hot_syms(body, hot),
            _ => {}
        }
    }
}

/// Integer evaluation result.
pub(crate) enum IVal {
    Imm(i64),
    Reg { reg: GpReg, owned: bool },
}

// Re-export FmaPolicy decision for the template emitters.
pub(crate) fn mul_add(
    cg: &mut Codegen<'_>,
    r0: VecReg,
    r1: VecReg,
    acc: VecReg,
    w: Width,
) -> Result<(), CodegenError> {
    let needs_scratch = isel::fma_choice(&cg.isa, cg.opts.fma).is_none();
    let scratch = if needs_scratch {
        Some(cg.alloc.alloc_vec(None)?)
    } else {
        None
    };
    let seq = isel::sel_mul_add(r0, r1, acc, scratch, w, &cg.isa, cg.opts.fma);
    cg.push_all(seq);
    if let Some(s) = scratch {
        cg.alloc.free_vec(s);
    }
    Ok(())
}
