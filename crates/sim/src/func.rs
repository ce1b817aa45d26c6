//! Functional x86-64 simulator for generated kernels.
//!
//! Pointer values are synthetic byte addresses: array `i` is based at
//! `(i+1) << 40`, so out-of-bounds and cross-array accesses are caught
//! precisely. Vector registers model full YMM state (4 f64 lanes) with
//! the legacy-SSE vs VEX upper-lane rules the emitter's mnemonics imply.

use augem_asm::{AsmKernel, GpOrImm, Mem, ParamLoc, Width, XInst};
use augem_machine::{GpReg, IsaFeature, IsaSet, VecReg};
use std::collections::HashMap;

const ARRAY_SHIFT: u32 = 40;

/// A kernel argument.
#[derive(Debug, Clone, PartialEq)]
pub enum SimValue {
    Array(Vec<f64>),
    Int(i64),
    F64(f64),
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    BadArgs(String),
    OutOfBounds { addr: i64, detail: String },
    Misaligned(i64),
    UndefinedLabel(String),
    StepLimit(u64),
    BadInstruction(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::BadArgs(m) => write!(f, "bad arguments: {m}"),
            SimError::OutOfBounds { addr, detail } => {
                write!(f, "out-of-bounds access at {addr:#x}: {detail}")
            }
            SimError::Misaligned(a) => write!(f, "misaligned access at {a:#x}"),
            SimError::UndefinedLabel(l) => write!(f, "undefined label {l}"),
            SimError::StepLimit(n) => write!(f, "exceeded {n} simulated instructions"),
            SimError::BadInstruction(m) => write!(f, "bad instruction: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The memory access one executed step performed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemAccess {
    pub addr: i64,
    pub bytes: u8,
    pub write: bool,
    pub prefetch: bool,
}

/// Recorded execution trace ([`FuncSim::with_trace`]): the sequence of
/// executed instruction indices plus their memory accesses. The timing
/// model does not need one — it consumes steps as they execute — but
/// [`crate::replay`] times a recorded trace with the same scoreboard.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub inst_indices: Vec<u32>,
    /// Parallel to `inst_indices`: the access performed (if any).
    pub accesses: Vec<Option<MemAccess>>,
}

impl Trace {
    pub fn len(&self) -> usize {
        self.inst_indices.len()
    }
    pub fn is_empty(&self) -> bool {
        self.inst_indices.is_empty()
    }
}

/// The functional simulator.
pub struct FuncSim {
    isa: IsaSet,
    step_limit: u64,
    collect_trace: bool,
}

pub(crate) struct State {
    pub(crate) gp: [i64; 16],
    pub(crate) vec: [[f64; 4]; 16],
    pub(crate) arrays: Vec<Vec<f64>>,
    pub(crate) cmp: (i64, i64),
}

impl State {
    /// Binds `args` to parameter locations and sets up the hidden spill
    /// stack, exactly as both interpreter loops expect. Returns the
    /// prepared state and the number of user (non-stack) arrays.
    pub(crate) fn setup(
        kernel: &AsmKernel,
        args: Vec<SimValue>,
    ) -> Result<(State, usize), SimError> {
        if args.len() != kernel.params.len() {
            return Err(SimError::BadArgs(format!(
                "expected {} args, got {}",
                kernel.params.len(),
                args.len()
            )));
        }
        let mut st = State {
            gp: [0; 16],
            vec: [[0.0; 4]; 16],
            arrays: Vec::new(),
            cmp: (0, 0),
        };
        for ((_, loc), arg) in kernel.params.iter().zip(args) {
            match (loc, arg) {
                (ParamLoc::Gp(r), SimValue::Int(v)) => st.gp[r.0 as usize] = v,
                (ParamLoc::Gp(r), SimValue::Array(data)) => {
                    let id = st.arrays.len();
                    st.arrays.push(data);
                    st.gp[r.0 as usize] = ((id as i64) + 1) << ARRAY_SHIFT;
                }
                (ParamLoc::Vec(r), SimValue::F64(v)) => {
                    st.vec[r.0 as usize] = [v, 0.0, 0.0, 0.0];
                }
                (ParamLoc::VecBroadcast(r), SimValue::F64(v)) => {
                    st.vec[r.0 as usize] = [v; 4];
                }
                (loc, arg) => {
                    return Err(SimError::BadArgs(format!(
                        "argument {arg:?} incompatible with location {loc:?}"
                    )))
                }
            }
        }

        // Spill stack: a hidden array addressed through %rsp.
        let user_arrays = st.arrays.len();
        if kernel.stack_slots > 0 {
            let id = st.arrays.len();
            st.arrays.push(vec![0.0; kernel.stack_slots]);
            st.gp[7] = ((id as i64) + 1) << ARRAY_SHIFT; // %rsp
        }
        Ok((st, user_arrays))
    }
}

impl FuncSim {
    pub fn new(isa: IsaSet) -> Self {
        FuncSim {
            isa,
            step_limit: 500_000_000,
            collect_trace: false,
        }
    }

    pub fn with_trace(mut self) -> Self {
        self.collect_trace = true;
        self
    }

    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Runs `kernel` on `args` (one per parameter). Returns final array
    /// contents in parameter order, plus the trace when enabled.
    ///
    /// Decodes the kernel once ([`crate::decode::decode`]) and executes
    /// the pre-decoded program; behavior is bit-for-bit identical to
    /// [`FuncSim::run_legacy`] except that a branch to an undefined
    /// label is reported at decode time even if never taken.
    pub fn run(
        &self,
        kernel: &AsmKernel,
        args: Vec<SimValue>,
    ) -> Result<(Vec<Vec<f64>>, Trace), SimError> {
        let prog = crate::decode::decode(kernel, self.isa.has(IsaFeature::Avx))?;
        self.run_decoded(&prog, kernel, args)
    }

    /// Executes an already-decoded program (amortizes [`crate::decode::decode`]
    /// across runs). `kernel` supplies the parameter locations and spill
    /// stack size and must be the kernel `prog` was decoded from.
    pub fn run_decoded(
        &self,
        prog: &crate::decode::DecodedProgram,
        kernel: &AsmKernel,
        args: Vec<SimValue>,
    ) -> Result<(Vec<Vec<f64>>, Trace), SimError> {
        let mut trace = Trace::default();
        let arrays = if self.collect_trace {
            self.run_into(prog, kernel, args, &mut trace)?
        } else {
            self.run_into(prog, kernel, args, &mut crate::decode::NoSink)?
        };
        Ok((arrays, trace))
    }

    /// [`FuncSim::run_decoded`] feeding every executed step to `sink`
    /// (the timing model's scoreboard or cache warm-up) instead of
    /// recording a [`Trace`]. Returns the final user arrays.
    pub(crate) fn run_into<S: crate::decode::StepSink>(
        &self,
        prog: &crate::decode::DecodedProgram,
        kernel: &AsmKernel,
        args: Vec<SimValue>,
        sink: &mut S,
    ) -> Result<Vec<Vec<f64>>, SimError> {
        let (mut st, user_arrays) = State::setup(kernel, args)?;
        crate::decode::exec(prog, &mut st, self.step_limit, sink)?;
        st.arrays.truncate(user_arrays);
        Ok(st.arrays)
    }

    /// The original string-dispatching interpreter loop, kept as the
    /// reference semantics for the decoded engine: the differential
    /// suite and the `figures tune` benchmark compare against it.
    pub fn run_legacy(
        &self,
        kernel: &AsmKernel,
        args: Vec<SimValue>,
    ) -> Result<(Vec<Vec<f64>>, Trace), SimError> {
        let (mut st, user_arrays) = State::setup(kernel, args)?;
        let mut trace = Trace::default();

        // Label map.
        let mut labels: HashMap<&str, usize> = HashMap::new();
        for (i, inst) in kernel.insts.iter().enumerate() {
            if let XInst::Label(l) = inst {
                labels.insert(l.as_str(), i);
            }
        }

        let vex = self.isa.has(IsaFeature::Avx);
        let mut pc = 0usize;
        let mut steps = 0u64;
        while pc < kernel.insts.len() {
            steps += 1;
            if steps > self.step_limit {
                return Err(SimError::StepLimit(self.step_limit));
            }
            let cur = pc;
            let inst = &kernel.insts[pc];
            let mut access: Option<MemAccess> = None;
            match inst {
                XInst::FLoad { dst, mem, w } => {
                    let (vals, a) = self.load(&st, *mem, w.lanes())?;
                    access = Some(a);
                    let d = &mut st.vec[dst.0 as usize];
                    match w {
                        Width::S => {
                            d[0] = vals[0];
                            // movsd (load form) zeroes 127:64; VEX zeroes rest.
                            d[1] = 0.0;
                            if vex {
                                d[2] = 0.0;
                                d[3] = 0.0;
                            }
                        }
                        Width::V2 => {
                            d[0] = vals[0];
                            d[1] = vals[1];
                            if vex {
                                d[2] = 0.0;
                                d[3] = 0.0;
                            }
                        }
                        Width::V4 => *d = [vals[0], vals[1], vals[2], vals[3]],
                    }
                }
                XInst::FStore { src, mem, w } => {
                    let s = st.vec[src.0 as usize];
                    access = Some(self.store(&mut st, *mem, &s[..w.lanes()])?);
                }
                XInst::FDup { dst, mem, w } => {
                    let (vals, a) = self.load(&st, *mem, 1)?;
                    access = Some(a);
                    let d = &mut st.vec[dst.0 as usize];
                    match w {
                        Width::S | Width::V2 => {
                            d[0] = vals[0];
                            d[1] = vals[0];
                            if vex {
                                d[2] = 0.0;
                                d[3] = 0.0;
                            }
                        }
                        Width::V4 => *d = [vals[0]; 4],
                    }
                }
                XInst::FMov { dst, src, w } => {
                    let s = st.vec[src.0 as usize];
                    let d = &mut st.vec[dst.0 as usize];
                    match w {
                        // movapd xmm copies the full 128 bits.
                        Width::S | Width::V2 => {
                            d[0] = s[0];
                            d[1] = s[1];
                            if vex {
                                d[2] = 0.0;
                                d[3] = 0.0;
                            }
                        }
                        Width::V4 => *d = s,
                    }
                }
                XInst::FZero { dst, .. } => {
                    st.vec[dst.0 as usize] = [0.0; 4];
                }
                XInst::FMul2 { dstsrc, src, w } => {
                    binop2(&mut st.vec, *dstsrc, *src, *w, |a, b| a * b);
                }
                XInst::FAdd2 { dstsrc, src, w } => {
                    binop2(&mut st.vec, *dstsrc, *src, *w, |a, b| a + b);
                }
                XInst::FMul3 { dst, a, b, w } => {
                    binop3(&mut st.vec, *dst, *a, *b, *w, |x, y| x * y);
                }
                XInst::FAdd3 { dst, a, b, w } => {
                    binop3(&mut st.vec, *dst, *a, *b, *w, |x, y| x + y);
                }
                XInst::Fma3 { acc, a, b, w } => {
                    let va = st.vec[a.0 as usize];
                    let vb = st.vec[b.0 as usize];
                    let d = &mut st.vec[acc.0 as usize];
                    match w {
                        Width::S => {
                            d[0] += va[0] * vb[0];
                            // DEST[127:64] unchanged; VEX zeroes 255:128.
                            d[2] = 0.0;
                            d[3] = 0.0;
                        }
                        Width::V2 => {
                            d[0] += va[0] * vb[0];
                            d[1] += va[1] * vb[1];
                            d[2] = 0.0;
                            d[3] = 0.0;
                        }
                        Width::V4 => {
                            for l in 0..4 {
                                d[l] += va[l] * vb[l];
                            }
                        }
                    }
                }
                XInst::Fma4 { dst, a, b, c, w } => {
                    let va = st.vec[a.0 as usize];
                    let vb = st.vec[b.0 as usize];
                    let vc = st.vec[c.0 as usize];
                    let d = &mut st.vec[dst.0 as usize];
                    match w {
                        Width::S => {
                            d[0] = va[0] * vb[0] + vc[0];
                            d[1] = va[1];
                            d[2] = 0.0;
                            d[3] = 0.0;
                        }
                        Width::V2 => {
                            d[0] = va[0] * vb[0] + vc[0];
                            d[1] = va[1] * vb[1] + vc[1];
                            d[2] = 0.0;
                            d[3] = 0.0;
                        }
                        Width::V4 => {
                            for l in 0..4 {
                                d[l] = va[l] * vb[l] + vc[l];
                            }
                        }
                    }
                }
                XInst::Shuf2 {
                    dstsrc,
                    src,
                    imm,
                    w,
                } => {
                    // shufpd: dst[0] = dst[imm&1]; dst[1] = src[(imm>>1)&1].
                    let _ = w;
                    let s = st.vec[src.0 as usize];
                    let d = &mut st.vec[dstsrc.0 as usize];
                    let new0 = d[(imm & 1) as usize];
                    let new1 = s[((imm >> 1) & 1) as usize];
                    d[0] = new0;
                    d[1] = new1;
                    // legacy SSE: upper lanes preserved
                }
                XInst::Shuf3 { dst, a, b, imm, w } => {
                    let va = st.vec[a.0 as usize];
                    let vb = st.vec[b.0 as usize];
                    let d = &mut st.vec[dst.0 as usize];
                    match w {
                        Width::S | Width::V2 => {
                            d[0] = va[(imm & 1) as usize];
                            d[1] = vb[((imm >> 1) & 1) as usize];
                            d[2] = 0.0;
                            d[3] = 0.0;
                        }
                        Width::V4 => {
                            let mut out = [0.0; 4];
                            for half in 0..2 {
                                let base = half * 2;
                                out[base] = va[base + ((imm >> (2 * half)) & 1) as usize];
                                out[base + 1] = vb[base + ((imm >> (2 * half + 1)) & 1) as usize];
                            }
                            *d = out;
                        }
                    }
                }
                XInst::SwapHalves { dst, src } => {
                    let s = st.vec[src.0 as usize];
                    st.vec[dst.0 as usize] = [s[2], s[3], s[0], s[1]];
                }
                XInst::Perm2f128 { dst, a, b, imm } => {
                    let va = st.vec[a.0 as usize];
                    let vb = st.vec[b.0 as usize];
                    let pick = |sel: u8| -> [f64; 2] {
                        let src = if sel & 2 == 0 { va } else { vb };
                        if sel & 1 == 0 {
                            [src[0], src[1]]
                        } else {
                            [src[2], src[3]]
                        }
                    };
                    let lo = pick(imm & 0x3);
                    let hi = pick((imm >> 4) & 0x3);
                    st.vec[dst.0 as usize] = [lo[0], lo[1], hi[0], hi[1]];
                }
                XInst::ExtractHi { dst, src } => {
                    let s = st.vec[src.0 as usize];
                    st.vec[dst.0 as usize] = [s[2], s[3], 0.0, 0.0];
                }
                XInst::IMovImm { dst, imm } => st.gp[dst.0 as usize] = *imm,
                XInst::ILoad { dst, mem } => {
                    let addr = st.gp[mem.base.0 as usize].wrapping_add(mem.disp);
                    let (arr, elem) = self.resolve(&st, addr, 8)?;
                    st.gp[dst.0 as usize] = st.arrays[arr][elem].to_bits() as i64;
                    access = Some(MemAccess {
                        addr,
                        bytes: 8,
                        write: false,
                        prefetch: false,
                    });
                }
                XInst::IStore { src, mem } => {
                    let addr = st.gp[mem.base.0 as usize].wrapping_add(mem.disp);
                    let v = f64::from_bits(st.gp[src.0 as usize] as u64);
                    let (arr, elem) = self.resolve(&st, addr, 8)?;
                    st.arrays[arr][elem] = v;
                    access = Some(MemAccess {
                        addr,
                        bytes: 8,
                        write: true,
                        prefetch: false,
                    });
                }
                XInst::IMov { dst, src } => st.gp[dst.0 as usize] = st.gp[src.0 as usize],
                XInst::IAdd { dst, src } => {
                    let v = self.gp_or_imm(&st, *src);
                    st.gp[dst.0 as usize] = st.gp[dst.0 as usize].wrapping_add(v);
                }
                XInst::ISub { dst, src } => {
                    let v = self.gp_or_imm(&st, *src);
                    st.gp[dst.0 as usize] = st.gp[dst.0 as usize].wrapping_sub(v);
                }
                XInst::IMul { dst, src } => {
                    let v = self.gp_or_imm(&st, *src);
                    st.gp[dst.0 as usize] = st.gp[dst.0 as usize].wrapping_mul(v);
                }
                XInst::Lea {
                    dst,
                    base,
                    idx,
                    disp,
                } => {
                    let mut v = st.gp[base.0 as usize].wrapping_add(*disp);
                    if let Some((r, scale)) = idx {
                        v = v.wrapping_add(st.gp[r.0 as usize].wrapping_mul(*scale as i64));
                    }
                    st.gp[dst.0 as usize] = v;
                }
                XInst::Cmp { a, b } => {
                    st.cmp = (st.gp[a.0 as usize], self.gp_or_imm(&st, *b));
                }
                XInst::Jl(l) => {
                    if st.cmp.0 < st.cmp.1 {
                        pc = *labels
                            .get(l.as_str())
                            .ok_or_else(|| SimError::UndefinedLabel(l.clone()))?;
                    }
                }
                XInst::Jge(l) => {
                    if st.cmp.0 >= st.cmp.1 {
                        pc = *labels
                            .get(l.as_str())
                            .ok_or_else(|| SimError::UndefinedLabel(l.clone()))?;
                    }
                }
                XInst::Jmp(l) => {
                    pc = *labels
                        .get(l.as_str())
                        .ok_or_else(|| SimError::UndefinedLabel(l.clone()))?;
                }
                XInst::Ret => break,
                XInst::Prefetch { mem, write, .. } => {
                    // No architectural effect; recorded for the cache model.
                    let addr = st.gp[mem.base.0 as usize].wrapping_add(mem.disp);
                    access = Some(MemAccess {
                        addr,
                        bytes: 64,
                        write: *write,
                        prefetch: true,
                    });
                }
                XInst::Label(_) | XInst::Comment(_) => {}
            }
            if self.collect_trace {
                trace.inst_indices.push(cur as u32);
                trace.accesses.push(access);
            }
            pc += 1;
        }

        st.arrays.truncate(user_arrays);
        Ok((st.arrays, trace))
    }

    fn gp_or_imm(&self, st: &State, v: GpOrImm) -> i64 {
        match v {
            GpOrImm::Gp(r) => st.gp[r.0 as usize],
            GpOrImm::Imm(i) => i,
        }
    }

    fn resolve(&self, st: &State, addr: i64, bytes: usize) -> Result<(usize, usize), SimError> {
        let arr = (addr >> ARRAY_SHIFT) - 1;
        let off = addr & ((1i64 << ARRAY_SHIFT) - 1);
        if arr < 0 || arr as usize >= st.arrays.len() {
            return Err(SimError::OutOfBounds {
                addr,
                detail: format!("no array for address (arr index {arr})"),
            });
        }
        if off % 8 != 0 {
            return Err(SimError::Misaligned(addr));
        }
        let elem = (off / 8) as usize;
        let n = bytes / 8;
        let len = st.arrays[arr as usize].len();
        if elem + n > len {
            return Err(SimError::OutOfBounds {
                addr,
                detail: format!("elements {elem}..{} of array {arr} (len {len})", elem + n),
            });
        }
        Ok((arr as usize, elem))
    }

    fn load(&self, st: &State, mem: Mem, lanes: usize) -> Result<([f64; 4], MemAccess), SimError> {
        let addr = st.gp[mem.base.0 as usize].wrapping_add(mem.disp);
        let (arr, elem) = self.resolve(st, addr, lanes * 8)?;
        let mut out = [0.0; 4];
        out[..lanes].copy_from_slice(&st.arrays[arr][elem..elem + lanes]);
        Ok((
            out,
            MemAccess {
                addr,
                bytes: (lanes * 8) as u8,
                write: false,
                prefetch: false,
            },
        ))
    }

    fn store(&self, st: &mut State, mem: Mem, vals: &[f64]) -> Result<MemAccess, SimError> {
        let addr = st.gp[mem.base.0 as usize].wrapping_add(mem.disp);
        let (arr, elem) = self.resolve(st, addr, vals.len() * 8)?;
        st.arrays[arr][elem..elem + vals.len()].copy_from_slice(vals);
        Ok(MemAccess {
            addr,
            bytes: (vals.len() * 8) as u8,
            write: true,
            prefetch: false,
        })
    }
}

fn binop2(
    vecs: &mut [[f64; 4]; 16],
    dstsrc: VecReg,
    src: VecReg,
    w: Width,
    f: impl Fn(f64, f64) -> f64,
) {
    let s = vecs[src.0 as usize];
    let d = &mut vecs[dstsrc.0 as usize];
    // Legacy SSE: untouched lanes preserved.
    for l in 0..w.lanes() {
        d[l] = f(d[l], s[l]);
    }
}

fn binop3(
    vecs: &mut [[f64; 4]; 16],
    dst: VecReg,
    a: VecReg,
    b: VecReg,
    w: Width,
    f: impl Fn(f64, f64) -> f64,
) {
    let va = vecs[a.0 as usize];
    let vb = vecs[b.0 as usize];
    let d = &mut vecs[dst.0 as usize];
    match w {
        Width::S => {
            d[0] = f(va[0], vb[0]);
            d[1] = va[1];
            d[2] = 0.0;
            d[3] = 0.0;
        }
        Width::V2 => {
            d[0] = f(va[0], vb[0]);
            d[1] = f(va[1], vb[1]);
            d[2] = 0.0;
            d[3] = 0.0;
        }
        Width::V4 => {
            for l in 0..4 {
                d[l] = f(va[l], vb[l]);
            }
        }
    }
}

// GpReg is used in the public API surface via ParamLoc; silence the
// otherwise-unused import lint in a way that keeps the type re-exported.
#[allow(unused)]
fn _ty_check(_: GpReg) {}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_asm::AsmKernel;

    fn avx() -> IsaSet {
        IsaSet::new(&[IsaFeature::Avx])
    }

    #[test]
    fn tiny_loop_sums_integers_via_store() {
        // Y[i] = 1.0 for i in 0..n, via a hand-built kernel.
        let mut k = AsmKernel::new("fill");
        let rn = GpReg::allocatable()[0];
        let ry = GpReg::allocatable()[1];
        let ri = GpReg::allocatable()[2];
        k.params.push(("n".into(), ParamLoc::Gp(rn)));
        k.params.push(("Y".into(), ParamLoc::Gp(ry)));
        k.params.push(("one".into(), ParamLoc::Vec(VecReg(0))));
        k.insts = vec![
            XInst::IMovImm { dst: ri, imm: 0 },
            XInst::Cmp {
                a: ri,
                b: GpOrImm::Gp(rn),
            },
            XInst::Jge(".end".into()),
            XInst::Label(".top".into()),
            XInst::FStore {
                src: VecReg(0),
                mem: Mem::new(ry, 0),
                w: Width::S,
            },
            XInst::IAdd {
                dst: ry,
                src: GpOrImm::Imm(8),
            },
            XInst::IAdd {
                dst: ri,
                src: GpOrImm::Imm(1),
            },
            XInst::Cmp {
                a: ri,
                b: GpOrImm::Gp(rn),
            },
            XInst::Jl(".top".into()),
            XInst::Label(".end".into()),
            XInst::Ret,
        ];
        let sim = FuncSim::new(avx());
        let (arrays, _) = sim
            .run(
                &k,
                vec![
                    SimValue::Int(3),
                    SimValue::Array(vec![0.0; 5]),
                    SimValue::F64(1.0),
                ],
            )
            .unwrap();
        assert_eq!(arrays[0], vec![1.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn out_of_bounds_store_caught() {
        let mut k = AsmKernel::new("oob");
        let ry = GpReg::allocatable()[0];
        k.params.push(("Y".into(), ParamLoc::Gp(ry)));
        k.params.push(("v".into(), ParamLoc::Vec(VecReg(0))));
        k.insts = vec![
            XInst::FStore {
                src: VecReg(0),
                mem: Mem::elem(ry, 2),
                w: Width::S,
            },
            XInst::Ret,
        ];
        let sim = FuncSim::new(avx());
        let err = sim
            .run(&k, vec![SimValue::Array(vec![0.0; 2]), SimValue::F64(1.0)])
            .unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { .. }), "{err:?}");
    }

    #[test]
    fn shuffle_semantics() {
        let mut k = AsmKernel::new("shuf");
        k.params
            .push(("Y".into(), ParamLoc::Gp(GpReg::allocatable()[0])));
        let ry = GpReg::allocatable()[0];
        k.insts = vec![
            XInst::FLoad {
                dst: VecReg(1),
                mem: Mem::elem(ry, 0),
                w: Width::V4,
            },
            // swap halves into v2
            XInst::SwapHalves {
                dst: VecReg(2),
                src: VecReg(1),
            },
            XInst::FStore {
                src: VecReg(2),
                mem: Mem::elem(ry, 4),
                w: Width::V4,
            },
            // in-pair swap via vshufpd
            XInst::Shuf3 {
                dst: VecReg(3),
                a: VecReg(1),
                b: VecReg(1),
                imm: 0b0101,
                w: Width::V4,
            },
            XInst::FStore {
                src: VecReg(3),
                mem: Mem::elem(ry, 8),
                w: Width::V4,
            },
            XInst::Ret,
        ];
        let sim = FuncSim::new(avx());
        let mut y = vec![1.0, 2.0, 3.0, 4.0];
        y.extend(vec![0.0; 8]);
        let (arrays, _) = sim.run(&k, vec![SimValue::Array(y)]).unwrap();
        assert_eq!(&arrays[0][4..8], &[3.0, 4.0, 1.0, 2.0]); // halves swapped
        assert_eq!(&arrays[0][8..12], &[2.0, 1.0, 4.0, 3.0]); // pairs swapped
    }

    #[test]
    fn perm2f128_and_extract() {
        let ry = GpReg::allocatable()[0];
        let mut k = AsmKernel::new("perm");
        k.params.push(("Y".into(), ParamLoc::Gp(ry)));
        k.insts = vec![
            XInst::FLoad {
                dst: VecReg(1),
                mem: Mem::elem(ry, 0),
                w: Width::V4,
            },
            XInst::FLoad {
                dst: VecReg(2),
                mem: Mem::elem(ry, 4),
                w: Width::V4,
            },
            // dst = [a.low, b.high]
            XInst::Perm2f128 {
                dst: VecReg(3),
                a: VecReg(1),
                b: VecReg(2),
                imm: 0x30,
            },
            XInst::FStore {
                src: VecReg(3),
                mem: Mem::elem(ry, 8),
                w: Width::V4,
            },
            XInst::ExtractHi {
                dst: VecReg(4),
                src: VecReg(1),
            },
            XInst::FStore {
                src: VecReg(4),
                mem: Mem::elem(ry, 12),
                w: Width::V2,
            },
            XInst::Ret,
        ];
        let sim = FuncSim::new(avx());
        let mut y: Vec<f64> = (1..=8).map(|v| v as f64).collect();
        y.extend(vec![0.0; 8]);
        let (arrays, _) = sim.run(&k, vec![SimValue::Array(y)]).unwrap();
        assert_eq!(&arrays[0][8..12], &[1.0, 2.0, 7.0, 8.0]);
        assert_eq!(&arrays[0][12..14], &[3.0, 4.0]);
    }

    #[test]
    fn trace_records_memory_accesses() {
        let ry = GpReg::allocatable()[0];
        let mut k = AsmKernel::new("tr");
        k.params.push(("Y".into(), ParamLoc::Gp(ry)));
        k.insts = vec![
            XInst::FLoad {
                dst: VecReg(1),
                mem: Mem::elem(ry, 0),
                w: Width::S,
            },
            XInst::FStore {
                src: VecReg(1),
                mem: Mem::elem(ry, 1),
                w: Width::S,
            },
            XInst::Ret,
        ];
        let sim = FuncSim::new(avx()).with_trace();
        let (_, trace) = sim.run(&k, vec![SimValue::Array(vec![7.0, 0.0])]).unwrap();
        assert_eq!(trace.len(), 2); // load, store (ret exits before recording)
        let a0 = trace.accesses[0].unwrap();
        assert!(!a0.write);
        let a1 = trace.accesses[1].unwrap();
        assert!(a1.write);
        assert_eq!(a1.addr - a0.addr, 8);
    }

    #[test]
    fn step_limit_guards_infinite_loops() {
        let mut k = AsmKernel::new("inf");
        k.insts = vec![
            XInst::Label(".x".into()),
            XInst::Jmp(".x".into()),
            XInst::Ret,
        ];
        let sim = FuncSim::new(avx()).with_step_limit(100);
        let err = sim.run(&k, vec![]).unwrap_err();
        assert_eq!(err, SimError::StepLimit(100));
    }
}
