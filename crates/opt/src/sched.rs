//! Post-pass instruction scheduling (one of the four machine-level
//! optimizations of §2.3).
//!
//! A latency-aware list scheduler over straight-line segments: within each
//! basic block (delimited by labels and branches) instructions are
//! reordered so that loads issue early and dependent arithmetic is spaced
//! out, respecting register and memory dependences. The paper's manual
//! kernels interleave loads with FMAs for exactly this reason; the
//! ablation benchmark compares scheduled vs unscheduled streams.
//!
//! Dependences are built in one pass over each block. A table holds, for
//! every resource an instruction can touch (memory as a whole, each vector
//! register, each GP register), its last writer and its readers since
//! that write. A read depends on the last write; a write depends on the
//! last write and on every read since. Memory reads commute with each
//! other, and prefetch hints have no memory effect. Each register or
//! memory access adds at most one edge, and each read at most one more
//! when the next write retires it, so the edges cost time linear in the
//! block. Selection keeps the eligible instructions in a heap: a block of
//! `n` instructions schedules in `O(n log n)`.
//!
//! These edges are a subset of the pairwise "must stay after" relation
//! with the same transitive closure. A transitive edge changes no
//! critical-path height, ready cycle or readiness moment, and the pick key
//! `(height, Reverse(index))` is unique, so the schedule is the one the
//! pairwise test gives (the test module keeps that test as the
//! reference).

use augem_asm::XInst;
use augem_machine::{GpReg, MachineSpec, VecReg};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn is_boundary(i: &XInst) -> bool {
    matches!(
        i,
        XInst::Label(_)
            | XInst::Jl(_)
            | XInst::Jge(_)
            | XInst::Jmp(_)
            | XInst::Ret
            | XInst::Cmp { .. }
    )
}

/// Schedules the instruction stream for `machine`.
pub fn schedule(insts: Vec<XInst>, machine: &MachineSpec) -> Vec<XInst> {
    let mut out = Vec::with_capacity(insts.len());
    let mut table = Table::new();
    let mut block: Vec<XInst> = Vec::new();
    for i in insts {
        if is_boundary(&i) {
            list_schedule(std::mem::take(&mut block), machine, &mut table, &mut out);
            out.push(i);
        } else if matches!(i, XInst::Comment(_)) {
            // Comments are hoisted to the block head (they carry no
            // dependences): the block's body is still buffered.
            out.push(i);
        } else {
            block.push(i);
        }
    }
    list_schedule(block, machine, &mut table, &mut out);
    out
}

fn latency_of(i: &XInst, machine: &MachineSpec) -> u32 {
    match i.class() {
        Some((class, mode)) => machine.timing.timing(class, mode).latency,
        None => 0,
    }
}

/// Appends `body`, list-scheduled, to `out`.
fn list_schedule(body: Vec<XInst>, machine: &MachineSpec, table: &mut Table, out: &mut Vec<XInst>) {
    let n = body.len();
    if n <= 1 {
        out.extend(body);
        return;
    }
    let (succs, preds) = table.edges(&body);
    let lat: Vec<u32> = body.iter().map(|i| latency_of(i, machine)).collect();
    // Priority: critical-path height.
    let mut height = vec![0u32; n];
    for i in (0..n).rev() {
        let best = succs[i].iter().map(|&s| height[s]).max().unwrap_or(0);
        height[i] = best + lat[i].max(1);
    }

    // Cycle-driven greedy selection: each cycle picks the eligible
    // instruction (all predecessors picked, operands ready) with the
    // greatest critical-path height, the earliest on a tie.
    let mut ready_at = vec![0u64; n]; // earliest issue cycle per inst
    let mut pending_preds = preds;
    // Instructions whose predecessors have all been picked, by ready cycle.
    let mut waiting: BinaryHeap<Reverse<(u64, usize)>> = (0..n)
        .filter(|&i| pending_preds[i] == 0)
        .map(|i| Reverse((0, i)))
        .collect();
    let mut eligible: BinaryHeap<(u32, Reverse<usize>)> = BinaryHeap::new();
    let mut body: Vec<Option<XInst>> = body.into_iter().map(Some).collect();
    let mut cycle = 0u64;
    for _ in 0..n {
        if eligible.is_empty() {
            // Stall: advance straight to the earliest ready cycle.
            if let Some(&Reverse((at, _))) = waiting.peek() {
                cycle = cycle.max(at);
            }
        }
        while let Some(&Reverse((at, i))) = waiting.peek() {
            if at > cycle {
                break;
            }
            waiting.pop();
            eligible.push((height[i], Reverse(i)));
        }
        let (_, Reverse(i)) = eligible
            .pop()
            .expect("a dependence DAG always has an eligible instruction");
        let finish = cycle + lat[i] as u64;
        for &s in &succs[i] {
            pending_preds[s] -= 1;
            ready_at[s] = ready_at[s].max(finish);
            if pending_preds[s] == 0 {
                waiting.push(Reverse((ready_at[s], s)));
            }
        }
        out.push(body[i].take().expect("each instruction is picked once"));
        cycle += 1; // one instruction per cycle: an approximation for ordering
    }
}

/// Index of memory (one resource) in the [`Table`].
const MEM: usize = 0;

fn vec_slot(r: VecReg) -> usize {
    1 + r.0 as usize
}

fn gp_slot(r: GpReg) -> usize {
    1 + VecReg::COUNT as usize + r.0 as usize
}

/// One resource's state within the current block.
#[derive(Clone, Default)]
struct Slot {
    /// The last instruction that wrote the resource.
    writer: Option<usize>,
    /// The instructions that read it since that write.
    readers: Vec<usize>,
}

/// The last writer and the readers since, of memory and of every vector
/// and GP register. One [`schedule`] call owns the table; each block
/// resets the entries it touched.
struct Table {
    slots: Vec<Slot>,
    touched: Vec<usize>,
}

impl Table {
    fn new() -> Self {
        let len = 1 + VecReg::COUNT as usize + GpReg::COUNT as usize;
        Table {
            slots: vec![Slot::default(); len],
            touched: Vec::new(),
        }
    }

    /// Dependence edges of `body` in one pass: `succs[i]` lists, in
    /// ascending order and once each, the instructions that must stay
    /// after `i`; `preds[j]` counts the instructions `j` must stay after.
    fn edges(&mut self, body: &[XInst]) -> (Vec<Vec<usize>>, Vec<usize>) {
        let n = body.len();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut preds = vec![0usize; n];
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        for (j, inst) in body.iter().enumerate() {
            accesses(inst, &mut reads, &mut writes);
            // Every edge into `j` is added now, so a repeat is the last
            // entry of its source's list.
            let mut edge = |i: usize| {
                if succs[i].last() != Some(&j) {
                    succs[i].push(j);
                    preds[j] += 1;
                }
            };
            for &r in &reads {
                if let Some(w) = self.slots[r].writer {
                    edge(w);
                }
            }
            for &r in &writes {
                let slot = &self.slots[r];
                if let Some(w) = slot.writer {
                    edge(w);
                }
                for &rd in &slot.readers {
                    edge(rd);
                }
            }
            for &r in &reads {
                if !writes.contains(&r) {
                    self.touch(r);
                    self.slots[r].readers.push(j);
                }
            }
            for &r in &writes {
                self.touch(r);
                let slot = &mut self.slots[r];
                slot.writer = Some(j);
                slot.readers.clear();
            }
        }
        for r in self.touched.drain(..) {
            let slot = &mut self.slots[r];
            slot.writer = None;
            slot.readers.clear();
        }
        (succs, preds)
    }

    /// Records that this block changes `r`'s entry.
    fn touch(&mut self, r: usize) {
        let slot = &self.slots[r];
        if slot.writer.is_none() && slot.readers.is_empty() {
            self.touched.push(r);
        }
    }
}

/// The table entries `inst` reads and writes (a register used twice is
/// listed twice).
fn accesses(inst: &XInst, reads: &mut Vec<usize>, writes: &mut Vec<usize>) {
    reads.clear();
    writes.clear();
    if inst.is_mem_read() {
        reads.push(MEM);
    }
    if inst.is_mem_write() {
        writes.push(MEM);
    }
    reads.extend(inst.vec_uses().into_iter().map(vec_slot));
    reads.extend(inst.gp_uses().into_iter().map(gp_slot));
    writes.extend(inst.vec_def().map(vec_slot));
    writes.extend(inst.gp_def().map(gp_slot));
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_asm::{GpOrImm, Mem, Width};
    use proptest::prelude::*;

    fn m() -> MachineSpec {
        MachineSpec::sandy_bridge()
    }

    /// The reference scheduler: every pair of a block is tested with
    /// [`depends`], and each cycle scans every instruction made ready so
    /// far. [`schedule`] must match it exactly.
    fn reference_schedule(insts: Vec<XInst>, machine: &MachineSpec) -> Vec<XInst> {
        let mut out = Vec::with_capacity(insts.len());
        let mut block: Vec<XInst> = Vec::new();
        for i in insts {
            if is_boundary(&i) {
                reference_flush(&mut block, machine, &mut out);
                out.push(i);
            } else {
                block.push(i);
            }
        }
        reference_flush(&mut block, machine, &mut out);
        out
    }

    fn reference_flush(block: &mut Vec<XInst>, machine: &MachineSpec, out: &mut Vec<XInst>) {
        if block.is_empty() {
            return;
        }
        let insts = std::mem::take(block);
        let (comments, body): (Vec<XInst>, Vec<XInst>) = insts
            .into_iter()
            .partition(|i| matches!(i, XInst::Comment(_)));
        out.extend(comments);
        out.extend(reference_list_schedule(body, machine));
    }

    fn reference_list_schedule(body: Vec<XInst>, machine: &MachineSpec) -> Vec<XInst> {
        let n = body.len();
        if n <= 1 {
            return body;
        }
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut preds: Vec<usize> = vec![0; n];
        for j in 0..n {
            for i in 0..j {
                if depends(&body[i], &body[j]) {
                    succs[i].push(j);
                    preds[j] += 1;
                }
            }
        }
        let mut height = vec![0u32; n];
        for i in (0..n).rev() {
            let lat = latency_of(&body[i], machine);
            let best = succs[i].iter().map(|&s| height[s]).max().unwrap_or(0);
            height[i] = best + lat.max(1);
        }
        let mut ready_at = vec![0u64; n];
        let mut done = vec![false; n];
        let mut remaining = n;
        let mut pending_preds = preds;
        let mut ready: Vec<usize> = (0..n).filter(|&i| pending_preds[i] == 0).collect();
        let mut cycle = 0u64;
        let mut order = Vec::with_capacity(n);
        while remaining > 0 {
            let candidate = ready
                .iter()
                .copied()
                .filter(|&i| !done[i] && ready_at[i] <= cycle)
                .max_by_key(|&i| (height[i], Reverse(i)));
            match candidate {
                Some(i) => {
                    done[i] = true;
                    remaining -= 1;
                    order.push(i);
                    let finish = cycle + latency_of(&body[i], machine) as u64;
                    for &s in &succs[i] {
                        pending_preds[s] -= 1;
                        ready_at[s] = ready_at[s].max(finish);
                        if pending_preds[s] == 0 {
                            ready.push(s);
                        }
                    }
                    cycle += 1;
                }
                None => {
                    cycle += 1;
                }
            }
        }
        let mut positions = vec![0usize; n];
        for (p, &i) in order.iter().enumerate() {
            positions[i] = p;
        }
        let mut indexed: Vec<(usize, XInst)> = body.into_iter().enumerate().collect();
        indexed.sort_by_key(|(i, _)| positions[*i]);
        indexed.into_iter().map(|(_, x)| x).collect()
    }

    /// Conservative dependence test: true if `later` must stay after
    /// `earlier`.
    fn depends(earlier: &XInst, later: &XInst) -> bool {
        // Memory ordering: writes order with everything; reads commute.
        if earlier.is_mem_write() && (later.is_mem_read() || later.is_mem_write()) {
            return true;
        }
        if earlier.is_mem_read() && later.is_mem_write() {
            return true;
        }
        // Vector register dependences.
        let e_def = earlier.vec_def();
        let l_def = later.vec_def();
        if let Some(d) = e_def {
            if later.vec_uses().contains(&d) || l_def == Some(d) {
                return true;
            }
        }
        if let Some(d) = l_def {
            if earlier.vec_uses().contains(&d) {
                return true;
            }
        }
        // GP register dependences.
        let e_gdef = earlier.gp_def();
        let l_gdef = later.gp_def();
        if let Some(d) = e_gdef {
            if later.gp_uses().contains(&d) || l_gdef == Some(d) {
                return true;
            }
        }
        if let Some(d) = l_gdef {
            if earlier.gp_uses().contains(&d) {
                return true;
            }
        }
        false
    }

    /// One random instruction of every kind with a def, a use or a memory
    /// effect. Registers come from small pools, so repeats (and an
    /// instruction naming one register twice) are common.
    fn inst_strategy() -> impl Strategy<Value = XInst> {
        let vreg = || (0u8..5).prop_map(VecReg);
        let greg = || (0u8..4).prop_map(GpReg);
        let w = || prop::sample::select(vec![Width::S, Width::V2, Width::V4]);
        let mem = move || (greg(), 0i64..4).prop_map(|(b, e)| Mem::elem(b, e));
        prop_oneof![
            (vreg(), mem(), w()).prop_map(|(dst, mem, w)| XInst::FLoad { dst, mem, w }),
            (vreg(), mem(), w()).prop_map(|(dst, mem, w)| XInst::FDup { dst, mem, w }),
            (vreg(), mem(), w()).prop_map(|(src, mem, w)| XInst::FStore { src, mem, w }),
            (greg(), mem()).prop_map(|(dst, mem)| XInst::ILoad { dst, mem }),
            (greg(), mem()).prop_map(|(src, mem)| XInst::IStore { src, mem }),
            (vreg(), vreg(), vreg(), w()).prop_map(|(acc, a, b, w)| XInst::Fma3 { acc, a, b, w }),
            (vreg(), vreg(), w()).prop_map(|(dstsrc, src, w)| XInst::FMul2 { dstsrc, src, w }),
            (vreg(), vreg(), 0u8..4, w()).prop_map(|(dstsrc, src, imm, w)| XInst::Shuf2 {
                dstsrc,
                src,
                imm,
                w
            }),
            (greg(), greg(), any::<bool>()).prop_map(|(dst, s, reg)| XInst::IAdd {
                dst,
                src: if reg { GpOrImm::Gp(s) } else { GpOrImm::Imm(8) },
            }),
            (greg(), greg(), greg(), any::<bool>()).prop_map(|(dst, base, i, indexed)| {
                XInst::Lea {
                    dst,
                    base,
                    idx: indexed.then_some((i, 8)),
                    disp: 16,
                }
            }),
            (mem(), any::<bool>()).prop_map(|(mem, write)| XInst::Prefetch {
                mem,
                write,
                locality: 0,
            }),
        ]
    }

    /// A piece of a stream: mostly one instruction, sometimes a block
    /// boundary (a label, or a compare and its branch) or a comment.
    fn piece_strategy() -> impl Strategy<Value = Vec<XInst>> {
        (0u8..16, inst_strategy(), 0u8..3, 0u8..4).prop_map(|(roll, inst, l, r)| match roll {
            0 => vec![XInst::Label(format!("L{l}"))],
            1 => vec![
                XInst::Cmp {
                    a: GpReg(r),
                    b: GpOrImm::Imm(64),
                },
                XInst::Jl(format!("L{l}")),
            ],
            2 => vec![XInst::Comment(format!("c{l}"))],
            _ => vec![inst],
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn table_schedule_matches_the_pairwise_reference(
            pieces in prop::collection::vec(piece_strategy(), 0..96),
        ) {
            let insts = pieces.concat();
            for machine in [MachineSpec::sandy_bridge(), MachineSpec::piledriver()] {
                prop_assert_eq!(
                    schedule(insts.clone(), &machine),
                    reference_schedule(insts.clone(), &machine)
                );
            }
        }
    }

    #[test]
    fn dependent_chain_keeps_order() {
        let insts = vec![
            XInst::FLoad {
                dst: VecReg(1),
                mem: Mem::elem(GpReg(5), 0),
                w: Width::S,
            },
            XInst::FMul3 {
                dst: VecReg(2),
                a: VecReg(1),
                b: VecReg(1),
                w: Width::S,
            },
            XInst::FAdd3 {
                dst: VecReg(3),
                a: VecReg(2),
                b: VecReg(2),
                w: Width::S,
            },
        ];
        let s = schedule(insts.clone(), &m());
        assert_eq!(s, insts);
    }

    #[test]
    fn independent_load_hoists_above_dependent_arithmetic() {
        // load r1; mul r2 = r1*r1; load r4  ->  the second load should
        // move up between (or before) the dependent ops.
        let insts = vec![
            XInst::FLoad {
                dst: VecReg(1),
                mem: Mem::elem(GpReg(5), 0),
                w: Width::S,
            },
            XInst::FMul3 {
                dst: VecReg(2),
                a: VecReg(1),
                b: VecReg(1),
                w: Width::S,
            },
            XInst::FMul3 {
                dst: VecReg(3),
                a: VecReg(2),
                b: VecReg(2),
                w: Width::S,
            },
            XInst::FLoad {
                dst: VecReg(4),
                mem: Mem::elem(GpReg(5), 8),
                w: Width::S,
            },
            XInst::FAdd3 {
                dst: VecReg(5),
                a: VecReg(4),
                b: VecReg(3),
                w: Width::S,
            },
        ];
        let s = schedule(insts, &m());
        let pos_load2 = s
            .iter()
            .position(|i| matches!(i, XInst::FLoad { dst, .. } if *dst == VecReg(4)))
            .unwrap();
        let pos_mul2 = s
            .iter()
            .position(|i| matches!(i, XInst::FMul3 { dst, .. } if *dst == VecReg(3)))
            .unwrap();
        assert!(pos_load2 < pos_mul2, "independent load should hoist: {s:?}");
    }

    #[test]
    fn stores_never_cross_loads_of_same_stream() {
        let insts = vec![
            XInst::FStore {
                src: VecReg(1),
                mem: Mem::elem(GpReg(5), 0),
                w: Width::S,
            },
            XInst::FLoad {
                dst: VecReg(2),
                mem: Mem::elem(GpReg(5), 0),
                w: Width::S,
            },
        ];
        let s = schedule(insts.clone(), &m());
        assert_eq!(s, insts);
    }

    #[test]
    fn blocks_do_not_cross_labels() {
        let insts = vec![
            XInst::FLoad {
                dst: VecReg(1),
                mem: Mem::elem(GpReg(5), 0),
                w: Width::S,
            },
            XInst::Label("L".into()),
            XInst::FLoad {
                dst: VecReg(2),
                mem: Mem::elem(GpReg(5), 8),
                w: Width::S,
            },
        ];
        let s = schedule(insts.clone(), &m());
        assert_eq!(s, insts);
    }

    #[test]
    fn cmp_stays_adjacent_to_branch() {
        let insts = vec![
            XInst::IAdd {
                dst: GpReg(0),
                src: GpOrImm::Imm(1),
            },
            XInst::Cmp {
                a: GpReg(0),
                b: GpOrImm::Imm(10),
            },
            XInst::Jl("L".into()),
            XInst::Label("L".into()),
            XInst::Ret,
        ];
        let s = schedule(insts.clone(), &m());
        let cmp = s
            .iter()
            .position(|i| matches!(i, XInst::Cmp { .. }))
            .unwrap();
        assert!(matches!(s[cmp + 1], XInst::Jl(_)));
    }
}
