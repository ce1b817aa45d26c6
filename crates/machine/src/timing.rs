//! Per-instruction-class timing: latency, throughput and execution ports.
//!
//! The timing simulator in `augem-sim` schedules the generated instruction
//! stream onto a set of execution ports, respecting data-dependence latency
//! and per-port throughput. This module defines the abstract instruction
//! classes and the lookup table mapping each class to its timing on a given
//! microarchitecture.
//!
//! Numbers are first-order approximations from the Intel Optimization
//! Reference Manual and Agner Fog's tables; the goal is to reproduce the
//! *relative* effects the AUGEM paper exploits (see crate docs).

use crate::isa::SimdMode;

/// A set of execution ports an instruction class may issue to, encoded as a
/// bitmask (bit `i` = port `i`). Modeled machines have at most 8 ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortSet(pub u8);

impl PortSet {
    pub const fn single(port: u8) -> Self {
        PortSet(1 << port)
    }

    pub const fn of(mask: u8) -> Self {
        PortSet(mask)
    }

    /// Iterates over the port indices in the set.
    pub fn ports(self) -> impl Iterator<Item = u8> {
        (0..8).filter(move |p| self.0 & (1 << p) != 0)
    }

    pub fn contains(self, port: u8) -> bool {
        self.0 & (1 << port) != 0
    }

    pub fn count(self) -> u32 {
        self.0.count_ones()
    }
}

/// Abstract instruction classes the generator can emit.
///
/// Vector classes are parameterized by [`SimdMode`] at lookup time because
/// several microarchitectures (notably Piledriver) split 256-bit operations
/// into two 128-bit micro-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Scalar or vector load from memory.
    Load,
    /// Scalar or vector store to memory.
    Store,
    /// Floating-point multiply.
    FMul,
    /// Floating-point add.
    FAdd,
    /// Fused multiply-add.
    Fma,
    /// Register-to-register move (`movapd`/`vmovapd`).
    MovReg,
    /// Broadcast a scalar into all lanes (`vbroadcastsd` / `movddup`+...).
    Broadcast,
    /// In-register lane shuffle (`shufpd`/`vshufpd`/`vperm2f128`).
    Shuffle,
    /// Integer ALU op (pointer/counter add, sub, compare).
    IntAlu,
    /// Address computation (`lea`).
    Lea,
    /// Conditional or unconditional branch.
    Branch,
    /// Software prefetch.
    Prefetch,
}

impl InstClass {
    /// All classes, for exhaustive table checks.
    pub const ALL: [InstClass; 12] = [
        InstClass::Load,
        InstClass::Store,
        InstClass::FMul,
        InstClass::FAdd,
        InstClass::Fma,
        InstClass::MovReg,
        InstClass::Broadcast,
        InstClass::Shuffle,
        InstClass::IntAlu,
        InstClass::Lea,
        InstClass::Branch,
        InstClass::Prefetch,
    ];
}

/// Timing of one instruction class on one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstTiming {
    /// Result-ready latency in cycles.
    pub latency: u32,
    /// Number of micro-ops the instruction decodes into (256-bit ops are 2
    /// on Piledriver).
    pub uops: u32,
    /// Ports each micro-op may issue to.
    pub ports: PortSet,
}

impl InstTiming {
    pub const fn new(latency: u32, uops: u32, ports: PortSet) -> Self {
        InstTiming {
            latency,
            uops,
            ports,
        }
    }
}

/// The timing table for a whole machine.
#[derive(Clone)]
pub struct TimingModel {
    /// Number of execution ports.
    pub num_ports: u8,
    /// Maximum instructions issued per cycle (front-end width).
    pub issue_width: u32,
    /// Lookup: `(class, mode)` → timing. Scalar-ish classes ignore `mode`.
    lookup: fn(InstClass, SimdMode) -> InstTiming,
}

/// Renders the *contents* of the timing table, not the `lookup` fn
/// pointer: `MachineSpec::fingerprint` hashes the `Debug` rendering,
/// and a pointer address would change with every process (ASLR),
/// silently breaking cross-process cache keys — the kernel store's
/// warm restarts and journal resumes depend on them being stable.
impl std::fmt::Debug for TimingModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut table = f.debug_struct("TimingModel");
        table
            .field("num_ports", &self.num_ports)
            .field("issue_width", &self.issue_width);
        for (slot, timing) in self.table().iter().enumerate() {
            let (class, mode) = table_slot(slot);
            table.field(&format!("{class:?}/{mode:?}"), timing);
        }
        table.finish()
    }
}

/// SIMD modes the lookup table distinguishes, in rendering order.
const TABLE_MODES: [SimdMode; 2] = [SimdMode::Sse, SimdMode::Avx];

/// Entries in a full lookup table: every class in every mode.
pub(crate) const TABLE_LEN: usize = InstClass::ALL.len() * TABLE_MODES.len();

/// The `(class, mode)` pair held in slot `slot` of [`TimingModel::table`].
fn table_slot(slot: usize) -> (InstClass, SimdMode) {
    (
        InstClass::ALL[slot / TABLE_MODES.len()],
        TABLE_MODES[slot % TABLE_MODES.len()],
    )
}

impl TimingModel {
    pub fn new(
        num_ports: u8,
        issue_width: u32,
        lookup: fn(InstClass, SimdMode) -> InstTiming,
    ) -> Self {
        TimingModel {
            num_ports,
            issue_width,
            lookup,
        }
    }

    /// Timing of `class` executed in SIMD mode `mode`.
    #[inline]
    pub fn timing(&self, class: InstClass, mode: SimdMode) -> InstTiming {
        (self.lookup)(class, mode)
    }

    /// The whole lookup table, class-major: exactly the entries `Debug`
    /// renders, so comparing tables compares renderings.
    pub(crate) fn table(&self) -> [InstTiming; TABLE_LEN] {
        std::array::from_fn(|slot| {
            let (class, mode) = table_slot(slot);
            self.timing(class, mode)
        })
    }

    /// Peak double-precision FLOPs per cycle in `mode` (2 lanes/SSE, 4/AVX;
    /// doubled again when FMA issues on the multiply port).
    pub fn peak_dp_flops_per_cycle(&self, mode: SimdMode, fma: bool) -> f64 {
        let lanes = mode.f64_lanes() as f64;
        let fma_t = self.timing(InstClass::Fma, mode);
        let mul_t = self.timing(InstClass::FMul, mode);
        let add_t = self.timing(InstClass::FAdd, mode);
        if fma {
            // FMA: 2 flops per op; throughput = ports/uops per cycle.
            let ops_per_cycle = fma_t.ports.count() as f64 / fma_t.uops as f64;
            2.0 * lanes * ops_per_cycle
        } else if mul_t.ports == add_t.ports {
            // Mul and add compete for the same pipes (Piledriver FMAC):
            // each mul+add pair costs mul.uops + add.uops slots.
            let pair_uops = (mul_t.uops + add_t.uops) as f64;
            let slots_per_cycle = mul_t.ports.count() as f64;
            lanes * 2.0 * slots_per_cycle / pair_uops
        } else {
            // Separate mul + add pipes issue in parallel on distinct ports.
            let mul_pc = mul_t.ports.count() as f64 / mul_t.uops as f64;
            let add_pc = add_t.ports.count() as f64 / add_t.uops as f64;
            lanes * (mul_pc.min(1.0) + add_pc.min(1.0))
        }
    }
}

/// Sandy Bridge timing lookup (ports: 0=FP mul, 1=FP add, 2/3=load AGU,
/// 4=store data, 5=shuffle/branch).
pub fn sandy_bridge_timing(class: InstClass, mode: SimdMode) -> InstTiming {
    use InstClass::*;
    let _ = mode; // SNB executes 256-bit FP ops at full width
    match class {
        Load => InstTiming::new(4, 1, PortSet::of(0b0000_1100)),
        Store => InstTiming::new(4, 1, PortSet::single(4)),
        FMul => InstTiming::new(5, 1, PortSet::single(0)),
        FAdd => InstTiming::new(3, 1, PortSet::single(1)),
        // SNB has no FMA; modeled as mul-latency single op so the table is
        // total, but instruction selection never emits it on SNB.
        Fma => InstTiming::new(8, 2, PortSet::of(0b0000_0011)),
        MovReg => InstTiming::new(1, 1, PortSet::of(0b0010_0011)),
        Broadcast => InstTiming::new(4, 1, PortSet::of(0b0000_1100)), // load-port broadcast
        Shuffle => InstTiming::new(1, 1, PortSet::single(5)),
        IntAlu => InstTiming::new(1, 1, PortSet::of(0b0010_0011)),
        Lea => InstTiming::new(1, 1, PortSet::of(0b0010_0010)),
        Branch => InstTiming::new(1, 1, PortSet::single(5)),
        Prefetch => InstTiming::new(1, 1, PortSet::of(0b0000_1100)),
    }
}

/// Piledriver timing lookup (per-core view of the shared FPU: ports
/// 0/1 = FMAC pipes, 2/3 = load, 4 = store, 5 = int/branch).
///
/// 256-bit operations split into two 128-bit micro-ops (`uops = 2`), which
/// is why FMA3 on 256-bit vectors still sustains 8 DP flops/cycle only when
/// both FMAC pipes are busy.
pub fn piledriver_timing(class: InstClass, mode: SimdMode) -> InstTiming {
    use InstClass::*;
    let double = if mode == SimdMode::Avx { 2 } else { 1 };
    match class {
        Load => InstTiming::new(4, double, PortSet::of(0b0000_1100)),
        Store => InstTiming::new(4, double, PortSet::single(4)),
        FMul => InstTiming::new(5, double, PortSet::of(0b0000_0011)),
        FAdd => InstTiming::new(5, double, PortSet::of(0b0000_0011)),
        Fma => InstTiming::new(6, double, PortSet::of(0b0000_0011)),
        MovReg => InstTiming::new(1, double, PortSet::of(0b0000_0011)),
        Broadcast => InstTiming::new(4, double, PortSet::of(0b0000_1100)),
        Shuffle => InstTiming::new(2, double, PortSet::of(0b0000_0011)),
        IntAlu => InstTiming::new(1, 1, PortSet::single(5)),
        Lea => InstTiming::new(1, 1, PortSet::single(5)),
        Branch => InstTiming::new(1, 1, PortSet::single(5)),
        Prefetch => InstTiming::new(1, 1, PortSet::of(0b0000_1100)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portset_iteration() {
        let ps = PortSet::of(0b0010_0101);
        let ports: Vec<u8> = ps.ports().collect();
        assert_eq!(ports, vec![0, 2, 5]);
        assert_eq!(ps.count(), 3);
        assert!(ps.contains(5));
        assert!(!ps.contains(1));
    }

    #[test]
    fn debug_rendering_carries_table_contents_not_pointer_addresses() {
        // `MachineSpec::fingerprint` hashes this rendering; a pointer
        // address in it would change per process (ASLR) and silently
        // invalidate every persistent cache key on restart.
        let tm = TimingModel::new(6, 4, sandy_bridge_timing);
        let rendered = format!("{tm:?}");
        assert!(!rendered.contains("0x"), "no addresses: {rendered}");
        assert!(rendered.contains("Fma/Avx"), "table contents rendered");
        // Different tables must render differently (the fingerprint
        // separates machines by timing content, not by identity).
        let pd = TimingModel::new(6, 4, piledriver_timing);
        assert_ne!(rendered, format!("{pd:?}"));
    }

    #[test]
    fn snb_peak_is_eight_dp_flops_avx() {
        let tm = TimingModel::new(6, 4, sandy_bridge_timing);
        // AVX mul (port 0) + add (port 1): 4 lanes * 2 = 8 flops/cycle.
        let peak = tm.peak_dp_flops_per_cycle(SimdMode::Avx, false);
        assert!((peak - 8.0).abs() < 1e-9, "got {peak}");
        // SSE: 2 lanes * 2 = 4.
        let sse = tm.peak_dp_flops_per_cycle(SimdMode::Sse, false);
        assert!((sse - 4.0).abs() < 1e-9);
    }

    #[test]
    fn piledriver_peak_with_fma() {
        let tm = TimingModel::new(6, 4, piledriver_timing);
        // 256-bit FMA: 2 uops on 2 pipes -> 1 op/cycle * 4 lanes * 2 = 8.
        let peak = tm.peak_dp_flops_per_cycle(SimdMode::Avx, true);
        assert!((peak - 8.0).abs() < 1e-9, "got {peak}");
        // Without FMA the shared pipes halve it (mul and add compete):
        let nofma = tm.peak_dp_flops_per_cycle(SimdMode::Avx, false);
        assert!(nofma < peak, "mul+add ({nofma}) must be below FMA ({peak})");
    }

    #[test]
    fn all_classes_have_timing_on_both_machines() {
        for &c in &InstClass::ALL {
            for mode in [SimdMode::Sse, SimdMode::Avx] {
                let a = sandy_bridge_timing(c, mode);
                let b = piledriver_timing(c, mode);
                assert!(a.latency >= 1 && a.uops >= 1 && a.ports.count() >= 1);
                assert!(b.latency >= 1 && b.uops >= 1 && b.ports.count() >= 1);
            }
        }
    }

    #[test]
    fn piledriver_splits_256bit_ops() {
        let avx = piledriver_timing(InstClass::FMul, SimdMode::Avx);
        let sse = piledriver_timing(InstClass::FMul, SimdMode::Sse);
        assert_eq!(avx.uops, 2);
        assert_eq!(sse.uops, 1);
    }
}
