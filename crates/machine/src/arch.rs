//! Complete machine specifications and the two paper platforms (Table 5).

use crate::cache::{CacheHierarchy, CacheLevel};
use crate::isa::{IsaFeature, IsaSet, SimdMode};
use crate::regs::RegisterFile;
use crate::timing::{piledriver_timing, sandy_bridge_timing, InstTiming, TimingModel, TABLE_LEN};
use std::sync::Mutex;

/// Identifier for a modeled microarchitecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Microarch {
    /// Intel Sandy Bridge (Xeon E5-2680).
    SandyBridge,
    /// AMD Piledriver (Opteron 6380).
    Piledriver,
}

impl Microarch {
    pub fn name(self) -> &'static str {
        match self {
            Microarch::SandyBridge => "Intel Sandy Bridge E5-2680",
            Microarch::Piledriver => "AMD Piledriver 6380",
        }
    }

    pub fn short_name(self) -> &'static str {
        match self {
            Microarch::SandyBridge => "sandybridge",
            Microarch::Piledriver => "piledriver",
        }
    }
}

/// Everything AUGEM needs to know about a target machine.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    pub arch: Microarch,
    pub isa: IsaSet,
    pub regs: RegisterFile,
    pub timing: TimingModel,
    pub caches: CacheHierarchy,
    /// Base clock in GHz (paper Table 5 reports base clocks).
    pub freq_ghz: f64,
    /// Single-core turbo clock in GHz; the paper's single-threaded kernel
    /// measurements run at turbo.
    pub turbo_ghz: f64,
    /// Cores per socket (Table 5: 8 for both).
    pub cores_per_socket: u32,
    pub sockets: u32,
}

impl MachineSpec {
    /// The Intel Sandy Bridge platform of the paper's Table 5.
    pub fn sandy_bridge() -> Self {
        MachineSpec {
            arch: Microarch::SandyBridge,
            isa: IsaSet::new(&[IsaFeature::Avx]),
            regs: RegisterFile::X86_64,
            timing: TimingModel::new(6, 4, sandy_bridge_timing),
            caches: CacheHierarchy {
                l1d: CacheLevel {
                    size: 32 * 1024,
                    line: 64,
                    assoc: 8,
                    latency: 4,
                    bw_bytes_per_cycle: 32.0,
                },
                l2: CacheLevel {
                    size: 256 * 1024,
                    line: 64,
                    assoc: 8,
                    latency: 12,
                    bw_bytes_per_cycle: 21.0,
                },
                l3: Some(CacheLevel {
                    size: 20 * 1024 * 1024,
                    line: 64,
                    assoc: 20,
                    latency: 28,
                    bw_bytes_per_cycle: 14.0,
                }),
                dram_bw_bytes_per_cycle: 5.5,
                dram_latency: 180,
                hw_prefetch_coverage: 0.85,
            },
            freq_ghz: 2.7,
            turbo_ghz: 3.3,
            cores_per_socket: 8,
            sockets: 2,
        }
    }

    /// The AMD Piledriver platform of the paper's Table 5.
    pub fn piledriver() -> Self {
        MachineSpec {
            arch: Microarch::Piledriver,
            isa: IsaSet::new(&[IsaFeature::Avx, IsaFeature::Fma3, IsaFeature::Fma4]),
            regs: RegisterFile::X86_64,
            timing: TimingModel::new(6, 4, piledriver_timing),
            caches: CacheHierarchy {
                l1d: CacheLevel {
                    size: 16 * 1024,
                    line: 64,
                    assoc: 4,
                    latency: 4,
                    bw_bytes_per_cycle: 32.0,
                },
                l2: CacheLevel {
                    size: 2 * 1024 * 1024,
                    line: 64,
                    assoc: 16,
                    latency: 20,
                    bw_bytes_per_cycle: 12.0,
                },
                l3: Some(CacheLevel {
                    size: 8 * 1024 * 1024,
                    line: 64,
                    assoc: 64,
                    latency: 45,
                    bw_bytes_per_cycle: 8.0,
                }),
                dram_bw_bytes_per_cycle: 4.5,
                dram_latency: 220,
                hw_prefetch_coverage: 0.75,
            },
            freq_ghz: 2.5,
            turbo_ghz: 2.6,
            cores_per_socket: 8,
            sockets: 2,
        }
    }

    /// Spec for `arch`.
    pub fn preset(arch: Microarch) -> Self {
        match arch {
            Microarch::SandyBridge => Self::sandy_bridge(),
            Microarch::Piledriver => Self::piledriver(),
        }
    }

    /// Both paper platforms.
    pub fn paper_platforms() -> Vec<MachineSpec> {
        vec![Self::sandy_bridge(), Self::piledriver()]
    }

    /// Widest SIMD mode the machine supports.
    pub fn simd_mode(&self) -> SimdMode {
        self.isa.widest_mode()
    }

    /// Theoretical single-core double-precision peak in Mflops at turbo.
    pub fn peak_mflops(&self) -> f64 {
        let fpc = self
            .timing
            .peak_dp_flops_per_cycle(self.simd_mode(), self.isa.has_fma());
        fpc * self.turbo_ghz * 1000.0
    }

    /// A copy of this machine restricted to SSE (models a legacy library
    /// running on modern hardware, e.g. GotoBLAS2 1.13 which predates AVX).
    pub fn with_isa_clamped(&self, mode: SimdMode) -> Self {
        let mut m = self.clone();
        m.isa = m.isa.clamped_to(mode);
        m
    }

    /// A stable content hash of everything that can change a simulated
    /// evaluation: ISA, register file, timing tables, cache hierarchy
    /// and clocks. Two specs with equal fingerprints produce identical
    /// `Evaluation`s for the same candidate, which is what makes the
    /// tuner's evaluation cache sound (clamped-ISA variants of the same
    /// microarchitecture hash differently). Deterministic across
    /// processes — cache keys survive a journal resume.
    ///
    /// The value is the splitmix64 hash of the spec's `Debug`
    /// rendering, computed once per distinct spec per process: later
    /// calls find it in a process-wide memo of the 16 specs hashed
    /// most recently, keyed so that two specs share an entry only when
    /// their renderings are identical.
    pub fn fingerprint(&self) -> u64 {
        let key = RenderKey::of(self);
        let memo = || FINGERPRINTS.lock().unwrap_or_else(|e| e.into_inner());
        let known = memo().iter().find(|(k, _)| *k == key).map(|&(_, fp)| fp);
        if let Some(fp) = known {
            return fp;
        }
        // `Debug` renders every field, including nested timing/cache
        // parameters; hashing the rendering keeps this in sync with the
        // struct without a hand-maintained field list. The mixer is the
        // workspace-shared splitmix64 (`augem_obs::hash`) so cache keys
        // and fault triggers can never diverge on the hash itself.
        use augem_obs::hash::{mix_str, splitmix64};
        let fp = mix_str(splitmix64(0xA06E_u64), &format!("{self:?}"));
        let mut memo = memo();
        if !memo.iter().any(|(k, _)| *k == key) {
            if memo.len() == FINGERPRINT_MEMO_CAP {
                memo.remove(0);
            }
            memo.push((key, fp));
        }
        fp
    }

    /// Human-readable cache-key component: `short_name-<hex fingerprint>`.
    pub fn fingerprint_tag(&self) -> String {
        format!("{}-{:016x}", self.arch.short_name(), self.fingerprint())
    }
}

/// Fingerprints computed so far in this process, oldest first.
static FINGERPRINTS: Mutex<Vec<(RenderKey, u64)>> = Mutex::new(Vec::new());

/// Distinct specs the memo keeps; a process uses a handful.
const FINGERPRINT_MEMO_CAP: usize = 16;

/// Everything a spec's `Debug` rendering shows, compared exactly: equal
/// keys render identically. Floats compare by bit pattern (`0.0 ==
/// -0.0`, yet the two render differently) and the timing model by the
/// table its `Debug` prints, never by the lookup fn's address.
#[derive(PartialEq)]
struct RenderKey {
    arch: Microarch,
    isa: IsaSet,
    regs: RegisterFile,
    num_ports: u8,
    issue_width: u32,
    table: [InstTiming; TABLE_LEN],
    l1d: LevelKey,
    l2: LevelKey,
    l3: Option<LevelKey>,
    dram_bw_bytes_per_cycle: u64,
    dram_latency: u32,
    hw_prefetch_coverage: u64,
    freq_ghz: u64,
    turbo_ghz: u64,
    cores_per_socket: u32,
    sockets: u32,
}

/// A [`CacheLevel`]'s fields, its bandwidth as a bit pattern.
type LevelKey = (usize, usize, usize, u32, u64);

impl RenderKey {
    fn of(m: &MachineSpec) -> Self {
        // Exhaustive destructuring: a field added to any of these
        // structs fails to compile here until the key covers it.
        let MachineSpec {
            arch,
            isa,
            regs,
            timing,
            caches,
            freq_ghz,
            turbo_ghz,
            cores_per_socket,
            sockets,
        } = m;
        let CacheHierarchy {
            l1d,
            l2,
            l3,
            dram_bw_bytes_per_cycle,
            dram_latency,
            hw_prefetch_coverage,
        } = caches;
        let level = |l: &CacheLevel| -> LevelKey {
            let CacheLevel {
                size,
                line,
                assoc,
                latency,
                bw_bytes_per_cycle,
            } = *l;
            (size, line, assoc, latency, bw_bytes_per_cycle.to_bits())
        };
        RenderKey {
            arch: *arch,
            isa: *isa,
            regs: *regs,
            num_ports: timing.num_ports,
            issue_width: timing.issue_width,
            table: timing.table(),
            l1d: level(l1d),
            l2: level(l2),
            l3: l3.as_ref().map(level),
            dram_bw_bytes_per_cycle: dram_bw_bytes_per_cycle.to_bits(),
            dram_latency: *dram_latency,
            hw_prefetch_coverage: hw_prefetch_coverage.to_bits(),
            freq_ghz: freq_ghz.to_bits(),
            turbo_ghz: turbo_ghz.to_bits(),
            cores_per_socket: *cores_per_socket,
            sockets: *sockets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_separate_specs_that_evaluate_differently() {
        let snb = MachineSpec::sandy_bridge();
        let pd = MachineSpec::piledriver();
        assert_eq!(snb.fingerprint(), MachineSpec::sandy_bridge().fingerprint());
        assert_ne!(snb.fingerprint(), pd.fingerprint());
        let clamped = snb.with_isa_clamped(SimdMode::Sse);
        assert_ne!(snb.fingerprint(), clamped.fingerprint());
        assert!(snb.fingerprint_tag().starts_with("sandybridge-"));
    }

    /// The fingerprint's one definition, recomputed past the memo.
    fn oracle(m: &MachineSpec) -> u64 {
        use augem_obs::hash::{mix_str, splitmix64};
        mix_str(splitmix64(0xA06E), &format!("{m:?}"))
    }

    /// Pinned values: persistent stores and journals key on them, so
    /// they must never change across processes, builds or memo state.
    fn pinned() -> [(MachineSpec, u64); 4] {
        let snb = MachineSpec::sandy_bridge();
        let pd = MachineSpec::piledriver();
        [
            (snb.with_isa_clamped(SimdMode::Sse), 0x5f55_8cb6_27aa_0c23),
            (snb, 0xeb00_6688_499b_bf0d),
            (pd.with_isa_clamped(SimdMode::Sse), 0xd6ee_c273_521f_5a71),
            (pd, 0xd632_c442_4fd5_f576),
        ]
    }

    #[test]
    fn fingerprints_are_pinned_on_first_and_repeated_calls() {
        for (m, want) in pinned() {
            assert_eq!(oracle(&m), want, "{:?}", m.arch);
            assert_eq!(m.fingerprint(), want, "{:?}", m.arch);
            assert_eq!(m.fingerprint(), want, "{:?} again", m.arch);
            assert_eq!(m.clone().fingerprint(), want, "{:?} clone", m.arch);
        }
    }

    #[test]
    fn memo_follows_every_field_change() {
        let mut m = MachineSpec::sandy_bridge();
        let mut before = m.fingerprint();
        let mutations: [fn(&mut MachineSpec); 5] = [
            |m| m.regs.vector_regs += 16,
            |m| m.timing.issue_width += 1,
            |m| m.caches.l2.latency += 1,
            |m| m.turbo_ghz += 0.1,
            |m| m.timing = TimingModel::new(6, m.timing.issue_width, piledriver_timing),
        ];
        for (i, mutate) in mutations.iter().enumerate() {
            mutate(&mut m);
            let after = m.fingerprint();
            assert_eq!(after, oracle(&m), "mutation {i}");
            assert_ne!(after, before, "mutation {i} must change the value");
            before = after;
        }
    }

    #[test]
    fn signed_zeros_fingerprint_apart() {
        // `0.0 == -0.0`, so a memo keyed by derived `PartialEq` would
        // serve one spec's value for the other; they render apart.
        let setters: [fn(&mut MachineSpec, f64); 2] = [
            |m, v| m.turbo_ghz = v,
            |m, v| m.caches.hw_prefetch_coverage = v,
        ];
        for (i, set) in setters.iter().enumerate() {
            let mut pos = MachineSpec::piledriver();
            set(&mut pos, 0.0);
            let mut neg = pos.clone();
            set(&mut neg, -0.0);
            assert_eq!(pos.caches, neg.caches, "setter {i}");
            assert_eq!(pos.turbo_ghz, neg.turbo_ghz, "setter {i}");
            assert_eq!(pos.fingerprint(), oracle(&pos), "setter {i}");
            assert_eq!(neg.fingerprint(), oracle(&neg), "setter {i}");
            assert_ne!(pos.fingerprint(), neg.fingerprint(), "setter {i}");
        }
    }

    #[test]
    fn concurrent_callers_all_see_the_pinned_values() {
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let specs = pinned();
                    start.wait();
                    for _ in 0..50 {
                        for (m, want) in &specs {
                            assert_eq!(m.fingerprint(), *want, "{:?}", m.arch);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn table5_parameters() {
        let snb = MachineSpec::sandy_bridge();
        assert_eq!(snb.caches.l1d.size, 32 * 1024);
        assert_eq!(snb.caches.l2.size, 256 * 1024);
        assert_eq!(snb.simd_mode().width_bytes(), 32); // 256-bit
        assert_eq!(snb.freq_ghz, 2.7);
        assert_eq!(snb.cores_per_socket, 8);
        assert!(!snb.isa.has_fma());

        let pd = MachineSpec::piledriver();
        assert_eq!(pd.caches.l1d.size, 16 * 1024);
        assert_eq!(pd.caches.l2.size, 2 * 1024 * 1024);
        assert_eq!(pd.simd_mode().width_bytes(), 32);
        assert_eq!(pd.freq_ghz, 2.5);
        assert!(pd.isa.has(IsaFeature::Fma3));
        assert!(pd.isa.has(IsaFeature::Fma4));
    }

    #[test]
    fn peaks_bracket_paper_results() {
        // Paper Fig 18 tops out near 27 GFlops on SNB and 20 GFlops on
        // Piledriver; single-core peaks must sit just above those.
        let snb = MachineSpec::sandy_bridge().peak_mflops();
        assert!(snb > 24_000.0 && snb < 30_000.0, "SNB peak {snb}");
        let pd = MachineSpec::piledriver().peak_mflops();
        assert!(pd > 18_000.0 && pd < 24_000.0, "PD peak {pd}");
    }

    #[test]
    fn clamping_to_sse_halves_peak() {
        let snb = MachineSpec::sandy_bridge();
        let sse = snb.with_isa_clamped(SimdMode::Sse);
        assert_eq!(sse.simd_mode(), SimdMode::Sse);
        let full = snb
            .timing
            .peak_dp_flops_per_cycle(snb.simd_mode(), snb.isa.has_fma());
        let clamped = sse
            .timing
            .peak_dp_flops_per_cycle(sse.simd_mode(), sse.isa.has_fma());
        assert!((full / clamped - 2.0).abs() < 1e-9);
    }

    #[test]
    fn preset_round_trip() {
        for arch in [Microarch::SandyBridge, Microarch::Piledriver] {
            assert_eq!(MachineSpec::preset(arch).arch, arch);
        }
        assert_eq!(MachineSpec::paper_platforms().len(), 2);
    }
}
