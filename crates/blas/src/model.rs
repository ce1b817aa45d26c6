//! The full-problem performance model — regenerates the paper's evaluation
//! numbers (Figures 18–21, Table 6) from simulator measurements.
//!
//! Problem sizes in the paper's sweeps reach 6144² (tens of GFLOP) — far
//! beyond instruction-level simulation. The model therefore combines:
//!
//! * **simulated micro-measurements** — each library's generated kernels
//!   are run through the cycle-approximate simulator: GEMM on a warm,
//!   cache-resident steady-state block (its compute capability inside the
//!   Goto blocking), and the Level-1/2 kernels on a *cold* multi-megabyte
//!   calibration run (their streaming capability, where unrolling,
//!   software prefetch and ISA width show up); with
//! * **an analytic envelope** — Goto-blocking packing costs and C-tile
//!   traffic for GEMM, and a cache-level bandwidth roofline for the
//!   memory-bound kernels, scaled by each library's *measured* streaming
//!   rate.
//!
//! Figures 18–21 and Table 6's GER hard-code nothing library-specific:
//! every difference between AUGEM, the vendor model, ATLAS and GotoBLAS
//! there flows from their generated code through the simulator. The rest
//! of Table 6 is set by hand, not measured
//! ([`PerfModel::routine_mflops`]): SYMM, SYRK, SYR2K and TRMM are the
//! GEMM rate times fixed constants (0.995, 0.985, 0.98 and 0.975, the same
//! for every library), and TRSM's diagonal-block solve runs at a fraction
//! of peak set per library (vendor 0.55, ATLAS 0.40, AUGEM and Goto 0.15).
//! The paper's one defeat, AUGEM losing TRSM, follows from those
//! constants.

use crate::baselines::Library;
use crate::level3::BlockSizes;
use augem_machine::MachineSpec;
use augem_tune::config::{Candidate, VectorConfig, VectorKernel};
use augem_tune::evaluate::{evaluate, vector_eval_n, EvalError, Evaluation};
use augem_tune::EvalCache;

/// An unbudgeted measurement of one configuration on a fresh cache —
/// what the models calibrate on and the ablations measure.
pub fn measure(c: &dyn Candidate, machine: &MachineSpec) -> Result<Evaluation, EvalError> {
    evaluate(c, machine, augem_tune::obs::null(), None, &EvalCache::new())
}

/// Higher-level routines of the paper's Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutineKind {
    Symm,
    Syrk,
    Syr2k,
    Trmm,
    Trsm,
    Ger,
}

impl RoutineKind {
    pub const ALL: [RoutineKind; 6] = [
        RoutineKind::Symm,
        RoutineKind::Syrk,
        RoutineKind::Syr2k,
        RoutineKind::Trmm,
        RoutineKind::Trsm,
        RoutineKind::Ger,
    ];

    pub fn name(self) -> &'static str {
        match self {
            RoutineKind::Symm => "SYMM",
            RoutineKind::Syrk => "SYRK",
            RoutineKind::Syr2k => "SYR2K",
            RoutineKind::Trmm => "TRMM",
            RoutineKind::Trsm => "TRSM",
            RoutineKind::Ger => "GER",
        }
    }
}

/// A Level-1/2 kernel's measured streaming calibration.
#[derive(Debug, Clone, Copy)]
pub struct StreamCal {
    /// Cold-run useful Mflops at the calibration size.
    pub cold_mflops: f64,
    /// Calibration working-set size in bytes.
    pub ws_bytes: usize,
    /// Traffic bytes per useful flop for this kernel.
    pub bytes_per_flop: f64,
}

/// GEMM-side model parameters.
#[derive(Debug, Clone, Copy)]
pub struct GemmModel {
    /// Steady-state micro-kernel Mflops (simulated, warm).
    pub micro_mflops: f64,
}

/// The complete per-library per-machine model.
#[derive(Debug, Clone)]
pub struct PerfModel {
    pub library: Library,
    pub machine: MachineSpec,
    pub gemm: GemmModel,
    pub axpy: StreamCal,
    pub dot: StreamCal,
    pub gemv: StreamCal,
    pub ger: StreamCal,
}

fn bw_bytes_per_sec(machine: &MachineSpec, ws_bytes: usize) -> f64 {
    machine.caches.stream_bw(ws_bytes) * machine.turbo_ghz * 1e9
}

/// Calibrates a vector kernel with the *same* cold streaming evaluation
/// the tuner optimizes (so AUGEM's tuned pick is never worse than a fixed
/// baseline config by construction).
fn calibrate_vector(cfg: &VectorConfig, machine: &MachineSpec) -> Result<StreamCal, EvalError> {
    let e = measure(cfg, machine)?;
    let (n0, n1) = vector_eval_n(cfg.kernel);
    let (ws, bpf) = match cfg.kernel {
        VectorKernel::Axpy => (16 * n0, 12.0), // read x, read y, write y / 2 flops
        VectorKernel::Dot => (16 * n0, 8.0),   // read x, read y / 2 flops
        VectorKernel::Scal => (8 * n0, 8.0),   // read y, write y / 1 flop
        VectorKernel::Gemv => (8 * n0 * n1, 4.0), // one A element / 2 flops
        VectorKernel::Ger => (8 * n0 * n1, 8.0), // A read + write / 2 flops
    };
    Ok(StreamCal {
        cold_mflops: e.mflops,
        ws_bytes: ws,
        bytes_per_flop: bpf,
    })
}

impl PerfModel {
    /// Measures all four kernels of `library` on `machine`.
    pub fn build(library: Library, machine: &MachineSpec) -> Result<Self, EvalError> {
        let eff = library.effective_machine(machine);
        let gemm_cfg = library.gemm_config(machine);
        let gemm_eval = measure(&gemm_cfg, &eff)?;
        let axpy = calibrate_vector(&library.vector_config(VectorKernel::Axpy, machine), &eff)?;
        let dot = calibrate_vector(&library.vector_config(VectorKernel::Dot, machine), &eff)?;
        let gemv = calibrate_vector(&library.vector_config(VectorKernel::Gemv, machine), &eff)?;
        let ger = calibrate_vector(&library.vector_config(VectorKernel::Ger, machine), &eff)?;
        Ok(PerfModel {
            library,
            machine: machine.clone(),
            gemm: GemmModel {
                micro_mflops: gemm_eval.mflops,
            },
            axpy,
            dot,
            gemv,
            ger,
        })
    }

    /// Figure 18: DGEMM Mflops at `(m, n, k)`.
    pub fn gemm_mflops(&self, m: usize, n: usize, k: usize) -> f64 {
        let flops = (2 * m * n * k) as f64;
        let t_compute = flops / (self.gemm.micro_mflops * 1e6);

        let bs = BlockSizes::for_machine(&self.machine);
        // Packing: read + write both operands once (B repacked once per
        // mc... once per panel pass — first-order: once).
        let pack_bytes = ((m * k + k * n) * 8 * 2) as f64;
        let t_pack = pack_bytes / bw_bytes_per_sec(&self.machine, self.machine.caches.l2.size);
        // C tile traffic: read+write per kc pass.
        let passes = k.div_ceil(bs.kc).max(1);
        let c_bytes = (m * n * 16 * passes) as f64;
        let t_c = c_bytes / bw_bytes_per_sec(&self.machine, m * n * 8);

        flops / (t_compute + t_pack + t_c) / 1e6
    }

    fn stream_mflops(&self, cal: &StreamCal, ws_bytes: usize) -> f64 {
        // Additive-latency roofline: the calibration run measures each
        // library's per-flop time at the calibration cache level; the
        // non-memory component (kernel overhead, imperfect prefetching)
        // carries over, while the memory component is swapped for the
        // target level's bandwidth term.
        let bw_cal = bw_bytes_per_sec(&self.machine, cal.ws_bytes);
        let bw_tgt = bw_bytes_per_sec(&self.machine, ws_bytes);
        let t_meas = 1.0 / (cal.cold_mflops * 1e6); // s per flop
        let t_mem_cal = cal.bytes_per_flop / bw_cal;
        let t_mem_tgt = cal.bytes_per_flop / bw_tgt;
        let t_nonmem = (t_meas - t_mem_cal).max(0.0);
        1.0 / (t_mem_tgt + t_nonmem) / 1e6
    }

    /// Figure 19: DGEMV Mflops for a square `n x n` matrix.
    pub fn gemv_mflops(&self, n: usize) -> f64 {
        self.stream_mflops(&self.gemv, n * n * 8)
    }

    /// Figure 20: DAXPY Mflops at vector length `n`.
    pub fn axpy_mflops(&self, n: usize) -> f64 {
        self.stream_mflops(&self.axpy, 16 * n)
    }

    /// Figure 21: DDOT Mflops at vector length `n`.
    pub fn dot_mflops(&self, n: usize) -> f64 {
        self.stream_mflops(&self.dot, 16 * n)
    }

    /// Table 6: higher-level routine Mflops. Level-3 routines take
    /// `(m = n, k)` like the paper (k = 256); GER takes the square size.
    pub fn routine_mflops(&self, kind: RoutineKind, m: usize, k: usize) -> f64 {
        let gemm = self.gemm_mflops(m, m, k);
        match kind {
            // Extra symmetric-operand packing: the full operand is
            // materialized/packed twice as much as GEMM's A.
            RoutineKind::Symm => combine(gemm, 0.995),
            // Rank-k updates write only half of C but pay full packing.
            RoutineKind::Syrk => combine(gemm, 0.985),
            RoutineKind::Syr2k => combine(gemm, 0.98),
            // Triangular packing wastes half the A panel slots.
            RoutineKind::Trmm => combine(gemm, 0.975),
            RoutineKind::Trsm => {
                // The paper's two-step scheme: a fraction nb/m of the flops
                // runs as the diagonal-block solve, which is NOT
                // GEMM-castable. AUGEM translates it "into low-level C code
                // in a straightforward fashion (without special
                // optimizations)" — which is exactly why the paper's TRSM
                // loses to MKL on Sandy Bridge and to ACML and ATLAS on
                // Piledriver. The vendor libraries (and ATLAS) ship
                // hand-optimized small triangular solves.
                let nb = 64.0;
                let slow_frac = (nb / m as f64).min(1.0);
                let solve_quality = match self.library {
                    Library::Vendor => 0.55,
                    Library::Atlas => 0.40,
                    Library::Augem | Library::Goto => 0.15,
                };
                let slow_rate = solve_quality
                    * self.machine.timing.peak_dp_flops_per_cycle(
                        self.machine.simd_mode(),
                        self.machine.isa.has_fma(),
                    )
                    * self.machine.turbo_ghz
                    * 1000.0;
                1.0 / ((1.0 - slow_frac) / gemm + slow_frac / slow_rate)
            }
            RoutineKind::Ger => {
                // Rank-1 update, directly calibrated: the generated GER
                // kernel streams A (read + write) at half GEMV's
                // arithmetic intensity.
                self.stream_mflops(&self.ger, m * m * 8)
            }
        }
    }
}

fn combine(gemm: f64, factor: f64) -> f64 {
    gemm * factor
}

#[cfg(test)]
mod tests {
    use super::*;

    fn augem_snb() -> PerfModel {
        PerfModel::build(Library::Augem, &MachineSpec::sandy_bridge()).unwrap()
    }

    #[test]
    fn gemm_model_plateaus_near_micro_rate() {
        let m = augem_snb();
        let small = m.gemm_mflops(1024, 1024, 256);
        let large = m.gemm_mflops(6144, 6144, 256);
        // Fig 18 shape: essentially flat across the sweep (packing costs
        // shrink as C traffic moves out to DRAM), a little under the
        // steady-state micro-kernel rate.
        let rel = (large - small).abs() / small;
        assert!(
            rel < 0.10,
            "curve should be nearly flat: {small} -> {large}"
        );
        for v in [small, large] {
            assert!(
                v > 0.85 * m.gemm.micro_mflops && v < m.gemm.micro_mflops,
                "{v} vs micro {}",
                m.gemm.micro_mflops
            );
        }
    }

    #[test]
    fn gemv_is_memory_bound_at_paper_sizes() {
        let m = augem_snb();
        let r = m.gemv_mflops(2048);
        // 2048^2 doubles = 32 MiB -> DRAM-bound: a few GFlops, far below
        // the compute plateau.
        assert!(r > 1000.0 && r < 9000.0, "GEMV@2048: {r}");
        assert!(
            m.gemv_mflops(5120) <= r * 1.05,
            "bigger should not be faster"
        );
    }

    #[test]
    fn axpy_and_dot_land_in_the_papers_band() {
        let m = augem_snb();
        let axpy = m.axpy_mflops(100_000);
        let dot = m.dot_mflops(100_000);
        // Paper Fig 20/21 (SNB): AXPY ~4 GFlops, DOT ~5 GFlops at 1e5.
        assert!(axpy > 1500.0 && axpy < 12000.0, "AXPY {axpy}");
        assert!(
            dot > axpy,
            "DOT ({dot}) reads less per flop than AXPY ({axpy})"
        );
    }

    #[test]
    fn trsm_is_slower_than_gemm_like_routines() {
        let m = augem_snb();
        let symm = m.routine_mflops(RoutineKind::Symm, 2048, 256);
        let trsm = m.routine_mflops(RoutineKind::Trsm, 2048, 256);
        assert!(trsm < symm, "TRSM {trsm} vs SYMM {symm}");
        assert!(
            trsm > 0.75 * symm,
            "TRSM shouldn't collapse: {trsm} vs {symm}"
        );
    }

    #[test]
    fn ger_is_about_half_of_gemv() {
        let m = augem_snb();
        let ger = m.routine_mflops(RoutineKind::Ger, 2048, 0);
        let gemv = m.gemv_mflops(2048);
        let ratio = ger / gemv;
        assert!(ratio > 0.4 && ratio < 0.6, "GER/GEMV ratio {ratio}");
    }
}
