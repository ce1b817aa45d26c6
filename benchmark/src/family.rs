//! Kernel families (kernel × machine) and the seeded random source every
//! workload draws from.

use augem::machine::MachineSpec;
use augem::obs::hash::splitmix64;
use augem::tune::VectorKernel;
use augem::DlaKernel;

/// One of the two paper platforms, as named on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Machine {
    SandyBridge,
    Piledriver,
}

impl Machine {
    pub fn spec(self) -> MachineSpec {
        match self {
            Machine::SandyBridge => MachineSpec::sandy_bridge(),
            Machine::Piledriver => MachineSpec::piledriver(),
        }
    }

    pub fn wire(self) -> &'static str {
        match self {
            Machine::SandyBridge => "sandybridge",
            Machine::Piledriver => "piledriver",
        }
    }
}

/// A kernel × machine pair: the unit the daemon tunes and the store keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Family {
    pub kernel: DlaKernel,
    pub machine: Machine,
}

impl Family {
    /// All twelve families, Sandy Bridge first, kernels in `DlaKernel::ALL`
    /// order.
    pub fn all() -> Vec<Family> {
        [Machine::SandyBridge, Machine::Piledriver]
            .into_iter()
            .flat_map(|machine| {
                DlaKernel::ALL
                    .into_iter()
                    .map(move |kernel| Family { kernel, machine })
            })
            .collect()
    }

    pub fn gemm() -> Vec<Family> {
        Family::all()
            .into_iter()
            .filter(|f| f.kernel == DlaKernel::Gemm)
            .collect()
    }

    pub fn vector() -> Vec<Family> {
        Family::all()
            .into_iter()
            .filter(|f| f.kernel != DlaKernel::Gemm)
            .collect()
    }

    pub fn name(self) -> String {
        format!("{}@{}", self.kernel.name(), self.machine.wire())
    }

    /// The tune crate's id for a vector-style family (`None` for GEMM).
    pub fn vector_kernel(self) -> Option<VectorKernel> {
        match self.kernel {
            DlaKernel::Gemm => None,
            DlaKernel::Gemv => Some(VectorKernel::Gemv),
            DlaKernel::Ger => Some(VectorKernel::Ger),
            DlaKernel::Axpy => Some(VectorKernel::Axpy),
            DlaKernel::Dot => Some(VectorKernel::Dot),
            DlaKernel::Scal => Some(VectorKernel::Scal),
        }
    }
}

/// A seeded splitmix64 stream. Each workload decision (round order,
/// arrival gaps, key and op draws, miss events) takes its own stream so
/// that changing one never shifts another.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(splitmix64(seed ^ splitmix64(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An exponential inter-arrival gap in seconds for a Poisson process
    /// of `rate` events per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_families_split_two_gemm_ten_vector() {
        assert_eq!(Family::all().len(), 12);
        assert_eq!(Family::gemm().len(), 2);
        assert_eq!(Family::vector().len(), 10);
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let draw = |seed| {
            let mut rng = Rng::new(seed, 1);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }
}
