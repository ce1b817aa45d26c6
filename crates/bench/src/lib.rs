//! # augem-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§5) and writes the `BENCH_*.json` reports whose
//! gates CI enforces. See DESIGN.md's per-experiment index.
//!
//! * `cargo run -p augem-bench --bin figures -- all` prints every figure's
//!   series and both tables in the paper's layout (Mflops rows per size),
//!   after the reports.
//! * Every timing gate reads [`sample`]'s statistic: the minimum of a
//!   constant number of runs, with the maximum kept for spread.

#![forbid(unsafe_code)]

use augem_blas::model::measure;
use augem_blas::{Library, PerfModel, RoutineKind};
use augem_machine::MachineSpec;
use augem_opt::{FmaPolicy, StrategyPref};
use augem_transforms::PrefetchConfig;
use augem_tune::config::GemmConfig;

/// Min and max of one timed quantity over a gate's repeated runs, in
/// seconds.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    pub min: f64,
    pub max: f64,
}

impl Spread {
    /// The sums of the minima and of the maxima: a gate's aggregate over
    /// kernel families.
    pub fn total(spreads: &[Spread]) -> Spread {
        Spread {
            min: spreads.iter().map(|s| s.min).sum(),
            max: spreads.iter().map(|s| s.max).sum(),
        }
    }
}

/// Runs `run` `n` times and folds each of the `K` timings it returns into
/// a [`Spread`]; the first error ends the sampling. Every timing gate
/// reads the minimum, which sheds scheduler preemption and frequency
/// noise that only ever adds time; the maximum records the spread.
pub fn sample<const K: usize, E>(
    n: usize,
    mut run: impl FnMut() -> Result<[f64; K], E>,
) -> Result<[Spread; K], E> {
    let mut spreads = [Spread {
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    }; K];
    for _ in 0..n {
        for (s, t) in spreads.iter_mut().zip(run()?) {
            s.min = s.min.min(t);
            s.max = s.max.max(t);
        }
    }
    Ok(spreads)
}

/// The bound of the cost and depan gates: an analysis phase must cost
/// under 1% of the sweeps it runs in.
pub const PHASE_BOUND: f64 = 0.01;

/// A phase's aggregate share of the sweeps it runs in, as the cost and
/// depan gates read it: each family's fastest repetition of the phase,
/// summed, over each family's fastest sweep, summed. A phase preempted in
/// one repetition does not move it; a phase slow in every repetition
/// does. The sums, not the per-family ratios, because a millisecond GEMM
/// sweep's denominator says nothing about the analysis cost.
pub fn phase_share(phases: &[Spread], sweeps: &[Spread]) -> f64 {
    Spread::total(phases).min / Spread::total(sweeps).min.max(1e-12)
}

/// Matrix sizes of Figure 18 / Table 6 Level-3 sweeps: m = n from 1024 to
/// 6144 in steps of 256, k fixed at 256.
pub fn gemm_sizes() -> Vec<usize> {
    (1024..=6144).step_by(256).collect()
}

/// Matrix sizes of Figure 19 (GEMV) and the GER row of Table 6.
pub fn gemv_sizes() -> Vec<usize> {
    (2048..=5120).step_by(256).collect()
}

/// Vector lengths of Figures 20/21: 100,000 to 200,000 step 5,000.
pub fn vector_sizes() -> Vec<usize> {
    (100_000..=200_000).step_by(5_000).collect()
}

/// One plotted series: a library's Mflops across the sweep.
#[derive(Debug, Clone)]
pub struct Series {
    pub library: String,
    pub points: Vec<(usize, f64)>,
}

impl Series {
    pub fn average(&self) -> f64 {
        self.points.iter().map(|(_, v)| v).sum::<f64>() / self.points.len().max(1) as f64
    }
}

/// All four library models for one machine, built once (the expensive
/// part: AUGEM's empirical tuning plus every calibration simulation).
pub struct Models {
    pub machine: MachineSpec,
    pub models: Vec<(Library, PerfModel)>,
}

impl Models {
    pub fn build(machine: &MachineSpec) -> Self {
        let models = Library::ALL
            .iter()
            .map(|&lib| {
                (
                    lib,
                    PerfModel::build(lib, machine)
                        .unwrap_or_else(|e| panic!("model for {lib:?}: {e}")),
                )
            })
            .collect();
        Models {
            machine: machine.clone(),
            models,
        }
    }

    fn series(&self, f: impl Fn(&PerfModel, usize) -> f64, sizes: &[usize]) -> Vec<Series> {
        self.models
            .iter()
            .map(|(lib, m)| Series {
                library: lib.display_name(&self.machine).to_string(),
                points: sizes.iter().map(|&s| (s, f(m, s))).collect(),
            })
            .collect()
    }

    /// Figure 18: DGEMM, m = n sweep with k = 256.
    pub fn fig18(&self) -> Vec<Series> {
        self.series(|m, s| m.gemm_mflops(s, s, 256), &gemm_sizes())
    }

    /// Figure 19: DGEMV, square sweep.
    pub fn fig19(&self) -> Vec<Series> {
        self.series(|m, s| m.gemv_mflops(s), &gemv_sizes())
    }

    /// Figure 20: DAXPY.
    pub fn fig20(&self) -> Vec<Series> {
        self.series(|m, s| m.axpy_mflops(s), &vector_sizes())
    }

    /// Figure 21: DDOT.
    pub fn fig21(&self) -> Vec<Series> {
        self.series(|m, s| m.dot_mflops(s), &vector_sizes())
    }

    /// Table 6: average Mflops of the six higher-level routines.
    pub fn table6(&self) -> Vec<(RoutineKind, Vec<(String, f64)>)> {
        RoutineKind::ALL
            .iter()
            .map(|&kind| {
                let row = self
                    .models
                    .iter()
                    .map(|(lib, m)| {
                        let avg = match kind {
                            RoutineKind::Ger => {
                                let sizes = gemv_sizes();
                                sizes
                                    .iter()
                                    .map(|&s| m.routine_mflops(kind, s, 0))
                                    .sum::<f64>()
                                    / sizes.len() as f64
                            }
                            _ => {
                                let sizes = gemm_sizes();
                                sizes
                                    .iter()
                                    .map(|&s| m.routine_mflops(kind, s, 256))
                                    .sum::<f64>()
                                    / sizes.len() as f64
                            }
                        };
                        (lib.display_name(&self.machine).to_string(), avg)
                    })
                    .collect();
                (kind, row)
            })
            .collect()
    }
}

/// One ablation measurement: a named configuration's micro-kernel Mflops.
#[derive(Debug, Clone)]
pub struct Ablation {
    pub name: String,
    pub mflops: f64,
}

/// The design-choice ablations DESIGN.md calls out, measured on the GEMM
/// micro-kernel steady state.
pub fn ablations(machine: &MachineSpec) -> Vec<Ablation> {
    let w = machine.simd_mode().f64_lanes();
    let base = GemmConfig {
        mu: 2 * w,
        nu: 4,
        ku: 1,
        strategy: StrategyPref::Vdup,
        fma: FmaPolicy::Auto,
        prefetch: PrefetchConfig::default(),
        schedule: true,
    };
    let mut out = Vec::new();
    let mut probe = |name: &str, cfg: GemmConfig| {
        if let Ok(e) = measure(&cfg, machine) {
            out.push(Ablation {
                name: name.to_string(),
                mflops: e.mflops,
            });
        } else {
            out.push(Ablation {
                name: format!("{name} (did not build)"),
                mflops: 0.0,
            });
        }
    };
    probe("baseline (Vdup, FMA auto, prefetch, sched)", base);
    probe(
        "Shuf method (w x w grid)",
        GemmConfig {
            mu: w,
            nu: w,
            strategy: StrategyPref::Shuf,
            ..base
        },
    );
    probe(
        "Vdup method (w x w grid)",
        GemmConfig {
            mu: w,
            nu: w,
            ..base
        },
    );
    probe(
        "no FMA fusion",
        GemmConfig {
            fma: FmaPolicy::NoFma,
            ..base
        },
    );
    probe(
        "no software prefetch",
        GemmConfig {
            prefetch: PrefetchConfig::disabled(),
            ..base
        },
    );
    probe(
        "no instruction scheduling",
        GemmConfig {
            schedule: false,
            ..base
        },
    );
    // Scalar code cannot hold 2w x 4 accumulators in 16 registers; the
    // honest scalar baseline is the small Figure-13 shape.
    probe(
        "scalar (no SIMD templates, 2x2)",
        GemmConfig {
            mu: 2,
            nu: 2,
            strategy: StrategyPref::ScalarOnly,
            ..base
        },
    );
    probe(
        "fixed 2x2 unroll (Fig 13 default)",
        GemmConfig {
            mu: 2,
            nu: 2,
            ..base
        },
    );
    out
}

/// Formats a figure as the paper's rows: one line per size, one column
/// per library.
pub fn format_figure(title: &str, series: &[Series]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n\n"));
    out.push_str(&format!("{:>8}", "size"));
    for s in series {
        out.push_str(&format!("{:>16}", s.library));
    }
    out.push('\n');
    let n = series[0].points.len();
    for i in 0..n {
        out.push_str(&format!("{:>8}", series[0].points[i].0));
        for s in series {
            out.push_str(&format!("{:>16.0}", s.points[i].1));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:>8}", "avg"));
    for s in series {
        out.push_str(&format!("{:>16.0}", s.average()));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_match_paper_counts() {
        assert_eq!(gemm_sizes().len(), 21); // 1024..=6144 step 256
        assert_eq!(gemv_sizes().len(), 13); // 2048..=5120 step 256
        assert_eq!(vector_sizes().len(), 21); // 1e5..=2e5 step 5e3
        assert_eq!(*gemm_sizes().last().unwrap(), 6144);
        assert_eq!(*gemv_sizes().last().unwrap(), 5120);
    }

    #[test]
    fn figure_formatting_includes_all_series() {
        let series = vec![
            Series {
                library: "A".into(),
                points: vec![(1024, 100.0), (2048, 200.0)],
            },
            Series {
                library: "B".into(),
                points: vec![(1024, 50.0), (2048, 70.0)],
            },
        ];
        let s = format_figure("Fig X", &series);
        assert!(s.contains("Fig X"));
        assert!(s.contains("1024"));
        assert!(s.contains("150")); // avg of A
        assert!(s.contains("60")); // avg of B
    }

    /// The cost and depan gates' verdict on three repetitions of two
    /// families' `[phase, sweep]` seconds.
    fn phase_gate(families: [[[f64; 2]; 3]; 2]) -> bool {
        let (phases, sweeps): (Vec<Spread>, Vec<Spread>) = families
            .iter()
            .map(|reps| {
                let mut reps = reps.iter();
                let [phase, sweep] = sample(3, || reps.next().copied().ok_or(())).unwrap();
                (phase, sweep)
            })
            .unzip();
        phase_share(&phases, &sweeps) < PHASE_BOUND
    }

    #[test]
    fn phase_gate_passes_one_preempted_repetition_and_fails_a_slow_phase() {
        // The phase at 0.5% of its sweep.
        let steady = [[1e-3, 0.2]; 3];
        // Preempted in one repetition, the first (the one sample a gate
        // without repetitions reads): that phase reads 10x the others.
        let preempted = [[1e-2, 0.2], [1e-3, 0.2], [1e-3, 0.2]];
        assert!(phase_gate([steady, preempted]));
        // Slow in every repetition: the phase really costs 5% of its sweep.
        let slow = [[1e-2, 0.2]; 3];
        assert!(!phase_gate([steady, slow]));
    }

    #[test]
    fn ablations_cover_design_choices() {
        let names: Vec<String> = ablations(&MachineSpec::sandy_bridge())
            .into_iter()
            .map(|a| a.name)
            .collect();
        assert!(names.iter().any(|n| n.contains("Shuf")));
        assert!(names.iter().any(|n| n.contains("FMA")));
        assert!(names.iter().any(|n| n.contains("prefetch")));
        assert!(names.iter().any(|n| n.contains("scheduling")));
        assert!(names.iter().any(|n| n.contains("scalar")));
    }
}
