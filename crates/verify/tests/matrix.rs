//! The acceptance matrix: `verify::check` must come back error-free
//! for every supported kernel × ISA × strategy combination the
//! pipeline can produce. Warnings are tolerated (and printed for
//! inspection); a single `Severity::Error` fails the suite.

use augem_machine::{MachineSpec, SimdMode};
use augem_opt::{FmaPolicy, StrategyPref};
use augem_transforms::PrefetchConfig;
use augem_tune::{
    gemm_candidates, vector_candidates, GemmConfig, LoggedBuild, VectorConfig, VectorKernel,
};

/// The ISA axis: AVX (Sandy Bridge), FMA3 and FMA4 (Piledriver, via
/// the FMA policy), and plain SSE (Sandy Bridge clamped).
fn machines() -> Vec<(String, MachineSpec, FmaPolicy)> {
    let snb = MachineSpec::sandy_bridge();
    let pd = MachineSpec::piledriver();
    vec![
        ("sandybridge-avx".into(), snb.clone(), FmaPolicy::Auto),
        ("piledriver-fma3".into(), pd.clone(), FmaPolicy::Auto),
        ("piledriver-fma4".into(), pd.clone(), FmaPolicy::PreferFma4),
        (
            "sandybridge-sse".into(),
            snb.with_isa_clamped(SimdMode::Sse),
            FmaPolicy::NoFma,
        ),
    ]
}

fn assert_clean(tag: &str, build: &LoggedBuild) {
    let diags = augem_verify::check(&build.kernel, &build.asm, &build.log);
    for d in &diags {
        println!("[{tag}] {d}");
    }
    let errors: Vec<_> = diags.iter().filter(|d| d.is_error()).collect();
    assert!(
        errors.is_empty(),
        "{tag}: {} verifier error(s):\n{}",
        errors.len(),
        errors
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn gemm_matrix_is_error_free() {
    for (mname, machine, fma) in machines() {
        let w = machine.simd_mode().f64_lanes();
        // Representative shapes: rectangular Vdup, square Shuf, inner
        // unrolling, prefetch on/off, scheduler on/off, scalar ablation.
        let mut configs = vec![
            GemmConfig::fig13(),
            GemmConfig {
                nu: 2,
                mu: 2 * w,
                ku: 1,
                strategy: StrategyPref::Vdup,
                fma,
                prefetch: PrefetchConfig::default(),
                schedule: true,
            },
            GemmConfig {
                nu: w,
                mu: w,
                ku: 2,
                strategy: StrategyPref::Shuf,
                fma,
                prefetch: PrefetchConfig::disabled(),
                schedule: true,
            },
            GemmConfig {
                nu: 1,
                mu: w,
                ku: 1,
                strategy: StrategyPref::Vdup,
                fma,
                prefetch: PrefetchConfig::default(),
                schedule: false,
            },
            GemmConfig {
                nu: 2,
                mu: 2,
                ku: 1,
                strategy: StrategyPref::ScalarOnly,
                fma: FmaPolicy::NoFma,
                prefetch: PrefetchConfig::disabled(),
                schedule: true,
            },
        ];
        for c in &mut configs {
            c.fma = if c.strategy == StrategyPref::ScalarOnly {
                FmaPolicy::NoFma
            } else {
                fma
            };
        }
        for cfg in configs {
            let tag = format!("{mname} gemm {}", cfg.tag());
            match cfg.build_logged(&machine) {
                Ok(build) => assert_clean(&tag, &build),
                // Some shapes legitimately exhaust the register file on
                // some targets; that is the tuner's concern, not the
                // verifier's.
                Err(e) => println!("[{tag}] skipped: {e}"),
            }
        }
    }
}

#[test]
fn vector_kernel_matrix_is_error_free() {
    let kernels = [
        VectorKernel::Axpy,
        VectorKernel::Dot,
        VectorKernel::Gemv,
        VectorKernel::Ger,
        VectorKernel::Scal,
    ];
    for (mname, machine, _) in machines() {
        let w = machine.simd_mode().f64_lanes();
        for k in kernels {
            for unroll in [w, 4 * w] {
                for prefetch in [PrefetchConfig::default(), PrefetchConfig::disabled()] {
                    let cfg = VectorConfig {
                        kernel: k,
                        unroll,
                        prefetch,
                        schedule: true,
                    };
                    let tag = format!("{mname} {}", cfg.tag());
                    match cfg.build_logged(&machine) {
                        Ok(build) => assert_clean(&tag, &build),
                        Err(e) => println!("[{tag}] skipped: {e}"),
                    }
                }
            }
        }
    }
}

#[test]
fn full_candidate_sets_are_error_free() {
    // The tuner's entire search space, as emitted by the candidate
    // generators — exactly what the tuner's sweep will build.
    for machine in MachineSpec::paper_platforms() {
        for cfg in gemm_candidates(&machine) {
            if let Ok(build) = cfg.build_logged(&machine) {
                assert_clean(&format!("gemm {}", cfg.tag()), &build);
            }
        }
        for k in [VectorKernel::Axpy, VectorKernel::Dot, VectorKernel::Gemv] {
            for cfg in vector_candidates(k, &machine) {
                if let Ok(build) = cfg.build_logged(&machine) {
                    assert_clean(&cfg.tag(), &build);
                }
            }
        }
    }
}
