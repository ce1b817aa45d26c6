//! The paper's headline scenario: automatically generate the DGEMM
//! micro-kernel for two different microarchitectures and watch the
//! framework make different choices for each — Sandy Bridge gets AVX
//! mul+add pairs, Piledriver gets FMA3 — then verify both kernels
//! numerically on the simulator.
//!
//! ```text
//! cargo run --release --example generate_gemm
//! ```

use augem::kernels::ref_gemm_packed;
use augem::machine::MachineSpec;
use augem::resil::Injector;
use augem::sim::{FuncSim, SimValue};
use augem::{Augem, DlaKernel, RunOptions, Target};

fn main() {
    for machine in MachineSpec::paper_platforms() {
        println!("==== {} ====", machine.arch.name());
        let driver = Augem::new(machine.clone());
        let g = driver
            .run(
                Target::Tune(DlaKernel::Gemm),
                &RunOptions::plain(),
                &Injector::disabled(),
            )
            .generated
            .expect("pipeline");
        println!(
            "winner: {}   {:.0} Mflops steady-state ({:.1}% of single-core peak)\n",
            g.config_tag,
            g.mflops,
            100.0 * g.mflops / machine.peak_mflops()
        );

        // Show the inner loop: find the hottest region comment and print a
        // few lines around it.
        let text = g.assembly_text();
        let mut shown = 0;
        let mut in_region = false;
        for line in text.lines() {
            if line.contains("region 0:") {
                in_region = true;
            }
            if in_region && shown < 18 {
                println!("{line}");
                shown += 1;
            }
        }
        println!("\t... ({} instructions total)\n", g.asm.inst_count());

        // Validate numerics on an odd-shaped problem (runs the remainder
        // paths too).
        let (mr, nr, kc) = (13usize, 7usize, 33usize);
        let (mc, ldb, ldc) = (mr, nr + 2, mr + 1);
        let a: Vec<f64> = (0..mc * kc)
            .map(|v| ((v * 7) % 23) as f64 * 0.5 - 5.0)
            .collect();
        let b: Vec<f64> = (0..kc * ldb)
            .map(|v| ((v * 3) % 17) as f64 * 0.25)
            .collect();
        let c0: Vec<f64> = (0..ldc * nr).map(|v| (v % 9) as f64).collect();
        let mut expect = c0.clone();
        ref_gemm_packed(mr, nr, kc, mc, ldb, ldc, &a, &b, &mut expect);

        let sim = FuncSim::new(machine.isa);
        let (arrays, _) = sim
            .run(
                &g.asm,
                vec![
                    SimValue::Int(mr as i64),
                    SimValue::Int(nr as i64),
                    SimValue::Int(kc as i64),
                    SimValue::Int(mc as i64),
                    SimValue::Int(ldb as i64),
                    SimValue::Int(ldc as i64),
                    SimValue::Array(a),
                    SimValue::Array(b),
                    SimValue::Array(c0),
                ],
            )
            .expect("simulation");
        let max_err = arrays[2]
            .iter()
            .zip(&expect)
            .map(|(g, w)| (g - w).abs())
            .fold(0.0f64, f64::max);
        println!("odd-size validation ({mr}x{nr}x{kc}): max |error| = {max_err:e}");
        assert!(max_err < 1e-9);
        println!();
    }
    println!("Both platform kernels verified.");
}
