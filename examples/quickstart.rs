//! Quickstart: generate a tuned assembly kernel from a simple C kernel,
//! print it, and prove it computes the right answer on the simulator.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use augem::machine::MachineSpec;
use augem::resil::Injector;
use augem::sim::{FuncSim, SimValue};
use augem::{Augem, DlaKernel, RunOptions, Target};

fn main() {
    // Target the paper's Intel Sandy Bridge platform.
    let machine = MachineSpec::sandy_bridge();
    let driver = Augem::new(machine.clone());

    // One call runs the whole pipeline: simple C kernel -> source-to-source
    // optimization -> template identification -> register allocation /
    // SIMD vectorization / instruction selection -> assembly, with the
    // unroll factors and prefetch distances chosen empirically.
    let run = driver.run(
        Target::Tune(DlaKernel::Axpy),
        &RunOptions::plain(),
        &Injector::disabled(),
    );
    let generated = run.generated.expect("pipeline");

    println!(
        "Tuned configuration: {}  ({:.0} Mflops steady-state on the simulator)\n",
        generated.config_tag, generated.mflops
    );
    println!("{}", generated.assembly_text());

    // Run the generated kernel on real data through the functional
    // simulator and check it against plain Rust.
    let n = 1000usize;
    let alpha = 2.5;
    let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let y: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25).collect();

    let sim = FuncSim::new(machine.isa);
    let (arrays, _) = sim
        .run(
            &generated.asm,
            vec![
                SimValue::Int(n as i64),
                SimValue::F64(alpha),
                SimValue::Array(x.clone()),
                SimValue::Array(y.clone()),
            ],
        )
        .expect("simulation");

    let max_err = arrays[1]
        .iter()
        .zip(x.iter().zip(&y))
        .map(|(got, (xi, yi))| (got - (yi + alpha * xi)).abs())
        .fold(0.0f64, f64::max);
    println!("max |error| vs reference: {max_err:e}");
    assert_eq!(max_err, 0.0, "generated AXPY must be bit-exact");
    println!("OK: generated assembly computes y += alpha*x exactly.");
}
