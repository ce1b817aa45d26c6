//! The facade's outcomes, pinned: for every kernel on both paper
//! machines, the shipped configuration, its measurement, its assembly
//! and its rung under the plain options (exhaustive sweep, no checks)
//! and under the serving defaults (resilient sweep, full verification).
//! The pinned value was recorded on the entry points `Augem::run`
//! replaced (the plain `generate` and the degradable ladder), so any
//! change to what a caller receives shows here. Run it in release mode:
//! it tunes 24 times.

use augem::machine::MachineSpec;
use augem::obs::hash::{mix_str, splitmix64};
use augem::resil::Injector;
use augem::{Augem, DlaKernel, RunOptions, Target};

#[test]
fn run_outcomes_match_pinned_hash() {
    const PINNED: u64 = 0x8f9d_4010_736f_5f66;
    let mut h = 0u64;
    for machine in [MachineSpec::sandy_bridge(), MachineSpec::piledriver()] {
        let driver = Augem::new(machine);
        for kernel in DlaKernel::ALL {
            for opts in [RunOptions::plain(), RunOptions::default()] {
                let r = driver.run(Target::Tune(kernel), &opts, &Injector::disabled());
                let g = r
                    .generated
                    .unwrap_or_else(|| panic!("{}: {:?}", kernel.name(), r.cause));
                h = mix_str(h, &g.config_tag);
                h = splitmix64(h ^ g.mflops.to_bits());
                h = mix_str(h, &g.assembly_text());
                h = mix_str(h, &r.degradation.to_string());
            }
        }
    }
    assert_eq!(h, PINNED, "shipped kernels changed: {h:#x}");
}
