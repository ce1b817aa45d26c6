//! Fig20 bench: prints the DAXPY series for both platforms, then
//! Criterion-measures each library's kernel evaluation.

use augem_bench::{format_figure, measure, Models};
use augem_blas::Library;
use augem_machine::MachineSpec;
use augem_tune::config::VectorKernel;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    for machine in MachineSpec::paper_platforms() {
        let models = Models::build(&machine);
        eprintln!(
            "{}",
            format_figure(
                &format!("{} ({}): DAXPY Mflops", "fig20", machine.arch.short_name()),
                &models.fig20()
            )
        );

        let mut group = c.benchmark_group(format!("fig20/{}", machine.arch.short_name()));
        group.sample_size(10);
        for lib in Library::ALL {
            let eff = lib.effective_machine(&machine);
            let cfg = lib.vector_config(VectorKernel::Axpy, &machine);
            group.bench_function(lib.display_name(&machine), |b| {
                b.iter(|| measure(&cfg, &eff).unwrap().mflops)
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
