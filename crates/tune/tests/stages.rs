//! The stage-keyed pipeline: every candidate's build artifacts are the
//! same on every path through the cache, and the machine-independent
//! stages run once per key, shared across machines.

use augem_depan::check_transforms;
use augem_ir::Kernel;
use augem_machine::MachineSpec;
use augem_obs::hash::mix_str;
use augem_obs::{stage, Collector};
use augem_resil::Injector;
use augem_tune::cache::counter;
use augem_tune::{
    build_logged, gemm_candidates, sweep, vector_candidates, Candidate, EvalCache, LoggedBuild,
    ResilOptions, VectorKernel,
};

const VECTOR_KERNELS: [VectorKernel; 5] = [
    VectorKernel::Axpy,
    VectorKernel::Dot,
    VectorKernel::Gemv,
    VectorKernel::Ger,
    VectorKernel::Scal,
];

/// One hash over every artifact of every build: tag, assembly text,
/// binding log, each transform step's pass record and snapshots, the
/// tagged kernel and the source. Recorded on the pipeline before it was
/// keyed by stage (each build ran every pass itself): 192 builds, the 36
/// dgemm and 60 vector candidates of both paper machines.
const PINNED_ARTIFACTS: u64 = 0x4db6b0f76e8dc986;

/// A kernel's full content, with the provenance map in a fixed order.
fn kernel_hash(h: u64, k: &Kernel) -> u64 {
    let mut origin: Vec<_> = k.ptr_origin.iter().collect();
    origin.sort();
    let text = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        k.name, k.syms, k.params, k.body, origin
    );
    mix_str(h, &text)
}

fn build_hash(mut h: u64, tag: &str, m: &MachineSpec, build: Result<&LoggedBuild, String>) -> u64 {
    h = mix_str(h, tag);
    match build {
        Err(e) => mix_str(h, &e),
        Ok(b) => {
            h = mix_str(h, &augem_asm::emit::emit_att(&b.asm, &m.isa));
            h = mix_str(h, &format!("{:?}", b.log));
            for step in &b.tlog.steps {
                h = mix_str(h, &format!("{:?}", step.pass));
                h = kernel_hash(h, &step.before);
                h = kernel_hash(h, &step.after);
            }
            h = kernel_hash(h, &b.kernel);
            kernel_hash(h, &b.source)
        }
    }
}

fn candidates(m: &MachineSpec) -> Vec<Box<dyn Candidate>> {
    let mut out: Vec<Box<dyn Candidate>> = Vec::new();
    for c in gemm_candidates(m) {
        out.push(Box::new(c));
    }
    for vk in VECTOR_KERNELS {
        for c in vector_candidates(vk, m) {
            out.push(Box::new(c));
        }
    }
    out
}

/// Folds every candidate of machine `m` into `h`, building through `build`.
fn machine_hash(
    h: u64,
    m: &MachineSpec,
    build: impl Fn(&dyn Candidate) -> Result<LoggedBuild, String>,
) -> u64 {
    candidates(m).iter().fold(h, |h, c| {
        build_hash(h, &c.tag(), m, build(&**c).as_ref().map_err(Clone::clone))
    })
}

/// The exhaustive sweeps of every kernel family on `m`, through `cache`.
fn sweep_all(m: &MachineSpec, cache: &EvalCache) {
    let (opts, inj, null) = (
        ResilOptions::plain(),
        Injector::disabled(),
        augem_obs::null(),
    );
    sweep(gemm_candidates(m), m, &opts, None, &inj, null, cache).expect("dgemm sweep");
    for vk in VECTOR_KERNELS {
        let cands = vector_candidates(vk, m);
        sweep(cands, m, &opts, None, &inj, null, cache).expect("vector sweep");
    }
}

fn cached(cache: &EvalCache, c: &dyn Candidate, m: &MachineSpec) -> Result<LoggedBuild, String> {
    let b = cache.logged(c, m, augem_obs::null());
    b.map(|b| (*b).clone()).map_err(|e| e.to_string())
}

#[test]
fn every_path_builds_the_pinned_artifacts() {
    let platforms = MachineSpec::paper_platforms();
    let (mut fresh, mut warmed, mut uncached) = (0u64, 0u64, 0u64);
    for (i, m) in platforms.iter().enumerate() {
        let cache = EvalCache::new();
        fresh = machine_hash(fresh, m, |c| cached(&cache, c, m));

        // Warmed by the other machine's sweeps: every transform is a hit.
        let cache = EvalCache::new();
        sweep_all(&platforms[1 - i], &cache);
        let transforms = cache.transforms_len();
        warmed = machine_hash(warmed, m, |c| cached(&cache, c, m));
        assert_eq!(cache.transforms_len(), transforms, "no new transform");

        uncached = machine_hash(uncached, m, |c| {
            build_logged(c, m).map_err(|e| e.to_string())
        });
    }
    assert_eq!(fresh, PINNED_ARTIFACTS, "fresh cache: {fresh:#018x}");
    assert_eq!(warmed, PINNED_ARTIFACTS, "warmed cache: {warmed:#018x}");
    assert_eq!(
        uncached, PINNED_ARTIFACTS,
        "disabled cache: {uncached:#018x}"
    );
}

#[test]
fn a_second_machine_runs_no_transform_pass() {
    let (snb, pd) = (MachineSpec::sandy_bridge(), MachineSpec::piledriver());
    let (opts, inj) = (ResilOptions::plain(), Injector::disabled());
    for repeat in 0..20 {
        let cache = EvalCache::new();
        let first = Collector::new();
        sweep(
            gemm_candidates(&snb),
            &snb,
            &opts,
            None,
            &inj,
            &first,
            &cache,
        )
        .unwrap();
        let snap = first.snapshot();
        let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        // 36 candidates, 32 transform configurations (Vdup and Shuf
        // share one), 16 prefixes: each stage ran once per key.
        assert_eq!(
            [
                count(counter::PREFIX_MISS),
                count(counter::PREFIX_HIT),
                count(counter::TRANSFORM_MISS),
                count(counter::TRANSFORM_HIT),
            ],
            [16, 16, 32, 4],
            "repeat {repeat}"
        );
        let calls = |name: &str| {
            snap.stages()
                .iter()
                .find(|s| s.name == name)
                .map_or(0, |s| s.calls)
        };
        assert_eq!(calls(stage::CGEN), 32);
        assert_eq!(calls(stage::IDENTIFY), 32);
        assert_eq!(calls("cgen.scalar_replace"), 16);

        let second = Collector::new();
        sweep(
            gemm_candidates(&pd),
            &pd,
            &opts,
            None,
            &inj,
            &second,
            &cache,
        )
        .unwrap();
        let snap = second.snapshot();
        for name in [stage::CGEN, stage::IDENTIFY] {
            assert!(
                snap.stages().iter().all(|s| s.name != name),
                "repeat {repeat}: the second machine ran `{name}`"
            );
        }
        assert!(!snap.counters.contains_key(counter::PREFIX_MISS));
        assert!(!snap.counters.contains_key(counter::TRANSFORM_MISS));
        assert_eq!(snap.counters[counter::TRANSFORM_HIT], 36);
        assert_eq!(snap.counters[counter::BUILD_MISS], 36);
    }
    // The second machine's builds equal a fresh cache's.
    let cache = EvalCache::new();
    sweep(
        gemm_candidates(&snb),
        &snb,
        &opts,
        None,
        &inj,
        augem_obs::null(),
        &cache,
    )
    .unwrap();
    let fresh = EvalCache::new();
    for c in gemm_candidates(&pd) {
        let tag = c.tag();
        assert_eq!(
            build_hash(
                0,
                &tag,
                &pd,
                cached(&cache, &c, &pd).as_ref().map_err(Clone::clone)
            ),
            build_hash(
                0,
                &tag,
                &pd,
                cached(&fresh, &c, &pd).as_ref().map_err(Clone::clone)
            ),
            "{tag}"
        );
    }
}

#[test]
fn memoized_legality_equals_a_full_replay_for_every_candidate() {
    let cache = EvalCache::new();
    for m in MachineSpec::paper_platforms() {
        for c in candidates(&m) {
            let t = cache
                .transformed(&*c, augem_obs::null())
                .expect("transforms");
            assert_eq!(
                t.legality(),
                check_transforms(&t.source, &t.tlog, None),
                "{}",
                c.tag()
            );
        }
    }
}
