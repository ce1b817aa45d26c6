//! Differential suite for the pre-decoded simulator engine.
//!
//! [`FuncSim::run`] lowers a kernel once into a dense [`DecodedProgram`]
//! and executes that; [`FuncSim::run_legacy`] is the original
//! string-dispatching interpreter, kept as the reference semantics.
//! This suite proves the two are **bit-for-bit identical** — output
//! arrays, recorded `MemAccess` traces, dynamic step counts, and error
//! variants (including `StepLimit` at the exact same step) — across
//! every tuning candidate the search enumerates (kernels × ISA ×
//! SIMD strategy) and across random straight-line instruction streams.
//!
//! The one *accepted* behavioral difference: a branch to an undefined
//! label is a decode-time error in the new engine even when the branch
//! is never taken, while the legacy loop only failed on execution.
//! That difference is pinned by a test rather than papered over.
//!
//! The timing tests pin the streamed timing model: hashes of every
//! tuner candidate's timing report, output arrays and per-pc profile,
//! recorded on the trace-then-replay implementation it replaced, plus
//! streamed == replayed-trace and `StepLimit` at the functional step.
//!
//! The final tests cover the parallel sweep: with a disabled injector
//! the sweep evaluates candidates speculatively in parallel but must
//! commit journal entries, rankings, and counters in sweep order —
//! byte-identical to the sequential path (which an
//! enabled-but-never-firing injector forces) — and the default-options
//! journals must hash to pinned values.

use augem::machine::MachineSpec;
use augem::resil::{Fault, InjectionPlan, Injector, Journal, Site, Trigger};
use augem::sim::{FuncSim, SimError, SimValue};
use augem::tune::{
    gemm_candidates, sweep, vector_candidates, Candidate, EvalCache, GemmConfig, ResilOptions,
    VectorKernel,
};
use augem_asm::{AsmKernel, GpOrImm, Mem, ParamLoc, Width, XInst};
use augem_machine::{GpReg, IsaSet, VecReg};
use proptest::prelude::*;

fn machines() -> Vec<MachineSpec> {
    MachineSpec::paper_platforms().to_vec()
}

/// Micro-problem arguments matching the tuner's evaluation shapes.
fn gemm_args(cfg: &GemmConfig) -> Vec<SimValue> {
    let (mr, nr, kc) = augem::tune::evaluate::gemm_eval_dims(cfg);
    let (mc, ldb, ldc) = (mr, nr, mr);
    vec![
        SimValue::Int(mr as i64),
        SimValue::Int(nr as i64),
        SimValue::Int(kc as i64),
        SimValue::Int(mc as i64),
        SimValue::Int(ldb as i64),
        SimValue::Int(ldc as i64),
        SimValue::Array((0..mc * kc).map(|v| (v % 17) as f64 * 0.25).collect()),
        SimValue::Array((0..kc * ldb).map(|v| (v % 13) as f64 * 0.5).collect()),
        SimValue::Array(vec![0.0; ldc * nr]),
    ]
}

fn vector_args(kernel: VectorKernel) -> Vec<SimValue> {
    let n = 1 << 10;
    let (m, nv, lda) = (256usize, 48usize, 256usize);
    match kernel {
        VectorKernel::Axpy => vec![
            SimValue::Int(n as i64),
            SimValue::F64(1.5),
            SimValue::Array((0..n).map(|v| (v % 7) as f64 * 0.5).collect()),
            SimValue::Array((0..n).map(|v| (v % 5) as f64).collect()),
        ],
        VectorKernel::Dot => vec![
            SimValue::Int(n as i64),
            SimValue::Array((0..n).map(|v| (v % 7) as f64 * 0.5).collect()),
            SimValue::Array((0..n).map(|v| (v % 5) as f64).collect()),
            SimValue::Array(vec![0.0]),
        ],
        VectorKernel::Gemv => vec![
            SimValue::Int(m as i64),
            SimValue::Int(nv as i64),
            SimValue::Int(lda as i64),
            SimValue::Array((0..lda * nv).map(|v| (v % 9) as f64 * 0.25).collect()),
            SimValue::Array((0..nv).map(|v| (v % 3) as f64).collect()),
            SimValue::Array(vec![0.0; m]),
        ],
        VectorKernel::Ger => vec![
            SimValue::Int(m as i64),
            SimValue::Int(nv as i64),
            SimValue::Int(lda as i64),
            SimValue::Array((0..m).map(|v| (v % 9) as f64 * 0.25).collect()),
            SimValue::Array((0..nv).map(|v| (v % 3) as f64).collect()),
            SimValue::Array(vec![1.0; lda * nv]),
        ],
        VectorKernel::Scal => vec![
            SimValue::Int(n as i64),
            SimValue::F64(0.99),
            SimValue::Array((0..n).map(|v| (v % 11) as f64).collect()),
        ],
    }
}

/// The core differential check: traced decoded run vs traced legacy
/// run must agree on arrays (bit for bit), instruction trace, memory
/// access trace, and dynamic step count.
fn assert_identical(name: &str, isa: IsaSet, asm: &AsmKernel, args: &[SimValue]) -> u64 {
    let sim = FuncSim::new(isa).with_trace();
    let dec = sim.run(asm, args.to_vec());
    let leg = sim.run_legacy(asm, args.to_vec());
    match (dec, leg) {
        (Ok((da, dt)), Ok((la, lt))) => {
            assert_eq!(da.len(), la.len(), "{name}: array count differs");
            for (i, (d, l)) in da.iter().zip(&la).enumerate() {
                let db: Vec<u64> = d.iter().map(|v| v.to_bits()).collect();
                let lb: Vec<u64> = l.iter().map(|v| v.to_bits()).collect();
                assert_eq!(db, lb, "{name}: array {i} differs");
            }
            assert_eq!(
                dt.inst_indices, lt.inst_indices,
                "{name}: instruction trace differs"
            );
            assert_eq!(dt.accesses, lt.accesses, "{name}: memory trace differs");
            dt.len() as u64
        }
        (d, l) => {
            let de = d.err();
            let le = l.err();
            assert_eq!(de, le, "{name}: error variants differ");
            assert!(de.is_some(), "{name}: one engine succeeded, one failed");
            0
        }
    }
}

/// Every gemm candidate the sweep enumerates, on both paper platforms:
/// this crosses register blockings, SIMD strategies (Vdup / Shuf /
/// Bcast lowering), and both ISAs (SSE2 vs AVX/FMA widths).
#[test]
fn all_gemm_candidates_decoded_matches_legacy() {
    for machine in &machines() {
        let mut covered = 0;
        for cfg in gemm_candidates(machine) {
            let Ok(build) = cfg.build_logged(machine) else {
                continue; // over-register shapes are pruned by the search too
            };
            let name = format!("dgemm {} on {}", cfg.tag(), machine.arch.short_name());
            let steps = assert_identical(&name, machine.isa, &build.asm, &gemm_args(&cfg));
            assert!(steps > 0, "{name}: empty trace");
            covered += 1;
        }
        assert!(covered >= 8, "too few buildable gemm candidates");
    }
}

/// Every vector candidate for all five level-1/2 kernels.
#[test]
fn all_vector_candidates_decoded_matches_legacy() {
    let kernels = [
        VectorKernel::Axpy,
        VectorKernel::Dot,
        VectorKernel::Gemv,
        VectorKernel::Ger,
        VectorKernel::Scal,
    ];
    for machine in &machines() {
        for kernel in kernels {
            let mut covered = 0;
            for cfg in vector_candidates(kernel, machine) {
                let Ok(build) = cfg.build_logged(machine) else {
                    continue;
                };
                let name = format!(
                    "{} {} on {}",
                    kernel.name(),
                    cfg.tag(),
                    machine.arch.short_name()
                );
                assert_identical(&name, machine.isa, &build.asm, &vector_args(kernel));
                covered += 1;
            }
            assert!(covered >= 1, "no buildable {} candidates", kernel.name());
        }
    }
}

/// `StepLimit` must fire on the exact same step in both engines: at a
/// limit of `steps` both succeed, at `steps - 1` both fail with
/// `StepLimit(steps - 1)`.
#[test]
fn step_limit_fires_on_identical_step() {
    for machine in &machines() {
        let cfg = GemmConfig::fig13();
        let build = cfg.build_logged(machine).expect("fig13 builds");
        let args = gemm_args(&cfg);

        let traced = assert_identical("fig13", machine.isa, &build.asm, &args);
        // Dynamic steps exceed the trace length slightly: the final
        // `Ret` consumes a step but returns before being recorded.
        // Derive the exact count from the engine itself, then demand
        // both engines flip from Err to Ok at the same limit.
        let exact = (traced..traced + 8)
            .find(|&limit| {
                FuncSim::new(machine.isa)
                    .with_step_limit(limit)
                    .run(&build.asm, args.clone())
                    .is_ok()
            })
            .expect("step count within 8 of trace length");
        for limit in [exact, exact - 1, exact / 2, 1] {
            let sim = FuncSim::new(machine.isa).with_step_limit(limit);
            let dec = sim.run(&build.asm, args.clone()).map(|_| ());
            let leg = sim.run_legacy(&build.asm, args.clone()).map(|_| ());
            assert_eq!(dec, leg, "limit {limit}");
            if limit >= exact {
                assert!(dec.is_ok(), "limit {limit} should pass ({exact} steps)");
            } else {
                assert_eq!(dec, Err(SimError::StepLimit(limit)));
            }
        }
    }
}

/// Out-of-bounds and misaligned accesses produce the same typed error.
#[test]
fn memory_faults_identical() {
    let base = GpReg::allocatable()[0];
    let oob = AsmKernel {
        name: "oob".into(),
        params: vec![("x".into(), ParamLoc::Gp(base))],
        stack_slots: 0,
        insts: vec![XInst::FLoad {
            dst: VecReg(0),
            mem: Mem::elem(base, 64),
            w: Width::V2,
        }],
    };
    let machine = MachineSpec::sandy_bridge();
    let sim = FuncSim::new(machine.isa);
    let args = vec![SimValue::Array(vec![0.0; 8])];
    let dec = sim.run(&oob, args.clone()).map(|_| ()).err();
    let leg = sim.run_legacy(&oob, args).map(|_| ()).err();
    assert_eq!(dec, leg);
    assert!(dec.is_some(), "out-of-bounds load must fail");
}

/// The pinned, intentional difference: decode rejects a jump to an
/// undefined label up front, even when the branch is dynamically dead.
/// The legacy loop only fails if the branch is taken.
#[test]
fn undefined_label_is_a_decode_time_error() {
    let base = GpReg::allocatable()[0];
    let idx = GpReg::allocatable()[1];
    let dead_branch = AsmKernel {
        name: "deadbranch".into(),
        params: vec![("x".into(), ParamLoc::Gp(base))],
        stack_slots: 0,
        insts: vec![
            XInst::IMovImm { dst: idx, imm: 0 },
            XInst::Cmp {
                a: idx,
                b: GpOrImm::Imm(1),
            },
            // Never taken: 0 < 1 is true, but Jge requires >=.
            XInst::Jge("nowhere".into()),
            XInst::Ret,
        ],
    };
    let machine = MachineSpec::sandy_bridge();
    let sim = FuncSim::new(machine.isa);
    let args = vec![SimValue::Array(vec![0.0; 8])];
    // Legacy: branch never taken, run succeeds.
    assert!(sim.run_legacy(&dead_branch, args.clone()).is_ok());
    // Decoded: the dangling target is rejected before execution.
    match sim.run(&dead_branch, args) {
        Err(SimError::UndefinedLabel(l)) => assert_eq!(l, "nowhere"),
        other => panic!("expected UndefinedLabel, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Random straight-line streams: same generator family as the scheduler
// property suite, but checking decoded-vs-legacy instead of
// scheduled-vs-unscheduled, and with both ISA settings.
// ---------------------------------------------------------------------------

const ARRAY_LEN: usize = 32;

fn inst_strategy() -> impl Strategy<Value = XInst> {
    let vreg = || (0u8..8).prop_map(VecReg);
    let lane_w = prop::sample::select(vec![Width::S, Width::V2, Width::V4]);
    let base = GpReg::allocatable()[0];
    let elem = move |w: &Width| 0i64..(ARRAY_LEN as i64 - w.lanes() as i64);

    prop_oneof![
        (vreg(), lane_w.clone()).prop_flat_map(move |(d, w)| {
            elem(&w).prop_map(move |e| XInst::FLoad {
                dst: d,
                mem: Mem::elem(base, e),
                w,
            })
        }),
        (vreg(), lane_w.clone()).prop_flat_map(move |(s, w)| {
            elem(&w).prop_map(move |e| XInst::FStore {
                src: s,
                mem: Mem::elem(base, e),
                w,
            })
        }),
        (vreg(), lane_w.clone()).prop_flat_map(move |(d, w)| {
            elem(&w).prop_map(move |e| XInst::FDup {
                dst: d,
                mem: Mem::elem(base, e),
                w,
            })
        }),
        (vreg(), vreg(), vreg(), lane_w.clone()).prop_map(|(d, a, b, w)| XInst::FMul3 {
            dst: d,
            a,
            b,
            w
        }),
        (vreg(), vreg(), vreg(), lane_w.clone()).prop_map(|(d, a, b, w)| XInst::FAdd3 {
            dst: d,
            a,
            b,
            w
        }),
        (vreg(), vreg(), vreg(), lane_w.clone()).prop_map(|(acc, a, b, w)| XInst::Fma3 {
            acc,
            a,
            b,
            w
        }),
        (vreg(), vreg(), lane_w.clone()).prop_map(|(d, s, w)| XInst::FMov { dst: d, src: s, w }),
        (vreg(), lane_w).prop_map(|(d, w)| XInst::FZero { dst: d, w }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn random_streams_decoded_matches_legacy(
        insts in prop::collection::vec(inst_strategy(), 1..48),
        avx in any::<bool>(),
    ) {
        let base = GpReg::allocatable()[0];
        let kernel = AsmKernel {
            name: "randstream".into(),
            params: vec![("x".into(), ParamLoc::Gp(base))],
            stack_slots: 0,
            insts,
        };
        // VEX vs non-VEX changes the upper-lane zeroing of every narrow
        // op — exactly the semantics the decoded arms specialize on.
        let isa = if avx {
            MachineSpec::sandy_bridge().isa
        } else {
            IsaSet::sse2_only()
        };
        let args = vec![SimValue::Array((0..ARRAY_LEN).map(|v| (v % 9) as f64 * 0.5 - 2.0).collect())];
        assert_identical("randstream", isa, &kernel, &args);
    }
}

// ---------------------------------------------------------------------------
// Parallel resilient sweep determinism.
// ---------------------------------------------------------------------------

/// One sweep with `opts` into an in-memory journal; returns the rendered
/// journal entries and the ranking.
fn journaled<C: Candidate + Copy + Send + Sync>(
    candidates: Vec<C>,
    machine: &MachineSpec,
    opts: &ResilOptions,
    injector: &Injector,
) -> (Vec<String>, Vec<(String, u64)>) {
    let mut j = Journal::in_memory();
    let r = sweep(
        candidates,
        machine,
        opts,
        Some(&mut j),
        injector,
        augem::obs::null(),
        &EvalCache::disabled(),
    )
    .expect("sweep completes");
    let entries = j.entries().iter().map(|e| e.render()).collect();
    let ranking = r
        .ranking
        .iter()
        .map(|(c, m)| (c.tag(), m.to_bits()))
        .collect();
    (entries, ranking)
}

/// The default-options serving sweep's journal bytes are pinned: for
/// dgemm and daxpy on both machines, the rendered in-memory journal must
/// hash to the recorded value. Any change to the sweep's decisions, their
/// order, the measurements or the journal encoding shows up here.
#[test]
fn default_sweep_journals_match_pinned_hashes() {
    let pinned = [
        ("dgemm", "sandybridge", 0x3b21_8f9d_87d2_ecf4u64),
        ("daxpy", "sandybridge", 0x25cc_bbdd_5c30_4198),
        ("dgemm", "piledriver", 0xd0dd_d17f_360b_4d20),
        ("daxpy", "piledriver", 0x3e9e_deb4_b9bb_d72d),
    ];
    let opts = ResilOptions::default();
    let off = Injector::disabled();
    for machine in &machines() {
        let gemm = journaled(gemm_candidates(machine), machine, &opts, &off).0;
        let axpy_cands = vector_candidates(VectorKernel::Axpy, machine);
        let axpy = journaled(axpy_cands, machine, &opts, &off).0;
        for (kernel, lines) in [("dgemm", gemm), ("daxpy", axpy)] {
            let arch = machine.arch.short_name();
            let hash = augem::obs::hash::mix_str(0, &lines.join("\n"));
            let (_, _, want) = pinned
                .iter()
                .find(|(k, m, _)| *k == kernel && *m == arch)
                .expect("a pinned hash per kernel and machine");
            assert_eq!(hash, *want, "{kernel} journal bytes changed on {arch}");
        }
    }
}

// ---------------------------------------------------------------------------
// Timing model: every candidate the tuner measures, pinned.
// ---------------------------------------------------------------------------

/// One splitmix64 round per folded word.
fn mix(h: u64, v: u64) -> u64 {
    augem::obs::hash::splitmix64(h ^ v)
}

fn mix_report(mut h: u64, r: &augem::sim::TimingReport) -> u64 {
    for v in [
        r.cycles,
        r.dyn_insts,
        r.flops,
        r.mem_accesses,
        r.l1_misses,
        r.llc_misses,
        r.port_uops.len() as u64,
    ] {
        h = mix(h, v);
    }
    r.port_uops.iter().fold(h, |h, &v| mix(h, v))
}

fn mix_arrays(h: u64, arrays: &[Vec<f64>]) -> u64 {
    arrays.iter().fold(mix(h, arrays.len() as u64), |h, a| {
        a.iter()
            .fold(mix(h, a.len() as u64), |h, v| mix(h, v.to_bits()))
    })
}

fn mix_profile(h: u64, p: &augem::sim::PcProfile) -> u64 {
    [
        &p.execs,
        &p.cycles,
        &p.stall_dep,
        &p.stall_port,
        &p.stall_front,
        &p.stall_mem,
        &p.port_uops,
        &p.l1_hits,
        &p.l1_misses,
        &p.llc_misses,
    ]
    .iter()
    .fold(mix(h, p.num_ports as u64), |h, col| {
        col.iter().fold(mix(h, col.len() as u64), |h, &v| mix(h, v))
    })
}

/// Every buildable gemm and vector candidate on both paper machines, as
/// the tuner measures it: tag, machine, kernel, arguments, and regime
/// (steady state for gemm, cold for the vector kernels).
fn measured_candidates() -> Vec<(String, MachineSpec, AsmKernel, Vec<SimValue>, bool)> {
    let mut out = Vec::new();
    for machine in machines() {
        let mut cands: Vec<(String, Box<dyn Candidate>)> = gemm_candidates(&machine)
            .into_iter()
            .map(|c| {
                (
                    format!("dgemm {}", c.tag()),
                    Box::new(c) as Box<dyn Candidate>,
                )
            })
            .collect();
        for kernel in [
            VectorKernel::Axpy,
            VectorKernel::Dot,
            VectorKernel::Gemv,
            VectorKernel::Ger,
            VectorKernel::Scal,
        ] {
            for c in vector_candidates(kernel, &machine) {
                cands.push((c.tag(), Box::new(c)));
            }
        }
        for (tag, c) in cands {
            let Ok(build) = augem::tune::build_logged(&*c, &machine) else {
                continue;
            };
            out.push((tag, machine.clone(), build.asm, c.eval_args().0, c.warm()));
        }
    }
    out
}

/// The timing model is pinned for every candidate the tuner measures
/// (192 runs: 36 gemm and 60 vector candidates per machine): one hash
/// over each run's tag, full `TimingReport` and output-array bits, and
/// one over each profiled run's `PcProfile`. Both hashes were recorded
/// on the trace-then-replay implementation the streamed scoreboard
/// replaced. Each streamed result must also equal a replay of the
/// recorded trace of the same run, report and arrays alike.
#[test]
fn every_candidate_timing_matches_pinned_hashes() {
    const PINNED_TIMING: u64 = 0x179d_4664_85c4_4dc3;
    const PINNED_PROFILES: u64 = 0x645e_b1b0_6759_9812;
    let (mut timing, mut profiles, mut runs) = (0u64, 0u64, 0usize);
    for (tag, machine, asm, args, warm) in measured_candidates() {
        let name = format!("{tag} on {}", machine.arch.short_name());
        let streamed = if warm {
            augem::sim::simulate_timing_steady(&asm, args.clone(), &machine)
        } else {
            augem::sim::simulate_timing(&asm, args.clone(), &machine)
        };
        let (report, arrays) = streamed.unwrap_or_else(|e| panic!("{name}: {e}"));
        timing = mix_arrays(
            mix_report(augem::obs::hash::mix_str(timing, &tag), &report),
            &arrays,
        );

        let (prof_report, prof, prof_arrays) =
            augem::sim::simulate_timing_profiled(&asm, args.clone(), &machine, warm, None)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(prof_report, report, "{name}: profiled report differs");
        assert_eq!(
            mix_arrays(0, &prof_arrays),
            mix_arrays(0, &arrays),
            "{name}"
        );
        profiles = mix_profile(augem::obs::hash::mix_str(profiles, &tag), &prof);

        let (rec_arrays, trace) = FuncSim::new(machine.isa)
            .with_trace()
            .run(&asm, args)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let replayed = augem::sim::replay(&asm, &trace, &machine, warm);
        assert_eq!(
            replayed, report,
            "{name}: replay of the recorded trace differs"
        );
        assert_eq!(mix_arrays(0, &rec_arrays), mix_arrays(0, &arrays), "{name}");
        let (rep_report, rep_prof) = augem::sim::replay_profiled(&asm, &trace, &machine, warm);
        assert_eq!(rep_report, report, "{name}: profiled replay report differs");
        assert_eq!(
            rep_prof, prof,
            "{name}: profiled replay attribution differs"
        );
        runs += 1;
    }
    assert_eq!(runs, 192, "candidate count changed");
    assert_eq!(
        timing, PINNED_TIMING,
        "timing reports or arrays changed: {timing:#x}"
    );
    assert_eq!(
        profiles, PINNED_PROFILES,
        "per-pc profiles changed: {profiles:#x}"
    );
}

/// Under a step budget, the timed entry points fail on exactly the step
/// the functional simulator does, in the cold and the steady regime and
/// with or without profiling: a budget of `steps` passes, `steps - 1`
/// fails with `StepLimit(steps - 1)`.
#[test]
fn timed_step_limit_fires_on_the_functional_step() {
    let all = measured_candidates();
    for arch in ["sandybridge", "piledriver"] {
        for prefix in ["dgemm 8x", "daxpy u4 "] {
            let (tag, machine, asm, args, _) = all
                .iter()
                .find(|(tag, m, ..)| m.arch.short_name() == arch && tag.starts_with(prefix))
                .expect("candidate present");
            let (_, trace) = FuncSim::new(machine.isa)
                .with_trace()
                .run(asm, args.clone())
                .expect("runs");
            // The final `Ret` takes a step but is not recorded.
            let traced = trace.len() as u64;
            let steps = (traced..traced + 8)
                .find(|&limit| {
                    FuncSim::new(machine.isa)
                        .with_step_limit(limit)
                        .run(asm, args.clone())
                        .is_ok()
                })
                .expect("step count within 8 of trace length");
            for warm in [false, true] {
                for limit in [steps, steps - 1] {
                    let plain = if warm {
                        augem::sim::simulate_timing_steady_budgeted(
                            asm,
                            args.clone(),
                            machine,
                            limit,
                        )
                    } else {
                        augem::sim::simulate_timing_budgeted(asm, args.clone(), machine, limit)
                    };
                    let profiled = augem::sim::simulate_timing_profiled(
                        asm,
                        args.clone(),
                        machine,
                        warm,
                        Some(limit),
                    );
                    let name = format!("{tag} on {arch} warm={warm} limit={limit}");
                    if limit == steps {
                        assert!(plain.is_ok(), "{name}: should pass");
                        assert!(profiled.is_ok(), "{name}: profiled should pass");
                    } else {
                        assert_eq!(plain.err(), Some(SimError::StepLimit(limit)), "{name}");
                        assert_eq!(profiled.err(), Some(SimError::StepLimit(limit)), "{name}");
                    }
                }
            }
        }
    }
}

/// The parallel sweep (disabled injector) must produce byte-identical
/// journal entries and bit-identical rankings to the sequential path,
/// which an enabled-but-never-firing injection rule forces.
#[test]
fn parallel_sweep_matches_sequential_journal_and_ranking() {
    for machine in &machines() {
        let parallel = Injector::disabled();
        assert!(!parallel.is_enabled());
        // Nth(u64::MAX) never fires but keeps the injector "enabled",
        // which pins the sweep to the strictly sequential path.
        let sequential = Injector::new(InjectionPlan::default().with(
            Site::Eval,
            Fault::Panic,
            Trigger::Nth(u64::MAX),
        ));
        assert!(sequential.is_enabled());

        let sweep = |inj| {
            journaled(
                gemm_candidates(machine),
                machine,
                &ResilOptions::fast(),
                inj,
            )
        };
        let (pj, pr) = sweep(&parallel);
        let (sj, sr) = sweep(&sequential);
        assert_eq!(
            pj,
            sj,
            "journal bytes differ on {}",
            machine.arch.short_name()
        );
        assert_eq!(pr, sr, "ranking differs on {}", machine.arch.short_name());
        assert!(!pj.is_empty(), "empty journal");
    }
}

/// Parallel sweeps are also self-deterministic: two runs, same bytes.
#[test]
fn parallel_sweep_is_reproducible() {
    let m = MachineSpec::sandy_bridge();
    let sweep = || {
        journaled(
            gemm_candidates(&m),
            &m,
            &ResilOptions::fast(),
            &Injector::disabled(),
        )
    };
    assert_eq!(sweep(), sweep());
}
