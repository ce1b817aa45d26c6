//! Illegal-transform mutation suite.
//!
//! Each case presents the checker with a transform log that is wrong in
//! exactly one way — a forged record, a tampered field of a genuine
//! record, or a genuinely illegal input pushed through the real pipeline
//! (which applies transforms without legality analysis of its own) — and
//! asserts the replay refutes it with the expected `T` rule. The suite
//! is the soundness half of the depan acceptance gate: the matrix test
//! shows zero false rejections on legal candidates, this shows 100%
//! refutation on illegal ones.

use augem_depan::{check_transforms, LinearForm, PrefixVerdict, Term};
use augem_ir::{
    add, add_assign, assign, f64c, for_, idx, int, prefetch_read, prefetch_write, store, store_add,
    var, Kernel, KernelBuilder, Stmt, Sym, Ty,
};
use augem_transforms::{
    finish_optimized, generate_optimized_logged, optimize_prefix, OptimizeConfig, PassRecord,
    PrefetchConfig, SrGroup, TransformLog, TransformStep,
};
use augem_verify::Diagnostic;
use std::sync::Arc;

fn logged(k: &Kernel, cfg: &OptimizeConfig) -> (Kernel, TransformLog) {
    generate_optimized_logged(k, cfg, augem_obs::null()).unwrap()
}

/// A log with a single fabricated step whose snapshots are both `k`, so
/// the chain (T012) stays clean and only the forged pass is on trial.
fn forged(k: &Kernel, pass: PassRecord) -> TransformLog {
    TransformLog {
        steps: vec![Arc::new(TransformStep {
            pass,
            before: Arc::new(k.clone()),
            after: Arc::new(k.clone()),
        })],
    }
}

fn tamper(log: &mut TransformLog, pass_name: &str, f: impl FnOnce(&mut PassRecord)) {
    let step = log
        .steps
        .iter_mut()
        .find(|s| s.pass.name() == pass_name)
        .unwrap_or_else(|| panic!("no `{pass_name}` step in log"));
    f(&mut Arc::make_mut(step).pass);
}

fn sr_groups(p: &mut PassRecord) -> &mut Vec<SrGroup> {
    match p {
        PassRecord::StrengthReduce { groups } => groups,
        other => panic!("expected StrengthReduce, got {}", other.name()),
    }
}

#[track_caller]
fn assert_refutes(diags: &[Diagnostic], code: &str) {
    let codes: Vec<&str> = diags.iter().map(|d| d.rule.code()).collect();
    assert!(!codes.is_empty(), "expected a {code} refutation, got none");
    assert!(codes.contains(&code), "expected {code}, got {codes:?}");
}

/// `for i {{ y = y + A[i]; B[i] = y }}` — `y` is live into the loop body.
fn local_reduction_kernel() -> (Kernel, Sym) {
    let mut kb = KernelBuilder::new("liveins");
    let n = kb.int_param("n");
    let a = kb.ptr_param("A");
    let b = kb.ptr_param("B");
    let y = kb.local("y", Ty::F64);
    let i = kb.loop_var("i");
    kb.push(for_(
        i,
        int(0),
        var(n),
        1,
        vec![add_assign(y, idx(a, var(i))), store(b, var(i), var(y))],
    ));
    (kb.finish(), y)
}

// ---------------------------------------------------------------- T001

#[test]
fn t001_jam_of_missing_loop() {
    let k = augem_kernels::gemm_simple();
    let log = forged(
        &k,
        PassRecord::UnrollJam {
            var: "zz".into(),
            factor: 2,
        },
    );
    assert_refutes(&check_transforms(&k, &log, Some(&k)), "T001");
}

#[test]
fn t001_inner_unroll_of_missing_loop() {
    let k = augem_kernels::axpy_simple();
    let log = forged(
        &k,
        PassRecord::UnrollInner {
            var: "zz".into(),
            factor: 2,
            expand: false,
            accumulators: Vec::new(),
        },
    );
    assert_refutes(&check_transforms(&k, &log, Some(&k)), "T001");
}

// ---------------------------------------------------------------- T002

#[test]
fn t002_jam_factor_tampered_to_zero() {
    let k = augem_kernels::gemm_simple();
    let (out, mut log) = logged(&k, &OptimizeConfig::gemm_2x2());
    tamper(&mut log, "unroll_jam", |p| {
        if let PassRecord::UnrollJam { factor, .. } = p {
            *factor = 0;
        }
    });
    assert_refutes(&check_transforms(&k, &log, Some(&out)), "T002");
}

#[test]
fn t002_inner_factor_tampered_to_zero() {
    let k = augem_kernels::axpy_simple();
    let (out, mut log) = logged(&k, &OptimizeConfig::vector(2, false));
    tamper(&mut log, "unroll_inner", |p| {
        if let PassRecord::UnrollInner { factor, .. } = p {
            *factor = 0;
        }
    });
    assert_refutes(&check_transforms(&k, &log, Some(&out)), "T002");
}

// ---------------------------------------------------------------- T003

#[test]
fn t003_jam_with_live_in_local() {
    // The real pass refuses this input (LiveInLocal); a forged record
    // claiming it jammed anyway must be refuted independently.
    let (k, _) = local_reduction_kernel();
    let log = forged(
        &k,
        PassRecord::UnrollJam {
            var: "i".into(),
            factor: 2,
        },
    );
    assert_refutes(&check_transforms(&k, &log, Some(&k)), "T003");
}

// ---------------------------------------------------------------- T004

#[test]
fn t004_jam_reorders_shift_recurrence() {
    // for i { tmp = A[i]; A[i+1] = tmp } — a right-shift with a carried
    // dependence of distance 1. The real pipeline happily jams it (the
    // passes do no dependence analysis); the checker must refuse.
    let mut kb = KernelBuilder::new("shiftr");
    let n = kb.int_param("n");
    let a = kb.ptr_param("A");
    let tmp = kb.local("tmp", Ty::F64);
    let i = kb.loop_var("i");
    kb.push(for_(
        i,
        int(0),
        sub_one(var(n)),
        1,
        vec![
            assign(tmp, idx(a, var(i))),
            store(a, add(var(i), int(1)), var(tmp)),
        ],
    ));
    let k = kb.finish();
    let cfg = OptimizeConfig {
        unroll_jam: vec![("i".into(), 2)],
        inner_unroll: None,
        prefetch: PrefetchConfig::disabled(),
    };
    let (out, log) = logged(&k, &cfg);
    assert_refutes(&check_transforms(&k, &log, Some(&out)), "T004");
}

fn sub_one(e: augem_ir::Expr) -> augem_ir::Expr {
    augem_ir::sub(e, int(1))
}

#[test]
fn t004_jam_with_non_affine_store() {
    // A[B_int[i]] = tmp — the store subscript is not affine, so the
    // dependence is unprovable and the jam must be rejected.
    let mut kb = KernelBuilder::new("gather");
    let n = kb.int_param("n");
    let a = kb.ptr_param("A");
    let b = kb.ptr_param("B");
    let tmp = kb.local("tmp", Ty::F64);
    let i = kb.loop_var("i");
    kb.push(for_(
        i,
        int(0),
        var(n),
        1,
        vec![
            assign(tmp, idx(a, var(i))),
            store(a, idx(b, var(i)), var(tmp)),
        ],
    ));
    let k = kb.finish();
    let log = forged(
        &k,
        PassRecord::UnrollJam {
            var: "i".into(),
            factor: 2,
        },
    );
    assert_refutes(&check_transforms(&k, &log, Some(&k)), "T004");
}

#[test]
fn t004_jam_with_unconstrained_store_distance() {
    // GEMV's Y[j] store does not mention the outer `i`, so the distance
    // in `i` is unconstrained; jamming `i` is conservatively rejected.
    let k = augem_kernels::gemv_simple();
    let log = forged(
        &k,
        PassRecord::UnrollJam {
            var: "i".into(),
            factor: 2,
        },
    );
    assert_refutes(&check_transforms(&k, &log, Some(&k)), "T004");
}

// ---------------------------------------------------------------- T005

#[test]
fn t005_accumulator_tampered_to_param() {
    let k = augem_kernels::dot_simple();
    let (out, mut log) = logged(&k, &OptimizeConfig::vector(2, true));
    let x = k.syms.lookup("X").unwrap();
    tamper(&mut log, "unroll_inner", |p| {
        if let PassRecord::UnrollInner { accumulators, .. } = p {
            accumulators.push(x);
        }
    });
    assert_refutes(&check_transforms(&k, &log, Some(&out)), "T005");
}

#[test]
fn t005_expanded_local_is_not_pure_accumulator() {
    // `y` is also stored to B[i] inside the loop: scalar expansion of
    // `y` would not be a pure reduction reassociation.
    let (k, y) = local_reduction_kernel();
    let log = forged(
        &k,
        PassRecord::UnrollInner {
            var: "i".into(),
            factor: 2,
            expand: true,
            accumulators: vec![y],
        },
    );
    assert_refutes(&check_transforms(&k, &log, Some(&k)), "T005");
}

// ---------------------------------------------------------------- T006

#[test]
fn t006_stride_tampered_to_zero() {
    let k = augem_kernels::gemm_simple();
    let (out, mut log) = logged(&k, &OptimizeConfig::gemm_2x2());
    tamper(&mut log, "strength_reduce", |p| {
        sr_groups(p)[0].coeff = LinearForm::default();
    });
    assert_refutes(&check_transforms(&k, &log, Some(&out)), "T006");
}

#[test]
fn t006_stride_mentions_induction_variable() {
    let k = augem_kernels::gemm_simple();
    let (out, mut log) = logged(&k, &OptimizeConfig::gemm_2x2());
    tamper(&mut log, "strength_reduce", |p| {
        let g = &mut sr_groups(p)[0];
        g.coeff = LinearForm {
            terms: vec![Term {
                coeff: 1,
                factors: vec![g.var],
            }],
        };
    });
    assert_refutes(&check_transforms(&k, &log, Some(&out)), "T006");
}

#[test]
fn t006_group_claims_wrong_loop() {
    let k = augem_kernels::gemm_simple();
    let (out, mut log) = logged(&k, &OptimizeConfig::gemm_2x2());
    tamper(&mut log, "strength_reduce", |p| {
        // The pointer itself is never the host loop's induction variable.
        let g = &mut sr_groups(p)[0];
        g.var = g.ptr;
    });
    assert_refutes(&check_transforms(&k, &log, Some(&out)), "T006");
}

// ---------------------------------------------------------------- T007

#[test]
fn t007_group_pointer_has_no_increment() {
    let k = augem_kernels::gemm_simple();
    let (out, mut log) = logged(&k, &OptimizeConfig::gemm_2x2());
    let a = k.syms.lookup("A").unwrap();
    tamper(&mut log, "strength_reduce", |p| {
        sr_groups(p)[0].ptr = a;
    });
    assert_refutes(&check_transforms(&k, &log, Some(&out)), "T007");
}

#[test]
fn t007_recorded_step_mismatches_increment() {
    let k = augem_kernels::gemm_simple();
    let (out, mut log) = logged(&k, &OptimizeConfig::gemm_2x2());
    tamper(&mut log, "strength_reduce", |p| {
        sr_groups(p)[0].step += 1;
    });
    assert_refutes(&check_transforms(&k, &log, Some(&out)), "T007");
}

// ---------------------------------------------------------------- T008

#[test]
fn t008_intervening_store_may_alias() {
    // tmp = C[i]; C[n] = 0.0; C[i] = tmp + 1.0 — the middle store's
    // distance to C[i] is symbolic (i - n), so the cached load is unsafe.
    let mut kb = KernelBuilder::new("alias");
    let n = kb.int_param("n");
    let c = kb.ptr_param("C");
    let tmp = kb.local("tmp", Ty::F64);
    let i = kb.loop_var("i");
    kb.push(for_(
        i,
        int(0),
        var(n),
        1,
        vec![
            assign(tmp, idx(c, var(i))),
            store(c, var(n), f64c(0.0)),
            store(c, var(i), add(var(tmp), f64c(1.0))),
        ],
    ));
    let k = kb.finish();
    let log = forged(&k, PassRecord::ScalarReplace);
    assert_refutes(&check_transforms(&k, &log, Some(&k)), "T008");
}

#[test]
fn t008_pointer_redefined_between_load_and_store() {
    // tmp = p[i]; p = p + 1; p[i] = tmp — the store goes through a
    // different address than the load, so forwarding tmp is unsound.
    let mut kb = KernelBuilder::new("ptrmove");
    let n = kb.int_param("n");
    let c = kb.ptr_param("C");
    let p = kb.local("p", Ty::PtrF64);
    let tmp = kb.local("tmp", Ty::F64);
    let i = kb.loop_var("i");
    kb.push(assign(p, var(c)));
    kb.push(for_(
        i,
        int(0),
        var(n),
        1,
        vec![
            assign(tmp, idx(p, var(i))),
            assign(p, add(var(p), int(1))),
            store(p, var(i), var(tmp)),
        ],
    ));
    let mut k = kb.finish();
    k.ptr_origin.insert(p, c);
    let log = forged(&k, PassRecord::ScalarReplace);
    assert_refutes(&check_transforms(&k, &log, Some(&k)), "T008");
}

// ---------------------------------------------------------------- T009

#[test]
fn t009_live_local_clobbered_by_store_lowering() {
    // res = 1.5; for i { C[i] = C[i] + res } — scalar replacement's
    // clobber lowering rewrites the store to `res = res + tmp0; C[i] =
    // res`, turning the loop-invariant addend into an accumulator. This
    // is a genuine latent bug in the pass (its use scan is per-block and
    // misses the next-iteration use); the checker's liveness analysis
    // catches it.
    let mut kb = KernelBuilder::new("clobber");
    let n = kb.int_param("n");
    let c = kb.ptr_param("C");
    let res = kb.local("res", Ty::F64);
    let i = kb.loop_var("i");
    kb.push(assign(res, f64c(1.5)));
    kb.push(for_(
        i,
        int(0),
        var(n),
        1,
        vec![store_add(c, var(i), var(res))],
    ));
    let k = kb.finish();
    let cfg = OptimizeConfig {
        unroll_jam: Vec::new(),
        inner_unroll: None,
        prefetch: PrefetchConfig::disabled(),
    };
    let (out, log) = logged(&k, &cfg);
    assert_refutes(&check_transforms(&k, &log, Some(&out)), "T009");
}

// ---------------------------------------------------------------- T010

#[test]
fn t010_read_prefetch_outside_tampered_window() {
    let k = augem_kernels::axpy_simple();
    let (out, mut log) = logged(&k, &OptimizeConfig::vector(2, false));
    tamper(&mut log, "prefetch", |p| {
        if let PassRecord::Prefetch { config } = p {
            config.read_dist = Some(32); // actual prefetches sit at 64
        }
    });
    assert_refutes(&check_transforms(&k, &log, Some(&out)), "T010");
}

#[test]
fn t010_read_prefetch_with_reads_disabled() {
    let k = augem_kernels::axpy_simple();
    let (out, mut log) = logged(&k, &OptimizeConfig::vector(2, false));
    tamper(&mut log, "prefetch", |p| {
        if let PassRecord::Prefetch { config } = p {
            config.read_dist = None;
        }
    });
    assert_refutes(&check_transforms(&k, &log, Some(&out)), "T010");
}

#[test]
fn t010_write_prefetch_with_writes_disabled() {
    let k = augem_kernels::gemm_simple();
    let (out, mut log) = logged(&k, &OptimizeConfig::gemm_2x2());
    tamper(&mut log, "prefetch", |p| {
        if let PassRecord::Prefetch { config } = p {
            config.write_prefetch = false;
        }
    });
    assert_refutes(&check_transforms(&k, &log, Some(&out)), "T010");
}

#[test]
fn t010_write_prefetch_at_nonzero_distance() {
    let mut kb = KernelBuilder::new("wdist");
    let n = kb.int_param("n");
    let c = kb.ptr_param("C");
    let i = kb.loop_var("i");
    kb.push(for_(
        i,
        int(0),
        var(n),
        1,
        vec![store(c, var(i), f64c(0.0))],
    ));
    let k0 = kb.finish();
    let mut k1 = k0.clone();
    k1.body.insert(0, prefetch_write(c, int(8), 3));
    let log = TransformLog {
        steps: vec![Arc::new(TransformStep {
            pass: PassRecord::Prefetch {
                config: PrefetchConfig::default(),
            },
            before: Arc::new(k0.clone()),
            after: Arc::new(k1.clone()),
        })],
    };
    assert_refutes(&check_transforms(&k0, &log, Some(&k1)), "T010");
}

// ---------------------------------------------------------------- T011

#[test]
fn t011_read_prefetch_of_unrelated_base() {
    let mut kb = KernelBuilder::new("rpfbase");
    let n = kb.int_param("n");
    let a = kb.ptr_param("A");
    let b = kb.ptr_param("B");
    let tmp = kb.local("tmp", Ty::F64);
    let i = kb.loop_var("i");
    kb.push(for_(
        i,
        int(0),
        var(n),
        1,
        vec![assign(tmp, idx(a, var(i))), store(a, var(i), var(tmp))],
    ));
    let k0 = kb.finish();
    let mut k1 = k0.clone();
    if let Stmt::For { body, .. } = &mut k1.body[0] {
        body.insert(0, prefetch_read(b, int(16), 3));
    }
    let log = TransformLog {
        steps: vec![Arc::new(TransformStep {
            pass: PassRecord::Prefetch {
                config: PrefetchConfig::default(),
            },
            before: Arc::new(k0.clone()),
            after: Arc::new(k1.clone()),
        })],
    };
    assert_refutes(&check_transforms(&k0, &log, Some(&k1)), "T011");
}

#[test]
fn t011_write_prefetch_of_base_never_stored() {
    let mut kb = KernelBuilder::new("wpfbase");
    let n = kb.int_param("n");
    let a = kb.ptr_param("A");
    let b = kb.ptr_param("B");
    let i = kb.loop_var("i");
    kb.push(for_(
        i,
        int(0),
        var(n),
        1,
        vec![store(a, var(i), f64c(0.0))],
    ));
    let k0 = kb.finish();
    let mut k1 = k0.clone();
    k1.body.insert(0, prefetch_write(b, int(0), 3));
    let log = TransformLog {
        steps: vec![Arc::new(TransformStep {
            pass: PassRecord::Prefetch {
                config: PrefetchConfig::default(),
            },
            before: Arc::new(k0.clone()),
            after: Arc::new(k1.clone()),
        })],
    };
    assert_refutes(&check_transforms(&k0, &log, Some(&k1)), "T011");
}

// ---------------------------------------------------------------- T012

#[test]
fn t012_final_kernel_tampered() {
    let k = augem_kernels::gemm_simple();
    let (_, log) = logged(&k, &OptimizeConfig::gemm_2x2());
    // Claim the final kernel is the untransformed source.
    assert_refutes(&check_transforms(&k, &log, Some(&k)), "T012");
}

#[test]
fn t012_empty_log_with_transformed_final() {
    let k = augem_kernels::gemm_simple();
    let (out, _) = logged(&k, &OptimizeConfig::gemm_2x2());
    let log = TransformLog::default();
    assert_refutes(&check_transforms(&k, &log, Some(&out)), "T012");
}

#[test]
fn t012_snapshot_chain_broken() {
    let k = augem_kernels::gemm_simple();
    let (out, mut log) = logged(&k, &OptimizeConfig::gemm_2x2());
    Arc::make_mut(&mut log.steps[2]).before = Arc::new(k.clone());
    assert_refutes(&check_transforms(&k, &log, Some(&out)), "T012");
}

// ------------------------------------------------ memoized prefix replay

/// The prefix of `cfg` on `k`, its memoized verdict, and the full log
/// built on that prefix (sharing its steps).
fn memoized(k: &Kernel, cfg: &OptimizeConfig) -> (Arc<Kernel>, PrefixVerdict, TransformLog) {
    let null = augem_obs::null();
    let prefix = optimize_prefix(Arc::new(k.clone()), cfg, null).unwrap();
    let verdict = PrefixVerdict::new(prefix.source.clone(), prefix.steps.clone());
    let (_, log) = finish_optimized(&prefix, &cfg.prefetch, null);
    (prefix.source, verdict, log)
}

#[test]
fn memoized_verdict_refutes_a_tampered_prefetch_step_like_the_full_replay() {
    let (source, verdict, mut log) =
        memoized(&augem_kernels::gemm_simple(), &OptimizeConfig::gemm_2x2());
    assert!(verdict.check(&source, &log, None).is_empty());
    tamper(&mut log, "prefetch", |p| {
        *p = PassRecord::Prefetch {
            config: PrefetchConfig::disabled(),
        }
    });
    let memo = verdict.check(&source, &log, None);
    assert_refutes(&memo, "T010");
    assert_eq!(memo, check_transforms(&source, &log, None));
}

#[test]
fn memoized_verdict_never_covers_a_forged_prefix_step() {
    // Tampering a prefix step copies it out of the shared allocation, so
    // the verdict must replay the whole log instead of trusting its memo.
    let (source, verdict, mut log) =
        memoized(&augem_kernels::gemm_simple(), &OptimizeConfig::gemm_2x2());
    tamper(&mut log, "unroll_jam", |p| {
        if let PassRecord::UnrollJam { factor, .. } = p {
            *factor = 0;
        }
    });
    let memo = verdict.check(&source, &log, None);
    assert_refutes(&memo, "T002");
    assert_eq!(memo, check_transforms(&source, &log, None));
}

#[test]
fn memoized_verdict_checks_the_link_into_the_remaining_steps() {
    let (source, verdict, mut log) =
        memoized(&augem_kernels::gemm_simple(), &OptimizeConfig::gemm_2x2());
    let last = log.steps.len() - 1;
    // An equal copy of the prefix's result is a clean link: the check
    // falls back from pointers to structure.
    let copy = Arc::new((*log.steps[last].before).clone());
    Arc::make_mut(&mut log.steps[last]).before = copy;
    assert!(verdict.check(&source, &log, None).is_empty());
    Arc::make_mut(&mut log.steps[last]).before = source.clone();
    let memo = verdict.check(&source, &log, None);
    assert_refutes(&memo, "T012");
    assert_eq!(memo, check_transforms(&source, &log, None));
}
