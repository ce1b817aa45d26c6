//! The full kernel × machine profile matrix: every DLA kernel profiled
//! on both paper platforms through the one-call entry point, every
//! rendered `augem.profile/v1` artifact parsing back with each field's
//! exact value, with finite region percentages tiling to ~100%.

use augem_machine::MachineSpec;
use augem_obs::Json;
use augem_prof::{profile_kernel, Profile, SCHEMA};
use augem_tune::{gemm_eval_args, vector_candidates, GemmConfig, VectorKernel};

fn check_artifact(profile: &Profile, cycles: u64, tag: &str) {
    let doc = profile.to_json();
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some(SCHEMA),
        "{tag}: schema field"
    );
    let text = doc.render_pretty();
    let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("{tag}: reparse failed: {e}"));
    check_fields(&parsed, profile, tag);
    assert_eq!(profile.total_cycles, cycles, "{tag}: total cycles");
    assert!(
        profile.regions.iter().all(|r| r.pct.is_finite()),
        "{tag}: non-finite region pct"
    );
    assert!(!profile.regions.is_empty(), "{tag}: no regions");
    if cycles > 0 {
        let pct: f64 = profile.regions.iter().map(|r| r.pct).sum();
        assert!((pct - 100.0).abs() < 1e-6, "{tag}: region pct sum {pct}");
    }
    assert!(
        profile.annotated_listing().contains(&profile.kernel),
        "{tag}: listing header"
    );
}

/// The parsed artifact carries every field of `profile`, exactly.
fn check_fields(doc: &Json, profile: &Profile, tag: &str) {
    let str_at = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
    let u64_at = |v: &Json, key: &str| v.get(key).and_then(Json::as_u64);
    let arr_at = |v: &Json, key: &str| v.get(key).and_then(Json::as_arr).unwrap().to_vec();
    assert_eq!(str_at(doc, "kernel"), Some(profile.kernel.clone()), "{tag}");
    assert_eq!(
        str_at(doc, "machine"),
        Some(profile.machine.clone()),
        "{tag}"
    );
    assert_eq!(u64_at(doc, "total_cycles"), Some(profile.total_cycles));
    assert_eq!(u64_at(doc, "dyn_insts"), Some(profile.dyn_insts), "{tag}");
    assert_eq!(u64_at(doc, "num_ports"), Some(profile.num_ports as u64));
    let regions = arr_at(doc, "regions");
    assert_eq!(regions.len(), profile.regions.len(), "{tag}: regions");
    for (j, r) in regions.iter().zip(&profile.regions) {
        assert_eq!(str_at(j, "name"), Some(r.name.clone()), "{tag}");
        let spans = [u64_at(j, "start"), u64_at(j, "end")];
        assert_eq!(spans, [Some(r.start as u64), Some(r.end as u64)]);
        assert_eq!(u64_at(j, "cycles"), Some(r.cycles), "{tag}: {}", r.name);
        assert_eq!(j.get("pct").and_then(Json::as_f64), Some(r.pct));
        assert_eq!(u64_at(j, "execs"), Some(r.execs), "{tag}: {}", r.name);
        assert_eq!(u64_at(j, "ir_pos"), r.ir_pos, "{tag}: {}", r.name);
    }
    let lines = arr_at(doc, "lines");
    assert_eq!(lines.len(), profile.lines.len(), "{tag}: lines");
    for (j, l) in lines.iter().zip(&profile.lines) {
        assert_eq!(str_at(j, "text"), Some(l.text.clone()), "{tag}");
        for (key, want) in [
            ("pc", l.pc as u64),
            ("execs", l.execs),
            ("cycles", l.cycles),
            ("stall_dep", l.stall_dep),
            ("stall_port", l.stall_port),
            ("stall_front", l.stall_front),
            ("stall_mem", l.stall_mem),
            ("l1_hits", l.l1_hits),
            ("l1_misses", l.l1_misses),
            ("llc_misses", l.llc_misses),
        ] {
            assert_eq!(u64_at(j, key), Some(want), "{tag}: pc {} {key}", l.pc);
        }
        let ports: Vec<u64> = arr_at(j, "port_uops")
            .iter()
            .map(|u| u.as_u64().unwrap())
            .collect();
        assert_eq!(ports, l.port_uops, "{tag}: pc {}", l.pc);
    }
}

#[test]
fn every_kernel_machine_pair_profiles_and_renders() {
    for machine in MachineSpec::paper_platforms() {
        let cfg = GemmConfig::fig13();
        let build = cfg.build_logged(&machine).expect("fig13 gemm build");
        let (args, _) = gemm_eval_args(&cfg);
        let tag = format!("dgemm on {}", machine.arch.short_name());
        let (report, profile) =
            profile_kernel(&build.asm, args, &machine, true, None, Some(&build.log))
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
        check_artifact(&profile, report.cycles, &tag);

        for vk in [
            VectorKernel::Gemv,
            VectorKernel::Ger,
            VectorKernel::Axpy,
            VectorKernel::Dot,
            VectorKernel::Scal,
        ] {
            // Candidate 5 = mid unroll with a 32-byte read prefetch —
            // a representative tuned shape, not a degenerate one.
            let cfg = vector_candidates(vk, &machine).swap_remove(5);
            let build = cfg.build_logged(&machine).expect("vector build");
            let (args, _) = augem_tune::vector_eval_args(&cfg);
            let tag = format!("{} on {}", cfg.tag(), machine.arch.short_name());
            let (report, profile) =
                profile_kernel(&build.asm, args, &machine, false, None, Some(&build.log))
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
            check_artifact(&profile, report.cycles, &tag);
        }
    }
}
