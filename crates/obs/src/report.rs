//! The machine-readable run report: what one traced pipeline run looked
//! like, stage by stage — the artifact behind `augem-gen --report` and the
//! repo's `BENCH_*.json` perf trajectory.
//!
//! [`RunReport::to_json`] renders the stable `augem.run-report/v1`
//! schema; readers take fields from the raw [`Json`]:
//!
//! ```json
//! {
//!   "schema": "augem.run-report/v1",
//!   "kernel": "dgemm", "machine": "SNB", "config": "8x4x1 ...",
//!   "simd_strategy": "Vdup", "mflops": 12345.6,
//!   "stages": [{"name": "cgen", "calls": 64, "wall_ns": 123456}, ...],
//!   "counters": {"ir.stmts.before": 9, ...},
//!   "highwater": {"regs.vec": 14, ...},
//!   "labels": {"opt.simd_strategy": "Vdup", ...},
//!   "tuner": {"generated": 64, "built": 60, "pruned": 4,
//!             "best_mflops": ..., "median_mflops": ..., "best_vs_median": ...,
//!             "ranking": [{"tag": "...", "mflops": ...}, ...],
//!             "failures": [{"tag": "...", "reason": "..."}]},
//!   "sim": {"cycles": ..., "dyn_insts": ..., "flops": ...,
//!           "mem_accesses": ..., "l1_hits": ..., "l1_misses": ...,
//!           "llc_misses": ..., "port_uops": [...]},
//!   "profile": {"total_cycles": ..., "stall_dep": ..., "stall_port": ...,
//!               "stall_front": ..., "stall_mem": ...,
//!               "regions": [{"name": "...", "cycles": ..., "pct": ...}]}
//! }
//! ```

use crate::collect::{Snapshot, StageAgg};
use crate::histogram::Histogram;
use crate::json::Json;
use std::collections::BTreeMap;

/// Schema identifier embedded in every report.
pub const SCHEMA: &str = "augem.run-report/v1";

/// One candidate in the tuner's final ranking (best first).
#[derive(Debug, Clone, PartialEq)]
pub struct RankedCandidate {
    pub tag: String,
    pub mflops: f64,
}

/// One candidate the tuner could not evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateFailure {
    pub tag: String,
    pub reason: String,
}

/// Search telemetry from one tuner invocation. A sweep that prunes by
/// bound (the serving default) measures only the candidates the bound
/// cannot rule out, so the ranking, and every statistic drawn from it,
/// covers the evaluated candidates only.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TunerTelemetry {
    /// Candidates the generator enumerated.
    pub generated: u64,
    /// Candidates that built and simulated successfully.
    pub built: u64,
    /// Candidates dropped: failed builds or simulations, breaker skips,
    /// and candidates pruned by their static bound.
    pub pruned: u64,
    pub best_mflops: f64,
    /// The median of the evaluated candidates (pruned ones have no
    /// measurement).
    pub median_mflops: f64,
    /// `best_mflops / median_mflops` — how much the search won over a
    /// blind median pick (1.0 = tuning did not matter).
    pub best_vs_median: f64,
    /// Every evaluated candidate, best first. The facade's degradation
    /// ladder takes its next-ranked rungs from here.
    pub ranking: Vec<RankedCandidate>,
    /// Why each pruned candidate was dropped, bound prunes included.
    pub failures: Vec<CandidateFailure>,
    /// Wall-clock latency of each candidate evaluation, in nanoseconds:
    /// one sample per evaluated candidate, none for a bound prune.
    pub eval_latency_ns: Histogram,
}

impl TunerTelemetry {
    /// Builds the summary stats from a ranking + failure list.
    pub fn from_ranking(
        ranking: Vec<RankedCandidate>,
        failures: Vec<CandidateFailure>,
        generated: u64,
    ) -> Self {
        let built = ranking.len() as u64;
        let best = ranking.first().map(|r| r.mflops).unwrap_or(0.0);
        let median = if ranking.is_empty() {
            0.0
        } else {
            ranking[ranking.len() / 2].mflops
        };
        TunerTelemetry {
            generated,
            built,
            pruned: generated.saturating_sub(built),
            best_mflops: best,
            median_mflops: median,
            best_vs_median: if median > 0.0 { best / median } else { 0.0 },
            ranking,
            failures,
            eval_latency_ns: Histogram::new(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("generated", Json::uint(self.generated)),
            ("built", Json::uint(self.built)),
            ("pruned", Json::uint(self.pruned)),
            ("best_mflops", Json::Num(self.best_mflops)),
            ("median_mflops", Json::Num(self.median_mflops)),
            ("best_vs_median", Json::Num(self.best_vs_median)),
            (
                "ranking",
                Json::Arr(
                    self.ranking
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("tag", Json::str(r.tag.clone())),
                                ("mflops", Json::Num(r.mflops)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| {
                            Json::obj(vec![
                                ("tag", Json::str(f.tag.clone())),
                                ("reason", Json::str(f.reason.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("eval_latency_ns", self.eval_latency_ns.to_json()),
        ])
    }
}

/// One source-level region of a profiled kernel (prologue, unrolled
/// body, remainder loop, ...), with its share of attributed cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRegion {
    pub name: String,
    pub cycles: u64,
    /// `cycles` as a percentage of the profile total.
    pub pct: f64,
}

/// Rolled-up view of a kernel profile, small enough to embed in the run
/// report. The full per-pc attribution lives in the `augem.profile/v1`
/// artifact; this is the headline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileSummary {
    /// Total attributed cycles (equals the timing report's cycle count).
    pub total_cycles: u64,
    pub dyn_insts: u64,
    /// Cycle-weighted stall totals by cause, across all pcs.
    pub stall_dep: u64,
    pub stall_port: u64,
    pub stall_front: u64,
    pub stall_mem: u64,
    /// Regions in program order.
    pub regions: Vec<ProfileRegion>,
}

impl ProfileSummary {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("total_cycles", Json::uint(self.total_cycles)),
            ("dyn_insts", Json::uint(self.dyn_insts)),
            ("stall_dep", Json::uint(self.stall_dep)),
            ("stall_port", Json::uint(self.stall_port)),
            ("stall_front", Json::uint(self.stall_front)),
            ("stall_mem", Json::uint(self.stall_mem)),
            (
                "regions",
                Json::Arr(
                    self.regions
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("name", Json::str(r.name.clone())),
                                ("cycles", Json::uint(r.cycles)),
                                ("pct", Json::Num(r.pct)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Cycle and cache counters from the timing simulator (the winning
/// candidate's steady-state measurement).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimCounters {
    pub cycles: u64,
    pub dyn_insts: u64,
    pub flops: u64,
    pub mem_accesses: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub llc_misses: u64,
    /// µops retired per execution port.
    pub port_uops: Vec<u64>,
}

impl SimCounters {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cycles", Json::uint(self.cycles)),
            ("dyn_insts", Json::uint(self.dyn_insts)),
            ("flops", Json::uint(self.flops)),
            ("mem_accesses", Json::uint(self.mem_accesses)),
            ("l1_hits", Json::uint(self.l1_hits)),
            ("l1_misses", Json::uint(self.l1_misses)),
            ("llc_misses", Json::uint(self.llc_misses)),
            (
                "port_uops",
                Json::Arr(self.port_uops.iter().map(|&u| Json::uint(u)).collect()),
            ),
        ])
    }
}

/// The complete machine-readable record of one traced pipeline run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    pub kernel: String,
    pub machine: String,
    /// Winning configuration tag.
    pub config: String,
    /// SIMD vectorization strategy the optimizer chose (Vdup / Shuf /
    /// Scalar) for the winning configuration.
    pub simd_strategy: String,
    /// Steady-state useful Mflops of the winning configuration.
    pub mflops: f64,
    /// Aggregated wall time per pipeline stage (span name), first-seen
    /// order.
    pub stages: Vec<StageAgg>,
    pub counters: BTreeMap<String, u64>,
    pub highwater: BTreeMap<String, u64>,
    pub labels: BTreeMap<String, String>,
    pub tuner: Option<TunerTelemetry>,
    pub sim: Option<SimCounters>,
    /// Region-level profile of the winning kernel, when profiling ran.
    pub profile: Option<ProfileSummary>,
    /// Rendered performance-lint diagnostics (P-rules) for the shipped
    /// kernel, when linting ran. Empty means either "clean" or "not
    /// linted" — the `lint.warnings` counter disambiguates.
    pub lints: Vec<String>,
    /// Rendered transform-legality diagnostics (T-rules) for the
    /// shipped kernel, when `--check-transforms` ran. Empty means
    /// either "proved legal" or "not checked" — the `depan.errors`
    /// counter disambiguates. Rendered through the same section path
    /// as `lints` so all diagnostic families look alike.
    pub tchecks: Vec<String>,
}

impl RunReport {
    /// Seeds a report from everything a [`crate::Collector`] gathered.
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        RunReport {
            stages: snap.stages(),
            counters: snap.counters.clone(),
            highwater: snap.hwm.clone(),
            labels: snap.labels.clone(),
            ..Default::default()
        }
    }

    /// Wall time of a named stage, if it ran.
    pub fn stage_wall_ns(&self, name: &str) -> Option<u64> {
        self.stages
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.wall_ns)
    }

    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema", Json::str(SCHEMA)),
            ("kernel", Json::str(self.kernel.clone())),
            ("machine", Json::str(self.machine.clone())),
            ("config", Json::str(self.config.clone())),
            ("simd_strategy", Json::str(self.simd_strategy.clone())),
            ("mflops", Json::Num(self.mflops)),
            (
                "stages",
                Json::Arr(
                    self.stages
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("name", Json::str(s.name.clone())),
                                ("calls", Json::uint(s.calls)),
                                ("wall_ns", Json::uint(s.wall_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("counters", Json::from_map(&self.counters)),
            ("highwater", Json::from_map(&self.highwater)),
            (
                "labels",
                Json::Obj(
                    self.labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                        .collect(),
                ),
            ),
        ];
        if let Some(t) = &self.tuner {
            pairs.push(("tuner", t.to_json()));
        }
        if let Some(s) = &self.sim {
            pairs.push(("sim", s.to_json()));
        }
        if let Some(p) = &self.profile {
            pairs.push(("profile", p.to_json()));
        }
        for (key, diags) in [("lints", &self.lints), ("tchecks", &self.tchecks)] {
            if !diags.is_empty() {
                pairs.push((
                    key,
                    Json::Arr(diags.iter().map(|l| Json::str(l.clone())).collect()),
                ));
            }
        }
        Json::obj(pairs)
    }

    /// Human-readable rendering (the `--trace` sink).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run report: {} on {} — {:.0} Mflops",
            self.kernel, self.machine, self.mflops
        );
        let _ = writeln!(out, "  winning config: {}", self.config);
        let _ = writeln!(out, "  simd strategy:  {}", self.simd_strategy);
        if !self.stages.is_empty() {
            let _ = writeln!(out, "  stages (aggregated wall time):");
            for s in &self.stages {
                let _ = writeln!(
                    out,
                    "    {:<24} {:>6} call{} {:>12}",
                    s.name,
                    s.calls,
                    if s.calls == 1 { " " } else { "s" },
                    format_ns(s.wall_ns),
                );
            }
        }
        if let Some(t) = &self.tuner {
            let _ = writeln!(
                out,
                "  tuner: {} generated, {} built, {} pruned; best {:.0} / median {:.0} Mflops ({:.2}x)",
                t.generated, t.built, t.pruned, t.best_mflops, t.median_mflops, t.best_vs_median
            );
            for (i, r) in t.ranking.iter().take(5).enumerate() {
                let _ = writeln!(
                    out,
                    "    #{:<2} {:>10.0} Mflops  {}",
                    i + 1,
                    r.mflops,
                    r.tag
                );
            }
            if t.ranking.len() > 5 {
                let _ = writeln!(out, "    ... {} more", t.ranking.len() - 5);
            }
            for f in t.failures.iter().take(3) {
                let _ = writeln!(out, "    pruned: {} ({})", f.tag, f.reason);
            }
            if !t.eval_latency_ns.is_empty() {
                let h = &t.eval_latency_ns;
                let _ = writeln!(
                    out,
                    "    eval latency: p50 {} / p90 {} / p99 {} (n={})",
                    format_ns(h.p50()),
                    format_ns(h.p90()),
                    format_ns(h.p99()),
                    h.count(),
                );
            }
        }
        if let Some(s) = &self.sim {
            let _ =
                writeln!(
                out,
                "  sim: {} cycles, {} insts, {} flops; mem {} (L1 {} hit / {} miss, LLC {} miss)",
                s.cycles, s.dyn_insts, s.flops, s.mem_accesses, s.l1_hits, s.l1_misses, s.llc_misses
            );
        }
        if let Some(p) = &self.profile {
            let _ = writeln!(
                out,
                "  profile: {} cycles over {} insts; stalls dep {} / port {} / front {} / mem {}",
                p.total_cycles, p.dyn_insts, p.stall_dep, p.stall_port, p.stall_front, p.stall_mem
            );
            for r in &p.regions {
                let _ = writeln!(
                    out,
                    "    {:<32} {:>10} cyc  {:>5.1}%",
                    r.name, r.cycles, r.pct
                );
            }
        }
        render_diag_section(&mut out, "performance lints", &self.lints);
        render_diag_section(&mut out, "transform legality", &self.tchecks);
        if !self.counters.is_empty() {
            let _ = writeln!(out, "  counters:");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "    {k:<40} {v:>12}");
            }
        }
        if !self.highwater.is_empty() {
            let _ = writeln!(out, "  high-water marks:");
            for (k, v) in &self.highwater {
                let _ = writeln!(out, "    {k:<40} {v:>12}");
            }
        }
        out
    }
}

/// The one rendering path every rendered-diagnostic family (P-rule
/// lints, T-rule legality findings, ...) goes through in the text
/// report: a titled section, one indented line per finding, nothing
/// when the list is empty.
fn render_diag_section(out: &mut String, title: &str, diags: &[String]) {
    use std::fmt::Write as _;
    if diags.is_empty() {
        return;
    }
    let _ = writeln!(out, "  {title}:");
    for d in diags {
        let _ = writeln!(out, "    {d}");
    }
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            kernel: "dgemm".into(),
            machine: "SNB".into(),
            config: "8x4x1 Vdup Auto pf=64 sched=true".into(),
            simd_strategy: "Vdup".into(),
            mflops: 12345.5,
            stages: vec![
                StageAgg {
                    name: "cgen".into(),
                    calls: 64,
                    wall_ns: 1_234_567,
                },
                StageAgg {
                    name: "identify".into(),
                    calls: 64,
                    wall_ns: 234_567,
                },
            ],
            counters: [("ir.stmts.before".to_string(), 9u64)]
                .into_iter()
                .collect(),
            highwater: [("regs.vec".to_string(), 14u64)].into_iter().collect(),
            labels: [("opt.simd_strategy".to_string(), "Vdup".to_string())]
                .into_iter()
                .collect(),
            tuner: Some({
                let mut t = TunerTelemetry::from_ranking(
                    vec![
                        RankedCandidate {
                            tag: "8x4".into(),
                            mflops: 12345.5,
                        },
                        RankedCandidate {
                            tag: "4x4".into(),
                            mflops: 8000.0,
                        },
                    ],
                    vec![CandidateFailure {
                        tag: "12x2".into(),
                        reason: "register allocation failed".into(),
                    }],
                    3,
                );
                t.eval_latency_ns.record(120_000);
                t.eval_latency_ns.record(95_000);
                t.eval_latency_ns.record(300_000);
                t
            }),
            sim: Some(SimCounters {
                cycles: 5000,
                dyn_insts: 4000,
                flops: 65536,
                mem_accesses: 1000,
                l1_hits: 990,
                l1_misses: 10,
                llc_misses: 2,
                port_uops: vec![100, 200, 300],
            }),
            profile: Some(ProfileSummary {
                total_cycles: 5000,
                dyn_insts: 4000,
                stall_dep: 800,
                stall_port: 120,
                stall_front: 40,
                stall_mem: 600,
                regions: vec![
                    ProfileRegion {
                        name: "prologue".into(),
                        cycles: 150,
                        pct: 3.0,
                    },
                    ProfileRegion {
                        name: "mmUnrolledCOMP body".into(),
                        cycles: 3900,
                        pct: 78.0,
                    },
                    ProfileRegion {
                        name: "remainder loop".into(),
                        cycles: 950,
                        pct: 19.0,
                    },
                ],
            }),
            lints: vec![
                "P004[NarrowSimd] at kernel: widest FP arithmetic uses 1 lane(s) \
                 but the machine supports 4; vectorize for the full SIMD width"
                    .into(),
            ],
            tchecks: vec![
                "error: T004[JamCarriedDependence] at kernel: jamming loop `j` \
                 may reorder a carried dependence on array `A`"
                    .into(),
            ],
        }
    }

    #[test]
    fn json_rendering_carries_every_field() {
        let r = sample_report();
        let doc = Json::parse(&r.to_json().render_pretty()).unwrap();
        let str_at = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
        let u64_at = |v: &Json, key: &str| v.get(key).and_then(Json::as_u64);
        let f64_at = |v: &Json, key: &str| v.get(key).and_then(Json::as_f64);
        let arr_at = |v: &Json, key: &str| v.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let strs = |v: &[Json]| -> Vec<String> {
            v.iter().map(|s| s.as_str().unwrap().to_string()).collect()
        };

        assert_eq!(str_at(&doc, "schema").as_deref(), Some(SCHEMA));
        for (key, want) in [
            ("kernel", &r.kernel),
            ("machine", &r.machine),
            ("config", &r.config),
            ("simd_strategy", &r.simd_strategy),
        ] {
            assert_eq!(str_at(&doc, key).as_ref(), Some(want), "{key}");
        }
        assert_eq!(f64_at(&doc, "mflops"), Some(r.mflops));
        let stages = arr_at(&doc, "stages");
        assert_eq!(stages.len(), r.stages.len());
        for (s, want) in stages.iter().zip(&r.stages) {
            assert_eq!(str_at(s, "name").as_ref(), Some(&want.name));
            assert_eq!(u64_at(s, "calls"), Some(want.calls));
            assert_eq!(u64_at(s, "wall_ns"), Some(want.wall_ns));
        }
        for (key, map) in [("counters", &r.counters), ("highwater", &r.highwater)] {
            let obj = doc.get(key).unwrap();
            for (k, &v) in map {
                assert_eq!(u64_at(obj, k), Some(v), "{key}.{k}");
            }
        }
        for (k, v) in &r.labels {
            assert_eq!(str_at(doc.get("labels").unwrap(), k).as_ref(), Some(v));
        }

        let (tuner, t) = (r.tuner.as_ref().unwrap(), doc.get("tuner").unwrap());
        assert_eq!(u64_at(t, "generated"), Some(tuner.generated));
        assert_eq!(u64_at(t, "built"), Some(tuner.built));
        assert_eq!(u64_at(t, "pruned"), Some(tuner.pruned));
        assert_eq!(f64_at(t, "best_mflops"), Some(tuner.best_mflops));
        assert_eq!(f64_at(t, "median_mflops"), Some(tuner.median_mflops));
        assert_eq!(f64_at(t, "best_vs_median"), Some(tuner.best_vs_median));
        let ranking = arr_at(t, "ranking");
        assert_eq!(ranking.len(), tuner.ranking.len());
        for (j, want) in ranking.iter().zip(&tuner.ranking) {
            assert_eq!(str_at(j, "tag").as_ref(), Some(&want.tag));
            assert_eq!(f64_at(j, "mflops"), Some(want.mflops));
        }
        let failures = arr_at(t, "failures");
        assert_eq!(failures.len(), tuner.failures.len());
        for (j, want) in failures.iter().zip(&tuner.failures) {
            assert_eq!(str_at(j, "tag").as_ref(), Some(&want.tag));
            assert_eq!(str_at(j, "reason").as_ref(), Some(&want.reason));
        }
        let latency = t.get("eval_latency_ns").unwrap();
        assert_eq!(
            u64_at(latency, "count"),
            Some(tuner.eval_latency_ns.count())
        );
        assert_eq!(u64_at(latency, "p99"), Some(tuner.eval_latency_ns.p99()));

        let (sim, j) = (r.sim.as_ref().unwrap(), doc.get("sim").unwrap());
        for (key, want) in [
            ("cycles", sim.cycles),
            ("dyn_insts", sim.dyn_insts),
            ("flops", sim.flops),
            ("mem_accesses", sim.mem_accesses),
            ("l1_hits", sim.l1_hits),
            ("l1_misses", sim.l1_misses),
            ("llc_misses", sim.llc_misses),
        ] {
            assert_eq!(u64_at(j, key), Some(want), "sim.{key}");
        }
        let ports: Vec<u64> = arr_at(j, "port_uops")
            .iter()
            .map(|u| u.as_u64().unwrap())
            .collect();
        assert_eq!(ports, sim.port_uops);

        let (profile, j) = (r.profile.as_ref().unwrap(), doc.get("profile").unwrap());
        for (key, want) in [
            ("total_cycles", profile.total_cycles),
            ("dyn_insts", profile.dyn_insts),
            ("stall_dep", profile.stall_dep),
            ("stall_port", profile.stall_port),
            ("stall_front", profile.stall_front),
            ("stall_mem", profile.stall_mem),
        ] {
            assert_eq!(u64_at(j, key), Some(want), "profile.{key}");
        }
        let regions = arr_at(j, "regions");
        assert_eq!(regions.len(), profile.regions.len());
        for (j, want) in regions.iter().zip(&profile.regions) {
            assert_eq!(str_at(j, "name").as_ref(), Some(&want.name));
            assert_eq!(u64_at(j, "cycles"), Some(want.cycles));
            assert_eq!(f64_at(j, "pct"), Some(want.pct));
        }

        assert_eq!(strs(&arr_at(&doc, "lints")), r.lints);
        assert_eq!(strs(&arr_at(&doc, "tchecks")), r.tchecks);
    }

    #[test]
    fn telemetry_summary_math() {
        let t = TunerTelemetry::from_ranking(
            vec![
                RankedCandidate {
                    tag: "a".into(),
                    mflops: 100.0,
                },
                RankedCandidate {
                    tag: "b".into(),
                    mflops: 80.0,
                },
                RankedCandidate {
                    tag: "c".into(),
                    mflops: 50.0,
                },
            ],
            vec![],
            5,
        );
        assert_eq!(t.built, 3);
        assert_eq!(t.pruned, 2);
        assert_eq!(t.best_mflops, 100.0);
        assert_eq!(t.median_mflops, 80.0);
        assert!((t.best_vs_median - 1.25).abs() < 1e-12);
    }

    #[test]
    fn text_rendering_mentions_key_facts() {
        let text = sample_report().render_text();
        assert!(text.contains("dgemm"), "{text}");
        assert!(text.contains("Vdup"), "{text}");
        assert!(text.contains("cgen"), "{text}");
        assert!(text.contains("tuner"), "{text}");
        assert!(text.contains("cycles"), "{text}");
        assert!(text.contains("eval latency"), "{text}");
        assert!(text.contains("mmUnrolledCOMP body"), "{text}");
        assert!(text.contains("78.0%"), "{text}");
        // Both diagnostic families render through the same section path.
        assert!(text.contains("performance lints:"), "{text}");
        assert!(text.contains("transform legality:"), "{text}");
        assert!(text.contains("T004"), "{text}");
    }

    #[test]
    fn stage_lookup() {
        let r = sample_report();
        assert_eq!(r.stage_wall_ns("cgen"), Some(1_234_567));
        assert_eq!(r.stage_wall_ns("missing"), None);
    }
}
