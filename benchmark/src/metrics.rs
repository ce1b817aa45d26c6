//! Metric names, units, and how each is computed from a run.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! smoke test checks that the two never drift apart.

use crate::stats::{geomean, Samples};
use crate::workloads::{Record, Workload};
use augem::obs::Json;
use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the daemon sees.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p10_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("kernel_mflops_geomean", "Mflops"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics taken from the timed run's responses.
pub const TIMED_LAYERS: [(&str, &str); 10] = [
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.service_p50_us", "us"),
    ("serve.tunes_per_miss_key", "count"),
    ("serve.hit_frac", "fraction"),
    ("serve.slo_miss_frac", "fraction"),
    ("serve.degraded_frac", "fraction"),
    ("tune.candidates", "count"),
    ("tune.candidate_failures", "count"),
    ("bench.generator_lag_p99_ms", "ms"),
    ("bench.valid_segment_frac", "fraction"),
];

/// Per-layer metrics taken from the traced in-process run.
pub const TRACED_LAYERS: [(&str, &str); 21] = [
    ("serve.parse_us", "us"),
    ("serve.store_get_us", "us"),
    ("serve.handle_us", "us"),
    ("serve.render_us", "us"),
    ("serve.store_open_ms", "ms"),
    ("serve.store_commit_ms", "ms"),
    ("augem.degradable_ms", "ms"),
    ("augem.unattributed_frac", "fraction"),
    ("tune.parallel_speedup", "ratio"),
    ("tune.sweep_self_ms", "ms"),
    ("transforms.cgen_ms", "ms"),
    ("templates.identify_ms", "ms"),
    ("opt.akg_ms", "ms"),
    ("opt.winner_insts", "count"),
    ("sim.sim_ms", "ms"),
    ("sim.dyn_insts", "count"),
    ("sim.msteps_per_s", "Msteps/s"),
    ("verify.check_ms", "ms"),
    ("verify.equiv_ms", "ms"),
    ("cost.analyze_ms", "ms"),
    ("depan.check_ms", "ms"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&TIMED_LAYERS)
        .chain(&TRACED_LAYERS)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Metric values by name, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value)| {
                    let v = Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit_of(name))),
                    ]);
                    (name.to_string(), v)
                })
                .collect(),
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Geometric mean over families of each family's `p`-quantile.
fn family_geomean(by_family: &BTreeMap<String, Vec<f64>>, p: f64) -> Option<f64> {
    let per_family: Vec<f64> = by_family
        .values()
        .filter_map(|v| Samples::new(v.clone()).quantile(p))
        .collect();
    geomean(&per_family)
}

/// The end-to-end metrics of a timed run. An empty sample set (possible
/// only when every request failed, which `correct` reports) reads 0.
///
/// The shared machine this benchmark was calibrated on runs CPU-bound
/// work in two regimes about 1.6× apart that alternate every few
/// seconds, so a run's median depends on how much of it fell in the
/// slow regime. The gated latency is therefore each family's lower
/// decile (the uncontended cost), averaged geometrically over families
/// so that no family's speed shifts another's rank; medians and tails are
/// reported beside it in the details line.
pub fn end_to_end(workload: Workload, rec: &Record) -> Metrics {
    let mflops: Vec<f64> = workload
        .families()
        .into_iter()
        .filter_map(|f| rec.gate.winner(f)?.mflops.parse().ok())
        .collect();
    let mut m = Metrics::default();
    m.set(
        "setup_s",
        Samples::new(rec.setup_s.clone()).median().unwrap_or(0.0),
    );
    m.set(
        "latency_p10_ms",
        family_geomean(&rec.latency_ms, 0.1).unwrap_or(0.0),
    );
    m.set("throughput_rps", rec.throughput_rps);
    m.set("kernel_mflops_geomean", geomean(&mflops).unwrap_or(0.0));
    m.set("peak_rss_mb", rec.peak_rss_mb);
    m
}

/// The per-layer metrics read off the timed run's responses.
pub fn timed_layers(rec: &Record) -> Metrics {
    let p = |v: &[f64], q: f64| Samples::new(v.to_vec()).quantile(q).unwrap_or(0.0);
    let mut m = Metrics::default();
    m.set("serve.queue_wait_p99_ms", p(&rec.queue_wait_ms, 0.99));
    m.set("serve.service_p50_us", p(&rec.service_us, 0.5));
    m.set("serve.tunes_per_miss_key", ratio(rec.misses, rec.miss_keys));
    m.set("serve.hit_frac", ratio(rec.hits, rec.hits + rec.misses));
    m.set(
        "serve.slo_miss_frac",
        ratio(rec.measured - rec.within_limit, rec.measured),
    );
    m.set("serve.degraded_frac", ratio(rec.degraded, rec.replies));
    m.set("tune.candidates", ratio(rec.candidates, rec.tune_reports));
    m.set(
        "tune.candidate_failures",
        ratio(rec.candidate_failures, rec.tune_reports),
    );
    m.set("bench.generator_lag_p99_ms", p(&rec.lag_ms, 0.99));
    m.set(
        "bench.valid_segment_frac",
        if rec.segments == 0 {
            1.0
        } else {
            ratio(rec.valid_segments, rec.segments)
        },
    );
    m
}

/// Each timing's sample count, median, and highest percentile with at
/// least ten samples beyond it, for the details line.
pub fn sample_details(rec: &Record) -> Json {
    let describe = |values: Vec<f64>| {
        let s = Samples::new(values);
        let supported = s.highest_supported();
        Json::obj(vec![
            ("n", Json::uint(s.len() as u64)),
            ("p50", s.median().map_or(Json::Null, Json::Num)),
            (
                "tail_p",
                supported.map_or(Json::Null, |(p, _)| Json::Num(p)),
            ),
            ("tail", supported.map_or(Json::Null, |(_, v)| Json::Num(v))),
        ])
    };
    let latency = rec.latency_ms.values().flatten().copied().collect();
    Json::obj(vec![
        ("setup_s", describe(rec.setup_s.clone())),
        ("latency_ms", describe(latency)),
        ("miss_latency_ms", describe(rec.miss_latency_ms.clone())),
        ("queue_wait_ms", describe(rec.queue_wait_ms.clone())),
        ("lag_ms", describe(rec.lag_ms.clone())),
    ])
}

/// The last line of the benchmark's output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::uint(attempted)),
        ("failed", Json::uint(failed)),
        ("metrics", metrics.to_json()),
    ])
    .render()
}
