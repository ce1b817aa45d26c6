//! # augem-prof
//!
//! Kernel profiler for AUGEM-generated assembly: turns the raw per-pc
//! attribution the timing replay collects ([`augem_sim::PcProfile`]) into
//! something a human or a model-guided search can act on:
//!
//! * a [`Profile`] — per-instruction cycles, stall causes (operand
//!   dependency / port contention / front-end / memory latency), per-port
//!   µop occupancy, and per-site cache hit/miss counts, rolled up into
//!   source-level [`Region`]s by walking the kernel's region comments and
//!   loop labels (the markers `opt::akg` plants) and cross-referencing the
//!   IR positions in [`augem_opt::BindingLog`];
//! * an annotated asm listing ([`Profile::annotated_listing`]) in the
//!   style of `perf annotate` — cycles%, dominant stall cause, and port
//!   lanes per line;
//! * the machine-readable `augem.profile/v1` artifact
//!   ([`Profile::to_json`]);
//! * a compact [`ProfileSummary`] for embedding in the run report.
//!
//! The attribution is *conservative by construction*: the replay charges
//! each dynamic instruction the cycles by which it advances the critical
//! frontier, so per-pc cycles sum bit-exactly to `TimingReport.cycles`
//! and per-port rollups equal `TimingReport.port_uops`
//! ([`Profile::check_conservation`] asserts both).

#![forbid(unsafe_code)]
// Profiling runs inside tuning sweeps; keep this crate panic-free on the
// unwrap/expect axis (strict-clippy CI tier, shared with `augem-cost`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use augem_asm::emit::format_inst;
use augem_asm::{AsmKernel, XInst};
use augem_machine::MachineSpec;
use augem_obs::{Json, ProfileRegion, ProfileSummary};
use augem_opt::BindingLog;
use augem_sim::{PcProfile, SimError, SimValue, TimingReport};

/// Schema identifier embedded in every profile artifact.
pub const SCHEMA: &str = "augem.profile/v1";

/// Why an instruction's issue was delayed, per the replay's scoreboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// No stall cycles attributed.
    None,
    /// Waiting on operands (RAW dependence).
    Dep,
    /// Waiting for a free execution port.
    Port,
    /// Held back by the front end / reorder-window floor.
    Front,
    /// Load latency beyond the nominal L1-hit latency.
    Mem,
}

impl StallCause {
    pub fn as_str(self) -> &'static str {
        match self {
            StallCause::None => "-",
            StallCause::Dep => "dep",
            StallCause::Port => "port",
            StallCause::Front => "front",
            StallCause::Mem => "mem",
        }
    }
}

/// One instruction of the profiled kernel, with its attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub pc: usize,
    /// Formatted assembly text (via `augem_asm::emit::format_inst`).
    pub text: String,
    pub execs: u64,
    /// Critical-frontier cycles attributed to this pc.
    pub cycles: u64,
    pub stall_dep: u64,
    pub stall_port: u64,
    pub stall_front: u64,
    pub stall_mem: u64,
    /// µops issued per port at this pc.
    pub port_uops: Vec<u64>,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub llc_misses: u64,
}

impl Line {
    /// The largest stall bucket, if any stall cycles were attributed.
    pub fn dominant_stall(&self) -> (StallCause, u64) {
        let buckets = [
            (StallCause::Dep, self.stall_dep),
            (StallCause::Mem, self.stall_mem),
            (StallCause::Port, self.stall_port),
            (StallCause::Front, self.stall_front),
        ];
        let (cause, n) = buckets
            .into_iter()
            .max_by_key(|&(_, n)| n)
            .unwrap_or((StallCause::None, 0));
        if n == 0 {
            (StallCause::None, 0)
        } else {
            (cause, n)
        }
    }
}

/// A contiguous pc range rolled up to a source-level name: the prologue,
/// one template region (from the `region N: ...` comment `opt::akg`
/// emits), or a loop body/tail inside one (from its `.Lbody`/`.Lend`
/// labels).
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    pub name: String,
    /// Half-open pc range `[start, end)`.
    pub start: usize,
    pub end: usize,
    pub cycles: u64,
    /// Share of total attributed cycles, in percent.
    pub pct: f64,
    pub execs: u64,
    /// Canonical IR position of the region's opening statement, when the
    /// `BindingLog` recorded one (template regions only).
    pub ir_pos: Option<u64>,
}

/// A complete kernel profile: the `augem.profile/v1` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    pub kernel: String,
    pub machine: String,
    /// Total cycles, as reported by the timing replay. Equal to the sum
    /// of per-line cycles (see [`Profile::check_conservation`]).
    pub total_cycles: u64,
    pub dyn_insts: u64,
    pub num_ports: usize,
    pub lines: Vec<Line>,
    /// Program-order regions tiling `0..lines.len()`.
    pub regions: Vec<Region>,
}

/// Splits `"region N: template [Strategy]"` into `(N, "template [Strategy]")`.
fn parse_region_comment(c: &str) -> Option<(usize, &str)> {
    let rest = c.strip_prefix("region ")?;
    let (idx, name) = rest.split_once(": ")?;
    Some((idx.parse().ok()?, name))
}

/// Segment starts: `(pc, name)` at every region comment and loop label.
fn segment_starts(insts: &[XInst]) -> Vec<(usize, String)> {
    let mut starts: Vec<(usize, String)> = vec![(0, "prologue".to_string())];
    let mut base = "prologue".to_string();
    for (pc, inst) in insts.iter().enumerate() {
        match inst {
            XInst::Comment(c) => {
                if let Some((idx, name)) = parse_region_comment(c) {
                    let unique = if starts.iter().any(|(_, n)| n == name) {
                        format!("{name} #{idx}")
                    } else {
                        name.to_string()
                    };
                    base = unique.clone();
                    starts.push((pc, unique));
                }
            }
            XInst::Label(l) => {
                let suffix = if l.starts_with(".Lbody") {
                    "body"
                } else if l.starts_with(".Lend") {
                    "tail"
                } else {
                    l.as_str()
                };
                starts.push((pc, format!("{base} · {suffix} {l}")));
            }
            _ => {}
        }
    }
    // A marker at pc 0 supersedes the implicit prologue.
    if starts.len() > 1 && starts[1].0 == 0 {
        starts.remove(0);
    }
    starts
}

impl Profile {
    /// Builds a profile from the raw replay attribution.
    ///
    /// `log`, when provided, is the `BindingLog` from the same code
    /// generation; it contributes the IR position of each template
    /// region (the log's instruction stream is pre-schedule, so only
    /// region-level positions — which the scheduler keeps anchored — are
    /// trusted, never per-pc ones).
    pub fn build(
        kernel: &AsmKernel,
        machine: &MachineSpec,
        report: &TimingReport,
        pcs: &PcProfile,
        log: Option<&BindingLog>,
    ) -> Profile {
        let n = kernel.insts.len().min(pcs.execs.len());
        let num_ports = pcs.num_ports;
        let lines: Vec<Line> = (0..n)
            .map(|pc| Line {
                pc,
                text: format_inst(&kernel.insts[pc], &machine.isa),
                execs: pcs.execs[pc],
                cycles: pcs.cycles[pc],
                stall_dep: pcs.stall_dep[pc],
                stall_port: pcs.stall_port[pc],
                stall_front: pcs.stall_front[pc],
                stall_mem: pcs.stall_mem[pc],
                port_uops: pcs.port_uops[pc * num_ports..(pc + 1) * num_ports].to_vec(),
                l1_hits: pcs.l1_hits[pc],
                l1_misses: pcs.l1_misses[pc],
                llc_misses: pcs.llc_misses[pc],
            })
            .collect();

        // IR position per region comment text, from the pre-schedule log.
        let ir_of = |name: &str| -> Option<u64> {
            let log = log?;
            log.insts
                .iter()
                .enumerate()
                .find_map(|(i, inst)| match inst {
                    XInst::Comment(c) if parse_region_comment(c).map(|(_, n)| n) == Some(name) => {
                        log.inst_ir.get(i).map(|&p| u64::from(p))
                    }
                    _ => None,
                })
        };

        let total: u64 = lines.iter().map(|l| l.cycles).sum();
        let starts = segment_starts(&kernel.insts[..n]);
        let regions = starts
            .iter()
            .enumerate()
            .map(|(i, (start, name))| {
                let end = starts.get(i + 1).map_or(n, |&(s, _)| s);
                let cycles: u64 = lines[*start..end].iter().map(|l| l.cycles).sum();
                let execs: u64 = lines[*start..end].iter().map(|l| l.execs).sum();
                Region {
                    name: name.clone(),
                    start: *start,
                    end,
                    cycles,
                    pct: if total == 0 {
                        0.0
                    } else {
                        cycles as f64 / total as f64 * 100.0
                    },
                    execs,
                    // Strip the uniquing suffix before looking up the log.
                    ir_pos: ir_of(name.split(" #").next().unwrap_or(name)),
                }
            })
            .collect();

        Profile {
            kernel: kernel.name.clone(),
            machine: machine.arch.short_name().to_string(),
            total_cycles: report.cycles,
            dyn_insts: report.dyn_insts,
            num_ports,
            lines,
            regions,
        }
    }

    /// Asserts the conservation identities against the plain report:
    /// per-pc cycles sum bit-exactly to the total, per-port rollups equal
    /// `port_uops`, and execution/miss counts match.
    pub fn check_conservation(&self, report: &TimingReport) -> Result<(), String> {
        let cycles: u64 = self.lines.iter().map(|l| l.cycles).sum();
        if cycles != report.cycles {
            return Err(format!(
                "attributed cycles {} != report cycles {}",
                cycles, report.cycles
            ));
        }
        let execs: u64 = self.lines.iter().map(|l| l.execs).sum();
        if execs != report.dyn_insts {
            return Err(format!(
                "attributed execs {} != report dyn_insts {}",
                execs, report.dyn_insts
            ));
        }
        let mut ports = vec![0u64; self.num_ports];
        for l in &self.lines {
            for (p, &u) in l.port_uops.iter().enumerate() {
                ports[p] += u;
            }
        }
        if ports != report.port_uops {
            return Err(format!(
                "per-port rollup {ports:?} != report port_uops {:?}",
                report.port_uops
            ));
        }
        let l1m: u64 = self.lines.iter().map(|l| l.l1_misses).sum();
        if l1m != report.l1_misses {
            return Err(format!(
                "attributed L1 misses {} != report {}",
                l1m, report.l1_misses
            ));
        }
        let llcm: u64 = self.lines.iter().map(|l| l.llc_misses).sum();
        if llcm != report.llc_misses {
            return Err(format!(
                "attributed LLC misses {} != report {}",
                llcm, report.llc_misses
            ));
        }
        Ok(())
    }

    /// Total stall cycles by cause across all pcs:
    /// `(dep, port, front, mem)`.
    pub fn stall_totals(&self) -> (u64, u64, u64, u64) {
        self.lines.iter().fold((0, 0, 0, 0), |acc, l| {
            (
                acc.0 + l.stall_dep,
                acc.1 + l.stall_port,
                acc.2 + l.stall_front,
                acc.3 + l.stall_mem,
            )
        })
    }

    /// The compact rollup embedded in `augem.run-report/v1`.
    pub fn summary(&self) -> ProfileSummary {
        let (dep, port, front, mem) = self.stall_totals();
        ProfileSummary {
            total_cycles: self.total_cycles,
            dyn_insts: self.dyn_insts,
            stall_dep: dep,
            stall_port: port,
            stall_front: front,
            stall_mem: mem,
            regions: self
                .regions
                .iter()
                .filter(|r| r.execs > 0 || r.cycles > 0)
                .map(|r| ProfileRegion {
                    name: r.name.clone(),
                    cycles: r.cycles,
                    pct: r.pct,
                })
                .collect(),
        }
    }

    /// The `perf annotate`-style listing: one line per instruction with
    /// cycle share, dominant stall cause, port lanes, and cache behavior,
    /// grouped under region headers.
    pub fn annotated_listing(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile: {} on {} — {} cycles, {} insts, {} ports",
            self.kernel, self.machine, self.total_cycles, self.dyn_insts, self.num_ports
        );
        let (dep, port, front, mem) = self.stall_totals();
        let _ = writeln!(
            out,
            "stalls: dep {dep} / port {port} / front {front} / mem {mem}"
        );
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>9} {:>6}  {:<10} {:<18} {:<16} asm",
            "pc", "execs", "cycles", "cyc%", "stall", "ports", "cache"
        );
        for r in &self.regions {
            let _ = writeln!(out, "== {} — {} cyc ({:.1}%) ==", r.name, r.cycles, r.pct);
            for l in &self.lines[r.start..r.end] {
                let pct = if self.total_cycles == 0 {
                    0.0
                } else {
                    l.cycles as f64 / self.total_cycles as f64 * 100.0
                };
                let (cause, n) = l.dominant_stall();
                let stall = if n == 0 {
                    "-".to_string()
                } else {
                    format!("{}:{}", cause.as_str(), n)
                };
                let mut lanes = String::new();
                for (p, &u) in l.port_uops.iter().enumerate() {
                    if u > 0 {
                        if !lanes.is_empty() {
                            lanes.push(' ');
                        }
                        let _ = write!(lanes, "p{p}:{u}");
                    }
                }
                if lanes.is_empty() {
                    lanes.push('-');
                }
                let cache = if l.l1_hits + l.l1_misses > 0 {
                    format!("L1 {}h/{}m llc {}m", l.l1_hits, l.l1_misses, l.llc_misses)
                } else {
                    "-".to_string()
                };
                let _ = writeln!(
                    out,
                    "{:>5} {:>8} {:>9} {:>5.1}%  {:<10} {:<18} {:<16} {}",
                    l.pc, l.execs, l.cycles, pct, stall, lanes, cache, l.text
                );
            }
        }
        out
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("kernel", Json::str(self.kernel.clone())),
            ("machine", Json::str(self.machine.clone())),
            ("total_cycles", Json::uint(self.total_cycles)),
            ("dyn_insts", Json::uint(self.dyn_insts)),
            ("num_ports", Json::uint(self.num_ports as u64)),
            (
                "regions",
                Json::Arr(
                    self.regions
                        .iter()
                        .map(|r| {
                            let mut pairs = vec![
                                ("name", Json::str(r.name.clone())),
                                ("start", Json::uint(r.start as u64)),
                                ("end", Json::uint(r.end as u64)),
                                ("cycles", Json::uint(r.cycles)),
                                ("pct", Json::Num(r.pct)),
                                ("execs", Json::uint(r.execs)),
                            ];
                            if let Some(p) = r.ir_pos {
                                pairs.push(("ir_pos", Json::uint(p)));
                            }
                            Json::obj(pairs)
                        })
                        .collect(),
                ),
            ),
            (
                "lines",
                Json::Arr(
                    self.lines
                        .iter()
                        .map(|l| {
                            Json::obj(vec![
                                ("pc", Json::uint(l.pc as u64)),
                                ("text", Json::str(l.text.clone())),
                                ("execs", Json::uint(l.execs)),
                                ("cycles", Json::uint(l.cycles)),
                                ("stall_dep", Json::uint(l.stall_dep)),
                                ("stall_port", Json::uint(l.stall_port)),
                                ("stall_front", Json::uint(l.stall_front)),
                                ("stall_mem", Json::uint(l.stall_mem)),
                                (
                                    "port_uops",
                                    Json::Arr(l.port_uops.iter().map(|&u| Json::uint(u)).collect()),
                                ),
                                ("l1_hits", Json::uint(l.l1_hits)),
                                ("l1_misses", Json::uint(l.l1_misses)),
                                ("llc_misses", Json::uint(l.llc_misses)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Simulates the kernel with profiling on and builds the [`Profile`] —
/// the one-call entry point for a standalone kernel, which this crate's
/// example and the tests use. The facade (`augem-gen --profile`)
/// profiles through the tuner's cache and [`Profile::build`] instead.
pub fn profile_kernel(
    kernel: &AsmKernel,
    args: Vec<SimValue>,
    machine: &MachineSpec,
    warm: bool,
    step_limit: Option<u64>,
    log: Option<&BindingLog>,
) -> Result<(TimingReport, Profile), SimError> {
    let (report, pcs, _outputs) =
        augem_sim::simulate_timing_profiled(kernel, args, machine, warm, step_limit)?;
    let profile = Profile::build(kernel, machine, &report, &pcs, log);
    Ok((report, profile))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_comment_parsing() {
        assert_eq!(
            parse_region_comment("region 0: mmUnrolledCOMP [Vdup]"),
            Some((0, "mmUnrolledCOMP [Vdup]"))
        );
        assert_eq!(parse_region_comment("spill note"), None);
    }

    #[test]
    fn segments_tile_the_program() {
        let insts = vec![
            XInst::Comment("prolog note".into()),
            XInst::Comment("region 0: mmCOMP [Scalar]".into()),
            XInst::Label(".Lbody0".into()),
            XInst::Label(".Lend0".into()),
            XInst::Comment("region 1: mmCOMP [Scalar]".into()),
        ];
        let starts = segment_starts(&insts);
        assert_eq!(starts[0], (0, "prologue".to_string()));
        assert_eq!(starts[1].0, 1);
        assert_eq!(starts[1].1, "mmCOMP [Scalar]");
        assert!(starts[2].1.contains("body"));
        assert!(starts[3].1.contains("tail"));
        // Same template in a second region gets a uniquing suffix.
        assert_eq!(starts[4].1, "mmCOMP [Scalar] #1");
        // Starts are strictly increasing, so regions tile [0, n).
        for w in starts.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn dominant_stall_picks_largest_bucket() {
        let mut l = Line {
            pc: 0,
            text: String::new(),
            execs: 1,
            cycles: 10,
            stall_dep: 3,
            stall_port: 7,
            stall_front: 0,
            stall_mem: 2,
            port_uops: vec![],
            l1_hits: 0,
            l1_misses: 0,
            llc_misses: 0,
        };
        assert_eq!(l.dominant_stall(), (StallCause::Port, 7));
        l.stall_port = 0;
        assert_eq!(l.dominant_stall(), (StallCause::Dep, 3));
        l.stall_dep = 0;
        l.stall_mem = 0;
        assert_eq!(l.dominant_stall(), (StallCause::None, 0));
    }
}
