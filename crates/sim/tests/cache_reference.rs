//! `CacheSim` against a reference model.
//!
//! The reference below is the cache simulator's original algorithm:
//! each set a `Vec` of line tags in LRU order (front = most recent),
//! updated with `remove` / `insert(0)` / `pop`, the same stream
//! prefetcher, and software prefetch into every level. `CacheSim` keeps
//! that exact policy but updates sets in place, so for any stream of
//! demand accesses and prefetches both must report the same latency per
//! access and the same counters.

use augem_machine::{CacheHierarchy, CacheLevel, MachineSpec};
use augem_sim::CacheSim;
use proptest::prelude::*;

struct RefLevel {
    sets: Vec<Vec<u64>>,
    assoc: usize,
    set_shift: u32,
    set_mask: u64,
    latency: u32,
}

impl RefLevel {
    fn new(spec: &CacheLevel) -> Self {
        let lines = (spec.size / spec.line).max(1);
        let assoc = spec.assoc.max(1).min(lines);
        let num_sets = (lines / assoc).max(1);
        RefLevel {
            sets: vec![Vec::new(); num_sets],
            assoc,
            set_shift: spec.line.trailing_zeros(),
            set_mask: (num_sets - 1) as u64,
            latency: spec.latency,
        }
    }

    fn access(&mut self, line: u64) -> bool {
        let ways = &mut self.sets[(line & self.set_mask) as usize];
        if let Some(pos) = ways.iter().position(|&t| t == line) {
            let t = ways.remove(pos);
            ways.insert(0, t);
            true
        } else {
            ways.insert(0, line);
            if ways.len() > self.assoc {
                ways.pop();
            }
            false
        }
    }
}

struct RefCache {
    levels: Vec<RefLevel>,
    dram_latency: u32,
    streams: [(u64, bool); 16],
    prefetch_degree: u64,
    accesses: u64,
    l1_misses: u64,
    llc_misses: u64,
}

impl RefCache {
    fn new(h: &CacheHierarchy) -> Self {
        let mut levels = vec![RefLevel::new(&h.l1d), RefLevel::new(&h.l2)];
        if let Some(l3) = &h.l3 {
            levels.push(RefLevel::new(l3));
        }
        RefCache {
            levels,
            dram_latency: h.dram_latency,
            streams: [(0, false); 16],
            prefetch_degree: (h.hw_prefetch_coverage * 4.0).round().max(0.0) as u64,
            accesses: 0,
            l1_misses: 0,
            llc_misses: 0,
        }
    }

    fn line_of(&self, addr: i64) -> u64 {
        (addr as u64) >> self.levels[0].set_shift
    }

    fn access(&mut self, addr: i64, bytes: u8) -> u32 {
        self.accesses += 1;
        let first = self.line_of(addr);
        let last = self.line_of(addr + bytes as i64 - 1);
        (first..=last)
            .map(|l| self.access_line(l))
            .max()
            .unwrap_or(0)
    }

    fn access_line(&mut self, line: u64) -> u32 {
        let mut latency = None;
        for (i, level) in self.levels.iter_mut().enumerate() {
            if level.access(line) {
                latency = Some(level.latency);
                if i > 0 {
                    self.l1_misses += 1;
                }
                break;
            }
        }
        let lat = latency.unwrap_or_else(|| {
            self.l1_misses += 1;
            self.llc_misses += 1;
            self.dram_latency
        });
        let slot = ((line >> 6) as usize) % self.streams.len();
        let (last, valid) = self.streams[slot];
        if valid && line == last + 1 {
            for d in 1..=self.prefetch_degree {
                for level in self.levels.iter_mut() {
                    level.access(line + d);
                }
            }
        }
        self.streams[slot] = (line, true);
        lat
    }

    fn prefetch(&mut self, addr: i64) {
        let line = self.line_of(addr);
        for level in self.levels.iter_mut() {
            level.access(line);
        }
    }
}

/// A hierarchy small enough that random streams evict constantly: 4-way
/// 1 KiB L1, 2-way 2 KiB L2, 8-way 8 KiB L3.
fn tiny() -> CacheHierarchy {
    let level = |size, assoc, latency| CacheLevel {
        size,
        line: 64,
        assoc,
        latency,
        bw_bytes_per_cycle: 16.0,
    };
    CacheHierarchy {
        l1d: level(1024, 4, 4),
        l2: level(2048, 2, 12),
        l3: Some(level(8192, 8, 30)),
        dram_bw_bytes_per_cycle: 4.0,
        dram_latency: 200,
        hw_prefetch_coverage: 0.75,
    }
}

/// One cache operation: a demand access of 8, 16 or 32 bytes (possibly
/// straddling a line) or a software prefetch. Addresses mix a short
/// sequential walk, so the stream prefetcher trains, with random jumps
/// inside a window a few times the tiny L3.
#[derive(Debug, Clone, Copy)]
struct Op {
    addr: i64,
    bytes: u8,
    prefetch: bool,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (
        0i64..4096,
        prop::sample::select(vec![8u8, 16, 32]),
        0u8..8,
        any::<bool>(),
    )
        .prop_map(|(slot, bytes, kind, seq)| (slot * 8, bytes, kind == 0, seq));
    prop::collection::vec(op, 1..400).prop_map(|raw| {
        let mut cursor = 0i64;
        raw.into_iter()
            .map(|(addr, bytes, prefetch, seq)| {
                cursor = if seq { cursor + 8 } else { addr };
                Op {
                    addr: (1 << 40) + cursor,
                    bytes,
                    prefetch,
                }
            })
            .collect()
    })
}

fn assert_same(h: &CacheHierarchy, ops: &[Op]) {
    let mut sim = CacheSim::new(h);
    let mut reference = RefCache::new(h);
    for (i, op) in ops.iter().enumerate() {
        if op.prefetch {
            sim.prefetch(op.addr);
            reference.prefetch(op.addr);
        } else {
            let got = sim.access(op.addr, op.bytes, false);
            let want = reference.access(op.addr, op.bytes);
            assert_eq!(got, want, "latency of op {i} ({op:?})");
        }
        assert_eq!(sim.accesses, reference.accesses, "accesses after op {i}");
        assert_eq!(sim.l1_misses, reference.l1_misses, "L1 misses after op {i}");
        assert_eq!(
            sim.llc_misses, reference.llc_misses,
            "LLC misses after op {i}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn cache_matches_the_reference_lru_on_random_streams(ops in ops()) {
        assert_same(&tiny(), &ops);
        for m in MachineSpec::paper_platforms() {
            assert_same(&m.caches, &ops);
        }
    }
}

/// A walk far larger than the paper machines' L1 and L2 exercises full
/// sets and evictions at the real geometries too.
#[test]
fn cache_matches_the_reference_lru_past_l2() {
    let walk: Vec<Op> = (0..40_000i64)
        .map(|i| Op {
            addr: (1 << 40) + (i * 200) % (3 << 20),
            bytes: 32,
            prefetch: i % 7 == 0,
        })
        .collect();
    for m in MachineSpec::paper_platforms() {
        assert_same(&m.caches, &walk);
    }
}
