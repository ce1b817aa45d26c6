//! Set-associative cache simulator with a stream prefetcher.
//!
//! Fed the memory access of each step the functional simulator executes;
//! returns a load-to-use latency per access, which the timing scoreboard
//! consumes. The hierarchy parameters come from
//! [`augem_machine::CacheHierarchy`].

use augem_machine::{CacheHierarchy, CacheLevel};

struct Level {
    /// `sets[set]` holds line tags in LRU order (front = most recent),
    /// at most `assoc` of them.
    sets: Vec<Vec<u64>>,
    assoc: usize,
    set_shift: u32,
    set_mask: u64,
    latency: u32,
}

impl Level {
    fn new(spec: &CacheLevel) -> Self {
        let lines = (spec.size / spec.line).max(1);
        let assoc = spec.assoc.max(1).min(lines);
        let num_sets = (lines / assoc).max(1);
        debug_assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        Level {
            sets: vec![Vec::new(); num_sets],
            assoc,
            set_shift: spec.line.trailing_zeros(),
            set_mask: (num_sets - 1) as u64,
            latency: spec.latency,
        }
    }

    /// Returns true on hit; moves the line to the front either way (a
    /// miss fills it, evicting the least recent line when the set is
    /// full). Reorders in place: a full set never grows past `assoc`.
    #[inline]
    fn access(&mut self, line: u64) -> bool {
        let ways = &mut self.sets[(line & self.set_mask) as usize];
        if ways.first() == Some(&line) {
            return true;
        }
        if let Some(pos) = ways.iter().position(|&t| t == line) {
            ways[..=pos].rotate_right(1);
            return true;
        }
        if ways.len() < self.assoc {
            ways.push(line);
        } else if let Some(lru) = ways.last_mut() {
            *lru = line;
        }
        ways.rotate_right(1);
        false
    }

    /// Fill without latency accounting (prefetch).
    fn fill(&mut self, line: u64) {
        let _ = self.access(line);
    }
}

/// One hardware stream-prefetcher slot.
#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    last_line: u64,
    valid: bool,
}

/// The cache simulator.
pub struct CacheSim {
    levels: Vec<Level>,
    dram_latency: u32,
    streams: [Stream; 16],
    /// Lines the hardware prefetcher fetches ahead on a detected stream.
    prefetch_degree: u64,
    pub accesses: u64,
    pub l1_misses: u64,
    pub llc_misses: u64,
}

impl CacheSim {
    pub fn new(h: &CacheHierarchy) -> Self {
        let mut levels = vec![Level::new(&h.l1d), Level::new(&h.l2)];
        if let Some(l3) = &h.l3 {
            levels.push(Level::new(l3));
        }
        // Map coverage to prefetch aggressiveness: high coverage ≈ deep
        // streams.
        let degree = (h.hw_prefetch_coverage * 4.0).round().max(0.0) as u64;
        CacheSim {
            levels,
            dram_latency: h.dram_latency,
            streams: [Stream::default(); 16],
            prefetch_degree: degree,
            accesses: 0,
            l1_misses: 0,
            llc_misses: 0,
        }
    }

    fn line_of(&self, addr: i64) -> u64 {
        (addr as u64) >> self.levels[0].set_shift
    }

    /// Demand access; returns load-to-use latency in cycles.
    pub fn access(&mut self, addr: i64, bytes: u8, write: bool) -> u32 {
        let _ = write; // write-allocate: same path as reads in this model
        self.accesses += 1;
        let first = self.line_of(addr);
        let last = self.line_of(addr + bytes as i64 - 1);
        let mut worst = 0;
        for line in first..=last {
            worst = worst.max(self.access_line(line));
        }
        worst
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
        let lat = match latency {
            Some(l) => l,
            None => {
                self.l1_misses += 1;
                self.llc_misses += 1;
                self.dram_latency
            }
        };
        self.train_streams(line);
        lat
    }

    /// Detects sequential streams and pre-fills upcoming lines.
    fn train_streams(&mut self, line: u64) {
        // One stream slot per 4 KiB page (64 lines).
        let slot = ((line >> 6) as usize) % self.streams.len();
        let s = self.streams[slot];
        if s.valid && line == s.last_line + 1 {
            for d in 1..=self.prefetch_degree {
                let target = line + d;
                for level in self.levels.iter_mut() {
                    level.fill(target);
                }
            }
        }
        self.streams[slot] = Stream {
            last_line: line,
            valid: true,
        };
    }

    /// Zeroes the access and miss counters, keeping the cache contents
    /// (the end of a warm-up pass).
    pub fn clear_counters(&mut self) {
        self.accesses = 0;
        self.l1_misses = 0;
        self.llc_misses = 0;
    }

    /// Software prefetch: fills the line into every level.
    pub fn prefetch(&mut self, addr: i64) {
        let line = self.line_of(addr);
        for level in self.levels.iter_mut() {
            level.fill(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_machine::MachineSpec;

    fn sim() -> CacheSim {
        CacheSim::new(&MachineSpec::sandy_bridge().caches)
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = sim();
        let cold = c.access(0x1000, 8, false);
        let warm = c.access(0x1000, 8, false);
        assert!(cold > warm, "cold {cold} vs warm {warm}");
        assert_eq!(warm, 4); // L1 latency
        assert_eq!(c.llc_misses, 1);
    }

    #[test]
    fn same_line_accesses_hit() {
        let mut c = sim();
        c.access(0x2000, 8, false);
        assert_eq!(c.access(0x2008, 8, false), 4);
        assert_eq!(c.access(0x2038, 8, false), 4);
    }

    #[test]
    fn software_prefetch_hides_latency() {
        let mut c = sim();
        c.prefetch(0x9000);
        assert_eq!(c.access(0x9000, 8, false), 4);
    }

    #[test]
    fn stream_prefetcher_covers_sequential_scans() {
        let mut c = sim();
        // Walk 64 consecutive lines; after the stream trains, most
        // accesses should be hits.
        let mut misses_at_dram = 0;
        for i in 0..64i64 {
            let lat = c.access(0x10_0000 + i * 64, 8, false);
            if lat >= 100 {
                misses_at_dram += 1;
            }
        }
        assert!(
            misses_at_dram < 32,
            "prefetcher should hide most of a sequential walk, got {misses_at_dram}"
        );
    }

    #[test]
    fn capacity_eviction() {
        let mut c = sim();
        // Touch far more distinct lines than L1 can hold, same set-ish
        // pattern; then the first line must be gone from L1 but present
        // in L2 (or beyond).
        let stride = 32 * 1024; // same L1 set every time for 8-way 32KB
        for i in 0..16i64 {
            c.access(i * stride, 8, false);
        }
        let lat = c.access(0, 8, false);
        assert!(lat > 4, "line 0 must have been evicted from L1, lat={lat}");
    }

    #[test]
    fn straddling_access_touches_both_lines() {
        let mut c = sim();
        c.access(0x40 - 8, 16, false); // crosses the 0x40 line boundary
                                       // Both lines now resident:
        assert_eq!(c.access(0x38, 8, false), 4);
        assert_eq!(c.access(0x40, 8, false), 4);
    }
}
