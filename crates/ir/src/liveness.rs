//! Live-range analysis for kernel scalars.
//!
//! Paper §3.1: "while physical registers are allocated locally within each
//! template, the live range of each variable is computed globally during
//! the template identification process ... Only when a scalar is no longer
//! alive would its register be released."
//!
//! Ranges are expressed in the canonical statement numbering of
//! [`crate::visit::walk_with_positions`]. A symbol's range spans from its
//! first reference to its last; any symbol referenced inside a loop has its
//! range widened to the whole loop (a reference in iteration *k* is live
//! again in iteration *k+1* through the back edge).

use crate::ast::{Kernel, Stmt};
use crate::sym::{Sym, Ty};
use crate::visit::{stmt_def, stmt_uses};
use std::collections::HashMap;

/// Closed position interval `[first, last]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveRange {
    pub first: u32,
    pub last: u32,
}

impl LiveRange {
    pub fn contains(&self, pos: u32) -> bool {
        self.first <= pos && pos <= self.last
    }
}

/// Result of liveness analysis over one kernel.
#[derive(Debug, Clone, Default)]
pub struct Liveness {
    ranges: HashMap<Sym, LiveRange>,
    /// Every ranged symbol, sorted by the position its range ends at,
    /// then by symbol.
    dying: Vec<Sym>,
    /// `dying[dying_from[p]..dying_from[p + 1]]` are the symbols whose
    /// range ends at `p`, for `p` below `positions`.
    dying_from: Vec<u32>,
    positions: u32,
}

impl Liveness {
    /// Analyzes `kernel`.
    pub fn analyze(kernel: &Kernel) -> Self {
        let mut ranges = HashMap::new();
        let mut positions = 0u32;
        collect(&kernel.body, &mut positions, &mut ranges);
        let mut ends: Vec<(u32, Sym)> = ranges.iter().map(|(&s, r)| (r.last, s)).collect();
        ends.sort_unstable();
        let dying_from = (0..=positions)
            .map(|p| ends.partition_point(|&(last, _)| last < p) as u32)
            .collect();
        Liveness {
            ranges,
            dying: ends.into_iter().map(|(_, s)| s).collect(),
            dying_from,
            positions,
        }
    }

    /// The live range of `sym`, if it is ever referenced.
    pub fn range(&self, sym: Sym) -> Option<LiveRange> {
        self.ranges.get(&sym).copied()
    }

    /// Whether `sym` is live at canonical position `pos`.
    pub fn live_at(&self, sym: Sym, pos: u32) -> bool {
        self.range(sym).is_some_and(|r| r.contains(pos))
    }

    /// Whether `sym` is dead at every position strictly after `pos`.
    pub fn dead_after(&self, sym: Sym, pos: u32) -> bool {
        self.range(sym).is_none_or(|r| r.last <= pos)
    }

    /// Total number of canonical positions in the kernel.
    pub fn positions(&self) -> u32 {
        self.positions
    }

    /// Symbols whose live range ends exactly at `pos`, sorted.
    pub fn dying_at(&self, pos: u32) -> &[Sym] {
        let p = pos as usize;
        match (self.dying_from.get(p), self.dying_from.get(p + 1)) {
            (Some(&a), Some(&b)) => &self.dying[a as usize..b as usize],
            _ => &[],
        }
    }

    /// Symbols that are written but never read afterwards: the last
    /// write happens at or after the last read, so the final value is
    /// dead (and, for a local, every register holding it was wasted).
    ///
    /// Reads inside a loop are treated as recurring through the back
    /// edge (a read at iteration *k* happens again after any write at
    /// iteration *k*), so a loop-carried `acc = acc + t` does not flag.
    /// Loop variables count as read by the loop's own bound check.
    /// Returns `(sym, last_write_pos)` pairs, sorted for determinism.
    pub fn unread_after_last_write(kernel: &Kernel) -> Vec<(Sym, u32)> {
        #[derive(Default, Clone, Copy)]
        struct Rw {
            last_read: Option<u32>,
            last_write: Option<u32>,
            /// Both the last read and the last write sit inside one loop
            /// body, so the read happens again after the write through
            /// the back edge (cleared by any write past the read).
            recurs: bool,
        }
        fn scan(stmts: &[Stmt], pos: &mut u32, rw: &mut HashMap<Sym, Rw>) {
            for s in stmts {
                let here = *pos;
                *pos += 1;
                let mut reads = Vec::new();
                stmt_uses(s, &mut reads);
                if let Stmt::For { var, .. } = s {
                    // The back-edge compare reads the induction variable
                    // after every increment: it is never unread.
                    rw.entry(*var).or_default().last_read = Some(u32::MAX);
                }
                for sym in reads {
                    let e = rw.entry(sym).or_default();
                    e.last_read = Some(e.last_read.map_or(here, |p| p.max(here)));
                }
                if let Some(d) = stmt_def(s) {
                    let e = rw.entry(d).or_default();
                    e.last_write = Some(e.last_write.map_or(here, |p| p.max(here)));
                    // A write strictly past the last read is not covered
                    // by any earlier back edge.
                    if e.last_read.is_none_or(|r| here > r) {
                        e.recurs = false;
                    }
                }
                match s {
                    Stmt::For { body, .. } => {
                        let body_start = *pos;
                        scan(body, pos, rw);
                        let body_end = pos.saturating_sub(1);
                        // Any read inside the loop recurs after any
                        // write inside it: widen reads to the loop end,
                        // and mark read-after-write through the back
                        // edge (a self-advancing `p = p + k` reads its
                        // own previous write every iteration).
                        for e in rw.values_mut() {
                            let read_in = e
                                .last_read
                                .is_some_and(|r| r >= body_start && r <= body_end);
                            if read_in {
                                e.last_read = Some(body_end);
                                if e.last_write
                                    .is_some_and(|w| w >= body_start && w <= body_end)
                                {
                                    e.recurs = true;
                                }
                            }
                        }
                    }
                    Stmt::Region { body, .. } => scan(body, pos, rw),
                    _ => {}
                }
            }
        }
        let mut rw = HashMap::new();
        let mut pos = 0u32;
        scan(&kernel.body, &mut pos, &mut rw);
        let mut out: Vec<(Sym, u32)> = rw
            .into_iter()
            .filter_map(|(sym, e)| {
                let w = e.last_write?;
                if e.recurs {
                    return None;
                }
                match e.last_read {
                    Some(r) if r > w => None,
                    _ => Some((sym, w)),
                }
            })
            .collect();
        out.sort();
        out
    }

    /// Maximum number of simultaneously-live `double` scalars — a lower
    /// bound on the vector registers an allocation needs (ignores the
    /// per-array partitioning).
    pub fn max_pressure(&self, kernel: &Kernel) -> usize {
        let mut best = 0usize;
        for pos in 0..self.positions {
            let live = self
                .ranges
                .iter()
                .filter(|(s, r)| kernel.syms.ty(**s) == Ty::F64 && r.contains(pos))
                .count();
            best = best.max(live);
        }
        best
    }
}

/// Walks `stmts` assigning canonical positions; every symbol referenced in
/// a statement at position `p` gets its range extended to `p`. For loops,
/// after the body is processed, every symbol referenced anywhere inside the
/// loop gets widened to `[min(first, loop_start), max(last, loop_end)]`.
fn collect(stmts: &[Stmt], pos: &mut u32, ranges: &mut HashMap<Sym, LiveRange>) {
    for s in stmts {
        let here = *pos;
        *pos += 1;
        let mut touched = Vec::new();
        stmt_uses(s, &mut touched);
        if let Some(d) = stmt_def(s) {
            touched.push(d);
        }
        for sym in touched {
            ranges
                .entry(sym)
                .and_modify(|r| {
                    r.first = r.first.min(here);
                    r.last = r.last.max(here);
                })
                .or_insert(LiveRange {
                    first: here,
                    last: here,
                });
        }
        match s {
            Stmt::For { body, .. } => {
                let body_start = *pos;
                collect(body, pos, ranges);
                let body_end = pos.saturating_sub(1);
                // Widen everything referenced inside the loop to the whole
                // loop span (loop-carried liveness through the back edge).
                for (_, r) in ranges.iter_mut() {
                    let inside = r.first.max(body_start) <= r.last.min(body_end)
                        && r.last >= body_start
                        && r.first <= body_end;
                    if inside {
                        r.first = r.first.min(here);
                        r.last = r.last.max(body_end);
                    }
                }
            }
            Stmt::Region { body, .. } => collect(body, pos, ranges),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    #[test]
    fn straight_line_ranges() {
        // 0: x = 1.0
        // 1: y = x * x
        // 2: z = y + 1.0
        let mut kb = KernelBuilder::new("t");
        let x = kb.local("x", Ty::F64);
        let y = kb.local("y", Ty::F64);
        let z = kb.local("z", Ty::F64);
        kb.push(assign(x, f64c(1.0)));
        kb.push(assign(y, mul(var(x), var(x))));
        kb.push(assign(z, add(var(y), f64c(1.0))));
        let k = kb.finish();
        let lv = Liveness::analyze(&k);
        assert_eq!(lv.range(x), Some(LiveRange { first: 0, last: 1 }));
        assert_eq!(lv.range(y), Some(LiveRange { first: 1, last: 2 }));
        assert_eq!(lv.range(z), Some(LiveRange { first: 2, last: 2 }));
        assert!(lv.dead_after(x, 1));
        assert!(!lv.dead_after(x, 0));
        assert_eq!(lv.dying_at(1), &[x][..]);
        assert_eq!(lv.positions(), 3);
    }

    /// Returns the kernel with its `acc` and `t`:
    ///
    /// ```text
    /// 0: acc = 0.0
    /// 1: for i              (loop spans positions 1..=3)
    /// 2:   t = A[i]
    /// 3:   acc = acc + t
    /// 4: Y[0] = acc
    /// ```
    fn accumulate_kernel() -> (Kernel, Sym, Sym) {
        let mut kb = KernelBuilder::new("accumulate");
        let a = kb.ptr_param("A");
        let y = kb.ptr_param("Y");
        let n = kb.int_param("n");
        let acc = kb.local("acc", Ty::F64);
        let t = kb.local("t", Ty::F64);
        let i = kb.loop_var("i");
        kb.push(assign(acc, f64c(0.0)));
        kb.push(for_(
            i,
            int(0),
            var(n),
            1,
            vec![assign(t, idx(a, var(i))), add_assign(acc, var(t))],
        ));
        kb.push(store(y, int(0), var(acc)));
        (kb.finish(), acc, t)
    }

    /// Returns the kernel with its `x`: `x = 0`, then a loop of
    /// `x = x + 1`, then (if `overwrite`) `x = 7` after the loop.
    fn advance_kernel(overwrite: bool) -> (Kernel, Sym) {
        let mut kb = KernelBuilder::new("advance");
        let n = kb.int_param("n");
        let x = kb.local("x", Ty::I64);
        let i = kb.loop_var("i");
        kb.push(assign(x, int(0)));
        kb.push(for_(
            i,
            int(0),
            var(n),
            1,
            vec![assign(x, add(var(x), int(1)))],
        ));
        if overwrite {
            kb.push(assign(x, int(7)));
        }
        (kb.finish(), x)
    }

    #[test]
    fn loop_widens_ranges_to_whole_loop() {
        let (k, acc, t) = accumulate_kernel();
        let lv = Liveness::analyze(&k);

        // t referenced only at 2 and 3, but the loop spans 1..=3, so t is
        // widened to at least the loop header.
        let rt = lv.range(t).unwrap();
        assert!(rt.first <= 1, "t range {rt:?} must reach the loop header");
        assert_eq!(rt.last, 3);

        // acc lives from 0 to the final store at 4.
        assert_eq!(lv.range(acc), Some(LiveRange { first: 0, last: 4 }));
        assert!(lv.live_at(acc, 2));
    }

    #[test]
    fn pressure_counts_simultaneous_f64s() {
        let mut kb = KernelBuilder::new("t");
        let a = kb.local("a", Ty::F64);
        let b = kb.local("b", Ty::F64);
        let c = kb.local("c", Ty::F64);
        kb.push(assign(a, f64c(1.0)));
        kb.push(assign(b, f64c(2.0)));
        kb.push(assign(c, add(var(a), var(b))));
        let k = kb.finish();
        let lv = Liveness::analyze(&k);
        assert_eq!(lv.max_pressure(&k), 3); // a, b, c all live at pos 2
    }

    #[test]
    fn unread_after_last_write_flags_dead_final_value() {
        // 0: x = 1.0
        // 1: y = x * x      <- y never read again: flagged
        // 2: Y[0] = x
        let mut kb = KernelBuilder::new("t");
        let yp = kb.ptr_param("Y");
        let x = kb.local("x", Ty::F64);
        let y = kb.local("y", Ty::F64);
        kb.push(assign(x, f64c(1.0)));
        kb.push(assign(y, mul(var(x), var(x))));
        kb.push(store(yp, int(0), var(x)));
        let k = kb.finish();
        let dead = Liveness::unread_after_last_write(&k);
        assert_eq!(dead, vec![(y, 1)]);
    }

    #[test]
    fn loop_carried_accumulator_is_not_flagged() {
        // acc is written each iteration and read the next time around
        // plus by the final store; the loop var is read by its own
        // bound check. Neither may flag.
        let (k, _, _) = accumulate_kernel();
        assert_eq!(Liveness::unread_after_last_write(&k), vec![]);
    }

    #[test]
    fn self_advancing_pointer_is_not_flagged() {
        // x = x + 1 inside the loop reads its own previous write through
        // the back edge on every iteration but the last: not dead code,
        // even though nothing reads x after the loop.
        let (k, _) = advance_kernel(false);
        assert_eq!(Liveness::unread_after_last_write(&k), vec![]);
    }

    #[test]
    fn write_after_loop_clears_backedge_cover() {
        // The loop's read covers the in-loop writes, but the write after
        // the loop is past every read: flagged at its position.
        let (k, x) = advance_kernel(true);
        assert_eq!(Liveness::unread_after_last_write(&k), vec![(x, 3)]);
    }

    #[test]
    fn dying_at_lists_exactly_the_ranges_ending_there() {
        for k in [
            accumulate_kernel().0,
            advance_kernel(false).0,
            advance_kernel(true).0,
        ] {
            let lv = Liveness::analyze(&k);
            for p in 0..=lv.positions() {
                let mut ending: Vec<Sym> = k
                    .syms
                    .all()
                    .filter(|&s| lv.range(s).is_some_and(|r| r.last == p))
                    .collect();
                ending.sort();
                assert_eq!(lv.dying_at(p), &ending[..], "{} at {p}", k.name);
            }
            assert!(lv.dying_at(lv.positions()).is_empty());
        }
    }

    #[test]
    fn unreferenced_symbol_has_no_range() {
        let mut kb = KernelBuilder::new("t");
        let unused = kb.local("unused", Ty::F64);
        let x = kb.local("x", Ty::F64);
        kb.push(assign(x, f64c(0.0)));
        let k = kb.finish();
        let lv = Liveness::analyze(&k);
        assert_eq!(lv.range(unused), None);
        assert!(lv.dead_after(unused, 0));
    }
}
