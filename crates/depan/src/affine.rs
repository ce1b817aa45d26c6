//! Affine access analysis: loop nests, bounds, and per-array affine
//! access functions.
//!
//! [`AccessMap::of`] scans a kernel once and records every counted loop
//! and every array access (load or store) together with the
//! [`LinearForm`] normal form of its subscript. Statement positions use
//! the same pre-order numbering as `augem_ir::visit::walk_with_positions`
//! so findings can be reported against the canonical IR numbering.

use augem_ir::{Expr, Kernel, LValue, Stmt, Sym};
use augem_transforms::linear::LinearForm;

/// One counted loop of the kernel.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// Induction variable. Not unique across loops: unrolling emits a
    /// main and a remainder loop sharing the variable.
    pub var: Sym,
    pub init: Expr,
    pub bound: Expr,
    pub step: i64,
    /// Pre-order position of the loop header statement.
    pub pos: u32,
    /// One past the position of the last statement in the loop's subtree.
    pub end: u32,
    /// Induction variables of enclosing loops, outermost first.
    pub enclosing: Vec<Sym>,
}

impl LoopInfo {
    /// Trip count when `init` and `bound` are compile-time constants.
    pub fn const_trip(&self) -> Option<i64> {
        let (lo, hi) = (self.init.as_const_int()?, self.bound.as_const_int()?);
        if self.step <= 0 {
            return None;
        }
        Some(((hi - lo).max(0) + self.step - 1) / self.step)
    }

    /// Whether the statement at pre-order position `pos` is inside this
    /// loop's subtree (excluding the header itself).
    pub fn contains(&self, pos: u32) -> bool {
        self.pos < pos && pos < self.end
    }
}

/// One array access, affine-analyzed.
#[derive(Debug, Clone)]
pub struct Access {
    /// The (possibly strength-reduced) pointer the access goes through.
    pub base: Sym,
    /// The original array `base` derives from ([`Kernel::origin_of`]).
    pub origin: Sym,
    /// Affine normal form of the subscript; `None` when non-affine.
    pub index: Option<LinearForm>,
    pub write: bool,
    /// Pre-order position of the containing statement.
    pub pos: u32,
    /// Induction variables of enclosing loops, outermost first.
    pub loops: Vec<Sym>,
}

/// Every loop and array access of one kernel.
#[derive(Debug, Clone, Default)]
pub struct AccessMap {
    pub loops: Vec<LoopInfo>,
    pub accesses: Vec<Access>,
}

impl AccessMap {
    /// Scans `k` (prefetch statements are skipped: they never change
    /// program state, so they carry no dependences).
    pub fn of(k: &Kernel) -> AccessMap {
        Self::scan(k, true)
    }

    /// The loops of `k` alone, for checks that need no accesses.
    pub fn loops_of(k: &Kernel) -> Vec<LoopInfo> {
        Self::scan(k, false).loops
    }

    fn scan(k: &Kernel, accesses: bool) -> AccessMap {
        let mut map = AccessMap::default();
        let mut stack = Vec::new();
        let mut pos = 0u32;
        scan_block(&k.body, k, accesses, &mut stack, &mut pos, &mut map);
        map
    }

    /// The first (pre-order) loop whose induction variable is named
    /// `name` — the loop `transforms::unroll::rewrite_loop` would target.
    pub fn first_loop_named(&self, k: &Kernel, name: &str) -> Option<&LoopInfo> {
        self.loops.iter().find(|l| k.syms.name(l.var) == name)
    }

    /// All induction variables, deduplicated, outermost-first-seen.
    pub fn loop_vars(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        for l in &self.loops {
            if !out.contains(&l.var) {
                out.push(l.var);
            }
        }
        out
    }

    /// Accesses whose containing statement lies inside `l`'s subtree.
    pub fn accesses_in<'a>(&'a self, l: &'a LoopInfo) -> impl Iterator<Item = &'a Access> {
        self.accesses.iter().filter(move |a| l.contains(a.pos))
    }

    /// Constant trip count of the innermost loop over `v`, when every
    /// loop over `v` agrees (conservative `None` otherwise).
    pub fn trip_of(&self, v: Sym) -> Option<i64> {
        let mut trips = self
            .loops
            .iter()
            .filter(|l| l.var == v)
            .map(LoopInfo::const_trip);
        let first = trips.next()?;
        if trips.all(|t| t == first) {
            first
        } else {
            None
        }
    }
}

/// Records the loops of `stmts` and, when `accesses`, their array
/// accesses.
fn scan_block(
    stmts: &[Stmt],
    k: &Kernel,
    accesses: bool,
    stack: &mut Vec<Sym>,
    pos: &mut u32,
    map: &mut AccessMap,
) {
    for s in stmts {
        let here = *pos;
        *pos += 1;
        match s {
            Stmt::Assign { .. } if !accesses => {}
            Stmt::Assign { dst, src } => {
                if let LValue::ArrayRef { base, index } = dst {
                    push_access(map, k, *base, index, true, here, stack);
                    scan_expr(index, k, here, stack, map);
                }
                scan_expr(src, k, here, stack, map);
            }
            Stmt::For {
                var,
                init,
                bound,
                step,
                body,
            } => {
                if accesses {
                    scan_expr(init, k, here, stack, map);
                    scan_expr(bound, k, here, stack, map);
                }
                let loop_idx = map.loops.len();
                map.loops.push(LoopInfo {
                    var: *var,
                    init: init.clone(),
                    bound: bound.clone(),
                    step: *step,
                    pos: here,
                    end: here, // patched below
                    enclosing: stack.clone(),
                });
                stack.push(*var);
                scan_block(body, k, accesses, stack, pos, map);
                stack.pop();
                map.loops[loop_idx].end = *pos;
            }
            Stmt::Region { body, .. } => {
                scan_block(body, k, accesses, stack, pos, map);
            }
            // Prefetches never change program state: no dependence.
            Stmt::Prefetch { .. } | Stmt::Comment(_) => {}
        }
    }
}

fn scan_expr(e: &Expr, k: &Kernel, pos: u32, stack: &[Sym], map: &mut AccessMap) {
    match e {
        Expr::ArrayRef { base, index } => {
            push_access(map, k, *base, index, false, pos, stack);
            scan_expr(index, k, pos, stack, map);
        }
        Expr::Bin(_, l, r) => {
            scan_expr(l, k, pos, stack, map);
            scan_expr(r, k, pos, stack, map);
        }
        _ => {}
    }
}

fn push_access(
    map: &mut AccessMap,
    k: &Kernel,
    base: Sym,
    index: &Expr,
    write: bool,
    pos: u32,
    stack: &[Sym],
) {
    map.accesses.push(Access {
        base,
        origin: k.origin_of(base),
        index: LinearForm::of(index),
        write,
        pos,
        loops: stack.to_vec(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_kernels::{dot_simple, gemm_simple};

    #[test]
    fn gemm_loops_and_accesses() {
        let k = gemm_simple();
        let map = AccessMap::of(&k);
        assert_eq!(map.loops.len(), 3);
        let names: Vec<&str> = map.loops.iter().map(|l| k.syms.name(l.var)).collect();
        assert_eq!(names, vec!["j", "i", "l"]);
        assert_eq!(map.loops[2].enclosing.len(), 2);
        // A load, B load, C load, C store.
        let writes = map.accesses.iter().filter(|a| a.write).count();
        assert_eq!(writes, 1);
        assert_eq!(map.accesses.len(), 4);
        for a in &map.accesses {
            assert!(a.index.is_some(), "all GEMM subscripts are affine");
            assert_eq!(a.origin, a.base, "no derived pointers before SR");
        }
    }

    #[test]
    fn loop_subtree_extents_cover_bodies() {
        let k = gemm_simple();
        let map = AccessMap::of(&k);
        let l_loop = map.first_loop_named(&k, "l").unwrap();
        // Every access of A and B sits inside the l loop.
        for a in &map.accesses {
            let name = k.syms.name(a.origin);
            if name == "A" || name == "B" {
                assert!(l_loop.contains(a.pos), "{name} at {}", a.pos);
            } else {
                assert!(!l_loop.contains(a.pos));
            }
        }
    }

    #[test]
    fn const_trip_counts() {
        let k = dot_simple();
        let map = AccessMap::of(&k);
        // Bound is the symbolic `n`: no constant trip count.
        assert_eq!(map.loops[0].const_trip(), None);
        let li = LoopInfo {
            var: map.loops[0].var,
            init: Expr::Int(1),
            bound: Expr::Int(8),
            step: 2,
            pos: 0,
            end: 1,
            enclosing: Vec::new(),
        };
        assert_eq!(li.const_trip(), Some(4));
    }
}
