//! Data prefetching (paper §2.1, Figure 13 lines 7–8 and 12).
//!
//! Inserts software prefetch statements "to preload array elements that
//! will be referenced in the next iterations of the loops":
//!
//! * for every pointer *loaded* inside an innermost loop, a read prefetch
//!   `read_dist` elements ahead is inserted at the top of that loop body;
//! * for every pointer *stored to* after an innermost loop (the `C` tile of
//!   GEMM), a write prefetch is inserted just before the loop, so the tile
//!   is in cache by the time the stores run.

use augem_ir::{int, prefetch_read, prefetch_write, Expr, Kernel, LValue, Stmt, Sym, Ty};

/// Prefetch-insertion configuration (a tuning dimension in `augem-tune`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefetchConfig {
    /// Elements ahead for streaming loads; `None` disables read prefetch.
    pub read_dist: Option<i64>,
    /// Insert write prefetches for post-loop store targets.
    pub write_prefetch: bool,
    /// Temporal locality hint (0–3, as in `__builtin_prefetch`).
    pub locality: u8,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            read_dist: Some(64),
            write_prefetch: true,
            locality: 3,
        }
    }
}

impl PrefetchConfig {
    /// No prefetching at all (the ablation baseline).
    pub fn disabled() -> Self {
        PrefetchConfig {
            read_dist: None,
            write_prefetch: false,
            locality: 0,
        }
    }
}

/// Inserts prefetches per `cfg`. Idempotent only in the sense that running
/// it twice doubles the prefetches — the pipeline runs it once, last.
pub fn insert_prefetch(k: &mut Kernel, cfg: &PrefetchConfig) {
    if cfg.read_dist.is_none() && !cfg.write_prefetch {
        return;
    }
    let ptr_ty = |s: Sym| k.syms.ty(s) == Ty::PtrF64;
    process(&mut k.body, cfg, &ptr_ty);
}

fn process(stmts: &mut Vec<Stmt>, cfg: &PrefetchConfig, is_ptr: &dyn Fn(Sym) -> bool) {
    let mut pos = 0;
    while pos < stmts.len() {
        let is_innermost_for = match &stmts[pos] {
            Stmt::For { body, .. } => !body.iter().any(|s| matches!(s, Stmt::For { .. })),
            _ => false,
        };
        match &mut stmts[pos] {
            Stmt::For { body, .. } if !is_innermost_for => {
                process(body, cfg, is_ptr);
                pos += 1;
            }
            Stmt::For { body, .. } => {
                // Innermost loop: read prefetches for loaded pointers.
                if let Some(dist) = cfg.read_dist {
                    let mut loaded = Vec::new();
                    for s in body.iter() {
                        collect_loaded_ptrs(s, is_ptr, &mut loaded);
                    }
                    for (off, base) in loaded.into_iter().enumerate() {
                        body.insert(off, prefetch_read(base, int(dist), cfg.locality));
                    }
                }
                // Write prefetches for pointers stored to after this loop
                // in the same block.
                if cfg.write_prefetch {
                    let mut stored = Vec::new();
                    for later in stmts[pos + 1..].iter() {
                        if let Stmt::Assign {
                            dst: LValue::ArrayRef { base, .. },
                            ..
                        } = later
                        {
                            if is_ptr(*base) && !stored.contains(base) {
                                stored.push(*base);
                            }
                        } else if matches!(later, Stmt::For { .. }) {
                            break; // only look at the store run right after
                        }
                    }
                    let n = stored.len();
                    for (off, base) in stored.into_iter().enumerate() {
                        stmts.insert(pos + off, prefetch_write(base, int(0), cfg.locality));
                    }
                    pos += n;
                }
                pos += 1;
            }
            Stmt::Region { body, .. } => {
                process(body, cfg, is_ptr);
                pos += 1;
            }
            _ => pos += 1,
        }
    }
}

/// Pointer symbols loaded (read through) by the statement.
fn collect_loaded_ptrs(s: &Stmt, is_ptr: &dyn Fn(Sym) -> bool, out: &mut Vec<Sym>) {
    fn expr(e: &Expr, is_ptr: &dyn Fn(Sym) -> bool, out: &mut Vec<Sym>) {
        match e {
            Expr::ArrayRef { base, index } => {
                if is_ptr(*base) && !out.contains(base) {
                    out.push(*base);
                }
                expr(index, is_ptr, out);
            }
            Expr::Bin(_, l, r) => {
                expr(l, is_ptr, out);
                expr(r, is_ptr, out);
            }
            _ => {}
        }
    }
    if let Stmt::Assign { src, .. } = s {
        expr(src, is_ptr, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::scalar_replace;
    use crate::strength::strength_reduce;
    use crate::unroll::unroll_and_jam;
    use augem_ir::print::print_kernel;
    use augem_ir::{ArgValue, Interpreter};
    use augem_kernels::{axpy_simple, gemm_simple};

    #[test]
    fn axpy_gets_read_prefetches() {
        let mut k = axpy_simple();
        strength_reduce(&mut k);
        insert_prefetch(&mut k, &PrefetchConfig::default());
        let c = print_kernel(&k);
        assert!(c.contains("__builtin_prefetch(&ptr_X"), "{c}");
        assert!(c.contains("__builtin_prefetch(&ptr_Y"), "{c}");
        assert!(c.contains("[64], 0, 3);"), "{c}");
    }

    #[test]
    fn gemm_gets_write_prefetch_for_c_tile() {
        let mut k = gemm_simple();
        unroll_and_jam(&mut k, "j", 2).unwrap();
        unroll_and_jam(&mut k, "i", 2).unwrap();
        strength_reduce(&mut k);
        scalar_replace(&mut k);
        insert_prefetch(&mut k, &PrefetchConfig::default());
        let c = print_kernel(&k);
        assert!(c.contains(", 1, 3);"), "write prefetch missing:\n{c}");
        assert!(c.contains(", 0, 3);"), "read prefetch missing:\n{c}");
    }

    #[test]
    fn disabled_config_inserts_nothing() {
        let mut k = axpy_simple();
        strength_reduce(&mut k);
        let before = print_kernel(&k);
        insert_prefetch(&mut k, &PrefetchConfig::disabled());
        assert_eq!(print_kernel(&k), before);
    }

    #[test]
    fn prefetch_does_not_change_semantics() {
        let n = 9usize;
        let args = || {
            vec![
                ArgValue::Int(n as i64),
                ArgValue::F64(1.5),
                ArgValue::Array((0..n).map(|x| x as f64).collect()),
                ArgValue::Array(vec![2.0; n]),
            ]
        };
        let expect = Interpreter::new().run(&axpy_simple(), args()).unwrap();
        let mut k = axpy_simple();
        strength_reduce(&mut k);
        insert_prefetch(&mut k, &PrefetchConfig::default());
        assert_eq!(Interpreter::new().run(&k, args()).unwrap(), expect);
    }
}
