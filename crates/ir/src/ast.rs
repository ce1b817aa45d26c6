//! The low-level C AST.
//!
//! The representation deliberately covers only the C subset appearing in
//! the paper's kernels (Figures 12–17): counted `for` loops, assignments
//! whose right-hand sides are scalar expressions, array loads/stores through
//! (possibly strength-reduced) pointers, and `__builtin_prefetch`-style
//! prefetch statements. After the Optimized C Kernel Generator runs, the
//! hot statements are in *three-address form*: one operator per statement
//! ([`Stmt::is_three_address`]).

use crate::sym::{Sym, SymbolTable, Ty};

/// Binary operators of the C subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    pub fn c_symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// `double` literal.
    F64(f64),
    /// Variable reference.
    Var(Sym),
    /// `base[index]` — `base` is a pointer-typed symbol.
    ArrayRef { base: Sym, index: Box<Expr> },
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Number of operator nodes in the expression.
    pub fn op_count(&self) -> usize {
        match self {
            Expr::Int(_) | Expr::F64(_) | Expr::Var(_) => 0,
            Expr::ArrayRef { index, .. } => index.op_count(),
            Expr::Bin(_, l, r) => 1 + l.op_count() + r.op_count(),
        }
    }

    /// If the expression is a compile-time integer constant, its value.
    pub fn as_const_int(&self) -> Option<i64> {
        match self {
            Expr::Int(v) => Some(*v),
            Expr::Bin(op, l, r) => {
                let (a, b) = (l.as_const_int()?, r.as_const_int()?);
                Some(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a.checked_div(b)?,
                })
            }
            _ => None,
        }
    }

    /// All symbols referenced by the expression, appended to `out`.
    pub fn collect_syms(&self, out: &mut Vec<Sym>) {
        match self {
            Expr::Int(_) | Expr::F64(_) => {}
            Expr::Var(s) => out.push(*s),
            Expr::ArrayRef { base, index } => {
                out.push(*base);
                index.collect_syms(out);
            }
            Expr::Bin(_, l, r) => {
                l.collect_syms(out);
                r.collect_syms(out);
            }
        }
    }
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    Var(Sym),
    ArrayRef { base: Sym, index: Box<Expr> },
}

/// Value carried by a template-annotation parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum AnnotValue {
    Sym(Sym),
    Int(i64),
    Syms(Vec<Sym>),
    Expr(Expr),
}

impl AnnotValue {
    pub fn as_sym(&self) -> Option<Sym> {
        match self {
            AnnotValue::Sym(s) => Some(*s),
            _ => None,
        }
    }
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AnnotValue::Int(v) => Some(*v),
            _ => None,
        }
    }
    pub fn as_syms(&self) -> Option<&[Sym]> {
        match self {
            AnnotValue::Syms(v) => Some(v),
            _ => None,
        }
    }
    pub fn as_expr(&self) -> Option<&Expr> {
        match self {
            AnnotValue::Expr(e) => Some(e),
            _ => None,
        }
    }
}

/// A template annotation attached by the Template Identifier (paper §2.2):
/// the template's name plus its instantiated parameters, e.g.
/// `mmCOMP(A, idx1, B, idx2, res)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Annot {
    pub template: String,
    pub params: Vec<(String, AnnotValue)>,
}

impl Annot {
    pub fn new(template: impl Into<String>) -> Self {
        Annot {
            template: template.into(),
            params: Vec::new(),
        }
    }

    pub fn with(mut self, key: impl Into<String>, value: AnnotValue) -> Self {
        self.params.push((key.into(), value));
        self
    }

    pub fn get(&self, key: &str) -> Option<&AnnotValue> {
        self.params.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `dst = src;`
    Assign { dst: LValue, src: Expr },
    /// `for (var = init; var < bound; var += step) { body }`
    For {
        var: Sym,
        init: Expr,
        bound: Expr,
        step: i64,
        body: Vec<Stmt>,
    },
    /// `__builtin_prefetch(&base[index], write, locality);`
    Prefetch {
        base: Sym,
        index: Expr,
        write: bool,
        locality: u8,
    },
    /// A region of statements tagged with a matched template (inserted by
    /// the Template Identifier; consumed by the Template Optimizer).
    Region { annot: Annot, body: Vec<Stmt> },
    /// A source comment (kept so printed snapshots match paper figures).
    Comment(String),
}

impl Stmt {
    /// Whether this statement is in three-address form: an assignment with
    /// at most one operator and flat operands.
    pub fn is_three_address(&self) -> bool {
        match self {
            Stmt::Assign { dst, src } => {
                let dst_ok = match dst {
                    LValue::Var(_) => true,
                    LValue::ArrayRef { index, .. } => index.op_count() == 0,
                };
                let src_ok = match src {
                    Expr::Int(_) | Expr::F64(_) | Expr::Var(_) => true,
                    Expr::ArrayRef { index, .. } => index.op_count() == 0,
                    Expr::Bin(_, l, r) => {
                        matches!(**l, Expr::Var(_) | Expr::Int(_) | Expr::F64(_))
                            && matches!(**r, Expr::Var(_) | Expr::Int(_) | Expr::F64(_))
                    }
                };
                dst_ok && src_ok
            }
            Stmt::Prefetch { .. } | Stmt::Comment(_) => true,
            _ => false,
        }
    }

    /// Recursively counts statements (loops/regions count their bodies).
    pub fn stmt_count(&self) -> usize {
        match self {
            Stmt::For { body, .. } | Stmt::Region { body, .. } => {
                1 + body.iter().map(Stmt::stmt_count).sum::<usize>()
            }
            _ => 1,
        }
    }
}

/// A kernel: a named C function over typed parameters.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub name: String,
    pub syms: SymbolTable,
    pub params: Vec<Sym>,
    pub body: Vec<Stmt>,
    /// Provenance of derived pointer locals: `ptr_A -> A`. Populated by
    /// strength reduction; used by the register allocator's per-array
    /// register classes (paper §3.1 classifies scalars by the *original*
    /// array they correlate to).
    pub ptr_origin: std::collections::HashMap<Sym, Sym>,
}

impl Kernel {
    pub fn new(name: impl Into<String>) -> Self {
        Kernel {
            name: name.into(),
            syms: SymbolTable::new(),
            params: Vec::new(),
            body: Vec::new(),
            ptr_origin: std::collections::HashMap::new(),
        }
    }

    /// Resolves a (possibly derived) pointer symbol to its original array.
    pub fn origin_of(&self, mut s: Sym) -> Sym {
        let mut hops = 0;
        while let Some(&o) = self.ptr_origin.get(&s) {
            s = o;
            hops += 1;
            if hops > 64 {
                break; // defensive: malformed provenance chain
            }
        }
        s
    }

    /// All pointer-typed parameters (the "arrays" of paper §3.1's R/m rule).
    pub fn array_params(&self) -> Vec<Sym> {
        self.params
            .iter()
            .copied()
            .filter(|s| self.syms.ty(*s) == Ty::PtrF64)
            .collect()
    }

    /// Total statement count (for size assertions in tests).
    pub fn stmt_count(&self) -> usize {
        self.body.iter().map(Stmt::stmt_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::SymKind;

    fn sym() -> Sym {
        Sym(0)
    }

    #[test]
    fn op_count_counts_operators() {
        let e = Expr::Bin(
            BinOp::Add,
            Box::new(Expr::Bin(
                BinOp::Mul,
                Box::new(Expr::Var(sym())),
                Box::new(Expr::Int(2)),
            )),
            Box::new(Expr::Int(1)),
        );
        assert_eq!(e.op_count(), 2);
        assert_eq!(Expr::Var(sym()).op_count(), 0);
    }

    #[test]
    fn const_int_folding() {
        let e = Expr::Bin(
            BinOp::Mul,
            Box::new(Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Int(3)),
                Box::new(Expr::Int(4)),
            )),
            Box::new(Expr::Int(2)),
        );
        assert_eq!(e.as_const_int(), Some(14));
        assert_eq!(Expr::Var(sym()).as_const_int(), None);
        let div0 = Expr::Bin(BinOp::Div, Box::new(Expr::Int(1)), Box::new(Expr::Int(0)));
        assert_eq!(div0.as_const_int(), None);
    }

    #[test]
    fn three_address_classification() {
        let mut t = SymbolTable::new();
        let a = t.define("A", Ty::PtrF64, SymKind::Param);
        let x = t.define("x", Ty::F64, SymKind::Local);
        let y = t.define("y", Ty::F64, SymKind::Local);

        // x = A[0]  -- 3AC
        let s1 = Stmt::Assign {
            dst: LValue::Var(x),
            src: Expr::ArrayRef {
                base: a,
                index: Box::new(Expr::Int(0)),
            },
        };
        assert!(s1.is_three_address());

        // x = y * y -- 3AC
        let s2 = Stmt::Assign {
            dst: LValue::Var(x),
            src: Expr::Bin(BinOp::Mul, Box::new(Expr::Var(y)), Box::new(Expr::Var(y))),
        };
        assert!(s2.is_three_address());

        // x = A[0] * y -- NOT 3AC (memory operand inside a binop)
        let s3 = Stmt::Assign {
            dst: LValue::Var(x),
            src: Expr::Bin(
                BinOp::Mul,
                Box::new(Expr::ArrayRef {
                    base: a,
                    index: Box::new(Expr::Int(0)),
                }),
                Box::new(Expr::Var(y)),
            ),
        };
        assert!(!s3.is_three_address());
    }

    #[test]
    fn annot_params_round_trip() {
        let an = Annot::new("mmCOMP")
            .with("A", AnnotValue::Sym(Sym(1)))
            .with("idx1", AnnotValue::Int(3))
            .with("res", AnnotValue::Syms(vec![Sym(2), Sym(3)]));
        assert_eq!(an.get("A").unwrap().as_sym(), Some(Sym(1)));
        assert_eq!(an.get("idx1").unwrap().as_int(), Some(3));
        assert_eq!(an.get("res").unwrap().as_syms().unwrap().len(), 2);
        assert!(an.get("missing").is_none());
    }

    #[test]
    fn kernel_array_params() {
        let mut k = Kernel::new("k");
        let a = k.syms.define("A", Ty::PtrF64, SymKind::Param);
        let n = k.syms.define("N", Ty::I64, SymKind::Param);
        k.params = vec![a, n];
        assert_eq!(k.array_params(), vec![a]);
    }

    #[test]
    fn stmt_count_recurses() {
        let mut t = SymbolTable::new();
        let i = t.define("i", Ty::I64, SymKind::LoopVar);
        let x = t.define("x", Ty::F64, SymKind::Local);
        let inner = Stmt::Assign {
            dst: LValue::Var(x),
            src: Expr::F64(0.0),
        };
        let f = Stmt::For {
            var: i,
            init: Expr::Int(0),
            bound: Expr::Int(4),
            step: 1,
            body: vec![inner.clone(), inner],
        };
        assert_eq!(f.stmt_count(), 3);
    }
}
