//! Interned symbols and their types.

use std::fmt;

/// The C subset's types. The paper's kernels are double-precision
/// throughout; integer scalars index arrays and count loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// `double`
    F64,
    /// `int` / `long` (we model all integers as 64-bit)
    I64,
    /// `double*`
    PtrF64,
}

impl Ty {
    /// C spelling of the type.
    pub fn c_name(self) -> &'static str {
        match self {
            Ty::F64 => "double",
            Ty::I64 => "long",
            Ty::PtrF64 => "double*",
        }
    }
}

/// What kind of binding a symbol is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymKind {
    /// Kernel formal parameter.
    Param,
    /// Kernel-local variable (declared at first assignment).
    Local,
    /// Loop induction variable.
    LoopVar,
}

/// An interned symbol; cheap to copy and compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct SymInfo {
    name: String,
    ty: Ty,
    kind: SymKind,
}

/// The symbol table owned by each [`crate::ast::Kernel`].
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    infos: Vec<SymInfo>,
    fresh_counter: u32,
}

impl SymbolTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a new symbol. Names need not be unique (the table is
    /// index-based), but [`SymbolTable::fresh`] guarantees fresh names.
    pub fn define(&mut self, name: impl Into<String>, ty: Ty, kind: SymKind) -> Sym {
        let s = Sym(self.infos.len() as u32);
        self.infos.push(SymInfo {
            name: name.into(),
            ty,
            kind,
        });
        s
    }

    /// Interns a new symbol with a unique generated name `prefix<N>`.
    pub fn fresh(&mut self, prefix: &str, ty: Ty, kind: SymKind) -> Sym {
        let n = self.fresh_counter;
        self.fresh_counter += 1;
        self.define(format!("{prefix}{n}"), ty, kind)
    }

    pub fn name(&self, s: Sym) -> &str {
        &self.infos[s.0 as usize].name
    }

    pub fn ty(&self, s: Sym) -> Ty {
        self.infos[s.0 as usize].ty
    }

    pub fn kind(&self, s: Sym) -> SymKind {
        self.infos[s.0 as usize].kind
    }

    pub fn len(&self) -> usize {
        self.infos.len()
    }

    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// All symbols in definition order.
    pub fn all(&self) -> impl Iterator<Item = Sym> + '_ {
        (0..self.infos.len() as u32).map(Sym)
    }

    /// Finds a symbol by name (first match).
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.infos
            .iter()
            .position(|i| i.name == name)
            .map(|i| Sym(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn define_and_query() {
        let mut t = SymbolTable::new();
        let a = t.define("A", Ty::PtrF64, SymKind::Param);
        let i = t.define("i", Ty::I64, SymKind::LoopVar);
        assert_eq!(t.name(a), "A");
        assert_eq!(t.ty(i), Ty::I64);
        assert_eq!(t.kind(a), SymKind::Param);
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup("A"), Some(a));
        assert_eq!(t.lookup("nope"), None);
    }

    #[test]
    fn fresh_names_are_unique() {
        let mut t = SymbolTable::new();
        let x = t.fresh("tmp", Ty::F64, SymKind::Local);
        let y = t.fresh("tmp", Ty::F64, SymKind::Local);
        assert_ne!(t.name(x), t.name(y));
        assert_ne!(x, y);
    }

    #[test]
    fn ty_c_names() {
        assert_eq!(Ty::F64.c_name(), "double");
        assert_eq!(Ty::PtrF64.c_name(), "double*");
        assert_eq!(Ty::I64.c_name(), "long");
    }

    #[test]
    fn all_iterates_in_order() {
        let mut t = SymbolTable::new();
        let a = t.define("a", Ty::F64, SymKind::Local);
        let b = t.define("b", Ty::F64, SymKind::Local);
        let v: Vec<Sym> = t.all().collect();
        assert_eq!(v, vec![a, b]);
    }
}
