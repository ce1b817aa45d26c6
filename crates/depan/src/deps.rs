//! Dependence testing between pairs of affine array accesses.
//!
//! Subscripts are [`LinearForm`]s over loop variables and symbolic
//! parameters (leading dimensions, block sizes). [`dependence_on`]
//! classifies the dependence a pair of accesses carries on one chosen
//! loop variable:
//!
//! * Each subscript is first [`decompose`]d into per-loop-variable
//!   coefficient forms plus a loop-invariant rest.
//! * When both accesses have *identical* coefficient forms (the uniform
//!   case — by far the common one for generated DLA code), equating the
//!   two subscripts yields `Σ c_w·Δ_w = rest_f − rest_g` where `Δ_w`
//!   is the iteration distance on loop `w`. The terms are partitioned
//!   by their parameter-factor signature: a delinearization step that
//!   assumes distinct parameter products (`LDC·Δ_j` vs `1·Δ_i`) cannot
//!   cancel — valid because leading dimensions bound the extent of the
//!   dimensions below them. Per-signature Diophantine equations are
//!   then solved to a fixpoint, forcing distances where determined.
//! * When the coefficient forms differ, each access's variables are
//!   treated as independent unknowns and the solver only attempts an
//!   independence proof (GCD and signature infeasibility); otherwise
//!   the verdict is [`Verdict::Unknown`].
//!
//! Every `Unknown` is treated as a possible dependence by the legality
//! checker, so imprecision here is conservative, never unsound.

use std::collections::BTreeMap;

use augem_ir::Sym;
use augem_transforms::linear::{LinearForm, Term};

/// Outcome of a dependence test on one loop variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The two accesses never touch the same address.
    Independent,
    /// They may touch the same address, but only in the same iteration
    /// of the queried loop (distance forced to 0).
    LoopIndependent,
    /// Dependence carried by the queried loop with this constant
    /// iteration distance.
    Carried(i64),
    /// The analysis cannot decide; callers must assume a dependence.
    Unknown,
}

/// Greatest common divisor (non-negative; `gcd(0, 0) == 0`).
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// GCD feasibility test: does `Σ coeffs[i]·x_i = rhs` admit *any*
/// integer solution?
pub fn gcd_test(coeffs: &[i64], rhs: i64) -> bool {
    let g = coeffs.iter().fold(0, |acc, &c| gcd(acc, c));
    if g == 0 {
        rhs == 0
    } else {
        rhs % g == 0
    }
}

/// Bounds (Banerjee) feasibility test: can `Σ c_i·x_i` with
/// `x_i ∈ [lo_i, hi_i]` reach `rhs`? `terms` holds `(c, lo, hi)`.
pub fn bounds_test(terms: &[(i64, i64, i64)], rhs: i64) -> bool {
    let (mut lo, mut hi) = (0i64, 0i64);
    for &(c, l, h) in terms {
        if c >= 0 {
            lo = lo.saturating_add(c.saturating_mul(l));
            hi = hi.saturating_add(c.saturating_mul(h));
        } else {
            lo = lo.saturating_add(c.saturating_mul(h));
            hi = hi.saturating_add(c.saturating_mul(l));
        }
    }
    lo <= rhs && rhs <= hi
}

/// Canonicalizes a form: factors sorted within each term, terms sorted
/// and merged by factor list, zero terms dropped. Canonical forms
/// compare structurally.
pub fn canon(mut f: LinearForm) -> LinearForm {
    for t in &mut f.terms {
        t.factors.sort();
    }
    f.terms.sort_by(|a, b| a.factors.cmp(&b.factors));
    let mut out: Vec<Term> = Vec::new();
    for t in f.terms {
        match out.last_mut() {
            Some(last) if last.factors == t.factors => last.coeff += t.coeff,
            _ => out.push(t),
        }
    }
    out.retain(|t| t.coeff != 0);
    LinearForm { terms: out }
}

fn neg(mut f: LinearForm) -> LinearForm {
    for t in &mut f.terms {
        t.coeff = -t.coeff;
    }
    f
}

fn add_forms(mut a: LinearForm, b: LinearForm) -> LinearForm {
    a.terms.extend(b.terms);
    canon(a)
}

/// Splits `f` into per-loop-variable coefficient forms plus a
/// loop-invariant rest. Returns `None` when any term mentions a loop
/// variable more than once or mixes two loop variables (non-affine in
/// the iteration space) — callers must then treat the access as
/// unanalyzable.
pub fn decompose(
    f: &LinearForm,
    loop_vars: &[Sym],
) -> Option<(BTreeMap<Sym, LinearForm>, LinearForm)> {
    let mut coeffs: BTreeMap<Sym, LinearForm> = BTreeMap::new();
    let mut rest = LinearForm::default();
    for t in &f.terms {
        let mentioned: Vec<Sym> = t
            .factors
            .iter()
            .copied()
            .filter(|s| loop_vars.contains(s))
            .collect();
        match mentioned.len() {
            0 => rest.terms.push(t.clone()),
            1 => {
                let v = mentioned[0];
                let mut factors = t.factors.clone();
                if let Some(i) = factors.iter().position(|&s| s == v) {
                    factors.remove(i);
                }
                coeffs.entry(v).or_default().terms.push(Term {
                    coeff: t.coeff,
                    factors,
                });
            }
            _ => return None,
        }
    }
    let coeffs = coeffs
        .into_iter()
        .map(|(v, c)| (v, canon(c)))
        .filter(|(_, c)| !c.terms.is_empty())
        .collect();
    Some((coeffs, canon(rest)))
}

/// One per-signature Diophantine equation `Σ terms = rhs`. Unknowns are
/// iteration-distance variables, identified by an opaque index.
#[derive(Debug, Clone)]
struct Equation {
    terms: Vec<(usize, i64)>,
    rhs: i64,
}

/// Result of solving the uniform-case distance system.
#[derive(Debug, Clone)]
pub struct DepSolution {
    /// Distance per loop variable: `Some(d)` when the equations force
    /// it, `None` when unconstrained by the system.
    pub forced: BTreeMap<Sym, Option<i64>>,
    /// `false` when the system has no integer solution (accesses are
    /// provably independent).
    pub feasible: bool,
    /// Whether the pair fell in the uniform (equal-coefficient) case.
    pub uniform: bool,
}

/// Partitions terms of per-unknown coefficient forms and a rest form by
/// parameter-factor signature, building one Diophantine equation per
/// signature (the delinearization step described in the module docs).
fn partition(parts: &[(usize, &LinearForm)], rhs_form: &LinearForm) -> Vec<Equation> {
    let mut eqs: BTreeMap<Vec<Sym>, Equation> = BTreeMap::new();
    let blank = || Equation {
        terms: Vec::new(),
        rhs: 0,
    };
    for &(unknown, form) in parts {
        for t in &form.terms {
            eqs.entry(t.factors.clone())
                .or_insert_with(blank)
                .terms
                .push((unknown, t.coeff));
        }
    }
    for t in &rhs_form.terms {
        eqs.entry(t.factors.clone()).or_insert_with(blank).rhs += t.coeff;
    }
    eqs.into_values().collect()
}

/// Solves the equation system to a fixpoint: single-unknown equations
/// force distances; contradictions and GCD failures prove infeasibility.
/// Returns `(forced_by_index, feasible)`.
fn solve(n_unknowns: usize, eqs: &[Equation]) -> (Vec<Option<i64>>, bool) {
    let mut forced: Vec<Option<i64>> = vec![None; n_unknowns];
    loop {
        let mut changed = false;
        for eq in eqs {
            let mut rhs = eq.rhs;
            let mut open: Vec<(usize, i64)> = Vec::new();
            for &(u, c) in &eq.terms {
                match forced[u] {
                    Some(d) => rhs -= c * d,
                    None => open.push((u, c)),
                }
            }
            match open.len() {
                0 => {
                    if rhs != 0 {
                        return (forced, false);
                    }
                }
                1 => {
                    let (u, c) = open[0];
                    if rhs % c != 0 {
                        return (forced, false);
                    }
                    let d = rhs / c;
                    match forced[u] {
                        None => {
                            forced[u] = Some(d);
                            changed = true;
                        }
                        Some(prev) if prev != d => return (forced, false),
                        Some(_) => {}
                    }
                }
                _ => {
                    let coeffs: Vec<i64> = open.iter().map(|&(_, c)| c).collect();
                    if !gcd_test(&coeffs, rhs) {
                        return (forced, false);
                    }
                }
            }
        }
        if !changed {
            return (forced, true);
        }
    }
}

/// Solves the uniform-case distance system for a pair of decomposed
/// subscripts with identical coefficient forms.
pub fn uniform_solution(
    coeffs: &BTreeMap<Sym, LinearForm>,
    rest_f: &LinearForm,
    rest_g: &LinearForm,
) -> DepSolution {
    let vars: Vec<Sym> = coeffs.keys().copied().collect();
    let parts: Vec<(usize, &LinearForm)> = vars
        .iter()
        .enumerate()
        .map(|(i, v)| (i, &coeffs[v]))
        .collect();
    // f(i) = g(i + Δ)  ⇒  Σ c_w·Δ_w = rest_f − rest_g.
    let rhs_form = add_forms(rest_f.clone(), neg(rest_g.clone()));
    let eqs = partition(&parts, &rhs_form);
    let (forced_idx, feasible) = solve(vars.len(), &eqs);
    let forced = vars
        .iter()
        .copied()
        .zip(forced_idx)
        .collect::<BTreeMap<_, _>>();
    DepSolution {
        forced,
        feasible,
        uniform: true,
    }
}

/// Independence-only test for the non-uniform case: each access's loop
/// variables become independent unknowns; only signature infeasibility
/// and the GCD test are applied. `true` means provably independent.
fn nonuniform_independent(
    fc: &BTreeMap<Sym, LinearForm>,
    fr: &LinearForm,
    gc: &BTreeMap<Sym, LinearForm>,
    gr: &LinearForm,
) -> bool {
    // Σ fc_w·x_w − Σ gc_w·y_w = rest_g − rest_f.
    let mut parts: Vec<(usize, LinearForm)> = Vec::new();
    for (i, (_, c)) in fc.iter().enumerate() {
        parts.push((i, c.clone()));
    }
    let off = fc.len();
    for (i, (_, c)) in gc.iter().enumerate() {
        parts.push((off + i, neg(c.clone())));
    }
    let borrowed: Vec<(usize, &LinearForm)> = parts.iter().map(|(i, c)| (*i, c)).collect();
    let rhs_form = add_forms(gr.clone(), neg(fr.clone()));
    let eqs = partition(&borrowed, &rhs_form);
    let (_, feasible) = solve(parts.len(), &eqs);
    !feasible
}

/// Classifies the dependence between subscripts `f` and `g` (accesses
/// to the same array) with respect to loop variable `v`. `trip`, when
/// known, is the constant trip count of the loop over `v`: a forced
/// distance at least that large cannot occur inside the loop.
pub fn dependence_on(
    v: Sym,
    f: &LinearForm,
    g: &LinearForm,
    loop_vars: &[Sym],
    trip: Option<i64>,
) -> Verdict {
    match (decompose(f, loop_vars), decompose(g, loop_vars)) {
        (Some(f), Some(g)) => dependence_between(v, &f, &g, trip),
        _ => Verdict::Unknown,
    }
}

/// A subscript split by [`decompose`]: per-loop-variable coefficients
/// plus the loop-invariant rest.
pub(crate) type Decomposed = (BTreeMap<Sym, LinearForm>, LinearForm);

/// [`dependence_on`] for already decomposed subscripts, so a caller
/// testing many pairs decomposes each subscript once.
pub(crate) fn dependence_between(
    v: Sym,
    (fc, fr): &Decomposed,
    (gc, gr): &Decomposed,
    trip: Option<i64>,
) -> Verdict {
    if fc == gc {
        let sol = uniform_solution(fc, fr, gr);
        if !sol.feasible {
            return Verdict::Independent;
        }
        match sol.forced.get(&v) {
            Some(Some(0)) => Verdict::LoopIndependent,
            Some(Some(d)) => {
                if trip.is_some_and(|t| d.abs() >= t) {
                    Verdict::Independent
                } else {
                    Verdict::Carried(*d)
                }
            }
            // `v` unconstrained (absent from both subscripts, or only
            // GCD-tested): a dependence may exist at any distance.
            _ => Verdict::Unknown,
        }
    } else if nonuniform_independent(fc, fr, gc, gr) {
        Verdict::Independent
    } else {
        Verdict::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(coeff: i64, factors: &[Sym]) -> Term {
        Term {
            coeff,
            factors: factors.to_vec(),
        }
    }

    fn form(terms: &[Term]) -> LinearForm {
        canon(LinearForm {
            terms: terms.to_vec(),
        })
    }

    const I: Sym = Sym(0);
    const J: Sym = Sym(1);
    const LDC: Sym = Sym(2);

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(0, 0), 0);
    }

    #[test]
    fn gcd_test_cases() {
        assert!(gcd_test(&[2, 4], 6));
        assert!(!gcd_test(&[2, 4], 3));
        assert!(gcd_test(&[], 0));
        assert!(!gcd_test(&[], 1));
    }

    #[test]
    fn bounds_test_cases() {
        // x ∈ [0, 3]: rhs 5 unreachable, rhs 2 reachable.
        assert!(!bounds_test(&[(1, 0, 3)], 5));
        assert!(bounds_test(&[(1, 0, 3)], 2));
        // -2x with x ∈ [0, 3] reaches [-6, 0].
        assert!(bounds_test(&[(-2, 0, 3)], -4));
        assert!(!bounds_test(&[(-2, 0, 3)], 1));
    }

    #[test]
    fn decompose_gemm_subscript() {
        // j*LDC + i over loop vars {i, j}.
        let f = form(&[term(1, &[J, LDC]), term(1, &[I])]);
        let (coeffs, rest) = decompose(&f, &[I, J]).unwrap();
        assert_eq!(coeffs[&J], form(&[term(1, &[LDC])]));
        assert_eq!(coeffs[&I], form(&[term(1, &[])]));
        assert!(rest.terms.is_empty());
    }

    #[test]
    fn decompose_rejects_quadratic() {
        let f = form(&[term(1, &[I, I])]);
        assert!(decompose(&f, &[I]).is_none());
        let g = form(&[term(1, &[I, J])]);
        assert!(decompose(&g, &[I, J]).is_none());
    }

    #[test]
    fn gemm_store_load_is_loop_independent_on_both() {
        // C[j*LDC + i] store vs C[j*LDC + i] load: the signature
        // partition forces Δ_j = 0 (through LDC) and Δ_i = 0.
        let f = form(&[term(1, &[J, LDC]), term(1, &[I])]);
        assert_eq!(
            dependence_on(J, &f, &f, &[I, J], None),
            Verdict::LoopIndependent
        );
        assert_eq!(
            dependence_on(I, &f, &f, &[I, J], None),
            Verdict::LoopIndependent
        );
    }

    #[test]
    fn recurrence_is_carried() {
        // A[i+1] vs A[i]: distance forced to 1.
        let f = form(&[term(1, &[I]), term(1, &[])]);
        let g = form(&[term(1, &[I])]);
        assert_eq!(dependence_on(I, &f, &g, &[I], None), Verdict::Carried(1));
        assert_eq!(dependence_on(I, &g, &f, &[I], None), Verdict::Carried(-1));
    }

    #[test]
    fn distance_beyond_trip_is_independent() {
        let f = form(&[term(1, &[I]), term(8, &[])]);
        let g = form(&[term(1, &[I])]);
        assert_eq!(
            dependence_on(I, &f, &g, &[I], Some(4)),
            Verdict::Independent
        );
        assert_eq!(
            dependence_on(I, &f, &g, &[I], Some(16)),
            Verdict::Carried(8)
        );
    }

    #[test]
    fn unconstrained_var_is_unknown() {
        // C[j] pair with respect to i: Δ_i unconstrained.
        let f = form(&[term(1, &[J])]);
        assert_eq!(dependence_on(I, &f, &f, &[I, J], None), Verdict::Unknown);
        // ... but with respect to j it is loop-independent.
        assert_eq!(
            dependence_on(J, &f, &f, &[I, J], None),
            Verdict::LoopIndependent
        );
    }

    #[test]
    fn stride_parity_proves_independence() {
        // A[2i] vs A[2i+1]: 2Δ = 1 has no integer solution.
        let f = form(&[term(2, &[I])]);
        let g = form(&[term(2, &[I]), term(1, &[])]);
        assert_eq!(dependence_on(I, &f, &g, &[I], None), Verdict::Independent);
    }

    #[test]
    fn nonuniform_cases() {
        // A[4i+1] vs A[2i]: 4x − 2y = −1, gcd 2 ∤ 1 → independent.
        let f = form(&[term(4, &[I]), term(1, &[])]);
        let g = form(&[term(2, &[I])]);
        assert_eq!(dependence_on(I, &f, &g, &[I], None), Verdict::Independent);
        // A[2i] vs A[i]: solvable → unknown.
        let f2 = form(&[term(2, &[I])]);
        let g2 = form(&[term(1, &[I])]);
        assert_eq!(dependence_on(I, &f2, &g2, &[I], None), Verdict::Unknown);
    }

    #[test]
    fn non_affine_is_unknown() {
        let quad = LinearForm {
            terms: vec![term(1, &[I, I])],
        };
        let lin = form(&[term(1, &[I])]);
        assert_eq!(dependence_on(I, &quad, &lin, &[I], None), Verdict::Unknown);
    }

    #[test]
    fn uniform_solution_reports_distances() {
        // B[l*LDB + j] store/load pair shifted by 2 on l.
        let l = Sym(7);
        let ldb = Sym(8);
        let f = form(&[term(1, &[l, ldb]), term(2, &[ldb]), term(1, &[J])]);
        let g = form(&[term(1, &[l, ldb]), term(1, &[J])]);
        let (fc, fr) = decompose(&f, &[l, J]).unwrap();
        let (gc, gr) = decompose(&g, &[l, J]).unwrap();
        assert_eq!(fc, gc);
        let sol = uniform_solution(&fc, &fr, &gr);
        assert!(sol.feasible && sol.uniform);
        assert_eq!(sol.forced[&l], Some(2));
        assert_eq!(sol.forced[&J], Some(0));
    }
}
