//! The proof-carrying transform checker: replays a [`TransformLog`]
//! and proves each pass's precondition against the kernel snapshots,
//! independently of the pass implementations in `augem-transforms`.
//!
//! The shape mirrors the register allocator's `BindingLog` replay in
//! `augem-verify`: the generator records what it did and what it relied
//! on; this module re-derives every claim from scratch and emits a
//! `T`-series diagnostic for each one it cannot prove.
//!
//! | Rule | Pass | Precondition proved |
//! |---|---|---|
//! | T001 | unroll&jam / unroll | the named loop exists |
//! | T002 | unroll&jam / unroll | the unroll factor is positive |
//! | T003 | unroll&jam | no body-defined local is live into the body |
//! | T004 | unroll&jam | no carried (or unprovable) array dependence on the jammed loop |
//! | T005 | unroll | every expanded local really is a pure `+=` accumulator |
//! | T006 | strength reduction | stride/base forms are loop-invariant and the increment sits in the right loop |
//! | T007 | strength reduction | exactly one increment exists and it matches `coeff·step` |
//! | T008 | scalar replacement | no may-alias write between a grouped load and its store |
//! | T009 | scalar replacement | a clobbered source scalar is dead after its store |
//! | T010 | prefetch | prefetch distances lie inside the configured window |
//! | T011 | prefetch | every prefetched pointer is actually accessed nearby |
//! | T012 | (chain) | each snapshot continues exactly from the previous one |

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use augem_ir::visit::{stmt_def, stmt_uses, walk_with_positions};
use augem_ir::{BinOp, Expr, Kernel, LValue, Stmt, Sym, SymKind, Ty};
use augem_transforms::linear::LinearForm;
use augem_transforms::{PassRecord, PrefetchConfig, SrGroup, TransformLog, TransformStep};
use augem_verify::{Diagnostic, Rule, Span};

use crate::affine::AccessMap;
use crate::deps::{canon, decompose, dependence_between, Decomposed, Verdict};

/// Replays `log` (as produced by
/// `augem_transforms::generate_optimized_logged` on `source`) and
/// returns every transform-legality violation found. When
/// `final_kernel` is given, it must equal the last step's result
/// (pass `None` when later stages — e.g. template identification —
/// are allowed to have rewritten the kernel further).
pub fn check_transforms(
    source: &Kernel,
    log: &TransformLog,
    final_kernel: Option<&Kernel>,
) -> Vec<Diagnostic> {
    let mut replay = Replay::default();
    replay.check(source, &log.steps);
    let last = log.steps.last().map_or(source, |s| &*s.after);
    replay.finish(last, final_kernel)
}

/// A replay of a log's leading steps, resumable over the steps that
/// follow: the findings so far, kept in the order [`check_transforms`]
/// reports them, and the strength-reduction facts gathered.
#[derive(Debug, Clone, Default)]
struct Replay {
    /// Steps replayed so far (numbers the T012 messages).
    steps: usize,
    /// T012 findings: the chain check runs ahead of the pass checks.
    chain: Vec<Diagnostic>,
    /// Per-pass precondition findings.
    passes: Vec<Diagnostic>,
    /// Strength-reduction facts accumulate so later scalar-replacement
    /// checks can resolve derived pointers.
    sr_facts: HashMap<Sym, SrGroup>,
}

impl Replay {
    /// Replays `steps`, the first of which must start from `prev` (the
    /// source, or the last step replayed so far).
    fn check<'a>(&mut self, mut prev: &'a Kernel, steps: &'a [Arc<TransformStep>]) {
        for step in steps {
            // T012: the snapshot chain must be gapless. A snapshot shared
            // with the previous step is the same allocation.
            if !std::ptr::eq(&*step.before, prev) && !same_kernel(&step.before, prev) {
                self.chain.push(Diagnostic::new(
                    Rule::LogDiscontinuity,
                    Span::Kernel,
                    format!(
                        "step {} ({}) does not start from the previous step's result",
                        self.steps,
                        step.pass.name()
                    ),
                ));
            }
            prev = &step.after;
            self.steps += 1;
            let diags = &mut self.passes;
            match &step.pass {
                PassRecord::UnrollJam { var, factor } => {
                    check_unroll_jam(step, var, *factor, diags);
                }
                PassRecord::UnrollInner {
                    var,
                    factor,
                    accumulators,
                    ..
                } => {
                    check_unroll_inner(step, var, *factor, accumulators, diags);
                }
                PassRecord::StrengthReduce { groups } => {
                    check_strength(step, groups, diags);
                    for g in groups {
                        self.sr_facts.insert(g.ptr, g.clone());
                    }
                }
                PassRecord::ScalarReplace => check_scalar(step, &self.sr_facts, diags),
                PassRecord::Prefetch { config } => check_prefetch(step, config, diags),
            }
        }
    }

    /// Every finding, given `last`, the result of the last step replayed
    /// (or the source): the chain's, then `final_kernel`'s link to
    /// `last`, then the passes', deduplicated.
    fn finish(mut self, last: &Kernel, final_kernel: Option<&Kernel>) -> Vec<Diagnostic> {
        if let Some(fk) = final_kernel {
            if !std::ptr::eq(fk, last) && !same_kernel(fk, last) {
                self.chain.push(Diagnostic::new(
                    Rule::LogDiscontinuity,
                    Span::Kernel,
                    "final kernel does not match the last recorded step's result".to_string(),
                ));
            }
        }
        self.chain.append(&mut self.passes);
        augem_verify::dedup(self.chain)
    }
}

/// The replay of one log prefix, kept so that every log which starts
/// with the same steps re-checks only the steps after them. The memo is
/// tied to the prefix's own snapshots: a log whose leading steps are not
/// those very allocations, or whose source is not the prefix's, is
/// replayed from scratch, so a forged log never reuses a verdict.
#[derive(Debug)]
pub struct PrefixVerdict {
    source: Arc<Kernel>,
    steps: Vec<Arc<TransformStep>>,
    replay: Replay,
}

impl PrefixVerdict {
    /// Replays `steps`, which start from `source`.
    pub fn new(source: Arc<Kernel>, steps: Vec<Arc<TransformStep>>) -> Self {
        let mut replay = Replay::default();
        replay.check(&source, &steps);
        PrefixVerdict {
            source,
            steps,
            replay,
        }
    }

    /// Exactly [`check_transforms`]`(source, log, final_kernel)`,
    /// replaying only the steps after the prefix when `source` and the
    /// log's leading steps are the prefix's own.
    pub fn check(
        &self,
        source: &Kernel,
        log: &TransformLog,
        final_kernel: Option<&Kernel>,
    ) -> Vec<Diagnostic> {
        let n = self.steps.len();
        let shared = std::ptr::eq(source, &*self.source)
            && log.steps.len() >= n
            && log
                .steps
                .iter()
                .zip(&self.steps)
                .all(|(a, b)| Arc::ptr_eq(a, b));
        if !shared {
            return check_transforms(source, log, final_kernel);
        }
        let mut replay = self.replay.clone();
        let prev = self.steps.last().map_or(source, |s| &*s.after);
        replay.check(prev, &log.steps[n..]);
        let last = log.steps.last().map_or(source, |s| &*s.after);
        replay.finish(last, final_kernel)
    }
}

/// Does `e` mention `x` (as a variable or an array base)? Allocation-
/// free counterpart of `collect_syms` + `contains` for the hot
/// liveness and accumulator scans.
fn expr_mentions(e: &Expr, x: Sym) -> bool {
    match e {
        Expr::Int(_) | Expr::F64(_) => false,
        Expr::Var(s) => *s == x,
        Expr::ArrayRef { base, index } => *base == x || expr_mentions(index, x),
        Expr::Bin(_, l, r) => expr_mentions(l, x) || expr_mentions(r, x),
    }
}

/// Does statement `s` *use* `x`? Mirrors `augem_ir::visit::stmt_uses`
/// without building the symbol vector.
fn stmt_mentions(s: &Stmt, x: Sym) -> bool {
    match s {
        Stmt::Assign { dst, src } => {
            matches!(dst, LValue::ArrayRef { base, index } if *base == x || expr_mentions(index, x))
                || expr_mentions(src, x)
        }
        Stmt::For { init, bound, .. } => expr_mentions(init, x) || expr_mentions(bound, x),
        Stmt::Prefetch { base, index, .. } => *base == x || expr_mentions(index, x),
        Stmt::Region { .. } | Stmt::Comment(_) => false,
    }
}

/// Structural equality of two snapshots: same function name, same
/// parameter list, same statement tree, same pointer provenance.
/// Symbols are compared by id — the chain's snapshots all extend one
/// symbol table, so ids are stable across it (and a forged snapshot
/// from some other derivation disagrees in ids even faster than in
/// rendered text).
fn same_kernel(a: &Kernel, b: &Kernel) -> bool {
    a.name == b.name && a.params == b.params && a.body == b.body && a.ptr_origin == b.ptr_origin
}

// ---------------------------------------------------------------------------
// unroll&jam: T001 / T002 / T003 / T004
// ---------------------------------------------------------------------------

fn check_unroll_jam(step: &TransformStep, var: &str, factor: usize, diags: &mut Vec<Diagnostic>) {
    let k = &step.before;
    if factor == 0 {
        diags.push(Diagnostic::new(
            Rule::BadUnrollFactor,
            Span::Kernel,
            format!("unroll&jam of loop `{var}` recorded with factor 0"),
        ));
        return;
    }
    let map = AccessMap::of(k);
    let Some(l) = map.first_loop_named(k, var) else {
        diags.push(Diagnostic::new(
            Rule::JamLoopMissing,
            Span::Kernel,
            format!("unroll&jam records loop `{var}` but the kernel has no such loop"),
        ));
        return;
    };

    // T003: a local that is both defined in the jammed body and read
    // before its first definition would read its *previous iteration's*
    // value — per-copy renaming during jamming breaks that.
    if let Some(body) = first_loop_body(&k.body, var, k) {
        let mut defined_in_body = HashSet::new();
        collect_local_defs(body, k, &mut defined_in_body);
        let mut seen = HashSet::new();
        let mut live_in = Vec::new();
        read_before_write(body, &defined_in_body, &mut seen, &mut live_in);
        for s in live_in {
            diags.push(Diagnostic::new(
                Rule::JamLiveInLocal,
                Span::Ir(l.pos),
                format!(
                    "jamming loop `{var}` would duplicate local `{}`, which is read before it is written",
                    k.syms.name(s)
                ),
            ));
        }
    }

    // T004: jamming reorders iterations of `var` relative to the body's
    // statement order; any dependence carried by `var` (or one the
    // analysis cannot rule out) between two accesses where at least one
    // writes makes that reordering unsafe.
    let trip = map.trip_of(l.var);
    let loop_vars = map.loop_vars();
    let inside: Vec<&crate::affine::Access> = map.accesses_in(l).collect();
    let split: Vec<Option<Decomposed>> = inside
        .iter()
        .map(|a| a.index.as_ref().and_then(|f| decompose(f, &loop_vars)))
        .collect();
    for (i, a) in inside.iter().enumerate() {
        for (j, b) in inside.iter().enumerate().skip(i) {
            if !a.write && !b.write {
                continue;
            }
            // Distinct source arrays never alias (kernel parameters are
            // independent allocations).
            if a.origin != b.origin {
                continue;
            }
            let verdict = match (&split[i], &split[j]) {
                (Some(f), Some(g)) => dependence_between(l.var, f, g, trip),
                _ => Verdict::Unknown,
            };
            let word = match verdict {
                Verdict::Independent | Verdict::LoopIndependent => continue,
                Verdict::Carried(_) => "a carried",
                Verdict::Unknown => "an unprovable",
            };
            diags.push(Diagnostic::new(
                Rule::JamCarriedDependence,
                Span::Ir(a.pos),
                format!(
                    "jamming loop `{var}` may reorder {word} dependence on array `{}` (accesses at ir stmts {} and {})",
                    k.syms.name(a.origin),
                    a.pos,
                    b.pos
                ),
            ));
        }
    }
}

/// Body of the first (pre-order) loop whose variable is named `var` —
/// the loop `transforms::unroll::rewrite_loop` targets.
fn first_loop_body<'a>(stmts: &'a [Stmt], var: &str, k: &Kernel) -> Option<&'a [Stmt]> {
    for s in stmts {
        match s {
            Stmt::For { var: v, body, .. } => {
                if k.syms.name(*v) == var {
                    return Some(body);
                }
                if let Some(b) = first_loop_body(body, var, k) {
                    return Some(b);
                }
            }
            Stmt::Region { body, .. } => {
                if let Some(b) = first_loop_body(body, var, k) {
                    return Some(b);
                }
            }
            _ => {}
        }
    }
    None
}

fn collect_local_defs(stmts: &[Stmt], k: &Kernel, out: &mut HashSet<Sym>) {
    for s in stmts {
        if let Some(d) = stmt_def(s) {
            if k.syms.kind(d) == SymKind::Local {
                out.insert(d);
            }
        }
        match s {
            Stmt::For { body, .. } | Stmt::Region { body, .. } => collect_local_defs(body, k, out),
            _ => {}
        }
    }
}

/// Linear pre-order walk flagging locals from `candidates` whose first
/// touch is a read.
fn read_before_write(
    stmts: &[Stmt],
    candidates: &HashSet<Sym>,
    defined: &mut HashSet<Sym>,
    bad: &mut Vec<Sym>,
) {
    let mut uses = Vec::new();
    for s in stmts {
        uses.clear();
        stmt_uses(s, &mut uses);
        for &u in &uses {
            if candidates.contains(&u) && !defined.contains(&u) && !bad.contains(&u) {
                bad.push(u);
            }
        }
        if let Some(d) = stmt_def(s) {
            defined.insert(d);
        }
        match s {
            Stmt::For { body, .. } | Stmt::Region { body, .. } => {
                read_before_write(body, candidates, defined, bad);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// inner unrolling: T001 / T002 / T005
// ---------------------------------------------------------------------------

fn check_unroll_inner(
    step: &TransformStep,
    var: &str,
    factor: usize,
    accumulators: &[Sym],
    diags: &mut Vec<Diagnostic>,
) {
    let k = &step.before;
    if factor == 0 {
        diags.push(Diagnostic::new(
            Rule::BadUnrollFactor,
            Span::Kernel,
            format!("inner unroll of loop `{var}` recorded with factor 0"),
        ));
        return;
    }
    let Some(body) = first_loop_body(&k.body, var, k) else {
        diags.push(Diagnostic::new(
            Rule::JamLoopMissing,
            Span::Kernel,
            format!("inner unroll records loop `{var}` but the kernel has no such loop"),
        ));
        return;
    };
    // T005: accumulator expansion reassociates a floating-point
    // reduction. That is only the advertised lane-wise reassociation
    // when every in-loop occurrence of the local is `acc = acc + e`
    // with `e` free of `acc`.
    for &acc in accumulators {
        if k.syms.ty(acc) != Ty::F64 || k.syms.kind(acc) != SymKind::Local {
            diags.push(Diagnostic::new(
                Rule::ExpandNotAccumulator,
                Span::Kernel,
                format!("expanded symbol `{}` is not an F64 local", k.syms.name(acc)),
            ));
            continue;
        }
        let mut offending = false;
        check_accumulator_uses(body, acc, &mut offending);
        if offending {
            diags.push(Diagnostic::new(
                Rule::ExpandNotAccumulator,
                Span::Kernel,
                format!(
                    "expanded local `{}` is not a pure `+=` accumulator in loop `{var}`",
                    k.syms.name(acc)
                ),
            ));
        }
    }
}

/// Does `acc` occur in the body other than as `acc = acc + e` with `e`
/// free of `acc`?
fn check_accumulator_uses(stmts: &[Stmt], acc: Sym, offending: &mut bool) {
    for s in stmts {
        if is_pure_accumulation(s, acc) {
            continue;
        }
        if stmt_mentions(s, acc) || stmt_def(s) == Some(acc) {
            *offending = true;
        }
        match s {
            Stmt::For { body, .. } | Stmt::Region { body, .. } => {
                check_accumulator_uses(body, acc, offending);
            }
            _ => {}
        }
    }
}

fn is_pure_accumulation(s: &Stmt, acc: Sym) -> bool {
    let Stmt::Assign {
        dst: LValue::Var(d),
        src: Expr::Bin(BinOp::Add, l, r),
    } = s
    else {
        return false;
    };
    if *d != acc {
        return false;
    }
    let (lhs_is_acc, rest) = match (l.as_ref(), r.as_ref()) {
        (Expr::Var(v), rest) if *v == acc => (true, rest),
        (rest, Expr::Var(v)) if *v == acc => (true, rest),
        _ => (false, l.as_ref()),
    };
    if !lhs_is_acc {
        return false;
    }
    !expr_mentions(rest, acc)
}

// ---------------------------------------------------------------------------
// strength reduction: T006 / T007
// ---------------------------------------------------------------------------

fn check_strength(step: &TransformStep, groups: &[SrGroup], diags: &mut Vec<Diagnostic>) {
    let k = &step.after;
    let loops = AccessMap::loops_of(k);
    // Every self-referential pointer add `p = p + inc` in the kernel.
    let mut incs: Vec<(u32, Sym, Expr)> = Vec::new();
    walk_with_positions(&k.body, &mut |pos, s| {
        if let Stmt::Assign {
            dst: LValue::Var(p),
            src: Expr::Bin(BinOp::Add, l, r),
        } = s
        {
            if matches!(l.as_ref(), Expr::Var(q) if q == p) {
                incs.push((pos, *p, r.as_ref().clone()));
            }
        }
    });

    for g in groups {
        let pname = k.syms.name(g.ptr);
        let vname = k.syms.name(g.var);
        if g.coeff.is_zero() {
            diags.push(Diagnostic::new(
                Rule::InductionIllFormed,
                Span::Kernel,
                format!("induction pointer `{pname}` has a zero stride coefficient"),
            ));
            continue;
        }
        if g.coeff.mentions(g.var) || g.core.mentions(g.var) {
            diags.push(Diagnostic::new(
                Rule::InductionIllFormed,
                Span::Kernel,
                format!(
                    "induction pointer `{pname}`'s stride or base offset varies with its own loop `{vname}`"
                ),
            ));
            continue;
        }
        let mine: Vec<&(u32, Sym, Expr)> = incs.iter().filter(|(_, p, _)| *p == g.ptr).collect();
        if mine.len() != 1 {
            diags.push(Diagnostic::new(
                Rule::InductionStrideMismatch,
                Span::Kernel,
                format!(
                    "induction pointer `{pname}` has {} increments (exactly one expected)",
                    mine.len()
                ),
            ));
            continue;
        }
        let (pos, _, inc) = mine[0];
        // The increment must run once per iteration of the loop over
        // `g.var`, i.e. its innermost enclosing loop must be that loop.
        let host = loops
            .iter()
            .filter(|l| l.contains(*pos))
            .max_by_key(|l| l.pos);
        let Some(host) = host else {
            diags.push(Diagnostic::new(
                Rule::InductionIllFormed,
                Span::Ir(*pos),
                format!("induction pointer `{pname}`'s increment is not inside any loop"),
            ));
            continue;
        };
        if host.var != g.var {
            diags.push(Diagnostic::new(
                Rule::InductionIllFormed,
                Span::Ir(*pos),
                format!(
                    "induction pointer `{pname}`'s increment sits in loop `{}`, not loop `{vname}`",
                    k.syms.name(host.var)
                ),
            ));
            continue;
        }
        // Stride and base offset must be invariant inside the host loop.
        let inner_vars: Vec<Sym> = loops
            .iter()
            .filter(|l2| host.contains(l2.pos))
            .map(|l2| l2.var)
            .collect();
        if inner_vars
            .iter()
            .any(|&v| g.coeff.mentions(v) || g.core.mentions(v))
        {
            diags.push(Diagnostic::new(
                Rule::InductionIllFormed,
                Span::Ir(*pos),
                format!(
                    "induction pointer `{pname}`'s stride or base offset varies inside loop `{vname}`"
                ),
            ));
            continue;
        }
        // T007: the increment must equal coeff·step.
        let expect = canon(scale(&g.coeff, g.step));
        match LinearForm::of(inc).map(canon) {
            Some(f) if f == expect => {}
            _ => {
                diags.push(Diagnostic::new(
                    Rule::InductionStrideMismatch,
                    Span::Ir(*pos),
                    format!(
                        "induction pointer `{pname}`'s increment does not equal its stride times the loop step"
                    ),
                ));
            }
        }
    }
}

fn scale(f: &LinearForm, s: i64) -> LinearForm {
    let mut f = f.clone();
    for t in &mut f.terms {
        t.coeff *= s;
    }
    f
}

// ---------------------------------------------------------------------------
// scalar replacement: T008 / T009
// ---------------------------------------------------------------------------

fn check_scalar(
    step: &TransformStep,
    sr_facts: &HashMap<Sym, SrGroup>,
    diags: &mut Vec<Diagnostic>,
) {
    let k = &step.after;
    let mut blocks: Vec<(&[Stmt], Vec<u32>)> = Vec::new();
    let mut pos = 0u32;
    collect_blocks(&k.body, &mut pos, &mut blocks);
    for (stmts, positions) in &blocks {
        check_scalar_block(k, stmts, positions, sr_facts, diags);
    }
}

/// Every statement block with the canonical position of each statement.
fn collect_blocks<'a>(stmts: &'a [Stmt], pos: &mut u32, out: &mut Vec<(&'a [Stmt], Vec<u32>)>) {
    let mut positions = Vec::with_capacity(stmts.len());
    for s in stmts {
        positions.push(*pos);
        *pos += 1;
        match s {
            Stmt::For { body, .. } | Stmt::Region { body, .. } => collect_blocks(body, pos, out),
            _ => {}
        }
    }
    out.push((stmts, positions));
}

fn check_scalar_block(
    k: &Kernel,
    stmts: &[Stmt],
    positions: &[u32],
    sr_facts: &HashMap<Sym, SrGroup>,
    diags: &mut Vec<Diagnostic>,
) {
    // Canonical index form of every top-level array store, computed
    // once — the load→store pairing below would otherwise re-derive
    // them per load (quadratic in unrolled block sizes).
    let store_forms: Vec<Option<(Sym, LinearForm)>> = stmts
        .iter()
        .map(|s| match s {
            Stmt::Assign {
                dst: LValue::ArrayRef { base, index },
                ..
            } => LinearForm::of(index).map(canon).map(|f| (*base, f)),
            _ => None,
        })
        .collect();
    let clobber_live = clobbered_and_live(k, stmts, positions);
    for (i, s) in stmts.iter().enumerate() {
        // T008: a load grouped with a later store to the same address
        // assumes memory does not change in between.
        if let Stmt::Assign {
            dst: LValue::Var(_),
            src: Expr::ArrayRef { base, index },
        } = s
        {
            if let Some(lf) = LinearForm::of(index).map(canon) {
                if let Some(j) = (i + 1..stmts.len())
                    .find(|&j| matches!(&store_forms[j], Some((b2, f2)) if b2 == base && *f2 == lf))
                {
                    check_load_store_gap(k, stmts, positions, i, j, *base, &lf, sr_facts, diags);
                }
            }
        }
        // T009: a store whose source scalar was clobbered by a
        // self-referential rewrite must not leave that scalar live.
        if let Some(x) = clobber_live.get(&i) {
            diags.push(Diagnostic::new(
                Rule::ScalarClobberLive,
                Span::Ir(positions[i]),
                format!(
                    "scalar replacement clobbered `{}`, which is still live after the store",
                    k.syms.name(*x)
                ),
            ));
        }
    }
}

/// T009 for a whole block: the stores `A[..] = x` whose source `x` was
/// last (re)defined in this block by a rewrite that reads `x` itself,
/// and after which `x` is still live. Keyed by statement index.
fn clobbered_and_live(k: &Kernel, stmts: &[Stmt], positions: &[u32]) -> HashMap<usize, Sym> {
    let sources: HashSet<Sym> = stmts
        .iter()
        .filter_map(|s| match s {
            Stmt::Assign {
                dst: LValue::ArrayRef { .. },
                src: Expr::Var(x),
            } => Some(*x),
            _ => None,
        })
        .collect();
    // The latest top-level definition of each stored scalar so far:
    // does it mention the scalar itself?
    let mut self_ref: HashMap<Sym, bool> = HashMap::new();
    let mut stores = Vec::new();
    for (i, s) in stmts.iter().enumerate() {
        match s {
            Stmt::Assign {
                dst: LValue::Var(v),
                src,
            } if sources.contains(v) => {
                self_ref.insert(*v, expr_mentions(src, *v));
            }
            Stmt::Assign {
                dst: LValue::ArrayRef { .. },
                src: Expr::Var(x),
            } if self_ref.get(x) == Some(&true) => stores.push((i, *x)),
            _ => {}
        }
    }
    let mut live = HashMap::new();
    let Some(&(first, _)) = stores.first() else {
        return live;
    };
    let mut scalars: Vec<Sym> = stores.iter().map(|&(_, x)| x).collect();
    scalars.sort_unstable();
    scalars.dedup();
    // One backward pass per 64 tracked scalars.
    for chunk in scalars.chunks(64) {
        let t = Tracked::new(k, chunk);
        let (exit, dead) =
            block_exit(&t, &k.body, 0, positions[first], 0, 0).unwrap_or((u64::MAX, 0));
        let mut after = exit;
        let mut next = stmts.len();
        for &(i, x) in stores.iter().rev() {
            after = t.block(&stmts[i + 1..next]).apply(after);
            next = i + 1;
            if after & !dead & t.mask(x) != 0 {
                live.insert(i, x);
            }
        }
    }
    live
}

/// Proves no statement between the grouped load (`stmts[i]`) and store
/// (`stmts[j]`) can change the loaded address or the memory behind it.
#[allow(clippy::too_many_arguments)]
fn check_load_store_gap(
    k: &Kernel,
    stmts: &[Stmt],
    positions: &[u32],
    i: usize,
    j: usize,
    base: Sym,
    index: &LinearForm,
    sr_facts: &HashMap<Sym, SrGroup>,
    diags: &mut Vec<Diagnostic>,
) {
    let span = Span::Ir(positions[i]);
    let bname = k.syms.name(base);
    // Address ingredients must stay fixed between load and store.
    let mut addr_syms: HashSet<Sym> = index.terms.iter().flat_map(|t| t.factors.clone()).collect();
    addr_syms.insert(base);
    let mut defs = Vec::new();
    collect_defs(&stmts[i + 1..j], &mut defs);
    if let Some(d) = defs.iter().find(|d| addr_syms.contains(d)) {
        diags.push(Diagnostic::new(
            Rule::ScalarMayAliasWrite,
            span,
            format!(
                "`{}` is redefined between the grouped load and store of `{bname}`",
                k.syms.name(*d)
            ),
        ));
        return;
    }
    // Intervening memory writes must target provably distinct addresses.
    let mut writes = Vec::new();
    collect_writes(&stmts[i + 1..j], false, &mut writes);
    if writes.is_empty() {
        return;
    }
    let loaded = absolute(base, index, sr_facts, k);
    for (wbase, widx, nested) in writes {
        if k.origin_of(wbase) != k.origin_of(base) {
            continue;
        }
        let distinct = !nested
            && match (
                loaded.as_ref(),
                LinearForm::of(&widx)
                    .map(canon)
                    .and_then(|f| absolute(wbase, &f, sr_facts, k)),
            ) {
                (Some(a), Some(b)) => {
                    let diff = crate::deps::canon(sub(a, &b));
                    matches!(diff.as_const(), Some(c) if c != 0)
                }
                _ => false,
            };
        if !distinct {
            diags.push(Diagnostic::new(
                Rule::ScalarMayAliasWrite,
                span,
                format!(
                    "a write through `{}` between the grouped load and store of `{bname}` may alias it",
                    k.syms.name(wbase)
                ),
            ));
            return;
        }
    }
}

fn collect_defs(stmts: &[Stmt], out: &mut Vec<Sym>) {
    for s in stmts {
        if let Some(d) = stmt_def(s) {
            out.push(d);
        }
        match s {
            Stmt::For { body, .. } | Stmt::Region { body, .. } => collect_defs(body, out),
            _ => {}
        }
    }
}

/// All array stores, with the base, index expression, and whether the
/// store sits inside a nested loop (where index values differ per
/// iteration and same-point comparison is invalid).
fn collect_writes(stmts: &[Stmt], nested: bool, out: &mut Vec<(Sym, Expr, bool)>) {
    for s in stmts {
        match s {
            Stmt::Assign {
                dst: LValue::ArrayRef { base, index },
                ..
            } => out.push((*base, index.as_ref().clone(), nested)),
            Stmt::For { body, .. } => collect_writes(body, true, out),
            Stmt::Region { body, .. } => collect_writes(body, nested, out),
            _ => {}
        }
    }
}

/// Resolves `ptr[index]` to an offset form relative to `ptr`'s origin
/// array by chasing strength-reduction facts: each hop contributes the
/// recorded `core + coeff·var` (the pointer's value at any point inside
/// its loop body, before the end-of-body increment).
fn absolute(
    ptr: Sym,
    index: &LinearForm,
    sr_facts: &HashMap<Sym, SrGroup>,
    k: &Kernel,
) -> Option<LinearForm> {
    let mut form = index.clone();
    let mut cur = ptr;
    for _ in 0..64 {
        let Some(g) = sr_facts.get(&cur) else {
            // Fully resolved only if we reached the origin array itself.
            return if cur == k.origin_of(ptr) {
                Some(canon(form))
            } else {
                None
            };
        };
        form.terms.extend(g.core.terms.iter().cloned());
        for t in &g.coeff.terms {
            let mut factors = t.factors.clone();
            factors.push(g.var);
            form.terms.push(augem_transforms::linear::Term {
                coeff: t.coeff,
                factors,
            });
        }
        cur = g.base;
    }
    None
}

fn sub(a: &LinearForm, b: &LinearForm) -> LinearForm {
    let mut out = a.clone();
    for t in &b.terms {
        let mut t = t.clone();
        t.coeff = -t.coeff;
        out.terms.push(t);
    }
    out
}

// ---------------------------------------------------------------------------
// liveness (backward dataflow over the structured IR)
// ---------------------------------------------------------------------------

/// A set of up to 64 scalars whose liveness is solved together, one bit
/// each: bit `b` of a mask says whether the `b`-th scalar is live.
/// Precise backward liveness over the structured IR: a loop's fixpoint
/// covers both the back-edge and the zero-trip exit path, and is solved
/// in closed form ([`Tracked::loop_body`]). The bits never interact, so
/// each one is exactly the single-scalar analysis.
struct Tracked {
    /// Bit of each symbol id, or `NOT_TRACKED`.
    bit: Vec<u8>,
    /// Transfer of every loop body solved so far, by address: the
    /// descent to a block and the pass over it meet the same bodies.
    bodies: RefCell<HashMap<(usize, usize), Transfer>>,
}

const NOT_TRACKED: u8 = u8::MAX;

/// The effect of a statement or block on liveness: per bit, the scalar
/// is live before it iff it is in `gen`, or live after it and in `pass`.
/// Every liveness transfer has this form (a statement uses, kills or
/// passes each scalar), and so does every composition of them.
#[derive(Clone, Copy)]
struct Transfer {
    gen: u64,
    pass: u64,
}

impl Transfer {
    const IDENTITY: Transfer = Transfer { gen: 0, pass: !0 };

    fn apply(self, live_out: u64) -> u64 {
        self.gen | (live_out & self.pass)
    }

    /// `self` followed by `later`.
    fn then(self, later: Transfer) -> Transfer {
        Transfer {
            gen: self.gen | (later.gen & self.pass),
            pass: self.pass & later.pass,
        }
    }
}

impl Tracked {
    fn new(k: &Kernel, scalars: &[Sym]) -> Self {
        let len = scalars.iter().map(|s| s.0 as usize + 1).max().unwrap_or(0);
        let mut bit = vec![NOT_TRACKED; len.max(k.syms.len())];
        for (b, s) in scalars.iter().enumerate() {
            bit[s.0 as usize] = b as u8;
        }
        Tracked {
            bit,
            bodies: RefCell::new(HashMap::new()),
        }
    }

    fn mask(&self, s: Sym) -> u64 {
        match self.bit.get(s.0 as usize) {
            Some(&b) if b != NOT_TRACKED => 1 << b,
            _ => 0,
        }
    }

    /// Tracked scalars `e` mentions (as a variable or an array base).
    fn expr(&self, e: &Expr) -> u64 {
        match e {
            Expr::Int(_) | Expr::F64(_) => 0,
            Expr::Var(s) => self.mask(*s),
            Expr::ArrayRef { base, index } => self.mask(*base) | self.expr(index),
            Expr::Bin(_, l, r) => self.expr(l) | self.expr(r),
        }
    }

    /// Tracked scalars statement `s` uses (see [`stmt_mentions`]).
    fn uses(&self, s: &Stmt) -> u64 {
        match s {
            Stmt::Assign { dst, src } => {
                let dst = match dst {
                    LValue::ArrayRef { base, index } => self.mask(*base) | self.expr(index),
                    LValue::Var(_) => 0,
                };
                dst | self.expr(src)
            }
            Stmt::For { init, bound, .. } => self.expr(init) | self.expr(bound),
            Stmt::Prefetch { base, index, .. } => self.mask(*base) | self.expr(index),
            Stmt::Region { .. } | Stmt::Comment(_) => 0,
        }
    }

    /// The loop fixpoint in closed form, for a loop that continues to
    /// `after`: the body's exit liveness iterates `l <- after | body(l)`
    /// from `l = after` (the back-edge re-enters the body, the exit
    /// reaches `after`), and the loop's entry liveness is `after |
    /// body(l)` (the zero-trip path or the first iteration). With
    /// `body(l) = gen | (l & pass)` the first round reaches `after | gen`
    /// and every later round repeats it, so both the exit and the entry
    /// liveness are `after | gen`. Returns that `gen`.
    fn loop_body(&self, body: &[Stmt]) -> u64 {
        let key = (body.as_ptr() as usize, body.len());
        if let Some(t) = self.bodies.borrow().get(&key) {
            return t.gen;
        }
        let t = self.block(body);
        self.bodies.borrow_mut().insert(key, t);
        t.gen
    }

    fn block(&self, stmts: &[Stmt]) -> Transfer {
        stmts
            .iter()
            .rev()
            .fold(Transfer::IDENTITY, |later, s| self.stmt(s).then(later))
    }

    fn stmt(&self, s: &Stmt) -> Transfer {
        match s {
            Stmt::For { var, body, .. } => {
                // A header mention keeps a scalar live; otherwise the
                // header's definition of the loop variable kills it.
                let kill = self.mask(*var);
                Transfer {
                    gen: self.uses(s) | (self.loop_body(body) & !kill),
                    pass: !kill,
                }
            }
            Stmt::Region { body, .. } => self.block(body),
            Stmt::Comment(_) => Transfer::IDENTITY,
            _ => Transfer {
                gen: self.uses(s),
                pass: !stmt_def(s).map_or(0, |d| self.mask(d)),
            },
        }
    }
}

/// Liveness at the exit of the block that directly holds the statement
/// at canonical position `target`, given `exit_live` at the exit of
/// `stmts` (which start at position `start`), plus the scalars an
/// enclosing loop header redefines: those are dead after any statement
/// inside the loop, whose value dies at the back-edge and is rebound
/// on exit. `None` for an unknown position.
fn block_exit(
    t: &Tracked,
    stmts: &[Stmt],
    start: u32,
    target: u32,
    exit_live: u64,
    dead: u64,
) -> Option<(u64, u64)> {
    let mut p = start;
    for (i, s) in stmts.iter().enumerate() {
        let size = stmt_size(s);
        if (p..p + size).contains(&target) {
            if target == p {
                return Some((exit_live, dead));
            }
            let after_here = t.block(&stmts[i + 1..]).apply(exit_live);
            return match s {
                Stmt::For { var, body, .. } => {
                    let l_exit = after_here | t.loop_body(body);
                    block_exit(t, body, p + 1, target, l_exit, dead | t.mask(*var))
                }
                Stmt::Region { body, .. } => block_exit(t, body, p + 1, target, after_here, dead),
                _ => None,
            };
        }
        p += size;
    }
    None
}

fn stmt_size(s: &Stmt) -> u32 {
    match s {
        Stmt::For { body, .. } | Stmt::Region { body, .. } => {
            1 + body.iter().map(stmt_size).sum::<u32>()
        }
        _ => 1,
    }
}

// ---------------------------------------------------------------------------
// prefetch: T010 / T011
// ---------------------------------------------------------------------------

fn check_prefetch(step: &TransformStep, config: &PrefetchConfig, diags: &mut Vec<Diagnostic>) {
    let k = &step.after;
    let mut pos = 0u32;
    check_prefetch_block(k, &k.body, &mut pos, false, config, diags);
}

fn check_prefetch_block(
    k: &Kernel,
    stmts: &[Stmt],
    pos: &mut u32,
    in_loop: bool,
    config: &PrefetchConfig,
    diags: &mut Vec<Diagnostic>,
) {
    for (i, s) in stmts.iter().enumerate() {
        let here = *pos;
        *pos += 1;
        match s {
            Stmt::Prefetch {
                base, index, write, ..
            } => {
                let bname = k.syms.name(*base);
                let span = Span::Ir(here);
                let Some(d) = index.as_const_int() else {
                    diags.push(Diagnostic::new(
                        Rule::PrefetchOutsideWindow,
                        span,
                        format!("prefetch of `{bname}` has a non-constant distance"),
                    ));
                    continue;
                };
                if *write {
                    if !config.write_prefetch {
                        diags.push(Diagnostic::new(
                            Rule::PrefetchOutsideWindow,
                            span,
                            format!(
                                "write prefetch of `{bname}` recorded under a config with write prefetching disabled"
                            ),
                        ));
                    } else if d != 0 {
                        diags.push(Diagnostic::new(
                            Rule::PrefetchOutsideWindow,
                            span,
                            format!(
                                "write prefetch of `{bname}` at distance {d} (write prefetches target the current location)"
                            ),
                        ));
                    }
                    if !stores_through(&stmts[i + 1..], *base) {
                        diags.push(Diagnostic::new(
                            Rule::PrefetchUnknownBase,
                            span,
                            format!(
                                "write prefetch of `{bname}` but nothing later in the block stores through it"
                            ),
                        ));
                    }
                } else {
                    match config.read_dist {
                        None => diags.push(Diagnostic::new(
                            Rule::PrefetchOutsideWindow,
                            span,
                            format!(
                                "read prefetch of `{bname}` recorded under a config with read prefetching disabled"
                            ),
                        )),
                        Some(w) if d < 0 || d > w => diags.push(Diagnostic::new(
                            Rule::PrefetchOutsideWindow,
                            span,
                            format!(
                                "read prefetch of `{bname}` at distance {d} outside the window [0, {w}]"
                            ),
                        )),
                        Some(_) => {}
                    }
                    if !in_loop || !loads_through(stmts, *base) {
                        diags.push(Diagnostic::new(
                            Rule::PrefetchUnknownBase,
                            span,
                            format!(
                                "read prefetch of `{bname}` outside a loop that loads through it"
                            ),
                        ));
                    }
                }
            }
            Stmt::For { body, .. } => {
                check_prefetch_block(k, body, pos, true, config, diags);
            }
            Stmt::Region { body, .. } => {
                check_prefetch_block(k, body, pos, in_loop, config, diags);
            }
            _ => {}
        }
    }
}

fn stores_through(stmts: &[Stmt], base: Sym) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Assign {
            dst: LValue::ArrayRef { base: b, .. },
            ..
        } => *b == base,
        Stmt::For { body, .. } | Stmt::Region { body, .. } => stores_through(body, base),
        _ => false,
    })
}

fn loads_through(stmts: &[Stmt], base: Sym) -> bool {
    fn expr_loads(e: &Expr, base: Sym) -> bool {
        match e {
            Expr::ArrayRef { base: b, index } => *b == base || expr_loads(index, base),
            Expr::Bin(_, l, r) => expr_loads(l, base) || expr_loads(r, base),
            _ => false,
        }
    }
    stmts.iter().any(|s| match s {
        Stmt::Assign { dst, src } => {
            let in_dst_index =
                matches!(dst, LValue::ArrayRef { index, .. } if expr_loads(index, base));
            in_dst_index || expr_loads(src, base)
        }
        Stmt::For { body, .. } | Stmt::Region { body, .. } => loads_through(body, base),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_obs::null;
    use augem_transforms::{generate_optimized_logged, OptimizeConfig};

    fn checked(kernel: &Kernel, cfg: &OptimizeConfig) -> Vec<Diagnostic> {
        let (out, log) = generate_optimized_logged(kernel, cfg, null()).unwrap();
        check_transforms(kernel, &log, Some(&out))
    }

    #[test]
    fn gemm_pipeline_is_legal() {
        for cfg in [
            OptimizeConfig::gemm_2x2(),
            OptimizeConfig::gemm(2, 4, 2),
            OptimizeConfig::gemm(4, 4, 4),
        ] {
            let diags = checked(&augem_kernels::gemm_simple(), &cfg);
            assert!(diags.is_empty(), "{cfg:?}: {diags:?}");
        }
    }

    #[test]
    fn vector_pipelines_are_legal() {
        let diags = checked(
            &augem_kernels::axpy_simple(),
            &OptimizeConfig::vector(4, false),
        );
        assert!(diags.is_empty(), "{diags:?}");
        let diags = checked(
            &augem_kernels::dot_simple(),
            &OptimizeConfig::vector(4, true),
        );
        assert!(diags.is_empty(), "{diags:?}");
        let diags = checked(&augem_kernels::gemv_simple(), &OptimizeConfig::gemv(4));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn tampered_factor_is_refuted() {
        let k = augem_kernels::gemm_simple();
        let (out, mut log) =
            generate_optimized_logged(&k, &OptimizeConfig::gemm_2x2(), null()).unwrap();
        if let PassRecord::UnrollJam { factor, .. } = &mut Arc::make_mut(&mut log.steps[0]).pass {
            *factor = 0;
        }
        let codes: Vec<&str> = check_transforms(&k, &log, Some(&out))
            .iter()
            .map(|d| d.rule.code())
            .collect();
        assert!(codes.contains(&"T002"), "{codes:?}");
    }

    #[test]
    fn broken_chain_is_refuted() {
        let k = augem_kernels::gemm_simple();
        let (out, mut log) =
            generate_optimized_logged(&k, &OptimizeConfig::gemm_2x2(), null()).unwrap();
        Arc::make_mut(&mut log.steps[1]).before = Arc::new(k.clone());
        let codes: Vec<&str> = check_transforms(&k, &log, Some(&out))
            .iter()
            .map(|d| d.rule.code())
            .collect();
        assert!(codes.contains(&"T012"), "{codes:?}");
    }
}
