//! Diagnostics: the verifier's findings, one rule violation each.

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not provably wrong (wasted work, dead values).
    Warning,
    /// A contract violation: the kernel can compute wrong results or
    /// corrupt its caller.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Where in the kernel a finding is anchored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Span {
    /// A range of instruction indices (inclusive) in the stream the
    /// check ran over.
    Insts { first: usize, last: usize },
    /// A canonical IR statement position
    /// ([`augem_ir::visit::walk_with_positions`] numbering).
    Ir(u32),
    /// The kernel as a whole.
    Kernel,
}

impl Span {
    pub fn at(i: usize) -> Span {
        Span::Insts { first: i, last: i }
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Span::Insts { first, last } if first == last => write!(f, "inst {first}"),
            Span::Insts { first, last } => write!(f, "insts {first}..={last}"),
            Span::Ir(p) => write!(f, "ir stmt {p}"),
            Span::Kernel => write!(f, "kernel"),
        }
    }
}

/// Which analysis family a rule belongs to. Every diagnostic in the
/// system — verifier, cost analyzer, transform checker — flows through
/// this one rule table and [`dedup`], so reports render all three
/// families the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleFamily {
    /// Correctness rules over generated assembly (`V`-series): static
    /// verifier + translation validation.
    Verification,
    /// Performance lints (`P`-series) from the static cost analyzer:
    /// the kernel is correct, just provably slow.
    PerfLint,
    /// Transform-legality rules (`T`-series) from the dependence
    /// analyzer (`augem-depan`): a recorded IR transform application
    /// whose precondition the independent replay cannot prove.
    Transform,
}

impl RuleFamily {
    /// The rule-code prefix letter (`V`, `P`, `T`).
    pub fn prefix(self) -> char {
        match self {
            RuleFamily::Verification => 'V',
            RuleFamily::PerfLint => 'P',
            RuleFamily::Transform => 'T',
        }
    }
}

/// The contract each diagnostic enforces. Grouped by analysis:
/// dataflow (V00x), register allocation replay (V01x), ABI/stack
/// (V02x), SIMD widths (V03x), memory bounds (V04x), IR-level
/// liveness reporting (V05x), translation validation (V06x).
/// Performance lints (P00x, always warnings) are produced by the
/// static cost analyzer in `augem-cost`; they flag kernels that are
/// correct but provably leave cycles on the table. Transform-legality
/// rules (T00x, always errors) are produced by the dependence analyzer
/// in `augem-depan`: each is a transform precondition the independent
/// replay checker failed to prove.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// A register is read on some path before anything defines it.
    UseBeforeDef,
    /// A register is written and the value can never be observed.
    DeadDef,
    /// A conditional branch consumes flags not set by a `Cmp` (or set
    /// by nothing at all).
    FlagsClobber,
    /// An instruction overwrites a register still bound to a live
    /// symbol in the `reg_table` (paper §2.4: bindings stay consistent
    /// across template boundaries).
    RegClobber,
    /// A register was returned to a free queue it was not checked out
    /// of — the allocator could hand the same register out twice.
    DoubleFree,
    /// A `reg_table` entry was overwritten without a release, or a
    /// binding names a register the allocator never handed out.
    DoubleBind,
    /// A symbol's register was released while its global live range
    /// was still open (paper §3.1: "Only when a scalar is no longer
    /// alive would its register be released").
    EarlyRelease,
    /// A callee-saved register is written without a matching
    /// save/restore pair (System V x86-64 ABI).
    AbiCalleeSaved,
    /// The stack pointer itself is overwritten.
    AbiStackPointer,
    /// A spill slot access falls outside the kernel's declared stack
    /// frame.
    StackBounds,
    /// An instruction reads more SIMD lanes than its source holds, or
    /// mixes operand widths.
    WidthMismatch,
    /// An instruction form the target ISA does not have (YMM without
    /// AVX, FMA without the FMA feature).
    IsaViolation,
    /// Packed arithmetic inconsistent with the vectorization strategy
    /// the planner chose (paper §3.4).
    StrategyViolation,
    /// A memory access provably outside the bounds implied by the
    /// loop's pointer stride or a fresh array base.
    OobAccess,
    /// An IR symbol is written but never read afterwards (its final
    /// value — and the register holding it — is wasted).
    UnreadSymbol,
    /// Translation validation: an output memory location's canonical
    /// symbolic expression differs between the source IR kernel and the
    /// generated assembly.
    EquivMismatch,
    /// Translation validation: the symbolic machine model has no
    /// semantics for an instruction the kernel executed.
    UnmodeledInst,
    /// Translation validation: a symbolic floating-point value flowed
    /// into an address or integer computation (the validator requires
    /// addresses and control flow to stay concrete).
    SymbolicAddressEscape,
    /// Translation validation: the source IR kernel faulted under the
    /// symbolic interpreter (out-of-bounds, unbound variable, runaway
    /// loop) on the shapes derived from the tuner's unroll factors.
    EquivSourceFault,
    /// Translation validation: the generated assembly faulted under the
    /// symbolic machine (bad address, undefined label, step limit).
    EquivAsmFault,
    /// Translation validation: the equivalence spec doesn't match the
    /// kernel's parameter list (argument count or kind).
    EquivSpecMismatch,
    /// Translation validation: the two sides disagree on the number or
    /// length of output arrays, so per-location comparison is
    /// impossible.
    EquivShapeDivergence,
    /// Performance: an innermost loop carries a floating-point
    /// accumulator whose per-iteration dependence latency exceeds the
    /// loop's throughput bound — the chain, not the execution units,
    /// sets the speed (the paper's Figure-13 `vaddsd` pattern; split
    /// the accumulator to break it).
    AccumulatorChain,
    /// Performance: one execution port carries far more than its fair
    /// share of an innermost loop's µops while other ports sit idle.
    PortOversubscription,
    /// Performance: a spill-slot access (`%rsp`-based load/store)
    /// inside an innermost loop body — register pressure leaked into
    /// the hot path.
    SpillInLoop,
    /// Performance: innermost-loop FP arithmetic runs below the
    /// machine's widest SIMD mode (scalar or 128-bit ops on an AVX
    /// target).
    NarrowSimd,
    /// Performance: an innermost loop streams loads at a stride the
    /// modeled hardware prefetcher cannot cover, and the body issues no
    /// software prefetch.
    MissingPrefetch,
    /// Performance: a loop is statically unreachable after constant
    /// folding (e.g. a remainder loop whose guard is decided at
    /// generation time) yet still occupies code space.
    DeadRemainder,
    /// Performance: two prefetches in one innermost-loop iteration
    /// provably target the same 64-byte cache line — the second is a
    /// wasted µop every iteration.
    RedundantPrefetch,
    /// Transform legality: an unroll / unroll&jam record names a loop
    /// that does not exist in the pre-pass kernel.
    JamLoopMissing,
    /// Transform legality: a recorded unroll factor of zero (the
    /// transform itself would have refused it; a log claiming it is
    /// forged or corrupt).
    BadUnrollFactor,
    /// Transform legality: a scalar local is live into the jammed loop
    /// body, so the jam's scalar expansion changes its value flow.
    JamLiveInLocal,
    /// Transform legality: the jammed loop carries an array dependence
    /// (a write and another access may touch the same cell in distinct
    /// iterations of the jam variable), so interleaving iterations can
    /// reorder the conflicting accesses.
    JamCarriedDependence,
    /// Transform legality: a variable the unroller expanded into
    /// per-copy accumulator lanes is not a well-formed reduction
    /// accumulator (every in-loop occurrence `acc = acc + e`, `e` free
    /// of `acc`) in the pre-pass kernel, so the reassociation is
    /// unjustified.
    ExpandNotAccumulator,
    /// Transform legality: a strength-reduction group's induction
    /// variable is ill-formed — the subscript stride mentions the loop
    /// variable itself or an inner loop variable, so a hoisted pointer
    /// with a fixed per-iteration increment cannot reproduce it.
    InductionIllFormed,
    /// Transform legality: the pointer increment the strength reducer
    /// emitted does not equal the recorded stride times the loop step
    /// (or is missing entirely).
    InductionStrideMismatch,
    /// Transform legality: a scalar-replacement load/store group is not
    /// must-alias from load to store — an intervening write may alias
    /// the reloaded cell, or the group's base pointer is redefined
    /// between them.
    ScalarMayAliasWrite,
    /// Transform legality: scalar replacement's store-clobber variant
    /// overwrote a scalar that is still live after the store.
    ScalarClobberLive,
    /// Transform legality: a prefetch distance falls outside the
    /// iteration window the recorded configuration sanctions (negative,
    /// beyond the configured read distance, or non-constant).
    PrefetchOutsideWindow,
    /// Transform legality: a prefetch targets a base pointer the
    /// surrounding loop never actually accesses.
    PrefetchUnknownBase,
    /// Transform legality: the transform log is discontinuous — a
    /// step's pre-pass kernel is not the previous step's post-pass
    /// kernel (or the final kernel is not the last step's output), so
    /// the log does not describe the kernel it is attached to.
    LogDiscontinuity,
}

impl Rule {
    /// Every rule in the system, the one table behind code-uniqueness
    /// checks and family-wide rendering. New rules must be added here —
    /// `codes_are_unique` walks this list.
    pub const ALL: &'static [Rule] = &[
        Rule::UseBeforeDef,
        Rule::DeadDef,
        Rule::FlagsClobber,
        Rule::RegClobber,
        Rule::DoubleFree,
        Rule::DoubleBind,
        Rule::EarlyRelease,
        Rule::AbiCalleeSaved,
        Rule::AbiStackPointer,
        Rule::StackBounds,
        Rule::WidthMismatch,
        Rule::IsaViolation,
        Rule::StrategyViolation,
        Rule::OobAccess,
        Rule::UnreadSymbol,
        Rule::EquivMismatch,
        Rule::UnmodeledInst,
        Rule::SymbolicAddressEscape,
        Rule::EquivSourceFault,
        Rule::EquivAsmFault,
        Rule::EquivSpecMismatch,
        Rule::EquivShapeDivergence,
        Rule::AccumulatorChain,
        Rule::PortOversubscription,
        Rule::SpillInLoop,
        Rule::NarrowSimd,
        Rule::MissingPrefetch,
        Rule::DeadRemainder,
        Rule::RedundantPrefetch,
        Rule::JamLoopMissing,
        Rule::BadUnrollFactor,
        Rule::JamLiveInLocal,
        Rule::JamCarriedDependence,
        Rule::ExpandNotAccumulator,
        Rule::InductionIllFormed,
        Rule::InductionStrideMismatch,
        Rule::ScalarMayAliasWrite,
        Rule::ScalarClobberLive,
        Rule::PrefetchOutsideWindow,
        Rule::PrefetchUnknownBase,
        Rule::LogDiscontinuity,
    ];

    /// Stable short code, for reports and CI greps.
    pub fn code(self) -> &'static str {
        match self {
            Rule::UseBeforeDef => "V001",
            Rule::DeadDef => "V002",
            Rule::FlagsClobber => "V003",
            Rule::RegClobber => "V010",
            Rule::DoubleFree => "V011",
            Rule::DoubleBind => "V012",
            Rule::EarlyRelease => "V013",
            Rule::AbiCalleeSaved => "V020",
            Rule::AbiStackPointer => "V021",
            Rule::StackBounds => "V022",
            Rule::WidthMismatch => "V030",
            Rule::IsaViolation => "V031",
            Rule::StrategyViolation => "V032",
            Rule::OobAccess => "V040",
            Rule::UnreadSymbol => "V050",
            Rule::EquivMismatch => "V060",
            Rule::UnmodeledInst => "V061",
            Rule::SymbolicAddressEscape => "V062",
            Rule::EquivSourceFault => "V063",
            Rule::EquivAsmFault => "V064",
            Rule::EquivSpecMismatch => "V065",
            Rule::EquivShapeDivergence => "V066",
            Rule::AccumulatorChain => "P001",
            Rule::PortOversubscription => "P002",
            Rule::SpillInLoop => "P003",
            Rule::NarrowSimd => "P004",
            Rule::MissingPrefetch => "P005",
            Rule::DeadRemainder => "P006",
            Rule::RedundantPrefetch => "P007",
            Rule::JamLoopMissing => "T001",
            Rule::BadUnrollFactor => "T002",
            Rule::JamLiveInLocal => "T003",
            Rule::JamCarriedDependence => "T004",
            Rule::ExpandNotAccumulator => "T005",
            Rule::InductionIllFormed => "T006",
            Rule::InductionStrideMismatch => "T007",
            Rule::ScalarMayAliasWrite => "T008",
            Rule::ScalarClobberLive => "T009",
            Rule::PrefetchOutsideWindow => "T010",
            Rule::PrefetchUnknownBase => "T011",
            Rule::LogDiscontinuity => "T012",
        }
    }

    /// The analysis family, derived from the code prefix so the three
    /// rule series cannot drift apart from their rendering.
    pub fn family(self) -> RuleFamily {
        match self.code().as_bytes()[0] {
            b'P' => RuleFamily::PerfLint,
            b'T' => RuleFamily::Transform,
            _ => RuleFamily::Verification,
        }
    }

    /// The severity this rule always carries. Performance lints are
    /// never errors: the kernel is correct, just provably slow.
    /// Transform-legality rules are always errors: an unproved
    /// precondition means the transformed kernel may be wrong.
    pub fn severity(self) -> Severity {
        match self {
            Rule::DeadDef | Rule::UnreadSymbol => Severity::Warning,
            r if r.family() == RuleFamily::PerfLint => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Whether this is a performance lint (a `P`-series rule from the
    /// static cost analyzer) rather than a correctness rule.
    pub fn is_perf_lint(self) -> bool {
        self.family() == RuleFamily::PerfLint
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{:?}]", self.code(), self)
    }
}

/// One verifier finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub rule: Rule,
    pub severity: Severity,
    pub span: Span,
    pub message: String,
    /// How many identical findings this one stands for (see [`dedup`]).
    /// Always ≥ 1; unrolled bodies otherwise drown a report in copies
    /// of the same violation.
    pub repeat: usize,
}

impl Diagnostic {
    pub fn new(rule: Rule, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: rule.severity(),
            span,
            message: message.into(),
            repeat: 1,
        }
    }

    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} at {}: {}",
            self.severity, self.rule, self.span, self.message
        )?;
        if self.repeat > 1 {
            write!(f, " (×{})", self.repeat)?;
        }
        Ok(())
    }
}

/// Collapses findings that repeat the same (rule, span, message) into a
/// single diagnostic carrying a repeat count, preserving first-occurrence
/// order. Identical findings arise naturally from unrolled bodies — the
/// same violation replayed once per unroll copy — and reporting N copies
/// buries the distinct ones.
pub fn dedup(diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = Vec::with_capacity(diags.len());
    let mut index: std::collections::HashMap<(Rule, Span, String), usize> =
        std::collections::HashMap::new();
    for d in diags {
        match index.entry((d.rule, d.span, d.message.clone())) {
            std::collections::hash_map::Entry::Occupied(e) => {
                out[*e.get()].repeat += d.repeat;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(out.len());
                out.push(d);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique() {
        let mut codes: Vec<&str> = Rule::ALL.iter().map(|r| r.code()).collect();
        codes.sort();
        codes.dedup();
        assert_eq!(codes.len(), Rule::ALL.len());
    }

    #[test]
    fn family_matches_code_prefix_for_every_rule() {
        for r in Rule::ALL {
            assert_eq!(r.code().chars().next().unwrap(), r.family().prefix(), "{r}");
        }
        // All three families are represented in the table.
        for fam in [
            RuleFamily::Verification,
            RuleFamily::PerfLint,
            RuleFamily::Transform,
        ] {
            assert!(Rule::ALL.iter().any(|r| r.family() == fam), "{fam:?}");
        }
    }

    #[test]
    fn perf_lints_are_warnings() {
        for r in Rule::ALL
            .iter()
            .filter(|r| r.family() == RuleFamily::PerfLint)
        {
            assert_eq!(r.severity(), Severity::Warning, "{r}");
            assert!(r.is_perf_lint(), "{r}");
        }
        assert!(!Rule::UseBeforeDef.is_perf_lint());
        assert!(Rule::RedundantPrefetch.is_perf_lint());
    }

    #[test]
    fn transform_rules_are_errors() {
        let t: Vec<&Rule> = Rule::ALL
            .iter()
            .filter(|r| r.family() == RuleFamily::Transform)
            .collect();
        assert_eq!(t.len(), 12, "T001–T012");
        for r in t {
            assert_eq!(r.severity(), Severity::Error, "{r}");
            assert!(!r.is_perf_lint(), "{r}");
        }
    }

    #[test]
    fn display_is_greppable() {
        let d = Diagnostic::new(Rule::RegClobber, Span::at(3), "xmm4 overwritten");
        let s = d.to_string();
        assert!(s.contains("V010"));
        assert!(s.contains("error"));
        assert!(s.contains("inst 3"));
    }

    #[test]
    fn equiv_rules_are_errors() {
        for r in [
            Rule::EquivMismatch,
            Rule::UnmodeledInst,
            Rule::SymbolicAddressEscape,
            Rule::EquivSourceFault,
            Rule::EquivAsmFault,
            Rule::EquivSpecMismatch,
            Rule::EquivShapeDivergence,
        ] {
            assert_eq!(r.severity(), Severity::Error, "{r}");
        }
    }

    #[test]
    fn dedup_collapses_identical_findings_in_order() {
        let mk = |msg: &str, i: usize| Diagnostic::new(Rule::OobAccess, Span::at(i), msg);
        let diags = vec![mk("a", 1), mk("b", 2), mk("a", 1), mk("a", 1), mk("b", 2)];
        let out = dedup(diags);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].repeat, 3);
        assert_eq!(out[1].repeat, 2);
        assert_eq!(out[0].span, Span::at(1));
        assert!(out[0].to_string().contains("(×3)"));
    }

    #[test]
    fn dedup_keeps_distinct_messages_at_same_span() {
        let a = Diagnostic::new(Rule::EquivMismatch, Span::Kernel, "C[0] differs");
        let b = Diagnostic::new(Rule::EquivMismatch, Span::Kernel, "C[1] differs");
        let out = dedup(vec![a, b]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].repeat, 1);
    }

    #[test]
    fn dedup_accumulates_existing_repeat_counts() {
        let mut a = Diagnostic::new(Rule::DeadDef, Span::at(4), "dead");
        a.repeat = 2;
        let b = Diagnostic::new(Rule::DeadDef, Span::at(4), "dead");
        let out = dedup(vec![a, b]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].repeat, 3);
    }
}
