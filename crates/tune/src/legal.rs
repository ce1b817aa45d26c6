//! depan legality checking for sweeps.
//!
//! With [`ResilOptions::check_legality`](crate::ResilOptions::check_legality)
//! the sweep replays every candidate's transform recipe through
//! `augem-depan`'s proof-carrying checker after the transform stage and
//! before code generation: the candidate's recorded
//! [`TransformLog`](augem_transforms::TransformLog) is checked against its
//! source kernel, and any `T`-rule error rejects the candidate with a
//! `rejected(depan): ...` reason — the same way bound-based pruning
//! rejects with `pruned(bound): ...`. Candidates sharing a transform
//! prefix share its verdict ([`Transformed::legality`]), so each prefix's
//! steps are replayed once and each candidate's prefetch step once. The
//! winner is unchanged for a sound checker (zero false rejections is
//! gated by `tests/depan_matrix.rs` and `figures depan`); what the filter
//! buys is that a configuration whose transform chain cannot be proved
//! legal never reaches code generation or the simulator.

use crate::cache::Transformed;
use augem_obs::Tracer;
use augem_verify::Severity;

/// The legality verdict for a transformed candidate; `Some(reason)`
/// rejects it. Traced as one `depan` span per candidate.
pub fn check_legality(t: &Transformed, tracer: &dyn Tracer) -> Option<String> {
    let diags = augem_depan::traced(tracer, || t.legality());
    diags
        .iter()
        .find(|d| d.severity == Severity::Error)
        .map(|d| format!("rejected(depan): {} {}", d.rule.code(), d.message))
}
