//! depan legality checking for sweeps.
//!
//! With [`ResilOptions::check_legality`](crate::ResilOptions::check_legality)
//! the sweep replays every candidate's transform recipe through
//! `augem-depan`'s proof-carrying checker before evaluation: the
//! candidate's recorded [`TransformLog`](augem_transforms::TransformLog)
//! is checked against its source kernel, and any `T`-rule error rejects
//! the candidate with a `rejected(depan): ...` reason — the same way
//! bound-based pruning rejects with `pruned(bound): ...`. The winner is
//! unchanged for a sound checker (zero false rejections is gated by
//! `tests/depan_matrix.rs` and `figures depan`); what the filter buys is
//! that a configuration whose transform chain cannot be proved legal
//! never reaches the simulator.

use crate::config::LoggedBuild;
use augem_obs::Tracer;
use augem_verify::Severity;

/// The legality verdict for a built candidate; `Some(reason)` rejects
/// it. `logged.kernel` is post-`identify` (Regions added after the last
/// logged pass), so the snapshot chain is checked without a final
/// kernel.
pub fn check_legality(logged: &LoggedBuild, tracer: &dyn Tracer) -> Option<String> {
    let diags = augem_depan::check_transforms_traced(&logged.source, &logged.tlog, None, tracer);
    diags
        .iter()
        .find(|d| d.severity == Severity::Error)
        .map(|d| format!("rejected(depan): {} {}", d.rule.code(), d.message))
}
