//! # augem-opt
//!
//! The **Template Optimizer** and **Assembly Kernel Generator** (paper
//! §2.3, §2.4, §3): lowers a template-tagged low-level C kernel to a
//! complete x86-64 assembly kernel.
//!
//! * [`binding`] — register allocation state: the global `reg_table` of
//!   Figure 2 plus the per-array register queues of §3.1 ("a separate
//!   register queue is dedicated to each array variable ... to minimize
//!   any false dependence that may be introduced through the reuse of
//!   registers").
//! * [`isel`] — instruction selection: the mapping rules of Tables 1–4
//!   (SSE two-operand sequences, AVX three-operand forms, FMA3/FMA4
//!   fusion).
//! * [`plan`] — the planning pass that chooses a vectorization strategy
//!   per template region (the **Vdup** and **Shuf** methods of §3.4) and
//!   pre-binds accumulator/scalar registers so decisions stay consistent
//!   across regions.
//! * [`emit_tpl`] — the per-template machine-code emitters (§3.1–3.6).
//! * [`akg`] — the Assembly Kernel Generator: translates all remaining
//!   low-level C (loops, pointer arithmetic, prefetches, reduction
//!   epilogues) "in a straightforward fashion" and stitches the template
//!   regions in, keeping `reg_table` consistent across boundaries.
//! * [`sched`] — a post-pass list scheduler (the Instruction Scheduling
//!   leg of §2.3's machine-level optimizations).
//!
//! The main entry point is [`akg::generate`].

#![forbid(unsafe_code)]

pub mod akg;
pub mod binding;
pub mod emit_tpl;
pub mod isel;
pub mod plan;
pub mod sched;

pub use akg::{generate, generate_with_log, BindingLog, CodegenError, CodegenOptions};
pub use binding::{Binding, BindingEvent, BindingEventKind, RegAllocator};
pub use isel::FmaPolicy;
pub use plan::{StrategyPref, VecStrategy};
