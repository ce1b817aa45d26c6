//! # augem-sim
//!
//! Simulators for AUGEM-generated assembly kernels — this reproduction's
//! substitute for the paper's physical Sandy Bridge / Piledriver testbed
//! (see DESIGN.md's substitution table).
//!
//! * [`func`] — a **functional simulator**: executes the concrete
//!   [`augem_asm::XInst`] stream over real `f64` memory with faithful
//!   SSE/AVX lane semantics (legacy-SSE upper-lane preservation vs VEX
//!   zeroing included), proving the generated kernels compute exactly what
//!   the C kernels compute.
//! * [`decode`] — a **pre-decoded engine**: a one-time [`decode`] pass
//!   lowers the instruction stream into a dense, string-free
//!   [`DecodedOp`] table (labels resolved to pc indices, VEX rules baked
//!   in) driven by a tight dispatch loop that hands each executed step
//!   to a sink. [`FuncSim::run`] uses it; `FuncSim::run_legacy` keeps the
//!   original loop as the reference.
//! * [`cache`] — a set-associative write-allocate cache simulator with a
//!   stream prefetcher, fed the functional simulator's memory accesses.
//! * [`timing`] — a **cycle-approximate timing model**: an issue-width +
//!   execution-port scoreboard with data-dependence latencies and
//!   cache-modeled load latencies that times each dynamic step as the
//!   decoded engine executes it (or replays a recorded [`Trace`]),
//!   yielding cycles and Mflops for a kernel invocation.
//!
//! The timing model captures the first-order effects the paper's
//! optimizations target — SIMD width, FMA fusion, false dependences from
//! register reuse, port contention, prefetch coverage — and is calibrated
//! (not validated) against the paper's absolute numbers; EXPERIMENTS.md
//! compares shapes only.

#![forbid(unsafe_code)]

pub mod cache;
pub mod decode;
pub mod func;
pub mod timing;

pub use cache::CacheSim;
pub use decode::{decode, DecodedOp, DecodedProgram};
pub use func::{FuncSim, MemAccess, SimError, SimValue, Trace};
pub use timing::{
    replay, replay_profiled, simulate_timing, simulate_timing_budgeted, simulate_timing_profiled,
    simulate_timing_steady, simulate_timing_steady_budgeted, PcProfile, TimingReport,
};
