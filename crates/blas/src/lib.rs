//! # augem-blas
//!
//! The user-facing library layer of this reproduction — the equivalent of
//! the BLAS library the AUGEM kernels are shipped inside (the paper's
//! GEMM kernel "has been adopted as a part of our open-source BLAS library
//! OpenBLAS").
//!
//! Two halves:
//!
//! 1. **A native pure-Rust double-precision BLAS subset** ([`level1`],
//!    [`level2`], [`level3`]): `daxpy`/`ddot`, `dgemv`/`dger`, and a
//!    Goto-blocked `dgemm` plus the six higher-level routines of the
//!    paper's Table 6 (`dsymm`, `dsyrk`, `dsyr2k`, `dtrmm`, `dtrsm`,
//!    `dger`) implemented by casting the bulk of their computation onto
//!    GEMM exactly as the paper describes (§4.4, citing Goto's Level-3
//!    paper). These run natively and are fully tested against naive
//!    references — they are the substrate the examples exercise for
//!    real.
//! 2. **The evaluation model** ([`baselines`], [`model`]): library models
//!    for AUGEM and the four comparison libraries (Intel MKL / AMD ACML,
//!    ATLAS, GotoBLAS) as kernel-generation configurations, plus the
//!    full-problem performance model that combines simulator-measured
//!    micro-kernel steady states with a blocking/packing/bandwidth
//!    analysis to regenerate the paper's Figures 18–21 and Table 6 (see
//!    DESIGN.md's substitution table: these models stand in for the
//!    proprietary binaries and the physical testbed).

#![forbid(unsafe_code)]
// BLAS-convention signatures (m, n, k, alpha, lda, ...) intentionally
// mirror the routines they model.
#![allow(clippy::too_many_arguments)]
pub mod baselines;
pub mod level1;
pub mod level2;
pub mod level3;
pub mod model;
pub mod naive;

pub use baselines::{Library, LibraryKernels};
pub use level1::{daxpy, daxpy_strided, ddot, ddot_strided, dscal};
pub use level2::{dgemv, dger};
pub use level3::{dgemm, dsymm, dsyr2k, dsyrk, dtrmm, dtrsm, Side, Uplo};
pub use model::{GemmModel, PerfModel, RoutineKind};
