//! End-to-end and per-layer benchmark of AUGEM's kernel service.
//!
//! The `augem-bench` binary drives the real `augem-serve` executable over
//! its NDJSON stdin/stdout protocol (the timed run, [`workloads`]) and
//! re-executes the same work in-process on one core with a span around
//! every call into a layer crate (the traced run, [`traced`]). Every
//! served kernel passes through the correctness gate ([`gate`]). See
//! `README.md` beside this package for the workloads and metrics.

pub mod daemon;
pub mod family;
pub mod gate;
pub mod metrics;
pub mod openloop;
pub mod stats;
pub mod traced;
pub mod wire;
pub mod workloads;
