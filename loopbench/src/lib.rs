//! `loopbench`: one end-to-end + per-layer benchmark of the OntoAccess
//! mediator. See `README.md` for the metrics, the workloads and the
//! noise protocol.

// The replay's closures return the product's own error type, which is
// large by design (see `ontoaccess`'s crate-level note).
#![allow(clippy::result_large_err)]

pub mod child;
pub mod e2e;
pub mod gen;
pub mod json;
pub mod oracle;
pub mod replay;
pub mod report;
pub mod spec;
pub mod stats;
