//! # pcs-perfbench
//!
//! The repository's benchmark: four workloads of the PCS reproduction
//! run through the program's public API, end to end with tracing off,
//! and layer by layer in a separate traced run. See `NOTES.md` for the
//! workloads, the metrics and their measured spread.
#![warn(missing_docs)]

pub mod probe;
pub mod report;
pub mod run;
pub mod workloads;
