//! Shared machinery for the reproduction harness.
//!
//! Every experiment is implemented here once and reused by both the
//! `repro` binary (which prints the paper's experiment tables) and the
//! Criterion benches (which time the same scenarios). Everything is seeded through
//! [`gcr_workload::rng_for`], so the numbers are reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

pub use table::Table;
