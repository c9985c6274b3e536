//! Experiment harness reproducing every quantitative claim of the paper.
//!
//! Each `exp_*` function runs one experiment (E1–E9, each documented with the
//! paper claim it reproduces) and returns a vector of [`Row`]s; the
//! `src/bin/exp_*.rs` binaries print them as plain-text tables, or as JSON
//! with `--json`, which is the form to record output in.  The Criterion
//! benchmarks under `benches/` reuse the same building blocks with smaller
//! parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod reporting;

pub use experiments::*;
pub use reporting::{
    existing_rows_json, print_table, raw_rows_to_json_pretty, rows_to_json_pretty, run_cli, Row,
};
