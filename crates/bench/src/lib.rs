//! # bench — the experiment harness regenerating every paper table/figure
//!
//! * [`methods`] — the uniform method registry (SC + DC + TableDC) with
//!   the §4.3 per-task training budgets;
//! * [`report`] — ARI/ACC scoring and table rendering;
//! * [`experiments`] — one function per paper table/figure (Tables 1–5,
//!   Figures 2–5) plus the extra ablations of DESIGN.md §5.
//!
//! The `repro` binary drives these (`cargo run --release -p bench --bin
//! repro -- all`). Performance is measured by the separate `perfbench/`
//! benchmark at the repository root.

pub mod experiments;
pub mod htmlreport;
pub mod ledger;
pub mod methods;
pub mod perfdiff;
pub mod report;

pub use experiments::RunOptions;
pub use methods::{Budget, Method};
pub use report::Scores;
