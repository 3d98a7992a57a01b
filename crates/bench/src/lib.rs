//! Shared harness code for the experiment binary and the Criterion benches.
//!
//! Every table and figure of the paper's evaluation maps to one function in
//! [`experiments`]; the `experiments` binary prints the corresponding rows
//! and the Criterion benches re-measure the hot paths with statistical
//! rigour.  [`run_experiment`] maps each experiment id (`table1`, `fig8a`,
//! …, `ablation`) to its function.

pub mod experiments;
pub mod workloads;

pub use experiments::run_experiment;
