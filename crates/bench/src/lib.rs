//! # hdidx-bench
//!
//! Experiment harness: the paper's tables and figures as library
//! functions (see `DESIGN.md` §4 for the experiment index), run in one
//! process by the `all_experiments` binary over shared prepared datasets;
//! the BENCH-writing sweep binaries; and the micro-benchmarks, timed by
//! `hdidx-check`'s `BenchSuite`.
//!
//! Every experiment accepts `--scale <fraction>` to shrink dataset
//! cardinalities for quick runs; the default scales are chosen so the whole
//! suite completes in minutes while preserving every qualitative result.
//! `--full` runs the paper's exact cardinalities.

#[macro_use]
mod report;

pub mod args;
pub mod context;
pub mod experiments;
pub mod table;

pub use args::{Cli, ExpArgs};
pub use context::{ExperimentContext, Suite};
