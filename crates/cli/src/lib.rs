//! # hdidx-cli
//!
//! Library backing the `hdidx` command-line tool: CSV dataset I/O, argument
//! parsing and the command implementations. Kept as a library so the logic
//! is unit-testable; `main.rs` is a thin shell.
//!
//! ```text
//! hdidx info    --data points.csv [--page-bytes 8192]
//! hdidx predict --data points.csv --m 10000 [--predictor resampled|cutoff|basic|...]
//!               [--h-upper N] [--zeta F] [run flags]
//! hdidx measure --data points.csv --m 10000 [run flags] [--backend sim|file]
//! hdidx generate --dataset texture60 --scale 0.1 --out points.csv
//! ```
//!
//! The run flags (`--queries`, `--k`, `--seed`, `--threads`, `--simd`
//! and the fault/retry flags) are shared by `predict`, `compare`,
//! `measure` and `serve`; see [`args::USAGE`].

pub mod args;
pub mod commands;
pub mod csvio;

pub use args::{Cli, Command};

/// Entry point shared by the binary and the tests.
///
/// # Errors
///
/// Returns a human-readable message on any failure (parse error, I/O
/// error, infeasible parameters).
pub fn run(argv: &[String]) -> Result<String, String> {
    let cli = args::Cli::parse(argv)?;
    commands::execute(&cli)
}

/// [`run`] plus the exit status the command requests. Commands exit 0 on
/// success; `scrub` distinguishes its findings (0 clean, 2 repaired,
/// 3 degraded). Hard errors stay on the `Err` path (exit 1).
///
/// # Errors
///
/// Returns a human-readable message on any failure.
pub fn run_with_status(argv: &[String]) -> Result<(String, i32), String> {
    let cli = args::Cli::parse(argv)?;
    commands::execute_with_status(&cli)
}
