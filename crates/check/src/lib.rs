//! # hdidx-check
//!
//! The workspace's owned correctness and measurement layer:
//!
//! * [`prop`] — a seeded property-testing harness (replaces `proptest`):
//!   deterministic case generation, configurable case counts, failing-seed
//!   reporting with `HDIDX_CHECK_REPLAY` replay, and greedy input
//!   shrinking via [`shrink::Shrink`].
//! * [`mod@bench`] — a micro-benchmark runner (replaces `criterion`): warmup,
//!   adaptive batched sampling, median/p95/min/mean + throughput, and
//!   JSON-lines output (`BENCH_<suite>.json`) for cross-PR trajectory
//!   tracking.
//! * [`stats`] — shared percentile helpers over sorted samples
//!   (linear-interpolated for the bench artifacts, exact nearest-rank for
//!   tail-latency accounting), NaN-rejecting.
//!
//! Like `hdidx-rand`, this crate has **zero external dependencies**: the
//! repository's correctness claims and performance numbers must be
//! reproducible offline, from a cold checkout, on any machine with a Rust
//! toolchain.

pub mod bench;
pub mod prop;
pub mod shrink;
pub mod stats;

pub use bench::{black_box, BenchConfig, BenchResult, BenchSuite};
pub use prop::{check, Config, Verdict};
pub use shrink::Shrink;
