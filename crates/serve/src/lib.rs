//! # hdidx-serve
//!
//! The query serving subsystem: everything between a built index and a
//! tail-latency number.
//!
//! * [`request`] — typed requests ([`Query::Range`], [`Query::Knn`],
//!   [`Query::Predict`]) and the read-mix specification ([`MixSpec`]).
//! * [`loadgen`] — open-loop arrival generation on **simulated time** from
//!   a seeded stream ([`LoadGen`], fixed-rate Poisson or bursty
//!   hyperexponential interarrivals).
//! * [`server`] — the [`Server`]: owns the bulk-loaded index (its
//!   directory flattened into a [`hdidx_vamsplit::query::TreeSoup`], so a
//!   request counts its leaves through the directory boxes) plus the
//!   grown upper tree, executes the offered stream in one pass over the
//!   worker [`hdidx_pool::Pool`] with per-query panic isolation, and
//!   composes latency from the disk cost model — queueing delay
//!   included — rather than measuring wall clocks.
//! * [`knn`] — the k-NN request path: best-first search through the
//!   index's `TreeSoup`, falling back to the linear scan when the bound at the first
//!   heap fill still reaches more than [`knn::SCAN_FALLBACK_SHARE`] of the
//!   leaves; either route returns the scan's radius bit for bit.
//! * [`latency`] — exact-sample tail accounting ([`LatencyRecorder`]):
//!   nearest-rank p50/p95/p99/max via [`hdidx_check::stats`], plus an
//!   FNV-1a digest of the sample stream so byte-identity across thread
//!   counts is checkable from CLI output.
//! * [`admission`] — per-class admission lanes ([`admission::LaneState`]),
//!   the one load-shedding mechanism: a class sheds when the sliding-window
//!   mean of its shadow-priced queue delays exceeds its budget. Charged
//!   fault-retry backoff is part of every shadow service time, so fault
//!   pressure sheds through the lanes too.
//! * [`overload`] — the deterministic overload-control policy
//!   ([`OverloadPolicy`]): lane budgets and circuit-breaker gating. Both
//!   knobs default off; the identity policy reproduces the pre-overload
//!   serve digests bit for bit.
//!
//! The crate inherits the workspace determinism contract: with a fixed
//! data seed, load seed, and fault seed, a serving run produces
//! byte-identical per-query latency samples — and therefore identical
//! percentiles, shed fractions, and digests — at any `HDIDX_THREADS`
//! setting, because arrivals, fault plans, time accounting, and every
//! overload decision (shed, trip) are pure functions of the
//! request stream, never of scheduling.

pub mod admission;
pub mod knn;
pub mod latency;
pub mod loadgen;
pub mod overload;
pub mod request;
pub mod server;

pub use latency::{LatencyRecorder, LatencySummary};
pub use loadgen::{ArrivalModel, LoadGen};
pub use overload::{LanePolicy, OverloadPolicy};
pub use request::{MixSpec, Query, QueryClass, Request};
pub use server::{BreakerSummary, ClassStats, ServeConfig, ServeReport, Server};
