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
//! * [`server`] — the [`Server`]: owns the bulk-loaded index (flattened
//!   into the SoA counting soup) plus the grown upper tree, executes
//!   request batches over the worker [`hdidx_pool::Pool`] with per-query
//!   panic isolation, and composes latency from the disk cost model —
//!   queueing delay included — rather than measuring wall clocks.
//! * [`knn`] — the k-NN request path: best-first search through the
//!   index, falling back to the linear scan when the bound at the first
//!   heap fill still reaches more than [`knn::SCAN_FALLBACK_SHARE`] of the
//!   leaves; either route returns the scan's radius bit for bit.
//! * [`latency`] — exact-sample tail accounting ([`LatencyRecorder`]):
//!   nearest-rank p50/p95/p99/max via [`hdidx_check::stats`], plus an
//!   FNV-1a digest of the sample stream so byte-identity across thread
//!   counts is checkable from CLI output.
//! * [`admission`] — backoff-budget load shedding ([`AdmissionControl`]):
//!   when a sliding window of charged fault-retry backoff exceeds its
//!   budget, whole batches are refused and counted instead of queued —
//!   plus per-class admission lanes ([`admission::LaneState`]) shedding on
//!   shadow-priced queue delays.
//! * [`overload`] — the deterministic overload-control policy
//!   ([`OverloadPolicy`]): per-class deadlines on charged service cost,
//!   lane budgets, circuit-breaker gating, and hedged replays. Every knob
//!   defaults off; the identity policy reproduces the pre-overload serve
//!   digests bit for bit.
//! * [`maintain`] — idle-slot maintenance ([`Maintenance`]): incremental
//!   scrub slices run in the slot algebra's idle gaps and drive the
//!   Healthy → Degraded → ReadOnly health machine gating admission.
//!
//! The crate inherits the workspace determinism contract: with a fixed
//! data seed, load seed, and fault seed, a serving run produces
//! byte-identical per-query latency samples — and therefore identical
//! percentiles, shed fractions, and digests — at any `HDIDX_THREADS`
//! setting, because arrivals, fault plans, time accounting, and every
//! overload decision (shed, cut, trip, hedge) are pure functions of the
//! request stream, never of scheduling.

pub mod admission;
pub mod knn;
pub mod latency;
pub mod loadgen;
pub mod maintain;
pub mod overload;
pub mod request;
pub mod server;

pub use admission::AdmissionControl;
pub use latency::{LatencyRecorder, LatencySummary};
pub use loadgen::{ArrivalModel, LoadGen};
pub use maintain::{
    CleanSource, HealthState, Maintenance, MaintenanceReport, ScrubSource, SliceOutcome,
    StoreScrubSource,
};
pub use overload::{Deadlines, LanePolicy, OverloadPolicy};
pub use request::{MixSpec, Query, QueryClass, Request};
pub use server::{BreakerSummary, ClassStats, ServeConfig, ServeReport, Server};
