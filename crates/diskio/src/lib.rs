//! # hdidx-diskio
//!
//! Disk I/O simulation substrate.
//!
//! The paper evaluates every approach by **counting seeks and page
//! transfers** and converting them to seconds with a fixed disk model
//! (10 ms average seek + latency, 20 MB/s bandwidth ⇒ 0.4 ms per 8 KB
//! page — §4.6, footnote 7). This crate reproduces that methodology:
//!
//! * [`model`] — [`model::DiskModel`] (the seconds conversion) and
//!   [`model::IoStats`] (the seek/transfer counters),
//! * [`disk`] — a single-head simulated disk with page-granular access
//!   accounting: an access to a page not adjacent to the previously
//!   accessed page costs a seek, every page costs a transfer (the paper's
//!   §5 definition),
//! * [`external`] — the **on-disk bulk loading** of Berchtold et al.
//!   (EDBT'98) under an `M`-point memory budget: external quickselect
//!   partitioning with buffered output runs, switching to the in-memory
//!   VAMSplit builder once a segment fits in memory. Produces the exact
//!   same tree as the in-memory loader plus the I/O bill for building it,
//! * [`measure`] — ground-truth measurement: runs a k-NN workload against
//!   the on-disk index, counting random page accesses, and reports the
//!   paper's "on-disk" row (build cost + query cost),
//! * [`store`] — the [`store::DiskOptions`] builder that configures fault
//!   injection, retry policy and phase/stream derivation for a
//!   [`disk::Disk`] (and for the model disk the file-backed store in
//!   `hdidx-store` embeds, so snapshots bill like the simulation),
//! * [`breaker`] — a deterministic circuit breaker over charged time:
//!   the [`breaker::CircuitBreaker`] state machine the serving loop
//!   clocks with simulated time and drives around its disk queries.
//!
//! Bytes are kept in RAM (only the *access pattern* determines cost), but
//! the algorithms really execute the external-memory logic — pass structure,
//! buffer sizes and run boundaries are all simulated faithfully rather than
//! derived from closed-form formulas. The analytic formulas of the paper's
//! §4 live in `hdidx-model`; comparing them against these measured counts is
//! itself one of the reproduction's experiments.

pub mod breaker;
pub mod disk;
pub mod external;
pub mod measure;
pub mod model;
pub mod store;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use disk::{Disk, FileHandle};
pub use external::build_on_disk;
pub use measure::{measure_on_disk, OnDiskMeasurement};
pub use model::{DiskModel, IoStats};
pub use store::DiskOptions;
