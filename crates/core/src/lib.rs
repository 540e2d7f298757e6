//! # hdidx-core
//!
//! Geometry and dataset kernel shared by every crate in the `hdidx`
//! workspace — the reproduction of *Lang & Singh, "Modeling High-Dimensional
//! Index Structures using Sampling", SIGMOD 2001*.
//!
//! The crate provides:
//!
//! * [`Dataset`] — a flat, row-major `f32` point collection (the storage
//!   format that the paper's page-capacity arithmetic assumes: 4 bytes per
//!   coordinate plus an 8-byte record id),
//! * [`HyperRect`] — minimal bounding hyper-rectangles with the distance
//!   predicates used throughout (MINDIST, sphere intersection, compensation
//!   growth),
//! * [`LeafSoup`] — a flat SoA snapshot of a leaf-page set with blocked,
//!   batch-oriented sphere-counting kernels (the hot loop of every
//!   predictor), byte-identical to the scalar `HyperRect` path,
//! * [`simd`] — runtime-dispatched SSE2/AVX2 lanes for the counting and
//!   k-NN kernels (scalar fallback elsewhere), byte-identical to the
//!   scalar path by construction,
//! * per-dimension statistics ([`stats`]) used by the maximum-variance split,
//! * [`fnv1a`] — the one byte hash behind every checksum and digest.
//!
//! All distance arithmetic accumulates in `f64` even though coordinates are
//! stored as `f32`; in 60+ dimensions the squared-distance accumulation error
//! of pure `f32` is large enough to flip page-access decisions near the query
//! radius.

pub mod dataset;
pub mod error;
pub mod hash;
pub mod knn;
pub mod rect;
pub mod simd;
pub mod soup;
pub mod stats;

pub use dataset::Dataset;
pub use error::{Error, Result};
pub use hash::{fnv1a, fnv1a_lanes, FNV_LANES, FNV_OFFSET};
pub use rect::HyperRect;
pub use simd::Isa;
pub use soup::LeafSoup;
