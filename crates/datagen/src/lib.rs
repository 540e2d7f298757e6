//! # hdidx-datagen
//!
//! Deterministic synthetic dataset analogs and query workloads.
//!
//! The paper evaluates on five **real** datasets (its Table 1) that are not
//! publicly available. Following the reproduction's substitution rule
//! (documented in `DESIGN.md`), this crate generates synthetic analogs with
//! matched cardinality, dimensionality and — crucially — matched *skew
//! structure*:
//!
//! * [`clustered`] — Gaussian-mixture data with KLT-like exponentially
//!   decaying per-dimension variance. KLT-transformed feature data (the
//!   paper's COLOR64/TEXTURE48/TEXTURE60/ISOLET617) concentrates energy in
//!   the leading dimensions and is strongly clustered; both properties
//!   drive the paper's results (sampling preserves clusters; fractal/
//!   uniform models break on low intrinsic dimensionality).
//! * [`stock`] — random-walk price series transformed by a DFT, the same
//!   transform the paper applied to STOCK360.
//! * [`uniform`] — i.i.d. uniform data for the paper's §5.2 sanity check.
//! * [`registry`] — the five named analogs with the paper's exact N and d,
//!   plus scaled-down variants for fast tests.
//! * [`workload`] — density-biased k-NN query workloads with exact radii
//!   (full-scan ground truth, parallelized across queries).
//!
//! Everything is seeded; the same spec always yields the same bytes.

pub mod clustered;
pub mod registry;
pub mod stock;
pub mod uniform;
pub mod workload;

pub use registry::{DatasetSpec, NamedDataset};
pub use workload::{Query, Workload};
