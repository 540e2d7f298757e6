//! # hdidx-baselines
//!
//! The two prior-art cost models the paper compares against in its
//! Table 4 (§5.3):
//!
//! * [`uniform`] — the uniformity-assumption model in the style of
//!   Berchtold et al. (PODS'97) / Weber et al. (VLDB'98): recursive
//!   mid-splits of the unit data space, expected k-NN radius from the
//!   unit-ball volume, page-access probability by Minkowski sums. Fast,
//!   parameter-free — and catastrophically wrong on real high-dimensional
//!   data (the paper measures +1,169 % relative error).
//! * [`fractal`] — the fractal-dimensionality model in the style of Korn,
//!   Pagel & Faloutsos (ICDE'00): the box-counting dimension `D0` and
//!   correlation dimension `D2` are estimated from the data and replace the
//!   embedding dimensionality in the page-geometry/Minkowski arithmetic.
//!   Better than uniform, still a large overestimate in high dimensions
//!   (paper: +765 %).
//!
//! Both models predict a single *average* page-access count per workload
//! (they have no per-query resolution — one of the qualitative advantages
//! of the paper's sampling approach that the correlation diagrams,
//! Figures 11–12, make visible).

//!
//! All baselines also implement the unified `hdidx_model::Predictor` trait
//! (see [`predictor`]), and [`predictor::by_name`] is the registry behind
//! the CLI's `--predictor` flag — covering the paper's predictors and the
//! baselines under one set of names.

pub mod fractal;
pub mod gamma;
pub mod histogram;
pub mod predictor;
pub mod uniform;

pub use fractal::{estimate_fractal_dims, predict_fractal, FractalDims};
pub use predictor::{by_name, PredictorConfig, PREDICTOR_NAMES};
pub use uniform::{expected_knn_radius, predict_uniform};
