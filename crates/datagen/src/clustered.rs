//! Gaussian-mixture generator with KLT-like per-dimension variance decay.
//!
//! Model: `n_clusters` centers are drawn from `N(0, diag(sigma_j^2))` with
//! `sigma_j = exp(-decay * j)`; each point picks a cluster (uniformly) and
//! adds `N(0, (spread * sigma_j)^2)` noise per dimension. The per-dimension
//! *global* variance therefore decays exponentially — the signature of
//! KLT/PCA-rotated real feature data — and the data is clustered, which is
//! exactly the structure the paper's sampling argument relies on
//! ("sampling ... preserves clusters", §2.4).

use hdidx_core::{Dataset, Error, Result};
use hdidx_rand::Rng;
use hdidx_rand::{seeded, standard_normal};

/// Parameters of the clustered generator.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteredSpec {
    /// Number of points.
    pub n: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Number of mixture components.
    pub n_clusters: usize,
    /// Per-dimension scale decay rate: `sigma_j = exp(-decay * j)`.
    /// 0 disables decay; ≈0.05 gives a realistic KLT spectrum in 60-d.
    pub decay: f64,
    /// Cluster spread relative to the center scale (≈0.15–0.4 for tight
    /// clusters, 1.0 degenerates to a single blob).
    pub spread: f64,
    /// In-cluster noise shape. Real KLT-transformed feature clouds are
    /// compact with light tails; [`Tail::Uniform`] models that (and makes
    /// the paper's in-page-uniformity assumption hold within clusters),
    /// while [`Tail::Gaussian`] stresses the predictors with heavier tails.
    pub tail: Tail,
    /// RNG seed.
    pub seed: u64,
}

/// In-cluster noise distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// Normal noise per dimension.
    Gaussian,
    /// Uniform noise in `[-spread·σ_j, +spread·σ_j]` per dimension.
    Uniform,
}

impl ClusteredSpec {
    /// Generates the dataset.
    ///
    /// # Errors
    ///
    /// Rejects zero `n`, `dim` or `n_clusters` and non-finite/negative
    /// `decay`/`spread`.
    pub fn generate(&self) -> Result<Dataset> {
        if self.n == 0 || self.dim == 0 || self.n_clusters == 0 {
            return Err(Error::invalid(
                "spec",
                "n, dim and n_clusters must be positive",
            ));
        }
        if !(self.decay.is_finite() && self.decay >= 0.0) {
            return Err(Error::invalid("decay", "must be finite and >= 0"));
        }
        if !(self.spread.is_finite() && self.spread > 0.0) {
            return Err(Error::invalid("spread", "must be finite and > 0"));
        }
        let mut rng = seeded(self.seed);
        let sigmas: Vec<f64> = (0..self.dim)
            .map(|j| (-self.decay * j as f64).exp())
            .collect();
        // Cluster centers.
        let mut centers = vec![0.0f64; self.n_clusters * self.dim];
        for c in 0..self.n_clusters {
            for j in 0..self.dim {
                centers[c * self.dim + j] = standard_normal(&mut rng) * sigmas[j];
            }
        }
        let mut data = Vec::with_capacity(self.n * self.dim);
        for _ in 0..self.n {
            let c = rng.gen_range(0..self.n_clusters);
            let base = &centers[c * self.dim..(c + 1) * self.dim];
            for j in 0..self.dim {
                let noise = match self.tail {
                    Tail::Gaussian => standard_normal(&mut rng),
                    Tail::Uniform => 2.0 * rng.gen::<f64>() - 1.0,
                };
                let x = base[j] + noise * self.spread * sigmas[j];
                data.push(x as f32);
            }
        }
        Dataset::from_flat(self.dim, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_core::stats::dim_stats;

    fn spec() -> ClusteredSpec {
        ClusteredSpec {
            n: 5000,
            dim: 16,
            n_clusters: 8,
            decay: 0.15,
            spread: 0.3,
            tail: Tail::Uniform,
            seed: 7,
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = spec().generate().unwrap();
        let b = spec().generate().unwrap();
        assert_eq!(a, b);
        let mut s2 = spec();
        s2.seed = 8;
        assert_ne!(s2.generate().unwrap(), a);
    }

    #[test]
    fn shape_is_correct() {
        let d = spec().generate().unwrap();
        assert_eq!(d.len(), 5000);
        assert_eq!(d.dim(), 16);
    }

    #[test]
    fn variance_decays_with_dimension() {
        let d = spec().generate().unwrap();
        let ids: Vec<u32> = (0..d.len() as u32).collect();
        let st = dim_stats(&d, &ids).unwrap();
        // Leading dimension should carry far more variance than the last.
        assert!(
            st.variance[0] > 5.0 * st.variance[15],
            "var[0] = {}, var[15] = {}",
            st.variance[0],
            st.variance[15]
        );
        // The named analogs decay along the axes themselves, so the leading
        // dimensions carry most of the variance without any rotation: the
        // property Fig 14's prefix indexes rely on. (PCA's top-10 share is
        // never below this axis-aligned one.)
        let d = crate::registry::NamedDataset::Texture48
            .spec_scaled(0.05)
            .generate()
            .unwrap();
        let ids: Vec<u32> = (0..d.len() as u32).collect();
        let var = dim_stats(&d, &ids).unwrap().variance;
        let share = var[..10].iter().sum::<f64>() / var.iter().sum::<f64>();
        assert!(share > 0.5, "leading-10 variance share {share}");
    }

    #[test]
    fn data_is_clustered_not_uniform() {
        // With tight clusters, the average distance to the nearest of the
        // k cluster mates is much smaller than the global scale.
        let d = ClusteredSpec {
            n: 2000,
            dim: 8,
            n_clusters: 4,
            decay: 0.0,
            spread: 0.05,
            tail: Tail::Gaussian,
            seed: 11,
        }
        .generate()
        .unwrap();
        let r = hdidx_core::knn::scan_knn_radius(&d, d.point(0), 10).unwrap();
        let far = hdidx_core::knn::scan_knn_radius(&d, d.point(0), 1500).unwrap();
        assert!(r < 0.2 * far, "10-NN radius {r} vs 1500-NN radius {far}");
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut s = spec();
        s.n = 0;
        assert!(s.generate().is_err());
        let mut s = spec();
        s.n_clusters = 0;
        assert!(s.generate().is_err());
        let mut s = spec();
        s.decay = -1.0;
        assert!(s.generate().is_err());
        let mut s = spec();
        s.spread = 0.0;
        assert!(s.generate().is_err());
    }
}
