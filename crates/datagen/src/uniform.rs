//! I.i.d. uniform data over the unit hypercube.
//!
//! Used by the paper's §5.2 sanity check: on genuinely uniform data every
//! predictor's in-page-uniformity assumption holds exactly and the relative
//! errors collapse to −0.5 % … −3 %.

use hdidx_core::{Dataset, Error, Result};
use hdidx_rand::seeded;
use hdidx_rand::Rng;

/// Parameters of the uniform generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformSpec {
    /// Number of points.
    pub n: usize,
    /// Dimensionality.
    pub dim: usize,
    /// RNG seed.
    pub seed: u64,
}

impl UniformSpec {
    /// Generates `n` points uniform in `[0, 1]^dim`.
    ///
    /// # Errors
    ///
    /// Rejects zero `n` or `dim`.
    pub fn generate(&self) -> Result<Dataset> {
        if self.n == 0 || self.dim == 0 {
            return Err(Error::invalid("spec", "n and dim must be positive"));
        }
        let mut rng = seeded(self.seed);
        let data: Vec<f32> = (0..self.n * self.dim).map(|_| rng.gen::<f32>()).collect();
        Dataset::from_flat(self.dim, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_core::stats::dim_stats;

    #[test]
    fn shape_and_determinism() {
        let s = UniformSpec {
            n: 1000,
            dim: 8,
            seed: 5,
        };
        let a = s.generate().unwrap();
        assert_eq!(a.len(), 1000);
        assert_eq!(a.dim(), 8);
        assert_eq!(a, s.generate().unwrap());
    }

    #[test]
    fn moments_match_uniform() {
        let d = UniformSpec {
            n: 20_000,
            dim: 4,
            seed: 6,
        }
        .generate()
        .unwrap();
        let ids: Vec<u32> = (0..d.len() as u32).collect();
        let st = dim_stats(&d, &ids).unwrap();
        for j in 0..4 {
            assert!(
                (st.mean[j] - 0.5).abs() < 0.01,
                "mean[{j}] = {}",
                st.mean[j]
            );
            assert!(
                (st.variance[j] - 1.0 / 12.0).abs() < 0.005,
                "var[{j}] = {}",
                st.variance[j]
            );
        }
    }

    #[test]
    fn bounds_respected() {
        let d = UniformSpec {
            n: 500,
            dim: 3,
            seed: 7,
        }
        .generate()
        .unwrap();
        assert!(d.as_flat().iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn invalid_rejected() {
        assert!(UniformSpec {
            n: 0,
            dim: 3,
            seed: 0
        }
        .generate()
        .is_err());
        assert!(UniformSpec {
            n: 3,
            dim: 0,
            seed: 0
        }
        .generate()
        .is_err());
    }
}
