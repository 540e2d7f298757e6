//! STOCK360 analog: random-walk price series transformed by a DFT.
//!
//! The paper's STOCK360 dataset is "the price of 6,500 stocks over one year
//! (transformed using DFT)". We generate geometric-random-walk-like series
//! and apply a real DFT, interleaving the cosine/sine coefficients into the
//! output dimensions. Random walks have a `1/f^2` power spectrum, so the
//! transformed data concentrates almost all energy in the leading
//! coefficients — the extreme low-intrinsic-dimensionality regime in which
//! the paper reports that the fractal baseline becomes inapplicable while
//! sampling still predicts within −8 % … +0.7 %.

use hdidx_core::{Dataset, Error, Result};
use hdidx_rand::{seeded, standard_normal};

/// Parameters of the stock-series generator.
#[derive(Debug, Clone, PartialEq)]
pub struct StockSpec {
    /// Number of series (points).
    pub n: usize,
    /// Output dimensionality = series length (DFT preserves length).
    pub dim: usize,
    /// Daily volatility of the walk.
    pub volatility: f64,
    /// RNG seed.
    pub seed: u64,
}

impl StockSpec {
    /// Generates the dataset: one DFT-transformed random walk per point.
    ///
    /// # Errors
    ///
    /// Rejects zero `n`/`dim` and non-positive/non-finite volatility.
    pub fn generate(&self) -> Result<Dataset> {
        if self.n == 0 || self.dim == 0 {
            return Err(Error::invalid("spec", "n and dim must be positive"));
        }
        if !(self.volatility.is_finite() && self.volatility > 0.0) {
            return Err(Error::invalid("volatility", "must be finite and > 0"));
        }
        let mut rng = seeded(self.seed);
        let len = self.dim;
        let mut series = vec![0.0f64; len];
        let mut data = Vec::with_capacity(self.n * len);
        let mut coeffs = vec![0.0f64; len];
        for _ in 0..self.n {
            // Random walk starting at a random level.
            let mut level = 10.0 + 5.0 * standard_normal(&mut rng);
            for s in series.iter_mut() {
                level += self.volatility * standard_normal(&mut rng);
                *s = level;
            }
            real_dft(&series, &mut coeffs);
            data.extend(coeffs.iter().map(|&c| c as f32));
        }
        Dataset::from_flat(len, data)
    }
}

/// Real DFT packing: output[0] = DC, output[2m-1] / output[2m] = cos / sin
/// coefficients of frequency m, normalized by 1/sqrt(len) so the transform
/// is (close to) orthonormal and Euclidean distances are preserved.
///
/// O(len²); series lengths here are a few hundred, so this costs a few
/// hundred kiloflops per point and keeps the dependency list clean.
///
/// # Panics
///
/// Debug-asserts `out.len() == series.len()`.
pub fn real_dft(series: &[f64], out: &mut [f64]) {
    debug_assert_eq!(series.len(), out.len());
    let len = series.len();
    let norm = 1.0 / (len as f64).sqrt();
    let w = std::f64::consts::TAU / len as f64;
    out[0] = series.iter().sum::<f64>() * norm;
    let mut idx = 1usize;
    let mut m = 1usize;
    while idx < len {
        let mut re = 0.0f64;
        let mut im = 0.0f64;
        for (t, &x) in series.iter().enumerate() {
            let ang = w * (m as f64) * (t as f64);
            re += x * ang.cos();
            im += x * ang.sin();
        }
        out[idx] = re * norm * std::f64::consts::SQRT_2;
        idx += 1;
        if idx < len {
            out[idx] = im * norm * std::f64::consts::SQRT_2;
            idx += 1;
        }
        m += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_core::stats::dim_stats;

    #[test]
    fn deterministic_and_shaped() {
        let spec = StockSpec {
            n: 50,
            dim: 36,
            volatility: 0.5,
            seed: 3,
        };
        let a = spec.generate().unwrap();
        let b = spec.generate().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        assert_eq!(a.dim(), 36);
    }

    #[test]
    fn energy_concentrates_in_leading_coefficients() {
        let d = StockSpec {
            n: 200,
            dim: 64,
            volatility: 1.0,
            seed: 4,
        }
        .generate()
        .unwrap();
        let ids: Vec<u32> = (0..d.len() as u32).collect();
        let st = dim_stats(&d, &ids).unwrap();
        let head: f64 = st.variance[..8].iter().sum();
        let tail: f64 = st.variance[32..].iter().sum();
        assert!(head > 20.0 * tail, "head {head} vs tail {tail}");
    }

    #[test]
    fn dft_of_constant_is_dc_only() {
        let series = vec![2.0f64; 16];
        let mut out = vec![0.0f64; 16];
        real_dft(&series, &mut out);
        assert!((out[0] - 2.0 * 4.0).abs() < 1e-9); // 2 * sqrt(16)
        for &c in &out[1..] {
            assert!(c.abs() < 1e-9);
        }
    }

    #[test]
    fn dft_of_pure_cosine_hits_one_bin() {
        let len = 32usize;
        let series: Vec<f64> = (0..len)
            .map(|t| (std::f64::consts::TAU * 3.0 * t as f64 / len as f64).cos())
            .collect();
        let mut out = vec![0.0f64; len];
        real_dft(&series, &mut out);
        // Frequency 3 cosine coefficient sits at index 2*3 - 1 = 5.
        let expect = (len as f64 / 2.0) / (len as f64).sqrt() * std::f64::consts::SQRT_2;
        assert!((out[5] - expect).abs() < 1e-9, "out[5] = {}", out[5]);
        for (i, &c) in out.iter().enumerate() {
            if i != 5 {
                assert!(c.abs() < 1e-9, "bin {i} = {c}");
            }
        }
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(StockSpec {
            n: 0,
            dim: 8,
            volatility: 1.0,
            seed: 0
        }
        .generate()
        .is_err());
        assert!(StockSpec {
            n: 5,
            dim: 0,
            volatility: 1.0,
            seed: 0
        }
        .generate()
        .is_err());
        assert!(StockSpec {
            n: 5,
            dim: 8,
            volatility: 0.0,
            seed: 0
        }
        .generate()
        .is_err());
    }
}
