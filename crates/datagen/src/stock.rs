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
        let dft = DftTable::new(len);
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
            dft.transform(&series, &mut coeffs);
            data.extend(coeffs.iter().map(|&c| c as f32));
        }
        Dataset::from_flat(len, data)
    }
}

/// The real DFT of one series length, with every `(cos, sin)` twiddle
/// computed once: row `m - 1` holds frequency `m`'s factors at
/// `t = 0..len`, from the same `w * m * t` angles the direct transform
/// evaluates per coefficient.
///
/// Output packing: `out[0]` is the DC term, `out[2m-1]` / `out[2m]` the
/// cosine / sine coefficients of frequency `m`, normalized by
/// `1/sqrt(len)` so the transform is (close to) orthonormal and Euclidean
/// distances are preserved. Each coefficient is the same `f64` add chain
/// over the same operands as the direct transform, so the output is
/// bit-identical to it (pinned against the test-only `real_dft`).
struct DftTable {
    len: usize,
    twiddles: Vec<(f64, f64)>,
}

impl DftTable {
    fn new(len: usize) -> DftTable {
        let w = std::f64::consts::TAU / len as f64;
        let twiddles = (1..=len / 2)
            .flat_map(|m| {
                (0..len).map(move |t| {
                    let ang = w * (m as f64) * (t as f64);
                    (ang.cos(), ang.sin())
                })
            })
            .collect();
        DftTable { len, twiddles }
    }

    /// Transforms `series` into `out`, both of the table's length.
    fn transform(&self, series: &[f64], out: &mut [f64]) {
        debug_assert!(series.len() == self.len && out.len() == self.len);
        let norm = 1.0 / (self.len as f64).sqrt();
        out[0] = series.iter().sum::<f64>() * norm;
        for (m, row) in self.twiddles.chunks_exact(self.len).enumerate() {
            let mut re = 0.0f64;
            let mut im = 0.0f64;
            for (&x, &(cos, sin)) in series.iter().zip(row) {
                re += x * cos;
                im += x * sin;
            }
            let idx = 2 * m + 1;
            out[idx] = re * norm * std::f64::consts::SQRT_2;
            if idx + 1 < self.len {
                out[idx + 1] = im * norm * std::f64::consts::SQRT_2;
            }
        }
    }
}

/// The direct O(len²) real DFT, evaluating `cos`/`sin` per term: the
/// oracle [`DftTable`] is pinned against, bit for bit.
#[cfg(test)]
fn real_dft(series: &[f64], out: &mut [f64]) {
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
        DftTable::new(16).transform(&series, &mut out);
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
        DftTable::new(len).transform(&series, &mut out);
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
    fn table_transform_matches_direct_dft_bitwise_per_series() {
        // Random walks like the generator's, at odd and even lengths
        // (including STOCK360's 360): every coefficient of every series
        // must carry the direct transform's exact bits.
        let mut rng = seeded(11);
        for len in [1usize, 2, 3, 16, 17, 36, 360] {
            let dft = DftTable::new(len);
            let mut table = vec![0.0f64; len];
            let mut direct = vec![0.0f64; len];
            for series_no in 0..20 {
                let mut level = 10.0 + 5.0 * standard_normal(&mut rng);
                let series: Vec<f64> = (0..len)
                    .map(|_| {
                        level += 0.7 * standard_normal(&mut rng);
                        level
                    })
                    .collect();
                dft.transform(&series, &mut table);
                real_dft(&series, &mut direct);
                let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<u64>>();
                assert_eq!(bits(&table), bits(&direct), "len {len} series {series_no}");
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
