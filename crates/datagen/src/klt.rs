//! Karhunen–Loève transform (PCA rotation).
//!
//! Four of the paper's five datasets are "transformed using KLT" before
//! indexing: the data is rotated onto the eigenvectors of its covariance
//! matrix, ordered by decreasing eigenvalue, so that variance concentrates
//! in the leading dimensions (which is what makes dimension-prefix indexes,
//! Figure 14, sensible). This module provides that preprocessing for
//! library users bringing their own data, and lets the tests verify that
//! the synthetic analogs have KLT-invariant structure.
//!
//! The eigendecomposition is a cyclic Jacobi iteration — `O(d³)` per sweep,
//! fine for feature dimensionalities (the paper's largest is 617).

use hdidx_core::{Dataset, Error, Result};

/// Result of a KLT fit: eigenvalues (descending) and the corresponding
/// eigenvectors (row-major, one eigenvector per row).
#[derive(Debug, Clone)]
pub struct Klt {
    /// Input dimensionality.
    pub dim: usize,
    /// Eigenvalues of the covariance matrix, descending.
    pub eigenvalues: Vec<f64>,
    /// Eigenvectors, row `r` = the direction with the `r`-th largest
    /// variance (length `dim` each, orthonormal).
    pub components: Vec<f64>,
    /// Per-dimension mean of the fitted data.
    pub mean: Vec<f64>,
}

impl Klt {
    /// Fits the transform to `data` (covariance + Jacobi diagonalization).
    ///
    /// # Errors
    ///
    /// Rejects datasets with fewer than 2 points.
    pub fn fit(data: &Dataset) -> Result<Klt> {
        let n = data.len();
        let d = data.dim();
        if n < 2 {
            return Err(Error::EmptyInput("KLT needs at least 2 points"));
        }
        // Mean.
        let mut mean = vec![0.0f64; d];
        for i in 0..n {
            for (m, &x) in mean.iter_mut().zip(data.point(i)) {
                *m += f64::from(x);
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        // Covariance (upper triangle, then mirrored).
        let mut cov = vec![0.0f64; d * d];
        for i in 0..n {
            let p = data.point(i);
            for a in 0..d {
                let da = f64::from(p[a]) - mean[a];
                for b in a..d {
                    cov[a * d + b] += da * (f64::from(p[b]) - mean[b]);
                }
            }
        }
        let norm = 1.0 / (n as f64 - 1.0);
        for a in 0..d {
            for b in a..d {
                let v = cov[a * d + b] * norm;
                cov[a * d + b] = v;
                cov[b * d + a] = v;
            }
        }
        let (eigenvalues, components) = jacobi_eigen(&mut cov, d);
        Ok(Klt {
            dim: d,
            eigenvalues,
            components,
            mean,
        })
    }

    /// Applies the transform: centers and rotates every point onto the
    /// principal directions (output dimension `j` = projection on the
    /// `j`-th largest-variance direction).
    ///
    /// # Errors
    ///
    /// Rejects dimension mismatches.
    pub fn transform(&self, data: &Dataset) -> Result<Dataset> {
        if data.dim() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: data.dim(),
            });
        }
        let d = self.dim;
        let mut out = Vec::with_capacity(data.len() * d);
        let mut centered = vec![0.0f64; d];
        for i in 0..data.len() {
            let p = data.point(i);
            for (c, (&x, &m)) in centered.iter_mut().zip(p.iter().zip(&self.mean)) {
                *c = f64::from(x) - m;
            }
            for r in 0..d {
                let row = &self.components[r * d..(r + 1) * d];
                let y: f64 = row.iter().zip(&centered).map(|(a, b)| a * b).sum();
                out.push(y as f32);
            }
        }
        Dataset::from_flat(d, out)
    }

    /// Fraction of total variance captured by the first `k` components.
    pub fn explained_variance(&self, k: usize) -> f64 {
        let total: f64 = self.eigenvalues.iter().sum();
        if total <= 0.0 {
            return 1.0;
        }
        self.eigenvalues.iter().take(k).sum::<f64>() / total
    }
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix (in place).
/// Returns `(eigenvalues descending, eigenvectors row-major)`.
fn jacobi_eigen(a: &mut [f64], d: usize) -> (Vec<f64>, Vec<f64>) {
    // V starts as identity.
    let mut v = vec![0.0f64; d * d];
    for i in 0..d {
        v[i * d + i] = 1.0;
    }
    let max_sweeps = 32;
    for _ in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..d {
            for q in (p + 1)..d {
                off += a[p * d + q] * a[p * d + q];
            }
        }
        if off.sqrt() < 1e-12 {
            break;
        }
        for p in 0..d {
            for q in (p + 1)..d {
                let apq = a[p * d + q];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a[p * d + p];
                let aqq = a[q * d + q];
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate rows/columns p and q of A.
                for k in 0..d {
                    let akp = a[k * d + p];
                    let akq = a[k * d + q];
                    a[k * d + p] = c * akp - s * akq;
                    a[k * d + q] = s * akp + c * akq;
                }
                for k in 0..d {
                    let apk = a[p * d + k];
                    let aqk = a[q * d + k];
                    a[p * d + k] = c * apk - s * aqk;
                    a[q * d + k] = s * apk + c * aqk;
                }
                // Accumulate the rotation into V (rows are eigenvectors).
                for k in 0..d {
                    let vpk = v[p * d + k];
                    let vqk = v[q * d + k];
                    v[p * d + k] = c * vpk - s * vqk;
                    v[q * d + k] = s * vpk + c * vqk;
                }
            }
        }
    }
    // Extract and sort by descending eigenvalue.
    let mut order: Vec<usize> = (0..d).collect();
    let evs: Vec<f64> = (0..d).map(|i| a[i * d + i]).collect();
    order.sort_by(|&x, &y| evs[y].total_cmp(&evs[x]));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| evs[i]).collect();
    let mut components = Vec::with_capacity(d * d);
    for &i in &order {
        components.extend_from_slice(&v[i * d..(i + 1) * d]);
    }
    (eigenvalues, components)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_core::stats::dim_stats;
    use hdidx_rand::{seeded, standard_normal};

    /// Correlated 2-d Gaussian: y = x + small noise.
    fn correlated_2d(n: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        let mut data = Vec::with_capacity(n * 2);
        for _ in 0..n {
            let x = standard_normal(&mut rng);
            let y = x + 0.1 * standard_normal(&mut rng);
            data.push(x as f32);
            data.push(y as f32);
        }
        Dataset::from_flat(2, data).unwrap()
    }

    #[test]
    fn recovers_principal_direction_of_correlated_gaussian() {
        let d = correlated_2d(20_000, 301);
        let klt = Klt::fit(&d).unwrap();
        // Principal direction ~ (1,1)/sqrt(2); second ~ (1,-1)/sqrt(2).
        let c0 = &klt.components[0..2];
        assert!(
            (c0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.02,
            "c0 = {c0:?}"
        );
        assert!((c0[0] - c0[1]).abs() < 0.05, "c0 = {c0:?}");
        // Eigenvalues: ~2.0 and ~0.005 (descending).
        assert!(klt.eigenvalues[0] > klt.eigenvalues[1]);
        assert!(klt.explained_variance(1) > 0.98);
    }

    #[test]
    fn transform_decorrelates_and_orders_variance() {
        let d = correlated_2d(10_000, 302);
        let klt = Klt::fit(&d).unwrap();
        let t = klt.transform(&d).unwrap();
        let ids: Vec<u32> = (0..t.len() as u32).collect();
        let st = dim_stats(&t, &ids).unwrap();
        // Means ~0 after centering; variance descending; covariance ~0.
        assert!(st.mean[0].abs() < 0.02 && st.mean[1].abs() < 0.02);
        assert!(st.variance[0] > st.variance[1]);
        let mut cross = 0.0f64;
        for i in 0..t.len() {
            let p = t.point(i);
            cross += f64::from(p[0]) * f64::from(p[1]);
        }
        cross /= t.len() as f64;
        let scale = (st.variance[0] * st.variance[1]).sqrt();
        assert!(cross.abs() < 0.05 * scale, "cross-cov {cross}");
    }

    #[test]
    fn transform_preserves_pairwise_distances() {
        // Orthonormal rotation: Euclidean distances invariant.
        let d = correlated_2d(500, 303);
        let klt = Klt::fit(&d).unwrap();
        let t = klt.transform(&d).unwrap();
        for (a, b) in [(0usize, 1usize), (5, 99), (200, 450)] {
            let orig = d.dist2_to(a, d.point(b));
            let rot = t.dist2_to(a, t.point(b));
            assert!((orig - rot).abs() < 1e-3 * orig.max(1.0), "{orig} vs {rot}");
        }
    }

    #[test]
    fn eigenvalues_match_axis_aligned_variances() {
        // Already axis-aligned independent data: eigenvalues ==
        // per-dimension variances (sorted), components == axes.
        let mut rng = seeded(304);
        let mut data = Vec::new();
        for _ in 0..20_000 {
            data.push((3.0 * standard_normal(&mut rng)) as f32);
            data.push((0.5 * standard_normal(&mut rng)) as f32);
            data.push((standard_normal(&mut rng)) as f32);
        }
        let d = Dataset::from_flat(3, data).unwrap();
        let klt = Klt::fit(&d).unwrap();
        assert!(
            (klt.eigenvalues[0] - 9.0).abs() < 0.3,
            "{:?}",
            klt.eigenvalues
        );
        assert!((klt.eigenvalues[1] - 1.0).abs() < 0.1);
        assert!((klt.eigenvalues[2] - 0.25).abs() < 0.05);
    }

    #[test]
    fn analog_datasets_are_klt_stable() {
        // The synthetic analogs are generated with axis-aligned decaying
        // variance — applying a real KLT must (approximately) keep the
        // leading explained-variance profile.
        let d = crate::registry::NamedDataset::Texture48
            .spec_scaled(0.05)
            .generate()
            .unwrap();
        let klt = Klt::fit(&d).unwrap();
        assert!(klt.explained_variance(10) > 0.5);
        assert!(klt.explained_variance(48) > 0.999);
    }

    #[test]
    fn validation() {
        let one = Dataset::from_flat(2, vec![1.0, 2.0]).unwrap();
        assert!(Klt::fit(&one).is_err());
        let d = correlated_2d(100, 305);
        let klt = Klt::fit(&d).unwrap();
        let wrong = Dataset::from_flat(3, vec![0.0; 9]).unwrap();
        assert!(klt.transform(&wrong).is_err());
    }
}
