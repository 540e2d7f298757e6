//! The fractal-dimensionality cost model (Korn, Pagel & Faloutsos,
//! ICDE'00 style).
//!
//! Two fractal dimensions are estimated by box counting over a pyramid of
//! grids (cell side halving per level):
//!
//! * `D0` (Hausdorff/box-counting): slope of `log N₀(r)` vs `log (1/r)`,
//!   where `N₀(r)` is the number of occupied cells at side `r`;
//! * `D2` (correlation): slope of `log S₂(r)` vs `log r`, where
//!   `S₂(r) = Σᵢ pᵢ²` over cell occupancy fractions.
//!
//! The cost model then replaces the embedding dimensionality in the
//! page-geometry arithmetic: pages are assumed square *in the fractal
//! sense* with side `a = (C/N)^{1/D0} · L`, and the Minkowski-sum access
//! probability becomes `((a + 2r)/L)^{D0}` — the exponent is the inherent,
//! not the embedding, dimensionality.
//!
//! **Reproduction note** (documented in DESIGN.md): Korn et al. also derive
//! the expected k-NN radius from `D2`; on datasets with `D2 ≪ 1` that
//! extrapolation is numerically meaningless (`(k/N)^{1/D2}` under/overflows
//! — this is precisely the regime where the paper reports the fractal
//! model failing). We therefore feed the model the *measured* mean query
//! radius — a strictly charitable substitution — and it still
//! overestimates by large factors on clustered high-dimensional data,
//! reproducing the paper's Table 4 ordering.

use hdidx_core::{Dataset, Error, Result};
use hdidx_vamsplit::topology::Topology;
use std::collections::HashMap;

/// Estimated fractal dimensions of a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FractalDims {
    /// Box-counting dimension.
    pub d0: f64,
    /// Correlation dimension.
    pub d2: f64,
}

/// Estimates `D0` and `D2` by box counting with `levels` grid refinements
/// (cell side halves per level). `O(N · d · levels)`.
///
/// # Errors
///
/// Rejects empty data and `levels < 3` (a slope needs at least three
/// scales).
pub fn estimate_fractal_dims(data: &Dataset, levels: usize) -> Result<FractalDims> {
    if data.is_empty() {
        return Err(Error::EmptyInput("dataset for fractal estimation"));
    }
    if levels < 3 {
        return Err(Error::invalid("levels", "need at least 3 grid scales"));
    }
    let mbr = data.mbr()?;
    let d = data.dim();
    // Normalization: cell side at level j is L / 2^j of the longest MBR
    // extent; degenerate extents collapse to cell 0.
    let side0 = (0..d).map(|j| mbr.extent(j)).fold(0.0f64, f64::max);
    if side0 == 0.0 {
        // All points identical: a single occupied cell at every scale.
        return Ok(FractalDims { d0: 0.0, d2: 0.0 });
    }
    let mut log_inv_r = Vec::with_capacity(levels);
    let mut log_n0 = Vec::with_capacity(levels);
    let mut log_s2 = Vec::with_capacity(levels);
    let n = data.len() as f64;
    for level in 1..=levels {
        let cells = 1u64 << level;
        let inv_side = cells as f64 / side0;
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for i in 0..data.len() {
            let p = data.point(i);
            // FNV-1a over the quantized coordinates. With ≤ ~1e6 occupied
            // cells the 64-bit collision probability is negligible for a
            // slope estimate.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for (j, (&x, &lo_j)) in p.iter().zip(mbr.lo()).enumerate() {
                let q = ((f64::from(x) - f64::from(lo_j)) * inv_side) as u64;
                let q = q.min(cells - 1);
                h ^= q.wrapping_add(0x9e37_79b9_7f4a_7c15);
                h = h.wrapping_mul(0x1000_0000_01b3);
                h ^= j as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            *counts.entry(h).or_insert(0) += 1;
        }
        let n0 = counts.len() as f64;
        let s2: f64 = counts.values().map(|&c| (c as f64 / n).powi(2)).sum();
        log_inv_r.push((inv_side).ln());
        log_n0.push(n0.ln());
        log_s2.push(s2.ln());
    }
    // D0: slope of log N0 vs log 1/r. D2: slope of log S2 vs log r
    // = -slope of log S2 vs log 1/r.
    let d0 = slope(&log_inv_r, &log_n0);
    let d2 = -slope(&log_inv_r, &log_s2);
    Ok(FractalDims {
        d0: d0.max(0.0),
        d2: d2.max(0.0),
    })
}

/// Least-squares slope of `y` over `x`.
fn slope(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (xi, yi) in x.iter().zip(y) {
        num += (xi - mx) * (yi - my);
        den += (xi - mx) * (xi - mx);
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Predicted average page accesses for queries of mean radius
/// `mean_radius`, given the estimated fractal dimensions and the data-space
/// scale `space_side` (longest MBR extent).
///
/// # Errors
///
/// Rejects non-positive scale. A `D0` of 0 (single-cell data) predicts 1
/// page.
pub fn predict_fractal(
    topo: &Topology,
    dims: &FractalDims,
    mean_radius: f64,
    space_side: f64,
) -> Result<f64> {
    if !(space_side.is_finite() && space_side > 0.0) {
        return Err(Error::invalid("space_side", "must be finite and positive"));
    }
    let pages = topo.leaf_pages() as f64;
    if dims.d0 <= 0.0 {
        return Ok(1.0);
    }
    // Fractal page side (fraction of the space): (C/N)^(1/D0).
    let occupancy = topo.cap_data() as f64 / topo.n() as f64;
    let a = occupancy.powf(1.0 / dims.d0).min(1.0);
    let reach = (a + 2.0 * mean_radius / space_side).min(1.0);
    let prob = reach.powf(dims.d0);
    Ok((pages * prob).clamp(1.0, pages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_rand::Rng;
    use hdidx_rand::{seeded, standard_normal};

    fn uniform_data(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
    }

    #[test]
    fn uniform_2d_has_dimension_near_2() {
        let data = uniform_data(50_000, 2, 101);
        let dims = estimate_fractal_dims(&data, 7).unwrap();
        assert!((dims.d0 - 2.0).abs() < 0.35, "D0 = {}", dims.d0);
        assert!((dims.d2 - 2.0).abs() < 0.35, "D2 = {}", dims.d2);
    }

    #[test]
    fn line_embedded_in_3d_has_dimension_near_1() {
        // Points on a diagonal line in 3-d: inherent dimensionality 1.
        let mut rng = seeded(102);
        let mut data = Vec::new();
        for _ in 0..20_000 {
            let t: f32 = rng.gen();
            data.extend_from_slice(&[t, t, t]);
        }
        let d = Dataset::from_flat(3, data).unwrap();
        let dims = estimate_fractal_dims(&d, 8).unwrap();
        assert!((dims.d0 - 1.0).abs() < 0.2, "D0 = {}", dims.d0);
        assert!((dims.d2 - 1.0).abs() < 0.2, "D2 = {}", dims.d2);
    }

    #[test]
    fn clustered_high_dim_data_has_tiny_fractal_dimension() {
        // Tight Gaussian clusters in 30-d: the box-counting dimension at
        // coarse scales is far below the embedding dimensionality — the
        // regime the paper exploits in §5.3.
        let mut rng = seeded(103);
        let mut centers = Vec::new();
        for _ in 0..5 {
            let c: Vec<f64> = (0..30).map(|_| standard_normal(&mut rng)).collect();
            centers.push(c);
        }
        let mut data = Vec::new();
        for i in 0..20_000 {
            let c = &centers[i % 5];
            for &cj in c.iter() {
                data.push((cj + 0.01 * standard_normal(&mut rng)) as f32);
            }
        }
        let d = Dataset::from_flat(30, data).unwrap();
        let dims = estimate_fractal_dims(&d, 6).unwrap();
        assert!(dims.d0 < 5.0, "D0 = {}", dims.d0);
    }

    #[test]
    fn degenerate_data() {
        let d = Dataset::from_flat(4, vec![1.0; 400]).unwrap();
        let dims = estimate_fractal_dims(&d, 5).unwrap();
        assert_eq!(dims.d0, 0.0);
        assert_eq!(dims.d2, 0.0);
        let empty = Dataset::with_capacity(4, 0).unwrap();
        assert!(estimate_fractal_dims(&empty, 5).is_err());
        assert!(estimate_fractal_dims(&d, 2).is_err());
    }

    #[test]
    fn prediction_bounds_and_monotonicity() {
        let topo = Topology::from_capacities(60, 275_465, 33, 16).unwrap();
        let dims = FractalDims { d0: 3.0, d2: 2.5 };
        let small = predict_fractal(&topo, &dims, 0.01, 10.0).unwrap();
        let large = predict_fractal(&topo, &dims, 5.0, 10.0).unwrap();
        assert!(small >= 1.0);
        assert!(large <= topo.leaf_pages() as f64);
        assert!(small < large);
        assert!(predict_fractal(&topo, &dims, 0.1, 0.0).is_err());
        // D0 = 0 collapses to a single page.
        let dims0 = FractalDims { d0: 0.0, d2: 0.0 };
        assert_eq!(predict_fractal(&topo, &dims0, 0.1, 10.0).unwrap(), 1.0);
    }

    #[test]
    fn tiny_d0_overestimates_accesses() {
        // With D0 ~ 0.1 (as the paper measured on TEXTURE60) the access
        // probability is (2r/L)^0.1, which stays near 1 even for small
        // radii: the model predicts most pages accessed — the Table 4
        // overestimation.
        let topo = Topology::from_capacities(60, 275_465, 33, 16).unwrap();
        let dims = FractalDims { d0: 0.1, d2: 0.004 };
        let p = predict_fractal(&topo, &dims, 0.5, 10.0).unwrap();
        assert!(
            p > 0.6 * topo.leaf_pages() as f64,
            "predicted {p} of {}",
            topo.leaf_pages()
        );
    }
}
