//! Flat, row-major point storage.
//!
//! Every crate in the workspace works on a [`Dataset`]: `n` points of `dim`
//! `f32` coordinates stored contiguously. This is both cache-friendly (the
//! hot loops of split/variance/k-NN stream linearly over memory) and matches
//! the storage model behind the paper's page-capacity arithmetic (4-byte
//! coordinates plus an 8-byte record id per point, 8 KB pages).

use crate::error::{Error, Result};
use crate::rect::HyperRect;

/// Size in bytes of one stored coordinate (`f32`).
pub const COORD_BYTES: usize = 4;
/// Size in bytes of the record id stored with every data point.
pub const RECORD_ID_BYTES: usize = 8;

/// A collection of `n` points in `dim` dimensions, stored row-major.
///
/// # Examples
///
/// ```
/// use hdidx_core::Dataset;
///
/// let data = Dataset::from_flat(2, vec![0.0, 0.0, 3.0, 4.0]).unwrap();
/// assert_eq!(data.len(), 2);
/// assert_eq!(data.point(1), &[3.0, 4.0]);
/// assert_eq!(data.dist2_to(1, &[0.0, 0.0]), 25.0);
/// let mbr = data.mbr().unwrap();
/// assert_eq!(mbr.lo(), &[0.0, 0.0]);
/// assert_eq!(mbr.hi(), &[3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    dim: usize,
    data: Vec<f32>,
}

impl Dataset {
    /// Creates a dataset from a row-major coordinate buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `dim == 0` or if `data.len()`
    /// is not a multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Result<Self> {
        if dim == 0 {
            return Err(Error::invalid("dim", "dimensionality must be positive"));
        }
        if !data.len().is_multiple_of(dim) {
            return Err(Error::invalid(
                "data",
                format!("length {} is not a multiple of dim {}", data.len(), dim),
            ));
        }
        Ok(Dataset { dim, data })
    }

    /// Creates an empty dataset with capacity for `n` points.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `dim == 0`.
    pub fn with_capacity(dim: usize, n: usize) -> Result<Self> {
        if dim == 0 {
            return Err(Error::invalid("dim", "dimensionality must be positive"));
        }
        Ok(Dataset {
            dim,
            data: Vec::with_capacity(dim.saturating_mul(n)),
        })
    }

    /// Dimensionality of the points.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the dataset holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow point `i` as a coordinate slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()` (slice indexing).
    #[inline]
    pub fn point(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The raw row-major coordinate buffer.
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Appends one point.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] if `p.len() != self.dim()`.
    pub fn push(&mut self, p: &[f32]) -> Result<()> {
        if p.len() != self.dim {
            return Err(Error::DimensionMismatch {
                expected: self.dim,
                actual: p.len(),
            });
        }
        self.data.extend_from_slice(p);
        Ok(())
    }

    /// Projects the dataset onto its first `k` dimensions.
    ///
    /// Used by the Figure-14 experiment, where an index is built on a prefix
    /// of the (KLT-ordered) dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `k == 0` or `k > self.dim()`.
    pub fn project_prefix(&self, k: usize) -> Result<Dataset> {
        if k == 0 || k > self.dim {
            return Err(Error::invalid(
                "k",
                format!("prefix length {} not in 1..={}", k, self.dim),
            ));
        }
        if k == self.dim {
            return Ok(self.clone());
        }
        let mut data = Vec::with_capacity(self.len() * k);
        for i in 0..self.len() {
            data.extend_from_slice(&self.point(i)[..k]);
        }
        Ok(Dataset { dim: k, data })
    }

    /// Minimal bounding rectangle of the points at `ids`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyInput`] if `ids` is empty.
    pub fn mbr_of(&self, ids: &[u32]) -> Result<HyperRect> {
        if ids.is_empty() {
            return Err(Error::EmptyInput("ids for MBR"));
        }
        let mut rect = HyperRect::point(self.point(ids[0] as usize));
        for &id in &ids[1..] {
            rect.expand_to_point(self.point(id as usize));
        }
        Ok(rect)
    }

    /// Minimal bounding rectangle of the whole dataset.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyInput`] if the dataset is empty.
    pub fn mbr(&self) -> Result<HyperRect> {
        if self.is_empty() {
            return Err(Error::EmptyInput("dataset for MBR"));
        }
        let mut rect = HyperRect::point(self.point(0));
        for i in 1..self.len() {
            rect.expand_to_point(self.point(i));
        }
        Ok(rect)
    }

    /// Squared Euclidean distance between stored point `i` and `q`,
    /// accumulated in `f64`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `q.len() == self.dim()`.
    #[inline]
    pub fn dist2_to(&self, i: usize, q: &[f32]) -> f64 {
        debug_assert_eq!(q.len(), self.dim);
        dist2(self.point(i), q)
    }
}

/// Squared Euclidean distance between two coordinate slices, accumulated in
/// `f64`.
///
/// # Panics
///
/// Debug-asserts that the slices have equal length.
#[inline]
pub fn dist2(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f64;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = f64::from(*x) - f64::from(*y);
        acc += d * d;
    }
    acc
}

/// Bytes needed to store one data point (coordinates plus record id).
#[inline]
pub fn data_entry_bytes(dim: usize) -> usize {
    dim * COORD_BYTES + RECORD_ID_BYTES
}

/// Bytes needed to store one directory entry (an MBR — `lo` and `hi` per
/// dimension — plus a child pointer).
#[inline]
pub fn dir_entry_bytes(dim: usize) -> usize {
    2 * dim * COORD_BYTES + RECORD_ID_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::from_flat(2, vec![0.0, 0.0, 1.0, 2.0, -1.0, 3.0]).unwrap()
    }

    #[test]
    fn construction_checks_shape() {
        assert!(Dataset::from_flat(0, vec![]).is_err());
        assert!(Dataset::from_flat(3, vec![1.0; 4]).is_err());
        let d = Dataset::from_flat(3, vec![1.0; 6]).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.dim(), 3);
    }

    #[test]
    fn push_enforces_dimension() {
        let mut d = Dataset::with_capacity(2, 4).unwrap();
        assert!(d.is_empty());
        d.push(&[1.0, 2.0]).unwrap();
        assert_eq!(
            d.push(&[1.0]),
            Err(Error::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d.point(0), &[1.0, 2.0]);
    }

    #[test]
    fn mbr_covers_points() {
        let d = small();
        let r = d.mbr().unwrap();
        assert_eq!(r.lo(), &[-1.0, 0.0]);
        assert_eq!(r.hi(), &[1.0, 3.0]);
        let r2 = d.mbr_of(&[1]).unwrap();
        assert_eq!(r2.lo(), r2.hi());
        assert!(d.mbr_of(&[]).is_err());
    }

    #[test]
    fn dist2_accumulates_in_f64() {
        let d = small();
        assert_eq!(d.dist2_to(1, &[1.0, 2.0]), 0.0);
        assert_eq!(d.dist2_to(0, &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn project_prefix_truncates_rows() {
        let d = Dataset::from_flat(3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let p = d.project_prefix(2).unwrap();
        assert_eq!(p.dim(), 2);
        assert_eq!(p.point(0), &[1.0, 2.0]);
        assert_eq!(p.point(1), &[4.0, 5.0]);
        assert!(d.project_prefix(0).is_err());
        assert!(d.project_prefix(4).is_err());
        assert_eq!(d.project_prefix(3).unwrap(), d);
    }

    #[test]
    fn entry_bytes_match_paper_texture60_shape() {
        // TEXTURE60: d = 60 with 8 KB pages must give C_data = 33 and
        // C_dir = 16 so that the paper's sigma_lower values are reproduced.
        assert_eq!(8192 / data_entry_bytes(60), 33);
        assert_eq!(8192 / dir_entry_bytes(60), 16);
    }
}
