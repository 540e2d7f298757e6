//! Exact k-nearest-neighbor search kernels over a [`Dataset`].
//!
//! The paper defines each query's k-NN sphere over the full dataset (§4.2)
//! and feeds its radius to every predictor. The linear scan here
//! ([`scan_knn_radius`]) is the oracle for those radii and serve's
//! fallback; workloads take them from best-first search through an
//! in-memory VAMSplit tree (`hdidx_datagen::workload::knn_radii`). Both
//! searches keep their k best candidates in one pruned accumulator,
//! [`KBest`], so they share a single heap, a single early-abandon distance
//! chain and a single SIMD group path, and report the same distance bits.

use crate::dataset::{dist2, Dataset};
use crate::error::{Error, Result};
use crate::simd::{self, Isa};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Dimensions per tile of the early-exit distance kernel (matches
/// [`crate::soup::DIM_TILE`]).
const DIM_TILE: usize = 8;

#[derive(Debug, PartialEq)]
struct Candidate {
    dist2: f64,
    id: u32,
}
impl Eq for Candidate {}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist2
            .total_cmp(&other.dist2)
            .then(self.id.cmp(&other.id))
    }
}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Squared distance from the stored point `p` to `q`, early-exiting once
/// the partial sum reaches `bound`. Returns `Some(d2)` exactly when the
/// fully accumulated `d2 < bound` — and that value is bit-identical to
/// [`crate::dataset::dist2`] (same per-dimension `f64` accumulation order;
/// the early exit is sound because squared terms are non-negative and
/// their `f64` accumulation is monotone). Checked every [`DIM_TILE`]
/// dimensions so the inner loop stays unroll-friendly.
#[inline]
fn dist2_below(p: &[f32], q: &[f32], bound: f64) -> Option<f64> {
    debug_assert_eq!(p.len(), q.len());
    let mut acc = 0.0f64;
    let mut j = 0usize;
    while j < p.len() {
        let tile_end = (j + DIM_TILE).min(p.len());
        for (&x, &y) in p[j..tile_end].iter().zip(&q[j..tile_end]) {
            let d = f64::from(x) - f64::from(y);
            acc += d * d;
        }
        if acc >= bound {
            return None;
        }
        j = tile_end;
    }
    Some(acc)
}

/// The pruned k-best accumulator behind every exact k-NN search: a
/// max-heap of the `k` best `(dist², id)` candidates seen so far plus the
/// live bound — the k-th best `dist²` once the heap is full, `+∞` before.
///
/// The first `k` candidates offered enter unconditionally, with their
/// full distances (`+∞` and NaN included). After that a candidate enters
/// exactly when its fully accumulated `d2` satisfies `!(d2 >= bound)`,
/// evicting the current worst. Distances are accumulated by the early-abandon
/// `dist2_below` chain, or — at `isa.lanes() > 1` — by the SIMD group
/// kernel (`simd::knn_group_below`) over groups of `isa.lanes()` candidates: every
/// lane accumulates its full-precision `f64` chain against the bound held
/// at group entry, then the surviving lanes are re-validated in candidate
/// order against the *live* bound before insertion. Because per-point
/// distances are bit-identical across ISAs and the bound only shrinks,
/// every insert/skip decision — and therefore every reported neighbor and
/// distance bit — matches the scalar path for any ISA and any grouping.
///
/// Two feeds share that logic: [`KBest::offer_rows`] offers every row of
/// the dataset in id order (the linear scan), and [`KBest::offer_ids`] the
/// rows of an id list (an index leaf's entries). Both hand the group
/// kernel each lane's row in place, straight from the dataset's row-major
/// storage, so neither copies a coordinate.
#[derive(Debug)]
pub struct KBest {
    isa: Isa,
    k: usize,
    heap: BinaryHeap<Candidate>,
    bound: f64,
}

impl KBest {
    /// An empty accumulator keeping the `k` best candidates, dispatching
    /// its group kernel to `isa`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `isa` is not supported by this CPU/build.
    #[must_use]
    pub fn new(isa: Isa, k: usize) -> KBest {
        assert!(k > 0, "KBest needs k > 0");
        assert!(
            isa.is_supported(),
            "ISA {isa} requested but not supported by this CPU/build"
        );
        KBest {
            isa,
            k,
            heap: BinaryHeap::with_capacity(k),
            bound: f64::INFINITY,
        }
    }

    /// The live pruning bound: the k-th best `dist²` once [`KBest::is_full`],
    /// `+∞` before. A region whose MINDIST² exceeds it cannot hold a
    /// candidate that would enter.
    #[inline]
    #[must_use]
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// Whether `k` candidates have been kept (the bound is the k-th best
    /// `d²`).
    #[inline]
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// Offers a candidate with its fully accumulated `d2`.
    #[inline]
    fn insert(&mut self, dist2: f64, id: u32) {
        if self.heap.len() == self.k {
            *self.heap.peek_mut().expect("k > 0") = Candidate { dist2, id };
        } else {
            self.heap.push(Candidate { dist2, id });
            if self.heap.len() < self.k {
                return;
            }
        }
        self.bound = self.heap.peek().expect("k > 0").dist2;
    }

    /// Enters candidates `0..count` of a feed unconditionally, with their
    /// full distances, until the heap is full; returns how many it took.
    /// `point(i)` gives candidate `i`'s row and id.
    #[inline]
    fn fill<'d>(
        &mut self,
        count: usize,
        point: impl Fn(usize) -> (&'d [f32], u32),
        q: &[f32],
    ) -> usize {
        let take = (self.k - self.heap.len()).min(count);
        for i in 0..take {
            let (p, id) = point(i);
            self.insert(dist2(p, q), id);
        }
        take
    }

    /// Inserts the group lanes `mask` kept, re-validating each in lane
    /// order against the live bound (it may have shrunk on an earlier lane
    /// of this very group). `!(d2 >= b)` is the exact `dist2_below`
    /// `Some`-condition, NaN included.
    #[inline]
    fn insert_group(&mut self, mask: u32, d2s: &[f64], id_of: impl Fn(usize) -> u32) {
        for (lane, &d2) in d2s.iter().enumerate() {
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if mask & (1 << lane) != 0 && !(d2 >= self.bound) {
                self.insert(d2, id_of(lane));
            }
        }
    }

    /// Offers candidates `0..count` of a feed, `id_of(i)` naming candidate
    /// `i`'s dataset row: the first ones fill the heap, then groups of
    /// `isa.lanes()` rows run through the SIMD group kernel, each lane
    /// reading its row in place, and the scalar [`dist2_below`] chain
    /// takes every row on the scalar path and the sub-group tail.
    #[inline]
    fn offer(&mut self, data: &Dataset, count: usize, id_of: impl Fn(usize) -> u32, q: &[f32]) {
        let lanes = self.isa.lanes();
        let row = |i: usize| data.point(id_of(i) as usize);
        let mut i = self.fill(count, |i| (row(i), id_of(i)), q);
        if lanes > 1 {
            let mut rows: [&[f32]; simd::MAX_LANES] = [&[]; simd::MAX_LANES];
            let mut d2s = [0.0f64; simd::MAX_LANES];
            while i + lanes <= count {
                for (lane, slot) in rows[..lanes].iter_mut().enumerate() {
                    *slot = row(i + lane);
                }
                // The group predicate uses the bound at group entry; a lane
                // the mask rejects has full d2 >= entry bound >= live
                // bound, so the scalar path would skip it too.
                let mask = simd::knn_group_below(self.isa, &rows[..lanes], q, self.bound, &mut d2s);
                if mask != 0 {
                    self.insert_group(mask, &d2s[..lanes], |lane| id_of(i + lane));
                }
                i += lanes;
            }
        }
        for i in i..count {
            if let Some(d2) = dist2_below(row(i), q, self.bound) {
                self.insert(d2, id_of(i));
            }
        }
    }

    /// Offers every dataset point in id order — the linear scan's feed.
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != data.dim()` on a SIMD path.
    pub fn offer_rows(&mut self, data: &Dataset, q: &[f32]) {
        self.offer(data, data.len(), |i| i as u32, q);
    }

    /// Offers the dataset points `ids` (an index leaf's entries, in any
    /// order), through the same group kernel as [`KBest::offer_rows`].
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range or `q.len() != data.dim()` on a
    /// SIMD path.
    pub fn offer_ids(&mut self, data: &Dataset, ids: &[u32], q: &[f32]) {
        self.offer(data, ids.len(), |i| ids[i], q);
    }

    /// The kept candidates as `(distance, id)` pairs in ascending distance
    /// order, ties broken by id.
    #[must_use]
    pub fn into_sorted(self) -> Vec<(f64, u32)> {
        // `into_sorted_vec` already yields ascending (dist2, id) order —
        // the heap's `Ord` — and `sqrt` is monotone, so no re-sort is
        // needed.
        let out: Vec<(f64, u32)> = self
            .heap
            .into_sorted_vec()
            .into_iter()
            .map(|c| (c.dist2.sqrt(), c.id))
            .collect();
        debug_assert!(out
            .windows(2)
            .all(|w| w[0].0.total_cmp(&w[1].0).then(w[0].1.cmp(&w[1].1)) != Ordering::Greater));
        out
    }
}

/// Exact k-NN by linear scan, returning `(distance, id)` pairs in ascending
/// distance order (ties broken by id). Returns fewer than `k` pairs only if
/// the dataset is smaller than `k`.
///
/// The scan feeds every point through a [`KBest`]: once the heap fills,
/// each candidate distance is accumulated in `DIM_TILE`-dimension tiles
/// and abandoned as soon as the partial sum reaches the current k-th
/// distance, which skips most of the per-point work in high dimensions
/// without changing a single reported neighbor or distance bit.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] for a wrong-length query,
/// [`Error::InvalidParameter`] for `k == 0`, and [`Error::EmptyInput`] for
/// an empty dataset.
pub fn scan_knn(data: &Dataset, q: &[f32], k: usize) -> Result<Vec<(f64, u32)>> {
    scan_knn_with(simd::active(), data, q, k)
}

/// [`scan_knn`] pinned to one SIMD ISA — the entry point identity tests
/// and per-ISA bench rows use. The rows are read in place, in id order
/// ([`KBest::offer_rows`]).
///
/// # Errors
///
/// Same conditions as [`scan_knn`].
///
/// # Panics
///
/// Panics if `isa` is not supported by this CPU/build.
pub fn scan_knn_with(isa: Isa, data: &Dataset, q: &[f32], k: usize) -> Result<Vec<(f64, u32)>> {
    if q.len() != data.dim() {
        return Err(Error::DimensionMismatch {
            expected: data.dim(),
            actual: q.len(),
        });
    }
    if k == 0 {
        return Err(Error::invalid("k", "k must be positive"));
    }
    if data.is_empty() {
        return Err(Error::EmptyInput("dataset for scan_knn"));
    }
    let mut best = KBest::new(isa, k);
    best.offer_rows(data, q);
    Ok(best.into_sorted())
}

/// Radius of the exact k-NN sphere of `q` (distance to the k-th neighbor).
///
/// # Errors
///
/// Same conditions as [`scan_knn`].
pub fn scan_knn_radius(data: &Dataset, q: &[f32], k: usize) -> Result<f64> {
    scan_knn_radius_with(simd::active(), data, q, k)
}

/// [`scan_knn_radius`] pinned to one SIMD ISA.
///
/// # Errors
///
/// Same conditions as [`scan_knn`].
///
/// # Panics
///
/// Panics if `isa` is not supported by this CPU/build.
pub fn scan_knn_radius_with(isa: Isa, data: &Dataset, q: &[f32], k: usize) -> Result<f64> {
    let nn = scan_knn_with(isa, data, q, k)?;
    Ok(nn.last().map_or(0.0, |&(d, _)| d))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data() -> Dataset {
        // Points at x = 0, 1, 2, ..., 9.
        Dataset::from_flat(1, (0..10).map(|i| i as f32).collect()).unwrap()
    }

    #[test]
    fn scan_knn_orders_by_distance() {
        let d = line_data();
        let nn = scan_knn(&d, &[2.2], 3).unwrap();
        let ids: Vec<u32> = nn.iter().map(|&(_, i)| i).collect();
        assert_eq!(ids, vec![2, 3, 1]);
        assert!((nn[0].0 - 0.2).abs() < 1e-6);
    }

    #[test]
    fn radius_is_kth_distance() {
        let d = line_data();
        let r = scan_knn_radius(&d, &[0.0], 3).unwrap();
        assert!((r - 2.0).abs() < 1e-9);
        // Self-query: nearest is itself at distance 0.
        let r1 = scan_knn_radius(&d, &[5.0], 1).unwrap();
        assert_eq!(r1, 0.0);
    }

    #[test]
    fn validation() {
        let d = line_data();
        assert!(scan_knn(&d, &[0.0, 0.0], 1).is_err());
        assert!(scan_knn(&d, &[0.0], 0).is_err());
        let empty = Dataset::with_capacity(1, 0).unwrap();
        assert!(scan_knn(&empty, &[0.0], 1).is_err());
    }

    #[test]
    fn k_exceeding_dataset_returns_all() {
        let d = line_data();
        let nn = scan_knn(&d, &[0.0], 25).unwrap();
        assert_eq!(nn.len(), 10);
    }

    #[test]
    fn tie_break_order_is_distance_then_id() {
        // Regression pin for the tail ordering: `into_sorted_vec` must come
        // out ascending by (distance, id) with no extra sort. Duplicated
        // points produce exact distance ties at several ids.
        let d = Dataset::from_flat(
            1,
            vec![5.0, 1.0, 3.0, 1.0, 3.0, 1.0, 9.0], // ids 1..=5 all at distance 1
        )
        .unwrap();
        let nn = scan_knn(&d, &[2.0], 6).unwrap();
        let ids: Vec<u32> = nn.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 0]);
        for w in nn.windows(2) {
            assert!(
                w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1),
                "order violated: {w:?}"
            );
        }
    }

    #[test]
    fn pruned_scan_matches_exhaustive_distances() {
        // The early-exit kernel must reproduce the unpruned scan bit for
        // bit, including in dimensions beyond one DIM_TILE.
        let mut rng = hdidx_rand::seeded(99);
        use hdidx_rand::Rng;
        for &dim in &[3usize, 8, 19, 64] {
            let n = 400;
            let data =
                Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap();
            let q: Vec<f32> = (0..dim).map(|_| rng.gen::<f32>()).collect();
            let nn = scan_knn(&data, &q, 9).unwrap();
            // Exhaustive reference: all distances, fully accumulated.
            let mut all: Vec<(f64, u32)> = (0..n)
                .map(|i| (data.dist2_to(i, &q).sqrt(), i as u32))
                .collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            assert_eq!(nn, all[..9].to_vec(), "dim {dim}");
        }
    }

    #[test]
    fn gathered_feed_matches_the_scan_at_every_isa() {
        // Ids offered shuffled, in uneven chunks, through the gathered
        // path must keep exactly the scan's neighbors.
        let mut rng = hdidx_rand::seeded(31);
        use hdidx_rand::Rng;
        for &dim in &[1usize, 9, 48] {
            let n = 257;
            let data =
                Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap();
            let q: Vec<f32> = (0..dim).map(|_| rng.gen::<f32>()).collect();
            let mut ids: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                ids.swap(i, rng.gen_range(0..=i));
            }
            for k in [1usize, 21, n + 3] {
                let want = scan_knn_with(Isa::Scalar, &data, &q, k).unwrap();
                for isa in simd::supported() {
                    let mut best = KBest::new(isa, k);
                    for chunk in ids.chunks(7) {
                        best.offer_ids(&data, chunk, &q);
                    }
                    assert_eq!(best.into_sorted(), want, "dim {dim} k {k} {isa}");
                }
            }
        }
    }

    #[test]
    fn non_finite_distances_still_fill_the_heap() {
        // The first k candidates enter whatever their distance, so an
        // infinite coordinate in the data or the query never shortens the
        // answer below k pairs — on the scan and the gathered feed alike.
        let inf = f32::INFINITY;
        let data = Dataset::from_flat(1, vec![0.0, inf, 1.0, inf, 2.0, -inf, 3.0]).unwrap();
        let ids: Vec<u32> = (0..7).rev().collect();
        for isa in simd::supported() {
            let nn = scan_knn_with(isa, &data, &[0.0], 7).unwrap();
            assert_eq!(nn.len(), 7, "{isa}");
            assert_eq!(nn[3].0, 3.0, "{isa}");
            assert!(nn[4..].iter().all(|&(d, _)| d == f64::INFINITY), "{isa}");
            assert_eq!(
                scan_knn_radius_with(isa, &data, &[0.0], 6).unwrap(),
                f64::INFINITY,
                "{isa}"
            );
            let finite = line_data();
            let far = scan_knn_with(isa, &finite, &[inf], 3).unwrap();
            assert_eq!(far.len(), 3, "{isa}");
            assert!(far.iter().all(|&(d, _)| d == f64::INFINITY), "{isa}");
            let mut best = KBest::new(isa, 6);
            best.offer_ids(&data, &ids, &[0.0]);
            let gathered = best.into_sorted();
            assert_eq!(gathered.len(), 6, "{isa}");
            assert_eq!(gathered[5].0, f64::INFINITY, "{isa}");
        }
    }
}
