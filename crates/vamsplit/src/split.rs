//! Rank-based partitioning (Hoare's *find* / quickselect) over point-id
//! slices, keyed by one coordinate dimension.
//!
//! The bulk loader partitions a set of points into left/right halves such
//! that the left half holds exactly `rank` points with the smallest
//! coordinates along the split dimension. The paper (§4.1) uses Hoare's
//! `find` for this; we implement the iterative three-way (Dutch national
//! flag) variant, which keeps the expected cost linear even on data with
//! many duplicate coordinates.
//!
//! The select runs over a key column: the split dimension's coordinates,
//! gathered once per split into a contiguous `f32` buffer
//! (`gather_keys`) and swapped in step with the ids
//! (`partition_keyed`). Each narrowing pass then streams 8 bytes a
//! point instead of fetching one coordinate from a scattered row, which
//! is what the bulk loader's big splits pay for (a 28 MB dataset does not
//! fit in cache). Every caller owns the key buffer and reuses it across
//! its splits: the bulk loader keeps one for the whole load and hands the
//! same column to its observer, so the external build's bill reads it too;
//! [`partition_by_rank`] gathers into the buffer it is given.

use hdidx_core::Dataset;

/// Reorders `ids` so that the `rank` smallest elements along dimension
/// `dim` occupy `ids[..rank]` and everything `>=` the implied pivot value
/// occupies `ids[rank..]`. Equal keys may land on either side of the cut,
/// but the rank property always holds exactly.
///
/// `rank` is clamped to `0..=ids.len()`; the boundary values are no-ops.
/// Gathers the key column into the caller's `keys` (its old contents are
/// dropped, its allocation reused) and runs the keyed select the bulk
/// loader runs.
///
/// # Panics
///
/// Panics if `dim >= data.dim()` or an id is out of range.
pub fn partition_by_rank(
    data: &Dataset,
    ids: &mut [u32],
    dim: usize,
    rank: usize,
    keys: &mut Vec<f32>,
) {
    if rank == 0 || rank >= ids.len() {
        return;
    }
    gather_keys(data, ids, dim, keys);
    partition_keyed(data, keys, ids, dim, rank);
}

/// Replaces `keys` with the `dim` coordinates of the points at `ids`, in
/// `ids` order.
///
/// # Panics
///
/// Panics if an id is out of range or `dim >= data.dim()`.
pub(crate) fn gather_keys(data: &Dataset, ids: &[u32], dim: usize, keys: &mut Vec<f32>) {
    assert!(dim < data.dim(), "key dimension {dim} out of range");
    let (flat, d) = (data.as_flat(), data.dim());
    keys.clear();
    keys.extend(ids.iter().map(|&id| flat[id as usize * d + dim]));
}

/// [`partition_by_rank`] over a gathered key column: `keys[i]` is the
/// `dim` coordinate of `ids[i]` (as [`gather_keys`] leaves it), and both
/// slices are permuted by the same swaps. Segments of at most 16 ids are
/// finished by sorting the ids on their `data` coordinates, which leaves
/// `keys` stale there; the ids are what the caller keeps.
///
/// # Panics
///
/// Panics if `keys` and `ids` differ in length; debug-asserts
/// `dim < data.dim()`.
pub(crate) fn partition_keyed(
    data: &Dataset,
    keys: &mut [f32],
    ids: &mut [u32],
    dim: usize,
    rank: usize,
) {
    assert_eq!(keys.len(), ids.len(), "one key per id");
    debug_assert!(dim < data.dim());
    let rank = rank.min(ids.len());
    if rank == 0 || rank == ids.len() {
        return;
    }
    let key = |id: u32| data.point(id as usize)[dim];
    let mut lo = 0usize;
    let mut hi = ids.len();
    let mut target = rank;
    // Invariant: the answer index `target` (relative to `lo`) lies within
    // ids[lo..hi]; everything left of `lo` is <= everything in ids[lo..hi],
    // which is <= everything right of `hi`.
    loop {
        let len = hi - lo;
        if len <= 1 {
            return;
        }
        if len <= 16 {
            // Small segment: insertion sort finishes the job exactly.
            ids[lo..hi].sort_unstable_by(|&a, &b| key(a).total_cmp(&key(b)));
            return;
        }
        let pivot = median_of_three(keys[lo], keys[lo + len / 2], keys[hi - 1]);
        // Three-way partition of [lo, hi) around `pivot`:
        // [lo, lt) < pivot, [lt, i) == pivot, (gt, hi) > pivot.
        let mut lt = lo;
        let mut i = lo;
        let mut gt = hi;
        while i < gt {
            let k = keys[i];
            if k < pivot {
                keys.swap(lt, i);
                ids.swap(lt, i);
                lt += 1;
                i += 1;
            } else if k > pivot {
                gt -= 1;
                keys.swap(i, gt);
                ids.swap(i, gt);
            } else {
                i += 1;
            }
        }
        let n_less = lt - lo;
        let n_eq = gt - lt;
        if target < n_less {
            hi = lt;
        } else if target < n_less + n_eq {
            // The cut falls inside the run of equal keys — already placed.
            return;
        } else {
            target -= n_less + n_eq;
            lo = gt;
        }
    }
}

/// The median of three keys: the pivot rule of the quickselect and of the
/// external build's narrowing passes.
#[inline]
pub fn median_of_three(a: f32, b: f32, c: f32) -> f32 {
    if a <= b {
        if b <= c {
            b
        } else if a <= c {
            c
        } else {
            a
        }
    } else if a <= c {
        a
    } else if b <= c {
        c
    } else {
        b
    }
}

/// Verifies the rank property (used by tests and `debug_assert!` call
/// sites): `max(key(ids[..rank])) <= min(key(ids[rank..]))`.
pub fn rank_property_holds(data: &Dataset, ids: &[u32], dim: usize, rank: usize) -> bool {
    if rank == 0 || rank >= ids.len() {
        return true;
    }
    let key = |id: u32| data.point(id as usize)[dim];
    let left_max = ids[..rank].iter().map(|&i| key(i)).fold(f32::MIN, f32::max);
    let right_min = ids[rank..].iter().map(|&i| key(i)).fold(f32::MAX, f32::min);
    left_max <= right_min
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_check::{check, prop_assert_eq, Config, Verdict};
    use hdidx_rand::Rng;

    /// The data-keyed quickselect [`partition_keyed`] replays: every
    /// narrowing pass reads each key from the point's row.
    fn partition_by_rank_oracle(data: &Dataset, ids: &mut [u32], dim: usize, rank: usize) {
        let rank = rank.min(ids.len());
        if rank == 0 || rank == ids.len() {
            return;
        }
        let key = |id: u32| data.point(id as usize)[dim];
        let mut lo = 0usize;
        let mut hi = ids.len();
        let mut target = rank;
        loop {
            let len = hi - lo;
            if len <= 1 {
                return;
            }
            if len <= 16 {
                ids[lo..hi].sort_unstable_by(|&a, &b| key(a).total_cmp(&key(b)));
                return;
            }
            let pivot = median_of_three(key(ids[lo]), key(ids[lo + len / 2]), key(ids[hi - 1]));
            let mut lt = lo;
            let mut i = lo;
            let mut gt = hi;
            while i < gt {
                let k = key(ids[i]);
                if k < pivot {
                    ids.swap(lt, i);
                    lt += 1;
                    i += 1;
                } else if k > pivot {
                    gt -= 1;
                    ids.swap(i, gt);
                } else {
                    i += 1;
                }
            }
            let n_less = lt - lo;
            let n_eq = gt - lt;
            if target < n_less {
                hi = lt;
            } else if target < n_less + n_eq {
                return;
            } else {
                target -= n_less + n_eq;
                lo = gt;
            }
        }
    }

    /// A coordinate in one of four key regimes: 0 heavy ties (four
    /// values), 1 all equal, 2 NaN and both zeros among a few values,
    /// 3 spread floats.
    fn key_coord(rng: &mut impl Rng, regime: u32) -> f32 {
        match regime {
            0 => rng.gen_range(0..4u32) as f32 * 0.5,
            1 => 3.0,
            2 => match rng.gen_range(0..6u32) {
                0 => f32::NAN,
                1 => -f32::NAN,
                2 => 0.0,
                3 => -0.0,
                4 => -1.0,
                _ => 1.0,
            },
            _ => rng.gen_range(-1.0..1.0f32) * 2f32.powi(rng.gen_range(-20..20i32)),
        }
    }

    /// `(dim, coordinates, ids, rank)`: 1–40 distinct ids of up to 60
    /// points, in random order; the rank is 0, 1, len − 1, len or drawn
    /// between.
    fn gen_select_case(rng: &mut impl Rng) -> (usize, Vec<f32>, Vec<u32>, usize) {
        let dim = rng.gen_range(1..=3usize);
        let n = rng.gen_range(1..=60usize);
        let regime = rng.gen_range(0..4u32);
        let coords: Vec<f32> = (0..n * dim).map(|_| key_coord(rng, regime)).collect();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        ids.truncate(rng.gen_range(1..=n.min(40)));
        let len = ids.len();
        let rank = match rng.gen_range(0..5u32) {
            0 => 0,
            1 => 1.min(len),
            2 => len - 1,
            3 => len,
            _ => rng.gen_range(0..=len),
        };
        (dim, coords, ids, rank)
    }

    #[test]
    fn keyed_select_replays_the_data_keyed_id_order() {
        check(
            "keyed_select_replays_the_data_keyed_id_order",
            &Config::with_cases(2_000),
            gen_select_case,
            |(dim, coords, ids, rank)| {
                let dim = (*dim).max(1);
                let n = coords.len() / dim;
                let ids: Vec<u32> = ids
                    .iter()
                    .copied()
                    .filter(|&id| (id as usize) < n)
                    .collect();
                if ids.is_empty() {
                    return Verdict::Discard;
                }
                let data = Dataset::from_flat(dim, coords[..n * dim].to_vec()).unwrap();
                let rank = (*rank).min(ids.len());
                // One buffer across the dimensions: a stale column from the
                // previous select must not leak into the next.
                let mut keys = Vec::new();
                for d in 0..dim {
                    let mut want = ids.clone();
                    partition_by_rank_oracle(&data, &mut want, d, rank);
                    let mut got = ids.clone();
                    partition_by_rank(&data, &mut got, d, rank, &mut keys);
                    prop_assert_eq!(&got, &want);
                }
                Verdict::Pass
            },
        );
    }

    fn dataset_from_column(vals: &[f32]) -> Dataset {
        Dataset::from_flat(1, vals.to_vec()).unwrap()
    }

    #[test]
    fn median_of_three_all_orders() {
        let perms: [[f32; 3]; 6] = [
            [1.0, 2.0, 3.0],
            [1.0, 3.0, 2.0],
            [2.0, 1.0, 3.0],
            [2.0, 3.0, 1.0],
            [3.0, 1.0, 2.0],
            [3.0, 2.0, 1.0],
        ];
        for p in perms {
            assert_eq!(median_of_three(p[0], p[1], p[2]), 2.0, "{p:?}");
        }
        assert_eq!(median_of_three(5.0, 5.0, 1.0), 5.0);
    }

    #[test]
    fn partitions_simple_sequences() {
        let d = dataset_from_column(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        let mut ids: Vec<u32> = (0..5).collect();
        partition_by_rank(&d, &mut ids, 0, 2, &mut Vec::new());
        assert!(rank_property_holds(&d, &ids, 0, 2));
        let mut left: Vec<f32> = ids[..2].iter().map(|&i| d.point(i as usize)[0]).collect();
        left.sort_by(f32::total_cmp);
        assert_eq!(left, vec![1.0, 2.0]);
    }

    #[test]
    fn boundary_ranks_are_noops() {
        let d = dataset_from_column(&[3.0, 1.0, 2.0]);
        let mut ids: Vec<u32> = vec![0, 1, 2];
        partition_by_rank(&d, &mut ids, 0, 0, &mut Vec::new());
        assert_eq!(ids, vec![0, 1, 2]);
        partition_by_rank(&d, &mut ids, 0, 3, &mut Vec::new());
        assert_eq!(ids, vec![0, 1, 2]);
        partition_by_rank(&d, &mut ids, 0, 99, &mut Vec::new()); // clamped
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn handles_all_equal_keys() {
        let d = dataset_from_column(&[7.0; 100]);
        let mut ids: Vec<u32> = (0..100).collect();
        partition_by_rank(&d, &mut ids, 0, 37, &mut Vec::new());
        assert!(rank_property_holds(&d, &ids, 0, 37));
        // Must remain a permutation.
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn randomized_ranks_on_random_data() {
        let mut rng = hdidx_rand::seeded(99);
        for trial in 0..50 {
            let n = rng.gen_range(2..400usize);
            let vals: Vec<f32> = (0..n)
                .map(|_| (rng.gen_range(0..40) as f32) * 0.25)
                .collect();
            let d = dataset_from_column(&vals);
            let mut ids: Vec<u32> = (0..n as u32).collect();
            let rank = rng.gen_range(0..=n);
            partition_by_rank(&d, &mut ids, 0, rank, &mut Vec::new());
            assert!(
                rank_property_holds(&d, &ids, 0, rank),
                "trial {trial}: rank {rank} of {n}"
            );
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn partitions_on_selected_dimension_only() {
        // dim 0 constant, dim 1 descending; partition on dim 1.
        let d =
            Dataset::from_flat(2, vec![0.0, 9.0, 0.0, 8.0, 0.0, 7.0, 0.0, 6.0, 0.0, 5.0]).unwrap();
        let mut ids: Vec<u32> = (0..5).collect();
        partition_by_rank(&d, &mut ids, 1, 3, &mut Vec::new());
        assert!(rank_property_holds(&d, &ids, 1, 3));
    }
}
