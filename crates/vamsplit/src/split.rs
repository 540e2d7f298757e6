//! Rank-based partitioning (Hoare's *find* / quickselect) over point-id
//! slices, keyed by one coordinate dimension.
//!
//! The bulk loader partitions a set of points into left/right halves such
//! that the left half holds exactly `rank` points with the smallest
//! coordinates along the split dimension. The paper (§4.1) uses Hoare's
//! `find` for this; we implement the iterative three-way (Dutch national
//! flag) variant, which keeps the expected cost linear even on data with
//! many duplicate coordinates.

use hdidx_core::Dataset;

/// Reorders `ids` so that the `rank` smallest elements along dimension
/// `dim` occupy `ids[..rank]` and everything `>=` the implied pivot value
/// occupies `ids[rank..]`. Equal keys may land on either side of the cut,
/// but the rank property always holds exactly.
///
/// `rank` is clamped to `0..=ids.len()`; the boundary values are no-ops.
///
/// # Panics
///
/// Debug-asserts `dim < data.dim()` and that all ids are in range (via
/// slice indexing).
pub fn partition_by_rank(data: &Dataset, ids: &mut [u32], dim: usize, rank: usize) {
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
        let pivot = median_of_three(key(ids[lo]), key(ids[lo + len / 2]), key(ids[hi - 1]));
        // Three-way partition of ids[lo..hi] around `pivot`:
        // [lo, lt) < pivot, [lt, i) == pivot, (gt, hi) > pivot.
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
            // The cut falls inside the run of equal keys — already placed.
            return;
        } else {
            target -= n_less + n_eq;
            lo = gt;
        }
    }
}

#[inline]
fn median_of_three(a: f32, b: f32, c: f32) -> f32 {
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
    use hdidx_rand::Rng;

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
        partition_by_rank(&d, &mut ids, 0, 2);
        assert!(rank_property_holds(&d, &ids, 0, 2));
        let mut left: Vec<f32> = ids[..2].iter().map(|&i| d.point(i as usize)[0]).collect();
        left.sort_by(f32::total_cmp);
        assert_eq!(left, vec![1.0, 2.0]);
    }

    #[test]
    fn boundary_ranks_are_noops() {
        let d = dataset_from_column(&[3.0, 1.0, 2.0]);
        let mut ids: Vec<u32> = vec![0, 1, 2];
        partition_by_rank(&d, &mut ids, 0, 0);
        assert_eq!(ids, vec![0, 1, 2]);
        partition_by_rank(&d, &mut ids, 0, 3);
        assert_eq!(ids, vec![0, 1, 2]);
        partition_by_rank(&d, &mut ids, 0, 99); // clamped
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn handles_all_equal_keys() {
        let d = dataset_from_column(&[7.0; 100]);
        let mut ids: Vec<u32> = (0..100).collect();
        partition_by_rank(&d, &mut ids, 0, 37);
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
            partition_by_rank(&d, &mut ids, 0, rank);
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
        partition_by_rank(&d, &mut ids, 1, 3);
        assert!(rank_property_holds(&d, &ids, 1, 3));
    }
}
