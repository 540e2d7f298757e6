//! Workload radii through the in-memory tree against the linear-scan
//! oracle: every radius `knn_radii` and `Workload::density_biased` report
//! must equal `scan_knn_radius` bit for bit — on data with duplicate
//! points, across dimensions from 1 to ISOLET617's 617, for `k` of 1, 21
//! and beyond the dataset, for a single-point dataset, and at 1/2/8
//! threads. Non-finite coordinates are refused with a typed error, never
//! a panic.

use hdidx_check::{check, prop_assert_eq, Config, Verdict};
use hdidx_core::knn::scan_knn_radius;
use hdidx_core::{Dataset, Error};
use hdidx_datagen::workload::knn_radii;
use hdidx_datagen::Workload;
use hdidx_pool::Pool;
use hdidx_rand::{seeded, Rng};

/// Below, at and above the 8-wide distance tile, TEXTURE48, COLOR64 and
/// ISOLET617.
const DIMS: &[usize] = &[1, 8, 9, 48, 64, 617];

/// Random points where every fourth point repeats an earlier one and a
/// third of the coordinates sit on a coarse grid, so exact distance ties
/// occur at several ids.
fn dataset_with_duplicates(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let mut flat: Vec<f32> = Vec::with_capacity(n * dim);
    for i in 0..n {
        if i % 4 == 3 {
            let src = rng.gen_range(0..i);
            let row = flat[src * dim..(src + 1) * dim].to_vec();
            flat.extend_from_slice(&row);
        } else {
            flat.extend((0..dim).map(|_| {
                if rng.gen_bool(0.3) {
                    (rng.gen_range(0..4) as f32) * 0.25
                } else {
                    rng.gen::<f32>()
                }
            }));
        }
    }
    Dataset::from_flat(dim, flat).unwrap()
}

fn bits(radii: impl IntoIterator<Item = f64>) -> Vec<u64> {
    radii.into_iter().map(f64::to_bits).collect()
}

/// The oracle: one full scan per center.
fn scan_bits(data: &Dataset, ids: &[u32], k: usize) -> Vec<u64> {
    bits(
        ids.iter()
            .map(|&id| scan_knn_radius(data, data.point(id as usize), k).unwrap()),
    )
}

#[test]
fn tree_radii_equal_the_scan_bit_for_bit() {
    check(
        "tree_radii_equal_the_scan_bit_for_bit",
        &Config::with_cases(32),
        |rng| {
            (
                rng.gen_range(0..DIMS.len()),
                rng.gen_range(0..3000usize),
                rng.gen_range(0..3usize),
                rng.next_u64(),
            )
        },
        |&(dim_sel, n_sel, k_sel, seed)| {
            let dim = DIMS[dim_sel % DIMS.len()];
            // Every fifth case is the single-point dataset. The low
            // dimensions reach three-level trees; fewer points at high
            // dimensions keep the scan oracle cheap in debug builds.
            let n_max = (60_000 / dim).clamp(400, 3000);
            let n = if n_sel % 5 == 0 {
                1
            } else {
                2 + n_sel % (n_max - 1)
            };
            let k = [1, 21, n + 5][k_sel % 3];
            let data = dataset_with_duplicates(n, dim, seed);
            let q = n.min(64);
            let w = Workload::density_biased(&data, q, k, seed).unwrap();
            let ids: Vec<u32> = w.queries.iter().map(|query| query.point_id).collect();
            let want = scan_bits(&data, &ids, k);
            prop_assert_eq!(bits(w.queries.iter().map(|query| query.radius)), want);
            for threads in [1usize, 2, 8] {
                let got = knn_radii(&data, &ids, k, &Pool::new(threads)).unwrap();
                prop_assert_eq!(bits(got), want);
            }
            Verdict::Pass
        },
    );
}

#[test]
fn non_finite_coordinates_are_refused_by_the_workload_and_knn_radii() {
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        for dim in [1usize, 9] {
            let data = dataset_with_duplicates(50, dim, 3);
            let mut flat = data.as_flat().to_vec();
            flat[17 * dim + dim - 1] = bad;
            let poisoned = Dataset::from_flat(dim, flat).unwrap();
            let refused = |r: hdidx_core::Result<Workload>| {
                matches!(r, Err(Error::InvalidParameter { name: "data", .. }))
            };
            assert!(
                refused(Workload::density_biased(&poisoned, 10, 5, 1)),
                "{bad} at dim {dim}"
            );
            for threads in [1usize, 2] {
                assert!(knn_radii(&poisoned, &[0, 17], 5, &Pool::new(threads)).is_err());
            }
        }
    }
}
