//! Property-based tests over the core data structures and invariants,
//! driving randomized datasets, topologies and queries through the whole
//! stack. Runs on the workspace's own `hdidx-check` harness: every case
//! is a seed, failures report the seed and shrink the input spec.

use hdidx_check::{check, prop_assert, prop_assert_eq, prop_assume, Config, Verdict};
use hdidx_rand::{seeded, Rng};
use hdidx_repro::core::{Dataset, HyperRect};
use hdidx_repro::model::compensation::{delta, extent_shrinkage, growth_factor};
use hdidx_repro::vamsplit::bulkload::{bulk_load, bulk_load_scaled};
use hdidx_repro::vamsplit::query::{knn, scan_knn};
use hdidx_repro::vamsplit::split::{partition_by_rank, rank_property_holds};
use hdidx_repro::vamsplit::topology::Topology;

/// Builds the randomized dataset the old proptest strategy produced: a
/// mix of uniform and quantized coordinates to exercise duplicates.
fn mixed_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let data: Vec<f32> = (0..n * dim)
        .map(|_| {
            if rng.gen_bool(0.3) {
                (rng.gen_range(0..8) as f32) * 0.125
            } else {
                rng.gen::<f32>()
            }
        })
        .collect();
    Dataset::from_flat(dim, data).unwrap()
}

#[test]
fn partition_preserves_permutation_and_rank() {
    check(
        "partition_preserves_permutation_and_rank",
        &Config::with_cases(64),
        |rng| {
            (
                rng.gen_range(2..=300usize),
                rng.gen_range(1..=4usize),
                rng.next_u64(),
                rng.gen_f64(),
            )
        },
        |&(n, dim, seed, rank_frac)| {
            prop_assume!(n >= 2 && (1..=4).contains(&dim) && (0.0..=1.0).contains(&rank_frac));
            let data = mixed_dataset(n, dim, seed);
            let rank = ((n as f64) * rank_frac) as usize;
            let mut ids: Vec<u32> = (0..n as u32).collect();
            partition_by_rank(&data, &mut ids, dim - 1, rank, &mut Vec::new());
            prop_assert!(rank_property_holds(&data, &ids, dim - 1, rank));
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..n as u32).collect::<Vec<_>>());
            Verdict::Pass
        },
    );
}

#[test]
fn bulk_load_invariants_hold_for_random_shapes() {
    check(
        "bulk_load_invariants_hold_for_random_shapes",
        &Config::with_cases(64),
        |rng| {
            (
                rng.gen_range(2..=600usize),
                rng.gen_range(1..=5usize),
                rng.next_u64(),
                rng.gen_range(2..12usize),
                rng.gen_range(2..8usize),
            )
        },
        |&(n, dim, seed, cap_data, cap_dir)| {
            prop_assume!(n >= 2 && dim >= 1 && cap_data >= 2 && cap_dir >= 2);
            let data = mixed_dataset(n, dim, seed);
            let topo = Topology::from_capacities(dim, n, cap_data, cap_dir).unwrap();
            let tree = bulk_load(&data, &topo).unwrap();
            tree.check_invariants().unwrap();
            prop_assert_eq!(tree.num_entries(), data.len());
            prop_assert_eq!(tree.height(), topo.height());
            // Every leaf respects the data-page capacity.
            for leaf in tree.leaves() {
                prop_assert!(tree.leaf_entries(leaf).len() <= cap_data);
            }
            // Leaves partition the points.
            let mut all: Vec<u32> = tree
                .leaves()
                .flat_map(|l| tree.leaf_entries(l).to_vec())
                .collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..data.len() as u32).collect::<Vec<_>>());
            Verdict::Pass
        },
    );
}

#[test]
fn tree_knn_matches_scan_knn() {
    check(
        "tree_knn_matches_scan_knn",
        &Config::with_cases(64),
        |rng| {
            (
                rng.gen_range(2..=400usize),
                rng.gen_range(1..=4usize),
                rng.next_u64(),
                rng.gen_range(1..10usize),
                rng.next_u64(),
            )
        },
        |&(n, dim, seed, k, qseed)| {
            prop_assume!(n >= 2 && dim >= 1 && k >= 1);
            let data = mixed_dataset(n, dim, seed);
            let topo = Topology::from_capacities(dim, n, 6, 4).unwrap();
            let tree = bulk_load(&data, &topo).unwrap();
            let mut rng = seeded(qseed);
            let q: Vec<f32> = (0..dim).map(|_| rng.gen::<f32>()).collect();
            let got = knn(&tree, &data, &q, k).unwrap();
            let expect = scan_knn(&data, &q, k).unwrap();
            prop_assert_eq!(got.neighbors.len(), expect.len());
            for (g, e) in got.neighbors.iter().zip(&expect) {
                prop_assert!((g.0 - e.0).abs() < 1e-9, "{} vs {}", g.0, e.0);
            }
            Verdict::Pass
        },
    );
}

#[test]
fn mini_index_entries_are_the_sample() {
    check(
        "mini_index_entries_are_the_sample",
        &Config::with_cases(64),
        |rng| {
            (
                rng.gen_range(2..=500usize),
                rng.gen_range(1..=3usize),
                rng.next_u64(),
                rng.gen_range(0.2..1.0f64),
                rng.next_u64(),
            )
        },
        |&(n, dim, seed, zeta, sseed)| {
            prop_assume!(n >= 2 && dim >= 1 && zeta > 0.0 && zeta <= 1.0);
            let data = mixed_dataset(n, dim, seed);
            let topo = Topology::from_capacities(dim, n, 8, 4).unwrap();
            let mut rng = seeded(sseed);
            let sample = hdidx_rand::bernoulli_sample(&mut rng, n, zeta);
            prop_assume!(!sample.is_empty());
            let mini = bulk_load_scaled(&data, sample.clone(), &topo, n as f64).unwrap();
            mini.check_invariants().unwrap();
            let mut got: Vec<u32> = mini
                .leaves()
                .flat_map(|l| mini.leaf_entries(l).to_vec())
                .collect();
            got.sort_unstable();
            prop_assert_eq!(got, sample);
            Verdict::Pass
        },
    );
}

#[test]
fn compensation_identities() {
    check(
        "compensation_identities",
        &Config::with_cases(256),
        |rng| (rng.gen_range(2.0..10_000.0f64), rng.gen_f64()),
        |&(c, zeta)| {
            prop_assume!(c >= 2.0 && c * zeta > 1.0 && zeta > 0.0 && zeta <= 1.0);
            let s = extent_shrinkage(c, zeta).unwrap();
            let g = growth_factor(c, zeta).unwrap();
            // Shrinkage and growth are inverses, both positive, shrinkage <= 1.
            prop_assert!((s * g - 1.0).abs() < 1e-12);
            prop_assert!(s > 0.0 && s <= 1.0 + 1e-12);
            // delta(c, zeta, d) is growth^d and monotone in d.
            let d3 = delta(c, zeta, 3).unwrap();
            let d6 = delta(c, zeta, 6).unwrap();
            prop_assert!((d3 - g.powi(3)).abs() < 1e-9 * d3.max(1.0));
            prop_assert!(d6 >= d3 - 1e-12);
            Verdict::Pass
        },
    );
}

#[test]
fn grown_rect_contains_original() {
    check(
        "grown_rect_contains_original",
        &Config::with_cases(256),
        |rng| {
            let dim = rng.gen_range(1..6usize);
            let lo: Vec<f32> = (0..dim).map(|_| rng.gen_range(-100.0..100.0f32)).collect();
            let extent: Vec<f32> = (0..dim).map(|_| rng.gen_range(0.0..50.0f32)).collect();
            (lo, extent, rng.gen_range(1.0..5.0f64))
        },
        |(lo, extent, factor)| {
            prop_assume!(
                !lo.is_empty()
                    && lo.len() == extent.len()
                    && lo.iter().all(|l| l.is_finite())
                    && extent.iter().all(|e| (0.0..=50.0).contains(e))
                    && (1.0..=5.0).contains(factor)
            );
            let hi: Vec<f32> = lo.iter().zip(extent).map(|(l, e)| l + e).collect();
            let rect = HyperRect::new(lo.clone(), hi.clone()).unwrap();
            let grown = rect.scaled_about_center(*factor).unwrap();
            for j in 0..lo.len() {
                // Allow one ulp of slack from the f32 round-trip.
                prop_assert!(grown.lo()[j] <= rect.lo()[j] + rect.lo()[j].abs() * 1e-5 + 1e-4);
                prop_assert!(grown.hi()[j] >= rect.hi()[j] - rect.hi()[j].abs() * 1e-5 - 1e-4);
            }
            Verdict::Pass
        },
    );
}

#[test]
fn mindist_is_a_lower_bound_on_member_distances() {
    check(
        "mindist_is_a_lower_bound_on_member_distances",
        &Config::with_cases(64),
        |rng| {
            (
                rng.gen_range(2..=120usize),
                rng.gen_range(1..=4usize),
                rng.next_u64(),
                rng.next_u64(),
            )
        },
        |&(n, dim, seed, qseed)| {
            prop_assume!(n >= 2 && dim >= 1);
            let data = mixed_dataset(n, dim, seed);
            let topo = Topology::from_capacities(dim, n, 5, 4).unwrap();
            let tree = bulk_load(&data, &topo).unwrap();
            let mut rng = seeded(qseed);
            let q: Vec<f32> = (0..dim).map(|_| rng.gen::<f32>()).collect();
            for leaf in tree.leaves() {
                let md = leaf.rect.mindist2(&q);
                for &id in tree.leaf_entries(leaf) {
                    prop_assert!(data.dist2_to(id as usize, &q) >= md - 1e-6);
                }
            }
            Verdict::Pass
        },
    );
}
