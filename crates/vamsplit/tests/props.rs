//! Property tests for the topology arithmetic and the non-R-tree
//! structures (the R-tree loader/query properties live in the workspace
//! root suite). Runs on the workspace's own `hdidx-check` harness.

use hdidx_check::{check, prop_assert, prop_assert_eq, prop_assume, Config, Verdict};
use hdidx_core::Dataset;
use hdidx_rand::{seeded, Rng};
use hdidx_vamsplit::kdtree::bulk_load_midsplit;
use hdidx_vamsplit::sstree::SsLeafLayout;
use hdidx_vamsplit::topology::Topology;
use hdidx_vamsplit::vafile::VaFile;

fn dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
}

#[test]
fn topology_arithmetic_is_consistent() {
    check(
        "topology_arithmetic_is_consistent",
        &Config::with_cases(64),
        |rng| {
            (
                rng.gen_range(2..2_000_000usize),
                rng.gen_range(2..200usize),
                rng.gen_range(2..64usize),
            )
        },
        |&(n, cap_data, cap_dir)| {
            prop_assume!(n >= 2 && cap_data >= 2 && cap_dir >= 2);
            let topo = Topology::from_capacities(8, n, cap_data, cap_dir).unwrap();
            let h = topo.height();
            // The root holds everything; one level below does not.
            prop_assert!(topo.subtree_capacity(h) >= n as f64);
            if h > 1 {
                prop_assert!(topo.subtree_capacity(h - 1) < n as f64);
            }
            // Node counts decrease geometrically and end at a single root.
            prop_assert_eq!(topo.nodes_at_level(h), 1);
            for level in 1..h {
                prop_assert!(topo.nodes_at_level(level) >= topo.nodes_at_level(level + 1));
            }
            // pts() is capped by N and by the capacity.
            for level in 1..=h {
                prop_assert!(topo.pts(level) <= n as f64);
                prop_assert!(topo.pts(level) <= topo.subtree_capacity(level));
            }
            // Fanout never exceeds the directory capacity.
            for level in 2..=h {
                let f = topo.fanout_for(level, topo.pts(level));
                prop_assert!(f <= cap_dir, "fanout {f} > cap_dir {cap_dir}");
            }
            Verdict::Pass
        },
    );
}

#[test]
fn upper_leaf_counts_multiply_out() {
    check(
        "upper_leaf_counts_multiply_out",
        &Config::with_cases(64),
        |rng| {
            (
                rng.gen_range(100..500_000usize),
                rng.gen_range(4..64usize),
                rng.gen_range(2..32usize),
            )
        },
        |&(n, cap_data, cap_dir)| {
            prop_assume!(n >= 100 && cap_data >= 4 && cap_dir >= 2);
            let topo = Topology::from_capacities(4, n, cap_data, cap_dir).unwrap();
            prop_assume!(topo.height() >= 3);
            // k(h) grows with h and never exceeds the leaf count.
            let mut prev = 1u64;
            for h in 1..=topo.height() {
                let k = topo.upper_leaf_count(h);
                prop_assert!(k >= prev);
                prop_assert!(k <= topo.leaf_pages());
                prev = k;
            }
            prop_assert_eq!(topo.upper_leaf_count(topo.height()), topo.leaf_pages());
            Verdict::Pass
        },
    );
}

#[test]
fn midsplit_partitions_points() {
    check(
        "midsplit_partitions_points",
        &Config::with_cases(64),
        |rng| (rng.gen_range(0..500u64), rng.gen_range(50..600usize)),
        |&(nseed, n)| {
            prop_assume!(n >= 50);
            let data = dataset(n, 3, nseed);
            let topo = Topology::from_capacities(3, n, 8, 4).unwrap();
            let tree = bulk_load_midsplit(&data, &topo).unwrap();
            tree.check_invariants().unwrap();
            let mut all: Vec<u32> = tree
                .leaves()
                .flat_map(|l| tree.leaf_entries(l).to_vec())
                .collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..n as u32).collect::<Vec<_>>());
            Verdict::Pass
        },
    );
}

#[test]
fn sstree_pages_cover_their_points() {
    check(
        "sstree_pages_cover_their_points",
        &Config::with_cases(64),
        |rng| (rng.gen_range(0..500u64), rng.gen_range(40..400usize)),
        |&(nseed, n)| {
            prop_assume!(n >= 40);
            let data = dataset(n, 4, nseed);
            let topo = Topology::from_capacities(4, n, 8, 4).unwrap();
            let ids: Vec<u32> = (0..n as u32).collect();
            let layout = SsLeafLayout::build(&data, ids, &topo, n as f64).unwrap();
            // A ball of radius 0 centered on any point hits >= 1 page.
            for i in (0..n).step_by(7) {
                prop_assert!(layout.count_intersections(data.point(i), 1e-6) >= 1);
            }
            Verdict::Pass
        },
    );
}

#[test]
fn vafile_lower_bounds_are_sound() {
    check(
        "vafile_lower_bounds_are_sound",
        &Config::with_cases(48),
        |rng| (rng.gen_range(0..300u64), rng.gen_range(1..10u32)),
        |&(nseed, bits)| {
            prop_assume!((1..10).contains(&bits));
            let data = dataset(300, 4, nseed);
            let va = VaFile::build(&data, bits).unwrap();
            let q = data.point(0).to_vec();
            // Exactness regardless of quantization granularity.
            let got = va.knn(&data, &q, 5, 8192).unwrap();
            let truth = hdidx_core::knn::scan_knn(&data, &q, 5).unwrap();
            for (g, t) in got.neighbors.iter().zip(&truth) {
                prop_assert!((g.0 - t.0).abs() < 1e-9);
            }
            Verdict::Pass
        },
    );
}
