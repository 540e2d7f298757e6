//! Integration: the M-tree substrate, the §2.3 distance-distribution cost
//! model on its home structure, and the §4.7 sampling recipe applied to a
//! metric tree.

use hdidx_rand::Rng;
use hdidx_rand::{bernoulli_sample, seeded};
use hdidx_repro::baselines::distdist::{predict_ball_pages, DistanceDistribution};
use hdidx_repro::core::Dataset;
use hdidx_repro::datagen::clustered::{ClusteredSpec, Tail};
use hdidx_repro::model::compensation::growth_factor;
use hdidx_repro::vamsplit::mtree::MTree;

fn clustered(n: usize, dim: usize, seed: u64) -> Dataset {
    ClusteredSpec {
        n,
        dim,
        n_clusters: 10,
        decay: 0.05,
        spread: 0.5,
        tail: Tail::Uniform,
        seed,
    }
    .generate()
    .unwrap()
}

#[test]
fn mtree_knn_on_clustered_data_is_exact() {
    let data = clustered(4_000, 12, 41);
    let tree = MTree::bulk_load(&data, 20, 8).unwrap();
    tree.check_invariants(&data).unwrap();
    let mut rng = seeded(42);
    for _ in 0..10 {
        let idx = rng.gen_range(0..data.len());
        let q = data.point(idx).to_vec();
        let got = tree.knn(&data, &q, 11).unwrap();
        let truth = hdidx_repro::core::knn::scan_knn(&data, &q, 11).unwrap();
        for (g, t) in got.neighbors.iter().zip(&truth) {
            assert!((g.0 - t.0).abs() < 1e-6);
        }
    }
}

#[test]
fn distance_distribution_model_predicts_mtree_pages() {
    // The Ciaccia-style §2.3 model on its home structure: predicted
    // accesses within a factor ~2.5 of the measured M-tree page accesses
    // for data-distributed ball queries.
    let data = clustered(6_000, 10, 43);
    let tree = MTree::bulk_load(&data, 25, 10).unwrap();
    let spheres = tree.leaf_spheres(&data);
    let dist = DistanceDistribution::estimate(&data, 20_000, 44).unwrap();
    let r_q = 0.3 * dist.median();
    let mut measured = 0.0f64;
    let q_count = 40;
    for i in 0..q_count {
        let q = data.point(i * 97);
        measured += spheres.iter().filter(|s| s.intersects_ball(q, r_q)).count() as f64;
    }
    measured /= q_count as f64;
    let predicted = predict_ball_pages(&dist, &spheres, r_q);
    let ratio = predicted / measured.max(1.0);
    assert!(
        (0.3..3.0).contains(&ratio),
        "predicted {predicted:.1}, measured {measured:.1}"
    );
}

#[test]
fn sampling_recipe_applies_to_metric_trees() {
    // §4.7 for the M-tree: build a mini M-tree on a ζ sample with page
    // capacity C·ζ, grow leaf sphere radii by the radial compensation,
    // count ball intersections — accuracy within 35 % of the full-tree
    // count (metric partitioning is noisier than rank partitioning, but
    // the recipe transfers).
    let data = clustered(8_000, 8, 45);
    let cap_leaf = 32usize;
    let full = MTree::bulk_load(&data, cap_leaf, 10).unwrap();
    let full_spheres = full.leaf_spheres(&data);

    let zeta = 0.5f64;
    let mut rng = seeded(46);
    let sample_ids = bernoulli_sample(&mut rng, data.len(), zeta);
    let sample = data.gather(&sample_ids);
    let mini_cap = ((cap_leaf as f64 * zeta) as usize).max(2);
    let mini = MTree::bulk_load(&sample, mini_cap, 10).unwrap();
    let factor = growth_factor(cap_leaf as f64, zeta).unwrap().sqrt();
    let grown: Vec<_> = mini
        .leaf_spheres(&sample)
        .into_iter()
        .map(|s| s.scaled(factor).unwrap())
        .collect();

    let r_q = {
        let d = DistanceDistribution::estimate(&data, 5_000, 47).unwrap();
        0.25 * d.median()
    };
    let mut measured = 0.0f64;
    let mut predicted = 0.0f64;
    let q_count = 50;
    for i in 0..q_count {
        let q = data.point(i * 131);
        measured += full_spheres
            .iter()
            .filter(|s| s.intersects_ball(q, r_q))
            .count() as f64;
        predicted += grown.iter().filter(|s| s.intersects_ball(q, r_q)).count() as f64;
    }
    let err = (predicted - measured).abs() / measured.max(1.0);
    assert!(
        err < 0.35,
        "measured {measured:.1}, predicted {predicted:.1} ({err:+.2})"
    );
}
