//! Cross-crate invariants: properties that tie two or more crates
//! together and would not be visible from any single crate's unit tests.

use hdidx_rand::seeded;
use hdidx_rand::Rng;
use hdidx_repro::core::Dataset;
use hdidx_repro::diskio::external::{build_on_disk, ExternalConfig};
use hdidx_repro::model::cost::CostInputs;
use hdidx_repro::model::{Resampled, ResampledParams};
use hdidx_repro::vamsplit::bulkload::bulk_load;
use hdidx_repro::vamsplit::query::{count_sphere_intersections, knn};
use hdidx_repro::vamsplit::topology::{PageConfig, Topology};

fn clustered(n: usize, dim: usize, seed: u64) -> Dataset {
    hdidx_repro::datagen::clustered::ClusteredSpec {
        n,
        dim,
        n_clusters: 8,
        decay: 0.05,
        spread: 0.5,
        tail: hdidx_repro::datagen::clustered::Tail::Uniform,
        seed,
    }
    .generate()
    .unwrap()
}

/// The external (memory-budgeted) build must produce exactly the leaf
/// layout of the in-memory loader — on clustered data, not just uniform.
#[test]
fn external_build_matches_in_memory_build_on_clustered_data() {
    let data = clustered(12_000, 12, 21);
    let topo = Topology::new(12, 12_000, &PageConfig::DEFAULT).unwrap();
    let mem = bulk_load(&data, &topo).unwrap();
    for m in [600usize, 2_000, 12_000] {
        let ext =
            build_on_disk(&data, &topo, &ExternalConfig::with_mem_points(m).unwrap()).unwrap();
        assert_eq!(ext.tree.num_leaves(), mem.num_leaves(), "m = {m}");
        let rects_mem: Vec<_> = mem.leaf_rects();
        let rects_ext: Vec<_> = ext.tree.leaf_rects();
        assert_eq!(rects_mem, rects_ext, "m = {m}");
    }
}

/// Best-first k-NN on a bulk-loaded tree accesses exactly the leaves whose
/// MINDIST is within the final radius — on clustered data in moderate
/// dimensionality (the core counting identity of the prediction model).
#[test]
fn optimal_knn_access_identity_on_clustered_data() {
    let data = clustered(8_000, 20, 22);
    let topo = Topology::new(20, 8_000, &PageConfig::DEFAULT).unwrap();
    let tree = bulk_load(&data, &topo).unwrap();
    let pages = tree.leaf_rects();
    let mut rng = seeded(23);
    for _ in 0..25 {
        let idx = rng.gen_range(0..data.len());
        let q = data.point(idx).to_vec();
        let res = knn(&tree, &data, &q, 21).unwrap();
        assert_eq!(
            res.stats.leaf_accesses,
            count_sphere_intersections(&pages, &q, res.radius())
        );
    }
}

/// The simulated I/O of the resampled predictor must agree with the
/// paper's closed-form Eq. 5 within a small factor (the closed form
/// assumes every chunk flushes to every area; the simulation only touches
/// areas that actually receive points).
#[test]
fn simulated_resampled_io_tracks_closed_form() {
    let data = clustered(30_000, 16, 24);
    let topo = Topology::new(16, 30_000, &PageConfig::DEFAULT).unwrap();
    let m = 2_000;
    for h in 2..topo.height().min(4) {
        let sim = Resampled::new(ResampledParams {
            m,
            h_upper: h,
            seed: 25,
        })
        .run(&data, &topo, &[])
        .unwrap()
        .prediction
        .io;
        let formula = CostInputs::new(topo.clone(), m, 0).resampled(h);
        let t_ratio = sim.transfers as f64 / formula.transfers as f64;
        assert!(
            (0.4..=2.5).contains(&t_ratio),
            "h = {h}: simulated {sim:?} vs closed form {formula:?} (ratio {t_ratio:.2})"
        );
        assert!(
            sim.seeks as f64 <= 2.0 * formula.seeks as f64 + 16.0,
            "h = {h}: simulated seeks {} vs formula {}",
            sim.seeks,
            formula.seeks
        );
    }
}

/// Structural similarity (§3.1): the mini-index replicates the full tree's
/// per-level node counts within a few pruned leaves, at several sampling
/// rates and on clustered data.
#[test]
fn mini_index_structural_similarity_across_rates() {
    let data = clustered(20_000, 10, 26);
    let topo = Topology::new(10, 20_000, &PageConfig::DEFAULT).unwrap();
    let full = bulk_load(&data, &topo).unwrap();
    let fp = full.level_profile();
    let mut rng = seeded(27);
    for zeta in [0.1f64, 0.3, 0.6] {
        let sample = hdidx_rand::bernoulli_sample(&mut rng, 20_000, zeta);
        let mini =
            hdidx_repro::vamsplit::bulkload::bulk_load_scaled(&data, sample, &topo, 20_000.0)
                .unwrap();
        mini.check_invariants().unwrap();
        let mp = mini.level_profile();
        assert_eq!(mp.len(), fp.len(), "zeta = {zeta}");
        for (lvl, (m_cnt, f_cnt)) in mp.iter().zip(&fp).enumerate() {
            assert!(
                *m_cnt <= *f_cnt && (*m_cnt as f64) >= 0.9 * (*f_cnt as f64),
                "zeta = {zeta}, level {lvl}: {m_cnt} vs {f_cnt}"
            );
        }
    }
}

/// Projected datasets (Figure 14 substrate) keep per-point prefixes:
/// distances in the projection lower-bound full-space distances, so
/// index-page access counts in the projection with full radii can only
/// overcount, never undercount, the true candidate pages.
#[test]
fn projection_lower_bounds_distances() {
    let data = clustered(2_000, 24, 28);
    let proj = data.project_prefix(8).unwrap();
    let mut rng = seeded(29);
    for _ in 0..50 {
        let a = rng.gen_range(0..2_000usize);
        let b = rng.gen_range(0..2_000usize);
        let full = data.dist2_to(a, data.point(b));
        let low = proj.dist2_to(a, proj.point(b));
        assert!(low <= full + 1e-6);
    }
}
