//! End-to-end integration: the full paper pipeline across all crates —
//! generate → topology → workload → on-disk measurement → prediction —
//! with assertions on the qualitative results the paper reports.

use hdidx_repro::datagen::clustered::{ClusteredSpec, Tail};
use hdidx_repro::datagen::registry::NamedDataset;
use hdidx_repro::datagen::workload::Workload;
use hdidx_repro::diskio::external::ExternalConfig;
use hdidx_repro::diskio::measure::measure_on_disk;
use hdidx_repro::diskio::DiskModel;
use hdidx_repro::model::{
    hupper, Basic, BasicParams, Cutoff, CutoffParams, QueryBall, Resampled, ResampledParams,
};
use hdidx_repro::vamsplit::topology::{PageConfig, Topology};

struct Pipeline {
    data: hdidx_repro::core::Dataset,
    topo: Topology,
    balls: Vec<QueryBall>,
    measured_avg: f64,
    measured_io: hdidx_repro::diskio::IoStats,
}

fn pipeline(n: usize, dim: usize, m: usize, seed: u64) -> Pipeline {
    let data = ClusteredSpec {
        n,
        dim,
        n_clusters: 12,
        decay: 0.06,
        spread: 0.5,
        tail: Tail::Uniform,
        seed,
    }
    .generate()
    .unwrap();
    let topo = Topology::new(dim, n, &PageConfig::DEFAULT).unwrap();
    let workload = Workload::density_biased(&data, 40, 21, seed + 1).unwrap();
    let balls: Vec<QueryBall> = workload
        .queries
        .iter()
        .map(|q| QueryBall::new(q.center.clone(), q.radius))
        .collect();
    let centers: Vec<Vec<f32>> = workload.queries.iter().map(|q| q.center.clone()).collect();
    let measured = measure_on_disk(
        &data,
        &topo,
        &centers,
        21,
        &ExternalConfig::with_mem_points(m).unwrap(),
    )
    .unwrap();
    Pipeline {
        data,
        topo,
        balls,
        measured_avg: measured.avg_leaf_accesses(),
        measured_io: measured.total_io(),
    }
}

#[test]
fn resampled_prediction_is_accurate_and_cheap() {
    let m = 2_000;
    let p = pipeline(20_000, 24, m, 11);
    let h = hupper::recommended_h_upper(&p.topo, m).unwrap();
    let pred = Resampled::new(ResampledParams {
        m,
        h_upper: h,
        seed: 12,
    })
    .run(&p.data, &p.topo, &p.balls)
    .unwrap();
    let err = pred.prediction.relative_error(p.measured_avg);
    assert!(
        err.abs() < 0.25,
        "resampled error {err:+.3} (measured {}, predicted {})",
        p.measured_avg,
        pred.prediction.avg_leaf_accesses()
    );
    // The prediction must be at least 5x cheaper than building + probing.
    let disk = DiskModel::PAPER;
    let speedup = disk.cost_seconds(p.measured_io) / disk.cost_seconds(pred.prediction.io);
    assert!(speedup > 5.0, "speedup only {speedup:.1}x");
}

#[test]
fn cutoff_is_cheaper_than_resampled_which_is_cheaper_than_on_disk() {
    let m = 2_000;
    let p = pipeline(20_000, 24, m, 13);
    let h = hupper::recommended_h_upper(&p.topo, m).unwrap();
    let cut = Cutoff::new(CutoffParams {
        m,
        h_upper: h,
        seed: 14,
    })
    .run(&p.data, &p.topo, &p.balls)
    .unwrap();
    let res = Resampled::new(ResampledParams {
        m,
        h_upper: h,
        seed: 14,
    })
    .run(&p.data, &p.topo, &p.balls)
    .unwrap();
    let disk = DiskModel::PAPER;
    let c_cut = disk.cost_seconds(cut.prediction.io);
    let c_res = disk.cost_seconds(res.prediction.io);
    let c_disk = disk.cost_seconds(p.measured_io);
    assert!(
        c_cut < c_res && c_res < c_disk,
        "cutoff {c_cut:.2}s, resampled {c_res:.2}s, on-disk {c_disk:.2}s"
    );
}

#[test]
fn basic_model_with_full_sample_reproduces_measurement_exactly() {
    let m = 4_000;
    let p = pipeline(8_000, 16, m, 15);
    let pred = Basic::new(BasicParams {
        zeta: 1.0,
        compensate: true,
        seed: 16,
    })
    .run(&p.data, &p.topo, &p.balls)
    .unwrap();
    assert!(
        (pred.avg_leaf_accesses() - p.measured_avg).abs() < 1e-9,
        "zeta = 1 must be exact: {} vs {}",
        pred.avg_leaf_accesses(),
        p.measured_avg
    );
}

#[test]
fn named_dataset_page_sizes_yield_valid_topologies() {
    for ds in NamedDataset::ALL {
        let spec = ds.spec_scaled(0.01);
        let topo = Topology::new(
            spec.dim(),
            spec.n(),
            &PageConfig::with_page_bytes(ds.page_bytes()),
        );
        assert!(topo.is_ok(), "{} topology failed: {topo:?}", ds.name());
    }
}

#[test]
fn workload_radii_shrink_with_larger_k_distance_ordering() {
    let data = NamedDataset::Texture48
        .spec_scaled(0.05)
        .generate()
        .unwrap();
    let w5 = Workload::density_biased(&data, 15, 5, 1).unwrap();
    let w21 = Workload::density_biased(&data, 15, 21, 1).unwrap();
    // Same centers (same seed): the 21-NN radius dominates the 5-NN radius.
    for (a, b) in w5.queries.iter().zip(&w21.queries) {
        assert_eq!(a.point_id, b.point_id);
        assert!(a.radius <= b.radius);
    }
}

#[test]
fn prediction_error_improves_from_h2_underestimate_towards_recommended() {
    // The paper's Table 3 progression: strong underestimation for a
    // too-small upper tree, error shrinking at the recommended height.
    let m = 1_500;
    let p = pipeline(30_000, 60, m, 17);
    assert!(p.topo.height() >= 4, "need height >= 4");
    let err_of = |h: usize| {
        Resampled::new(ResampledParams {
            m,
            h_upper: h,
            seed: 18,
        })
        .run(&p.data, &p.topo, &p.balls)
        .unwrap()
        .prediction
        .relative_error(p.measured_avg)
    };
    let h_rec = hupper::recommended_h_upper(&p.topo, m).unwrap();
    if h_rec > 2 {
        let e2 = err_of(2);
        let er = err_of(h_rec);
        assert!(
            er.abs() <= e2.abs() + 0.05,
            "recommended h {h_rec} error {er:+.3} vs h=2 error {e2:+.3}"
        );
    }
}
