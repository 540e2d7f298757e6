//! **§4.7 ablation**: the sampling predictor across index structures.
//!
//! Three fixed-capacity paged structures over the same clustered data:
//!
//! * VAMSplit R\*-tree (rectangles, variance splits) — the paper's target,
//! * SS-tree-style layout (bounding spheres, variance splits),
//! * mid-split k-d layout (rectangles, space splits — the geometry the
//!   *uniform baseline* assumes).
//!
//! For each, the §3 basic sampling model (ζ = 25 %) is scored against that
//! structure's own measured page accesses; the uniform baseline is scored
//! against the mid-split tree, the one structure whose layout it actually
//! models. Expected: sampling is accurate on *every* structure; the
//! uniform model is tolerable only on its own layout and only because the
//! data here is low-skew per upper box — on the VAMSplit tree it remains
//! far off.

use hdidx_bench::table::{pct, Table};
use hdidx_bench::ExpArgs;
use hdidx_core::{simd, HyperRect, LeafSoup};
use hdidx_datagen::registry::NamedDataset;
use hdidx_datagen::workload::Workload;
use hdidx_model::structures::{measure_sstree, predict_basic_sstree};
use hdidx_model::{Basic, BasicParams, QueryBall};
use hdidx_vamsplit::bulkload::bulk_load;
use hdidx_vamsplit::kdtree::bulk_load_midsplit;
use hdidx_vamsplit::topology::{PageConfig, Topology};

fn main() {
    let args = ExpArgs::parse(0.1, 100);
    args.banner("§4.7 ablation: sampling prediction across index structures (TEXTURE48)");
    let data = NamedDataset::Texture48
        .spec_scaled(args.scale * 4.0)
        .generate()
        .expect("generate");
    let topo = Topology::new(data.dim(), data.len(), &PageConfig::DEFAULT).expect("topology");
    let workload =
        Workload::density_biased(&data, args.queries, args.k, args.seed).expect("workload");
    let balls: Vec<QueryBall> = workload
        .queries
        .iter()
        .map(|q| QueryBall::new(q.center.clone(), q.radius))
        .collect();
    let params = BasicParams {
        zeta: 0.25,
        compensate: true,
        seed: args.seed,
    };
    let avg = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    // Measured accesses: leaves each query sphere intersects, counted with
    // the SoA kernel the predictors use.
    let count = |pages: &[HyperRect]| -> Vec<u64> {
        LeafSoup::from_rects(data.dim(), pages)
            .expect("leaf soup")
            .count_batch_with(simd::active(), &balls, |q| (q.center.as_slice(), q.radius))
    };

    let mut table = Table::new(&["Structure", "Measured acc/query", "Predictor", "Rel. error"]);

    // VAMSplit R*-tree.
    let rtree = bulk_load(&data, &topo).expect("bulk load");
    let measured_r = count(&rtree.leaf_rects());
    let pred = Basic::new(params)
        .run(&data, &topo, &balls)
        .expect("predict");
    table.row(vec![
        "VAMSplit R*-tree".into(),
        format!("{:.1}", avg(&measured_r)),
        "sampling (basic)".into(),
        pct(pred.relative_error(avg(&measured_r))),
    ]);

    // SS-tree layout.
    let measured_s = measure_sstree(&data, &topo, &balls).expect("measure sstree");
    let pred_s = predict_basic_sstree(&data, &topo, &balls, &params).expect("predict sstree");
    table.row(vec![
        "SS-tree (spheres)".into(),
        format!("{:.1}", avg(&measured_s)),
        "sampling (basic)".into(),
        pct(pred_s.relative_error(avg(&measured_s))),
    ]);

    // Mid-split k-d layout: measured accesses + the uniform baseline that
    // assumes exactly this layout.
    let kd = bulk_load_midsplit(&data, &topo).expect("midsplit");
    let measured_k = count(&kd.leaf_rects());
    let uni =
        hdidx_baselines::uniform::predict_uniform(&topo, workload.k).expect("uniform baseline");
    table.row(vec![
        "Mid-split k-d".into(),
        format!("{:.1}", avg(&measured_k)),
        "uniform baseline".into(),
        pct((uni - avg(&measured_k)) / avg(&measured_k)),
    ]);
    table.row(vec![
        "VAMSplit R*-tree".into(),
        format!("{:.1}", avg(&measured_r)),
        "uniform baseline".into(),
        pct((uni - avg(&measured_r)) / avg(&measured_r)),
    ]);

    table.print();
    println!(
        "\nexpected: the sampling rows stay within a few percent on every \
         structure; the uniform-baseline rows are off by orders of magnitude \
         in high dimensions regardless of layout"
    );
}
