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

use crate::table::{pct, Table};
use crate::{ExpArgs, Suite};
use hdidx_core::{simd, HyperRect, LeafSoup, Result};
use hdidx_datagen::registry::NamedDataset;
use hdidx_model::structures::{measure_sstree, predict_basic_sstree};
use hdidx_model::{Basic, BasicParams};
use hdidx_vamsplit::bulkload::bulk_load;
use hdidx_vamsplit::kdtree::bulk_load_midsplit;

pub fn run(suite: &Suite, args: &ExpArgs) -> Result<()> {
    args.banner("§4.7 ablation: sampling prediction across index structures (TEXTURE48)");
    let scale = (args.scale * 4.0).min(1.0);
    let ctx = suite.context(NamedDataset::Texture48, &ExpArgs { scale, ..*args })?;
    let (data, topo, balls) = (&ctx.data, &ctx.topo, &ctx.balls);
    let params = BasicParams {
        zeta: 0.25,
        compensate: true,
        seed: args.seed,
    };
    let avg = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    // Measured accesses: leaves each query sphere intersects, counted with
    // the SoA kernel the predictors use.
    let count = |pages: &[HyperRect]| {
        LeafSoup::from_rects(data.dim(), pages).map(|soup| {
            soup.count_batch_with(simd::active(), balls, |q| (q.center.as_slice(), q.radius))
        })
    };

    let mut table = Table::new(&["Structure", "Measured acc/query", "Predictor", "Rel. error"]);

    // VAMSplit R*-tree.
    let rtree = bulk_load(data, topo)?;
    let measured_r = count(&rtree.leaf_rects())?;
    let pred = Basic::new(params).run(data, topo, balls)?;
    table.row(vec![
        "VAMSplit R*-tree".into(),
        format!("{:.1}", avg(&measured_r)),
        "sampling (basic)".into(),
        pct(pred.relative_error(avg(&measured_r))),
    ]);

    // SS-tree layout.
    let measured_s = measure_sstree(data, topo, balls)?;
    let pred_s = predict_basic_sstree(data, topo, balls, &params)?;
    table.row(vec![
        "SS-tree (spheres)".into(),
        format!("{:.1}", avg(&measured_s)),
        "sampling (basic)".into(),
        pct(pred_s.relative_error(avg(&measured_s))),
    ]);

    // Mid-split k-d layout: measured accesses + the uniform baseline that
    // assumes exactly this layout.
    let kd = bulk_load_midsplit(data, topo)?;
    let measured_k = count(&kd.leaf_rects())?;
    let uni = hdidx_baselines::uniform::predict_uniform(topo, ctx.workload.k)?;
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
    outln!(
        "\nexpected: the sampling rows stay within a few percent on every \
         structure; the uniform-baseline rows are off by orders of magnitude \
         in high dimensions regardless of layout"
    );
    Ok(())
}
