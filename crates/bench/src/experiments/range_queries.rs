//! **Range-query extension**: the paper notes the technique "can also be
//! applied to range queries" — a range (ball) query is a sphere with a
//! known radius, so the prediction path is identical to k-NN minus the
//! radius-determination scan.
//!
//! This experiment sweeps the range radius on the TEXTURE48 analog and
//! compares measured vs resampled-predicted leaf accesses at each radius.

use crate::context::balls_of;
use crate::table::{pct, Table};
use crate::{ExpArgs, Suite};
use hdidx_core::Result;
use hdidx_datagen::registry::NamedDataset;
use hdidx_datagen::workload::Workload;
use hdidx_diskio::external::{build_on_disk, ExternalConfig};
use hdidx_model::{hupper, Resampled, ResampledParams};
use hdidx_vamsplit::query::range_accesses;

pub fn run(suite: &Suite, args: &ExpArgs) -> Result<()> {
    args.banner("Range-query prediction (TEXTURE48, radius sweep)");
    // The dataset, with 50 21-NN queries whose mean radius scales the
    // sweep.
    let knn = ExpArgs {
        queries: 50,
        k: 21,
        ..*args
    };
    let ctx = suite.context(NamedDataset::Texture48, &knn)?;
    let (data, topo) = (&ctx.data, &ctx.topo);
    let m = ((10_000.0 * args.scale) as usize).max(500);
    let built = build_on_disk(data, topo, &ExternalConfig::with_mem_points(m)?)?;
    let h = hupper::recommended_h_upper(topo, m)?;
    outln!(
        "dataset: {} x {}, {} leaf pages, M = {m}, h_upper = {h}",
        data.len(),
        data.dim(),
        topo.leaf_pages()
    );

    // Radius scale: multiples of the mean 21-NN distance.
    let base_r = ctx.workload.mean_radius();

    let mut table = Table::new(&[
        "Radius (x mean 21-NN)",
        "Measured acc/query",
        "Predicted acc/query",
        "Rel. error",
    ]);
    for mult in [0.5f64, 0.75, 1.0, 1.5, 2.0] {
        let radius = base_r * mult;
        let w = Workload::range_biased(data, args.queries, radius, args.seed + 1)?;
        let mut total = 0u64;
        for q in &w.queries {
            total += range_accesses(&built.tree, &q.center, q.radius)?.leaf_accesses;
        }
        let measured = total as f64 / w.len() as f64;
        let balls = balls_of(&w);
        let p = Resampled::new(ResampledParams {
            m,
            h_upper: h,
            seed: args.seed,
        })
        .run(data, topo, &balls)?;
        table.row(vec![
            format!("{mult:.2}"),
            format!("{measured:.1}"),
            format!("{:.1}", p.prediction.avg_leaf_accesses()),
            pct(p.prediction.relative_error(measured)),
        ]);
    }
    table.print();
    outln!("\nexpected: accuracy comparable to the k-NN experiments at every radius");
    Ok(())
}
