//! **Figure 14**: index page accesses for 21-NN queries when the index
//! stores only the first `d'` (KLT-ordered) dimensions and the remaining
//! dimensions live in an object server (Seidl & Kriegel's optimal
//! multi-step search, §6.2).
//!
//! The optimal multi-step algorithm must visit every index page whose
//! *projected* MINDIST to the query is within the *full-space* k-NN
//! radius (projected distances lower-bound full distances). Accesses grow
//! with the indexed dimensionality because the page capacity shrinks; the
//! prediction must track the measurement across the sweep.

use crate::table::{pct, Table};
use crate::{ExpArgs, Suite};
use hdidx_core::Result;
use hdidx_datagen::registry::NamedDataset;
use hdidx_diskio::external::{build_on_disk, ExternalConfig};
use hdidx_model::{hupper, QueryBall, Resampled, ResampledParams};
use hdidx_vamsplit::query::range_accesses;
use hdidx_vamsplit::topology::{PageConfig, Topology};

pub fn run(suite: &Suite, args: &ExpArgs) -> Result<()> {
    args.banner("Figure 14: index page accesses vs indexed dimensionality (TEXTURE60)");
    let ctx = suite.context(NamedDataset::Texture60, args)?;
    outln!(
        "dataset: {} ({} x {}), full-space 21-NN radii from a full scan",
        ctx.name,
        ctx.data.len(),
        ctx.data.dim()
    );
    let m = ((10_000.0 * args.scale) as usize).max(500);

    let mut table = Table::new(&[
        "Index dims",
        "Leaf pages",
        "Measured acc/query",
        "Predicted acc/query",
        "Rel. error",
    ]);
    for dims in [10usize, 20, 30, 40, 50, 60] {
        let proj = ctx.data.project_prefix(dims)?;
        let topo = Topology::new(dims, proj.len(), &PageConfig::DEFAULT)?;
        // Measurement: build the projected index, count pages within the
        // full-space radius of each projected query center.
        let built = build_on_disk(&proj, &topo, &ExternalConfig::with_mem_points(proj.len())?)?;
        let mut total = 0u64;
        let mut balls = Vec::with_capacity(ctx.balls.len());
        for q in &ctx.workload.queries {
            let center: Vec<f32> = q.center[..dims].to_vec();
            let stats = range_accesses(&built.tree, &center, q.radius)?;
            total += stats.leaf_accesses;
            balls.push(QueryBall::new(center, q.radius));
        }
        let measured = total as f64 / ctx.workload.len() as f64;
        let (pred, err) = match hupper::recommended_h_upper(&topo, m).and_then(|h| {
            Resampled::new(ResampledParams {
                m,
                h_upper: h,
                seed: args.seed,
            })
            .run(&proj, &topo, &balls)
        }) {
            Ok(p) => (
                format!("{:.1}", p.prediction.avg_leaf_accesses()),
                pct(p.prediction.relative_error(measured)),
            ),
            Err(e) => (format!("n/a ({e})"), "-".into()),
        };
        table.row(vec![
            dims.to_string(),
            topo.leaf_pages().to_string(),
            format!("{measured:.1}"),
            pred,
            err,
        ]);
    }
    table.print();
    outln!(
        "\npaper: accesses increase with the indexed dimensionality (page \
         capacity shrinks); prediction resembles measurement very closely"
    );
    Ok(())
}
