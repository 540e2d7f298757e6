//! **§4.7 negative control**: the VA-file.
//!
//! The paper's applicability criterion is "organizes the data in
//! fixed-capacity pages"; the VA-file does not — its cost is a fixed
//! sequential scan of the approximation file plus a candidate-dependent
//! number of exact-vector visits. This experiment shows (a) the VA-file's
//! cost structure on the TEXTURE48 analog (scan component constant across
//! queries, candidate component varying), (b) the R*-tree's page accesses
//! for the same workload, and (c) that the sampling predictor targets only
//! the latter.

use crate::table::Table;
use crate::{ExpArgs, Suite};
use hdidx_core::Result;
use hdidx_datagen::registry::NamedDataset;
use hdidx_diskio::DiskModel;
use hdidx_model::{hupper, Resampled, ResampledParams};
use hdidx_vamsplit::vafile::VaFile;

pub fn run(suite: &Suite, args: &ExpArgs) -> Result<()> {
    args.banner("§4.7 negative control: VA-file vs VAMSplit R*-tree (TEXTURE48)");
    let ctx = suite.context(NamedDataset::Texture48, args)?;
    let page_bytes = 8192usize;
    let disk = DiskModel::paper_with_page_bytes(page_bytes);
    let m = ((10_000.0 * args.scale) as usize).max(500);

    // R*-tree measurement + sampling prediction.
    let measured = ctx.measure(m)?;
    let rtree_acc = measured.avg_leaf_accesses();
    let predicted = hupper::recommended_h_upper(&ctx.topo, m)
        .and_then(|h| {
            Resampled::new(ResampledParams {
                m,
                h_upper: h,
                seed: args.seed,
            })
            .run(&ctx.data, &ctx.topo, &ctx.balls)
        })
        .map(|p| p.prediction.avg_leaf_accesses());

    // VA-file execution (6 bits per dimension, the classic setting).
    let va = VaFile::build(&ctx.data, 6)?;
    let mut scan_pages = 0u64;
    let mut visited_total = 0u64;
    for q in &ctx.workload.queries {
        let res = va.knn(&ctx.data, &q.center, ctx.workload.k, page_bytes)?;
        visited_total += res.visited;
        scan_pages = res.stats.leaf_accesses - res.visited; // constant
    }
    let visited_avg = visited_total as f64 / ctx.workload.len() as f64;

    let mut table = Table::new(&["Structure", "Cost structure per query", "I/O (s/query)"]);
    table.row(vec![
        "VAMSplit R*-tree (measured)".into(),
        format!("{rtree_acc:.1} random page accesses"),
        format!("{:.3}", rtree_acc * (disk.t_seek_s + disk.t_xfer_s())),
    ]);
    table.row(vec![
        "VAMSplit R*-tree (sampling prediction)".into(),
        match &predicted {
            Ok(p) => format!("{p:.1} random page accesses"),
            Err(e) => format!("n/a ({e})"),
        },
        match &predicted {
            Ok(p) => format!("{:.3}", p * (disk.t_seek_s + disk.t_xfer_s())),
            Err(_) => "-".into(),
        },
    ]);
    table.row(vec![
        "VA-file (6 bits/dim, measured)".into(),
        format!("{scan_pages} sequential approximation pages + {visited_avg:.1} random visits"),
        format!(
            "{:.3}",
            disk.t_seek_s
                + scan_pages as f64 * disk.t_xfer_s()
                + visited_avg * (disk.t_seek_s + disk.t_xfer_s())
        ),
    ]);
    table.print();
    outln!(
        "\nthe VA-file has no page layout to predict — its scan component is \
         identical for every query; the paper's §4.7 correctly excludes it \
         from the sampling model's scope"
    );
    Ok(())
}
