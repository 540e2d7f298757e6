//! **Figure 13**: determining the optimal page size (LANDSAT/TEXTURE60).
//!
//! For page sizes 8–256 KB the query I/O cost of 21-NN queries is
//! measured on the real index and predicted by the resampled model. All
//! query page accesses are random (confirmed for the on-disk index, §6.1),
//! so cost = accesses · (t_seek + t_xfer(page size)). The paper's finding:
//! model and measurement track each other closely and both locate the
//! same cost-optimal page size (64 KB on their hardware model).

use crate::table::{pct, secs, Table};
use crate::{ExpArgs, Suite};
use hdidx_core::Result;
use hdidx_datagen::registry::NamedDataset;
use hdidx_diskio::DiskModel;
use hdidx_model::{hupper, Basic, BasicParams, Resampled, ResampledParams};
use hdidx_vamsplit::topology::{PageConfig, Topology};

pub fn run(suite: &Suite, args: &ExpArgs) -> Result<()> {
    args.banner("Figure 13: optimal page size (TEXTURE60/Landsat, 21-NN query cost)");
    let mut table = Table::new(&[
        "Page size",
        "Leaf pages",
        "Measured acc/query",
        "Predicted acc/query",
        "Rel. error",
        "Measured cost (s)",
        "Predicted cost (s)",
    ]);
    let mut best_measured = (0usize, f64::INFINITY);
    let mut best_predicted = (0usize, f64::INFINITY);
    // Only the topology depends on the page size: the dataset and its
    // workload are prepared once.
    let ctx = suite.context(NamedDataset::Texture60, args)?;
    for page_kb in [8usize, 16, 32, 64, 128, 256] {
        let topo = match Topology::new(
            ctx.data.dim(),
            ctx.data.len(),
            &PageConfig::with_page_bytes(page_kb * 1024),
        ) {
            Ok(t) => t,
            Err(e) => {
                outln!("{page_kb} KB: skipped ({e})");
                continue;
            }
        };
        let m = ((10_000.0 * args.scale) as usize).max(topo.cap_data() * 4);
        let disk = DiskModel::paper_with_page_bytes(page_kb * 1024);
        let per_access = disk.t_seek_s + disk.t_xfer_s();
        let measured = ctx.measure_with(&topo, m)?;
        let m_acc = measured.avg_leaf_accesses();
        let m_cost = m_acc * args.queries as f64 * per_access;
        // Resampled prediction at the recommended h_upper; trees too
        // shallow for the phase split (large pages) fall back to the §3
        // basic model on an M-point sample.
        let phase = hupper::recommended_h_upper(&topo, m).and_then(|h| {
            Resampled::new(ResampledParams {
                m,
                h_upper: h,
                seed: args.seed,
            })
            .run(&ctx.data, &topo, &ctx.balls)
            .map(|p| p.prediction)
        });
        let prediction = phase.or_else(|_| {
            Basic::new(BasicParams {
                zeta: (m as f64 / ctx.data.len() as f64).min(1.0),
                compensate: true,
                seed: args.seed,
            })
            .run(&ctx.data, &topo, &ctx.balls)
        });
        let (p_acc, p_cost, err) = match prediction {
            Ok(p) => {
                let a = p.avg_leaf_accesses();
                (
                    format!("{a:.1}"),
                    a * args.queries as f64 * per_access,
                    pct(p.relative_error(m_acc)),
                )
            }
            Err(e) => (format!("n/a ({e})"), f64::NAN, "-".into()),
        };
        if m_cost < best_measured.1 {
            best_measured = (page_kb, m_cost);
        }
        if p_cost.is_finite() && p_cost < best_predicted.1 {
            best_predicted = (page_kb, p_cost);
        }
        table.row(vec![
            format!("{page_kb} KB"),
            topo.leaf_pages().to_string(),
            format!("{m_acc:.1}"),
            p_acc,
            err,
            secs(m_cost),
            if p_cost.is_finite() {
                secs(p_cost)
            } else {
                "-".into()
            },
        ]);
    }
    table.print();
    outln!(
        "\noptimal page size: measured -> {} KB, model -> {} KB",
        best_measured.0,
        best_predicted.0
    );
    outln!("paper: model tracks measurement closely; both pick 64 KB");
    Ok(())
}
