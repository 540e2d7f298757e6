//! **Figure 9**: analytic I/O cost of the three approaches for different
//! memory sizes `M` (N = 1,000,000 points, d = 60, 8 KB pages).
//!
//! Reproduces the paper's log-scale series: all costs fall with memory;
//! the resampled approach stays about an order of magnitude below the
//! on-disk build and the cutoff approach up to two orders. The jumps in
//! the resampled curve come from the `h_upper` re-choice (§4.5.2).

use crate::table::{secs, Table};
use crate::{ExpArgs, Suite};
use hdidx_core::Result;
use hdidx_model::CostInputs;
use hdidx_vamsplit::topology::Topology;

pub fn run(_suite: &Suite, args: &ExpArgs) -> Result<()> {
    args.banner("Figure 9: analytic I/O cost vs memory size (N = 1M, d = 60)");
    let mut table = Table::new(&[
        "M (points)",
        "On-disk (s)",
        "Resampled (s)",
        "h_upper",
        "Cutoff (s)",
        "OnDisk/Resampled",
        "OnDisk/Cutoff",
    ]);
    for m in [
        1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000,
    ] {
        let topo = Topology::from_capacities(60, 1_000_000, 33, 16)?;
        let c = CostInputs::new(topo, m, args.queries);
        let ondisk = c.seconds(c.on_disk_build());
        let cutoff = c.seconds(c.cutoff());
        let (h, res_io) = match c.resampled_recommended() {
            Ok(x) => x,
            Err(_) => {
                table.row(vec![
                    m.to_string(),
                    secs(ondisk),
                    "infeasible".into(),
                    "-".into(),
                    secs(cutoff),
                    "-".into(),
                    format!("{:.0}x", ondisk / cutoff),
                ]);
                continue;
            }
        };
        let resampled = c.seconds(res_io);
        table.row(vec![
            m.to_string(),
            secs(ondisk),
            secs(resampled),
            h.to_string(),
            secs(cutoff),
            format!("{:.0}x", ondisk / resampled),
            format!("{:.0}x", ondisk / cutoff),
        ]);
    }
    table.print();
    outln!(
        "\npaper: resampled ~1 order of magnitude below on-disk, cutoff up to \
         2 orders; all monotone decreasing in M"
    );
    Ok(())
}
