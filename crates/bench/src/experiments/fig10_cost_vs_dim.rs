//! **Figure 10**: analytic I/O cost of the three approaches for different
//! data dimensionalities (N = 1,000,000 points, `M = 600,000 / dim` so the
//! memory in *bytes* stays constant, 8 KB pages).
//!
//! Reproduces the paper's series: cost grows roughly linearly with the
//! dimensionality for all approaches; the cutoff stays ~100× below the
//! on-disk build throughout; jumps in the resampled curve come from
//! `h_upper` re-choices.

use crate::table::{secs, Table};
use crate::{ExpArgs, Suite};
use hdidx_core::Result;
use hdidx_model::CostInputs;
use hdidx_vamsplit::topology::Topology;

pub fn run(_suite: &Suite, args: &ExpArgs) -> Result<()> {
    args.banner("Figure 10: analytic I/O cost vs dimensionality (N = 1M, M = 600k/dim)");
    let mut table = Table::new(&[
        "dim",
        "B (pts/page)",
        "M",
        "On-disk (s)",
        "Resampled (s)",
        "h_upper",
        "Cutoff (s)",
    ]);
    for dim in [20usize, 40, 60, 80, 100, 120, 160, 200] {
        let cap_data = 8192 / (4 * dim + 8);
        let cap_dir = 8192 / (8 * dim + 8);
        if cap_data < 2 || cap_dir < 2 {
            continue;
        }
        let topo = Topology::from_capacities(dim, 1_000_000, cap_data, cap_dir)?;
        let m = 600_000 / dim;
        let c = CostInputs::new(topo, m, args.queries);
        let ondisk = c.seconds(c.on_disk_build());
        let cutoff = c.seconds(c.cutoff());
        let (h, resampled) = match c.resampled_recommended() {
            Ok((h, io)) => (h.to_string(), secs(c.seconds(io))),
            Err(_) => ("-".into(), "infeasible".into()),
        };
        table.row(vec![
            dim.to_string(),
            cap_data.to_string(),
            m.to_string(),
            secs(ondisk),
            resampled,
            h,
            secs(cutoff),
        ]);
    }
    table.print();
    outln!(
        "\npaper: roughly linear growth in dim for all approaches; cutoff ~100x \
         cheaper than on-disk at every dimensionality"
    );
    Ok(())
}
