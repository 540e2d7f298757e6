//! **§5.2 uniform-data check**: 100,000 uniformly distributed points in 8
//! dimensions. Both phase-based predictors assume uniformity (within a
//! page / within an upper leaf), so on genuinely uniform data their errors
//! must collapse — the paper reports −0.5 % … −3 % for both approaches.

use crate::table::{pct, Table};
use crate::{ExpArgs, Suite};
use hdidx_core::Result;
use hdidx_datagen::registry::NamedDataset;
use hdidx_model::{Cutoff, CutoffParams, Resampled, ResampledParams};

pub fn run(suite: &Suite, args: &ExpArgs) -> Result<()> {
    args.banner("§5.2: uniform data sanity check (100,000 x 8 uniform)");
    let ctx = suite.context(NamedDataset::Uniform8d, args)?;
    outln!(
        "dataset: {} ({} x {}), height {}, {} leaf pages",
        ctx.name,
        ctx.data.len(),
        ctx.data.dim(),
        ctx.topo.height(),
        ctx.topo.leaf_pages()
    );
    let m = ((10_000.0 * args.scale) as usize).max(500);
    let measured = ctx.measure(m)?;
    let avg = measured.avg_leaf_accesses();
    outln!("measured average leaf accesses per query: {avg:.1}\n");

    let mut table = Table::new(&["Method", "Rel. error"]);
    let max_h = ctx.topo.height() - 1;
    for h in 2..=max_h {
        if let Ok(p) = Resampled::new(ResampledParams {
            m,
            h_upper: h,
            seed: args.seed,
        })
        .run(&ctx.data, &ctx.topo, &ctx.balls)
        {
            table.row(vec![
                format!("Resampled (h_upper={h})"),
                pct(p.prediction.relative_error(avg)),
            ]);
        }
        if let Ok(p) = Cutoff::new(CutoffParams {
            m,
            h_upper: h,
            seed: args.seed,
        })
        .run(&ctx.data, &ctx.topo, &ctx.balls)
        {
            table.row(vec![
                format!("Cutoff (h_upper={h})"),
                pct(p.prediction.relative_error(avg)),
            ]);
        }
    }
    table.print();
    outln!("\npaper: relative errors between -0.5% and -3% for both approaches");
    Ok(())
}
