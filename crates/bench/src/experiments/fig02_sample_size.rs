//! **Figure 2**: relative error of the §3 basic model for different sample
//! sizes, with and without the Theorem-1 compensation (COLOR64, 21-NN).
//!
//! The paper's observations to reproduce: compensation always helps; the
//! error grows as the sample shrinks; below ~10 % samples even the
//! compensated model degrades.

use crate::table::{pct, Table};
use crate::{ExpArgs, Suite};
use hdidx_core::Result;
use hdidx_datagen::registry::NamedDataset;
use hdidx_model::{Basic, BasicParams};

pub fn run(suite: &Suite, args: &ExpArgs) -> Result<()> {
    args.banner("Figure 2: relative error vs sample size (COLOR64, basic model)");
    let ctx = suite.context(NamedDataset::Color64, args)?;
    outln!(
        "dataset: {} ({} x {}), {} leaf pages",
        ctx.name,
        ctx.data.len(),
        ctx.data.dim(),
        ctx.topo.leaf_pages()
    );
    // Ground truth: measured accesses on the real index (memory size is
    // irrelevant for the measured access counts).
    let measured = ctx.measure(ctx.data.len())?;
    let measured_avg = measured.avg_leaf_accesses();
    outln!("measured average leaf accesses per query: {measured_avg:.1}\n");

    let mut table = Table::new(&[
        "Sample",
        "Rel. error (no compensation)",
        "Rel. error (compensated)",
    ]);
    for zeta in [0.01, 0.02, 0.05, 0.10, 0.20, 0.30, 0.50] {
        let cell = |compensate: bool| -> String {
            match Basic::new(BasicParams {
                zeta,
                compensate,
                seed: args.seed,
            })
            .run(&ctx.data, &ctx.topo, &ctx.balls)
            {
                Ok(p) => pct(p.relative_error(measured_avg)),
                Err(e) => format!("n/a ({e})"),
            }
        };
        table.row(vec![
            format!("{:.0}%", zeta * 100.0),
            cell(false),
            cell(true),
        ]);
    }
    table.print();
    outln!(
        "\npaper: compensation reduces the error at every sample size; below \
         ~10% samples the error becomes too large to be useful"
    );
    Ok(())
}
