//! **Ablation**: the Theorem-1 compensation factor, on/off, across all
//! five dataset analogs (generalizes Figure 2 beyond COLOR64).
//!
//! Expected: compensation reduces |error| on every dataset — the page
//! shrinkage it corrects is a property of MBRs under subsampling, not of
//! any particular distribution.

use crate::table::{pct, Table};
use crate::{ExpArgs, Suite};
use hdidx_core::Result;
use hdidx_datagen::registry::NamedDataset;
use hdidx_model::{Basic, BasicParams};

pub fn run(suite: &Suite, args: &ExpArgs) -> Result<()> {
    args.banner("Ablation: compensation factor on/off across datasets (basic model, zeta = 20%)");
    let mut table = Table::new(&[
        "Dataset",
        "Measured acc/query",
        "Error w/o compensation",
        "Error w/ compensation",
    ]);
    for ds in [
        NamedDataset::Color64,
        NamedDataset::Texture48,
        NamedDataset::Texture60,
        NamedDataset::Stock360,
        NamedDataset::Isolet617,
        NamedDataset::Uniform8d,
    ] {
        let ctx = match suite.context(ds, args) {
            Ok(c) => c,
            Err(e) => {
                table.row(vec![
                    ds.name().into(),
                    format!("skipped: {e}"),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            }
        };
        let measured = ctx.measure(ctx.data.len())?;
        let avg = measured.avg_leaf_accesses();
        let err = |compensate: bool| -> String {
            match Basic::new(BasicParams {
                zeta: 0.2,
                compensate,
                seed: args.seed,
            })
            .run(&ctx.data, &ctx.topo, &ctx.balls)
            {
                Ok(p) => pct(p.relative_error(avg)),
                Err(e) => format!("n/a ({e})"),
            }
        };
        table.row(vec![
            format!("{} ({}x{})", ds.name(), ctx.data.len(), ctx.data.dim()),
            format!("{avg:.1}"),
            err(false),
            err(true),
        ]);
    }
    table.print();
    outln!("\nexpected: the compensated column dominates on every dataset");
    Ok(())
}
