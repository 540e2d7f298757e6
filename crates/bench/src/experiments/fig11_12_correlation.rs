//! **Figures 11–12**: correlation between measured and predicted page
//! accesses per query for the resampled index (TEXTURE60).
//!
//! * Figure 11: M = 10,000, h_upper = 3 — strong correlation.
//! * Figure 12: M = 1,000, h_upper = 4 — correlation degrades slightly.
//!
//! The binary prints a (measured, predicted) pair per query (the scatter
//! data), the Pearson correlation coefficient, and — as the paper's
//! counterpoint — the correlation of the cutoff prediction, which should
//! show little to none.

use crate::table::Table;
use crate::{ExpArgs, Suite};
use hdidx_core::Result;
use hdidx_datagen::registry::NamedDataset;
use hdidx_model::{Cutoff, CutoffParams, Resampled, ResampledParams};

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut dx = 0.0;
    let mut dy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        num += (x - mx) * (y - my);
        dx += (x - mx) * (x - mx);
        dy += (y - my) * (y - my);
    }
    if dx == 0.0 || dy == 0.0 {
        0.0
    } else {
        num / (dx * dy).sqrt()
    }
}

pub fn run(suite: &Suite, args: &ExpArgs) -> Result<()> {
    args.banner("Figures 11-12: measured vs predicted correlation (TEXTURE60, resampled)");
    let ctx = suite.context(NamedDataset::Texture60, args)?;
    let n = ctx.data.len();
    let measured = ctx.measure(n.min(50_000))?;
    let measured_f: Vec<f64> = measured
        .per_query_leaf_accesses
        .iter()
        .map(|&x| x as f64)
        .collect();

    // Scale the paper's M = 10,000 / 1,000 with the dataset.
    let m_large = ((10_000.0 * args.scale) as usize).max(500);
    let m_small = ((1_000.0 * args.scale) as usize).max(200);
    let configs: [(&str, usize, usize); 2] = [
        ("Figure 11 (M=10k-scaled, h_upper=3)", m_large, 3),
        ("Figure 12 (M=1k-scaled, h_upper=4)", m_small, 4),
    ];

    let mut summary = Table::new(&["Setting", "Pearson r", "Rel. error"]);
    for (label, m, h) in configs {
        let h = h.min(ctx.topo.height() - 1);
        match Resampled::new(ResampledParams {
            m,
            h_upper: h,
            seed: args.seed,
        })
        .run(&ctx.data, &ctx.topo, &ctx.balls)
        {
            Ok(p) => {
                let pred: Vec<f64> = p.prediction.per_query.iter().map(|&x| x as f64).collect();
                let r = pearson(&measured_f, &pred);
                outln!("\n{label}: scatter (measured, predicted) per query");
                for (mv, pv) in measured_f.iter().zip(&pred).take(40) {
                    outln!("  {mv:.0} {pv:.0}");
                }
                if measured_f.len() > 40 {
                    outln!("  ... ({} more pairs)", measured_f.len() - 40);
                }
                summary.row(vec![
                    label.into(),
                    format!("{r:.3}"),
                    crate::table::pct(p.prediction.relative_error(measured.avg_leaf_accesses())),
                ]);
            }
            Err(e) => summary.row(vec![label.into(), format!("infeasible: {e}"), "-".into()]),
        }
    }

    // Counterpoint: cutoff shows little correlation (paper: "no
    // correlation at all").
    if let Ok(p) = Cutoff::new(CutoffParams {
        m: m_large,
        h_upper: 3.min(ctx.topo.height() - 1),
        seed: args.seed,
    })
    .run(&ctx.data, &ctx.topo, &ctx.balls)
    {
        let pred: Vec<f64> = p.prediction.per_query.iter().map(|&x| x as f64).collect();
        summary.row(vec![
            "Cutoff (M=10k-scaled, h_upper=3)".into(),
            format!("{:.3}", pearson(&measured_f, &pred)),
            crate::table::pct(p.prediction.relative_error(measured.avg_leaf_accesses())),
        ]);
    }

    outln!();
    summary.print();
    outln!(
        "\npaper: resampled points hug the diagonal (r close to 1), slightly \
         worse at M = 1,000; the cutoff diagram shows no correlation"
    );
    Ok(())
}
