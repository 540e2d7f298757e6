//! **Table 4**: prediction accuracy of the uniform model, the fractal
//! model and the resampled index on TEXTURE60 — plus the §5.3 closing
//! remark: on the 360/617-dimensional datasets the fractal approach stops
//! being applicable while the resampled index still predicts within
//! −8 % … +0.7 %.
//!
//! Paper's numbers (full scale): uniform 8,641 pages (+1,169 %), fractal
//! 5,892 (+765 %), resampled 701 (+3 %) against 681 measured.

use crate::table::{pct, Table};
use crate::{ExpArgs, Suite};
use hdidx_baselines::predictor::{Fractal, Histogram, Uniform};
use hdidx_baselines::uniform::split_dimensions;
use hdidx_core::Result;
use hdidx_datagen::registry::NamedDataset;
use hdidx_model::{hupper, Predictor, Resampled, ResampledParams};

pub fn run(suite: &Suite, args: &ExpArgs) -> Result<()> {
    args.banner("Table 4: uniform vs fractal vs resampled (TEXTURE60)");
    run_dataset(suite, NamedDataset::Texture60, args, 10_000.0)?;
    if args.scale >= 0.25 {
        outln!("\n--- §5.3 high-dimensional closing check ---");
        run_dataset(suite, NamedDataset::Stock360, args, 2_000.0)?;
        run_dataset(suite, NamedDataset::Isolet617, args, 2_000.0)?;
    }
    Ok(())
}

fn run_dataset(suite: &Suite, ds: NamedDataset, args: &ExpArgs, m_paper: f64) -> Result<()> {
    let ctx = match suite.context(ds, args) {
        Ok(c) => c,
        Err(e) => {
            outln!("{}: preparation failed: {e}", ds.name());
            return Ok(());
        }
    };
    let m = ((m_paper * args.scale) as usize)
        .max(ctx.topo.cap_data() * 4)
        .min(ctx.data.len());
    outln!(
        "\ndataset: {} ({} x {}), height {}, {} leaf pages, M = {m}",
        ctx.name,
        ctx.data.len(),
        ctx.data.dim(),
        ctx.topo.height(),
        ctx.topo.leaf_pages()
    );
    let measured = ctx.measure(m)?;
    let avg = measured.avg_leaf_accesses();
    outln!("measured average leaf accesses per query: {avg:.1}");

    let mut table = Table::new(&["Method", "Pages accessed", "Rel. error"]);

    // Every model goes through the unified `Predictor` trait; the rows
    // only differ in their construction and label.
    let uniform = Uniform { k: ctx.workload.k };
    let fractal = Fractal { levels: 7 };
    // Locally parametric (§2.3) baseline: a grid histogram over the top 6
    // variance dimensions (a full-dimensional grid is infeasible — that
    // infeasibility is the paper's reason for excluding this category
    // from its Table 4; the row is included here to complete the § 2
    // taxonomy and demonstrate the failure).
    let histogram = Histogram {
        d_grid: 6,
        bins_per_dim: 4,
    };
    let h = hupper::recommended_h_upper(&ctx.topo, m);
    let resampled = h.as_ref().ok().map(|&h| {
        Resampled::new(ResampledParams {
            m,
            h_upper: h,
            seed: args.seed,
        })
    });

    let mut models: Vec<(String, &dyn Predictor)> = vec![(
        format!(
            "Uniform ({} split dims)",
            split_dimensions(ctx.topo.leaf_pages(), ctx.topo.dim())
        ),
        &uniform,
    )];
    // §5.3: with too few points for the dimensionality the box-counting
    // estimate degenerates — report it as inapplicable like the paper
    // does for the 360-/617-d sets.
    let fractal_applicable = ctx.data.len() as f64 >= 50.0 * ctx.data.dim() as f64;
    if fractal_applicable {
        models.push(("Fractal (7 box-count levels)".to_string(), &fractal));
    }
    models.push(("Histogram (6 dims x 4 bins)".to_string(), &histogram));
    if let Some(r) = &resampled {
        models.push((format!("Resampled (h_upper={})", r.params().h_upper), r));
    }

    for (label, model) in &models {
        match model.predict(&ctx.data, &ctx.topo, &ctx.balls) {
            Ok(p) => table.row(vec![
                label.clone(),
                format!("{:.0}", p.avg_leaf_accesses()),
                pct(p.relative_error(avg)),
            ]),
            Err(e) => table.row(vec![label.clone(), format!("n/a: {e}"), "-".into()]),
        }
    }
    if !fractal_applicable {
        table.row(vec![
            "Fractal".into(),
            "not applicable (N too small for d)".into(),
            "-".into(),
        ]);
    }
    if let Err(e) = &h {
        table.row(vec!["Resampled".into(), format!("n/a: {e}"), "-".into()]);
    }

    table.print();
    Ok(())
}
