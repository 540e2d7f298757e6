//! **Ablation**: density-biased vs uniform-random query centers.
//!
//! The paper's workload places query points proportionally to the data
//! density (§4.2). This ablation checks that the predictor's accuracy does
//! not depend on that choice: uniform-random centers (off-cluster queries
//! with larger radii) must be predicted just as well — the prediction
//! machinery only consumes (center, radius) balls.

use crate::table::{pct, Table};
use crate::{ExpArgs, Suite};
use hdidx_core::knn::scan_knn_radius;
use hdidx_core::{simd, LeafSoup, Result};
use hdidx_datagen::registry::NamedDataset;
use hdidx_model::{hupper, QueryBall, Resampled, ResampledParams};
use hdidx_rand::seeded;
use hdidx_rand::Rng;

pub fn run(suite: &Suite, args: &ExpArgs) -> Result<()> {
    args.banner("Ablation: density-biased vs uniform query centers (COLOR64)");
    let ctx = suite.context(NamedDataset::Color64, args)?;
    let m = ((10_000.0 * args.scale) as usize).max(500);
    let h = hupper::recommended_h_upper(&ctx.topo, m)?;

    // Uniform-random centers inside the data MBR, exact radii by scan.
    let mbr = ctx.data.mbr()?;
    let mut rng = seeded(args.seed + 99);
    let mut uniform_balls = Vec::with_capacity(args.queries);
    for _ in 0..args.queries {
        let center: Vec<f32> = (0..ctx.data.dim())
            .map(|j| {
                let lo = mbr.lo()[j];
                let hi = mbr.hi()[j];
                lo + (hi - lo) * rng.gen::<f32>()
            })
            .collect();
        let radius = scan_knn_radius(&ctx.data, &center, args.k)?;
        uniform_balls.push(QueryBall::new(center, radius));
    }

    // Ground truth from the real index (sphere counting == optimal k-NN
    // accesses), counted with the SoA kernel the predictors use.
    let measured_tree = ctx.measure(ctx.data.len())?;
    let soup = LeafSoup::from_rects(ctx.data.dim(), &measured_tree.tree.leaf_rects())?;
    let truth = |balls: &[QueryBall]| -> f64 {
        soup.count_batch_with(simd::active(), balls, |b| (b.center.as_slice(), b.radius))
            .iter()
            .sum::<u64>() as f64
            / balls.len() as f64
    };

    let mut table = Table::new(&[
        "Workload",
        "Mean radius",
        "Measured acc/query",
        "Predicted acc/query",
        "Rel. error",
    ]);
    for (label, balls) in [
        ("density-biased (paper)", &ctx.balls),
        ("uniform-random centers", &uniform_balls),
    ] {
        let measured = truth(balls);
        let p = Resampled::new(ResampledParams {
            m,
            h_upper: h,
            seed: args.seed,
        })
        .run(&ctx.data, &ctx.topo, balls)?;
        let mean_r = balls.iter().map(|b| b.radius).sum::<f64>() / balls.len() as f64;
        table.row(vec![
            label.into(),
            format!("{mean_r:.3}"),
            format!("{measured:.1}"),
            format!("{:.1}", p.prediction.avg_leaf_accesses()),
            pct(p.prediction.relative_error(measured)),
        ]);
    }
    table.print();
    outln!("\nexpected: comparable accuracy for both workload shapes");
    Ok(())
}
