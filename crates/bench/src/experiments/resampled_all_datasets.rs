//! **All-datasets accuracy sweep**: the paper states that the Table-3
//! observations "can be made for the other datasets" with detailed results
//! in its technical report. This binary produces that table: resampled and
//! cutoff accuracy at the recommended `h_upper` for every analog, plus the
//! prediction speedup over building on disk.

use crate::table::{pct, secs, Table};
use crate::{ExpArgs, Suite};
use hdidx_core::Result;
use hdidx_datagen::registry::NamedDataset;
use hdidx_diskio::DiskModel;
use hdidx_model::{hupper, Cutoff, CutoffParams, Resampled, ResampledParams};

pub fn run(suite: &Suite, args: &ExpArgs) -> Result<()> {
    args.banner("All datasets: resampled/cutoff accuracy at the recommended h_upper");
    let disk = DiskModel::PAPER;
    let mut table = Table::new(&[
        "Dataset",
        "h*",
        "Measured acc/query",
        "Resampled error",
        "Cutoff error",
        "On-disk I/O (s)",
        "Resampled I/O (s)",
        "Speedup",
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
                outln!("{}: skipped ({e})", ds.name());
                continue;
            }
        };
        // M proportional to the paper's 10,000 at TEXTURE60 scale.
        let m = ((ctx.data.len() as f64 * 0.0363) as usize).max(ctx.topo.cap_data() * 4);
        let h = match hupper::recommended_h_upper(&ctx.topo, m) {
            Ok(h) => h,
            Err(e) => {
                outln!("{}: no feasible h_upper ({e})", ds.name());
                continue;
            }
        };
        let measured = ctx.measure(m)?;
        let avg = measured.avg_leaf_accesses();
        let res = Resampled::new(ResampledParams {
            m,
            h_upper: h,
            seed: args.seed,
        })
        .run(&ctx.data, &ctx.topo, &ctx.balls);
        let cut = Cutoff::new(CutoffParams {
            m,
            h_upper: h,
            seed: args.seed,
        })
        .run(&ctx.data, &ctx.topo, &ctx.balls);
        let ondisk_s = disk.cost_seconds(measured.total_io());
        let (res_err, res_s) = match &res {
            Ok(p) => (
                pct(p.prediction.relative_error(avg)),
                disk.cost_seconds(p.prediction.io),
            ),
            Err(e) => (format!("n/a ({e})"), f64::NAN),
        };
        let cut_err = match &cut {
            Ok(p) => pct(p.prediction.relative_error(avg)),
            Err(e) => format!("n/a ({e})"),
        };
        table.row(vec![
            format!("{} ({}x{})", ds.name(), ctx.data.len(), ctx.data.dim()),
            h.to_string(),
            format!("{avg:.1}"),
            res_err,
            cut_err,
            secs(ondisk_s),
            if res_s.is_finite() {
                secs(res_s)
            } else {
                "-".into()
            },
            if res_s.is_finite() {
                format!("{:.0}x", ondisk_s / res_s)
            } else {
                "-".into()
            },
        ]);
    }
    table.print();
    outln!(
        "\npaper: \"similar observations can be made for the other datasets\"; \
         resampled errors typically below 5-10%, speedups of 1-2 orders of magnitude"
    );
    Ok(())
}
