//! One benchmark group per paper table/figure: each benchmark times a
//! scaled-down end-to-end run of the corresponding experiment pipeline, so
//! `cargo bench` exercises every reproduction path. The full-size
//! experiments (with the printed tables) live in the library's
//! `experiments` module, run by the `all_experiments` binary.
//! Results land in `BENCH_experiments.json`.

use hdidx_baselines::fractal::estimate_fractal_dims;
use hdidx_baselines::uniform::predict_uniform;
use hdidx_bench::{Cli, ExpArgs, ExperimentContext};
use hdidx_check::bench::{black_box, BenchSuite};
use hdidx_datagen::registry::NamedDataset;
use hdidx_diskio::external::{build_on_disk, ExternalConfig};
use hdidx_model::{
    Basic, BasicParams, CostInputs, Cutoff, CutoffParams, QueryBall, Resampled, ResampledParams,
};
use hdidx_vamsplit::topology::{PageConfig, Topology};

/// The experiments' prepared context for `q` 21-NN queries, seed 42.
fn ctx(ds: NamedDataset, scale: f64, q: usize) -> ExperimentContext {
    let args = Cli::default().args(scale, q);
    ExperimentContext::prepare(ds, &ExpArgs { seed: 42, ..args }).unwrap()
}

fn fig02_basic_model(suite: &mut BenchSuite) {
    let ctx = ctx(NamedDataset::Color64, 0.05, 20);
    suite.bench("fig02/basic_model_color64", || {
        Basic::new(BasicParams {
            zeta: 0.2,
            compensate: true,
            seed: 1,
        })
        .run(black_box(&ctx.data), &ctx.topo, &ctx.balls)
        .unwrap()
    });
}

fn fig09_10_analytic_costs(suite: &mut BenchSuite) {
    suite.bench("fig09_10/analytic_cost_sweep", || {
        let mut total = 0.0f64;
        for m in [1_000usize, 10_000, 100_000] {
            let topo = Topology::from_capacities(60, 1_000_000, 33, 16).unwrap();
            let ci = CostInputs::new(topo, m, 500);
            total += ci.seconds(ci.on_disk_build());
            total += ci.seconds(ci.cutoff());
            if let Ok((_, io)) = ci.resampled_recommended() {
                total += ci.seconds(io);
            }
        }
        black_box(total)
    });
}

fn table3_phase_predictors(suite: &mut BenchSuite) {
    let ctx = ctx(NamedDataset::Texture60, 0.04, 20);
    let m = 1_000;
    suite.bench("table3/resampled_texture60", || {
        Resampled::new(ResampledParams {
            m,
            h_upper: 2,
            seed: 1,
        })
        .run(black_box(&ctx.data), &ctx.topo, &ctx.balls)
        .unwrap()
    });
    suite.bench("table3/cutoff_texture60", || {
        Cutoff::new(CutoffParams {
            m,
            h_upper: 2,
            seed: 1,
        })
        .run(black_box(&ctx.data), &ctx.topo, &ctx.balls)
        .unwrap()
    });
    suite.bench("table3/ondisk_build_texture60", || {
        build_on_disk(
            black_box(&ctx.data),
            &ctx.topo,
            &ExternalConfig::with_mem_points(m).unwrap(),
        )
        .unwrap()
    });
}

fn table4_baselines(suite: &mut BenchSuite) {
    let ctx = ctx(NamedDataset::Texture60, 0.04, 10);
    suite.bench("table4/uniform_model", || {
        predict_uniform(black_box(&ctx.topo), 21).unwrap()
    });
    suite.bench("table4/fractal_estimation", || {
        estimate_fractal_dims(black_box(&ctx.data), 5).unwrap()
    });
}

fn fig13_14_applications(suite: &mut BenchSuite) {
    let ctx = ctx(NamedDataset::Texture60, 0.04, 10);
    suite.bench("fig13/page_size_point", || {
        let topo = Topology::new(60, ctx.data.len(), &PageConfig::with_page_bytes(32_768)).unwrap();
        Resampled::new(ResampledParams {
            m: 1_000,
            h_upper: 2,
            seed: 1,
        })
        .run(black_box(&ctx.data), &topo, &ctx.balls)
        .unwrap()
    });
    suite.bench("fig14/projected_dims_point", || {
        let proj = ctx.data.project_prefix(20).unwrap();
        let topo = Topology::new(20, proj.len(), &PageConfig::DEFAULT).unwrap();
        let balls: Vec<QueryBall> = ctx
            .balls
            .iter()
            .map(|q| QueryBall::new(q.center[..20].to_vec(), q.radius))
            .collect();
        Resampled::new(ResampledParams {
            m: 1_000,
            h_upper: 2,
            seed: 1,
        })
        .run(black_box(&proj), &topo, &balls)
        .unwrap()
    });
}

fn main() {
    let mut suite = BenchSuite::new("experiments");
    suite.set_isa(&hdidx_core::simd::describe());
    fig02_basic_model(&mut suite);
    fig09_10_analytic_costs(&mut suite);
    table3_phase_predictors(&mut suite);
    table4_baselines(&mut suite);
    fig13_14_applications(&mut suite);
    suite.finish();
}
