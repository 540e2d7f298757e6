//! **Degradation-vs-accuracy sweep**: how prediction quality and I/O cost
//! respond to rising fault pressure under each retry policy.
//!
//! For every (fault rate, retry policy) cell the paper's three sampling
//! predictors run under a seeded fault plan — correlated bursts included —
//! against the *fault-free* measured ground truth. Each cell emits one
//! JSON-lines row per predictor with its surviving coverage, retries,
//! charged backoff latency and relative error, so the output can be piped
//! straight into a plotting script.
//!
//! The summary then locates the **crossover**: the resampled predictor is
//! the accurate-but-I/O-hungry choice, and as faults destroy its
//! second-sample reads its error eventually exceeds the cutoff
//! extrapolation it falls back to. The sweep reports the first fault rate
//! (per policy) where that happens — the point past which paying for
//! resampling no longer buys accuracy.
//!
//! Retry pacing only charges time, so the sweep asserts that per rate and
//! predictor the `exponential` row matches the `fixed` row in coverage,
//! degraded units, retries and relative error, and charges at least as
//! much backoff.
//!
//! `--smoke` shrinks the sweep for CI.

use hdidx_bench::{ExpArgs, ExperimentContext};
use hdidx_datagen::registry::NamedDataset;
use hdidx_diskio::{DiskModel, IoStats};
use hdidx_faults::{BurstConfig, FaultConfig, RetryPolicy};
use hdidx_model::{
    hupper, Basic, BasicParams, Cutoff, CutoffParams, Prediction, Resampled, ResampledParams,
};

/// One emitted sweep cell.
struct Row {
    fault_ppm: u32,
    policy: RetryPolicy,
    predictor: &'static str,
    outcome: Result<(Prediction, f64), String>,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl Row {
    fn json(&self, disk: &DiskModel) -> String {
        let head = format!(
            "{{\"fault_ppm\":{},\"retry_policy\":\"{}\",\"predictor\":\"{}\"",
            self.fault_ppm,
            self.policy.as_str(),
            self.predictor
        );
        match &self.outcome {
            Ok((p, rel_err)) => format!(
                "{head},\"coverage_fraction\":{:.6},\"degraded_units\":{},\"retries\":{},\
                 \"backoff_latency_s\":{:.6},\"io_s\":{:.6},\"relative_error\":{:.6}}}",
                p.degraded.coverage_fraction,
                p.degraded.leaves_degraded,
                p.io.retries,
                backoff_seconds(p.io, disk),
                disk.cost_seconds(p.io),
                rel_err,
            ),
            Err(e) => format!("{head},\"error\":\"{}\"}}", json_escape(e)),
        }
    }
}

fn backoff_seconds(io: IoStats, disk: &DiskModel) -> f64 {
    io.backoff as f64 * disk.t_seek_s
}

/// Panics unless every `exponential` row matches its `fixed` row in all
/// but the charged backoff, which may only grow: pacing decides when a
/// retry runs, never whether an access fails.
fn assert_pacing_only_charges_time(rows: &[Row], disk: &DiskModel) {
    for fixed in rows.iter().filter(|r| r.policy == RetryPolicy::Fixed) {
        let exp = rows
            .iter()
            .find(|r| {
                r.policy == RetryPolicy::Exponential
                    && r.fault_ppm == fixed.fault_ppm
                    && r.predictor == fixed.predictor
            })
            .expect("every cell runs under both policies");
        let at = format!("{} at {} ppm", fixed.predictor, fixed.fault_ppm);
        match (&fixed.outcome, &exp.outcome) {
            (Ok((f, f_err)), Ok((x, x_err))) => {
                let key = |p: &Prediction, rel_err: &f64| {
                    (
                        p.degraded.coverage_fraction,
                        p.degraded.leaves_degraded,
                        p.io.retries,
                        *rel_err,
                    )
                };
                assert_eq!(
                    key(f, f_err),
                    key(x, x_err),
                    "{at}: pacing changed a result"
                );
                assert!(
                    backoff_seconds(x.io, disk) >= backoff_seconds(f.io, disk),
                    "{at}: exponential charged less backoff than fixed"
                );
            }
            (Err(f), Err(x)) => assert_eq!(f, x, "{at}: pacing changed the failure"),
            _ => panic!("{at}: one retry policy failed where the other did not"),
        }
    }
}

fn main() {
    let args = ExpArgs::parse(0.25, 200);
    args.banner("Fault sweep: degradation vs accuracy per retry policy (COLOR64)");
    let (args, ppms): (ExpArgs, &[u32]) = if args.smoke {
        // Keep the scale: the restricted-memory predictors need a
        // height-3 tree, which COLOR64 only reaches at this cardinality;
        // cut the workload instead.
        (
            ExpArgs {
                queries: args.queries.min(30),
                ..args
            },
            &[0, 20_000, 560_000],
        )
    } else {
        (
            args,
            &[
                0, 5_000, 20_000, 50_000, 100_000, 200_000, 400_000, 560_000, 700_000,
            ],
        )
    };
    let policies = [RetryPolicy::Fixed, RetryPolicy::Exponential];
    let ctx = ExperimentContext::prepare(NamedDataset::Color64, &args).expect("prepare");
    let disk = DiskModel::paper_with_page_bytes(NamedDataset::Color64.page_bytes());
    // Same memory budget as the all-datasets accuracy sweep: the paper's
    // 10,000-point budget scaled to this cardinality, floored so the upper
    // tree keeps enough fanout.
    let m = ((ctx.data.len() as f64 * 0.0363) as usize).max(ctx.topo.cap_data() * 4);
    let h_upper = hupper::recommended_h_upper(&ctx.topo, m).expect("h_upper");
    println!(
        "dataset: {} ({} x {}), m = {m}, h_upper = {h_upper}",
        ctx.name,
        ctx.data.len(),
        ctx.data.dim()
    );
    // Ground truth is measured fault-free under the same memory budget:
    // the sweep isolates how the *predictors* degrade, not the
    // measurement.
    let measured = ctx.measure(m).expect("measure");
    let truth = measured.avg_leaf_accesses();
    println!("fault-free measured average: {truth:.1} leaf accesses/query\n");

    let mut rows: Vec<Row> = Vec::new();
    for &policy in &policies {
        for &ppm in ppms {
            let fcfg = FaultConfig::disabled(args.seed)
                .with_rate_ppm(ppm)
                .expect("fault rate")
                .with_burst(Some(BurstConfig::with_fault_ppm(ppm).expect("fault rate")))
                .with_retry(policy);
            let zeta = (m as f64 / ctx.data.len() as f64).min(1.0);
            let cell =
                |predictor: &'static str, result: Result<Prediction, hdidx_core::Error>| -> Row {
                    Row {
                        fault_ppm: ppm,
                        policy,
                        predictor,
                        outcome: result
                            .map(|p| {
                                let e = p.relative_error(truth);
                                (p, e)
                            })
                            .map_err(|e| e.to_string()),
                    }
                };
            rows.push(cell(
                "basic",
                Basic::new(BasicParams {
                    zeta,
                    compensate: true,
                    seed: args.seed,
                })
                .with_faults(Some(fcfg))
                .run(&ctx.data, &ctx.topo, &ctx.balls),
            ));
            rows.push(cell(
                "cutoff",
                Cutoff::new(CutoffParams {
                    m,
                    h_upper,
                    seed: args.seed,
                })
                .with_faults(Some(fcfg))
                .run(&ctx.data, &ctx.topo, &ctx.balls)
                .map(|p| p.prediction),
            ));
            rows.push(cell(
                "resampled",
                Resampled::new(ResampledParams {
                    m,
                    h_upper,
                    seed: args.seed,
                })
                .with_faults(Some(fcfg))
                .run(&ctx.data, &ctx.topo, &ctx.balls)
                .map(|p| p.prediction),
            ));
        }
    }

    for row in &rows {
        println!("{}", row.json(&disk));
    }
    assert_pacing_only_charges_time(&rows, &disk);

    // Crossover: first rate (per policy) where the resampled error leaves
    // the cutoff error behind — degradation has eaten the accuracy the
    // extra I/O pays for.
    println!();
    for &policy in &policies {
        let err_of = |predictor: &str, ppm: u32| -> Option<f64> {
            rows.iter()
                .find(|r| r.fault_ppm == ppm && r.policy == policy && r.predictor == predictor)
                .and_then(|r| r.outcome.as_ref().ok())
                .map(|(_, e)| e.abs())
        };
        let crossover = ppms.iter().copied().find(|&ppm| {
            match (err_of("resampled", ppm), err_of("cutoff", ppm)) {
                (Some(r), Some(c)) => r > c,
                // A resampled run destroyed outright also counts as worse.
                (None, Some(_)) => true,
                _ => false,
            }
        });
        match crossover {
            Some(ppm) => println!(
                "crossover [{}]: resampled error exceeds cutoff at {ppm} ppm",
                policy.as_str()
            ),
            None => println!(
                "crossover [{}]: not reached in this sweep (resampled stays ahead)",
                policy.as_str()
            ),
        }
    }
}
