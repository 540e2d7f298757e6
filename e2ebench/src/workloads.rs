//! The four workloads. Each makes its inputs from the seed and sets up,
//! then runs rounds of the same [`OPS`] ops in a closed loop with one
//! client for the measuring time, checking every answer, and sets up
//! again [`SETUPS`]` - 1` times spread over that time (the set-up time is
//! the median). See README.md for why each workload exists.

use crate::cpus;
use crate::stats::{fnv, mean, peak_rss_mb, percentile, FNV_START, MIN_P90_SAMPLES};
use crate::trace::{CountingFs, Recorder, Scope, OP};
use hdidx_core::knn::scan_knn_radius;
use hdidx_core::LeafSoup;
use hdidx_datagen::registry::NamedDataset;
use hdidx_datagen::workload::Workload;
use hdidx_diskio::external::{build_on_disk, ExternalConfig};
use hdidx_diskio::measure::measure_on_disk;
use hdidx_diskio::{DiskModel, DiskOptions, IoStats};
use hdidx_model::hupper::recommended_h_upper;
use hdidx_model::upper::build_upper_phase;
use hdidx_model::{Predictor, QueryBall, Resampled, ResampledParams};
use hdidx_pool::{derive_seed, Pool};
use hdidx_rand::{sample_without_replacement, seeded};
use hdidx_serve::{ArrivalModel, LoadGen, MixSpec, Query, ServeConfig, Server};
use hdidx_store::{Durability, SnapshotSet, Vfs, PAYLOAD_BYTES};
use hdidx_vamsplit::bulkload::bulk_load_upper;
use hdidx_vamsplit::query::{count_sphere_intersections, knn};
use hdidx_vamsplit::topology::{PageConfig, Topology};
use std::collections::HashMap;
use std::error::Error;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Result type of the benchmark: layer errors and failed set-up checks.
pub type Result<T> = std::result::Result<T, Box<dyn Error>>;

/// Workload names, in run order.
pub const WORKLOADS: [&str; 4] = ["predict", "serve-mixed", "serve-point", "build-persist"];

/// Set-ups per run: one before the ops, the rest spread over the
/// measuring time, so the median does not hang on the first second.
pub const SETUPS: usize = 5;
/// Distinct ops of a run: op `i` gets the same inputs in every run of a
/// seed, and a round runs ops `0..OPS` in order. So what is computed over
/// them is exact for a seed (the charged I/O, the prediction error, the
/// simulated p99), and a p90 over them has ten ops beyond it.
pub const OPS: u64 = MIN_P90_SAMPLES as u64;
/// Ops (by id, from 0) folded into the answer digest.
pub const DIGEST_OPS: u64 = 5;
/// Density-biased query balls per workload, and their neighbour count.
/// `serve-point` has fewer: each ball costs a scan of all of COLOR64 in
/// set-up, whose speed follows the neighbours' memory traffic.
const QUERIES: usize = 500;
const POINT_QUERIES: usize = 100;
const K: usize = 21;
/// Serve requests arrive at 4 req/s of simulated time.
const RATE_PER_S: f64 = 4.0;
// The sizes below keep an op near 2 ms. Other guests on a shared host
// take the CPU in slices; a short op often runs whole between two of
// them, so its fastest repetition is steady (see README.md).
/// `predict`: share of TEXTURE48, and sample size M.
const PREDICT_FRACTION: f64 = 0.1;
const PREDICT_M: usize = 1_250;
/// `serve-mixed`: share of TEXTURE48 (a quarter, 1.3 MB, fits in L2;
/// see README.md). `serve-mixed` and `serve-point`: simulated seconds
/// per window (~80 and ~256 requests), and the server's M.
const MIXED_FRACTION: f64 = 0.25;
const MIXED_WINDOW_S: f64 = 20.0;
const POINT_WINDOW_S: f64 = 64.0;
const SERVE_M: usize = 2_000;
/// `build-persist`: share of TEXTURE48, and build memory M.
const BUILD_FRACTION: f64 = 0.05;
const BUILD_M: usize = 100;
/// Largest |relative error| one prediction, and the mean over the ops,
/// may show against the measured index before it counts as a wrong
/// answer: at full size, then below it (`--smoke` predicts from half the
/// data with half of M). Over seeds 1-10 the mean was 0.023-0.054 and the
/// largest single error 0.113 at full size; at smoke scale, 0.064-0.103
/// and 0.17.
const MAX_REL_ERR: [f64; 2] = [0.25, 0.4];
const MAX_MEAN_REL_ERR: [f64; 2] = [0.1, 0.25];

/// What a run is asked to do.
#[derive(Debug)]
pub struct Params {
    /// Seed every input is made from.
    pub seed: u64,
    /// Measuring time, seconds; rounds run until it has passed.
    pub seconds: f64,
    /// Distinct ops of a round ([`OPS`] but in unit tests).
    pub ops: u64,
    /// Multiplier on each workload's dataset size and memory budget.
    pub scale: f64,
    /// Directory the store workload may write to (removed by the caller).
    pub scratch: PathBuf,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Dataset name, cardinality and dimensionality.
    pub dataset: &'static str,
    pub points: usize,
    pub dim: usize,
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Peak resident memory after the first set-up and one round of the
    /// ops, before a second set-up holds a second copy of the inputs.
    pub peak_rss_mb: f64,
    /// Per op id: the fastest untraced repetition's wall seconds (infinite
    /// when none ran).
    pub best_s: Vec<f64>,
    /// Per op id: the fastest traced repetition's wall seconds.
    pub traced_best_s: Vec<f64>,
    /// Wall seconds of every untraced repetition.
    pub samples_s: Vec<f64>,
    /// Rounds run to their end.
    pub rounds: u64,
    /// CPUs the rounds took turns on; empty when the thread was not moved.
    pub cpus: Vec<usize>,
    /// Per op id: items (queries predicted, requests executed, points
    /// indexed).
    pub items: Vec<u64>,
    /// Operations attempted and failed (errors, failed checks, failed or
    /// shed requests, repetitions whose answers differ).
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the answers of ops `0..DIGEST_OPS`.
    pub digest: u64,
    /// Simulated disk seconds each op was charged (per request on serve).
    pub charged_s: Vec<f64>,
    /// `predict`: |relative error| of each op.
    pub rel_err: Vec<f64>,
    /// Serve: simulated latency of every request of every window.
    pub sim_latency_s: Vec<f64>,
}

/// Runs workload `name`.
///
/// # Errors
///
/// An unknown name, a set-up error, or a failed set-up check.
pub fn run(name: &str, p: &Params, rec: &Recorder) -> Result<Run> {
    match name {
        "predict" => predict(p, rec),
        "serve-mixed" => serve(
            p,
            rec,
            &Serve {
                ds: NamedDataset::Texture48,
                fraction: MIXED_FRACTION,
                queries: QUERIES,
                mix: mix(0.5, 0.3, 0.2),
                window_s: MIXED_WINDOW_S,
            },
        ),
        "serve-point" => serve(
            p,
            rec,
            &Serve {
                ds: NamedDataset::Color64,
                fraction: 1.0,
                queries: POINT_QUERIES,
                mix: mix(0.6, 0.0, 0.4),
                window_s: POINT_WINDOW_S,
            },
        ),
        "build-persist" => build_persist(p, rec),
        other => Err(format!("unknown workload {other:?} (expected one of {WORKLOADS:?})").into()),
    }
}

fn mix(range: f64, knn: f64, predict: f64) -> MixSpec {
    MixSpec {
        range,
        knn,
        predict,
    }
}

/// A serve workload: the dataset and the share of it served, the number
/// of query balls, the request mix and the simulated seconds per window.
struct Serve {
    ds: NamedDataset,
    fraction: f64,
    queries: usize,
    mix: MixSpec,
    window_s: f64,
}

/// One op's outcome.
struct Op {
    wall_s: f64,
    items: u64,
    attempted: u64,
    failed: u64,
    digest: u64,
    /// Simulated disk seconds charged (per request on serve).
    charged_s: f64,
    /// `predict`: the prediction's |relative error|.
    rel_err: Option<f64>,
    /// Serve: the window's simulated request latencies.
    sim_latency_s: Vec<f64>,
}

/// The generated dataset, its index topology and the query balls.
#[derive(PartialEq)]
struct Inputs {
    data: hdidx_core::Dataset,
    topo: Topology,
    balls: Vec<QueryBall>,
}

impl Inputs {
    fn new(
        ds: NamedDataset,
        scale: f64,
        queries: usize,
        seed: u64,
        sc: Scope<'_>,
    ) -> Result<Inputs> {
        let data = sc.span("datagen.generate", || ds.spec_scaled(scale).generate())?;
        let topo = Topology::new(
            data.dim(),
            data.len(),
            &PageConfig::with_page_bytes(ds.page_bytes()),
        )?;
        let workload = sc.span("datagen.workload", || {
            Workload::density_biased(&data, queries, K, seed)
        })?;
        let balls = workload
            .queries
            .into_iter()
            .map(|q| QueryBall::new(q.center, q.radius))
            .collect();
        Ok(Inputs { data, topo, balls })
    }
}

/// A repeated set-up's outcome: its wall seconds, and whether it made
/// exactly what the first set-up made.
type Setup = Result<(f64, bool)>;

fn new_run(ds: NamedDataset, inp: &Inputs, setup_s: f64) -> Run {
    Run {
        dataset: ds.name(),
        points: inp.data.len(),
        dim: inp.data.dim(),
        setup_s: vec![setup_s],
        digest: FNV_START,
        ..Run::default()
    }
}

fn scaled(m: usize, scale: f64) -> usize {
    (m as f64 * scale).round() as usize
}

/// 0 if `ok`, else 1 after reporting `what` on stderr.
fn check(ok: bool, what: impl FnOnce() -> String) -> u64 {
    if ok {
        0
    } else {
        eprintln!("check failed: {}", what());
        1
    }
}

/// Runs `f` as the op span, returning its result and wall seconds.
fn timed<R>(sc: &Scope<'_>, f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = sc.span(OP, f);
    (out, t.elapsed().as_secs_f64())
}

/// The closed loop: one warm-up op, then rounds of ops `0..p.ops` until
/// the measuring time has passed, every op ran on every CPU (traced and
/// untraced, in a traced run) and [`SETUPS`] set-ups ran. Each op keeps
/// its fastest repetition: other guests on a shared host slow whole
/// stretches of a run, and only add time. With a one-thread pool, round
/// `r` runs on the `r`-th CPU the run may use, in turn (see `cpus`). In a
/// traced run, op `i` is traced in round `r` when `i + r / cpus` is odd,
/// so every op has traced and untraced repetitions on each CPU. Every
/// repetition must give the first one's answer. Between rounds, `setup`
/// repeats the set-up: the `j`-th time once `j / SETUPS` of the measuring
/// time has passed, so the set-ups sample the whole run.
fn drive(
    p: &Params,
    rec: &Recorder,
    run: &mut Run,
    mut setup: impl FnMut() -> Setup,
    mut op: impl FnMut(u64, Scope<'_>) -> Result<Op>,
) -> Result<()> {
    // Warm caches and lazy set-up; not counted.
    let _ = op(0, rec.op(0, false));
    let n = p.ops as usize;
    run.best_s = vec![f64::INFINITY; n];
    run.traced_best_s = vec![f64::INFINITY; n];
    run.items = vec![0; n];
    let mut answers: Vec<Option<u64>> = vec![None; n];
    let allowed = cpus::allowed();
    if hdidx_pool::configured_threads() == 1 && allowed.len() > 1 {
        run.cpus = allowed;
    }
    let turn = run.cpus.len().max(1) as u64;
    let min_rounds = if rec.on() { 2 * turn } else { turn };
    let mut setups = 1;
    let start = Instant::now();
    for round in 0.. {
        if let Some(&cpu) = run.cpus.get((round % turn) as usize) {
            cpus::pin(&[cpu]);
        }
        for id in 0..p.ops {
            let i = id as usize;
            let traced = rec.on() && (id + round / turn) % 2 == 1;
            match op(id, rec.op(id, traced)) {
                Ok(o) => {
                    run.attempted += o.attempted;
                    run.failed += o.failed;
                    match answers[i] {
                        Some(first) => {
                            run.failed += check(o.digest == first, || {
                                format!("op {id}, round {round}: the answer differs from round 0")
                            });
                        }
                        None => {
                            answers[i] = Some(o.digest);
                            if id < DIGEST_OPS {
                                run.digest = fnv(run.digest, &[o.digest]);
                            }
                            run.items[i] = o.items;
                            run.charged_s.push(o.charged_s);
                            run.rel_err.extend(o.rel_err);
                            run.sim_latency_s.extend(o.sim_latency_s);
                        }
                    }
                    let best = if traced {
                        &mut run.traced_best_s[i]
                    } else {
                        run.samples_s.push(o.wall_s);
                        &mut run.best_s[i]
                    };
                    *best = best.min(o.wall_s);
                }
                Err(e) => {
                    eprintln!("op {id} failed: {e}");
                    run.attempted += 1;
                    run.failed += 1;
                }
            }
        }
        if round == 0 {
            run.peak_rss_mb = peak_rss_mb()?;
        }
        while setups < SETUPS
            && start.elapsed().as_secs_f64() >= p.seconds * setups as f64 / SETUPS as f64
        {
            setups += 1;
            run.attempted += 1;
            match setup() {
                Ok((setup_s, same)) => {
                    run.setup_s.push(setup_s);
                    run.failed += check(same, || {
                        format!("set-up {setups} made other inputs than the first")
                    });
                }
                Err(e) => {
                    eprintln!("set-up {setups} failed: {e}");
                    run.failed += 1;
                }
            }
        }
        run.rounds = round + 1;
        if run.rounds >= min_rounds
            && setups == SETUPS
            && start.elapsed().as_secs_f64() >= p.seconds
        {
            break;
        }
    }
    if !run.cpus.is_empty() {
        cpus::pin(&run.cpus);
    }
    Ok(())
}

/// `predict`: the paper's product. One op is a resampled prediction of
/// the query balls' leaf accesses on TEXTURE48, checked against the index
/// measured in set-up.
fn predict(p: &Params, rec: &Recorder) -> Result<Run> {
    let ds = NamedDataset::Texture48;
    let m = scaled(PREDICT_M, p.scale);
    let cfg = ExternalConfig::with_mem_points(m)?;
    let set_up = || -> Result<_> {
        let inp = Inputs::new(ds, PREDICT_FRACTION * p.scale, QUERIES, p.seed, rec.setup())?;
        let centers: Vec<Vec<f32>> = inp.balls.iter().map(|b| b.center.clone()).collect();
        let truth = measure_on_disk(&inp.data, &inp.topo, &centers, K, &cfg)?;
        Ok((inp, truth))
    };
    let t = Instant::now();
    let (inp, truth) = set_up()?;
    let setup_s = t.elapsed().as_secs_f64();
    let setup = || -> Setup {
        let t = Instant::now();
        let (inp2, truth2) = set_up()?;
        let setup_s = t.elapsed().as_secs_f64();
        let same = inp2 == inp
            && truth2.tree == truth.tree
            && truth2.build_io == truth.build_io
            && truth2.per_query_leaf_accesses == truth.per_query_leaf_accesses;
        Ok((setup_s, same))
    };
    let measured = truth.avg_leaf_accesses();
    let h_upper = recommended_h_upper(&inp.topo, m)?;
    let dim = inp.data.dim();
    let pool = Pool::current();
    let disk = DiskModel::paper_with_page_bytes(ds.page_bytes());
    let scaled_down = usize::from(p.scale < 1.0);

    // The measured index's leaves are the layout a prediction estimates;
    // the count replay runs the prediction's final counting kernel on
    // them, and on them it must reproduce the measured accesses exactly.
    let truth_rects = truth.tree.leaf_rects();
    let sc = rec.setup();
    if sc.on() {
        let built = sc.span("diskio.build", || build_on_disk(&inp.data, &inp.topo, &cfg))?;
        if built.tree != truth.tree || built.io != truth.build_io {
            return Err("replayed build differs from the measured index".into());
        }
        sc.count("diskio.build_seeks", built.io.seeks as f64);
        sc.count("diskio.build_transfers", built.io.transfers as f64);
    }

    let mut run = new_run(ds, &inp, setup_s);
    drive(p, rec, &mut run, setup, |id, sc| {
        let seed = derive_seed(p.seed, id);
        let params = ResampledParams { m, h_upper, seed };
        let (pred, wall_s) = timed(&sc, || {
            Resampled::new(params).predict(&inp.data, &inp.topo, &inp.balls)
        });
        let pred = pred?;
        let err = pred.relative_error(measured);
        let charged_s = disk.cost_seconds(pred.io);
        let mut failed = check(
            pred.per_query.len() == inp.balls.len()
                && pred.predicted_leaf_pages > 0
                && !pred.degraded.is_degraded(),
            || format!("predict op {id}: malformed prediction"),
        );
        failed += check(err.abs() <= MAX_REL_ERR[scaled_down], || {
            format!("predict op {id}: relative error {err:+.4} vs the measured index")
        });
        if sc.on() {
            let up = sc.span("model.upper", || {
                build_upper_phase(&inp.data, &inp.topo, m, h_upper, seed)
            })?;
            let upper = sc.span("vamsplit.bulk_load_upper", || {
                let sample = sample_without_replacement(&mut seeded(seed), inp.data.len(), m);
                bulk_load_upper(&inp.data, sample, &inp.topo, h_upper)
            })?;
            failed += check(upper == up.tree, || {
                format!("predict op {id}: replayed upper tree differs")
            });
            let soup = sc.span("core.soup_flatten", || {
                LeafSoup::from_rects(dim, &truth_rects)
            })?;
            let counts = sc.span("core.soup_count", || {
                soup.count_batch(&pool, &inp.balls, |b| (b.center.as_slice(), b.radius))
            });
            failed += check(counts == truth.per_query_leaf_accesses, || {
                format!("predict op {id}: leaf counts differ from the measured accesses")
            });
            let tests = (inp.balls.len() * soup.len()) as f64;
            sc.count("core.soup_tests", tests);
            sc.count("core.soup_hits", counts.iter().sum::<u64>() as f64);
            sc.count("core.soup_bytes", tests * (dim * 8) as f64);
            sc.count("model.pages", pred.predicted_leaf_pages as f64);
            sc.count("model.seeks", pred.io.seeks as f64);
            sc.count("model.transfers", pred.io.transfers as f64);
            sc.count("diskio.charged_io_s", charged_s);
            sc.count("model.rel_err", err.abs());
        }
        let digest = fnv(
            fnv(FNV_START, &pred.per_query),
            &[pred.io.seeks, pred.io.transfers],
        );
        Ok(Op {
            wall_s,
            items: inp.balls.len() as u64,
            attempted: 1,
            failed: failed.min(1),
            digest,
            charged_s,
            rel_err: Some(err.abs()),
            sim_latency_s: Vec::new(),
        })
    })?;
    let mean_err = mean(&run.rel_err).unwrap_or(f64::NAN);
    run.failed += check(mean_err <= MAX_MEAN_REL_ERR[scaled_down], || {
        format!("predict: mean relative error {mean_err:.4} over the ops")
    });
    Ok(run)
}

fn bits(center: &[f32]) -> Vec<u32> {
    center.iter().map(|x| x.to_bits()).collect()
}

/// `serve-mixed` and `serve-point`: one op is a `Server::run` over a
/// window of `window_s` simulated seconds of the open-loop load generator.
fn serve(p: &Params, rec: &Recorder, w: &Serve) -> Result<Run> {
    let ds = w.ds;
    let m = scaled(SERVE_M, p.scale);
    let inputs = || Inputs::new(ds, w.fraction * p.scale, w.queries, p.seed, rec.setup());
    let t = Instant::now();
    let inp = inputs()?;
    let server = Server::build(&inp.data, &inp.topo, m, p.seed, None)?;
    let setup_s = t.elapsed().as_secs_f64();
    let setup = || -> Setup {
        let t = Instant::now();
        let inp2 = inputs()?;
        let server2 = Server::build(&inp2.data, &inp2.topo, m, p.seed, None)?;
        let setup_s = t.elapsed().as_secs_f64();
        let same = inp2 == inp
            && server2.tree() == server.tree()
            && server2.build_io() == server.build_io();
        Ok((setup_s, same))
    };
    let dim = inp.data.dim();
    let descent = server.tree().height() as u64 - 1;

    // Reference leaf counts, from the AoS geometry: a range or k-NN
    // request reads every leaf its candidate ball meets (a k-NN request's
    // radius is its candidate's exact radius) plus the directory path.
    let rects = server.tree().leaf_rects();
    let leaves: HashMap<Vec<u32>, u64> = inp
        .balls
        .iter()
        .map(|b| {
            let count = count_sphere_intersections(&rects, &b.center, b.radius);
            (bits(&b.center), count)
        })
        .collect();

    let sc = rec.setup();
    let soups = if sc.on() {
        let cfg = ExternalConfig::with_mem_points(m)?;
        let built = sc.span("diskio.build", || build_on_disk(&inp.data, &inp.topo, &cfg))?;
        if built.tree != *server.tree() || built.io != server.build_io() {
            return Err("replayed build differs from the server's index".into());
        }
        sc.count("diskio.build_seeks", built.io.seeks as f64);
        sc.count("diskio.build_transfers", built.io.transfers as f64);
        let h_upper = recommended_h_upper(&inp.topo, m)?;
        let up = sc.span("model.upper", || {
            build_upper_phase(&inp.data, &inp.topo, m, h_upper, p.seed)
        })?;
        let flat = sc.span("core.soup_flatten", || {
            Ok::<_, hdidx_core::Error>((LeafSoup::from_rects(dim, &rects)?, up.grown_soup()?))
        })?;
        Some(flat)
    } else {
        None
    };

    let pool = Pool::current();
    let cfg = ServeConfig::new();
    let mut run = new_run(ds, &inp, setup_s);
    drive(p, rec, &mut run, setup, |id, sc| {
        let gen = LoadGen {
            rate_per_s: RATE_PER_S,
            duration_s: w.window_s,
            model: ArrivalModel::Fixed,
            seed: derive_seed(p.seed, id),
        };
        let requests = sc.span("serve.loadgen", || gen.requests(&inp.balls, &w.mix, K))?;
        let (report, wall_s) = timed(&sc, || server.run(&requests, &cfg, &pool));
        let report = report?;
        let n = requests.len() as u64;
        let charged_s = cfg.disk.cost_seconds(report.io) / n as f64;
        let expected: Option<u64> = requests
            .iter()
            .map(|r| match &r.query {
                Query::Range { center, .. } | Query::Knn { center, .. } => {
                    leaves.get(&bits(center)).map(|c| c + descent)
                }
                Query::Predict { .. } => Some(0),
            })
            .sum();
        let mut bad = check(
            report.total == n && report.executed == n && report.failed == 0 && report.shed == 0,
            || {
                format!(
                    "serve window {id}: {} of {n} requests executed",
                    report.executed
                )
            },
        );
        bad += check(expected == Some(report.io.seeks), || {
            format!(
                "serve window {id}: {} seeks charged, reference leaf counts give {expected:?}",
                report.io.seeks
            )
        });
        if sc.on() {
            let (leaf_soup, grown) = soups.as_ref().expect("traced runs flatten in set-up");
            let knn_centers: Vec<(&[f32], usize)> = requests
                .iter()
                .filter_map(|r| match &r.query {
                    Query::Knn { center, k } => Some((center.as_slice(), *k)),
                    _ => None,
                })
                .collect();
            let radii: Vec<f64> = if knn_centers.is_empty() {
                Vec::new()
            } else {
                sc.count("core.knn_scans", knn_centers.len() as f64);
                let bytes = knn_centers.len() * inp.data.len() * dim * 4;
                sc.count("core.knn_bytes", bytes as f64);
                sc.span("core.knn_scan", || {
                    knn_centers
                        .iter()
                        .map(|&(c, k)| scan_knn_radius(&inp.data, c, k))
                        .collect::<hdidx_core::Result<_>>()
                })?
            };
            let mut radii = radii.into_iter();
            let (mut seeks, mut tests, mut hits) = (0u64, 0u64, 0u64);
            sc.span("core.soup_count", || {
                for r in &requests {
                    let (soup, center, r2, disk) = match &r.query {
                        Query::Range { center, radius } => {
                            (leaf_soup, center, radius * radius, true)
                        }
                        Query::Knn { center, .. } => {
                            let radius = radii.next().unwrap_or(f64::NAN);
                            (leaf_soup, center, radius * radius, true)
                        }
                        Query::Predict { center, radius } => {
                            (grown, center, radius * radius, false)
                        }
                    };
                    let c = soup.count_intersecting(center, r2);
                    tests += soup.len() as u64;
                    hits += c;
                    if disk {
                        seeks += c + descent;
                    }
                }
            });
            bad += check(seeks == report.io.seeks, || {
                format!(
                    "serve window {id}: {} seeks charged, replayed counts give {seeks}",
                    report.io.seeks
                )
            });
            sc.count("core.soup_tests", tests as f64);
            sc.count("core.soup_hits", hits as f64);
            sc.count("core.soup_bytes", (tests * dim as u64 * 8) as f64);
            sc.count("serve.batches", n.div_ceil(cfg.batch as u64) as f64);
            sc.count("serve.executed", report.executed as f64);
            sc.count("serve.shed", report.shed as f64);
            sc.count("serve.failed", report.failed as f64);
            sc.count("serve.io_seeks", report.io.seeks as f64);
            sc.count("diskio.charged_io_s", charged_s);
        }
        Ok(Op {
            wall_s,
            items: report.executed,
            attempted: n,
            failed: if bad > 0 {
                n
            } else {
                report.failed + report.shed
            },
            digest: report.digest,
            charged_s,
            rel_err: None,
            sim_latency_s: report.samples,
        })
    })?;
    if let Some(p99) = percentile(&run.sim_latency_s, 99.0) {
        rec.setup().count("serve.sim_p99_s", p99);
    }
    Ok(run)
}

/// `build-persist`: one op builds the TEXTURE48 index on the simulated
/// disk, publishes it as a snapshot generation on the file backend,
/// scrubs it and loads it back. The files are real; the store's fsyncs
/// are counted but not flushed (see [`CountingFs`]).
fn build_persist(p: &Params, rec: &Recorder) -> Result<Run> {
    let ds = NamedDataset::Texture48;
    let cfg = ExternalConfig::with_mem_points(scaled(BUILD_M, p.scale))?;
    // Every op must rebuild exactly the reference index with exactly its
    // bill.
    let set_up = || -> Result<_> {
        let inp = Inputs::new(ds, BUILD_FRACTION * p.scale, QUERIES, p.seed, rec.setup())?;
        let reference = rec
            .setup()
            .span("diskio.build", || build_on_disk(&inp.data, &inp.topo, &cfg))?;
        Ok((inp, reference))
    };
    let t = Instant::now();
    let (inp, reference) = set_up()?;
    let setup_s = t.elapsed().as_secs_f64();
    let setup = || -> Setup {
        let t = Instant::now();
        let (inp2, reference2) = set_up()?;
        let setup_s = t.elapsed().as_secs_f64();
        let same =
            inp2 == inp && reference2.tree == reference.tree && reference2.io == reference.io;
        Ok((setup_s, same))
    };
    let sc = rec.setup();
    sc.count("diskio.build_seeks", reference.io.seeks as f64);
    sc.count("diskio.build_transfers", reference.io.transfers as f64);
    std::fs::create_dir_all(&p.scratch)?;
    let opts = DiskOptions::new();
    let disk = DiskModel::paper_with_page_bytes(ds.page_bytes());

    let mut run = new_run(ds, &inp, setup_s);
    drive(p, rec, &mut run, setup, |id, sc| {
        let dir = p.scratch.join(format!("op-{id}"));
        let counting = CountingFs::default();
        let fs: Arc<dyn Vfs> = Arc::new(counting.clone());
        let (done, wall_s) = timed(&sc, || -> Result<_> {
            let built = sc.span("diskio.build", || build_on_disk(&inp.data, &inp.topo, &cfg))?;
            let (set, (generation, publish_io)) = sc.span("store.publish", || -> Result<_> {
                let set = SnapshotSet::open_in(fs, &dir, Durability::PerBatch)?;
                let published = set.publish(&built.tree, &opts)?;
                Ok((set, published))
            })?;
            let scrub = sc.span("store.scrub", || set.scrub(&opts))?;
            let (loaded, loaded_gen, _) = sc.span("store.load", || set.load(&opts))?;
            Ok((built, generation, publish_io, scrub, loaded, loaded_gen))
        });
        let removed = std::fs::remove_dir_all(&dir);
        let (built, generation, publish_io, scrub, loaded, loaded_gen) = done?;
        removed?;
        let mut failed = check(
            built.tree == reference.tree && built.io == reference.io,
            || format!("build-persist op {id}: the build is not the reference build"),
        );
        failed += check(
            generation == 1 && loaded_gen == 1 && scrub.is_clean(),
            || format!("build-persist op {id}: generation {generation}/{loaded_gen}, {scrub}"),
        );
        failed += check(loaded == built.tree, || {
            format!("build-persist op {id}: the loaded index differs from the built one")
        });
        // The reloaded index must answer a k-NN query exactly. The op is
        // charged the build plus that query's random page reads, as the
        // paper's on-disk row charges build and query I/O.
        let ball = &inp.balls[id as usize % inp.balls.len()];
        let answer = knn(&loaded, &inp.data, &ball.center, K)?;
        let radius = answer.radius();
        failed += check(radius == ball.radius, || {
            format!(
                "build-persist op {id}: k-NN radius {radius} on the loaded index, exact {}",
                ball.radius
            )
        });
        let charged_s = disk.cost_seconds(built.io + IoStats::random(answer.stats.total()));
        if sc.on() {
            sc.count("diskio.charged_io_s", charged_s);
            sc.count("store.fsyncs", counting.fsyncs() as f64);
            sc.count("store.bytes_written", counting.bytes_written() as f64);
            sc.count("store.bytes_read", counting.bytes_read() as f64);
            sc.count(
                "store.payload_bytes",
                (publish_io.writes * PAYLOAD_BYTES as u64) as f64,
            );
        }
        Ok(Op {
            wall_s,
            items: inp.data.len() as u64,
            attempted: 1,
            failed: failed.min(1),
            digest: fnv(
                FNV_START,
                &[
                    built.io.seeks,
                    built.io.transfers,
                    publish_io.writes,
                    answer.stats.total(),
                    radius.to_bits(),
                ],
            ),
            charged_s,
            rel_err: None,
            sim_latency_s: Vec::new(),
        })
    })?;
    Ok(run)
}
