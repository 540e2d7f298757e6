//! Command implementations, returning their report as a `String` so they
//! are testable without capturing stdout.

use crate::args::{Cli, Command, RunArgs, StoreSpec};
use crate::csvio;
use hdidx_baselines::{by_name, PredictorConfig, PREDICTOR_NAMES};
use hdidx_core::Dataset;
use hdidx_datagen::registry::NamedDataset;
use hdidx_datagen::workload::Workload;
use hdidx_diskio::external::{build_on_disk, ExternalConfig};
use hdidx_diskio::measure::measure_on_disk;
use hdidx_diskio::{DiskModel, DiskOptions, IoStats};
use hdidx_model::{hupper, Prediction, QueryBall};
use hdidx_serve::{LoadGen, MixSpec, QueryClass, ServeConfig, Server};
use hdidx_store::{Durability, ScrubReport, SnapshotSet};
use hdidx_vamsplit::topology::{PageConfig, Topology};
use hdidx_vamsplit::tree::RTree;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Executes a parsed invocation.
///
/// # Errors
///
/// Human-readable message for any failure.
pub fn execute(cli: &Cli) -> Result<String, String> {
    execute_with_status(cli).map(|(report, _)| report)
}

/// [`execute`] plus the process exit status the command requests.
/// Every command exits 0 on success except `scrub`, whose exit code
/// distinguishes what the pass found: 0 all pages clean, 3 degraded
/// (pages quarantined or the store fell back to an older generation).
/// Hard errors stay on the `Err` path (exit 1).
///
/// `--threads` and `--simd` are applied first, for the whole process;
/// without `--simd`, `HDIDX_SIMD` is resolved then. Results are
/// identical for any thread count and any ISA; both only change
/// wall-clock time. A fixed ISA the CPU does not support, or an
/// `HDIDX_SIMD` value that does not parse, is a startup error.
///
/// # Errors
///
/// Human-readable message for any failure.
pub fn execute_with_status(cli: &Cli) -> Result<(String, i32), String> {
    if let Some(t) = cli.threads {
        hdidx_pool::set_threads(t);
    }
    match cli.simd {
        Some(choice) => {
            hdidx_core::simd::force(choice).map_err(|e| format!("option --simd: {e}"))?;
        }
        None => hdidx_core::simd::check_env()?,
    }
    let report = match &cli.command {
        Command::Scrub { store_dir } => return scrub(Path::new(store_dir)),
        Command::Help => Ok(crate::args::USAGE.to_string()),
        Command::Info { data, page_bytes } => info(Path::new(data), *page_bytes),
        Command::Generate {
            dataset,
            scale,
            out,
        } => generate(dataset, *scale, Path::new(out)),
        Command::Predict {
            run,
            predictor,
            h_upper,
            zeta,
        } => predict(run, predictor, *h_upper, *zeta),
        Command::Compare { run } => compare(run),
        Command::Measure { run, store } => measure(run, store),
        Command::Serve {
            run,
            store,
            rate_per_s,
            duration_s,
            arrivals,
            mix,
            concurrency,
            batch,
            overload,
            only,
        } => {
            let load = LoadGen {
                rate_per_s: *rate_per_s,
                duration_s: *duration_s,
                model: *arrivals,
                seed: run.seed,
            };
            let serving = ServeConfig {
                concurrency: *concurrency,
                batch: *batch,
                overload: *overload,
                disk: DiskModel::paper_with_page_bytes(run.page_bytes),
            };
            serve(run, store, &load, mix, &serving, *only)
        }
    };
    report.map(|r| (r, 0))
}

/// Publishes `tree` as a fresh snapshot generation under
/// `<store_root>/index`, scrubs the committed generation, loads it back,
/// and verifies the loaded arenas are bitwise identical to what went in.
/// The generation committed before it is retained and older ones are
/// GC'd by the publish, so a crashed run always leaves the previous
/// generation loadable. Returns the loaded tree, the I/O charged by the
/// reopen (so callers can bill it as build I/O), the scrub report of the
/// served generation, and the human-readable backend/persist/scrub/reopen
/// report comparing charged-model seconds with wall-clock seconds.
fn persist_and_reopen(
    store_root: &Path,
    tree: &RTree,
    disk: &DiskModel,
) -> Result<(RTree, IoStats, ScrubReport, String), String> {
    let set = open_set(&store_root.join("index"))?;
    let persist_clock = Instant::now();
    let (generation, persist_io) = set
        .publish(tree, &DiskOptions::new())
        .map_err(|e| e.to_string())?;
    let persist_wall_s = persist_clock.elapsed().as_secs_f64();

    let scrub_report = set.scrub(&DiskOptions::new()).map_err(|e| e.to_string())?;
    let reopen_clock = Instant::now();
    let (loaded, loaded_gen, reopen_io) =
        set.load(&DiskOptions::new()).map_err(|e| e.to_string())?;
    let reopen_wall_s = reopen_clock.elapsed().as_secs_f64();
    if loaded_gen != generation {
        return Err(format!(
            "published generation {generation} but generation {loaded_gen} is serving \
             (scrub fell back: {})",
            scrub_report.fell_back
        ));
    }
    if loaded != *tree {
        return Err("reopened index differs from the tree that was persisted".to_string());
    }

    let mut report = format!("backend: file (store {})\n", store_root.display());
    let _ = writeln!(
        report,
        "persist: generation {generation}, charged {:.3} s, wall {:.3} s",
        disk.cost_seconds(persist_io),
        persist_wall_s
    );
    let _ = writeln!(report, "scrub: {scrub_report}");
    let _ = writeln!(
        report,
        "reopen: verified identical, charged {:.3} s, wall {:.3} s",
        disk.cost_seconds(reopen_io),
        reopen_wall_s
    );
    Ok((loaded, reopen_io, scrub_report, report))
}

/// Opens the snapshot set at `root`; `Durability` has one value.
fn open_set(root: &Path) -> Result<SnapshotSet, String> {
    SnapshotSet::open(root, Durability::PerBatch).map_err(|e| e.to_string())
}

/// Offline scrub of a snapshot store: verifies every page checksum in
/// the current generation, quarantines corrupt pages, and falls back to
/// (and re-commits) the previously committed generation if the current
/// one cannot be made loadable. Accepts either the `--store` root the
/// index was built under (generations live in `<root>/index`) or a
/// snapshot-set directory itself. Exits 0 clean, 3 degraded
/// (quarantined pages or a generation fallback — data was lost or
/// demoted).
fn scrub(store_root: &Path) -> Result<(String, i32), String> {
    let index = store_root.join("index");
    let set_root = if index.exists() {
        index
    } else {
        store_root.to_path_buf()
    };
    if !set_root.exists() {
        return Err(format!("no store at {}", store_root.display()));
    }
    let set = open_set(&set_root)?;
    let report = set.scrub(&DiskOptions::new()).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "store: {}", set_root.display());
    let _ = writeln!(out, "scrub: {report}");
    if let Some(generation) = set.current().map_err(|e| e.to_string())? {
        let _ = writeln!(out, "serving generation {generation}");
    }
    Ok((out, if report.is_clean() { 0 } else { 3 }))
}

fn load(data: &Path, page_bytes: usize) -> Result<(Dataset, Topology), String> {
    let dataset = csvio::read_csv(data).map_err(|e| e.to_string())?;
    let topo = Topology::new(
        dataset.dim(),
        dataset.len(),
        &PageConfig::with_page_bytes(page_bytes),
    )
    .map_err(|e| e.to_string())?;
    Ok((dataset, topo))
}

/// Loads the run's dataset and draws its density-biased query workload.
fn load_run(run: &RunArgs) -> Result<(Dataset, Topology, Workload), String> {
    let (dataset, topo) = load(Path::new(&run.data), run.page_bytes)?;
    let workload = Workload::density_biased(&dataset, run.queries, run.k, run.seed)
        .map_err(|e| e.to_string())?;
    Ok((dataset, topo, workload))
}

fn balls(workload: &Workload) -> Vec<QueryBall> {
    workload
        .queries
        .iter()
        .map(|q| QueryBall::new(q.center.clone(), q.radius))
        .collect()
}

fn centers(workload: &Workload) -> Vec<Vec<f32>> {
    workload.queries.iter().map(|q| q.center.clone()).collect()
}

/// The on-disk build configuration: the run's memory budget and faults.
fn external_config(run: &RunArgs) -> Result<ExternalConfig, String> {
    let mut cfg = ExternalConfig::with_mem_points(run.m).map_err(|e| e.to_string())?;
    cfg.faults = run.faults;
    Ok(cfg)
}

fn info(data: &Path, page_bytes: usize) -> Result<String, String> {
    let (dataset, topo) = load(data, page_bytes)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "dataset: {} points x {} dims",
        dataset.len(),
        dataset.dim()
    );
    let _ = writeln!(out, "page size: {page_bytes} bytes");
    let _ = writeln!(
        out,
        "capacities: {} points/data page, {} entries/directory page",
        topo.cap_data(),
        topo.cap_dir()
    );
    let _ = writeln!(out, "tree height: {}", topo.height());
    let _ = writeln!(out, "leaf pages: {}", topo.leaf_pages());
    let _ = writeln!(out, "total pages: {}", topo.total_pages());
    for h in 2..topo.height() {
        let _ = writeln!(
            out,
            "h_upper = {h}: k = {} upper leaves, lower-tree capacity {}",
            topo.upper_leaf_count(h),
            topo.subtree_capacity(topo.upper_leaf_level(h)) as u64
        );
    }
    Ok(out)
}

fn generate(dataset: &str, scale: f64, out: &Path) -> Result<String, String> {
    let named = match dataset.to_ascii_lowercase().as_str() {
        "color64" => NamedDataset::Color64,
        "texture48" => NamedDataset::Texture48,
        "texture60" => NamedDataset::Texture60,
        "isolet617" => NamedDataset::Isolet617,
        "stock360" => NamedDataset::Stock360,
        "uniform8d" => NamedDataset::Uniform8d,
        other => {
            return Err(format!(
                "unknown dataset `{other}` (expected color64, texture48, texture60, \
                 isolet617, stock360 or uniform8d)"
            ))
        }
    };
    if !(scale > 0.0 && scale <= 1.0) {
        return Err("--scale must lie in (0, 1]".to_string());
    }
    let data = named
        .spec_scaled(scale)
        .generate()
        .map_err(|e| e.to_string())?;
    csvio::write_csv(out, &data).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {} ({} x {}) to {}\n",
        named.name(),
        data.len(),
        data.dim(),
        out.display()
    ))
}

/// Describes a registry predictor with the parameters that matter for it.
fn describe(name: &str, cfg: &PredictorConfig) -> String {
    match name {
        "basic" => format!("basic (zeta = {:.4})", cfg.zeta),
        "cutoff" | "resampled" => format!("{name} (h_upper = {})", cfg.h_upper),
        other => other.to_string(),
    }
}

/// Builds the shared predictor configuration from CLI options, resolving
/// the upper-tree height only when `name` actually needs one.
fn resolve_config(
    name: &str,
    run: &RunArgs,
    dataset: &Dataset,
    topo: &Topology,
    h_upper: Option<usize>,
    zeta: Option<f64>,
) -> Result<PredictorConfig, String> {
    let needs_h = matches!(name, "cutoff" | "resampled");
    let h = match (h_upper, needs_h) {
        (Some(h), _) => h,
        (None, true) => hupper::recommended_h_upper(topo, run.m).map_err(|e| e.to_string())?,
        (None, false) => PredictorConfig::default().h_upper,
    };
    Ok(PredictorConfig {
        m: run.m,
        h_upper: h,
        seed: run.seed,
        zeta: zeta.unwrap_or((run.m as f64 / dataset.len() as f64).min(1.0)),
        knn_k: run.k,
        faults: run.faults,
        ..PredictorConfig::default()
    })
}

fn predict(
    run: &RunArgs,
    predictor: &str,
    h_upper: Option<usize>,
    zeta: Option<f64>,
) -> Result<String, String> {
    let (dataset, topo, workload) = load_run(run)?;
    let disk = DiskModel::paper_with_page_bytes(run.page_bytes);
    let cfg = resolve_config(predictor, run, &dataset, &topo, h_upper, zeta)?;
    let model =
        by_name(predictor, &cfg).ok_or_else(|| format!("unknown predictor `{predictor}`"))?;
    let prediction = model
        .predict(&dataset, &topo, &balls(&workload))
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "predictor: {}", describe(predictor, &cfg));
    let _ = writeln!(
        out,
        "predicted leaf accesses per {}-NN query: {:.1} (of {} pages)",
        run.k,
        prediction.avg_leaf_accesses(),
        topo.leaf_pages()
    );
    let _ = writeln!(
        out,
        "prediction I/O: {} = {:.3} s under the paper's disk model",
        prediction.io,
        disk.cost_seconds(prediction.io)
    );
    if run.faults.is_some() {
        let d = &prediction.degraded;
        let _ = writeln!(
            out,
            "fault degradation: {} units on fallback, {:.1}% coverage, \
             {} retries, +{:.3} s backoff",
            d.leaves_degraded,
            100.0 * d.coverage_fraction,
            prediction.io.retries,
            prediction.io.backoff as f64 * disk.t_seek_s
        );
    }
    Ok(out)
}

fn measure(run: &RunArgs, store: &StoreSpec) -> Result<String, String> {
    let (dataset, topo, workload) = load_run(run)?;
    let centers = centers(&workload);
    let cfg = external_config(run)?;
    let disk = DiskModel::paper_with_page_bytes(run.page_bytes);
    let measured =
        measure_on_disk(&dataset, &topo, &centers, run.k, &cfg).map_err(|e| e.to_string())?;
    let backend_report = match store {
        StoreSpec::Sim => None,
        StoreSpec::File { dir } => {
            let (_, _, _, report) = persist_and_reopen(dir, &measured.tree, &disk)?;
            Some(report)
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "measured leaf accesses per {}-NN query: {:.1} (of {} pages)",
        run.k,
        measured.avg_leaf_accesses(),
        topo.leaf_pages()
    );
    let _ = writeln!(out, "build I/O:  {}", measured.build_io);
    let _ = writeln!(out, "query I/O:  {}", measured.query_io);
    let _ = writeln!(
        out,
        "total: {:.3} s under the paper's disk model",
        disk.cost_seconds(measured.total_io())
    );
    let _ = writeln!(out, "simd: {}", hdidx_core::simd::describe());
    if run.faults.is_some() {
        let _ = writeln!(
            out,
            "injected faults: {} ({} retried)",
            measured.fault_trace.len(),
            measured.total_io().retries
        );
    }
    if let Some(report) = backend_report {
        out.push_str(&report);
    }
    Ok(out)
}

fn serve(
    run: &RunArgs,
    store: &StoreSpec,
    load: &LoadGen,
    mix: &MixSpec,
    serving: &ServeConfig,
    only: Option<QueryClass>,
) -> Result<String, String> {
    let (dataset, topo, workload) = load_run(run)?;
    let (server, backend_report) = match store {
        StoreSpec::Sim => (
            Server::build(&dataset, &topo, run.m, run.seed, run.faults)
                .map_err(|e| e.to_string())?,
            None,
        ),
        StoreSpec::File { dir } => {
            let built = build_on_disk(&dataset, &topo, &external_config(run)?)
                .map_err(|e| e.to_string())?;
            let (loaded, reopen_io, scrub_report, report) =
                persist_and_reopen(dir, &built.tree, &serving.disk)?;
            let server = Server::from_tree(
                &dataset,
                &topo,
                loaded,
                run.m,
                run.seed,
                run.faults,
                built.io + reopen_io,
                Some(&scrub_report),
            )
            .map_err(|e| e.to_string())?;
            (server, Some(report))
        }
    };
    let mut requests = load
        .requests(&balls(&workload), mix, run.k)
        .map_err(|e| e.to_string())?;
    // --only physically drops the other classes from the offered stream;
    // surviving requests keep their arrival ids (and so their fault
    // streams), making the filtered run comparable against a laned one.
    if let Some(class) = only {
        requests.retain(|r| QueryClass::of(&r.query) == class);
    }
    let report = server
        .run(&requests, serving, &hdidx_pool::Pool::current())
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serving {} requests ({} arrivals at {} req/s for {} s, mix {mix})",
        report.total,
        load.model.as_str(),
        load.rate_per_s,
        load.duration_s,
    );
    let _ = writeln!(
        out,
        "executed: {} | shed: {} ({:.1}%) | failed: {}",
        report.executed,
        report.shed,
        100.0 * report.shed_fraction,
        report.failed
    );
    match report.summary {
        Some(s) => {
            let _ = writeln!(
                out,
                "latency p50/p95/p99/max: {:.4} / {:.4} / {:.4} / {:.4} s (mean {:.4} s)",
                s.p50_s, s.p95_s, s.p99_s, s.max_s, s.mean_s
            );
        }
        None => {
            let _ = writeln!(out, "latency: no requests executed");
        }
    }
    let _ = writeln!(
        out,
        "query I/O: {} | charged backoff: {:.4} s | makespan: {:.3} s",
        report.io, report.backoff_s, report.makespan_s
    );
    let _ = writeln!(out, "simd: {}", report.isa);
    let _ = writeln!(out, "latency digest: {:016x}", report.digest);
    for cs in &report.by_class {
        let tail = match cs.summary {
            Some(s) => format!("p50={:.4} p99={:.4}", s.p50_s, s.p99_s),
            None => "p50=n/a p99=n/a".to_string(),
        };
        let _ = writeln!(
            out,
            "class {:<7} n={} shed={} failed={} {tail} digest={:016x}",
            cs.class, cs.executed, cs.shed, cs.failed, cs.digest
        );
    }
    if let Some(b) = report.breaker {
        let _ = writeln!(
            out,
            "breaker: trips={} fast-fails={} state={} digest={:016x}",
            b.trips,
            b.fast_fails,
            b.state.as_str(),
            b.digest
        );
    }
    if let Some(report) = backend_report {
        out.push_str(&report);
    }
    Ok(out)
}

fn compare(run: &RunArgs) -> Result<String, String> {
    let (dataset, topo, workload) = load_run(run)?;
    let balls = balls(&workload);
    let measured = measure_on_disk(
        &dataset,
        &topo,
        &centers(&workload),
        run.k,
        &external_config(run)?,
    )
    .map_err(|e| e.to_string())?;
    let truth = measured.avg_leaf_accesses();
    let disk = DiskModel::paper_with_page_bytes(run.page_bytes);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "measured (on-disk build + probe): {truth:.1} leaf accesses/query, \
         {:.3} s total I/O",
        disk.cost_seconds(measured.total_io())
    );
    let mut line = |name: &str, result: Result<Prediction, String>| match result {
        Ok(p) => {
            let degraded = if p.degraded.is_degraded() {
                format!(
                    "  [degraded: {} units, {:.1}% coverage, {} retries, +{:.3} s backoff]",
                    p.degraded.leaves_degraded,
                    100.0 * p.degraded.coverage_fraction,
                    p.io.retries,
                    p.io.backoff as f64 * disk.t_seek_s
                )
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "  {name:<22} {:>8.1} acc/query  {:>+7.1}% error  {:>9.3} s I/O{degraded}",
                p.avg_leaf_accesses(),
                100.0 * p.relative_error(truth),
                disk.cost_seconds(p.io)
            );
        }
        Err(e) => {
            let _ = writeln!(out, "  {name:<22} n/a ({e})");
        }
    };
    for &name in PREDICTOR_NAMES {
        let result = resolve_config(name, run, &dataset, &topo, None, None).and_then(|cfg| {
            by_name(name, &cfg)
                .expect("registry covers every PREDICTOR_NAMES entry")
                .predict(&dataset, &topo, &balls)
                .map(|p| (p, cfg))
                .map_err(|e| e.to_string())
        });
        match result {
            Ok((p, cfg)) => line(&describe(name, &cfg), Ok(p)),
            Err(e) => line(name, Err(e)),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {

    fn run(cmdline: &str) -> Result<String, String> {
        let argv: Vec<String> = cmdline.split_whitespace().map(str::to_string).collect();
        crate::run(&argv)
    }

    fn run_with_status(cmdline: &str) -> Result<(String, i32), String> {
        let argv: Vec<String> = cmdline.split_whitespace().map(str::to_string).collect();
        crate::run_with_status(&argv)
    }

    fn temp_csv(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("hdidx_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn generate_info_predict_measure_pipeline() {
        let csv = temp_csv("t48.csv");
        let out = run(&format!(
            "generate --dataset texture48 --scale 0.2 --out {}",
            csv.display()
        ))
        .unwrap();
        assert!(out.contains("TEXTURE48"), "{out}");

        let out = run(&format!("info --data {}", csv.display())).unwrap();
        assert!(out.contains("tree height"), "{out}");
        assert!(out.contains("leaf pages"), "{out}");

        let out = run(&format!(
            "predict --data {} --m 200 --queries 10 --k 5 --seed 1",
            csv.display()
        ))
        .unwrap();
        assert!(out.contains("resampled"), "{out}");
        assert!(out.contains("predicted leaf accesses"), "{out}");

        let out = run(&format!(
            "predict --data {} --m 200 --predictor basic --zeta 0.5 --queries 10 --k 5",
            csv.display()
        ))
        .unwrap();
        assert!(out.contains("basic (zeta = 0.5000)"), "{out}");

        let out = run(&format!(
            "predict --data {} --m 200 --predictor uniform --queries 10 --k 5 --threads 2",
            csv.display()
        ))
        .unwrap();
        assert!(out.contains("predictor: uniform"), "{out}");

        let out = run(&format!(
            "measure --data {} --m 200 --queries 10 --k 5",
            csv.display()
        ))
        .unwrap();
        assert!(out.contains("measured leaf accesses"), "{out}");

        let out = run(&format!(
            "compare --data {} --m 200 --queries 10 --k 5",
            csv.display()
        ))
        .unwrap();
        assert!(out.contains("basic"), "{out}");
        assert!(out.contains("resampled"), "{out}");
        assert!(out.contains("uniform"), "{out}");
        assert!(out.contains("fractal"), "{out}");
        assert!(out.contains("% error"), "{out}");
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn fault_flags_surface_degradation_and_retries() {
        let csv = temp_csv("faulted.csv");
        run(&format!(
            "generate --dataset texture48 --scale 0.2 --out {}",
            csv.display()
        ))
        .unwrap();
        let out = run(&format!(
            "predict --data {} --m 200 --queries 10 --k 5 --fault-seed 3 --fault-ppm 20000",
            csv.display()
        ))
        .unwrap();
        assert!(out.contains("fault degradation:"), "{out}");
        assert!(out.contains("% coverage"), "{out}");
        let out = run(&format!(
            "measure --data {} --m 200 --queries 10 --k 5 --fault-seed 3 --fault-ppm 20000",
            csv.display()
        ))
        .unwrap();
        assert!(out.contains("injected faults:"), "{out}");
        // Without fault flags the lines stay absent.
        let out = run(&format!(
            "predict --data {} --m 200 --queries 10 --k 5",
            csv.display()
        ))
        .unwrap();
        assert!(!out.contains("fault degradation"), "{out}");
        let out = run(&format!(
            "measure --data {} --m 200 --queries 10 --k 5",
            csv.display()
        ))
        .unwrap();
        assert!(!out.contains("injected faults"), "{out}");
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn faulted_runs_succeed_and_serve_is_thread_invariant() {
        // Low-pressure chaos at the default 2000 ppm under two seeds, and a
        // burst-heavy case absorbed by exponential backoff: every run
        // command must succeed, and serve must reproduce byte for byte at
        // any thread count.
        let csv = temp_csv("faulted_table.csv");
        run(&format!(
            "generate --dataset texture48 --scale 0.2 --out {}",
            csv.display()
        ))
        .unwrap();
        let cases = [
            "--fault-seed 1",
            "--fault-seed 20250807",
            "--fault-seed 7 --fault-burst-ppm 50000 --retry-policy exponential",
        ];
        for faults in cases {
            let out = run(&format!(
                "predict --data {} --m 200 --queries 10 --k 5 {faults}",
                csv.display()
            ))
            .unwrap_or_else(|e| panic!("predict {faults}: {e}"));
            assert!(out.contains("fault degradation:"), "{faults}: {out}");
            let out = run(&format!(
                "measure --data {} --m 200 --queries 10 --k 5 {faults}",
                csv.display()
            ))
            .unwrap_or_else(|e| panic!("measure {faults}: {e}"));
            assert!(out.contains("injected faults:"), "{faults}: {out}");
            let out = run(&format!(
                "compare --data {} --m 200 --queries 10 --k 5 {faults}",
                csv.display()
            ))
            .unwrap_or_else(|e| panic!("compare {faults}: {e}"));
            assert!(out.contains("measured"), "{faults}: {out}");
            let serve = |threads: usize| {
                run(&format!(
                    "serve --data {} --m 200 --smoke --seed 5 {faults} --threads {threads}",
                    csv.display()
                ))
                .unwrap_or_else(|e| panic!("serve {faults} --threads {threads}: {e}"))
            };
            let out1 = serve(1);
            assert!(out1.contains("latency digest:"), "{faults}: {out1}");
            assert_eq!(out1, serve(2), "{faults}: 1 vs 2 threads");
            assert_eq!(out1, serve(8), "{faults}: 1 vs 8 threads");
        }
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn phase_scale_makes_degraded_compare_rows_reachable() {
        // At a uniform rate the measurement leg (thousands of accesses,
        // no degradation fallback) always hard-fails before any predictor
        // degrades. Steering the pressure onto the predict phase is what
        // makes a degraded row observable in a successful report.
        let csv = temp_csv("phase_scale.csv");
        run(&format!(
            "generate --dataset texture48 --scale 0.2 --out {}",
            csv.display()
        ))
        .unwrap();
        let out = run(&format!(
            "compare --data {} --m 200 --queries 10 --k 5 --fault-seed 3 --fault-ppm 150000 \
             --fault-phase-scale build:5,query:5,predict:300 --retry-policy exponential",
            csv.display()
        ))
        .unwrap();
        assert!(out.contains("measured"), "{out}");
        assert!(out.contains("[degraded:"), "{out}");
        assert!(out.contains("retries"), "{out}");
        assert!(out.contains("backoff"), "{out}");
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn serve_reports_latency_and_identical_digest_across_threads() {
        let csv = temp_csv("serve.csv");
        run(&format!(
            "generate --dataset texture48 --scale 0.2 --out {}",
            csv.display()
        ))
        .unwrap();
        let digest_of = |out: &str| {
            out.lines()
                .find_map(|l| l.strip_prefix("latency digest: "))
                .map(str::to_string)
                .unwrap_or_else(|| panic!("no digest line in: {out}"))
        };
        let base = format!(
            "serve --data {} --m 200 --smoke --seed 5 --arrivals bursty",
            csv.display()
        );
        let out1 = run(&format!("{base} --threads 1")).unwrap();
        assert!(out1.contains("latency p50/p95/p99/max:"), "{out1}");
        assert!(out1.contains("executed:"), "{out1}");
        // Byte-identical latency samples at 1, 2, and 8 threads: the
        // digest (and with it every percentile) must not move.
        let out2 = run(&format!("{base} --threads 2")).unwrap();
        let out8 = run(&format!("{base} --threads 8")).unwrap();
        assert_eq!(digest_of(&out1), digest_of(&out2));
        assert_eq!(digest_of(&out1), digest_of(&out8));
        assert_eq!(out1, out2);
        assert_eq!(out1, out8);
        // A different load seed moves the digest.
        let other = run(&format!(
            "serve --data {} --m 200 --smoke --seed 6 --arrivals bursty --threads 2",
            csv.display()
        ))
        .unwrap();
        assert_ne!(digest_of(&out1), digest_of(&other));
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn serve_under_faults_sheds_and_stays_deterministic() {
        let csv = temp_csv("serve_faults.csv");
        run(&format!(
            "generate --dataset texture48 --scale 0.2 --out {}",
            csv.display()
        ))
        .unwrap();
        let cmd = format!(
            "serve --data {} --m 200 --smoke --seed 5 --fault-seed 3 --fault-ppm 300000 \
             --retry-policy exponential --fault-phase-scale build:0 \
             --lanes 2 --threads 2",
            csv.display()
        );
        let a = run(&cmd).unwrap();
        let b = run(&cmd).unwrap();
        assert_eq!(a, b, "faulted serving must reproduce byte for byte");
        assert!(a.contains("shed:"), "{a}");
        let shed_pct: f64 = a
            .lines()
            .find(|l| l.starts_with("executed:"))
            .and_then(|l| l.split('(').nth(1))
            .and_then(|s| s.split('%').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no shed percentage in: {a}"));
        assert!(
            shed_pct > 0.0,
            "a 2 s lane budget must shed under faults: {a}"
        );
        assert!(a.contains("charged backoff:"), "{a}");
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn file_backend_round_trips_and_matches_the_sim_charging() {
        let csv = temp_csv("file_backend.csv");
        run(&format!(
            "generate --dataset texture48 --scale 0.2 --out {}",
            csv.display()
        ))
        .unwrap();
        let store = std::env::temp_dir().join(format!("hdidx_cli_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store);

        // The measurement body is byte-identical across backends (both
        // build and measure on the simulated disk); the file backend
        // appends its persist/reopen report after it.
        let sim = run(&format!(
            "measure --data {} --m 200 --queries 10 --k 5 --seed 2",
            csv.display()
        ))
        .unwrap();
        let file = run(&format!(
            "measure --data {} --m 200 --queries 10 --k 5 --seed 2 \
             --backend file --store {}",
            csv.display(),
            store.display()
        ))
        .unwrap();
        assert!(file.starts_with(&sim), "sim:\n{sim}\nfile:\n{file}");
        assert!(file.contains("backend: file"), "{file}");
        assert!(file.contains("persist:"), "{file}");
        assert!(file.contains("reopen: verified identical"), "{file}");
        // The snapshot outlives the run: a committed CURRENT pointer and
        // the generation it names.
        assert!(store.join("index").join("CURRENT").exists());
        assert!(store
            .join("index")
            .join("gen-00000001")
            .join("pages.db")
            .exists());

        // Fault traces ride through the file backend unchanged too.
        let sim = run(&format!(
            "measure --data {} --m 200 --queries 10 --k 5 --fault-seed 3 --fault-ppm 20000",
            csv.display()
        ))
        .unwrap();
        let file = run(&format!(
            "measure --data {} --m 200 --queries 10 --k 5 --fault-seed 3 --fault-ppm 20000 \
             --backend file --store {}",
            csv.display(),
            store.display()
        ))
        .unwrap();
        assert!(file.starts_with(&sim), "sim:\n{sim}\nfile:\n{file}");
        assert!(file.contains("injected faults:"), "{file}");

        // Serving from the reopened snapshot answers identically to the
        // sim-built server: same digest, same latency lines.
        let base = format!(
            "serve --data {} --m 200 --smoke --seed 5 --threads 2",
            csv.display()
        );
        let sim = run(&base).unwrap();
        let file = run(&format!(
            "{base} --backend file --store {}",
            store.display()
        ))
        .unwrap();
        assert!(file.starts_with(&sim), "sim:\n{sim}\nfile:\n{file}");

        // Repeat builds publish fresh generations; only the newest two
        // survive GC.
        let gens: Vec<String> = std::fs::read_dir(store.join("index"))
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().into_string().ok())
            .filter(|n| n.starts_with("gen-"))
            .collect();
        assert_eq!(gens.len(), 2, "GC keeps two generations: {gens:?}");
        // The build bills on the simulated disk: nothing but the snapshot
        // set lands under the store.
        assert!(!store.join("scratch").exists());

        // The scrub subcommand reports the store clean and names the
        // serving generation.
        let out = run(&format!("scrub --store {}", store.display())).unwrap();
        assert!(out.contains("scrub:"), "{out}");
        assert!(out.contains("0 corrupt"), "{out}");
        assert!(out.contains("serving generation 3"), "{out}");

        std::fs::remove_dir_all(&store).ok();
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn scrub_falls_back_to_the_previous_generation_when_the_newest_corrupts() {
        let csv = temp_csv("scrub_cli.csv");
        run(&format!(
            "generate --dataset texture48 --scale 0.2 --out {}",
            csv.display()
        ))
        .unwrap();
        let store = std::env::temp_dir().join(format!("hdidx_cli_scrub_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store);
        // Two builds publish generations 1 and 2; GC retains both.
        for _ in 0..2 {
            run(&format!(
                "measure --data {} --m 200 --queries 10 --k 5 --seed 2 \
                 --backend file --store {}",
                csv.display(),
                store.display()
            ))
            .unwrap();
        }

        let scrub = || run_with_status(&format!("scrub --store {}", store.display()));
        let (out, code) = scrub().unwrap();
        assert_eq!(code, 0, "a clean store must exit 0: {out}");

        // Corrupt the committed generation's superblock: the scrub can
        // only quarantine it.
        let superblock = |generation: u32| {
            let pages = store
                .join("index")
                .join(format!("gen-{generation:08}"))
                .join("pages.db");
            let mut bytes = std::fs::read(&pages).unwrap();
            bytes[40] ^= 0xEE;
            std::fs::write(&pages, &bytes).unwrap();
        };
        superblock(2);

        // The scrub quarantines the page, finds generation 2 unloadable,
        // and demotes CURRENT to the retained generation 1: exit 3.
        let (out, code) = scrub().unwrap();
        assert_eq!(code, 3, "a fallback must exit 3: {out}");
        assert!(out.contains("fell back"), "{out}");
        assert!(out.contains("serving generation 1"), "{out}");
        // The served generation scrubbed clean; the quarantined page sits
        // in the abandoned one, and the report says so.
        assert!(
            out.contains("0 corrupt (0 quarantined) [generation 1, fell back; generation 2 abandoned: 1 corrupt (1 quarantined)]"),
            "{out}"
        );
        // A second scrub is clean and stays on generation 1.
        let (out, code) = scrub().unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("0 corrupt"), "{out}");
        assert!(out.contains("serving generation 1"), "{out}");

        // With no committed generation left to load, the scrub is a hard
        // error (exit 1).
        superblock(1);
        assert!(scrub().is_err());

        // A missing store is an error, not a panic.
        let gone = store.join("definitely_absent");
        assert!(run(&format!("scrub --store {}", gone.display())).is_err());

        // Non-scrub commands report status 0 through the same path.
        let (_, code) = run_with_status("help").unwrap();
        assert_eq!(code, 0);

        std::fs::remove_dir_all(&store).ok();
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn serve_overload_flags_report_and_lanes_match_a_filtered_stream() {
        let csv = temp_csv("serve_overload.csv");
        run(&format!(
            "generate --dataset texture48 --scale 0.2 --out {}",
            csv.display()
        ))
        .unwrap();
        // Full policy engaged: per-class rows and a breaker line must
        // both render.
        let out = run(&format!(
            "serve --data {} --m 200 --smoke --seed 5 --arrivals bursty \
             --lanes range:inf,knn:0.5,predict:0.5 \
             --breaker 4:0.5:1 --threads 2",
            csv.display()
        ))
        .unwrap();
        assert!(out.contains("class range"), "{out}");
        assert!(out.contains("class knn"), "{out}");
        assert!(out.contains("class predict"), "{out}");
        assert!(out.contains("breaker: trips="), "{out}");

        // Closed lanes for knn/predict admit exactly the range requests
        // with their original arrival ids, so the protected class's row —
        // digest included — matches a stream that never offered the other
        // classes (--only range).
        let class_line = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("class range"))
                .map(str::to_string)
                .unwrap_or_else(|| panic!("no range row in: {out}"))
        };
        let laned = run(&format!(
            "serve --data {} --m 200 --smoke --seed 5 --arrivals bursty \
             --lanes knn:0,predict:0 --threads 2",
            csv.display()
        ))
        .unwrap();
        let only = run(&format!(
            "serve --data {} --m 200 --smoke --seed 5 --arrivals bursty \
             --only range --threads 2",
            csv.display()
        ))
        .unwrap();
        assert_eq!(
            class_line(&laned),
            class_line(&only),
            "laned:\n{laned}\nonly:\n{only}"
        );
        std::fs::remove_file(&csv).ok();
    }

    #[test]
    fn help_and_errors() {
        assert!(run("help").unwrap().contains("USAGE"));
        assert!(run("generate --dataset bogus --out /tmp/x.csv")
            .unwrap_err()
            .contains("unknown dataset"));
        assert!(run("predict --data /nonexistent.csv --m 10")
            .unwrap_err()
            .contains("cannot open"));
        let csv = temp_csv("scale.csv");
        assert!(run(&format!(
            "generate --dataset uniform8d --scale 2.0 --out {}",
            csv.display()
        ))
        .unwrap_err()
        .contains("--scale"));
    }
}
