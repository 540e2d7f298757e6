//! **Persistence round trip**: build the COLOR64 index on the simulated
//! disk, persist the tree to a checksummed file-backed snapshot, reopen it
//! after a simulated process death, and serve the same request stream
//! from the loaded tree.
//!
//! The row compares the **charged-model seconds** (the paper's disk
//! bill, charged by the model disk the file store embeds) with the
//! **wall-clock seconds** the real files took — every page written once,
//! one fsync of the page file and its directory — separating the
//! analytical cost model from the I/O actually paid. The serve digest of
//! the reopened server must equal the sim-built baseline's — persistence
//! is not allowed to change a single answer.
//!
//! The row is printed to stdout **and** written to `BENCH_persist.json` in
//! `HDIDX_BENCH_OUT` (default: current directory). `--smoke` shrinks the
//! stream for CI.

use hdidx_bench::{ExpArgs, ExperimentContext};
use hdidx_datagen::registry::NamedDataset;
use hdidx_diskio::external::{build_on_disk, ExternalConfig};
use hdidx_diskio::{DiskModel, DiskOptions};
use hdidx_pool::Pool;
use hdidx_serve::{ArrivalModel, LoadGen, MixSpec, ServeConfig, Server};
use hdidx_store::{load_index, persist_index, FileStore, PAGE_BYTES};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// The measured round trip.
struct Row {
    pages: u64,
    snapshot_bytes: u64,
    build_wall_s: f64,
    build_charged_s: f64,
    persist_wall_s: f64,
    persist_charged_s: f64,
    reopen_wall_s: f64,
    reopen_charged_s: f64,
    digest: u64,
    matches_sim: bool,
}

impl Row {
    fn json(&self) -> String {
        format!(
            "{{\"pages\":{},\"snapshot_bytes\":{},\
             \"build_wall_s\":{:.6},\"build_charged_s\":{:.6},\
             \"persist_wall_s\":{:.6},\"persist_charged_s\":{:.6},\
             \"reopen_wall_s\":{:.6},\"reopen_charged_s\":{:.6},\
             \"digest\":\"{:016x}\",\"matches_sim\":{}}}",
            self.pages,
            self.snapshot_bytes,
            self.build_wall_s,
            self.build_charged_s,
            self.persist_wall_s,
            self.persist_charged_s,
            self.reopen_wall_s,
            self.reopen_charged_s,
            self.digest,
            self.matches_sim,
        )
    }
}

fn main() {
    let mut args = ExpArgs::parse(0.25, 120);
    args.banner("Persistence round trip: charged vs wall seconds (COLOR64)");
    if args.smoke {
        args.queries = args.queries.min(24);
        args.k = args.k.min(9);
    }
    let ctx = ExperimentContext::prepare(NamedDataset::Color64, &args).expect("prepare");
    let disk = DiskModel::paper_with_page_bytes(NamedDataset::Color64.page_bytes());
    let m = ((ctx.data.len() as f64 * 0.0363) as usize).max(ctx.topo.cap_data() * 4);
    println!(
        "dataset: {} ({} x {}), m = {m}",
        ctx.name,
        ctx.data.len(),
        ctx.data.dim()
    );

    // The request stream every server answers, and the sim-built baseline
    // digest the reopened servers must reproduce.
    let gen = LoadGen {
        rate_per_s: if args.smoke { 120.0 } else { 24.0 },
        duration_s: if args.smoke { 1.0 } else { 10.0 },
        model: ArrivalModel::Bursty,
        seed: args.seed,
    };
    let mix = MixSpec::default();
    let requests = gen
        .requests(&ctx.balls, &mix, args.k)
        .expect("request stream");
    let serve_cfg = ServeConfig {
        concurrency: 4,
        batch: 8,
        disk,
        ..ServeConfig::new()
    };
    let pool = Pool::current();
    let baseline = Server::build(&ctx.data, &ctx.topo, m, args.seed, None)
        .expect("sim build")
        .run(&requests, &serve_cfg, &pool)
        .expect("sim serve");
    println!(
        "stream: {} requests | sim baseline digest {:016x}\n",
        requests.len(),
        baseline.digest
    );

    let index = std::env::temp_dir().join(format!("hdidx_persist_rt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&index);
    let cfg = ExternalConfig::with_mem_points(m).expect("memory budget");

    // Build on the simulated disk that bills it.
    let clock = Instant::now();
    let built = build_on_disk(&ctx.data, &ctx.topo, &cfg).expect("build");
    let build_wall_s = clock.elapsed().as_secs_f64();

    // Persist: every page written once, then one fsync.
    let clock = Instant::now();
    let mut snap = FileStore::open(&index, &DiskOptions::new()).expect("open snap");
    persist_index(&mut snap, &built.tree).expect("persist");
    let persist_wall_s = clock.elapsed().as_secs_f64();
    let persist_io = snap.stats();
    let pages = snap.pages();
    drop(snap); // process death; the snapshot must be on the platter

    // Reopen, load, re-serve.
    let clock = Instant::now();
    let mut snap = FileStore::open(&index, &DiskOptions::new()).expect("reopen");
    let (tree, _) = load_index(&mut snap).expect("load");
    let reopen_wall_s = clock.elapsed().as_secs_f64();
    let reopen_io = snap.stats();
    assert_eq!(tree, built.tree, "snapshot must load back identical");
    let server = Server::from_tree(
        &ctx.data,
        &ctx.topo,
        tree,
        m,
        args.seed,
        None,
        built.io + reopen_io,
        None,
    )
    .expect("server from snapshot");
    let report = server.run(&requests, &serve_cfg, &pool).expect("re-serve");

    let snapshot_bytes = std::fs::metadata(index.join("pages.db"))
        .map(|md| md.len())
        .unwrap_or(0);
    assert_eq!(snapshot_bytes, pages * PAGE_BYTES as u64);
    let _ = std::fs::remove_dir_all(&index);
    let row = Row {
        pages,
        snapshot_bytes,
        build_wall_s,
        build_charged_s: disk.cost_seconds(built.io),
        persist_wall_s,
        persist_charged_s: disk.cost_seconds(persist_io),
        reopen_wall_s,
        reopen_charged_s: disk.cost_seconds(reopen_io),
        digest: report.digest,
        matches_sim: report.digest == baseline.digest,
    };

    let json = row.json();
    println!("{json}");
    let dir = std::env::var("HDIDX_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
    let path = Path::new(&dir).join("BENCH_persist.json");
    let mut f = std::fs::File::create(&path).expect("create BENCH_persist.json");
    writeln!(f, "{json}").expect("write BENCH_persist.json");
    println!("\nwrote 1 row to {}", path.display());

    assert!(row.matches_sim, "reopened digest diverged");
    println!(
        "persist charged {:.3} s vs wall {:.3} s | reopen charged {:.3} s vs wall {:.3} s",
        row.persist_charged_s, row.persist_wall_s, row.reopen_charged_s, row.reopen_wall_s
    );
}
