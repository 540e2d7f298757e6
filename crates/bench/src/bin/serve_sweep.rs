//! **Serving sweep**: tail latency across (concurrency × batch) cells of
//! the open-loop serving subsystem, plus one faulted cell shedding through
//! admission lanes.
//!
//! Every cell serves the same deterministic request stream (COLOR64
//! workload, bursty arrivals) through `hdidx-serve` and emits one
//! JSON-lines row with exact nearest-rank p50/p95/p99/max latency, I/O
//! cost, shed fraction, and the latency-stream digest. The clean cells
//! show queueing collapse easing as slots are added; the faulted cell
//! shows one lane budget for every class trading shed load for a bounded
//! tail under heavy fault-retry backoff (charged backoff inflates the
//! shadow-priced queue delays the lanes decide on). The sweep asserts the
//! bound: the faulted cell's p99 must beat the same faulted stream served
//! with no policy.
//!
//! Rows are printed to stdout **and** written to `BENCH_serve.json` in
//! `HDIDX_BENCH_OUT` (default: current directory) so the artifact can be
//! committed and tracked across PRs. `--smoke` shrinks the stream for CI.

use hdidx_bench::{ExpArgs, ExperimentContext};
use hdidx_datagen::registry::NamedDataset;
use hdidx_diskio::DiskModel;
use hdidx_faults::{FaultConfig, FaultPhase, RetryPolicy};
use hdidx_model::hupper;
use hdidx_pool::Pool;
use hdidx_serve::{
    ArrivalModel, LanePolicy, LoadGen, MixSpec, OverloadPolicy, QueryClass, ServeConfig,
    ServeReport, Server,
};
use std::io::Write as _;

/// One emitted sweep cell.
struct Row {
    concurrency: usize,
    batch: usize,
    fault_ppm: u32,
    /// One lane budget for every class (`None` = no lanes; the field is
    /// then left out of the row).
    lane_budget_s: Option<f64>,
    report: ServeReport,
}

impl Row {
    fn json(&self, gen: &LoadGen, mix: &MixSpec) -> String {
        let s = self
            .report
            .summary
            .expect("every sweep cell executes requests");
        let lanes = self
            .lane_budget_s
            .map_or(String::new(), |b| format!(",\"lane_budget_s\":{b}"));
        format!(
            "{{\"concurrency\":{},\"batch\":{},\"fault_ppm\":{}{lanes},\"arrivals\":\"{}\",\
             \"rate_per_s\":{},\"duration_s\":{},\"mix\":\"{mix}\",\"requests\":{},\
             \"executed\":{},\"shed_fraction\":{:.6},\"failed\":{},\
             \"p50_s\":{:.6},\"p95_s\":{:.6},\"p99_s\":{:.6},\"max_s\":{:.6},\"mean_s\":{:.6},\
             \"io_seeks\":{},\"io_transfers\":{},\"io_retries\":{},\"backoff_s\":{:.6},\
             \"makespan_s\":{:.6},\"digest\":\"{:016x}\"}}",
            self.concurrency,
            self.batch,
            self.fault_ppm,
            gen.model.as_str(),
            gen.rate_per_s,
            gen.duration_s,
            self.report.total,
            self.report.executed,
            self.report.shed_fraction,
            self.report.failed,
            s.p50_s,
            s.p95_s,
            s.p99_s,
            s.max_s,
            s.mean_s,
            self.report.io.seeks,
            self.report.io.transfers,
            self.report.io.retries,
            self.report.backoff_s,
            self.report.makespan_s,
            self.report.digest,
        )
    }
}

fn main() {
    let mut args = ExpArgs::parse(0.25, 120);
    args.banner("Serving sweep: tail latency vs concurrency x batch (COLOR64)");
    if args.smoke {
        args.queries = args.queries.min(24);
        args.k = args.k.min(9);
    }
    // Open-loop stream shared by every cell: bursty arrivals stress the
    // tail harder than Poisson at the same mean rate. The rate sits near
    // the 8-slot capacity under the paper disk model (~4 req/s per slot),
    // so the smallest cell is overloaded and the largest is just keeping
    // up — the sweep spans the queueing collapse.
    let gen = LoadGen {
        rate_per_s: if args.smoke { 120.0 } else { 24.0 },
        duration_s: if args.smoke { 1.0 } else { 20.0 },
        model: ArrivalModel::Bursty,
        seed: args.seed,
    };
    let mix = MixSpec::default();
    let ctx = ExperimentContext::prepare(NamedDataset::Color64, &args).expect("prepare");
    let disk = DiskModel::paper_with_page_bytes(NamedDataset::Color64.page_bytes());
    // Same memory-budget formula as the fault sweep: the paper's budget
    // scaled to this cardinality, floored to keep upper-tree fanout.
    let m = ((ctx.data.len() as f64 * 0.0363) as usize).max(ctx.topo.cap_data() * 4);
    let h_upper = hupper::recommended_h_upper(&ctx.topo, m).expect("h_upper");
    println!(
        "dataset: {} ({} x {}), m = {m}, h_upper = {h_upper}",
        ctx.name,
        ctx.data.len(),
        ctx.data.dim()
    );
    let requests = gen
        .requests(&ctx.balls, &mix, args.k)
        .expect("request stream");
    println!(
        "stream: {} requests, {} req/s {} for {} s\n",
        requests.len(),
        gen.rate_per_s,
        gen.model.as_str(),
        gen.duration_s
    );
    let pool = Pool::current();

    let mut rows: Vec<Row> = Vec::new();
    // Clean cells: one server, sweep the queueing knobs.
    let server = Server::build(&ctx.data, &ctx.topo, m, args.seed, None).expect("build");
    for &(concurrency, batch) in &[(1usize, 1usize), (2, 4), (4, 8), (8, 16)] {
        let cfg = ServeConfig {
            concurrency,
            batch,
            disk,
            ..ServeConfig::new()
        };
        let report = server.run(&requests, &cfg, &pool).expect("serve");
        rows.push(Row {
            concurrency,
            batch,
            fault_ppm: 0,
            lane_budget_s: None,
            report,
        });
    }
    // Faulted cell: heavy transient faults with exponential backoff, build
    // phase silenced so only serving degrades, and one lane budget for
    // every class, tight enough that the lanes must shed.
    let fault_ppm = 400_000;
    let fcfg = FaultConfig::disabled(args.seed)
        .with_rate_ppm(fault_ppm)
        .expect("fault rate")
        .with_retry(RetryPolicy::Exponential)
        .with_phase_scale(FaultPhase::Build, 0);
    let faulted = Server::build(&ctx.data, &ctx.topo, m, args.seed, Some(fcfg)).expect("build");
    let lane_budget_s = 10.0;
    let unshed_cfg = ServeConfig {
        concurrency: 2,
        batch: 4,
        disk,
        ..ServeConfig::new()
    };
    let cfg = ServeConfig {
        overload: OverloadPolicy {
            lanes: Some(LanePolicy {
                budget_s: [lane_budget_s; QueryClass::COUNT],
                window: LanePolicy::DEFAULT_WINDOW,
            }),
            ..OverloadPolicy::none()
        },
        ..unshed_cfg
    };
    let report = faulted.run(&requests, &cfg, &pool).expect("faulted serve");
    assert!(
        report.shed_fraction > 0.0,
        "the faulted cell must shed load (got {report:?})"
    );
    // The bounded-tail claim: shedding must beat serving the same faulted
    // stream with no policy at all.
    let p99 = |r: &ServeReport| r.summary.map_or(f64::NAN, |s| s.p99_s);
    let unshed = faulted
        .run(&requests, &unshed_cfg, &pool)
        .expect("unshed faulted serve");
    assert!(
        p99(&report) < p99(&unshed),
        "lanes must bound the faulted tail: p99 {} vs {} with no policy",
        p99(&report),
        p99(&unshed)
    );
    println!(
        "faulted stream with no policy: p99 {:.4} s, backoff {:.3} s",
        p99(&unshed),
        unshed.backoff_s
    );
    rows.push(Row {
        concurrency: 2,
        batch: 4,
        fault_ppm,
        lane_budget_s: Some(lane_budget_s),
        report,
    });

    let mut lines = String::new();
    for row in &rows {
        let json = row.json(&gen, &mix);
        println!("{json}");
        lines.push_str(&json);
        lines.push('\n');
    }
    let dir = std::env::var("HDIDX_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_serve.json");
    let mut f = std::fs::File::create(&path).expect("create BENCH_serve.json");
    f.write_all(lines.as_bytes())
        .expect("write BENCH_serve.json");
    println!("\nwrote {} rows to {}", rows.len(), path.display());

    // Narrative summary: queueing relief and the shedding trade.
    let p99_of = |c: usize, b: usize| {
        rows.iter()
            .find(|r| r.concurrency == c && r.batch == b && r.fault_ppm == 0)
            .and_then(|r| r.report.summary)
            .map(|s| s.p99_s)
            .unwrap_or(f64::NAN)
    };
    println!(
        "\np99 latency: {:.4} s at (1,1) -> {:.4} s at (8,16)",
        p99_of(1, 1),
        p99_of(8, 16)
    );
    let f = rows.last().expect("faulted row");
    println!(
        "faulted cell ({} ppm, lane budget {lane_budget_s} s): shed {:.1}%, p99 {:.4} s, \
         backoff {:.3} s",
        f.fault_ppm,
        100.0 * f.report.shed_fraction,
        f.report.summary.map(|s| s.p99_s).unwrap_or(f64::NAN),
        f.report.backoff_s
    );
}
