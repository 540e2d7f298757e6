//! **Overload sweep**: the overload-control layer under ≥2× saturation,
//! measured in charged simulated seconds.
//!
//! The sweep first probes the clean server at a trickle rate to estimate
//! the mean charged service cost per request, derives the saturation rate
//! of a 2-slot server from it, then drives a bursty open-loop stream at
//! 2.5× that rate through four cells:
//!
//! 1. `no-policy` — every knob off: the queue diverges and p99 tracks the
//!    full backlog.
//! 2. `lanes` — priority lanes shed low-priority classes outright and cap
//!    the protected range lane's queue-delay budget; the sweep **asserts**
//!    the protected-class p99 stays ≤ 25 % of the no-policy p99.
//! 3. `burst-faults` — correlated fault bursts with exponential retry and
//!    no breaker: charged retry backoff piles up.
//! 4. `burst-faults+breaker` — the same stream behind the circuit
//!    breaker; the sweep **asserts** the breaker trips and bounds the
//!    charged backoff below the breaker-off cell.
//!
//! Rows are printed to stdout **and** written to `BENCH_overload.json` in
//! `HDIDX_BENCH_OUT` (default: current directory) so the artifact can be
//! committed and tracked across PRs. `--smoke` shrinks the stream for CI.

use hdidx_bench::{ExpArgs, ExperimentContext};
use hdidx_datagen::registry::NamedDataset;
use hdidx_diskio::breaker::BreakerConfig;
use hdidx_diskio::DiskModel;
use hdidx_faults::{BurstConfig, FaultConfig, FaultPhase, RetryPolicy};
use hdidx_model::hupper;
use hdidx_pool::Pool;
use hdidx_serve::{
    ArrivalModel, LanePolicy, LoadGen, MixSpec, OverloadPolicy, QueryClass, ServeConfig,
    ServeReport, Server,
};
use std::io::Write as _;

/// One emitted sweep cell.
struct Row {
    cell: &'static str,
    fault_ppm: u32,
    rate_per_s: f64,
    report: ServeReport,
}

impl Row {
    fn class_p99(&self, class: QueryClass) -> f64 {
        self.report.by_class[class.index()]
            .summary
            .map_or(f64::NAN, |s| s.p99_s)
    }

    fn json(&self, mix: &MixSpec) -> String {
        let s = self.report.summary;
        let brk = self.report.breaker;
        format!(
            "{{\"cell\":\"{}\",\"fault_ppm\":{},\"rate_per_s\":{:.4},\"mix\":\"{mix}\",\
             \"requests\":{},\"executed\":{},\"shed_fraction\":{:.6},\"failed\":{},\
             \"p50_s\":{:.6},\"p99_s\":{:.6},\"max_s\":{:.6},\
             \"range_p99_s\":{:.6},\"backoff_s\":{:.6},\"makespan_s\":{:.6},\
             \"breaker_trips\":{},\"breaker_fast_fails\":{},\"breaker_state\":\"{}\",\
             \"digest\":\"{:016x}\"}}",
            self.cell,
            self.fault_ppm,
            self.rate_per_s,
            self.report.total,
            self.report.executed,
            self.report.shed_fraction,
            self.report.failed,
            s.map_or(f64::NAN, |s| s.p50_s),
            s.map_or(f64::NAN, |s| s.p99_s),
            s.map_or(f64::NAN, |s| s.max_s),
            self.class_p99(QueryClass::Range),
            self.report.backoff_s,
            self.report.makespan_s,
            brk.map_or(0, |b| b.trips),
            brk.map_or(0, |b| b.fast_fails),
            brk.map_or("off", |b| b.state.as_str()),
            self.report.digest,
        )
    }
}

fn main() {
    let mut args = ExpArgs::parse(0.25, 120);
    args.banner("Overload sweep: protected-class p99 and breaker backoff at 2.5x saturation");
    if args.smoke {
        args.queries = args.queries.min(24);
        args.k = args.k.min(9);
    }
    let mix = MixSpec::default();
    let ctx = ExperimentContext::prepare(NamedDataset::Color64, &args).expect("prepare");
    let disk = DiskModel::paper_with_page_bytes(NamedDataset::Color64.page_bytes());
    let m = ((ctx.data.len() as f64 * 0.0363) as usize).max(ctx.topo.cap_data() * 4);
    let h_upper = hupper::recommended_h_upper(&ctx.topo, m).expect("h_upper");
    println!(
        "dataset: {} ({} x {}), m = {m}, h_upper = {h_upper}",
        ctx.name,
        ctx.data.len(),
        ctx.data.dim()
    );
    let pool = Pool::current();
    let server = Server::build(&ctx.data, &ctx.topo, m, args.seed, None).expect("build");

    // Probe: a trickle-rate fixed stream through an uncontended server.
    // With the queue always empty, mean latency == mean charged service
    // cost, which prices the saturation rate of the 2-slot overload cells.
    let probe_gen = LoadGen {
        rate_per_s: 1.0,
        duration_s: if args.smoke { 8.0 } else { 24.0 },
        model: ArrivalModel::Fixed,
        seed: args.seed,
    };
    let probe_reqs = probe_gen
        .requests(&ctx.balls, &mix, args.k)
        .expect("probe stream");
    let probe_cfg = ServeConfig {
        concurrency: 2,
        batch: 1,
        disk,
        ..ServeConfig::new()
    };
    let probe = server.run(&probe_reqs, &probe_cfg, &pool).expect("probe");
    let mean_service_s = probe.summary.expect("probe executes").mean_s;
    let concurrency = 2usize;
    let saturation_rate = concurrency as f64 / mean_service_s;
    let overload_rate = 2.5 * saturation_rate;
    println!(
        "probe: mean service {mean_service_s:.4} s -> saturation {saturation_rate:.2} req/s \
         at {concurrency} slots; driving {overload_rate:.2} req/s (2.5x)"
    );

    // The shared overload stream: bursty arrivals at 2.5x saturation.
    let gen = LoadGen {
        rate_per_s: overload_rate,
        duration_s: if args.smoke { 4.0 } else { 20.0 },
        model: ArrivalModel::Bursty,
        seed: args.seed,
    };
    let requests = gen
        .requests(&ctx.balls, &mix, args.k)
        .expect("request stream");
    println!(
        "stream: {} requests, {:.2} req/s {} for {} s\n",
        requests.len(),
        gen.rate_per_s,
        gen.model.as_str(),
        gen.duration_s
    );

    let mut rows: Vec<Row> = vec![Row {
        cell: "probe",
        fault_ppm: 0,
        rate_per_s: probe_gen.rate_per_s,
        report: probe,
    }];

    // Cell 1: no policy. The open-loop queue diverges; p99 tracks the
    // backlog at the tail of the stream.
    let base_cfg = ServeConfig {
        concurrency,
        batch: 4,
        disk,
        ..ServeConfig::new()
    };
    let none = server.run(&requests, &base_cfg, &pool).expect("no-policy");
    rows.push(Row {
        cell: "no-policy",
        fault_ppm: 0,
        rate_per_s: gen.rate_per_s,
        report: none.clone(),
    });

    // Cell 2: priority lanes. knn/predict lanes close outright (budget 0,
    // sheds first), and the protected range lane carries a finite
    // queue-delay budget so its own excess sheds instead of queueing.
    let mut lanes = OverloadPolicy::none();
    lanes.lanes = Some(LanePolicy::parse("range:0.4,knn:0,predict:0").expect("lanes"));
    let lane_cfg = ServeConfig {
        overload: lanes,
        ..base_cfg
    };
    let laned = server.run(&requests, &lane_cfg, &pool).expect("lanes");
    rows.push(Row {
        cell: "lanes",
        fault_ppm: 0,
        rate_per_s: gen.rate_per_s,
        report: laned.clone(),
    });
    let protected_p99 = rows[2].class_p99(QueryClass::Range);
    let unprotected_p99 = none.summary.expect("no-policy executes").p99_s;
    assert!(
        laned.shed_fraction > 0.0,
        "the lanes cell must shed load at 2.5x saturation"
    );
    assert!(
        protected_p99 <= 0.25 * unprotected_p99,
        "protected-class p99 must stay within 25% of the no-policy p99: \
         {protected_p99:.4} vs {unprotected_p99:.4}"
    );

    // Cells 3+4: correlated fault bursts with exponential retry (build
    // phase silenced so only serving degrades), breaker off vs on. The
    // breaker fast-fails while open instead of burning full retry
    // ladders, bounding the charged backoff.
    let fault_ppm = 400_000;
    let fcfg = FaultConfig::disabled(args.seed)
        .with_rate_ppm(fault_ppm)
        .expect("fault rate")
        .with_burst(Some(
            BurstConfig::with_fault_ppm(150_000).expect("fault rate"),
        ))
        .with_retry(RetryPolicy::Exponential)
        .with_phase_scale(FaultPhase::Build, 0);
    let faulted = Server::build(&ctx.data, &ctx.topo, m, args.seed, Some(fcfg)).expect("build");
    let off = faulted
        .run(&requests, &base_cfg, &pool)
        .expect("breaker-off");
    rows.push(Row {
        cell: "burst-faults",
        fault_ppm,
        rate_per_s: gen.rate_per_s,
        report: off.clone(),
    });
    let mut gated = OverloadPolicy::none();
    gated.breaker = Some(BreakerConfig {
        failure_threshold: 2,
        window_s: 10.0,
        open_s: 0.2,
        probes: 1,
    });
    let breaker_cfg = ServeConfig {
        overload: gated,
        ..base_cfg
    };
    let on = faulted
        .run(&requests, &breaker_cfg, &pool)
        .expect("breaker-on");
    rows.push(Row {
        cell: "burst-faults+breaker",
        fault_ppm,
        rate_per_s: gen.rate_per_s,
        report: on.clone(),
    });
    let brk = on.breaker.expect("breaker summary present");
    assert!(
        brk.trips >= 1,
        "the burst cell must trip the breaker: {brk:?}"
    );
    assert!(
        on.backoff_s < off.backoff_s,
        "the breaker must bound charged backoff: {:.3} vs {:.3}",
        on.backoff_s,
        off.backoff_s
    );

    let mut lines = String::new();
    for row in &rows {
        let json = row.json(&mix);
        println!("{json}");
        lines.push_str(&json);
        lines.push('\n');
    }
    let dir = std::env::var("HDIDX_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_overload.json");
    let mut f = std::fs::File::create(&path).expect("create BENCH_overload.json");
    f.write_all(lines.as_bytes())
        .expect("write BENCH_overload.json");
    println!("\nwrote {} rows to {}", rows.len(), path.display());

    println!(
        "\nprotected range p99 {protected_p99:.4} s vs no-policy p99 {unprotected_p99:.4} s \
         ({:.1}%)",
        100.0 * protected_p99 / unprotected_p99
    );
    println!(
        "breaker: trips {} fast-fails {} -> backoff {:.3} s vs {:.3} s breaker-off",
        brk.trips, brk.fast_fails, on.backoff_s, off.backoff_s
    );
}
