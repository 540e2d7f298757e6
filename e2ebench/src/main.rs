//! `e2e`: the end-to-end wall-clock benchmark of the hdidx layers.
//!
//! ```text
//! e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--smoke]
//! ```
//!
//! With `--workload`, runs that workload in this process and prints a
//! header line, one line per metric, and, last, the summary object
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report
//! the end-to-end metrics, traced runs (`--trace 1`) the per-layer ones.
//! Without `--workload`, runs every workload in a child process of its
//! own, one after the other. See README.md for the workloads and metrics.

mod cpus;
mod stats;
mod trace;
mod workloads;

use stats::{mean, median, percentile};
use std::error::Error;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use trace::{Metric, Recorder};
use workloads::{Params, Run, WORKLOADS};

const USAGE: &str = "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--trace-out FILE] [--smoke]";

/// Every end-to-end metric: name and unit. The `end_to_end` list of
/// `BENCHMARK.json`. The p90 over ops and the plain wall-time percentiles
/// go in the header line instead: their run-to-run spread on a shared
/// host exceeds any usable bound.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_best_p50_ms", "ms"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("charged_io_s", "sim_s"),
];

/// Dataset-size multiplier of `--smoke`, which runs one round.
const SMOKE_SCALE: f64 = 0.5;

/// Pool threads unless `HDIDX_THREADS` says otherwise. One: on a small
/// shared VM every extra thread adds cross-CPU wake-ups whose cost
/// follows the neighbours' load (see README.md).
const THREADS: usize = 1;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 30,
        trace: false,
        trace_out: None,
        smoke: false,
    };
    let mut it = it.by_ref().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?} (expected one of {WORKLOADS:?})"
                    ));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match it.next_if(|v| !v.starts_with("--")).as_deref() {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(v) => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                };
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload.clone() else {
        return run_all(&args);
    };
    match run_one(&workload, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in a child process of its own (so peak memory and
/// caches stay per workload), streaming their output.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2e: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        if let Some(path) = &args.trace_out {
            cmd.arg("--trace-out")
                .arg(format!("{}.{w}", path.display()));
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("e2e: workload {w} exited with {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("e2e: cannot start workload {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Removes the directory when dropped, so a failed run leaves nothing.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if now empty
        }
    }
}

/// Runs one workload and prints its lines; `Ok(false)` when an answer
/// was wrong.
fn run_one(workload: &str, args: &Args) -> Result<bool, Box<dyn Error>> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if std::env::var_os("HDIDX_THREADS").is_none() {
        hdidx_pool::set_threads(THREADS);
    }
    let threads = hdidx_pool::configured_threads();
    let scratch = PathBuf::from(".e2e-scratch").join(format!("{workload}-{}", std::process::id()));
    let _cleanup = RemoveOnDrop(scratch.clone());
    let params = Params {
        seed: args.seed,
        seconds: if args.smoke { 0.0 } else { args.seconds as f64 },
        ops: workloads::OPS,
        scale: if args.smoke { SMOKE_SCALE } else { 1.0 },
        scratch,
    };
    let rec = Recorder::new(args.trace);
    let run = workloads::run(workload, &params, &rec)?;
    let metrics = if args.trace {
        trace::per_layer(&rec, &run.best_s, &run.traced_best_s)
    } else {
        end_to_end(&run)?
    };
    if let Some(path) = &args.trace_out {
        rec.write_spans(path, workload)?;
    }

    // The p90 over ops of their fastest repetitions, and the p50 and p90
    // of every untraced repetition; null (refused) below 100 samples. The
    // mean prediction error and the simulated p99 are exact for a seed,
    // like the digest; null where the workload has none.
    let json = |v: Option<f64>| v.map_or("null".to_string(), |v| v.to_string());
    let ms = |samples: &[f64], p| json(percentile(samples, p).map(|s| s * 1e3));
    let best_p90_ms = ms(&finite(&run.best_s), 90.0);
    let wall_p50_ms = ms(&run.samples_s, 50.0);
    let wall_p90_ms = ms(&run.samples_s, 90.0);
    let rel_err = json(mean(&run.rel_err));
    let rel_err_max = json(run.rel_err.iter().copied().reduce(f64::max));
    let sim_p99_s = json(percentile(&run.sim_latency_s, 99.0));
    println!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"nproc\":{nproc},\"threads\":{threads},\
         \"isa\":\"{}\",\"seconds\":{},\"trace\":{},\"smoke\":{},\"dataset\":\"{}\",\
         \"points\":{},\"dim\":{},\"setups\":{},\"ops\":{},\"rounds\":{},\"cpus\":{:?},\
         \"samples\":{},\"op_best_p90_ms\":{best_p90_ms},\"wall_p50_ms\":{wall_p50_ms},\
         \"wall_p90_ms\":{wall_p90_ms},\"rel_err\":{rel_err},\"rel_err_max\":{rel_err_max},\
         \"sim_p99_s\":{sim_p99_s},\"answer_digest\":\"{:016x}\"}}",
        args.seed,
        hdidx_core::simd::describe(),
        args.seconds,
        args.trace,
        args.smoke,
        run.dataset,
        run.points,
        run.dim,
        run.setup_s.len(),
        run.best_s.len(),
        run.rounds,
        run.cpus,
        run.samples_s.len(),
        run.digest,
    );
    let mut summary = Vec::with_capacity(metrics.len());
    for &(name, unit, value, n) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})").into());
        }
        println!(
            "{{\"workload\":\"{workload}\",\"metric\":\"{name}\",\"value\":{value},\
             \"unit\":\"{unit}\",\"n\":{n}}}"
        );
        summary.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    let correct = run.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.attempted,
        run.failed,
        summary.join(",")
    );
    Ok(correct)
}

/// The finite values of `xs`.
fn finite(xs: &[f64]) -> Vec<f64> {
    xs.iter().copied().filter(|x| x.is_finite()).collect()
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(run: &Run) -> Result<Vec<Metric>, String> {
    let best_s = finite(&run.best_s);
    let n = best_s.len();
    let p50_ms = percentile(&best_s, 50.0).ok_or(format!("{n} ops are too few for a p50"))? * 1e3;
    let (items, busy_s) = run
        .best_s
        .iter()
        .zip(&run.items)
        .filter(|(s, _)| s.is_finite())
        .fold((0, 0.0), |(i, b), (s, n)| (i + n, b + s));
    let values = [
        (
            median(&run.setup_s).ok_or("no set-up ran")?,
            run.setup_s.len(),
        ),
        (p50_ms, n),
        (items as f64 / busy_s, n),
        (run.peak_rss_mb, 1),
        (
            mean(&run.charged_s).ok_or("no op ran")?,
            run.charged_s.len(),
        ),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, n))| (name, unit, value, n))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of the `section` list in `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..start + json[start..].find(']').expect("list closes")];
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn owned(pairs: impl Iterator<Item = (&'static str, &'static str)>) -> Vec<(String, String)> {
        pairs.map(|(a, b)| (a.to_string(), b.to_string())).collect()
    }

    #[test]
    fn emitted_metrics_are_exactly_the_declared_ones() {
        let run = Run {
            setup_s: vec![0.5; 3],
            peak_rss_mb: 10.0,
            best_s: (1..=100).map(|i| f64::from(i) * 1e-3).collect(),
            items: vec![1; 100],
            charged_s: vec![0.25; 100],
            ..Run::default()
        };
        let e2e = end_to_end(&run).unwrap();
        let emitted = owned(e2e.iter().map(|&(name, unit, _, _)| (name, unit)));
        assert_eq!(emitted, declared("end_to_end"));
        let traced = trace::per_layer(&Recorder::new(true), &[1.0], &[1.0]);
        let emitted = owned(traced.iter().map(|&(name, unit, _, _)| (name, unit)));
        assert_eq!(emitted, declared("per_layer"));
    }

    #[test]
    fn arguments_parse_like_the_benchmark_contract() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload predict --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("predict"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(!parse("--trace 0").unwrap().trace);
        assert!(parse("--trace --smoke").unwrap().trace);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--trace 2").is_err());
    }

    /// Per workload: the answer digest and the exact per-op values (charged
    /// seconds, prediction errors, simulated latencies).
    type Answers = (u64, Vec<f64>, Vec<f64>, Vec<f64>);

    fn smoke(seed: u64, traced: bool) -> Vec<Answers> {
        let scratch = std::env::temp_dir().join(format!(
            "hdidx_e2e_smoke_{}_{seed}_{traced}",
            std::process::id()
        ));
        let params = Params {
            seed,
            seconds: 0.0,
            ops: workloads::DIGEST_OPS,
            scale: SMOKE_SCALE,
            scratch: scratch.clone(),
        };
        let digests = WORKLOADS
            .iter()
            .map(|w| {
                let run = workloads::run(w, &params, &Recorder::new(traced)).unwrap();
                assert_eq!(run.failed, 0, "{w}: wrong answers");
                assert_eq!(run.charged_s.len() as u64, workloads::DIGEST_OPS);
                (run.digest, run.charged_s, run.rel_err, run.sim_latency_s)
            })
            .collect();
        let _ = std::fs::remove_dir_all(&scratch);
        digests
    }

    #[test]
    fn same_seed_same_answers_at_any_thread_count_traced_or_not() {
        hdidx_pool::set_threads(1);
        let serial = smoke(3, false);
        hdidx_pool::set_threads(std::thread::available_parallelism().map_or(1, usize::from));
        assert_eq!(smoke(3, true), serial);
        let other = smoke(4, false);
        for (w, (a, b)) in WORKLOADS.iter().zip(serial.iter().zip(&other)) {
            assert_ne!(a.0, b.0, "{w}: the digest ignores the seed");
            assert_ne!(a.1, b.1, "{w}: the charged I/O ignores the seed");
        }
    }
}
