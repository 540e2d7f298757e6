//! Hand-rolled argument parsing (no external CLI dependency).
//!
//! The four run commands (`predict`, `compare`, `measure`, `serve`)
//! share one flag set, parsed once into a [`RunArgs`]: the dataset, the
//! query workload, and the fault configuration, which comes from flags
//! only and is resolved here. `measure` and `serve` add the storage
//! flags ([`StoreSpec`]). The process-wide `--threads` (worker threads
//! for the query-radius set-up and serve's execution pass; 1 forces
//! serial, absent = available parallelism / `HDIDX_THREADS`) and
//! `--simd` live on [`Cli`].

use hdidx_baselines::PREDICTOR_NAMES;
use hdidx_core::simd::Choice as SimdChoice;
use hdidx_diskio::BreakerConfig;
use hdidx_faults::{BurstConfig, FaultConfig, FaultPhase, RetryPolicy};
use hdidx_serve::{ArrivalModel, LanePolicy, MixSpec, OverloadPolicy, QueryClass};
use std::path::PathBuf;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Subcommand.
    pub command: Command,
    /// Worker threads (None = available parallelism, 1 = serial).
    pub threads: Option<usize>,
    /// Kernel ISA override (None = `HDIDX_SIMD` or auto-detect).
    pub simd: Option<SimdChoice>,
}

/// The configuration every run command shares.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// CSV path.
    pub data: String,
    /// Page size in bytes.
    pub page_bytes: usize,
    /// Memory budget in points.
    pub m: usize,
    /// Number of queries (for `serve`, the candidate pool of query balls).
    pub queries: usize,
    /// Neighbor count.
    pub k: usize,
    /// RNG seed.
    pub seed: u64,
    /// Fault injection resolved from the fault and retry flags (None
    /// without `--fault-seed`).
    pub faults: Option<FaultConfig>,
}

/// Storage backend shared by `measure` and `serve`: whether the built
/// index is also persisted. Either way the build runs on the simulated
/// disk.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreSpec {
    /// The simulated disk only: access-pattern accounting, no bytes.
    Sim,
    /// The simulated build, then an index snapshot on the file-backed
    /// page store: real pages and checksums.
    File {
        /// Store directory (`--store`).
        dir: PathBuf,
    },
}

/// The subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print dataset and topology information.
    Info {
        /// CSV path.
        data: String,
        /// Page size in bytes.
        page_bytes: usize,
    },
    /// Predict page accesses without building the index.
    Predict {
        /// Shared run configuration.
        run: RunArgs,
        /// Registered predictor name (see `PREDICTOR_NAMES`).
        predictor: String,
        /// Explicit upper-tree height (None = recommended).
        h_upper: Option<usize>,
        /// Sampling fraction for the basic method (None = M/N).
        zeta: Option<f64>,
    },
    /// Run every predictor plus the measured ground truth in one report.
    Compare {
        /// Shared run configuration.
        run: RunArgs,
    },
    /// Build the index (simulated on-disk) and measure ground truth.
    Measure {
        /// Shared run configuration.
        run: RunArgs,
        /// Whether the built index is also persisted.
        store: StoreSpec,
    },
    /// Serve an open-loop query stream against a built index and report
    /// tail latency.
    Serve {
        /// Shared run configuration.
        run: RunArgs,
        /// Whether the built index is also persisted.
        store: StoreSpec,
        /// Arrival rate in requests per second.
        rate_per_s: f64,
        /// Simulated stream length in seconds.
        duration_s: f64,
        /// Arrival process (the stream is seeded with `--seed`).
        arrivals: ArrivalModel,
        /// Read mix over range/knn/predict.
        mix: MixSpec,
        /// Simulated service slots.
        concurrency: usize,
        /// Requests per execution batch.
        batch: usize,
        /// The overload policy assembled from `--lanes` and `--breaker`
        /// (both default off).
        overload: OverloadPolicy,
        /// Serve only this query class (physically filter the stream).
        only: Option<QueryClass>,
    },
    /// Verify and repair an existing snapshot store offline.
    Scrub {
        /// Store directory (the same path passed as `--store` when the
        /// snapshot was built).
        store_dir: String,
    },
    /// Generate a named dataset analog as CSV.
    Generate {
        /// Analog name (color64, texture48, texture60, isolet617,
        /// stock360, uniform8d).
        dataset: String,
        /// Cardinality scale in (0, 1].
        scale: f64,
        /// Output CSV path.
        out: String,
    },
    /// Print usage.
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
hdidx — sampling-based index cost prediction (Lang & Singh, SIGMOD 2001)

USAGE:
  hdidx info     --data <csv> [--page-bytes 8192]
  hdidx predict  --data <csv> --m <points> [run flags]
                 [--predictor resampled|cutoff|basic|uniform|fractal|histogram]
                 [--h-upper N] [--zeta F]
  hdidx compare  --data <csv> --m <points> [run flags]
  hdidx measure  --data <csv> --m <points> [run flags] [store flags]
  hdidx serve    --data <csv> --m <points> [run flags] [store flags]
                 [--rate 200] [--duration 10]
                 [--mix range:0.5,knn:0.3,predict:0.2] [--arrivals fixed|bursty]
                 [--concurrency 4] [--batch 8] [--lanes SPEC]
                 [--breaker fails:window:cooldown[:probes]]
                 [--only range|knn|predict] [--smoke]
  hdidx scrub    --store <dir>
  hdidx generate --dataset <name> [--scale 1.0] --out <csv>

Run flags (predict, compare, measure, serve):
  [--queries 500] [--k 21] [--page-bytes 8192] [--seed 42]
  [--threads N] [--simd auto|scalar|sse2|avx2]
  [--fault-seed S] [--fault-ppm P] [--fault-burst-ppm P]
  [--fault-phase-scale SPEC]
  [--retry-policy fixed|exponential]

Store flags (measure, serve):
  [--backend sim|file] [--store <dir>]

`--backend file` builds on the simulated disk exactly as `sim` does,
then persists the index under `--store <dir>` (required) as a new
checksummed snapshot generation (`<dir>/index/gen-XXXXXXXX`), written
and fsynced once, committed by an atomic superblock swap, scrubbed,
reopened and verified, and `serve` then serves the loaded tree. The
build's charged bill is the simulated backend's; the report adds
persist/reopen charged-model vs wall-clock seconds. The generation
committed before the newest is retained so a scrub can fall back if
the newest corrupts; every other generation is garbage-collected after
each commit.

`scrub` verifies every page checksum in the current snapshot
generation under `--store <dir>`, quarantines corrupt pages, and falls
back to the previously committed generation when the current one
cannot be made loadable — demoting the commit pointer so later opens
see the good generation. It prints a one-line report and exits 0 when
every page is clean, 3 when pages were quarantined or the store fell
back, and 1 if no generation could be loaded.

`serve` builds the index, generates an open-loop request stream on
simulated time (`--rate` requests/s for `--duration` s; `--arrivals
bursty` clumps arrivals without changing the mean rate), executes it in
`--batch`-sized batches over `--concurrency` simulated service slots,
and reports exact nearest-rank p50/p95/p99/max latency plus a digest of
the per-query samples (byte-identical for any --threads).
`--smoke` shrinks the defaults to CI scale.

Overload control (both knobs default off; with both off the run
reproduces the policy-free digests bit for bit):

`--lanes SPEC` gives each class its own admission lane: `class:budget`
pairs where the budget bounds the class's mean shadow-priced queue
delay in seconds (`0` closes the lane, `inf` or unnamed protects it).
Low-priority lanes shed before protected ones ever queue: shedding is
computed from a no-shed shadow pass, so decisions are identical at any
thread count and monotone in the budget. The shadow pass prices charged
fault-retry backoff, so a bare number (`--lanes 2`, one budget for every
class) is also how a run sheds under fault pressure.

`--breaker fails:window:cooldown[:probes]` trips a circuit breaker
when `fails` disk-query failures land within `window` charged seconds;
while open, disk-backed queries fail fast (charging nothing) until
`cooldown` elapses, then `probes` successes re-close it. Predicts keep
serving from memory.

`--only CLASS` physically filters the request stream to one class
(request ids keep their arrival numbering, so a protected lane's
digest can be compared against a stream that never offered the other
classes).

`--threads N` sets the worker threads of the two parallel steps: the
query-radius set-up (one k-NN tree search per query) and serve's
execution pass. Everything else runs serially. `--threads 1` forces
serial execution; omitting --threads uses the HDIDX_THREADS environment
variable or the machine's available parallelism. Results are identical
for any thread count.

`--simd` pins the geometry-kernel ISA: `scalar`, `sse2`, `avx2`, or
`auto` (detect the best supported, rejecting nothing). The flag
overrides the HDIDX_SIMD environment variable; omitting both
auto-detects. Every ISA is byte-identical — counts, distances, and
digests never change with the lane width — so the flag exists for
perf comparison and for forcing the portable path, not for results.
A fixed ISA the CPU does not support is rejected at startup.

`--fault-seed S` injects deterministic I/O faults (transient failures,
torn reads, latency spikes) into the simulated disk; `--fault-ppm P`
scales the transient rate in parts per million (default 2000; torn and
spikes run at half that). `--fault-burst-ppm P` adds correlated fault
bursts over seeded bad page regions at the given per-attempt rate.
Both rates are at most 1000000 (certainty).
Without --fault-seed no faults are injected, and the other fault and
retry flags are checked but have no effect. The same fault seed
reproduces the identical fault trace, retry counts, and degraded output.

`--fault-phase-scale` rescales the fault rates per pipeline phase, as a
comma-separated list of `phase:pct` pairs over the phases `build`,
`query`, and `predict` (unnamed phases stay at 100). For example
`--fault-phase-scale build:5,query:5,predict:300` concentrates fault
pressure on the predictors' sampled I/O while the index build and the
ground-truth measurement run nearly clean — the setting that makes
degraded predictor rows observable in `compare` end to end.

`--retry-policy` paces retries after failed attempts: `fixed` retries
immediately (default), and `exponential` charges 2^attempt (+
deterministic jitter) seek-equivalents of backoff into the I/O bill.
Pacing only charges time: both policies make the same attempts.
";

/// The flags every run command accepts.
const RUN_FLAGS: &[&str] = &[
    "data",
    "page-bytes",
    "m",
    "queries",
    "k",
    "seed",
    "threads",
    "simd",
    "fault-seed",
    "fault-ppm",
    "fault-burst-ppm",
    "fault-phase-scale",
    "retry-policy",
];

/// The storage flags `measure` and `serve` add.
const STORE_FLAGS: &[&str] = &["backend", "store"];

/// Transient fault rate (ppm) a bare `--fault-seed` injects: low enough
/// that bounded retry absorbs essentially every fault.
const DEFAULT_FAULT_PPM: u32 = 2_000;

struct Opts {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Opts {
    /// Parses `--key value` pairs; any key listed in `boolean` is a bare
    /// flag consuming no value (e.g. `--smoke`).
    fn parse(rest: &[String], boolean: &[&str]) -> Result<Opts, String> {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < rest.len() {
            let key = rest[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected an option, got `{}`", rest[i]))?;
            if boolean.contains(&key) {
                flags.push(key.to_string());
                i += 1;
                continue;
            }
            let value = rest
                .get(i + 1)
                .ok_or_else(|| format!("option --{key} requires a value"))?;
            pairs.push((key.to_string(), value.clone()));
            i += 2;
        }
        Ok(Opts { pairs, flags })
    }

    fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|k| k == key)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, key: &str) -> Result<String, String> {
        self.get(key)
            .map(str::to_string)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.parse_opt(key)?.unwrap_or(default))
    }

    fn parse_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("option --{key}: cannot parse `{v}`")),
        }
    }

    /// Parses option `key` through `parse` (None when absent), prefixing
    /// any error with the option name.
    fn parse_with<T, E: std::fmt::Display>(
        &self,
        key: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| parse(v).map_err(|e| format!("option --{key}: {e}")))
            .transpose()
    }

    /// Rejects any option outside the given flag lists.
    fn reject_unknown(&self, known: &[&[&str]]) -> Result<(), String> {
        for k in self.pairs.iter().map(|(k, _)| k).chain(&self.flags) {
            if !known.iter().any(|list| list.contains(&k.as_str())) {
                return Err(format!("unknown option --{k}"));
            }
        }
        Ok(())
    }
}

impl RunArgs {
    /// Parses the shared run flags; `queries` and `k` are the command's
    /// defaults (`serve --smoke` shrinks them).
    fn parse(opts: &Opts, queries: usize, k: usize) -> Result<RunArgs, String> {
        Ok(RunArgs {
            data: opts.required("data")?,
            page_bytes: opts.parse_or("page-bytes", 8192usize)?,
            m: opts
                .parse_opt("m")?
                .ok_or("missing required option --m".to_string())?,
            queries: opts.parse_or("queries", queries)?,
            k: opts.parse_or("k", k)?,
            seed: opts.parse_or("seed", 42u64)?,
            faults: parse_faults(opts)?,
        })
    }
}

/// Resolves the fault and retry flags into one configuration.
/// `--fault-seed` alone decides whether faults are injected, at
/// [`DEFAULT_FAULT_PPM`] unless `--fault-ppm` overrides it;
/// `--fault-burst-ppm` layers correlated bursts on top; the retry policy
/// defaults to fixed; `--fault-phase-scale` then rescales the rates per
/// pipeline phase (build / query / predict), letting fault pressure be
/// steered at the predictors' sampled I/O while the build and
/// measurement run clean (or vice versa). Every value is checked even
/// without a seed.
fn parse_faults(opts: &Opts) -> Result<Option<FaultConfig>, String> {
    let seed: Option<u64> = opts.parse_opt("fault-seed")?;
    let rates = FaultConfig::disabled(seed.unwrap_or_default())
        .with_rate_ppm(opts.parse_or("fault-ppm", DEFAULT_FAULT_PPM)?)
        .map_err(|e| format!("option --fault-ppm: {e}"))?;
    let burst = opts
        .parse_opt("fault-burst-ppm")?
        .map(BurstConfig::with_fault_ppm)
        .transpose()
        .map_err(|e| format!("option --fault-burst-ppm: {e}"))?;
    let retry = opts
        .parse_with("retry-policy", RetryPolicy::parse)?
        .unwrap_or_default();
    let phase_scale_pct = parse_phase_scale(opts)?;
    Ok(seed.map(|_| FaultConfig {
        phase_scale_pct,
        ..rates.with_burst(burst).with_retry(retry)
    }))
}

/// Per-phase fault-rate percentages in `FaultPhase::ALL` order (100 for
/// every phase the flag leaves unnamed).
fn parse_phase_scale(opts: &Opts) -> Result<[u16; 3], String> {
    let mut scale = [100u16; 3];
    let Some(spec) = opts.get("fault-phase-scale") else {
        return Ok(scale);
    };
    let mut seen = [false; 3];
    for part in spec.split(',') {
        let (name, pct) = part.split_once(':').ok_or_else(|| {
            format!("option --fault-phase-scale: expected phase:pct, got `{part}`")
        })?;
        let idx = FaultPhase::ALL
            .iter()
            .position(|p| p.as_str() == name)
            .ok_or_else(|| {
                format!(
                    "option --fault-phase-scale: unknown phase `{name}` (expected {})",
                    FaultPhase::ALL.map(|p| p.as_str()).join(", ")
                )
            })?;
        if seen[idx] {
            return Err(format!(
                "option --fault-phase-scale: phase `{name}` given twice"
            ));
        }
        seen[idx] = true;
        scale[idx] = pct
            .parse()
            .map_err(|_| format!("option --fault-phase-scale: cannot parse percentage `{pct}`"))?;
    }
    Ok(scale)
}

impl StoreSpec {
    /// Parses `--backend` / `--store` as a unit: the file backend requires
    /// a store directory; the store flag is meaningless on the simulated
    /// backend and rejected there.
    fn parse(opts: &Opts) -> Result<StoreSpec, String> {
        match (opts.get("backend"), opts.get("store")) {
            (None | Some("sim"), Some(_)) => Err("option --store requires --backend file".into()),
            (None | Some("sim"), None) => Ok(StoreSpec::Sim),
            (Some("file"), Some(dir)) => Ok(StoreSpec::File {
                dir: PathBuf::from(dir),
            }),
            (Some("file"), None) => Err("option --backend file requires --store <dir>".into()),
            (Some(other), _) => Err(format!(
                "option --backend: unknown backend `{other}` (expected sim or file)"
            )),
        }
    }
}

fn parse_threads(opts: &Opts) -> Result<Option<usize>, String> {
    let threads: Option<usize> = opts.parse_opt("threads")?;
    if threads == Some(0) {
        return Err("option --threads: must be at least 1".to_string());
    }
    Ok(threads)
}

/// Parses a `f64` option that must be positive and finite (rates,
/// durations, budgets — a zero or NaN rate would hang or poison the run).
fn parse_positive_or(opts: &Opts, key: &str, default: f64) -> Result<f64, String> {
    let v: f64 = opts.parse_or(key, default)?;
    if !v.is_finite() || v <= 0.0 {
        return Err(format!(
            "option --{key}: must be positive and finite, got `{v}`"
        ));
    }
    Ok(v)
}

/// Parses the `serve` command: the run and store flags plus the load,
/// serving and overload knobs.
fn parse_serve(opts: &Opts) -> Result<Command, String> {
    opts.reject_unknown(&[
        RUN_FLAGS,
        STORE_FLAGS,
        &[
            "rate",
            "duration",
            "mix",
            "arrivals",
            "concurrency",
            "batch",
            "lanes",
            "breaker",
            "only",
            "smoke",
        ],
    ])?;
    let store = StoreSpec::parse(opts)?;
    // --smoke shrinks the open-loop window to CI scale while keeping
    // every knob overridable.
    let smoke = opts.has_flag("smoke");
    let mix = opts.parse_with("mix", MixSpec::parse)?.unwrap_or_default();
    let arrivals = opts
        .parse_with("arrivals", ArrivalModel::parse)?
        .unwrap_or(ArrivalModel::Fixed);
    let concurrency: usize = opts.parse_or("concurrency", 4usize)?;
    if concurrency == 0 {
        return Err("option --concurrency: must be at least 1".to_string());
    }
    let batch: usize = opts.parse_or("batch", 8usize)?;
    if batch == 0 {
        return Err("option --batch: must be at least 1".to_string());
    }
    let overload = OverloadPolicy {
        lanes: opts.parse_with("lanes", LanePolicy::parse)?,
        breaker: opts.parse_with("breaker", BreakerConfig::parse)?,
    };
    overload.validate().map_err(|e| e.to_string())?;
    let only = opts.parse_with("only", QueryClass::parse)?;
    Ok(Command::Serve {
        run: if smoke {
            RunArgs::parse(opts, 24, 5)?
        } else {
            RunArgs::parse(opts, 500, 21)?
        },
        store,
        rate_per_s: parse_positive_or(opts, "rate", if smoke { 80.0 } else { 200.0 })?,
        duration_s: parse_positive_or(opts, "duration", if smoke { 1.0 } else { 10.0 })?,
        arrivals,
        mix,
        concurrency,
        batch,
        overload,
        only,
    })
}

impl Cli {
    /// Parses `argv` (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a usage-style message for unknown commands/options or
    /// malformed values.
    pub fn parse(argv: &[String]) -> Result<Cli, String> {
        let Some(cmd) = argv.first() else {
            return Ok(Cli {
                command: Command::Help,
                threads: None,
                simd: None,
            });
        };
        let opts = Opts::parse(&argv[1..], &["smoke"])?;
        let command = match cmd.as_str() {
            "help" | "--help" | "-h" => Command::Help,
            "info" => {
                opts.reject_unknown(&[&["data", "page-bytes"]])?;
                Command::Info {
                    data: opts.required("data")?,
                    page_bytes: opts.parse_or("page-bytes", 8192usize)?,
                }
            }
            "predict" => {
                opts.reject_unknown(&[RUN_FLAGS, &["predictor", "h-upper", "zeta"]])?;
                let predictor = opts.get("predictor").unwrap_or("resampled").to_string();
                if !PREDICTOR_NAMES.contains(&predictor.as_str()) {
                    return Err(format!(
                        "unknown predictor `{predictor}` (expected one of {})",
                        PREDICTOR_NAMES.join(", ")
                    ));
                }
                Command::Predict {
                    run: RunArgs::parse(&opts, 500, 21)?,
                    predictor,
                    h_upper: opts.parse_opt("h-upper")?,
                    zeta: opts.parse_opt("zeta")?,
                }
            }
            "compare" => {
                opts.reject_unknown(&[RUN_FLAGS])?;
                Command::Compare {
                    run: RunArgs::parse(&opts, 500, 21)?,
                }
            }
            "measure" => {
                opts.reject_unknown(&[RUN_FLAGS, STORE_FLAGS])?;
                Command::Measure {
                    store: StoreSpec::parse(&opts)?,
                    run: RunArgs::parse(&opts, 500, 21)?,
                }
            }
            "serve" => parse_serve(&opts)?,
            "scrub" => {
                opts.reject_unknown(&[&["store"]])?;
                Command::Scrub {
                    store_dir: opts.required("store")?,
                }
            }
            "generate" => {
                opts.reject_unknown(&[&["dataset", "scale", "out"]])?;
                Command::Generate {
                    dataset: opts.required("dataset")?,
                    scale: opts.parse_or("scale", 1.0f64)?,
                    out: opts.required("out")?,
                }
            }
            other => return Err(format!("unknown command `{other}`\n{USAGE}")),
        };
        Ok(Cli {
            command,
            threads: parse_threads(&opts)?,
            simd: opts.parse_with("simd", SimdChoice::parse)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn parse(s: &str) -> Command {
        Cli::parse(&argv(s)).unwrap().command
    }

    /// The shared run configuration of a run command.
    fn run_of(s: &str) -> RunArgs {
        match parse(s) {
            Command::Predict { run, .. }
            | Command::Compare { run }
            | Command::Measure { run, .. }
            | Command::Serve { run, .. } => run,
            other => panic!("not a run command: {other:?}"),
        }
    }

    fn faults_of(s: &str) -> FaultConfig {
        run_of(s)
            .faults
            .unwrap_or_else(|| panic!("no faults resolved: {s}"))
    }

    #[test]
    fn parses_predict_with_defaults() {
        let cli = Cli::parse(&argv("predict --data a.csv --m 1000")).unwrap();
        assert_eq!(cli.threads, None);
        assert_eq!(cli.simd, None);
        assert_eq!(
            cli.command,
            Command::Predict {
                run: RunArgs {
                    data: "a.csv".into(),
                    page_bytes: 8192,
                    m: 1000,
                    queries: 500,
                    k: 21,
                    seed: 42,
                    faults: None,
                },
                predictor: "resampled".into(),
                h_upper: None,
                zeta: None,
            }
        );
    }

    #[test]
    fn every_run_command_shares_the_run_flags() {
        let flags = "--data d.csv --m 300 --queries 10 --k 5 --seed 7 --page-bytes 4096";
        let expect = RunArgs {
            data: "d.csv".into(),
            page_bytes: 4096,
            m: 300,
            queries: 10,
            k: 5,
            seed: 7,
            faults: None,
        };
        // Every run command defaults to 500 queries, k = 21, 8 KiB pages
        // and seed 42 (`serve --smoke` alone shrinks them).
        let defaults = RunArgs {
            data: "d.csv".into(),
            page_bytes: 8192,
            m: 100,
            queries: 500,
            k: 21,
            seed: 42,
            faults: None,
        };
        for cmd in ["predict", "compare", "measure", "serve"] {
            assert_eq!(
                run_of(&format!("{cmd} --data d.csv --m 100")),
                defaults,
                "{cmd}"
            );
            assert_eq!(run_of(&format!("{cmd} {flags}")), expect, "{cmd}");
            let cli = Cli::parse(&argv(&format!("{cmd} {flags} --threads 3"))).unwrap();
            assert_eq!(cli.threads, Some(3), "{cmd}");
        }
    }

    #[test]
    fn parses_simd_flag() {
        let cli = Cli::parse(&argv("predict --data a.csv --m 10 --simd scalar")).unwrap();
        assert_eq!(cli.simd, Some(SimdChoice::Fixed(hdidx_core::Isa::Scalar)));
        let cli = Cli::parse(&argv("serve --data a.csv --m 10 --simd auto")).unwrap();
        assert_eq!(cli.simd, Some(SimdChoice::Auto));
        let err = Cli::parse(&argv("measure --data a.csv --m 10 --simd avx512")).unwrap_err();
        assert!(err.contains("option --simd"), "{err}");
        // info/generate/scrub take no --simd.
        assert!(Cli::parse(&argv("info --data a.csv --simd auto")).is_err());
    }

    #[test]
    fn parses_overrides() {
        let cli = Cli::parse(&argv(
            "predict --data a.csv --m 500 --predictor basic --zeta 0.3 --queries 10 --k 5 \
             --seed 7 --threads 2",
        ))
        .unwrap();
        assert_eq!(cli.threads, Some(2));
        match cli.command {
            Command::Predict {
                run,
                predictor,
                zeta,
                ..
            } => {
                assert_eq!(predictor, "basic");
                assert_eq!(zeta, Some(0.3));
                assert_eq!((run.queries, run.k, run.seed), (10, 5, 7));
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn every_registry_name_parses() {
        for &name in PREDICTOR_NAMES {
            match parse(&format!("predict --data a.csv --m 10 --predictor {name}")) {
                Command::Predict { predictor, .. } => assert_eq!(predictor, name),
                other => panic!("wrong command: {other:?}"),
            }
        }
    }

    #[test]
    fn parses_fault_flags() {
        // A bare seed injects at the default low-pressure rate.
        assert_eq!(
            faults_of("compare --data d.csv --m 100 --fault-seed 1"),
            FaultConfig::disabled(1).with_rate_ppm(2_000).unwrap()
        );
        let f = faults_of("measure --data d.csv --m 100 --fault-seed 7 --fault-ppm 20000");
        assert_eq!(f, FaultConfig::disabled(7).with_rate_ppm(20_000).unwrap());
        let f = faults_of("serve --data d.csv --m 100 --fault-seed 7 --fault-burst-ppm 50000");
        assert_eq!(f.burst, Some(BurstConfig::with_fault_ppm(50_000).unwrap()));
        assert_eq!(f.transient_ppm, 2_000);
        // Without a seed nothing is injected, but every value is checked.
        let run = run_of("predict --data a.csv --m 10 --fault-ppm 5000 --fault-burst-ppm 9");
        assert_eq!(run.faults, None);
        // A rate of 1,000,000 ppm is certainty and stays valid; above it
        // the flag is named in the error instead of saturating or failing
        // late with an I/O fault.
        let f = faults_of(
            "measure --data d.csv --m 100 --fault-seed 1 --fault-ppm 1000000 \
             --fault-burst-ppm 1000000",
        );
        assert_eq!(f.transient_ppm, 1_000_000);
        assert_eq!(
            f.burst,
            Some(BurstConfig::with_fault_ppm(1_000_000).unwrap())
        );
        for (args, flag) in [
            (
                "measure --data d.csv --m 100 --fault-seed 1 --fault-ppm 2000000",
                "fault-ppm",
            ),
            (
                "measure --data d.csv --m 100 --fault-seed 1 --fault-burst-ppm 5000000",
                "fault-burst-ppm",
            ),
            (
                "predict --data d.csv --m 100 --fault-ppm 1000001",
                "fault-ppm",
            ),
        ] {
            let e = Cli::parse(&argv(args)).unwrap_err();
            assert!(e.starts_with(&format!("option --{flag}: ")), "{args}: {e}");
            assert!(e.contains("exceeds 1000000"), "{args}: {e}");
        }
        let bad = [
            "predict --data a.csv --m 10 --fault-seed x",
            "compare --data a.csv --m 10 --fault-ppm -1",
            "measure --data a.csv --m 10 --fault-burst-ppm lots",
            // info/generate take no fault flags.
            "info --data a.csv --fault-seed 1",
            "info --data a.csv --fault-burst-ppm 1",
        ];
        for args in bad {
            assert!(Cli::parse(&argv(args)).is_err(), "should reject: {args}");
        }
    }

    #[test]
    fn parses_retry_flags() {
        let f = faults_of("measure --data d.csv --m 100 --fault-seed 1 --retry-policy exponential");
        assert_eq!(f.retry, RetryPolicy::Exponential);
        let f = faults_of("predict --data d.csv --m 100 --fault-seed 1");
        assert_eq!(f.retry, RetryPolicy::Fixed);
        assert!(Cli::parse(&argv("predict --data d.csv --m 1 --retry-policy bogus")).is_err());
        // info/generate take no retry flags.
        assert!(Cli::parse(&argv("info --data d.csv --retry-policy fixed")).is_err());
    }

    #[test]
    fn parses_phase_scale() {
        // Named phases are set, unnamed phases default to 100.
        let f = faults_of(
            "compare --data d.csv --m 100 --fault-seed 3 --fault-phase-scale build:5,predict:300",
        );
        assert_eq!(f.phase_scale_pct, [5, 100, 300]);
        let f =
            faults_of("predict --data d.csv --m 100 --fault-seed 3 --fault-phase-scale query:0");
        assert_eq!(f.phase_scale_pct, [100, 0, 100]);
        let bad = [
            "measure --data d.csv --m 1 --fault-phase-scale flush:50",
            "measure --data d.csv --m 1 --fault-phase-scale build",
            "measure --data d.csv --m 1 --fault-phase-scale build:lots",
            // A repeated phase is a mistake, not "last one wins".
            "compare --data d.csv --m 1 --fault-seed 3 --fault-phase-scale build:0,build:100",
            // info/generate take no phase-scale flag.
            "info --data d.csv --fault-phase-scale build:50",
        ];
        for args in bad {
            assert!(Cli::parse(&argv(args)).is_err(), "should reject: {args}");
        }
    }

    #[test]
    fn parses_backend_flags() {
        let store_of = |s: &str| match parse(s) {
            Command::Measure { store, .. } | Command::Serve { store, .. } => store,
            other => panic!("wrong command: {other:?}"),
        };
        // Default: the simulated backend.
        assert_eq!(store_of("measure --data d.csv --m 100"), StoreSpec::Sim);
        assert_eq!(
            store_of("measure --data d.csv --m 100 --backend file --store /tmp/st"),
            StoreSpec::File {
                dir: "/tmp/st".into(),
            }
        );
        assert_eq!(
            store_of("serve --data d.csv --m 100 --smoke --backend file --store s"),
            StoreSpec::File { dir: "s".into() }
        );
        let bad = [
            // The file backend needs a store; sim rejects a store.
            "measure --data d.csv --m 10 --backend file",
            "measure --data d.csv --m 10 --store /tmp/x",
            "measure --data d.csv --m 10 --backend ramdisk --store s",
            "serve --data d.csv --m 10 --backend file",
            // A snapshot is fsynced once; there is no durability knob.
            "measure --data d.csv --m 10 --backend file --store s --durability per-batch",
            "serve --data d.csv --m 10 --smoke --backend file --store s --durability none",
            // predict/compare/info take no backend flags.
            "predict --data d.csv --m 10 --backend file --store s",
            "compare --data d.csv --m 10 --backend sim",
            "info --data d.csv --store s",
        ];
        for args in bad {
            assert!(Cli::parse(&argv(args)).is_err(), "should reject: {args}");
        }
    }

    #[test]
    fn parses_scrub() {
        assert_eq!(
            parse("scrub --store /tmp/st"),
            Command::Scrub {
                store_dir: "/tmp/st".into(),
            }
        );
        let bad = [
            "scrub",                                  // --store is required
            "scrub --store s --durability per-batch", // no durability knob
            "scrub --store s --backend file",         // no backend flag here
            "scrub --store s --data d.csv",           // no data flag either
            "scrub --store s --threads 2",            // nor threads
        ];
        for args in bad {
            assert!(Cli::parse(&argv(args)).is_err(), "should reject: {args}");
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Cli::parse(&argv("predict --data a.csv")).is_err()); // no --m
        assert!(Cli::parse(&argv("predict --m 10")).is_err()); // no --data
        assert!(Cli::parse(&argv("predict --data a.csv --m ten")).is_err());
        assert!(Cli::parse(&argv("predict --data a.csv --m 10 --predictor x")).is_err());
        assert!(Cli::parse(&argv("predict --data a.csv --m 10 --bogus 1")).is_err());
        assert!(Cli::parse(&argv("predict --data a.csv --m 10 --threads 0")).is_err());
        assert!(Cli::parse(&argv("measure --data a.csv --m 10 --threads zero")).is_err());
        assert!(Cli::parse(&argv("frobnicate")).is_err());
        assert!(Cli::parse(&argv("info --data a.csv extra")).is_err());
        // Predictor-only flags stay predictor-only.
        assert!(Cli::parse(&argv("compare --data a.csv --m 10 --zeta 0.5")).is_err());
        assert!(Cli::parse(&argv("measure --data a.csv --m 10 --h-upper 2")).is_err());
        // Removed names fail loudly, with the message for each.
        for (args, want) in [
            (
                "predict --data a.csv --m 10 --predictor distdist",
                "unknown predictor `distdist` (expected one of \
                 basic, cutoff, resampled, uniform, fractal, histogram)",
            ),
            (
                "compare --data a.csv --m 10 --retry-policy budgeted",
                "option --retry-policy: unknown retry policy 'budgeted' \
                 (expected fixed or exponential)",
            ),
            (
                "measure --data a.csv --m 10 --retry-budget 9",
                "unknown option --retry-budget",
            ),
        ] {
            assert_eq!(Cli::parse(&argv(args)).unwrap_err(), want, "{args}");
        }
    }

    #[test]
    fn parses_serve_with_defaults_and_smoke() {
        match parse("serve --data a.csv --m 400") {
            Command::Serve {
                run,
                rate_per_s,
                duration_s,
                arrivals,
                mix,
                concurrency,
                batch,
                overload,
                ..
            } => {
                assert_eq!(run.data, "a.csv");
                assert_eq!((run.queries, run.k, run.seed), (500, 21, 42));
                assert_eq!((rate_per_s, duration_s), (200.0, 10.0));
                assert_eq!(arrivals, ArrivalModel::Fixed);
                assert_eq!(mix, MixSpec::default());
                assert_eq!((concurrency, batch), (4, 8));
                assert_eq!(overload, OverloadPolicy::none(), "nothing sheds by default");
            }
            other => panic!("wrong command: {other:?}"),
        }
        // --smoke is a bare flag (no value) shrinking the defaults but
        // keeping explicit overrides.
        match parse("serve --data a.csv --m 400 --smoke --k 3") {
            Command::Serve {
                run,
                rate_per_s,
                duration_s,
                ..
            } => {
                assert_eq!((rate_per_s, duration_s), (80.0, 1.0));
                assert_eq!(run.queries, 24);
                assert_eq!(run.k, 3);
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse(
            "serve --data a.csv --m 400 --rate 50 --duration 2.5 --arrivals bursty \
             --mix range:1.0 --concurrency 2 --batch 16 --lanes 0.25 --page-bytes 4096 \
             --seed 9",
        ) {
            Command::Serve {
                run,
                rate_per_s,
                duration_s,
                arrivals,
                mix,
                concurrency,
                batch,
                overload,
                ..
            } => {
                assert_eq!((run.page_bytes, run.seed), (4096, 9));
                assert_eq!((rate_per_s, duration_s), (50.0, 2.5));
                assert_eq!(arrivals, ArrivalModel::Bursty);
                assert_eq!(mix.range, 1.0);
                assert_eq!((concurrency, batch), (2, 16));
                let lanes = overload.lanes.expect("a bare --lanes budget");
                for c in QueryClass::ALL {
                    assert_eq!(lanes.get(c), 0.25);
                }
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_serve_overload_flags() {
        match parse(
            "serve --data a.csv --m 400 --lanes predict:0,knn:0.5 \
             --breaker 3:0.5:1:2 --only range",
        ) {
            Command::Serve { overload, only, .. } => {
                let lanes = overload.lanes.unwrap();
                assert_eq!(lanes.get(QueryClass::Predict), 0.0);
                assert_eq!(lanes.get(QueryClass::Knn), 0.5);
                assert!(lanes.get(QueryClass::Range).is_infinite());
                let breaker = overload.breaker.unwrap();
                assert_eq!(breaker.failure_threshold, 3);
                assert_eq!(breaker.probes, 2);
                assert_eq!(only, Some(QueryClass::Range));
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Defaults: every knob off.
        match parse("serve --data a.csv --m 400") {
            Command::Serve { overload, only, .. } => {
                assert_eq!(overload, OverloadPolicy::none());
                assert_eq!(only, None);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let bad = [
            "serve --data a.csv --m 10 --lanes range:-1",
            "serve --data a.csv --m 10 --breaker 0:0.5:1",
            "serve --data a.csv --m 10 --breaker 3:0.5",
            "serve --data a.csv --m 10 --only scan",
            // Overload flags are serve-only.
            "measure --data a.csv --m 10 --breaker 3:0.5:1",
            "predict --data a.csv --m 10 --lanes range:1",
        ];
        for args in bad {
            assert!(Cli::parse(&argv(args)).is_err(), "should reject: {args}");
        }
    }

    #[test]
    fn serve_rejects_invalid_rate_mix_and_knobs() {
        let bad = [
            // Zero/negative/non-finite rate and duration.
            "serve --data a.csv --m 10 --rate 0",
            "serve --data a.csv --m 10 --rate -5",
            "serve --data a.csv --m 10 --rate nan",
            "serve --data a.csv --m 10 --rate inf",
            "serve --data a.csv --m 10 --duration 0",
            "serve --data a.csv --m 10 --duration -1",
            // Malformed mixes: bad shape, unknown class, not summing to 1.
            "serve --data a.csv --m 10 --mix range",
            "serve --data a.csv --m 10 --mix scan:1.0",
            "serve --data a.csv --m 10 --mix range:0.5,knn:0.2",
            "serve --data a.csv --m 10 --mix range:2.0,knn:-1.0",
            // Degenerate serving knobs.
            "serve --data a.csv --m 10 --concurrency 0",
            "serve --data a.csv --m 10 --batch 0",
            "serve --data a.csv --m 10 --lanes -1",
            "serve --data a.csv --m 10 --threads 0",
            "serve --data a.csv --m 10 --arrivals sinusoidal",
            // Required options and unknown flags still enforced.
            "serve --m 10",
            "serve --data a.csv",
            "serve --data a.csv --m 10 --bogus 1",
            // --smoke is serve-only.
            "predict --data a.csv --m 10 --smoke",
            "info --data a.csv --smoke",
        ];
        for args in bad {
            assert!(Cli::parse(&argv(args)).is_err(), "should reject: {args}");
        }
        // The mix error carries the field-oriented message.
        let e = Cli::parse(&argv("serve --data a.csv --m 10 --mix range:0.5,knn")).unwrap_err();
        assert!(e.contains("option --mix"), "{e}");
        assert!(e.contains("field 2"), "{e}");
        let e = Cli::parse(&argv("serve --data a.csv --m 10 --rate 0")).unwrap_err();
        assert!(e.contains("option --rate"), "{e}");
        // Flags no serve knob reads are rejected, not silently ignored.
        for (flag, value) in [
            ("deadline", "0.5"),
            ("hedge-ms", "50"),
            ("scrub-slice", "8"),
        ] {
            let args = format!("serve --data a.csv --m 10 --{flag} {value}");
            let e = Cli::parse(&argv(&args)).unwrap_err();
            assert_eq!(e, format!("unknown option --{flag}"), "{args}");
        }
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(Cli::parse(&[]).unwrap().command, Command::Help);
        assert_eq!(Cli::parse(&argv("help")).unwrap().command, Command::Help);
        assert_eq!(Cli::parse(&argv("--help")).unwrap().command, Command::Help);
    }

    #[test]
    fn parses_generate_and_measure() {
        assert_eq!(
            parse("generate --dataset texture60 --scale 0.1 --out o.csv"),
            Command::Generate {
                dataset: "texture60".into(),
                scale: 0.1,
                out: "o.csv".into()
            }
        );
        assert_eq!(
            parse("measure --data d.csv --m 100"),
            Command::Measure {
                run: RunArgs {
                    data: "d.csv".into(),
                    page_bytes: 8192,
                    m: 100,
                    queries: 500,
                    k: 21,
                    seed: 42,
                    faults: None,
                },
                store: StoreSpec::Sim,
            }
        );
    }
}
