//! Hand-rolled argument parsing (no external CLI dependency).
//!
//! Flag conventions, shared by every data command: `--seed` (RNG seed),
//! `--m` (memory budget in points), `--h-upper` (upper-tree height),
//! `--threads` (worker threads for the query-radius set-up and serve's
//! execution pass; 1 forces serial, absent = available parallelism /
//! `HDIDX_THREADS`), `--predictor` (a name from the
//! `hdidx_baselines::PREDICTOR_NAMES` registry).

use hdidx_baselines::PREDICTOR_NAMES;
use hdidx_core::simd::Choice as SimdChoice;
use hdidx_diskio::BreakerConfig;
use hdidx_faults::{FaultPhase, RetryPolicy};
use hdidx_serve::{ArrivalModel, Deadlines, LanePolicy, MixSpec, OverloadPolicy, QueryClass};
use hdidx_store::Durability;

/// Storage backend selection for the commands that build an index
/// (`measure`, `serve`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The simulated disk: access-pattern accounting only, no bytes.
    Sim,
    /// The file-backed page store: same charged accounting, plus real
    /// pages, checksums, a WAL, and an index snapshot under `--store`.
    File,
}

impl Backend {
    /// The stable name (`"sim"` / `"file"`).
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::File => "file",
        }
    }
}

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Subcommand.
    pub command: Command,
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
        /// CSV path.
        data: String,
        /// Page size in bytes.
        page_bytes: usize,
        /// Memory budget in points.
        m: usize,
        /// Registered predictor name (see `PREDICTOR_NAMES`).
        predictor: String,
        /// Number of queries.
        queries: usize,
        /// Neighbor count.
        k: usize,
        /// Explicit upper-tree height (None = recommended).
        h_upper: Option<usize>,
        /// Sampling fraction for the basic method (None = M/N).
        zeta: Option<f64>,
        /// RNG seed.
        seed: u64,
        /// Worker threads (None = available parallelism, 1 = serial).
        threads: Option<usize>,
        /// Fault-injection seed (None = `HDIDX_FAULT_SEED` or no faults).
        fault_seed: Option<u64>,
        /// Fault rate override in ppm (transient; torn/spikes at half).
        fault_ppm: Option<u32>,
        /// Retry/backoff policy override (None = `HDIDX_RETRY_POLICY` /
        /// `HDIDX_RETRY_BUDGET` or the fixed default).
        retry: Option<RetryPolicy>,
        /// Per-phase fault-rate percentages in `FaultPhase::ALL` order
        /// (None = 100 % everywhere).
        fault_phase_scale: Option<[u16; 3]>,
        /// Kernel ISA override (None = `HDIDX_SIMD` or auto-detect).
        simd: Option<SimdChoice>,
    },
    /// Run every predictor plus the measured ground truth in one report.
    Compare {
        /// CSV path.
        data: String,
        /// Page size in bytes.
        page_bytes: usize,
        /// Memory budget in points.
        m: usize,
        /// Number of queries.
        queries: usize,
        /// Neighbor count.
        k: usize,
        /// RNG seed.
        seed: u64,
        /// Worker threads (None = available parallelism, 1 = serial).
        threads: Option<usize>,
        /// Fault-injection seed (None = `HDIDX_FAULT_SEED` or no faults).
        fault_seed: Option<u64>,
        /// Fault rate override in ppm (transient; torn/spikes at half).
        fault_ppm: Option<u32>,
        /// Retry/backoff policy override (None = `HDIDX_RETRY_POLICY` /
        /// `HDIDX_RETRY_BUDGET` or the fixed default).
        retry: Option<RetryPolicy>,
        /// Per-phase fault-rate percentages in `FaultPhase::ALL` order
        /// (None = 100 % everywhere).
        fault_phase_scale: Option<[u16; 3]>,
        /// Kernel ISA override (None = `HDIDX_SIMD` or auto-detect).
        simd: Option<SimdChoice>,
    },
    /// Build the index (simulated on-disk) and measure ground truth.
    Measure {
        /// CSV path.
        data: String,
        /// Page size in bytes.
        page_bytes: usize,
        /// Memory budget in points.
        m: usize,
        /// Number of queries.
        queries: usize,
        /// Neighbor count.
        k: usize,
        /// RNG seed.
        seed: u64,
        /// Worker threads (None = available parallelism, 1 = serial).
        threads: Option<usize>,
        /// Fault-injection seed (None = `HDIDX_FAULT_SEED` or no faults).
        fault_seed: Option<u64>,
        /// Fault rate override in ppm (transient; torn/spikes at half).
        fault_ppm: Option<u32>,
        /// Retry/backoff policy override (None = `HDIDX_RETRY_POLICY` /
        /// `HDIDX_RETRY_BUDGET` or the fixed default).
        retry: Option<RetryPolicy>,
        /// Per-phase fault-rate percentages in `FaultPhase::ALL` order
        /// (None = 100 % everywhere).
        fault_phase_scale: Option<[u16; 3]>,
        /// Storage backend the build runs against.
        backend: Backend,
        /// Store directory (file backend only).
        store_dir: Option<String>,
        /// WAL durability mode (file backend only).
        durability: Durability,
        /// Kernel ISA override (None = `HDIDX_SIMD` or auto-detect).
        simd: Option<SimdChoice>,
    },
    /// Serve an open-loop query stream against a built index and report
    /// tail latency.
    Serve {
        /// CSV path.
        data: String,
        /// Page size in bytes.
        page_bytes: usize,
        /// Memory budget in points.
        m: usize,
        /// Mean arrival rate, requests per simulated second.
        rate: f64,
        /// Arrival window length in simulated seconds.
        duration: f64,
        /// Read mix over range/knn/predict.
        mix: MixSpec,
        /// Interarrival model.
        arrivals: ArrivalModel,
        /// Simulated service slots.
        concurrency: usize,
        /// Requests per dispatch batch.
        batch: usize,
        /// Overload-control policy assembled from `--deadline`, `--lanes`,
        /// `--breaker` and `--hedge-ms` (all default off).
        overload: OverloadPolicy,
        /// Serve only this query class (physically filter the stream).
        only: Option<QueryClass>,
        /// Idle-slot scrub slice size in pages (None = maintenance off).
        scrub_slice: Option<u64>,
        /// Number of candidate query balls in the workload pool.
        queries: usize,
        /// Neighbor count for workload radii and k-NN requests.
        k: usize,
        /// RNG seed.
        seed: u64,
        /// Worker threads (None = available parallelism, 1 = serial).
        threads: Option<usize>,
        /// Fault-injection seed (None = `HDIDX_FAULT_SEED` or no faults).
        fault_seed: Option<u64>,
        /// Fault rate override in ppm (transient; torn/spikes at half).
        fault_ppm: Option<u32>,
        /// Retry/backoff policy override (None = `HDIDX_RETRY_POLICY` /
        /// `HDIDX_RETRY_BUDGET` or the fixed default).
        retry: Option<RetryPolicy>,
        /// Per-phase fault-rate percentages in `FaultPhase::ALL` order
        /// (None = 100 % everywhere).
        fault_phase_scale: Option<[u16; 3]>,
        /// Storage backend the build runs against.
        backend: Backend,
        /// Store directory (file backend only).
        store_dir: Option<String>,
        /// WAL durability mode (file backend only).
        durability: Durability,
        /// Kernel ISA override (None = `HDIDX_SIMD` or auto-detect).
        simd: Option<SimdChoice>,
    },
    /// Verify and repair an existing snapshot store offline.
    Scrub {
        /// Store directory (the same path passed as `--store` when the
        /// snapshot was built).
        store_dir: String,
        /// WAL durability mode used when reopening generations.
        durability: Durability,
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
  hdidx predict  --data <csv> --m <points>
                 [--predictor resampled|cutoff|basic|uniform|fractal|histogram|distdist]
                 [--queries 500] [--k 21] [--h-upper N] [--zeta F]
                 [--page-bytes 8192] [--seed 42] [--threads N]
                 [--simd auto|scalar|sse2|avx2]
                 [--fault-seed S] [--fault-ppm P] [--fault-phase-scale SPEC]
                 [--retry-policy fixed|exponential|budgeted] [--retry-budget B]
  hdidx measure  --data <csv> --m <points> [--queries 500] [--k 21]
                 [--page-bytes 8192] [--seed 42] [--threads N]
                 [--simd auto|scalar|sse2|avx2]
                 [--backend sim|file] [--store <dir>]
                 [--durability per-batch|every-N|none]
                 [--fault-seed S] [--fault-ppm P] [--fault-phase-scale SPEC]
                 [--retry-policy fixed|exponential|budgeted] [--retry-budget B]
  hdidx compare  --data <csv> --m <points> [--queries 500] [--k 21]
                 [--page-bytes 8192] [--seed 42] [--threads N]
                 [--simd auto|scalar|sse2|avx2]
                 [--fault-seed S] [--fault-ppm P] [--fault-phase-scale SPEC]
                 [--retry-policy fixed|exponential|budgeted] [--retry-budget B]
  hdidx serve    --data <csv> --m <points> [--rate 200] [--duration 10]
                 [--mix range:0.5,knn:0.3,predict:0.2] [--arrivals fixed|bursty]
                 [--concurrency 4] [--batch 8] [--deadline SPEC] [--lanes SPEC]
                 [--breaker fails:window:cooldown[:probes]] [--hedge-ms MS]
                 [--only range|knn|predict] [--scrub-slice PAGES]
                 [--queries 500] [--k 21] [--page-bytes 8192] [--seed 42]
                 [--threads N] [--simd auto|scalar|sse2|avx2] [--smoke]
                 [--backend sim|file] [--store <dir>]
                 [--durability per-batch|every-N|none]
                 [fault/retry flags as above]
  hdidx scrub    --store <dir> [--durability per-batch|every-N|none]
  hdidx generate --dataset <name> [--scale 1.0] --out <csv>

`--backend file` runs the build against the file-backed page store
under `--store <dir>` (required): after the build, the index is
persisted as a new checksummed snapshot generation (`<dir>/index/
gen-XXXXXXXX`), committed by an atomic superblock swap, scrubbed,
fsynced, reopened and verified, and `serve` then serves the loaded
tree. Charged-model accounting is identical to the simulated backend;
the report adds persist/reopen charged-model vs wall-clock seconds.
`--durability` picks the write-ahead-log fsync cadence: `per-batch`
(default, fsync every batch), `every-N` (e.g. `every-8`), or `none`
(checkpoint only). Earlier generations under `--store` are retained
(two most recent) so a scrub can fall back if the newest corrupts;
older ones are garbage-collected after each commit.

`scrub` verifies every page checksum in the current snapshot
generation under `--store <dir>`, repairs corrupt pages from the
write-ahead log where possible, quarantines the rest, and falls back
to the previous retained generation when the current one cannot be
made loadable — demoting the commit pointer so later opens see the
good generation. It prints a one-line report and exits non-zero if no
generation could be loaded.

`serve` builds the index, generates an open-loop request stream on
simulated time (`--rate` requests/s for `--duration` s; `--arrivals
bursty` clumps arrivals without changing the mean rate), executes it in
`--batch`-sized batches over `--concurrency` simulated service slots,
and reports exact nearest-rank p50/p95/p99/max latency plus a digest of
the per-query samples (byte-identical for any --threads).
`--smoke` shrinks the defaults to CI scale.

Overload control (every knob defaults off; with all of them off the
run reproduces the policy-free digests bit for bit):

`--deadline SPEC` caps each query's charged service cost: either one
number of seconds for every class, or per-class `range:0.1,knn:inf`
pairs (unnamed classes stay uncapped). A range/knn query over its
deadline is cut off and counted in `deadline cut`; a predict query
becomes disk-priced and answers from cutoff extrapolation over the
prefix it scanned, reported as degraded coverage.

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
serving from memory. `--hedge-ms MS` re-issues a faulted replay whose
charged cost exceeds MS milliseconds against the snapshot generation's
fault stream, adopting the earlier completion but charging both.

`--only CLASS` physically filters the request stream to one class
(request ids keep their arrival numbering, so a protected lane's
digest can be compared against a stream that never offered the other
classes). `--scrub-slice PAGES` enables idle-slot maintenance: scrub
slices of that many pages run in the slot algebra's idle gaps and
drive the healthy/degraded/read-only health state shown in the report
(read-only refuses disk-backed classes; degraded is reported only).

`--threads N` sets the worker threads of the two parallel steps: the
query-radius set-up (one k-NN scan per query) and serve's execution
pass. Everything else runs serially. `--threads 1` forces serial
execution; omitting --threads uses the HDIDX_THREADS environment
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
spikes run at half that). Omitting --fault-seed falls back to the
HDIDX_FAULT_SEED / HDIDX_FAULT_PPM environment variables; without
either, no faults are injected. The same fault seed reproduces the
identical fault trace, retry counts, and degraded output.
HDIDX_FAULT_BURST_PPM additionally enables correlated fault bursts over
seeded bad page regions at the given per-attempt rate.

`--fault-phase-scale` rescales the fault rates per pipeline phase, as a
comma-separated list of `phase:pct` pairs over the phases `build`,
`query`, and `predict` (unnamed phases stay at 100). For example
`--fault-phase-scale build:5,query:5,predict:300` concentrates fault
pressure on the predictors' sampled I/O while the index build and the
ground-truth measurement run nearly clean — the setting that makes
degraded predictor rows observable in `compare` end to end.

`--retry-policy` paces retries after failed attempts: `fixed` retries
immediately (default), `exponential` charges 2^attempt (+ deterministic
jitter) seek-equivalents of backoff into the I/O bill, and `budgeted`
follows the exponential schedule but gives up once a per-access backoff
budget (`--retry-budget`, default 64 seek-equivalents) would be
overdrawn. `--retry-budget` alone implies the budgeted policy. Explicit
flags override the HDIDX_RETRY_POLICY / HDIDX_RETRY_BUDGET environment
variables, which override the fixed default.
";

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
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{key}: cannot parse `{v}`")),
        }
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

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        for k in self.pairs.iter().map(|(k, _)| k).chain(&self.flags) {
            if !known.contains(&k.as_str()) {
                return Err(format!("unknown option --{k}"));
            }
        }
        Ok(())
    }
}

fn parse_retry(opts: &Opts) -> Result<Option<RetryPolicy>, String> {
    let budget: Option<u32> = opts.parse_opt("retry-budget")?;
    match opts.get("retry-policy") {
        Some(name) => RetryPolicy::parse(name, budget)
            .map(Some)
            .map_err(|e| format!("option --retry-policy: {e}")),
        // A budget alone implies the budgeted policy (mirrors the
        // HDIDX_RETRY_BUDGET environment variable).
        None => Ok(budget.map(|budget_seeks| RetryPolicy::Budgeted { budget_seeks })),
    }
}

fn parse_phase_scale(opts: &Opts) -> Result<Option<[u16; 3]>, String> {
    let Some(spec) = opts.get("fault-phase-scale") else {
        return Ok(None);
    };
    let mut scale = [100u16; 3];
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
        scale[idx] = pct
            .parse()
            .map_err(|_| format!("option --fault-phase-scale: cannot parse percentage `{pct}`"))?;
    }
    Ok(Some(scale))
}

/// Parses `--backend` / `--store` / `--durability` as a unit: the file
/// backend requires a store directory; the store and durability flags
/// are meaningless on the simulated backend and rejected there.
fn parse_backend(opts: &Opts) -> Result<(Backend, Option<String>, Durability), String> {
    let backend = match opts.get("backend") {
        None | Some("sim") => Backend::Sim,
        Some("file") => Backend::File,
        Some(other) => {
            return Err(format!(
                "option --backend: unknown backend `{other}` (expected sim or file)"
            ))
        }
    };
    let store_dir = opts.get("store").map(str::to_string);
    let durability = match opts.get("durability") {
        None => Durability::PerBatch,
        Some(s) => Durability::parse(s).map_err(|e| format!("option --durability: {e}"))?,
    };
    match backend {
        Backend::File if store_dir.is_none() => {
            Err("option --backend file requires --store <dir>".to_string())
        }
        Backend::Sim if store_dir.is_some() => {
            Err("option --store requires --backend file".to_string())
        }
        Backend::Sim if opts.get("durability").is_some() => {
            Err("option --durability requires --backend file".to_string())
        }
        _ => Ok((backend, store_dir, durability)),
    }
}

fn parse_simd(opts: &Opts) -> Result<Option<SimdChoice>, String> {
    match opts.get("simd") {
        None => Ok(None),
        Some(s) => SimdChoice::parse(s)
            .map(Some)
            .map_err(|e| format!("option --simd: {e}")),
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
            });
        };
        let opts = Opts::parse(&argv[1..], &["smoke"])?;
        let command = match cmd.as_str() {
            "help" | "--help" | "-h" => Command::Help,
            "info" => {
                opts.reject_unknown(&["data", "page-bytes"])?;
                Command::Info {
                    data: opts.required("data")?,
                    page_bytes: opts.parse_or("page-bytes", 8192usize)?,
                }
            }
            "predict" => {
                opts.reject_unknown(&[
                    "data",
                    "page-bytes",
                    "m",
                    "predictor",
                    "queries",
                    "k",
                    "h-upper",
                    "zeta",
                    "seed",
                    "threads",
                    "fault-seed",
                    "fault-ppm",
                    "fault-phase-scale",
                    "retry-policy",
                    "retry-budget",
                    "simd",
                ])?;
                let predictor = opts.get("predictor").unwrap_or("resampled").to_string();
                if !PREDICTOR_NAMES.contains(&predictor.as_str()) {
                    return Err(format!(
                        "unknown predictor `{predictor}` (expected one of {})",
                        PREDICTOR_NAMES.join(", ")
                    ));
                }
                Command::Predict {
                    data: opts.required("data")?,
                    page_bytes: opts.parse_or("page-bytes", 8192usize)?,
                    m: opts
                        .parse_opt("m")?
                        .ok_or("missing required option --m".to_string())?,
                    predictor,
                    queries: opts.parse_or("queries", 500usize)?,
                    k: opts.parse_or("k", 21usize)?,
                    h_upper: opts.parse_opt("h-upper")?,
                    zeta: opts.parse_opt("zeta")?,
                    seed: opts.parse_or("seed", 42u64)?,
                    threads: parse_threads(&opts)?,
                    fault_seed: opts.parse_opt("fault-seed")?,
                    fault_ppm: opts.parse_opt("fault-ppm")?,
                    retry: parse_retry(&opts)?,
                    fault_phase_scale: parse_phase_scale(&opts)?,
                    simd: parse_simd(&opts)?,
                }
            }
            "compare" => {
                opts.reject_unknown(&[
                    "data",
                    "page-bytes",
                    "m",
                    "queries",
                    "k",
                    "seed",
                    "threads",
                    "fault-seed",
                    "fault-ppm",
                    "fault-phase-scale",
                    "retry-policy",
                    "retry-budget",
                    "simd",
                ])?;
                Command::Compare {
                    data: opts.required("data")?,
                    page_bytes: opts.parse_or("page-bytes", 8192usize)?,
                    m: opts
                        .parse_opt("m")?
                        .ok_or("missing required option --m".to_string())?,
                    queries: opts.parse_or("queries", 500usize)?,
                    k: opts.parse_or("k", 21usize)?,
                    seed: opts.parse_or("seed", 42u64)?,
                    threads: parse_threads(&opts)?,
                    fault_seed: opts.parse_opt("fault-seed")?,
                    fault_ppm: opts.parse_opt("fault-ppm")?,
                    retry: parse_retry(&opts)?,
                    fault_phase_scale: parse_phase_scale(&opts)?,
                    simd: parse_simd(&opts)?,
                }
            }
            "measure" => {
                opts.reject_unknown(&[
                    "data",
                    "page-bytes",
                    "m",
                    "queries",
                    "k",
                    "seed",
                    "threads",
                    "fault-seed",
                    "fault-ppm",
                    "fault-phase-scale",
                    "retry-policy",
                    "retry-budget",
                    "backend",
                    "store",
                    "durability",
                    "simd",
                ])?;
                let (backend, store_dir, durability) = parse_backend(&opts)?;
                Command::Measure {
                    data: opts.required("data")?,
                    page_bytes: opts.parse_or("page-bytes", 8192usize)?,
                    m: opts
                        .parse_opt("m")?
                        .ok_or("missing required option --m".to_string())?,
                    queries: opts.parse_or("queries", 500usize)?,
                    k: opts.parse_or("k", 21usize)?,
                    seed: opts.parse_or("seed", 42u64)?,
                    threads: parse_threads(&opts)?,
                    fault_seed: opts.parse_opt("fault-seed")?,
                    fault_ppm: opts.parse_opt("fault-ppm")?,
                    retry: parse_retry(&opts)?,
                    fault_phase_scale: parse_phase_scale(&opts)?,
                    backend,
                    store_dir,
                    durability,
                    simd: parse_simd(&opts)?,
                }
            }
            "serve" => {
                opts.reject_unknown(&[
                    "data",
                    "page-bytes",
                    "m",
                    "rate",
                    "duration",
                    "mix",
                    "arrivals",
                    "concurrency",
                    "batch",
                    "deadline",
                    "lanes",
                    "breaker",
                    "hedge-ms",
                    "only",
                    "scrub-slice",
                    "queries",
                    "k",
                    "seed",
                    "threads",
                    "fault-seed",
                    "fault-ppm",
                    "fault-phase-scale",
                    "retry-policy",
                    "retry-budget",
                    "smoke",
                    "backend",
                    "store",
                    "durability",
                    "simd",
                ])?;
                let (backend, store_dir, durability) = parse_backend(&opts)?;
                // --smoke shrinks the open-loop window to CI scale while
                // keeping every knob overridable.
                let smoke = opts.has_flag("smoke");
                let mix = match opts.get("mix") {
                    None => MixSpec::default(),
                    Some(spec) => MixSpec::parse(spec).map_err(|e| format!("option --mix: {e}"))?,
                };
                let arrivals = match opts.get("arrivals") {
                    None => ArrivalModel::Fixed,
                    Some(name) => {
                        ArrivalModel::parse(name).map_err(|e| format!("option --arrivals: {e}"))?
                    }
                };
                let concurrency: usize = opts.parse_or("concurrency", 4usize)?;
                if concurrency == 0 {
                    return Err("option --concurrency: must be at least 1".to_string());
                }
                let batch: usize = opts.parse_or("batch", 8usize)?;
                if batch == 0 {
                    return Err("option --batch: must be at least 1".to_string());
                }
                let deadlines = match opts.get("deadline") {
                    None => Deadlines::none(),
                    Some(spec) => {
                        Deadlines::parse(spec).map_err(|e| format!("option --deadline: {e}"))?
                    }
                };
                let lanes = match opts.get("lanes") {
                    None => None,
                    Some(spec) => {
                        Some(LanePolicy::parse(spec).map_err(|e| format!("option --lanes: {e}"))?)
                    }
                };
                let breaker = match opts.get("breaker") {
                    None => None,
                    Some(spec) => Some(
                        BreakerConfig::parse(spec).map_err(|e| format!("option --breaker: {e}"))?,
                    ),
                };
                let hedge_s = match opts.get("hedge-ms") {
                    None => f64::INFINITY,
                    Some(_) => parse_positive_or(&opts, "hedge-ms", 50.0)? / 1000.0,
                };
                let overload = OverloadPolicy {
                    deadlines,
                    lanes,
                    breaker,
                    hedge_s,
                };
                overload.validate().map_err(|e| e.to_string())?;
                let only = match opts.get("only") {
                    None => None,
                    Some(name) => {
                        Some(QueryClass::parse(name).map_err(|e| format!("option --only: {e}"))?)
                    }
                };
                let scrub_slice: Option<u64> = opts.parse_opt("scrub-slice")?;
                if scrub_slice == Some(0) {
                    return Err("option --scrub-slice: must be at least 1 page".to_string());
                }
                Command::Serve {
                    data: opts.required("data")?,
                    page_bytes: opts.parse_or("page-bytes", 8192usize)?,
                    m: opts
                        .parse_opt("m")?
                        .ok_or("missing required option --m".to_string())?,
                    rate: parse_positive_or(&opts, "rate", if smoke { 80.0 } else { 200.0 })?,
                    duration: parse_positive_or(&opts, "duration", if smoke { 1.0 } else { 10.0 })?,
                    mix,
                    arrivals,
                    concurrency,
                    batch,
                    overload,
                    only,
                    scrub_slice,
                    queries: opts.parse_or("queries", if smoke { 24usize } else { 500 })?,
                    k: opts.parse_or("k", if smoke { 5usize } else { 21 })?,
                    seed: opts.parse_or("seed", 42u64)?,
                    threads: parse_threads(&opts)?,
                    fault_seed: opts.parse_opt("fault-seed")?,
                    fault_ppm: opts.parse_opt("fault-ppm")?,
                    retry: parse_retry(&opts)?,
                    fault_phase_scale: parse_phase_scale(&opts)?,
                    backend,
                    store_dir,
                    durability,
                    simd: parse_simd(&opts)?,
                }
            }
            "scrub" => {
                opts.reject_unknown(&["store", "durability"])?;
                let durability = match opts.get("durability") {
                    None => Durability::PerBatch,
                    Some(s) => {
                        Durability::parse(s).map_err(|e| format!("option --durability: {e}"))?
                    }
                };
                Command::Scrub {
                    store_dir: opts.required("store")?,
                    durability,
                }
            }
            "generate" => {
                opts.reject_unknown(&["dataset", "scale", "out"])?;
                Command::Generate {
                    dataset: opts.required("dataset")?,
                    scale: opts.parse_or("scale", 1.0f64)?,
                    out: opts.required("out")?,
                }
            }
            other => return Err(format!("unknown command `{other}`\n{USAGE}")),
        };
        Ok(Cli { command })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_predict_with_defaults() {
        let cli = Cli::parse(&argv("predict --data a.csv --m 1000")).unwrap();
        match cli.command {
            Command::Predict {
                data,
                page_bytes,
                m,
                predictor,
                queries,
                k,
                h_upper,
                zeta,
                seed,
                threads,
                fault_seed,
                fault_ppm,
                retry,
                fault_phase_scale,
                simd,
            } => {
                assert_eq!(data, "a.csv");
                assert_eq!(page_bytes, 8192);
                assert_eq!(m, 1000);
                assert_eq!(predictor, "resampled");
                assert_eq!(queries, 500);
                assert_eq!(k, 21);
                assert_eq!(h_upper, None);
                assert_eq!(zeta, None);
                assert_eq!(seed, 42);
                assert_eq!(threads, None);
                assert_eq!(fault_seed, None);
                assert_eq!(fault_ppm, None);
                assert_eq!(retry, None);
                assert_eq!(fault_phase_scale, None);
                assert_eq!(simd, None);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_simd_flag() {
        let cli = Cli::parse(&argv("predict --data a.csv --m 10 --simd scalar")).unwrap();
        match cli.command {
            Command::Predict { simd, .. } => {
                assert_eq!(simd, Some(SimdChoice::Fixed(hdidx_core::Isa::Scalar)));
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cli = Cli::parse(&argv("serve --data a.csv --m 10 --simd auto")).unwrap();
        match cli.command {
            Command::Serve { simd, .. } => assert_eq!(simd, Some(SimdChoice::Auto)),
            other => panic!("wrong command: {other:?}"),
        }
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
        match cli.command {
            Command::Predict {
                predictor,
                zeta,
                queries,
                k,
                seed,
                threads,
                ..
            } => {
                assert_eq!(predictor, "basic");
                assert_eq!(zeta, Some(0.3));
                assert_eq!(queries, 10);
                assert_eq!(k, 5);
                assert_eq!(seed, 7);
                assert_eq!(threads, Some(2));
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn every_registry_name_parses() {
        for &name in PREDICTOR_NAMES {
            let cli = Cli::parse(&argv(&format!(
                "predict --data a.csv --m 10 --predictor {name}"
            )))
            .unwrap();
            match cli.command {
                Command::Predict { predictor, .. } => assert_eq!(predictor, name),
                other => panic!("wrong command: {other:?}"),
            }
        }
    }

    #[test]
    fn parses_fault_flags() {
        let cli = Cli::parse(&argv(
            "measure --data d.csv --m 100 --fault-seed 7 --fault-ppm 20000",
        ))
        .unwrap();
        match cli.command {
            Command::Measure {
                fault_seed,
                fault_ppm,
                ..
            } => {
                assert_eq!(fault_seed, Some(7));
                assert_eq!(fault_ppm, Some(20_000));
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(Cli::parse(&argv("predict --data a.csv --m 10 --fault-seed x")).is_err());
        assert!(Cli::parse(&argv("compare --data a.csv --m 10 --fault-ppm -1")).is_err());
        // info/generate take no fault flags.
        assert!(Cli::parse(&argv("info --data a.csv --fault-seed 1")).is_err());
    }

    #[test]
    fn parses_retry_flags() {
        let cli = Cli::parse(&argv(
            "measure --data d.csv --m 100 --retry-policy exponential",
        ))
        .unwrap();
        match cli.command {
            Command::Measure { retry, .. } => assert_eq!(retry, Some(RetryPolicy::Exponential)),
            other => panic!("wrong command: {other:?}"),
        }
        // A budget alone implies the budgeted policy; alongside a policy
        // name it configures that policy.
        let cli = Cli::parse(&argv("compare --data d.csv --m 100 --retry-budget 9")).unwrap();
        match cli.command {
            Command::Compare { retry, .. } => {
                assert_eq!(retry, Some(RetryPolicy::Budgeted { budget_seeks: 9 }));
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cli = Cli::parse(&argv(
            "predict --data d.csv --m 100 --retry-policy budgeted --retry-budget 17",
        ))
        .unwrap();
        match cli.command {
            Command::Predict { retry, .. } => {
                assert_eq!(retry, Some(RetryPolicy::Budgeted { budget_seeks: 17 }));
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(Cli::parse(&argv("predict --data d.csv --m 1 --retry-policy bogus")).is_err());
        assert!(Cli::parse(&argv("predict --data d.csv --m 1 --retry-budget x")).is_err());
        // info/generate take no retry flags.
        assert!(Cli::parse(&argv("info --data d.csv --retry-policy fixed")).is_err());
    }

    #[test]
    fn parses_phase_scale() {
        // Named phases are set, unnamed phases default to 100.
        let cli = Cli::parse(&argv(
            "compare --data d.csv --m 100 --fault-phase-scale build:5,predict:300",
        ))
        .unwrap();
        match cli.command {
            Command::Compare {
                fault_phase_scale, ..
            } => assert_eq!(fault_phase_scale, Some([5, 100, 300])),
            other => panic!("wrong command: {other:?}"),
        }
        let cli = Cli::parse(&argv(
            "predict --data d.csv --m 100 --fault-phase-scale query:0",
        ))
        .unwrap();
        match cli.command {
            Command::Predict {
                fault_phase_scale, ..
            } => assert_eq!(fault_phase_scale, Some([100, 0, 100])),
            other => panic!("wrong command: {other:?}"),
        }
        let bad = [
            "measure --data d.csv --m 1 --fault-phase-scale flush:50",
            "measure --data d.csv --m 1 --fault-phase-scale build",
            "measure --data d.csv --m 1 --fault-phase-scale build:lots",
            // info/generate take no phase-scale flag.
            "info --data d.csv --fault-phase-scale build:50",
        ];
        for args in bad {
            assert!(Cli::parse(&argv(args)).is_err(), "should reject: {args}");
        }
    }

    #[test]
    fn parses_backend_flags() {
        // Default: the simulated backend, no store directory.
        let cli = Cli::parse(&argv("measure --data d.csv --m 100")).unwrap();
        match cli.command {
            Command::Measure {
                backend,
                store_dir,
                durability,
                ..
            } => {
                assert_eq!(backend, Backend::Sim);
                assert_eq!(store_dir, None);
                assert_eq!(durability, Durability::PerBatch);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cli = Cli::parse(&argv(
            "measure --data d.csv --m 100 --backend file --store /tmp/st --durability every-8",
        ))
        .unwrap();
        match cli.command {
            Command::Measure {
                backend,
                store_dir,
                durability,
                ..
            } => {
                assert_eq!(backend, Backend::File);
                assert_eq!(store_dir.as_deref(), Some("/tmp/st"));
                assert_eq!(durability, Durability::EveryN(8));
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cli = Cli::parse(&argv(
            "serve --data d.csv --m 100 --smoke --backend file --store s --durability none",
        ))
        .unwrap();
        match cli.command {
            Command::Serve {
                backend,
                durability,
                ..
            } => {
                assert_eq!(backend, Backend::File);
                assert_eq!(durability, Durability::None);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let bad = [
            // The file backend needs a store; sim rejects store/durability.
            "measure --data d.csv --m 10 --backend file",
            "measure --data d.csv --m 10 --store /tmp/x",
            "measure --data d.csv --m 10 --durability none",
            "measure --data d.csv --m 10 --backend ramdisk --store s",
            "serve --data d.csv --m 10 --backend file",
            "measure --data d.csv --m 10 --backend file --store s --durability every-0",
            "measure --data d.csv --m 10 --backend file --store s --durability fsync",
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
        let cli = Cli::parse(&argv("scrub --store /tmp/st")).unwrap();
        assert_eq!(
            cli.command,
            Command::Scrub {
                store_dir: "/tmp/st".into(),
                durability: Durability::PerBatch,
            }
        );
        let cli = Cli::parse(&argv("scrub --store s --durability every-4")).unwrap();
        assert_eq!(
            cli.command,
            Command::Scrub {
                store_dir: "s".into(),
                durability: Durability::EveryN(4),
            }
        );
        let bad = [
            "scrub",                              // --store is required
            "scrub --durability none",            // still required
            "scrub --store s --durability fsync", // unknown mode
            "scrub --store s --backend file",     // no backend flag here
            "scrub --store s --data d.csv",       // no data flag either
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
    }

    #[test]
    fn parses_serve_with_defaults_and_smoke() {
        let cli = Cli::parse(&argv("serve --data a.csv --m 400")).unwrap();
        match cli.command {
            Command::Serve {
                data,
                rate,
                duration,
                mix,
                arrivals,
                concurrency,
                batch,
                overload,
                queries,
                k,
                seed,
                ..
            } => {
                assert_eq!(data, "a.csv");
                assert_eq!(rate, 200.0);
                assert_eq!(duration, 10.0);
                assert_eq!(mix, MixSpec::default());
                assert_eq!(arrivals, ArrivalModel::Fixed);
                assert_eq!(concurrency, 4);
                assert_eq!(batch, 8);
                assert_eq!(overload.lanes, None, "nothing sheds by default");
                assert_eq!(queries, 500);
                assert_eq!(k, 21);
                assert_eq!(seed, 42);
            }
            other => panic!("wrong command: {other:?}"),
        }
        // --smoke is a bare flag (no value) shrinking the defaults but
        // keeping explicit overrides.
        let cli = Cli::parse(&argv("serve --data a.csv --m 400 --smoke --k 3")).unwrap();
        match cli.command {
            Command::Serve {
                rate,
                duration,
                queries,
                k,
                ..
            } => {
                assert_eq!(rate, 80.0);
                assert_eq!(duration, 1.0);
                assert_eq!(queries, 24);
                assert_eq!(k, 3);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cli = Cli::parse(&argv(
            "serve --data a.csv --m 400 --rate 50 --duration 2.5 --arrivals bursty \
             --mix range:1.0 --concurrency 2 --batch 16 --lanes 0.25",
        ))
        .unwrap();
        match cli.command {
            Command::Serve {
                rate,
                duration,
                mix,
                arrivals,
                concurrency,
                batch,
                overload,
                ..
            } => {
                assert_eq!(rate, 50.0);
                assert_eq!(duration, 2.5);
                assert_eq!(mix.range, 1.0);
                assert_eq!(arrivals, ArrivalModel::Bursty);
                assert_eq!(concurrency, 2);
                assert_eq!(batch, 16);
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
        let cli = Cli::parse(&argv(
            "serve --data a.csv --m 400 --deadline range:0.1,knn:0.2 \
             --lanes predict:0,knn:0.5 --breaker 3:0.5:1:2 --hedge-ms 50 \
             --only range --scrub-slice 8",
        ))
        .unwrap();
        match cli.command {
            Command::Serve {
                overload,
                only,
                scrub_slice,
                ..
            } => {
                assert_eq!(overload.deadlines.get(QueryClass::Range), 0.1);
                assert_eq!(overload.deadlines.get(QueryClass::Knn), 0.2);
                assert!(overload.deadlines.get(QueryClass::Predict).is_infinite());
                let lanes = overload.lanes.unwrap();
                assert_eq!(lanes.get(QueryClass::Predict), 0.0);
                assert_eq!(lanes.get(QueryClass::Knn), 0.5);
                assert!(lanes.get(QueryClass::Range).is_infinite());
                let breaker = overload.breaker.unwrap();
                assert_eq!(breaker.failure_threshold, 3);
                assert_eq!(breaker.probes, 2);
                assert!((overload.hedge_s - 0.05).abs() < 1e-12);
                assert_eq!(only, Some(QueryClass::Range));
                assert_eq!(scrub_slice, Some(8));
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Defaults: every knob off.
        let cli = Cli::parse(&argv("serve --data a.csv --m 400")).unwrap();
        match cli.command {
            Command::Serve {
                overload,
                only,
                scrub_slice,
                ..
            } => {
                assert!(overload.is_noop());
                assert_eq!(only, None);
                assert_eq!(scrub_slice, None);
            }
            other => panic!("wrong command: {other:?}"),
        }
        // A bare number deadlines every class; `inf` spells protection.
        let cli = Cli::parse(&argv("serve --data a.csv --m 400 --deadline 0.25")).unwrap();
        match cli.command {
            Command::Serve { overload, .. } => {
                for c in QueryClass::ALL {
                    assert_eq!(overload.deadlines.get(c), 0.25);
                }
            }
            other => panic!("wrong command: {other:?}"),
        }
        let bad = [
            "serve --data a.csv --m 10 --deadline 0",
            "serve --data a.csv --m 10 --deadline scan:1",
            "serve --data a.csv --m 10 --lanes range:-1",
            "serve --data a.csv --m 10 --breaker 0:0.5:1",
            "serve --data a.csv --m 10 --breaker 3:0.5",
            "serve --data a.csv --m 10 --hedge-ms 0",
            "serve --data a.csv --m 10 --hedge-ms -5",
            "serve --data a.csv --m 10 --only scan",
            "serve --data a.csv --m 10 --scrub-slice 0",
            // Overload flags are serve-only.
            "measure --data a.csv --m 10 --deadline 0.1",
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
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(Cli::parse(&[]).unwrap().command, Command::Help);
        assert_eq!(Cli::parse(&argv("help")).unwrap().command, Command::Help);
        assert_eq!(Cli::parse(&argv("--help")).unwrap().command, Command::Help);
    }

    #[test]
    fn parses_generate_and_measure() {
        let cli = Cli::parse(&argv(
            "generate --dataset texture60 --scale 0.1 --out o.csv",
        ))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Generate {
                dataset: "texture60".into(),
                scale: 0.1,
                out: "o.csv".into()
            }
        );
        let cli = Cli::parse(&argv("measure --data d.csv --m 100")).unwrap();
        match cli.command {
            Command::Measure { m, queries, .. } => {
                assert_eq!(m, 100);
                assert_eq!(queries, 500);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }
}
