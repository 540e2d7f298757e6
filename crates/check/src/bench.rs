//! A small micro-benchmark runner replacing `criterion` for this
//! workspace: warmup, adaptive batched timing, median/p95/min/mean and
//! throughput, and machine-readable JSON-lines output for trajectory
//! tracking across PRs (`BENCH_<suite>.json`).
//!
//! Bench targets stay `harness = false` binaries:
//!
//! ```no_run
//! use hdidx_check::bench::{black_box, BenchSuite};
//!
//! fn main() {
//!     let mut suite = BenchSuite::new("kernels");
//!     let xs: Vec<f64> = (0..1024).map(f64::from).collect();
//!     suite.bench("sum/1024", || black_box(xs.iter().sum::<f64>()));
//!     suite.finish();
//! }
//! ```
//!
//! Environment knobs (all optional):
//!
//! * `HDIDX_BENCH_SAMPLES`   — timed samples per benchmark (default 25).
//! * `HDIDX_BENCH_WARMUP_MS` — warmup wall time per benchmark (default 150).
//! * `HDIDX_BENCH_TARGET_MS` — wall time one sample aims for (default 2).
//! * `HDIDX_BENCH_OUT`       — directory for `BENCH_<suite>.json`
//!   (default: current directory).
//! * A non-flag CLI argument filters benchmarks by substring, mirroring
//!   `cargo bench -- <filter>`.

pub use std::hint::black_box;

use std::io::Write as _;
use std::time::Instant;

/// Timing policy for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Number of timed samples to record.
    pub samples: u32,
    /// Wall-clock warmup budget before sampling, in milliseconds.
    pub warmup_ms: u64,
    /// Wall-clock time one sample should take, in milliseconds. The
    /// runner batches enough iterations per sample to reach this, so
    /// nanosecond-scale kernels are not swamped by timer overhead.
    pub target_sample_ms: f64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        let mut cfg = Self {
            samples: 25,
            warmup_ms: 150,
            target_sample_ms: 2.0,
        };
        if let Ok(s) = std::env::var("HDIDX_BENCH_SAMPLES") {
            cfg.samples = s.parse().expect("HDIDX_BENCH_SAMPLES must be a u32");
        }
        if let Ok(s) = std::env::var("HDIDX_BENCH_WARMUP_MS") {
            cfg.warmup_ms = s.parse().expect("HDIDX_BENCH_WARMUP_MS must be a u64");
        }
        if let Ok(s) = std::env::var("HDIDX_BENCH_TARGET_MS") {
            cfg.target_sample_ms = s.parse().expect("HDIDX_BENCH_TARGET_MS must be an f64");
        }
        cfg
    }
}

/// Summary statistics of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (`group/param` by convention).
    pub name: String,
    /// Median of the per-iteration sample times.
    pub median_ns: f64,
    /// 95th percentile of the per-iteration sample times.
    pub p95_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Mean of the samples.
    pub mean_ns: f64,
    /// Iterations per second implied by the median.
    pub throughput_per_s: f64,
    /// Number of recorded samples.
    pub samples: u32,
    /// Iterations batched into each sample.
    pub iters_per_sample: u64,
}

/// Collects benchmarks, prints a human-readable summary and emits one
/// JSON object per benchmark into `BENCH_<suite>.json`.
pub struct BenchSuite {
    suite: String,
    config: BenchConfig,
    filter: Option<String>,
    isa: Option<String>,
    results: Vec<BenchResult>,
}

impl BenchSuite {
    /// Creates a suite named `suite`, reading the filter from the CLI
    /// arguments (flags such as `--bench`, which cargo passes to
    /// `harness = false` targets, are ignored).
    #[must_use]
    pub fn new(suite: &str) -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'))
            .filter(|a| !a.is_empty());
        Self {
            suite: suite.to_string(),
            config: BenchConfig::default(),
            filter,
            isa: None,
            results: Vec::new(),
        }
    }

    /// Records the active SIMD ISA (e.g. `avx2 (detected)`); every JSON
    /// row of the suite then carries it in an `"isa"` field so
    /// perf-trajectory artifacts are comparable across machines. The
    /// `hdidx-check` crate deliberately does not depend on `hdidx-core`,
    /// so bench targets pass `hdidx_core::simd::describe()` in here.
    pub fn set_isa(&mut self, isa: &str) {
        self.isa = Some(isa.to_string());
    }

    /// Median of the recorded benchmark named `name`, in nanoseconds per
    /// iteration — lets a bench target assert relations between its own
    /// rows (e.g. batch throughput must not regress below single-query).
    #[must_use]
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
    }

    /// Fastest sample of the recorded benchmark named `name`, in
    /// nanoseconds per iteration. For cross-row assertions the min is the
    /// steadier statistic: it reflects what the code can do, where the
    /// median also carries scheduler noise.
    #[must_use]
    pub fn min_ns(&self, name: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.min_ns)
    }

    /// Replaces the default timing policy for subsequently added
    /// benchmarks.
    pub fn set_config(&mut self, config: BenchConfig) {
        self.config = config;
    }

    /// The CLI substring filter, if one was given (`cargo bench --
    /// <filter>`). Bench targets with expensive per-group setup can check
    /// this up front and skip building inputs no benchmark will consume —
    /// also how dedicated smoke groups (e.g. `soup_smoke` in the `kernels`
    /// target) are selected from CI.
    #[must_use]
    pub fn filter(&self) -> Option<&str> {
        self.filter.as_deref()
    }

    /// Times `routine` and records the result under `name`.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut routine: F) {
        if self.skipped(name) {
            return;
        }
        let cfg = self.config.clone();
        // Estimate the per-iteration cost to size the sample batches.
        let once = time_batch(&mut routine, 1);
        let per_iter_est = once.max(1.0);
        let iters_per_sample =
            ((cfg.target_sample_ms * 1e6 / per_iter_est).round() as u64).clamp(1, 100_000_000);

        // Warmup: run for the wall-time budget (at least one batch).
        let warmup_deadline = Instant::now();
        loop {
            let _ = time_batch(&mut routine, iters_per_sample.min(1_000));
            if warmup_deadline.elapsed().as_millis() as u64 >= cfg.warmup_ms {
                break;
            }
        }

        let mut samples_ns = Vec::with_capacity(cfg.samples as usize);
        for _ in 0..cfg.samples {
            samples_ns.push(time_batch(&mut routine, iters_per_sample) / iters_per_sample as f64);
        }
        self.record(name, samples_ns, iters_per_sample);
    }

    /// Times `routine(input)` where each iteration consumes a fresh value
    /// from `setup`; setup time is excluded from the measurement. Use for
    /// routines that mutate their input (e.g. in-place partitioning).
    ///
    /// Each sample is a single timed call, so this suits routines costing
    /// at least a few microseconds.
    pub fn bench_with_setup<S, T, R, F>(&mut self, name: &str, mut setup: S, mut routine: F)
    where
        S: FnMut() -> T,
        F: FnMut(T) -> R,
    {
        if self.skipped(name) {
            return;
        }
        let cfg = self.config.clone();
        let warmup_deadline = Instant::now();
        loop {
            let input = setup();
            let _ = black_box(routine(black_box(input)));
            if warmup_deadline.elapsed().as_millis() as u64 >= cfg.warmup_ms {
                break;
            }
        }
        let mut samples_ns = Vec::with_capacity(cfg.samples as usize);
        for _ in 0..cfg.samples {
            let input = setup();
            let start = Instant::now();
            let _ = black_box(routine(black_box(input)));
            samples_ns.push(start.elapsed().as_nanos() as f64);
        }
        self.record(name, samples_ns, 1);
    }

    fn skipped(&self, name: &str) -> bool {
        self.filter.as_deref().is_some_and(|f| !name.contains(f))
    }

    fn record(&mut self, name: &str, mut samples_ns: Vec<f64>, iters_per_sample: u64) {
        samples_ns.sort_by(|a, b| a.total_cmp(b));
        let n = samples_ns.len();
        let percentile = |q: f64| {
            crate::stats::interpolated(&samples_ns, q)
                .expect("bench samples are non-empty wall-clock times")
        };
        let median = percentile(0.50);
        let result = BenchResult {
            name: name.to_string(),
            median_ns: median,
            p95_ns: percentile(0.95),
            min_ns: samples_ns[0],
            mean_ns: samples_ns.iter().sum::<f64>() / n as f64,
            throughput_per_s: if median > 0.0 {
                1e9 / median
            } else {
                f64::INFINITY
            },
            samples: n as u32,
            iters_per_sample,
        };
        println!(
            "{:<44} median {:>12}  p95 {:>12}  min {:>12}  ({} samples × {} iters)",
            result.name,
            fmt_ns(result.median_ns),
            fmt_ns(result.p95_ns),
            fmt_ns(result.min_ns),
            result.samples,
            result.iters_per_sample,
        );
        self.results.push(result);
    }

    /// Prints the footer and writes `BENCH_<suite>.json` (one JSON object
    /// per line, append-friendly for trajectory tracking).
    ///
    /// # Panics
    ///
    /// Panics if the output file cannot be written — a silent bench run
    /// that records nothing is worse than a loud one.
    pub fn finish(self) {
        let dir = std::env::var("HDIDX_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
        let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.suite));
        let isa_field = self
            .isa
            .as_deref()
            .map(|isa| format!(",\"isa\":\"{}\"", json_escape(isa)))
            .unwrap_or_default();
        // The hardware thread count, so a thread-scaling row can be read
        // against the cores it ran on.
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let mut out = String::new();
        for r in &self.results {
            out.push_str(&format!(
                "{{\"suite\":\"{}\",\"name\":\"{}\",\"median_ns\":{:.1},\"p95_ns\":{:.1},\
                 \"min_ns\":{:.1},\"mean_ns\":{:.1},\"throughput_per_s\":{:.3},\
                 \"samples\":{},\"iters_per_sample\":{}{},\"nproc\":{}}}\n",
                json_escape(&self.suite),
                json_escape(&r.name),
                r.median_ns,
                r.p95_ns,
                r.min_ns,
                r.mean_ns,
                r.throughput_per_s,
                r.samples,
                r.iters_per_sample,
                isa_field,
                nproc,
            ));
        }
        let mut file = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        file.write_all(out.as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!(
            "[hdidx-check] {} benchmark(s) → {}",
            self.results.len(),
            path.display()
        );
    }
}

/// Runs `routine` `iters` times and returns the elapsed time in ns.
fn time_batch<T, F: FnMut() -> T>(routine: &mut F, iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(routine());
    }
    start.elapsed().as_nanos() as f64
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            '\t' => "\\t".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain/name_0"), "plain/name_0");
    }

    #[test]
    fn bench_produces_sane_stats_and_json() {
        let dir = std::env::temp_dir().join("hdidx_check_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("HDIDX_BENCH_OUT", &dir);
        let mut suite = BenchSuite::new("selftest");
        suite.set_config(BenchConfig {
            samples: 10,
            warmup_ms: 1,
            target_sample_ms: 0.05,
        });
        suite.set_isa("testisa (forced)");
        let xs: Vec<f64> = (0..512).map(f64::from).collect();
        suite.bench("sum/512", || black_box(xs.iter().sum::<f64>()));
        suite.bench_with_setup(
            "sort/512",
            || xs.clone(),
            |mut v| {
                v.sort_by(|a, b| a.total_cmp(b));
                v
            },
        );
        let medians: Vec<f64> = suite.results.iter().map(|r| r.median_ns).collect();
        assert_eq!(suite.results.len(), 2);
        assert!(medians.iter().all(|&m| m > 0.0 && m.is_finite()));
        for r in &suite.results {
            assert!(r.min_ns <= r.median_ns && r.median_ns <= r.p95_ns + 1e-9);
        }
        assert_eq!(suite.median_ns("sum/512"), Some(medians[0]));
        assert_eq!(suite.median_ns("no/such/row"), None);
        suite.finish();
        let written = std::fs::read_to_string(dir.join("BENCH_selftest.json")).unwrap();
        assert_eq!(written.lines().count(), 2);
        assert!(written.contains("\"median_ns\""), "{written}");
        assert!(
            written
                .lines()
                .all(|l| l.contains("\"isa\":\"testisa (forced)\"")),
            "every row must carry the isa field: {written}"
        );
        assert!(
            written.lines().all(|l| l.contains(",\"nproc\":")),
            "every row must carry the nproc field: {written}"
        );
        std::env::remove_var("HDIDX_BENCH_OUT");
    }
}
