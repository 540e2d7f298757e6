//! The PR's robustness contract, end to end across crates:
//!
//! 1. **Zero-fault identity** — installing a zero-rate fault plan is
//!    byte-identical to running with no plan at all: same trees, same
//!    `IoStats`, same predictions, empty trace.
//! 2. **Seeded reproducibility, thread-count independent** — the same
//!    fault seed reproduces the identical fault trace, retry counts and
//!    degraded output for 1, 2 and 8 worker threads (the workspace
//!    determinism contract extended to the failure paths).
//! 3. **Monotone, graceful degradation** — raising the fault rate can
//!    only degrade more upper leaves and lower the resampled coverage,
//!    never the reverse, and predictions under moderate fault pressure
//!    stay close to the fault-free estimate instead of collapsing.
//! 4. **Bursts are confined to their declared regions** — every fault
//!    the correlated-burst model injects hits an access overlapping a
//!    bad region from the seeded layout; accesses that touch no bad
//!    region never fail under a burst-only plan.

use hdidx_check::{check, prop_assert, Config, Verdict};
use hdidx_rand::{seeded, Rng};
use hdidx_repro::core::Dataset;
use hdidx_repro::diskio::external::{build_on_disk, ExternalConfig};
use hdidx_repro::diskio::measure::measure_on_disk;
use hdidx_repro::diskio::{Disk, DiskOptions};
use hdidx_repro::faults::{BurstConfig, FaultConfig, RetryPolicy};
use hdidx_repro::model::{QueryBall, Resampled, ResampledParams};
use hdidx_repro::vamsplit::topology::{PageConfig, Topology};

const THREAD_COUNTS: &[usize] = &[1, 2, 8];

fn clustered_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let data: Vec<f32> = (0..n * dim)
        .map(|i| {
            let cluster = ((i / dim) % 7) as f32 * 0.13;
            cluster + 0.1 * rng.gen::<f32>()
        })
        .collect();
    Dataset::from_flat(dim, data).unwrap()
}

fn workload(data: &Dataset, q: usize) -> Vec<QueryBall> {
    (0..q)
        .map(|i| QueryBall::new(data.point(i * 173).to_vec(), 0.05 + 0.01 * i as f64))
        .collect()
}

/// Contract 1: a zero-rate plan must not perturb anything — the fault
/// path's charging is the fault-free path's charging.
#[test]
fn zero_fault_plan_is_byte_identical_across_the_stack() {
    let n = 6_000;
    let data = clustered_dataset(n, 6, 29);
    let topo = Topology::new(6, n, &PageConfig::DEFAULT).unwrap();
    let centers: Vec<Vec<f32>> = (0..15).map(|i| data.point(i * 311).to_vec()).collect();
    let queries = workload(&data, 25);
    let base = ExternalConfig::with_mem_points(900).unwrap();
    let zeroed = ExternalConfig {
        faults: Some(FaultConfig::disabled(77)),
        ..base
    };

    // External build: identical tree and I/O, empty trace.
    let plain = build_on_disk(&data, &topo, &base).unwrap();
    let zero = build_on_disk(&data, &topo, &zeroed).unwrap();
    assert_eq!(plain.tree, zero.tree);
    assert_eq!(plain.io, zero.io);
    assert!(zero.fault_trace.is_empty());

    // Measurement: identical build + query bill and leaf counts.
    let m_plain = measure_on_disk(&data, &topo, &centers, 7, &base).unwrap();
    let m_zero = measure_on_disk(&data, &topo, &centers, 7, &zeroed).unwrap();
    assert_eq!(m_plain.build_io, m_zero.build_io);
    assert_eq!(m_plain.query_io, m_zero.query_io);
    assert_eq!(
        m_plain.per_query_leaf_accesses,
        m_zero.per_query_leaf_accesses
    );
    assert!(m_zero.fault_trace.is_empty());

    // Resampled predictor: identical prediction, fully healthy report.
    let params = ResampledParams {
        m: 900,
        h_upper: 2,
        seed: 3,
    };
    let p_plain = Resampled::new(params).run(&data, &topo, &queries).unwrap();
    let p_zero = Resampled::new(params)
        .with_faults(Some(FaultConfig::disabled(77)))
        .run(&data, &topo, &queries)
        .unwrap();
    assert_eq!(p_plain.prediction.per_query, p_zero.prediction.per_query);
    assert_eq!(p_plain.prediction.io, p_zero.prediction.io);
    assert_eq!(p_plain.prediction.degraded, p_zero.prediction.degraded);
    assert!(!p_zero.prediction.degraded.is_degraded());
    assert!((p_zero.prediction.degraded.coverage_fraction - 1.0).abs() < 1e-12);
    assert!(p_zero.fault_trace.is_empty());
    assert_eq!(p_zero.prediction.io.retries, 0);
}

/// Contract 2: the same fault seed replays the identical fault trace,
/// retry counts and degraded report for every thread count. Varies the
/// *global* thread configuration, so everything thread-sensitive lives in
/// this one `#[test]` (the setting is process-wide).
#[test]
fn same_seed_reproduces_faults_for_any_thread_count() {
    let n = 9_000;
    let data = clustered_dataset(n, 6, 31);
    let topo = Topology::new(6, n, &PageConfig::DEFAULT).unwrap();
    let queries = workload(&data, 30);
    let fcfg = FaultConfig::disabled(13).with_rate_ppm(150_000).unwrap();
    let predictor = Resampled::new(ResampledParams {
        m: 1_200,
        h_upper: 2,
        seed: 5,
    })
    .with_faults(Some(fcfg));

    hdidx_repro::pool::set_threads(1);
    let reference = predictor.run(&data, &topo, &queries).unwrap();
    assert!(
        !reference.fault_trace.is_empty(),
        "15% fault pressure must inject something"
    );
    assert!(reference.prediction.io.retries > 0);

    for &t in THREAD_COUNTS {
        hdidx_repro::pool::set_threads(t);
        let run = predictor.run(&data, &topo, &queries).unwrap();
        assert_eq!(
            reference.fault_trace, run.fault_trace,
            "fault trace differs at t={t}"
        );
        assert_eq!(
            reference.prediction.io, run.prediction.io,
            "I/O (incl. retries) differs at t={t}"
        );
        assert_eq!(
            reference.prediction.degraded, run.prediction.degraded,
            "degraded report differs at t={t}"
        );
        assert_eq!(
            reference.prediction.per_query, run.prediction.per_query,
            "predictions differ at t={t}"
        );
    }
    // Burst pin: the correlated-burst layout and the exponential-backoff
    // charging are part of the same determinism contract — identical
    // traces (bursts included), retry counts, charged backoff and
    // degraded output at every thread count.
    let burst = BurstConfig {
        window_pages: 4,
        region_ppm: 500_000,
        max_region_pages: 2,
        fault_ppm: 600_000,
    };
    let bursty = Resampled::new(ResampledParams {
        m: 1_200,
        h_upper: 2,
        seed: 5,
    })
    .with_faults(Some(
        fcfg.with_burst(Some(burst))
            .with_retry(RetryPolicy::Exponential),
    ));
    hdidx_repro::pool::set_threads(1);
    let burst_ref = bursty.run(&data, &topo, &queries).unwrap();
    assert!(
        burst_ref.fault_trace.iter().any(|e| e.burst),
        "the burst model must inject at least once under this layout"
    );
    assert!(
        burst_ref.prediction.io.backoff > 0,
        "exponential retry must charge backoff latency"
    );
    for &t in THREAD_COUNTS {
        hdidx_repro::pool::set_threads(t);
        let run = bursty.run(&data, &topo, &queries).unwrap();
        assert_eq!(
            burst_ref.fault_trace, run.fault_trace,
            "burst fault trace differs at t={t}"
        );
        assert_eq!(
            burst_ref.prediction.io, run.prediction.io,
            "I/O (incl. backoff) differs at t={t}"
        );
        assert_eq!(
            burst_ref.prediction.degraded, run.prediction.degraded,
            "degraded report differs at t={t}"
        );
        assert_eq!(
            burst_ref.prediction.per_query, run.prediction.per_query,
            "predictions differ at t={t}"
        );
    }
    hdidx_repro::pool::set_threads(1);

    // The (serial) on-disk measurement replays its trace under the same
    // seed too. It has no degradation fallback — an exhausted access is a
    // hard `IoFault` — so it runs at a gentler rate that bounded retry
    // always absorbs.
    let centers: Vec<Vec<f32>> = (0..10).map(|i| data.point(i * 419).to_vec()).collect();
    let mut cfg = ExternalConfig::with_mem_points(1_200).unwrap();
    cfg.faults = Some(fcfg.with_rate_ppm(30_000).unwrap());
    let a = measure_on_disk(&data, &topo, &centers, 7, &cfg).unwrap();
    let b = measure_on_disk(&data, &topo, &centers, 7, &cfg).unwrap();
    assert_eq!(a.fault_trace, b.fault_trace);
    assert_eq!(a.total_io(), b.total_io());
    assert!(a.total_io().retries > 0);
}

/// Contract 3: for a fixed seed, raising the fault rate degrades the
/// resampled prediction monotonically (fault decisions are keyed per
/// access, so a higher rate only adds faults) and gracefully (degraded
/// leaves fall back to cutoff extrapolation instead of failing the run).
#[test]
fn degradation_is_monotone_and_graceful_in_the_fault_rate() {
    let n = 9_000;
    let data = clustered_dataset(n, 6, 37);
    let topo = Topology::new(6, n, &PageConfig::DEFAULT).unwrap();
    let queries = workload(&data, 30);
    let params = ResampledParams {
        m: 1_200,
        h_upper: 2,
        seed: 9,
    };
    let healthy = Resampled::new(params).run(&data, &topo, &queries).unwrap();
    let healthy_avg = healthy.prediction.avg_leaf_accesses();
    assert!(healthy_avg > 0.0);

    let mut last_degraded = 0usize;
    let mut last_coverage = 1.0f64;
    let mut last_retries = 0u64;
    let mut saw_degradation = false;
    for ppm in [0u32, 20_000, 100_000, 250_000, 400_000] {
        // The seed must keep the predictor's one load-bearing access (the
        // initial dataset scan, a hard failure by design) alive at every
        // swept rate; everything downstream degrades per area.
        let fcfg = FaultConfig::disabled(22).with_rate_ppm(ppm).unwrap();
        let run = Resampled::new(params)
            .with_faults(Some(fcfg))
            .run(&data, &topo, &queries)
            .unwrap_or_else(|e| panic!("rate {ppm} ppm must degrade, not fail: {e}"));
        let d = run.prediction.degraded;
        assert!(
            d.leaves_degraded >= last_degraded,
            "{ppm} ppm: degraded leaves fell from {last_degraded} to {}",
            d.leaves_degraded
        );
        assert!(
            d.coverage_fraction <= last_coverage + 1e-12,
            "{ppm} ppm: coverage rose from {last_coverage} to {}",
            d.coverage_fraction
        );
        assert!(
            run.prediction.io.retries >= last_retries,
            "{ppm} ppm: retries fell from {last_retries} to {}",
            run.prediction.io.retries
        );
        // Graceful: the cutoff fallback keeps the estimate in the same
        // ballpark as the fault-free prediction, never zero or wild.
        let avg = run.prediction.avg_leaf_accesses();
        assert!(
            avg >= 0.3 * healthy_avg && avg <= 3.0 * healthy_avg,
            "{ppm} ppm: estimate {avg} strayed from healthy {healthy_avg}"
        );
        saw_degradation |= d.is_degraded();
        last_degraded = d.leaves_degraded;
        last_coverage = d.coverage_fraction;
        last_retries = run.prediction.io.retries;
    }
    assert!(
        saw_degradation,
        "the sweep must actually exercise the fallback path"
    );
    assert!(last_coverage < 1.0);
}

/// Contract 4: under a burst-only plan (all point rates zero), a fault can
/// only fire on an access whose range overlaps a bad region of the seeded
/// layout, torn tears exactly at the first bad page, and ranges that
/// touch no bad region always succeed.
#[test]
fn burst_faults_never_fire_outside_declared_regions() {
    const FILE_PAGES: u64 = 512;
    let burst = BurstConfig {
        window_pages: 16,
        region_ppm: 300_000,
        max_region_pages: 8,
        fault_ppm: 1_000_000, // always fire on overlap: exercises both sides
    };
    check(
        "burst_faults_never_fire_outside_declared_regions",
        &Config::with_cases(96),
        |rng| {
            let seed = rng.gen::<u64>();
            let count = 1 + (rng.gen::<u64>() % 40) as usize;
            let accesses: Vec<(u64, u64)> = (0..count)
                .map(|_| {
                    let page = rng.gen::<u64>() % FILE_PAGES;
                    let len = 1 + rng.gen::<u64>() % 24.min(FILE_PAGES - page);
                    (page, len)
                })
                .collect();
            (seed, accesses)
        },
        |(seed, accesses)| {
            let mut disk = Disk::with_options(
                &DiskOptions::new()
                    .fault_plan(Some(FaultConfig::disabled(*seed).with_burst(Some(burst)))),
            );
            let file = disk.alloc(FILE_PAGES).unwrap();
            for &(page, len) in accesses {
                let clean = burst.first_bad_page(*seed, page, len).is_none();
                let outcome = disk.access(&file, page, len);
                prop_assert!(
                    clean == outcome.is_ok(),
                    "access ({page}, {len}): clean={clean} but ok={}",
                    outcome.is_ok()
                );
            }
            for event in disk.fault_trace() {
                prop_assert!(event.burst, "point fault from a burst-only plan");
                let first_bad = burst.first_bad_page(*seed, event.page, event.n_pages);
                prop_assert!(
                    first_bad.is_some(),
                    "burst fault at ({}, {}) outside every declared region",
                    event.page,
                    event.n_pages
                );
                if event.completed_pages > 0 {
                    prop_assert!(
                        event.page + event.completed_pages == first_bad.unwrap(),
                        "torn tear point {} != first bad page {}",
                        event.page + event.completed_pages,
                        first_bad.unwrap()
                    );
                }
            }
            Verdict::Pass
        },
    );
}
