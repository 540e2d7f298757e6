//! Benchmarks of the fault-injection layer: a zero-rate plan must be
//! essentially free next to a plain scan, and 1 % pressure shows what each
//! retry policy costs in compute (the charged backoff is simulated
//! latency, not wall time). Results land in `BENCH_faults.json`.

use hdidx_check::bench::{black_box, BenchSuite};
use hdidx_diskio::{Disk, DiskOptions};
use hdidx_faults::{BurstConfig, FaultConfig, RetryPolicy};

const SCAN_PAGES: u64 = 4096;
const CHUNK: u64 = 64;

/// Chunked scan of `SCAN_PAGES` pages, tolerating exhausted accesses
/// (counts them instead of propagating).
fn scan(plan: Option<FaultConfig>) -> (u64, u64) {
    let mut disk = Disk::with_options(&DiskOptions::new().fault_plan(plan));
    let file = disk.alloc(SCAN_PAGES).unwrap();
    let mut lost = 0u64;
    let mut p = 0u64;
    while p < SCAN_PAGES {
        let len = CHUNK.min(SCAN_PAGES - p);
        if disk.access(&file, p, len).is_err() {
            lost += 1;
        }
        p += len;
    }
    (disk.stats().transfers, lost)
}

fn main() {
    let mut suite = BenchSuite::new("faults");
    suite.set_isa(&hdidx_core::simd::describe());
    suite.bench("faults/scan_4096/no_plan", || scan(black_box(None)));
    suite.bench("faults/scan_4096/zero_rate_plan", || {
        scan(black_box(Some(FaultConfig::disabled(7))))
    });
    for (name, policy) in [
        ("fixed", RetryPolicy::Fixed),
        ("exponential", RetryPolicy::Exponential),
    ] {
        let cfg = FaultConfig::disabled(7)
            .with_rate_ppm(10_000)
            .expect("fault rate")
            .with_burst(Some(
                BurstConfig::with_fault_ppm(10_000).expect("fault rate"),
            ))
            .with_retry(policy);
        suite.bench(&format!("faults/scan_4096/pressure_1pct_{name}"), || {
            scan(black_box(Some(cfg)))
        });
    }
    suite.finish();
}
