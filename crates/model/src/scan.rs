//! The one I/O path of the analytic predictors.
//!
//! The basic and cutoff predictors read the dataset once — one sequential
//! scan (plus `q` random reads for cutoff) — and bill that I/O by
//! replaying it through the simulated [`Disk`], with or without a fault
//! plan. Under a plan, injected faults, retries and backoff latency apply:
//! the scan runs in buffered chunks of [`SCAN_CHUNK_PAGES`] pages, and a
//! chunk whose retries exhaust is *lost* — the sampled points living on it
//! are dropped and the prediction proceeds from the surviving sample.
//!
//! An ideal device (no plan) or a zero-rate plan bills exactly the closed
//! form: sequential chunks merge into one run (`1` seek, `scan_pages`
//! transfers) and the alternating-page query reads each cost one seek and
//! one transfer, exactly [`IoStats::run`] + [`IoStats::random`].

use crate::DegradedReport;
use hdidx_core::{Error, Result};
use hdidx_diskio::{Disk, DiskOptions, IoStats};
use hdidx_faults::{FaultConfig, FaultPhase};

/// Pages per buffered read of the replayed scan. Also the granularity of
/// graceful degradation: one exhausted chunk loses `SCAN_CHUNK_PAGES`
/// pages' worth of sampled points.
pub(crate) const SCAN_CHUNK_PAGES: u64 = 64;

/// Outcome of replaying a predictor's scan.
pub(crate) struct FaultedScan {
    io: IoStats,
    /// Per-chunk loss flags, chunk `c` covering pages
    /// `[c·SCAN_CHUNK_PAGES, (c+1)·SCAN_CHUNK_PAGES)` of the scan.
    lost: Vec<bool>,
    lost_chunks: usize,
}

/// Replays `query_reads` random single-page reads followed by a chunked
/// sequential scan of `scan_pages` pages through a disk carrying the
/// prediction-phase plan derived from `faults` (`None`: an ideal device).
///
/// Lost query reads are tolerated silently (the query points are already
/// in memory; only the charge is simulated) while lost scan chunks are
/// recorded for [`FaultedScan::filter_sample`].
///
/// # Errors
///
/// Propagates non-fault disk errors (allocation/bounds).
pub(crate) fn faulted_scan(
    faults: Option<FaultConfig>,
    scan_pages: u64,
    query_reads: u64,
) -> Result<FaultedScan> {
    let mut disk = Disk::with_options(
        &DiskOptions::new()
            .fault_plan(faults)
            .phase(FaultPhase::Predict),
    );
    if query_reads > 0 {
        // Alternating between two non-adjacent pages makes every read cost
        // exactly one seek and one transfer — `IoStats::random` per read.
        let qfile = disk.alloc(4)?;
        let mut flip = 0u64;
        for _ in 0..query_reads {
            crate::access_lost(disk.access(&qfile, flip, 1))?;
            flip = 2 - flip;
        }
    }
    let file = disk.alloc(scan_pages)?;
    let mut lost = Vec::with_capacity(scan_pages.div_ceil(SCAN_CHUNK_PAGES) as usize);
    let mut lost_chunks = 0usize;
    let mut p = 0u64;
    while p < scan_pages {
        let len = SCAN_CHUNK_PAGES.min(scan_pages - p);
        let chunk_lost = crate::access_lost(disk.access(&file, p, len))?;
        if chunk_lost {
            lost_chunks += 1;
        }
        lost.push(chunk_lost);
        p += len;
    }
    Ok(FaultedScan {
        io: disk.stats(),
        lost,
        lost_chunks,
    })
}

impl FaultedScan {
    /// Drops the sampled point ids living on lost chunks (point `id` lives
    /// on scan page `id / cap_data`), returning the survivors, the charged
    /// I/O and the degradation report.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyInput`] when no sampled point survived — the plan
    /// destroyed the entire scan and nothing can be estimated.
    pub(crate) fn filter_sample(
        &self,
        sample: Vec<u32>,
        cap_data: u64,
    ) -> Result<(Vec<u32>, IoStats, DegradedReport)> {
        let total = sample.len();
        let survivors: Vec<u32> = sample
            .into_iter()
            .filter(|&id| !self.lost[(u64::from(id) / cap_data / SCAN_CHUNK_PAGES) as usize])
            .collect();
        if survivors.is_empty() {
            return Err(Error::EmptyInput("fault-surviving sample"));
        }
        let degraded = DegradedReport {
            leaves_degraded: self.lost_chunks,
            coverage_fraction: survivors.len() as f64 / total as f64,
        };
        Ok((survivors, self.io, degraded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_scan_bills_the_closed_form() {
        // An ideal device and a zero-rate plan both bill Eq. 3 exactly.
        for faults in [None, Some(FaultConfig::disabled(9))] {
            let scan = faulted_scan(faults, 1000, 0).unwrap();
            assert_eq!(scan.io, IoStats::run(1000));
            let scan = faulted_scan(faults, 130, 7).unwrap();
            assert_eq!(scan.io, IoStats::random(7) + IoStats::run(130));
            let (survivors, _, degraded) = scan.filter_sample(vec![0, 5, 900], 8).unwrap();
            assert_eq!(survivors, vec![0, 5, 900]);
            assert_eq!(degraded, DegradedReport::default());
        }
    }

    #[test]
    fn lost_chunks_drop_their_points() {
        let scan = FaultedScan {
            io: IoStats::default(),
            lost: vec![false, true, false],
            lost_chunks: 1,
        };
        // cap_data = 2: chunk 1 covers point ids [128, 256).
        let (survivors, _, degraded) = scan
            .filter_sample(vec![3, 127, 128, 200, 255, 256], 2)
            .unwrap();
        assert_eq!(survivors, vec![3, 127, 256]);
        assert_eq!(degraded.leaves_degraded, 1);
        assert!((degraded.coverage_fraction - 0.5).abs() < 1e-12);
        // Everything lost -> EmptyInput.
        let all_lost = FaultedScan {
            io: IoStats::default(),
            lost: vec![true],
            lost_chunks: 1,
        };
        assert!(all_lost.filter_sample(vec![1, 2], 2).is_err());
    }
}
