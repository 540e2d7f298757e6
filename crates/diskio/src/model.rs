//! Disk cost model and I/O counters.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Seek/transfer counters, the unit of cost throughout the reproduction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Number of disk seeks (head movements to a non-adjacent page).
    pub seeks: u64,
    /// Number of page transfers.
    pub transfers: u64,
    /// Number of access attempts that failed (to an injected fault) and
    /// were retried. Always zero on a fault-free disk; the seeks/transfers
    /// the failed attempts burned are already charged to the counters
    /// above, so `retries` is diagnostic, not an additional cost term.
    pub retries: u64,
    /// Retry backoff charged by the disk's [`RetryPolicy`], in
    /// **seek-equivalents** — each unit costs one `t_seek` under
    /// [`DiskModel::cost_seconds`]. Always zero on a fault-free disk and
    /// under the default fixed (immediate-retry) policy.
    ///
    /// [`RetryPolicy`]: hdidx_faults::RetryPolicy
    pub backoff: u64,
    /// Pages moved through the intent-carrying read path
    /// ([`Disk::read_pages`], [`Disk::read_records`]). Raw
    /// [`Disk::access`] calls — which do not know their direction — leave
    /// this at zero, so closed-form pins on seeks/transfers are
    /// unaffected.
    ///
    /// [`Disk::access`]: crate::Disk::access
    /// [`Disk::read_pages`]: crate::Disk::read_pages
    /// [`Disk::read_records`]: crate::Disk::read_records
    pub reads: u64,
    /// Pages moved through the intent-carrying write path
    /// ([`Disk::write_pages`], [`Disk::write_records`]); see
    /// [`IoStats::reads`].
    ///
    /// [`Disk::write_pages`]: crate::Disk::write_pages
    /// [`Disk::write_records`]: crate::Disk::write_records
    pub writes: u64,
}

impl IoStats {
    /// A single sequential run: one seek followed by `pages` transfers.
    #[must_use]
    pub fn run(pages: u64) -> IoStats {
        IoStats {
            seeks: 1,
            transfers: pages,
            ..IoStats::default()
        }
    }

    /// `n` random page accesses: `n` seeks and `n` transfers.
    #[must_use]
    pub fn random(n: u64) -> IoStats {
        IoStats {
            seeks: n,
            transfers: n,
            ..IoStats::default()
        }
    }
}

/// The canonical human-readable rendering, used by the CLI and the bench
/// binaries instead of hand-formatting the counters:
/// `"<seeks> seeks, <transfers> page transfers"`, with
/// `", <retries> retries"`, `", <backoff> backoff seek-equivalents"` and
/// `", <reads>r/<writes>w pages"` appended only when those counters are
/// nonzero so fault-free (and direction-blind) output is unchanged.
impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} seeks, {} page transfers", self.seeks, self.transfers)?;
        if self.retries > 0 {
            write!(f, ", {} retries", self.retries)?;
        }
        if self.backoff > 0 {
            write!(f, ", {} backoff seek-equivalents", self.backoff)?;
        }
        if self.reads > 0 || self.writes > 0 {
            write!(f, ", {}r/{}w pages", self.reads, self.writes)?;
        }
        Ok(())
    }
}

impl Add for IoStats {
    type Output = IoStats;
    fn add(self, rhs: IoStats) -> IoStats {
        IoStats {
            seeks: self.seeks + rhs.seeks,
            transfers: self.transfers + rhs.transfers,
            retries: self.retries + rhs.retries,
            backoff: self.backoff + rhs.backoff,
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
        }
    }
}

impl AddAssign for IoStats {
    fn add_assign(&mut self, rhs: IoStats) {
        self.seeks += rhs.seeks;
        self.transfers += rhs.transfers;
        self.retries += rhs.retries;
        self.backoff += rhs.backoff;
        self.reads += rhs.reads;
        self.writes += rhs.writes;
    }
}

/// The paper's disk model: average seek(+latency) time and bandwidth. The
/// per-page transfer time follows from the page size, so Figure 13's page
/// size sweep changes it automatically.
///
/// # Examples
///
/// ```
/// use hdidx_diskio::{DiskModel, IoStats};
///
/// let disk = DiskModel::PAPER; // 10 ms seek, 20 MB/s, 8 KB pages
/// assert!((disk.t_xfer_s() - 0.4096e-3).abs() < 1e-9);
/// let io = IoStats { seeks: 100, transfers: 1000, ..IoStats::default() };
/// assert!((disk.cost_seconds(io) - (1.0 + 0.4096)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Average seek plus rotational latency, seconds (paper: 10 ms).
    pub t_seek_s: f64,
    /// Sustained bandwidth, bytes per second (paper: 20 MB/s).
    pub bandwidth_bytes_per_s: f64,
    /// Page size in bytes (paper: 8 KB by default).
    pub page_bytes: usize,
}

impl DiskModel {
    /// The paper's disk: 10 ms seek, 20 MB/s, 8 KB pages (t_xfer ≈ 0.4 ms).
    pub const PAPER: DiskModel = DiskModel {
        t_seek_s: 0.010,
        bandwidth_bytes_per_s: 20.0e6,
        page_bytes: 8192,
    };

    /// The paper's disk with a different page size.
    pub fn paper_with_page_bytes(page_bytes: usize) -> DiskModel {
        DiskModel {
            page_bytes,
            ..DiskModel::PAPER
        }
    }

    /// Transfer time for one page, seconds.
    pub fn t_xfer_s(&self) -> f64 {
        self.page_bytes as f64 / self.bandwidth_bytes_per_s
    }

    /// Converts counters to seconds:
    /// `(seeks + backoff) * t_seek + transfers * t_xfer` — retry backoff
    /// is real latency and is priced like the seeks it stands in for.
    pub fn cost_seconds(&self, io: IoStats) -> f64 {
        (io.seeks + io.backoff) as f64 * self.t_seek_s + io.transfers as f64 * self.t_xfer_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_transfer_time_is_0_4_ms() {
        let m = DiskModel::PAPER;
        assert!((m.t_xfer_s() - 0.4096e-3).abs() < 1e-9);
    }

    #[test]
    fn cost_combines_seeks_and_transfers() {
        let m = DiskModel::PAPER;
        let io = IoStats {
            seeks: 100,
            transfers: 1000,
            ..IoStats::default()
        };
        let expect = 100.0 * 0.010 + 1000.0 * 8192.0 / 20.0e6;
        assert!((m.cost_seconds(io) - expect).abs() < 1e-12);
    }

    #[test]
    fn backoff_is_priced_as_seek_latency() {
        let m = DiskModel::PAPER;
        let quiet = IoStats {
            seeks: 10,
            transfers: 100,
            ..IoStats::default()
        };
        let backed_off = IoStats {
            backoff: 7,
            retries: 3,
            ..quiet
        };
        let delta = m.cost_seconds(backed_off) - m.cost_seconds(quiet);
        assert!((delta - 7.0 * m.t_seek_s).abs() < 1e-12);
        // Retries alone stay diagnostic: no cost term of their own.
        let retried = IoStats {
            retries: 5,
            ..quiet
        };
        assert!((m.cost_seconds(retried) - m.cost_seconds(quiet)).abs() < 1e-15);
    }

    #[test]
    fn page_size_scales_transfer_cost() {
        let m64 = DiskModel::paper_with_page_bytes(65_536);
        assert!((m64.t_xfer_s() - 8.0 * DiskModel::PAPER.t_xfer_s()).abs() < 1e-12);
    }

    #[test]
    fn display_renders_both_counters() {
        let io = IoStats {
            seeks: 3,
            transfers: 42,
            ..IoStats::default()
        };
        assert_eq!(io.to_string(), "3 seeks, 42 page transfers");
        let noisy = IoStats {
            retries: 2,
            backoff: 5,
            ..io
        };
        assert_eq!(
            noisy.to_string(),
            "3 seeks, 42 page transfers, 2 retries, 5 backoff seek-equivalents"
        );
        let directed = IoStats {
            reads: 40,
            writes: 2,
            ..io
        };
        assert_eq!(
            directed.to_string(),
            "3 seeks, 42 page transfers, 40r/2w pages"
        );
    }

    #[test]
    fn stats_arithmetic() {
        let mut a = IoStats::run(10); // 1 seek, 10 transfers
        a += IoStats::random(5); // 5 seeks, 5 transfers
        assert_eq!(
            a,
            IoStats {
                seeks: 6,
                transfers: 15,
                ..IoStats::default()
            }
        );
        let b = a + IoStats::default();
        assert_eq!(b, a);
        a += IoStats {
            reads: 3,
            writes: 4,
            ..IoStats::default()
        };
        assert_eq!((a.reads, a.writes), (3, 4));
    }
}
