//! Background maintenance: incremental scrub slices in idle serving
//! slots, driving the store health state machine.
//!
//! The serve loop's slot algebra exposes **idle gaps** — simulated time a
//! slot spends free before the next request dispatches on it. The
//! [`Maintenance`] scheduler spends those gaps on bounded scrub slices
//! ([`ScrubSource::scrub_slice`], `hdidx_store::scrub_pages_in` over a
//! page range for the file backend), so integrity checking rides along
//! with query service instead of requiring a maintenance window. Each
//! slice is charged model seconds (one seek plus one transfer per page),
//! and since idle gaps are themselves pure functions of the request
//! stream, the scrub schedule — and every health transition — replays
//! byte-identically at any thread count.
//!
//! Health gates the disk-backed classes:
//!
//! * [`HealthState::Healthy`] — serve everything;
//! * [`HealthState::Degraded`] — corruption was found (repaired or not
//!   yet re-verified); a reported state only, everything still serves;
//! * [`HealthState::ReadOnly`] — pages were quarantined (data loss): the
//!   disk-backed classes (range, k-NN) are refused, predictions still
//!   serve. Sticky — a quarantined page never un-loses its bytes, so
//!   only operator intervention (re-materialize, reopen) leaves it.
//!
//! Degraded heals back to healthy after a **full clean cycle**: every
//! page scanned corrupt-free since the last finding.

use hdidx_core::{Error, Result};
use hdidx_diskio::DiskModel;
use hdidx_store::inject::Vfs;
use hdidx_store::{scrub_pages_in, store_pages_in};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// Store health as observed by the serve loop's maintenance scrubber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// No outstanding corruption findings.
    Healthy,
    /// Corruption was found (and at worst repaired); not yet re-verified
    /// by a full clean scrub cycle.
    Degraded,
    /// Pages were quarantined — data loss. Sticky until operator action.
    ReadOnly,
}

impl HealthState {
    /// Stable name (`"healthy"`, `"degraded"`, `"read-only"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::ReadOnly => "read-only",
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Findings of one scrub slice, in pages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceOutcome {
    /// Pages that failed verification.
    pub corrupt: u64,
    /// Corrupt pages rewritten from a redo source.
    pub repaired: u64,
    /// Corrupt pages with no redo source, zeroed (data loss).
    pub quarantined: u64,
}

/// A scrubbable page space: what the maintenance scheduler walks.
pub trait ScrubSource {
    /// Number of page slots (the cycle length).
    fn pages(&mut self) -> Result<u64>;

    /// Verifies (and repairs where possible) pages
    /// `first .. first + n`, clamped to the page space.
    fn scrub_slice(&mut self, first: u64, n: u64) -> Result<SliceOutcome>;
}

/// The trivial source for backends with nothing to scrub (the simulated
/// disk keeps bytes in RAM): every slice verifies clean.
#[derive(Debug, Clone, Copy)]
pub struct CleanSource {
    /// Page slots the source pretends to hold.
    pub pages: u64,
}

impl ScrubSource for CleanSource {
    fn pages(&mut self) -> Result<u64> {
        Ok(self.pages)
    }

    fn scrub_slice(&mut self, _first: u64, _n: u64) -> Result<SliceOutcome> {
        Ok(SliceOutcome::default())
    }
}

/// A file-backed store directory as a scrub source: slices run
/// [`scrub_pages_in`] over the directory's page file.
pub struct StoreScrubSource {
    fs: Arc<dyn Vfs>,
    dir: PathBuf,
}

impl StoreScrubSource {
    /// Source over a store directory (a `pages.db` + `wal.log` pair,
    /// e.g. a snapshot generation directory).
    #[must_use]
    pub fn new(fs: Arc<dyn Vfs>, dir: PathBuf) -> StoreScrubSource {
        StoreScrubSource { fs, dir }
    }
}

impl ScrubSource for StoreScrubSource {
    fn pages(&mut self) -> Result<u64> {
        store_pages_in(self.fs.as_ref(), &self.dir)
    }

    fn scrub_slice(&mut self, first: u64, n: u64) -> Result<SliceOutcome> {
        let r = scrub_pages_in(self.fs.as_ref(), &self.dir, first, n)?;
        Ok(SliceOutcome {
            corrupt: r.pages_corrupt,
            repaired: r.pages_repaired,
            quarantined: r.pages_quarantined,
        })
    }
}

/// Cumulative maintenance accounting for one serving run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MaintenanceReport {
    /// Scrub slices executed in idle gaps.
    pub slices: u64,
    /// Pages scanned across all slices.
    pub pages_scanned: u64,
    /// Pages found corrupt.
    pub corrupt: u64,
    /// Corrupt pages repaired from a redo source.
    pub repaired: u64,
    /// Corrupt pages quarantined (data loss).
    pub quarantined: u64,
    /// Simulated seconds of idle time spent scrubbing.
    pub scrub_s: f64,
}

/// The idle-slot maintenance scheduler: a cursor over the page space,
/// spending idle gaps on scrub slices and folding the findings into a
/// [`HealthState`].
pub struct Maintenance {
    source: Box<dyn ScrubSource>,
    slice_pages: u64,
    cursor: u64,
    /// Pages scanned corrupt-free since the last finding; a full cycle
    /// (`>= pages`) heals Degraded back to Healthy.
    clean_streak: u64,
    health: HealthState,
    report: MaintenanceReport,
}

impl Maintenance {
    /// Scheduler over `source`, scrubbing `slice_pages` pages per slice.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] when `slice_pages` is zero.
    pub fn new(source: Box<dyn ScrubSource>, slice_pages: u64) -> Result<Maintenance> {
        if slice_pages == 0 {
            return Err(Error::invalid(
                "scrub-slice",
                "slice must cover at least 1 page",
            ));
        }
        Ok(Maintenance {
            source,
            slice_pages,
            cursor: 0,
            clean_streak: 0,
            health: HealthState::Healthy,
            report: MaintenanceReport::default(),
        })
    }

    /// Current health.
    #[must_use]
    pub fn health(&self) -> HealthState {
        self.health
    }

    /// Cumulative accounting.
    #[must_use]
    pub fn report(&self) -> MaintenanceReport {
        self.report
    }

    /// The charged cost of one scrub slice of `n` pages: one seek plus a
    /// transfer per page.
    #[must_use]
    pub fn slice_cost_s(disk: &DiskModel, n: u64) -> f64 {
        disk.t_seek_s + n as f64 * disk.t_xfer_s()
    }

    /// Spends an idle gap of `idle_s` simulated seconds on whole scrub
    /// slices (as many as fit; a partial slice never runs). Returns the
    /// seconds actually consumed, which the serve loop leaves inside the
    /// gap — maintenance never delays the next dispatch.
    ///
    /// # Errors
    ///
    /// I/O errors from the source; findings never fail the call.
    pub fn run_idle(&mut self, idle_s: f64, disk: &DiskModel) -> Result<f64> {
        let mut spent = 0.0;
        loop {
            let pages = self.source.pages()?;
            if pages == 0 {
                return Ok(spent);
            }
            if self.cursor >= pages {
                // The page space shrank under the cursor (store truncated
                // between gaps); restart the cycle.
                self.cursor = 0;
            }
            let n = self.slice_pages.min(pages - self.cursor);
            let cost = Maintenance::slice_cost_s(disk, n);
            if spent + cost > idle_s {
                return Ok(spent);
            }
            let outcome = self.source.scrub_slice(self.cursor, n)?;
            spent += cost;
            self.report.slices += 1;
            self.report.pages_scanned += n;
            self.report.corrupt += outcome.corrupt;
            self.report.repaired += outcome.repaired;
            self.report.quarantined += outcome.quarantined;
            self.report.scrub_s += cost;
            self.cursor += n;
            if self.cursor >= pages {
                self.cursor = 0;
            }
            if outcome.quarantined > 0 {
                self.health = HealthState::ReadOnly;
                self.clean_streak = 0;
            } else if outcome.corrupt > 0 {
                if self.health != HealthState::ReadOnly {
                    self.health = HealthState::Degraded;
                }
                self.clean_streak = 0;
            } else {
                self.clean_streak += n;
                if self.health == HealthState::Degraded && self.clean_streak >= pages {
                    self.health = HealthState::Healthy;
                }
            }
        }
    }
}

impl fmt::Debug for Maintenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Maintenance")
            .field("slice_pages", &self.slice_pages)
            .field("cursor", &self.cursor)
            .field("health", &self.health)
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted source: per-slice outcomes keyed by scan order.
    struct Scripted {
        pages: u64,
        outcomes: Vec<SliceOutcome>,
        next: usize,
    }

    impl ScrubSource for Scripted {
        fn pages(&mut self) -> Result<u64> {
            Ok(self.pages)
        }

        fn scrub_slice(&mut self, _first: u64, _n: u64) -> Result<SliceOutcome> {
            let o = self.outcomes.get(self.next).copied().unwrap_or_default();
            self.next += 1;
            Ok(o)
        }
    }

    const DISK: DiskModel = DiskModel::PAPER;

    #[test]
    fn zero_slice_is_rejected() {
        let e = Maintenance::new(Box::new(CleanSource { pages: 8 }), 0)
            .unwrap_err()
            .to_string();
        assert!(e.contains("slice"), "{e}");
    }

    #[test]
    fn idle_gaps_fit_whole_slices_only() {
        let mut m = Maintenance::new(Box::new(CleanSource { pages: 100 }), 4).unwrap();
        let cost = Maintenance::slice_cost_s(&DISK, 4);
        // A gap under one slice runs nothing.
        assert_eq!(m.run_idle(cost * 0.9, &DISK).unwrap(), 0.0);
        assert_eq!(m.report().slices, 0);
        // A gap of 2.5 slices runs exactly two.
        let spent = m.run_idle(cost * 2.5, &DISK).unwrap();
        assert!((spent - 2.0 * cost).abs() < 1e-12);
        assert_eq!(m.report().slices, 2);
        assert_eq!(m.report().pages_scanned, 8);
        assert_eq!(m.health(), HealthState::Healthy);
    }

    #[test]
    fn cursor_wraps_and_clamps_the_tail_slice() {
        let mut m = Maintenance::new(Box::new(CleanSource { pages: 6 }), 4).unwrap();
        // Slice 1: pages 0..4. Slice 2: pages 4..6 (clamped to 2 pages,
        // cheaper). Slice 3 wraps to 0..4 again.
        let c4 = Maintenance::slice_cost_s(&DISK, 4);
        let c2 = Maintenance::slice_cost_s(&DISK, 2);
        let spent = m.run_idle(c4 + c2 + c4, &DISK).unwrap();
        assert!((spent - (c4 + c2 + c4)).abs() < 1e-12);
        assert_eq!(m.report().slices, 3);
        assert_eq!(m.report().pages_scanned, 10);
    }

    #[test]
    fn corruption_degrades_and_a_clean_cycle_heals() {
        let bad = SliceOutcome {
            corrupt: 1,
            repaired: 1,
            quarantined: 0,
        };
        let mut m = Maintenance::new(
            Box::new(Scripted {
                pages: 8,
                outcomes: vec![bad],
                next: 0,
            }),
            4,
        )
        .unwrap();
        let cost = Maintenance::slice_cost_s(&DISK, 4);
        m.run_idle(cost, &DISK).unwrap();
        assert_eq!(m.health(), HealthState::Degraded);
        // One clean slice is only half a cycle: still degraded.
        m.run_idle(cost, &DISK).unwrap();
        assert_eq!(m.health(), HealthState::Degraded);
        // The second clean slice completes the cycle: healed.
        m.run_idle(cost, &DISK).unwrap();
        assert_eq!(m.health(), HealthState::Healthy);
        assert_eq!(m.report().repaired, 1);
    }

    #[test]
    fn quarantine_is_sticky_read_only() {
        let lost = SliceOutcome {
            corrupt: 1,
            repaired: 0,
            quarantined: 1,
        };
        let mut m = Maintenance::new(
            Box::new(Scripted {
                pages: 4,
                outcomes: vec![lost],
                next: 0,
            }),
            4,
        )
        .unwrap();
        let cost = Maintenance::slice_cost_s(&DISK, 4);
        m.run_idle(cost, &DISK).unwrap();
        assert_eq!(m.health(), HealthState::ReadOnly);
        // Arbitrarily many clean cycles later it is still read-only.
        m.run_idle(cost * 10.0, &DISK).unwrap();
        assert_eq!(m.health(), HealthState::ReadOnly);
        assert_eq!(m.report().quarantined, 1);
    }

    #[test]
    fn store_source_scrubs_a_real_directory() {
        use hdidx_diskio::{DiskOptions, PageStore};
        use hdidx_store::inject::InjectedFs;
        use hdidx_store::{Durability, FileStore};

        let fs = InjectedFs::clean();
        let dir = PathBuf::from("/maint");
        let mut st = FileStore::open_in(
            Arc::new(fs.clone()),
            &dir,
            Durability::PerBatch,
            &DiskOptions::new(),
        )
        .unwrap();
        let f = st.alloc(4).unwrap();
        let data = vec![7u8; 2 * hdidx_store::PAYLOAD_BYTES];
        st.write_pages(&f, 0, 2, &data).unwrap();
        PageStore::sync(&mut st).unwrap();
        drop(st);

        let mut src = StoreScrubSource::new(Arc::new(fs), dir);
        assert_eq!(src.pages().unwrap(), 2);
        let o = src.scrub_slice(0, 2).unwrap();
        assert_eq!(o, SliceOutcome::default(), "clean store, clean slice");
    }
}
