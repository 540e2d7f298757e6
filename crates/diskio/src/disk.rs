//! Single-head simulated disk with page-granular access accounting.
//!
//! Files are contiguous page ranges allocated from one address space, so
//! head movement *between* files (e.g. between the data file and the
//! resampling scratch areas of §4.4) is accounted exactly like movement
//! within a file: accessing a page that is not the successor of the
//! previously accessed page costs one seek; every accessed page costs one
//! transfer. Re-accessing the page under the head is free (it is still in
//! the drive buffer).
//!
//! Contents are *not* stored — algorithms keep their data in RAM and call
//! [`Disk::access`] with the page ranges a real external-memory
//! implementation would touch. What is simulated is the access pattern, not
//! the bytes; the counters are therefore exact for the simulated pattern.
//!
//! ## Fault injection
//!
//! A [`FaultPlan`] (from `hdidx-faults`) can be installed by constructing
//! the disk with [`Disk::with_options`] over a
//! [`DiskOptions`](crate::DiskOptions) builder carrying a fault
//! configuration. Every [`Disk::access`] then runs a bounded
//! retry loop: a transient fault burns one seek and loses the head
//! position; a torn fault transfers (and charges) a prefix of the range
//! before failing; a latency spike succeeds but charges extra seeks. Each
//! retried failure increments [`IoStats::retries`]; if the final attempt
//! still fails the access returns [`Error::IoFault`] with the fault kind,
//! page and attempt count. With no plan installed — or a plan whose rates
//! are all zero — the accounting is byte-identical to the fault-free
//! implementation (pinned in `tests/fault_injection.rs`).

use crate::model::IoStats;
use hdidx_core::{Error, Result};
use hdidx_faults::{FaultEvent, FaultOutcome, FaultPlan};

/// A contiguous page range on the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileHandle {
    start_page: u64,
    pages: u64,
}

impl FileHandle {
    /// A handle over an explicit page range. Backends other than the
    /// simulated [`Disk`] (e.g. the file-backed store in `hdidx-store`)
    /// use this to mint handles for ranges they allocated themselves;
    /// the range is validated on every access, not at construction.
    #[must_use]
    pub fn from_raw(start_page: u64, pages: u64) -> FileHandle {
        FileHandle { start_page, pages }
    }

    /// Absolute first page of the file.
    #[must_use]
    pub fn start_page(&self) -> u64 {
        self.start_page
    }

    /// Number of pages in the file.
    pub fn pages(&self) -> u64 {
        self.pages
    }
}

/// The simulated disk: an allocator plus the head-position accounting.
#[derive(Debug, Clone)]
pub struct Disk {
    next_free_page: u64,
    last_page: Option<u64>,
    stats: IoStats,
    plan: Option<FaultPlan>,
}

impl Disk {
    /// A fresh disk with an idle head, zeroed counters and no fault plan.
    pub fn new() -> Disk {
        Disk {
            next_free_page: 0,
            last_page: None,
            stats: IoStats::default(),
            plan: None,
        }
    }

    /// A fresh disk configured by `opts` — the sole way to install a
    /// fault plan. See [`DiskOptions`](crate::DiskOptions) for the full
    /// resolution order (explicit config → retry override → phase
    /// scaling → stream derivation).
    pub fn with_options(opts: &crate::DiskOptions) -> Disk {
        let mut d = Disk::new();
        d.plan = opts.resolved_plan();
        d
    }

    /// Every fault injected so far, in decision order (empty without a
    /// plan). The trace is part of the determinism contract: same seed,
    /// same access sequence ⇒ same trace, at any thread count.
    pub fn fault_trace(&self) -> &[FaultEvent] {
        self.plan.as_ref().map_or(&[], |p| p.trace())
    }

    /// Allocates a file of `pages` contiguous pages.
    ///
    /// # Errors
    ///
    /// Rejects zero-page files.
    pub fn alloc(&mut self, pages: u64) -> Result<FileHandle> {
        if pages == 0 {
            return Err(Error::invalid("pages", "cannot allocate an empty file"));
        }
        let handle = FileHandle {
            start_page: self.next_free_page,
            pages,
        };
        self.next_free_page += pages;
        Ok(handle)
    }

    /// Accesses `n_pages` pages of `file` starting at page `first_page`
    /// (file-relative), reading or writing — the head does not care which.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IoOutOfRange`] if the range exceeds the file, and
    /// [`Error::IoFault`] if an installed fault plan fails the access on
    /// every retry attempt.
    pub fn access(&mut self, file: &FileHandle, first_page: u64, n_pages: u64) -> Result<()> {
        if n_pages == 0 {
            return Ok(());
        }
        // On u64 overflow report the offending start offset itself — not a
        // sentinel like `usize::MAX`, which used to masquerade as a
        // (meaningless) huge index.
        let end = first_page.checked_add(n_pages).ok_or(Error::IoOutOfRange {
            index: first_page as usize,
            len: file.pages as usize,
        })?;
        if end > file.pages {
            return Err(Error::IoOutOfRange {
                index: end as usize,
                len: file.pages as usize,
            });
        }
        let abs_first = file.start_page + first_page;
        // Temporarily detach the plan so the retry loop can charge through
        // `&mut self`; reattached before returning on every path.
        match self.plan.take() {
            None => {
                self.charge_range(abs_first, n_pages);
                Ok(())
            }
            Some(mut plan) => {
                let result = self.access_under_plan(&mut plan, abs_first, n_pages);
                self.plan = Some(plan);
                result
            }
        }
    }

    /// The bounded retry loop of a fault-injected access. Failed attempts
    /// charge what they physically burned (a seek for a transient fault,
    /// the completed prefix for a torn one) and lose the head position, so
    /// the retry pays a fresh seek; each retried failure bumps
    /// [`IoStats::retries`].
    ///
    /// Retries are paced by the plan's [`hdidx_faults::RetryPolicy`]: its per-retry
    /// backoff is charged into [`IoStats::backoff`] (seek-equivalents,
    /// priced at one `t_seek` each by the cost model). Pacing never
    /// changes which attempts are made. On exhaustion the
    /// [`Error::IoFault`] reports the attempts made.
    fn access_under_plan(
        &mut self,
        plan: &mut FaultPlan,
        abs_first: u64,
        n_pages: u64,
    ) -> Result<()> {
        let access = plan.next_access();
        let max_attempts = plan.max_attempts();
        let cfg = *plan.config();
        let mut last_kind = "transient";
        for attempt in 0..max_attempts {
            match plan.attempt(access, attempt, abs_first, n_pages) {
                FaultOutcome::Success => {
                    self.charge_range(abs_first, n_pages);
                    return Ok(());
                }
                FaultOutcome::Spike { extra_seeks } => {
                    // The access succeeds but queueing/recalibration is
                    // charged as extra seek-equivalents.
                    self.charge_range(abs_first, n_pages);
                    self.stats.seeks += extra_seeks;
                    return Ok(());
                }
                outcome @ (FaultOutcome::Transient | FaultOutcome::Torn { .. }) => {
                    match outcome {
                        FaultOutcome::Transient => {
                            // The head moved but nothing transferred.
                            self.stats.seeks += 1;
                        }
                        FaultOutcome::Torn { completed_pages } => {
                            // The prefix really transferred and is charged.
                            self.charge_range(abs_first, completed_pages);
                        }
                        _ => unreachable!("outer match binds only failures"),
                    }
                    self.last_page = None;
                    last_kind = outcome.kind().map_or("transient", |k| k.as_str());
                    if attempt + 1 >= max_attempts {
                        break;
                    }
                    self.stats.backoff += cfg.retry.backoff_seeks(cfg.seed, access, attempt);
                    self.stats.retries += 1;
                }
            }
        }
        Err(Error::IoFault {
            kind: last_kind,
            page: abs_first,
            attempts: max_attempts,
        })
    }

    /// Charges one contiguous access of `n_pages` pages starting at the
    /// absolute page `abs_first`: free re-access of the buffered head page,
    /// one seek when the range does not continue the previous access, one
    /// transfer per remaining page. This is the entire (fault-free) cost
    /// model; the fault path reuses it for successful attempts and torn
    /// prefixes so a zero-fault plan stays byte-identical.
    fn charge_range(&mut self, abs_first: u64, n_pages: u64) {
        if n_pages == 0 {
            return;
        }
        let mut remaining = n_pages;
        let mut cursor = abs_first;
        // Free re-access of the page currently under the head.
        if self.last_page == Some(cursor) {
            cursor += 1;
            remaining -= 1;
            if remaining == 0 {
                return;
            }
        }
        if self.last_page.map(|lp| lp + 1) != Some(cursor) {
            self.stats.seeks += 1;
        }
        self.stats.transfers += remaining;
        self.last_page = Some(cursor + remaining - 1);
    }

    /// Reads `n_pages` pages of `file` starting at `first_page`
    /// (file-relative): the charge of [`Disk::access`], plus `n_pages` on
    /// the [`IoStats::reads`] intent counter when the access succeeds.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Disk::access`].
    pub fn read_pages(&mut self, file: &FileHandle, first_page: u64, n_pages: u64) -> Result<()> {
        self.access(file, first_page, n_pages)?;
        self.stats.reads += n_pages;
        Ok(())
    }

    /// Writes `n_pages` pages of `file` starting at `first_page`
    /// (file-relative): the mirror image of [`Disk::read_pages`], bumping
    /// the [`IoStats::writes`] intent counter instead.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Disk::access`].
    pub fn write_pages(&mut self, file: &FileHandle, first_page: u64, n_pages: u64) -> Result<()> {
        self.access(file, first_page, n_pages)?;
        self.stats.writes += n_pages;
        Ok(())
    }

    /// Total pages allocated so far (the high-water mark of
    /// [`Disk::alloc`]).
    #[must_use]
    pub fn allocated_pages(&self) -> u64 {
        self.next_free_page
    }

    /// Accesses the pages holding records `first_rec..first_rec + n_recs`
    /// of a file storing `recs_per_page` records per page, counting no
    /// direction (see [`Disk::read_records`]).
    ///
    /// # Errors
    ///
    /// Propagates range errors from [`Disk::access`]; rejects
    /// `recs_per_page == 0`.
    pub fn access_records(
        &mut self,
        file: &FileHandle,
        first_rec: u64,
        n_recs: u64,
        recs_per_page: u64,
    ) -> Result<()> {
        self.access_record_pages(file, first_rec, n_recs, recs_per_page)
            .map(drop)
    }

    /// Reads the pages holding records `first_rec..first_rec + n_recs`:
    /// [`Disk::access_records`] plus the [`IoStats::reads`] intent counter.
    ///
    /// # Errors
    ///
    /// As [`Disk::access_records`].
    pub fn read_records(
        &mut self,
        file: &FileHandle,
        first_rec: u64,
        n_recs: u64,
        recs_per_page: u64,
    ) -> Result<()> {
        self.stats.reads += self.access_record_pages(file, first_rec, n_recs, recs_per_page)?;
        Ok(())
    }

    /// Writes the pages holding records `first_rec..first_rec + n_recs`:
    /// [`Disk::access_records`] plus the [`IoStats::writes`] intent
    /// counter.
    ///
    /// # Errors
    ///
    /// As [`Disk::access_records`].
    pub fn write_records(
        &mut self,
        file: &FileHandle,
        first_rec: u64,
        n_recs: u64,
        recs_per_page: u64,
    ) -> Result<()> {
        self.stats.writes += self.access_record_pages(file, first_rec, n_recs, recs_per_page)?;
        Ok(())
    }

    /// The record-granular access behind the three methods above;
    /// returns the number of pages accessed.
    fn access_record_pages(
        &mut self,
        file: &FileHandle,
        first_rec: u64,
        n_recs: u64,
        recs_per_page: u64,
    ) -> Result<u64> {
        if recs_per_page == 0 {
            return Err(Error::invalid("recs_per_page", "must be positive"));
        }
        if n_recs == 0 {
            return Ok(0);
        }
        let first_page = first_rec / recs_per_page;
        let n_pages = (first_rec + n_recs - 1) / recs_per_page - first_page + 1;
        self.access(file, first_page, n_pages)?;
        Ok(n_pages)
    }

    /// Accumulated counters.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Adds externally counted I/O (e.g. the per-access random I/O of query
    /// execution) to this disk's tally and invalidates the head position.
    pub fn charge(&mut self, io: IoStats) {
        self.stats += io;
        if io.seeks > 0 || io.transfers > 0 {
            self.last_page = None;
        }
    }
}

impl Default for Disk {
    fn default() -> Self {
        Disk::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_access_costs_one_seek() {
        let mut d = Disk::new();
        let f = d.alloc(100).unwrap();
        d.access(&f, 0, 10).unwrap();
        assert_eq!(
            d.stats(),
            IoStats {
                seeks: 1,
                transfers: 10,
                ..IoStats::default()
            }
        );
        // Continuing where the head is: no new seek.
        d.access(&f, 10, 5).unwrap();
        assert_eq!(
            d.stats(),
            IoStats {
                seeks: 1,
                transfers: 15,
                ..IoStats::default()
            }
        );
    }

    #[test]
    fn jump_costs_a_seek() {
        let mut d = Disk::new();
        let f = d.alloc(100).unwrap();
        d.access(&f, 0, 1).unwrap();
        d.access(&f, 50, 1).unwrap();
        assert_eq!(
            d.stats(),
            IoStats {
                seeks: 2,
                transfers: 2,
                ..IoStats::default()
            }
        );
        // Jumping backwards also seeks.
        d.access(&f, 10, 1).unwrap();
        assert_eq!(d.stats().seeks, 3);
    }

    #[test]
    fn same_page_reaccess_is_free() {
        let mut d = Disk::new();
        let f = d.alloc(10).unwrap();
        d.access(&f, 3, 1).unwrap();
        d.access(&f, 3, 1).unwrap();
        assert_eq!(
            d.stats(),
            IoStats {
                seeks: 1,
                transfers: 1,
                ..IoStats::default()
            }
        );
        // Re-access extending past the buffered page: only the new pages.
        d.access(&f, 3, 3).unwrap();
        assert_eq!(
            d.stats(),
            IoStats {
                seeks: 1,
                transfers: 3,
                ..IoStats::default()
            }
        );
    }

    #[test]
    fn cross_file_switch_costs_a_seek() {
        let mut d = Disk::new();
        let a = d.alloc(10).unwrap();
        let b = d.alloc(10).unwrap();
        d.access(&a, 0, 10).unwrap();
        // File b starts right after a, so continuing into it is sequential.
        d.access(&b, 0, 1).unwrap();
        assert_eq!(
            d.stats(),
            IoStats {
                seeks: 1,
                transfers: 11,
                ..IoStats::default()
            }
        );
        // But going back to a seeks.
        d.access(&a, 5, 1).unwrap();
        assert_eq!(d.stats().seeks, 2);
    }

    #[test]
    fn record_granular_access() {
        let mut d = Disk::new();
        let f = d.alloc(10).unwrap();
        // 33 records/page: records 0..=32 on page 0, 33..=65 on page 1.
        d.access_records(&f, 30, 10, 33).unwrap();
        assert_eq!(
            d.stats(),
            IoStats {
                seeks: 1,
                transfers: 2,
                ..IoStats::default()
            }
        );
        assert!(d.access_records(&f, 0, 1, 0).is_err());
        d.access_records(&f, 0, 0, 33).unwrap(); // no-op
        assert_eq!(d.stats().transfers, 2);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = Disk::new();
        let f = d.alloc(10).unwrap();
        assert!(d.access(&f, 5, 6).is_err());
        assert!(d.access(&f, 0, 10).is_ok());
        assert!(d.alloc(0).is_err());
    }

    #[test]
    fn overflowing_range_reports_the_offending_offset() {
        // Regression: `first_page + n_pages` overflowing u64 used to
        // report `index: usize::MAX` — a sentinel, not the offset.
        let mut d = Disk::new();
        let f = d.alloc(10).unwrap();
        let first = u64::MAX - 3;
        let err = d.access(&f, first, 8).unwrap_err();
        assert_eq!(
            err,
            Error::IoOutOfRange {
                index: first as usize,
                len: 10,
            }
        );
        assert_ne!(first as usize, usize::MAX);
        assert_eq!(
            d.stats(),
            IoStats::default(),
            "failed probe charges nothing"
        );
    }

    #[test]
    fn read_write_intent_counters_ride_on_access_accounting() {
        let mut d = Disk::new();
        let f = d.alloc(100).unwrap();
        d.read_pages(&f, 0, 10).unwrap();
        d.write_pages(&f, 10, 5).unwrap();
        let s = d.stats();
        // Same head charge as the equivalent `access` calls...
        assert_eq!((s.seeks, s.transfers), (1, 15));
        // ...plus the direction split.
        assert_eq!((s.reads, s.writes), (10, 5));
        // Raw `access` stays direction-blind.
        d.access(&f, 20, 3).unwrap();
        let s = d.stats();
        assert_eq!((s.reads, s.writes), (10, 5));
        assert_eq!(s.transfers, 18);
        // Failed accesses do not count pages as delivered.
        assert!(d.read_pages(&f, 95, 20).is_err());
        assert_eq!(d.stats().reads, 10);
        // The record-granular forms count the pages their records span
        // (33 records/page: records 30..40 span pages 0..=1).
        d.read_records(&f, 30, 10, 33).unwrap();
        d.write_records(&f, 66, 1, 33).unwrap();
        d.write_records(&f, 0, 0, 33).unwrap();
        let s = d.stats();
        assert_eq!((s.reads, s.writes), (12, 6));
        assert!(d.read_records(&f, 0, 1, 0).is_err());
    }

    #[test]
    fn charge_adds_and_invalidates_the_head() {
        let mut d = Disk::new();
        let f = d.alloc(4).unwrap();
        d.access(&f, 0, 4).unwrap();
        d.charge(IoStats::random(7));
        assert_eq!(
            d.stats(),
            IoStats {
                seeks: 8,
                transfers: 11,
                ..IoStats::default()
            }
        );
        // Head was invalidated by charge: next access seeks.
        d.access(&f, 0, 1).unwrap();
        assert_eq!(d.stats().seeks, 9);
    }

    use hdidx_faults::FaultConfig;

    fn run_pattern(d: &mut Disk) -> IoStats {
        let f = d.alloc(64).unwrap();
        d.access(&f, 0, 16).unwrap();
        d.access(&f, 16, 16).unwrap();
        d.access(&f, 0, 1).unwrap();
        d.access(&f, 40, 8).unwrap();
        d.stats()
    }

    #[test]
    fn zero_rate_plan_is_byte_identical() {
        let mut ideal = Disk::new();
        let ideal_stats = run_pattern(&mut ideal);
        let mut faulty = Disk::with_options(
            &crate::DiskOptions::new().fault_plan(Some(FaultConfig::disabled(99))),
        );
        let stats = run_pattern(&mut faulty);
        assert_eq!(stats, ideal_stats);
        assert_eq!(stats.retries, 0);
        assert!(faulty.fault_trace().is_empty());
    }

    #[test]
    fn transient_fault_burns_a_seek_and_retries() {
        let cfg = FaultConfig {
            transient_ppm: hdidx_faults::PPM_SCALE,
            max_attempts: 3,
            ..FaultConfig::disabled(1)
        };
        let mut d = Disk::with_options(&crate::DiskOptions::new().fault_plan(Some(cfg)));
        let f = d.alloc(8).unwrap();
        let err = d.access(&f, 0, 4).unwrap_err();
        assert_eq!(
            err,
            hdidx_core::Error::IoFault {
                kind: "transient",
                page: 0,
                attempts: 3,
            }
        );
        // 3 failed attempts: 3 seeks, no transfers, 2 retries (the last
        // failure is exhaustion, not a retry).
        assert_eq!(
            d.stats(),
            IoStats {
                seeks: 3,
                transfers: 0,
                retries: 2,
                ..IoStats::default()
            }
        );
        assert_eq!(d.fault_trace().len(), 3);
    }

    #[test]
    fn torn_fault_charges_the_completed_prefix() {
        let cfg = FaultConfig {
            torn_ppm: hdidx_faults::PPM_SCALE,
            max_attempts: 1,
            ..FaultConfig::disabled(2)
        };
        let mut d = Disk::with_options(&crate::DiskOptions::new().fault_plan(Some(cfg)));
        let f = d.alloc(16).unwrap();
        let err = d.access(&f, 0, 10).unwrap_err();
        // Regression: a `max_attempts = 1` plan must report the single
        // attempt actually made, not some plan-wide constant.
        assert!(matches!(
            err,
            hdidx_core::Error::IoFault {
                kind: "torn",
                attempts: 1,
                ..
            }
        ));
        let s = d.stats();
        assert_eq!(s.seeks, 1);
        assert!((1..10).contains(&s.transfers), "prefix only: {s:?}");
        assert_eq!(s.retries, 0); // max_attempts 1 ⇒ no retry, only exhaustion
    }

    #[test]
    fn spike_succeeds_with_extra_seeks() {
        let cfg = FaultConfig {
            spike_ppm: hdidx_faults::PPM_SCALE,
            ..FaultConfig::disabled(3)
        };
        let mut d = Disk::with_options(&crate::DiskOptions::new().fault_plan(Some(cfg)));
        let f = d.alloc(8).unwrap();
        d.access(&f, 0, 4).unwrap();
        let s = d.stats();
        assert_eq!(s.transfers, 4);
        assert!(s.seeks >= 2, "base seek plus spike charge: {s:?}");
        assert_eq!(s.retries, 0);
    }

    #[test]
    fn retried_access_eventually_succeeds_under_moderate_rates() {
        // 10 % transient per attempt with 4 attempts: over 200 accesses the
        // chance of any exhaustion is ~2 %, and seed 7 is pinned green.
        let cfg = FaultConfig::disabled(7).with_rate_ppm(100_000).unwrap();
        let mut d = Disk::with_options(&crate::DiskOptions::new().fault_plan(Some(cfg)));
        let f = d.alloc(200).unwrap();
        for p in 0..200 {
            d.access(&f, p, 1).unwrap();
        }
        let s = d.stats();
        assert!(s.transfers >= 200, "all pages transferred: {s:?}");
        assert!(s.retries > 0, "expected some retries at 15 % failure rate");
        assert_eq!(s.backoff, 0, "the default fixed policy charges nothing");
        assert!(!d.fault_trace().is_empty());
    }

    use hdidx_faults::RetryPolicy;

    #[test]
    fn exponential_policy_charges_deterministic_backoff() {
        let cfg = FaultConfig {
            transient_ppm: hdidx_faults::PPM_SCALE,
            max_attempts: 3,
            retry: RetryPolicy::Exponential,
            ..FaultConfig::disabled(1)
        };
        let run = || {
            let mut d = Disk::with_options(&crate::DiskOptions::new().fault_plan(Some(cfg)));
            let f = d.alloc(8).unwrap();
            let err = d.access(&f, 0, 4).unwrap_err();
            assert!(matches!(
                err,
                hdidx_core::Error::IoFault { attempts: 3, .. }
            ));
            d.stats()
        };
        let s = run();
        // Two retries: backoff in [2^0, 2^1) + [2^1, 2^2) = [3, 6).
        assert_eq!(s.retries, 2);
        assert!((3..6).contains(&s.backoff), "backoff {s:?}");
        assert_eq!(run(), s, "backoff must be a pure function of the seed");
        // The cost model prices the backoff as seek latency.
        let quiet = IoStats { backoff: 0, ..s };
        let model = crate::DiskModel::PAPER;
        let delta = model.cost_seconds(s) - model.cost_seconds(quiet);
        assert!((delta - s.backoff as f64 * model.t_seek_s).abs() < 1e-12);
    }

    #[test]
    fn burst_region_tears_the_overlapping_access() {
        use hdidx_faults::BurstConfig;
        // Find a seed/range pair whose range strictly straddles a bad
        // region, then pin that the access tears at the region edge.
        let burst = BurstConfig::with_fault_ppm(hdidx_faults::PPM_SCALE).unwrap();
        let (seed, first_bad) = (0..20_000u64)
            .find_map(|seed| {
                burst
                    .first_bad_page(seed, 10, 100)
                    .filter(|&b| b > 10)
                    .map(|b| (seed, b))
            })
            .expect("some seed hosts a region inside pages 10..110");
        let cfg = FaultConfig {
            max_attempts: 1,
            ..FaultConfig::disabled(seed).with_burst(Some(burst))
        };
        let mut d = Disk::with_options(&crate::DiskOptions::new().fault_plan(Some(cfg)));
        let f = d.alloc(200).unwrap();
        let err = d.access(&f, 10, 100).unwrap_err();
        assert!(matches!(
            err,
            hdidx_core::Error::IoFault {
                kind: "torn",
                attempts: 1,
                ..
            }
        ));
        // Exactly the prefix before the first bad page transferred.
        assert_eq!(d.stats().transfers, first_bad - 10);
        let trace = d.fault_trace();
        assert_eq!(trace.len(), 1);
        assert!(trace[0].burst);
        // An access that avoids every bad region sails through.
        let clear_page = (0..100u64)
            .find(|&p| burst.first_bad_page(seed, p, 1).is_none())
            .expect("some page is clean");
        d.access(&f, clear_page, 1).unwrap();
    }
}
