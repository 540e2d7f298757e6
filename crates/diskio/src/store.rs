//! Storage-backend abstraction: the [`PageStore`] trait every backend
//! implements, and the [`DiskOptions`] builder that configures one.
//!
//! The reproduction's original I/O layer was a single concrete type — the
//! simulated [`Disk`] — so nothing could swap in a backend that actually
//! stores bytes. [`PageStore`] is the object-safe seam: page-granular
//! `alloc` / `read_pages` / `write_pages` / `sync` / `pages`, plus the
//! accounting surface ([`PageStore::stats`], [`PageStore::fault_trace`])
//! that the measurement pipeline reports. The simulated `Disk` implements
//! it with **unchanged behavior** — every trait call forwards to the same
//! inherent method the pre-trait code used, so seek/transfer accounting
//! and fault traces are bitwise identical through the trait object (pinned
//! by `tests/store_identity.rs`). The file-backed store in `hdidx-store`
//! is the second implementor: same charging (it embeds a model `Disk`),
//! plus real bytes, checksums and durability.
//!
//! ## Buffer convention
//!
//! The simulated backend stores no bytes, so the read/write buffers may be
//! **empty**: an empty buffer means "charge the access pattern, move no
//! bytes". Byte-carrying backends accept either an empty buffer
//! (accounting only) or one of exactly `n_pages * page_bytes` bytes.
//! Pattern-only callers (the external bulk loader, the measurement loop)
//! pass empty buffers and work identically on every backend.

use crate::disk::{Disk, FileHandle};
use crate::model::IoStats;
use hdidx_core::{Error, Result};
use hdidx_faults::{FaultConfig, FaultEvent, FaultPhase, FaultPlan};

/// Builder for a configured disk/store: fault injection, phase
/// specialization and stream derivation in one value, replacing the
/// former by-hand `FaultPlan::new(cfg.for_phase(..).derived(..))` call
/// chains. The retry policy rides inside the [`FaultConfig`]
/// ([`FaultConfig::with_retry`]).
///
/// Resolution order, applied by [`DiskOptions::resolved_config`]:
///
/// 1. the explicit [`FaultConfig`] (or none — an unconfigured options
///    value yields an ideal device),
/// 2. [`FaultConfig::for_phase`] specialization, if a phase is set,
/// 3. [`FaultConfig::derived`] stream derivation, if a stream is set —
///    e.g. a per-request id, so per-request plans stay decorrelated.
///
/// The value is `Copy`, so deriving a per-request variant is one call:
/// `base.derived(req_id)`.
///
/// # Examples
///
/// ```
/// use hdidx_diskio::{Disk, DiskOptions};
/// use hdidx_faults::{FaultConfig, FaultPhase, RetryPolicy};
///
/// let faults = FaultConfig::disabled(7)
///     .with_rate_ppm(1_000)
///     .with_retry(RetryPolicy::Exponential);
/// let opts = DiskOptions::new()
///     .fault_plan(Some(faults))
///     .phase(FaultPhase::Query);
/// let mut disk = Disk::with_options(&opts.derived(42));
/// let f = disk.alloc(4).unwrap();
/// disk.access(&f, 0, 4).unwrap();
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskOptions {
    faults: Option<FaultConfig>,
    phase: Option<FaultPhase>,
    stream: Option<u64>,
}

impl DiskOptions {
    /// An ideal device: no faults, no retries, no phase.
    #[must_use]
    pub fn new() -> DiskOptions {
        DiskOptions::default()
    }

    /// Sets (or clears) the fault-injection configuration.
    #[must_use]
    pub fn fault_plan(mut self, faults: Option<FaultConfig>) -> DiskOptions {
        self.faults = faults;
        self
    }

    /// Specializes the fault stream for one pipeline phase
    /// ([`FaultConfig::for_phase`]: derived seed + per-phase rate scaling).
    #[must_use]
    pub fn phase(mut self, phase: FaultPhase) -> DiskOptions {
        self.phase = Some(phase);
        self
    }

    /// Derives the `stream`-th fault sub-seed ([`FaultConfig::derived`]),
    /// applied after phase specialization — used for per-request plans.
    #[must_use]
    pub fn derived(mut self, stream: u64) -> DiskOptions {
        self.stream = Some(stream);
        self
    }

    /// The fully resolved fault configuration (see the type-level docs for
    /// the order), or `None` for an ideal device.
    #[must_use]
    pub fn resolved_config(&self) -> Option<FaultConfig> {
        let mut cfg = self.faults?;
        if let Some(phase) = self.phase {
            cfg = cfg.for_phase(phase);
        }
        if let Some(stream) = self.stream {
            cfg = cfg.derived(stream);
        }
        Some(cfg)
    }

    /// A fresh fault plan over the resolved configuration, or `None` for
    /// an ideal device. A zero-rate configuration still yields a plan —
    /// byte-identical to no plan, as the disk tests pin.
    #[must_use]
    pub fn resolved_plan(&self) -> Option<FaultPlan> {
        self.resolved_config().map(FaultPlan::new)
    }
}

/// Page span covered by records `first_rec..first_rec + n_recs` at
/// `recs_per_page` records per page: `Ok(None)` for an empty access,
/// otherwise `(first_page, n_pages)`.
fn record_span(first_rec: u64, n_recs: u64, recs_per_page: u64) -> Result<Option<(u64, u64)>> {
    if recs_per_page == 0 {
        return Err(Error::invalid("recs_per_page", "must be positive"));
    }
    if n_recs == 0 {
        return Ok(None);
    }
    let first_page = first_rec / recs_per_page;
    let last_page = (first_rec + n_recs - 1) / recs_per_page;
    Ok(Some((first_page, last_page - first_page + 1)))
}

/// An object-safe page-granular storage backend.
///
/// Contract (what the migrated pipeline and the identity tests rely on):
///
/// * **Accounting** — every read/write charges [`PageStore::stats`]
///   exactly like the simulated head model: one seek when the range does
///   not continue the previous access, one transfer per page, free
///   re-access of the buffered head page, and the intent counters
///   [`IoStats::reads`]/[`IoStats::writes`] bumped by `n_pages` on
///   success. Backends that also move real bytes charge the *same* model
///   counters (the file store embeds a model [`Disk`] for this), so
///   charged-model seconds stay comparable across backends.
/// * **Faults** — a backend constructed with fault-injecting
///   [`DiskOptions`] runs every access through the plan's bounded retry
///   loop and records [`PageStore::fault_trace`]; same options, same
///   access sequence ⇒ same trace, on any backend, at any thread count.
/// * **Durability** — [`PageStore::sync`] makes previously written pages
///   durable. The simulated backend has nothing to make durable and
///   returns immediately at zero charge; file-backed stores fsync
///   according to their durability mode.
/// * **Buffers** — may be empty (pattern-only accounting; the norm for
///   the simulated backend) or exactly `n_pages` pages long.
pub trait PageStore {
    /// Stable backend name (`"sim"`, `"file"`), as used by the CLI's
    /// `--backend` flag.
    fn backend(&self) -> &'static str;

    /// Allocates a file of `pages` contiguous pages.
    ///
    /// # Errors
    ///
    /// Rejects zero-page files.
    fn alloc(&mut self, pages: u64) -> Result<FileHandle>;

    /// Reads `n_pages` pages of `file` starting at `first_page`
    /// (file-relative) into `buf` (see the buffer convention above).
    ///
    /// # Errors
    ///
    /// [`Error::IoOutOfRange`] past the file end, [`Error::IoFault`] on
    /// retry exhaustion, backend-specific corruption errors.
    fn read_pages(
        &mut self,
        file: &FileHandle,
        first_page: u64,
        n_pages: u64,
        buf: &mut [u8],
    ) -> Result<()>;

    /// Writes `n_pages` pages of `file` starting at `first_page`
    /// (file-relative) from `data` (see the buffer convention above).
    ///
    /// # Errors
    ///
    /// As [`PageStore::read_pages`].
    fn write_pages(
        &mut self,
        file: &FileHandle,
        first_page: u64,
        n_pages: u64,
        data: &[u8],
    ) -> Result<()>;

    /// Makes every write issued so far durable.
    ///
    /// # Errors
    ///
    /// Backend I/O errors; infallible and free on the simulated backend.
    fn sync(&mut self) -> Result<()>;

    /// Total pages allocated so far.
    fn pages(&self) -> u64;

    /// Accumulated model counters.
    fn stats(&self) -> IoStats;

    /// Resets the counters (head position is backend-defined).
    fn reset_stats(&mut self);

    /// Adds externally counted I/O to this store's tally (invalidating
    /// any head-position buffering).
    fn charge(&mut self, io: IoStats);

    /// Every fault injected so far, in decision order (empty without a
    /// fault plan — and on backends without injection).
    fn fault_trace(&self) -> &[FaultEvent] {
        &[]
    }

    /// Reads the pages holding records `first_rec..first_rec + n_recs` of
    /// a file storing `recs_per_page` records per page (pattern-only:
    /// empty buffer).
    ///
    /// # Errors
    ///
    /// As [`PageStore::read_pages`]; rejects `recs_per_page == 0`.
    fn read_records(
        &mut self,
        file: &FileHandle,
        first_rec: u64,
        n_recs: u64,
        recs_per_page: u64,
    ) -> Result<()> {
        match record_span(first_rec, n_recs, recs_per_page)? {
            None => Ok(()),
            Some((first_page, n_pages)) => self.read_pages(file, first_page, n_pages, &mut []),
        }
    }

    /// Writes the pages holding records `first_rec..first_rec + n_recs`
    /// (pattern-only: empty buffer); mirror of
    /// [`PageStore::read_records`].
    ///
    /// # Errors
    ///
    /// As [`PageStore::write_pages`]; rejects `recs_per_page == 0`.
    fn write_records(
        &mut self,
        file: &FileHandle,
        first_rec: u64,
        n_recs: u64,
        recs_per_page: u64,
    ) -> Result<()> {
        match record_span(first_rec, n_recs, recs_per_page)? {
            None => Ok(()),
            Some((first_page, n_pages)) => self.write_pages(file, first_page, n_pages, &[]),
        }
    }
}

/// The simulated disk is the reference backend: every trait method
/// forwards to the inherent method the pre-trait code called, so going
/// through `dyn PageStore` is bitwise identical to calling `Disk`
/// directly.
impl PageStore for Disk {
    fn backend(&self) -> &'static str {
        "sim"
    }

    fn alloc(&mut self, pages: u64) -> Result<FileHandle> {
        Disk::alloc(self, pages)
    }

    fn read_pages(
        &mut self,
        file: &FileHandle,
        first_page: u64,
        n_pages: u64,
        buf: &mut [u8],
    ) -> Result<()> {
        Disk::read_pages(self, file, first_page, n_pages, buf)
    }

    fn write_pages(
        &mut self,
        file: &FileHandle,
        first_page: u64,
        n_pages: u64,
        data: &[u8],
    ) -> Result<()> {
        Disk::write_pages(self, file, first_page, n_pages, data)
    }

    fn sync(&mut self) -> Result<()> {
        // Nothing is stored, so nothing needs to become durable; zero
        // charge keeps the simulated accounting unchanged by the trait
        // migration.
        Ok(())
    }

    fn pages(&self) -> u64 {
        self.allocated_pages()
    }

    fn stats(&self) -> IoStats {
        Disk::stats(self)
    }

    fn reset_stats(&mut self) {
        Disk::reset_stats(self);
    }

    fn charge(&mut self, io: IoStats) {
        Disk::charge(self, io);
    }

    fn fault_trace(&self) -> &[FaultEvent] {
        Disk::fault_trace(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_faults::RetryPolicy;

    #[test]
    fn options_resolve_like_the_manual_call_chain() {
        let fcfg = FaultConfig::disabled(11)
            .with_rate_ppm(250_000)
            .with_retry(RetryPolicy::Exponential);
        let opts = DiskOptions::new()
            .fault_plan(Some(fcfg))
            .phase(FaultPhase::Query)
            .derived(42);
        let expect = fcfg.for_phase(FaultPhase::Query).derived(42);
        assert_eq!(opts.resolved_config(), Some(expect));
        assert_eq!(DiskOptions::new().resolved_config(), None);
        assert!(DiskOptions::new().resolved_plan().is_none());
    }

    #[test]
    fn phase_resolution_matches_a_pre_resolved_config() {
        let fcfg = FaultConfig::disabled(3).with_rate_ppm(400_000);
        let run = |d: &mut Disk| {
            let f = d.alloc(64).unwrap();
            for p in 0..32 {
                let _ = d.access(&f, p * 2, 2);
            }
            (d.stats(), d.fault_trace().to_vec())
        };
        // Resolving the phase by hand and letting the builder do it must
        // install byte-identical plans.
        let mut manual = Disk::with_options(
            &DiskOptions::new().fault_plan(Some(fcfg.for_phase(FaultPhase::Build))),
        );
        let mut built = Disk::with_options(
            &DiskOptions::new()
                .fault_plan(Some(fcfg))
                .phase(FaultPhase::Build),
        );
        assert_eq!(run(&mut manual), run(&mut built));
    }

    #[test]
    fn trait_object_dispatch_is_bitwise_identical_to_concrete_calls() {
        let opts =
            DiskOptions::new().fault_plan(Some(FaultConfig::disabled(5).with_rate_ppm(60_000)));
        let drive = |store: &mut dyn PageStore| {
            let f = store.alloc(128).unwrap();
            store.read_pages(&f, 0, 16, &mut []).unwrap();
            store.write_pages(&f, 64, 8, &[]).unwrap();
            store.read_records(&f, 100, 50, 10).unwrap();
            store.sync().unwrap();
            (store.stats(), store.fault_trace().to_vec(), store.pages())
        };
        let mut as_trait = Disk::with_options(&opts);
        let via_trait = drive(&mut as_trait);
        assert_eq!(as_trait.backend(), "sim");

        // The same sequence through the concrete inherent methods: the
        // head charging, retries, traces and intent counters must match
        // bitwise (records 100..150 at 10/page span pages 10..=14).
        let mut concrete = Disk::with_options(&opts);
        let f = concrete.alloc(128).unwrap();
        concrete.read_pages(&f, 0, 16, &mut []).unwrap();
        concrete.write_pages(&f, 64, 8, &[]).unwrap();
        concrete.read_pages(&f, 10, 5, &mut []).unwrap();
        let direct = (
            concrete.stats(),
            concrete.fault_trace().to_vec(),
            concrete.allocated_pages(),
        );
        assert_eq!(direct, via_trait);
    }

    #[test]
    fn record_span_matches_access_records_paging() {
        assert_eq!(record_span(30, 10, 33).unwrap(), Some((0, 2)));
        assert_eq!(record_span(0, 0, 33).unwrap(), None);
        assert!(record_span(0, 1, 0).is_err());
        assert_eq!(record_span(66, 1, 33).unwrap(), Some((2, 1)));
    }
}
