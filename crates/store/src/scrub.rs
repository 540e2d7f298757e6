//! Scrub-and-repair: walk every page of a store directory verifying
//! FNV-1a checksums and quarantine what fails.
//!
//! The pass is deliberately more forgiving than [`FileStore::open`]
//! (which *fails* on a corrupt page): scrubbing is what an operator runs
//! — or the serving reopen path consults — when a store comes back from
//! a crash or from media decay. The page file is read once; a read
//! error fails the pass before any page is judged, so only a page whose
//! bytes were read and failed verification is ever quarantined. Per
//! page:
//!
//! 1. all-zero or valid header + checksum → clean, untouched;
//! 2. corrupt → **quarantined**: the slot is zeroed back to "unwritten"
//!    so the store reopens cleanly, and the loss is reported instead of
//!    failing every subsequent open.
//!
//! A snapshot-set scrub ([`crate::SnapshotSet::scrub`]) adds the repair:
//! if the current generation no longer loads after the quarantine, it
//! falls back to the other committed generation if that one loads — the
//! "re-materialize from the last durable snapshot generation" path.
//!
//! [`FileStore::open`]: crate::FileStore::open

use crate::inject::Vfs;
use crate::pagefile::PageFile;
use hdidx_core::Result;
use std::fmt;
use std::path::Path;

/// Outcome of one scrub pass, in pages.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Page slots examined.
    pub pages_scanned: u64,
    /// Slots that failed header/checksum verification.
    pub pages_corrupt: u64,
    /// Corrupt slots zeroed back to "unwritten".
    pub pages_quarantined: u64,
    /// The snapshot generation the report describes (snapshot-set
    /// scrubs only).
    pub generation: Option<u64>,
    /// Whether a snapshot-set scrub had to fall back to an older
    /// generation; the page counts then describe the generation served,
    /// and [`ScrubReport::abandoned`] the newer ones it gave up on.
    pub fell_back: bool,
    /// The generations a snapshot-set scrub scrubbed but could not load,
    /// newest first, with what their scrub found.
    pub abandoned: Vec<AbandonedGeneration>,
}

/// A generation a snapshot-set scrub scrubbed and then abandoned because
/// it still did not load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbandonedGeneration {
    /// The generation number.
    pub generation: u64,
    /// Its slots that failed header/checksum verification.
    pub pages_corrupt: u64,
    /// Its corrupt slots zeroed back to "unwritten".
    pub pages_quarantined: u64,
}

impl ScrubReport {
    /// Whether every page of the served generation verified clean and no
    /// fallback happened (nothing quarantined, lost or demoted).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.pages_corrupt == 0 && !self.fell_back
    }
}

impl fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scrubbed {} pages: {} corrupt ({} quarantined)",
            self.pages_scanned, self.pages_corrupt, self.pages_quarantined
        )?;
        if let Some(g) = self.generation {
            write!(
                f,
                " [generation {g}{}",
                if self.fell_back { ", fell back" } else { "" }
            )?;
            for a in &self.abandoned {
                write!(
                    f,
                    "; generation {} abandoned: {} corrupt ({} quarantined)",
                    a.generation, a.pages_corrupt, a.pages_quarantined
                )?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// Scrubs the store directory at `dir` (its `pages.db`) in place. See
/// the module docs for the per-page policy.
///
/// # Errors
///
/// OS errors, a read error included: the pass then fails before it
/// judges or touches any page. Corruption itself never fails the pass.
pub fn scrub_store_in(fs: &dyn Vfs, dir: &Path) -> Result<ScrubReport> {
    scrub_page_file(fs, dir).map(|(report, _)| report)
}

/// [`scrub_store_in`], handing back the repaired page file, every page
/// of which now verifies: the snapshot scrub's load check reads it
/// without reading or verifying the pages again.
pub(crate) fn scrub_page_file(fs: &dyn Vfs, dir: &Path) -> Result<(ScrubReport, PageFile)> {
    let mut pf = PageFile::open_deferred_in(fs, &dir.join("pages.db"))?;
    let mut report = ScrubReport::default();
    for (page, verdict) in (0..).zip(pf.verify()) {
        report.pages_scanned += 1;
        if verdict.is_err() {
            report.pages_corrupt += 1;
            pf.quarantine(page)?;
            report.pages_quarantined += 1;
        }
    }
    if report.pages_corrupt > 0 {
        pf.sync()?;
    }
    Ok((report, pf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{InjectSpec, InjectedFs, OsFs};
    use crate::{FileStore, PAGE_BYTES, PAYLOAD_BYTES};
    use hdidx_diskio::DiskOptions;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn payload(tag: u8) -> Vec<u8> {
        (0..PAYLOAD_BYTES)
            .map(|i| tag.wrapping_add((i % 13) as u8))
            .collect()
    }

    /// A synced two-page store on the in-memory fs.
    fn seeded_store(fs: &InjectedFs, dir: &Path) -> hdidx_diskio::FileHandle {
        let mut st = FileStore::open_in(Arc::new(fs.clone()), dir, &DiskOptions::new()).unwrap();
        let f = st.alloc(4).unwrap();
        let mut data = payload(1);
        data.extend_from_slice(&payload(2));
        st.write_pages(&f, 0, 2, &data).unwrap();
        st.sync().unwrap();
        f
    }

    /// Flips one payload byte of `page` in the raw pages.db image.
    fn corrupt_page(fs: &InjectedFs, dir: &Path, page: u64) {
        let mut f = fs.open(&dir.join("pages.db")).unwrap();
        f.write_all_at(&[0xEE], page * PAGE_BYTES as u64 + 40)
            .unwrap();
    }

    #[test]
    fn a_clean_store_scrubs_clean() {
        let fs = InjectedFs::clean();
        let dir = PathBuf::from("/store");
        seeded_store(&fs, &dir);
        let report = scrub_store_in(&fs, &dir).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.pages_scanned, 2);
    }

    #[test]
    fn corruption_is_quarantined_and_the_store_reopens() {
        let fs = InjectedFs::clean();
        let dir = PathBuf::from("/store");
        let f = seeded_store(&fs, &dir);
        corrupt_page(&fs, &dir, 0);

        // Without scrubbing, reopening fails on the bad checksum.
        assert!(FileStore::open_in(Arc::new(fs.clone()), &dir, &DiskOptions::new()).is_err());

        let report = scrub_store_in(&fs, &dir).unwrap();
        assert_eq!(report.pages_corrupt, 1, "{report}");
        assert_eq!(report.pages_quarantined, 1, "{report}");

        let mut st = FileStore::open_in(Arc::new(fs.clone()), &dir, &DiskOptions::new()).unwrap();
        let f2 = hdidx_diskio::FileHandle::from_raw(f.start_page(), f.pages());
        let mut back = vec![0u8; PAYLOAD_BYTES];
        st.read_pages(&f2, 0, 1, &mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0), "quarantined page reads zero");
        st.read_pages(&f2, 1, 1, &mut back).unwrap();
        assert_eq!(back, payload(2), "untouched pages keep their bytes");
    }

    /// Scrubs a clean two-page store on a filesystem failing
    /// `short_read_ppm` of its reads, `rounds` times: each pass either
    /// fails with the read error or finds the store clean, and the page
    /// file never changes.
    fn read_errors_never_quarantine(seed: u64, short_read_ppm: u32, rounds: usize) -> usize {
        let fs = InjectedFs::new(InjectSpec::clean(seed).with_short_read_ppm(short_read_ppm));
        let dir = PathBuf::from("/store");
        seeded_store(&fs, &dir);
        let image = fs.file_bytes(&dir.join("pages.db")).unwrap();
        let mut failed = 0;
        for _ in 0..rounds {
            match scrub_store_in(&fs, &dir) {
                Ok(report) => assert!(
                    report.is_clean() && report.pages_scanned == 2,
                    "seed {seed}: {report}"
                ),
                Err(e) => {
                    assert!(
                        matches!(
                            e,
                            hdidx_core::Error::StoreFailure {
                                op: "pagefile read",
                                ..
                            }
                        ),
                        "seed {seed}: {e}"
                    );
                    failed += 1;
                }
            }
            assert_eq!(fs.file_bytes(&dir.join("pages.db")).unwrap(), image);
        }
        failed
    }

    #[test]
    fn a_read_error_fails_the_scrub_and_touches_nothing() {
        assert_eq!(read_errors_never_quarantine(1, 1_000_000, 3), 3);
    }

    #[test]
    fn transient_read_errors_never_quarantine_a_valid_page() {
        let failed: usize = (0..8)
            .map(|seed| read_errors_never_quarantine(seed, 400_000, 6))
            .sum();
        // Both outcomes occur, so both arms were exercised.
        assert!(failed > 0 && failed < 48, "{failed} of 48 passes failed");
    }

    #[test]
    fn scrub_runs_on_the_real_filesystem_too() {
        let dir = std::env::temp_dir().join(format!("hdidx_scrub_os_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut st = FileStore::open(&dir, &DiskOptions::new()).unwrap();
        let f = st.alloc(2).unwrap();
        st.write_pages(&f, 0, 1, &payload(4)).unwrap();
        st.sync().unwrap();
        drop(st);
        let report = scrub_store_in(&OsFs, &dir).unwrap();
        assert!(report.is_clean(), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
