//! Scrub-and-repair: walk every page of a store directory verifying
//! FNV-1a checksums, re-materialize what a redo source can rebuild, and
//! quarantine what nothing can.
//!
//! The pass is deliberately more forgiving than [`FileStore::open`]
//! (which *fails* on a corrupt page no WAL batch covers): scrubbing is
//! what an operator runs — or the serving reopen path consults — when a
//! store comes back from a crash or from media decay. Per page:
//!
//! 1. all-zero or valid header + checksum → clean, untouched;
//! 2. corrupt, but a committed WAL batch carries a newer image of the
//!    page → **repaired** (rewritten from the WAL; the recovery replay
//!    would have done the same);
//! 3. corrupt with no redo source → **quarantined**: the slot is
//!    zeroed back to "unwritten" so the store reopens cleanly, and the
//!    loss is reported instead of failing every subsequent open.
//!
//! A snapshot-set scrub ([`crate::SnapshotSet::scrub`]) adds the next
//! repair tier: if the current generation no longer loads even after
//! page repair, it falls back to the most recent older generation that
//! does — the "re-materialize from the last durable snapshot
//! generation" path.
//!
//! [`FileStore::open`]: crate::FileStore::open

use crate::inject::Vfs;
use crate::pagefile::PageFile;
use crate::wal::Wal;
use hdidx_core::Result;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Outcome of one scrub pass, in pages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Page slots examined.
    pub pages_scanned: u64,
    /// Slots that failed header/checksum verification.
    pub pages_corrupt: u64,
    /// Corrupt slots rewritten from a committed WAL image.
    pub pages_repaired: u64,
    /// Corrupt slots with no redo source, zeroed back to "unwritten".
    pub pages_quarantined: u64,
    /// Committed WAL batches available as a redo source.
    pub wal_batches: u64,
    /// The snapshot generation the report describes (snapshot-set
    /// scrubs only).
    pub generation: Option<u64>,
    /// Whether a snapshot-set scrub had to fall back to an older
    /// generation; the page counts then describe the generation served.
    pub fell_back: bool,
}

impl ScrubReport {
    /// Whether every page verified clean (nothing repaired or lost).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.pages_corrupt == 0 && !self.fell_back
    }
}

impl fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scrubbed {} pages: {} corrupt ({} repaired from {} WAL batches, {} quarantined)",
            self.pages_scanned,
            self.pages_corrupt,
            self.pages_repaired,
            self.wal_batches,
            self.pages_quarantined
        )?;
        if let Some(g) = self.generation {
            write!(
                f,
                " [generation {g}{}]",
                if self.fell_back { ", fell back" } else { "" }
            )?;
        }
        Ok(())
    }
}

/// Scrubs the store directory at `dir` (a `pages.db` + `wal.log` pair)
/// in place. See the module docs for the per-page policy. The WAL is
/// left untouched — a subsequent [`FileStore::open`](crate::FileStore)
/// replays it over the repaired page file as usual.
///
/// # Errors
///
/// OS errors; corruption itself never fails the pass.
pub fn scrub_store_in(fs: &dyn Vfs, dir: &Path) -> Result<ScrubReport> {
    let mut wal = Wal::open_in(fs, &dir.join("wal.log"))?;
    let batches = wal.recover()?;
    // The newest committed image of every WAL-covered page.
    let mut redo: BTreeMap<u64, &[u8]> = BTreeMap::new();
    for batch in &batches {
        for frame in &batch.frames {
            redo.insert(frame.page_no, &frame.payload);
        }
    }
    let mut pf = PageFile::open_deferred_in(fs, &dir.join("pages.db"))?;
    let mut report = ScrubReport {
        wal_batches: batches.len() as u64,
        ..ScrubReport::default()
    };
    for page in 0..pf.pages() {
        report.pages_scanned += 1;
        if pf.check_page(page).is_ok() {
            continue;
        }
        report.pages_corrupt += 1;
        match redo.get(&page) {
            Some(payload) => {
                pf.write_page(page, payload)?;
                report.pages_repaired += 1;
            }
            None => {
                pf.quarantine(page)?;
                report.pages_quarantined += 1;
            }
        }
    }
    if report.pages_corrupt > 0 {
        pf.sync()?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{InjectedFs, OsFs};
    use crate::{Durability, FileStore, PAGE_BYTES, PAYLOAD_BYTES};
    use hdidx_diskio::DiskOptions;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn payload(tag: u8) -> Vec<u8> {
        (0..PAYLOAD_BYTES)
            .map(|i| tag.wrapping_add((i % 13) as u8))
            .collect()
    }

    /// A checkpointed two-page store on the in-memory fs.
    fn seeded_store(fs: &InjectedFs, dir: &Path) -> hdidx_diskio::FileHandle {
        let mut st = FileStore::open_in(
            Arc::new(fs.clone()),
            dir,
            Durability::PerBatch,
            &DiskOptions::new(),
        )
        .unwrap();
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
    fn wal_covered_corruption_is_repaired() {
        let fs = InjectedFs::clean();
        let dir = PathBuf::from("/store");
        let f = seeded_store(&fs, &dir);
        // A second, un-checkpointed batch over page 1 leaves its image
        // in the WAL; then the checkpointed copy of page 1 decays.
        let mut st = FileStore::open_in(
            Arc::new(fs.clone()),
            &dir,
            Durability::PerBatch,
            &DiskOptions::new(),
        )
        .unwrap();
        let f2 = hdidx_diskio::FileHandle::from_raw(f.start_page(), f.pages());
        st.write_pages(&f2, 1, 1, &payload(9)).unwrap();
        drop(st); // crash: batch lives only in the WAL
        corrupt_page(&fs, &dir, 1);

        let report = scrub_store_in(&fs, &dir).unwrap();
        assert_eq!(report.pages_corrupt, 1, "{report}");
        assert_eq!(report.pages_repaired, 1, "{report}");
        assert_eq!(report.pages_quarantined, 0, "{report}");

        let mut st = FileStore::open_in(
            Arc::new(fs.clone()),
            &dir,
            Durability::PerBatch,
            &DiskOptions::new(),
        )
        .unwrap();
        let mut back = vec![0u8; PAYLOAD_BYTES];
        st.read_pages(&f2, 1, 1, &mut back).unwrap();
        assert_eq!(back, payload(9), "repaired page serves the WAL image");
    }

    #[test]
    fn unrepairable_corruption_is_quarantined_and_the_store_reopens() {
        let fs = InjectedFs::clean();
        let dir = PathBuf::from("/store");
        let f = seeded_store(&fs, &dir);
        corrupt_page(&fs, &dir, 0); // WAL is empty: no redo source

        // Without scrubbing, reopening fails on the bad checksum.
        assert!(FileStore::open_in(
            Arc::new(fs.clone()),
            &dir,
            Durability::PerBatch,
            &DiskOptions::new()
        )
        .is_err());

        let report = scrub_store_in(&fs, &dir).unwrap();
        assert_eq!(report.pages_corrupt, 1, "{report}");
        assert_eq!(report.pages_quarantined, 1, "{report}");

        let mut st = FileStore::open_in(
            Arc::new(fs.clone()),
            &dir,
            Durability::PerBatch,
            &DiskOptions::new(),
        )
        .unwrap();
        let f2 = hdidx_diskio::FileHandle::from_raw(f.start_page(), f.pages());
        let mut back = vec![0u8; PAYLOAD_BYTES];
        st.read_pages(&f2, 0, 1, &mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0), "quarantined page reads zero");
        st.read_pages(&f2, 1, 1, &mut back).unwrap();
        assert_eq!(back, payload(2), "untouched pages keep their bytes");
    }

    #[test]
    fn scrub_runs_on_the_real_filesystem_too() {
        let dir = std::env::temp_dir().join(format!("hdidx_scrub_os_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut st = FileStore::open(&dir, Durability::PerBatch, &DiskOptions::new()).unwrap();
        let f = st.alloc(2).unwrap();
        st.write_pages(&f, 0, 1, &payload(4)).unwrap();
        st.sync().unwrap();
        drop(st);
        let report = scrub_store_in(&OsFs, &dir).unwrap();
        assert!(report.is_clean(), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
