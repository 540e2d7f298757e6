//! [`FileStore`]: the file-backed page store snapshots live on.
//!
//! ## Architecture
//!
//! A `FileStore` is two cooperating pieces under one directory:
//!
//! * an embedded **model [`Disk`]** (configured from the same
//!   [`DiskOptions`] a simulated disk takes) that owns the page
//!   address space and is charged *first* on every access — so seeks,
//!   transfers, intent counters and retries are identical to a simulated
//!   [`Disk`]'s driven through the same pages, by construction,
//! * the **page file** (`pages.db`) holding the page images with
//!   checksummed headers.
//!
//! ## Write path
//!
//! [`FileStore::write_pages`] writes checksummed pages straight to the
//! page file, sealing four pages per checksum pass, and
//! [`FileStore::sync`] fsyncs it and its directory. A store is written
//! once, by one snapshot publish, and nothing reads it until the
//! [`SnapshotSet`](crate::SnapshotSet) `CURRENT` swap commits it, so a
//! crash mid-write leaves only pages no committed generation names.
//!
//! ## Reopen
//!
//! [`FileStore::open`] reads the page file once, verifies every page
//! checksum and writes nothing: a torn or corrupt page fails the open,
//! and [`scrub_store_in`](crate::scrub_store_in) is the repair. Reads
//! then copy from the verified pages, so a load reads and checksums each
//! page once. Dropping a `FileStore` deliberately does **nothing** (no
//! flush, no fsync): a drop *is* the crash model the crash-sweep tests
//! rely on.

use crate::inject::{OsFs, Vfs};
use crate::pagefile::{PageFile, PAYLOAD_BYTES};
use hdidx_core::{Error, Result};
use hdidx_diskio::{Disk, DiskOptions, FileHandle, IoStats};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File-backed page store: a checksummed page file billed on a model
/// disk. See the module docs.
#[derive(Debug)]
pub struct FileStore {
    model: Disk,
    pagefile: PageFile,
    fs: Arc<dyn Vfs>,
    dir: PathBuf,
}

impl FileStore {
    /// Opens (creating if missing) the store under `dir`, reads its page
    /// file and verifies every page checksum (torn-write detection). The
    /// embedded model disk is configured from `opts` and pre-allocated
    /// over the existing pages so fresh allocations extend past them.
    ///
    /// # Errors
    ///
    /// OS errors, or any page failing verification.
    pub fn open(dir: &Path, opts: &DiskOptions) -> Result<FileStore> {
        FileStore::open_in(Arc::new(OsFs), dir, opts)
    }

    /// [`FileStore::open`] against a caller-supplied filesystem (e.g.
    /// the crash-injected [`InjectedFs`](crate::InjectedFs)).
    ///
    /// # Errors
    ///
    /// As [`FileStore::open`].
    pub fn open_in(fs: Arc<dyn Vfs>, dir: &Path, opts: &DiskOptions) -> Result<FileStore> {
        fs.create_dir_all(dir)
            .map_err(|e| crate::io_err("store mkdir", e))?;
        let pagefile = PageFile::open_in(&*fs, &dir.join("pages.db"))?;
        FileStore::with_page_file(fs, dir, pagefile, opts)
    }

    /// A store over the page file of `dir`, already opened and verified
    /// (the snapshot scrub hands over the file it just repaired).
    ///
    /// # Errors
    ///
    /// The model disk's allocation errors.
    pub(crate) fn with_page_file(
        fs: Arc<dyn Vfs>,
        dir: &Path,
        pagefile: PageFile,
        opts: &DiskOptions,
    ) -> Result<FileStore> {
        let mut model = Disk::with_options(opts);
        if pagefile.pages() > 0 {
            // Claim the existing address space; charges nothing.
            model.alloc(pagefile.pages())?;
        }
        Ok(FileStore {
            model,
            pagefile,
            fs,
            dir: dir.to_path_buf(),
        })
    }

    /// Rejects a buffer that is not exactly `n_pages` payloads long.
    fn check_len(n_pages: u64, len: usize) -> Result<()> {
        let want = usize::try_from(n_pages)
            .ok()
            .and_then(|n| n.checked_mul(PAYLOAD_BYTES));
        if want != Some(len) {
            return Err(Error::invalid(
                "buf",
                format!("buffer is {len} bytes; expected {n_pages} pages of {PAYLOAD_BYTES}"),
            ));
        }
        Ok(())
    }

    /// Allocates a file of `pages` contiguous pages. The model disk owns
    /// the address space; real bytes materialize on first write.
    ///
    /// # Errors
    ///
    /// Rejects zero-page files.
    pub fn alloc(&mut self, pages: u64) -> Result<FileHandle> {
        self.model.alloc(pages)
    }

    /// Reads `n_pages` pages of `file` starting at `first_page`
    /// (file-relative) into `buf`, which must hold exactly `n_pages`
    /// payloads. The model disk is charged first, exactly as
    /// [`Disk::read_pages`] charges the simulation; the payloads are
    /// copied from the pages verified at open.
    ///
    /// # Errors
    ///
    /// A mis-sized buffer (charging nothing), and the model disk's range
    /// and fault errors.
    pub fn read_pages(
        &mut self,
        file: &FileHandle,
        first_page: u64,
        n_pages: u64,
        buf: &mut [u8],
    ) -> Result<()> {
        Self::check_len(n_pages, buf.len())?;
        // Model first: range validation, head charging, fault retries.
        self.model.read_pages(file, first_page, n_pages)?;
        let base = file.start_page() + first_page;
        for (page, out) in (base..).zip(buf.chunks_exact_mut(PAYLOAD_BYTES)) {
            self.pagefile.read_page(page, out);
        }
        Ok(())
    }

    /// Writes `n_pages` pages of `file` starting at `first_page`
    /// (file-relative) from `data`, which must hold exactly `n_pages`
    /// payloads, straight to the page file: `write_runs` with one run.
    /// The model disk is charged first, exactly as [`Disk::write_pages`]
    /// charges the simulation. Nothing is durable until
    /// [`FileStore::sync`].
    ///
    /// # Errors
    ///
    /// A mis-sized buffer (charging nothing), the model disk's range and
    /// fault errors, and page-file write failures.
    pub fn write_pages(
        &mut self,
        file: &FileHandle,
        first_page: u64,
        n_pages: u64,
        data: &[u8],
    ) -> Result<()> {
        self.write_runs(file, &[(first_page, n_pages, data)])
    }

    /// Writes runs of `file`'s pages, in order: each `(first_page,
    /// n_pages, data)` run is a [`FileStore::write_pages`] call's
    /// arguments. The model disk is charged first, one
    /// [`Disk::write_pages`] per run in order, exactly as the simulation
    /// is charged; then every page goes straight to the page file in run
    /// order, the pages of all runs sealed together, [`FNV_LANES`] per
    /// checksum pass. Nothing is durable until [`FileStore::sync`].
    ///
    /// # Errors
    ///
    /// A mis-sized buffer in any run (charging nothing), the model disk's
    /// range and fault errors, and page-file write failures.
    ///
    /// [`FNV_LANES`]: hdidx_core::FNV_LANES
    pub(crate) fn write_runs(
        &mut self,
        file: &FileHandle,
        runs: &[(u64, u64, &[u8])],
    ) -> Result<()> {
        for &(_, n_pages, data) in runs {
            Self::check_len(n_pages, data.len())?;
        }
        let mut pages = Vec::new();
        for &(first_page, n_pages, data) in runs {
            self.model.write_pages(file, first_page, n_pages)?;
            let base = file.start_page() + first_page;
            pages.extend((base..).zip(data.chunks_exact(PAYLOAD_BYTES)));
        }
        self.pagefile.write_pages(&pages)
    }

    /// Makes every write issued so far durable: fsyncs the page file,
    /// then its directory, so a freshly created `pages.db` survives a
    /// power cut too.
    ///
    /// # Errors
    ///
    /// fsync failures.
    pub fn sync(&mut self) -> Result<()> {
        self.pagefile.sync()?;
        self.fs
            .sync_dir(&self.dir)
            .map_err(|e| crate::io_err("store dir fsync", e))
    }

    /// Total pages allocated so far.
    #[must_use]
    pub fn pages(&self) -> u64 {
        self.model.allocated_pages()
    }

    /// The model disk's accumulated counters: the bill every access so
    /// far charged.
    #[must_use]
    pub fn stats(&self) -> IoStats {
        self.model.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::InjectedFs;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("hdidx_filestore_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn payload(tag: u8, pages: u64) -> Vec<u8> {
        (0..pages as usize * PAYLOAD_BYTES)
            .map(|i| tag.wrapping_add((i % 13) as u8))
            .collect()
    }

    #[test]
    fn bytes_round_trip_through_sync_and_reopen() {
        let dir = tmpdir("roundtrip");
        let mut st = FileStore::open(&dir, &DiskOptions::new()).unwrap();
        let f = st.alloc(8).unwrap();
        let data = payload(1, 3);
        st.write_pages(&f, 2, 3, &data).unwrap();
        // Visible before the sync: the pages went straight to the file.
        let mut back = vec![0u8; 3 * PAYLOAD_BYTES];
        st.read_pages(&f, 2, 3, &mut back).unwrap();
        assert_eq!(back, data);
        st.sync().unwrap();
        drop(st);

        let mut st = FileStore::open(&dir, &DiskOptions::new()).unwrap();
        // The model was pre-allocated over the existing pages; re-mint
        // the handle over the same range.
        let f = FileHandle::from_raw(f.start_page(), f.pages());
        let mut back = vec![0u8; 3 * PAYLOAD_BYTES];
        st.read_pages(&f, 2, 3, &mut back).unwrap();
        assert_eq!(back, data);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_writes_nothing_and_a_torn_page_fails_the_open() {
        let fs = InjectedFs::clean();
        let dir = PathBuf::from("/store");
        let open = || FileStore::open_in(Arc::new(fs.clone()), &dir, &DiskOptions::new());
        let mut st = open().unwrap();
        let f = st.alloc(2).unwrap();
        st.write_pages(&f, 0, 2, &payload(5, 2)).unwrap();
        st.sync().unwrap();
        drop(st);
        let image = fs.file_bytes(&dir.join("pages.db")).unwrap();
        drop(open().unwrap());
        assert_eq!(fs.file_bytes(&dir.join("pages.db")).unwrap(), image);
        assert_eq!(fs.list_dir(&dir).unwrap(), vec![dir.join("pages.db")]);

        let mut torn = fs.open(&dir.join("pages.db")).unwrap();
        torn.write_all_at(&[0xEE], 40).unwrap();
        assert!(open().is_err(), "a torn page must fail the open");
    }

    #[test]
    fn charging_matches_the_simulated_backend_bitwise() {
        // One page pattern under one fault plan, with full byte buffers
        // through the file store and on a bare simulated disk: every
        // counter, intent counters and retries included, must match.
        let dir = tmpdir("charge");
        let faults = hdidx_faults::FaultConfig::disabled(5)
            .with_rate_ppm(60_000)
            .unwrap();
        let opts = DiskOptions::new().fault_plan(Some(faults));
        let mut sim = Disk::with_options(&opts);
        let mut file = FileStore::open(&dir, &opts).unwrap();
        let f = sim.alloc(64).unwrap();
        assert_eq!(file.alloc(64).unwrap(), f);
        let pattern = [
            (false, 0, 8),
            (true, 32, 4),
            (false, 9, 5),
            (true, 36, 2),
            (false, 32, 6),
        ];
        for (tag, (write, first, n)) in pattern.into_iter().enumerate() {
            let mut buf = payload(tag as u8, n);
            if write {
                sim.write_pages(&f, first, n).unwrap();
                file.write_pages(&f, first, n, &buf).unwrap();
            } else {
                sim.read_pages(&f, first, n).unwrap();
                file.read_pages(&f, first, n, &mut buf).unwrap();
            }
        }
        let s = sim.stats();
        assert_eq!(file.stats(), s);
        assert!(s.retries > 0, "the plan must retry: {s:?}");
        assert_eq!((s.reads, s.writes), (19, 6));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mis_sized_buffers_are_rejected() {
        let dir = tmpdir("badbuf");
        let mut st = FileStore::open(&dir, &DiskOptions::new()).unwrap();
        let f = st.alloc(4).unwrap();
        let before = st.stats();
        assert!(st.write_pages(&f, 0, 2, &[0u8; 7]).is_err());
        let mut buf = [0u8; 7];
        assert!(st.read_pages(&f, 0, 2, &mut buf).is_err());
        // An empty buffer is mis-sized too: no access is pattern-only.
        assert!(st.write_pages(&f, 0, 2, &[]).is_err());
        assert_eq!(st.stats(), before, "rejected calls charge nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
