//! [`FileStore`]: the file-backed page store snapshots live on.
//!
//! ## Architecture
//!
//! A `FileStore` is three cooperating pieces under one directory:
//!
//! * an embedded **model [`Disk`]** (configured from the same
//!   [`DiskOptions`] a simulated disk takes) that owns the page
//!   address space and is charged *first* on every access — so seeks,
//!   transfers, intent counters and retries are identical to a simulated
//!   [`Disk`]'s driven through the same pages, by construction,
//! * the **page file** (`pages.db`) holding checkpointed page images with
//!   checksummed headers,
//! * the **write-ahead log** (`wal.log`) holding every page written since
//!   the last checkpoint.
//!
//! ## Write path (redo-only, no-steal)
//!
//! One [`FileStore::write_pages`] call forms one WAL batch: a frame per
//! page plus a commit record, fsynced according to the [`Durability`]
//! mode. Dirty payloads stay in an in-memory table until
//! [`FileStore::sync`] checkpoints them: flush to the page file, fsync
//! it, then truncate the WAL. The page file therefore only ever holds
//! checkpointed state, and a crash at any moment loses exactly the WAL
//! batches that were not yet durable — never a checkpointed page.
//!
//! ## Reopen
//!
//! [`FileStore::open`] recovers: it replays every complete WAL batch
//! (truncating the torn tail), verifies the page-file checksums —
//! skipping pages the replay is about to rewrite, since a crash during a
//! checkpoint can tear exactly those — applies the replayed frames, and
//! checkpoints. Dropping a `FileStore` deliberately does **nothing**
//! (no flush, no fsync): a drop *is* the crash model the recovery tests
//! rely on.

use crate::inject::{OsFs, Vfs};
use crate::pagefile::{PageFile, PAYLOAD_BYTES};
use crate::wal::Wal;
use crate::Durability;
use hdidx_core::{Error, Result};
use hdidx_diskio::{Disk, DiskOptions, FileHandle, IoStats};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// File-backed page store with WAL durability. See the module docs.
#[derive(Debug)]
pub struct FileStore {
    model: Disk,
    pagefile: PageFile,
    wal: Wal,
    /// Dirty payloads (absolute page → payload) since the last checkpoint.
    dirty: BTreeMap<u64, Vec<u8>>,
    durability: Durability,
    /// Commits since the WAL was last fsynced (drives [`Durability::EveryN`]).
    unsynced_commits: u32,
}

impl FileStore {
    /// Opens (creating if missing) the store under `dir`, running
    /// recovery: complete WAL batches are replayed over the page file,
    /// the torn tail is truncated, page checksums are verified
    /// (torn-write detection), and the result is checkpointed. The
    /// embedded model disk is configured from `opts` and pre-allocated
    /// over the recovered pages so fresh allocations extend past them.
    ///
    /// # Errors
    ///
    /// OS errors, or corruption that recovery cannot repair (a bad
    /// checksum on a page no surviving WAL batch covers).
    pub fn open(dir: &Path, durability: Durability, opts: &DiskOptions) -> Result<FileStore> {
        FileStore::open_in(Arc::new(OsFs), dir, durability, opts)
    }

    /// [`FileStore::open`] against a caller-supplied filesystem (e.g.
    /// the crash-injected [`InjectedFs`](crate::InjectedFs)).
    ///
    /// # Errors
    ///
    /// As [`FileStore::open`].
    pub fn open_in(
        fs: Arc<dyn Vfs>,
        dir: &Path,
        durability: Durability,
        opts: &DiskOptions,
    ) -> Result<FileStore> {
        fs.create_dir_all(dir)
            .map_err(|e| crate::io_err("store mkdir", e))?;
        let mut wal = Wal::open_in(&*fs, &dir.join("wal.log"))?;
        let batches = wal.recover()?;
        let covered: std::collections::BTreeSet<u64> = batches
            .iter()
            .flat_map(|b| b.frames.iter().map(|f| f.page_no))
            .collect();
        let mut pagefile = PageFile::open_deferred_in(&*fs, &dir.join("pages.db"))?;
        pagefile.verify_skipping(|p| covered.contains(&p))?;
        for batch in &batches {
            for frame in &batch.frames {
                pagefile.write_page(frame.page_no, &frame.payload)?;
            }
        }
        pagefile.sync()?;
        wal.truncate()?;
        // The files' *directory entries* must be durable before any WAL
        // fsync can promise anything: a fully fsynced wal.log still
        // vanishes in a power cut if the directory was never synced.
        fs.sync_dir(dir)
            .map_err(|e| crate::io_err("store dir fsync", e))?;

        let mut model = Disk::with_options(opts);
        if pagefile.pages() > 0 {
            // Claim the recovered address space; charges nothing.
            model.alloc(pagefile.pages())?;
        }
        Ok(FileStore {
            model,
            pagefile,
            wal,
            dirty: BTreeMap::new(),
            durability,
            unsynced_commits: 0,
        })
    }

    /// Current WAL length in bytes (un-checkpointed redo volume).
    #[must_use]
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
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
    /// [`Disk::read_pages`] charges the simulation.
    ///
    /// # Errors
    ///
    /// A mis-sized buffer (charging nothing), the model disk's range and
    /// fault errors, and page-file corruption.
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
            if let Some(payload) = self.dirty.get(&page) {
                out.fill(0);
                out[..payload.len()].copy_from_slice(payload);
            } else {
                self.pagefile.read_page(page, out)?;
            }
        }
        Ok(())
    }

    /// Writes `n_pages` pages of `file` starting at `first_page`
    /// (file-relative) from `data`, which must hold exactly `n_pages`
    /// payloads. One call forms one WAL batch, fsynced according to the
    /// store's [`Durability`]; the model disk is charged first, exactly as
    /// [`Disk::write_pages`] charges the simulation.
    ///
    /// # Errors
    ///
    /// As [`FileStore::read_pages`], plus WAL write and fsync failures.
    pub fn write_pages(
        &mut self,
        file: &FileHandle,
        first_page: u64,
        n_pages: u64,
        data: &[u8],
    ) -> Result<()> {
        Self::check_len(n_pages, data.len())?;
        self.model.write_pages(file, first_page, n_pages)?;
        let base = file.start_page() + first_page;
        for (page, payload) in (base..).zip(data.chunks_exact(PAYLOAD_BYTES)) {
            self.wal.append_frame(page, payload)?;
        }
        self.wal.commit()?;
        match self.durability {
            Durability::PerBatch => self.wal.sync()?,
            Durability::EveryN(n) => {
                self.unsynced_commits += 1;
                if self.unsynced_commits >= n {
                    self.wal.sync()?;
                    self.unsynced_commits = 0;
                }
            }
            Durability::None => {}
        }
        for (page, payload) in (base..).zip(data.chunks_exact(PAYLOAD_BYTES)) {
            self.dirty.insert(page, payload.to_vec());
        }
        Ok(())
    }

    /// Checkpoints every write issued so far: dirty pages go to the page
    /// file, the page file is fsynced, and the WAL is truncated.
    ///
    /// # Errors
    ///
    /// Page-file write, fsync and WAL truncation failures.
    pub fn sync(&mut self) -> Result<()> {
        for (&page, payload) in &self.dirty {
            self.pagefile.write_page(page, payload)?;
        }
        self.pagefile.sync()?;
        self.wal.truncate()?;
        self.dirty.clear();
        self.unsynced_commits = 0;
        Ok(())
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
    fn bytes_round_trip_through_checkpoint_and_reopen() {
        let dir = tmpdir("roundtrip");
        let mut st = FileStore::open(&dir, Durability::PerBatch, &DiskOptions::new()).unwrap();
        let f = st.alloc(8).unwrap();
        let data = payload(1, 3);
        st.write_pages(&f, 2, 3, &data).unwrap();
        // Visible before the checkpoint (served from the dirty table).
        let mut back = vec![0u8; 3 * PAYLOAD_BYTES];
        st.read_pages(&f, 2, 3, &mut back).unwrap();
        assert_eq!(back, data);
        st.sync().unwrap();
        drop(st);

        let mut st = FileStore::open(&dir, Durability::PerBatch, &DiskOptions::new()).unwrap();
        // The model was pre-allocated over the recovered pages; re-mint
        // the handle over the same range.
        let f = FileHandle::from_raw(f.start_page(), f.pages());
        let mut back = vec![0u8; 3 * PAYLOAD_BYTES];
        st.read_pages(&f, 2, 3, &mut back).unwrap();
        assert_eq!(back, data);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_before_checkpoint_recovers_from_the_wal() {
        let dir = tmpdir("crash");
        let mut st = FileStore::open(&dir, Durability::PerBatch, &DiskOptions::new()).unwrap();
        let f = st.alloc(4).unwrap();
        let data = payload(7, 2);
        st.write_pages(&f, 0, 2, &data).unwrap();
        assert!(st.wal_len() > 0);
        drop(st); // crash: no checkpoint

        let mut st = FileStore::open(&dir, Durability::PerBatch, &DiskOptions::new()).unwrap();
        assert_eq!(st.wal_len(), 0, "recovery checkpoints");
        let f = FileHandle::from_raw(f.start_page(), f.pages());
        let mut back = vec![0u8; 2 * PAYLOAD_BYTES];
        st.read_pages(&f, 0, 2, &mut back).unwrap();
        assert_eq!(back, data, "per-batch durability survives the crash");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durability_none_loses_unsynced_batches_on_simulated_power_cut() {
        let dir = tmpdir("powercut");
        let mut st = FileStore::open(&dir, Durability::None, &DiskOptions::new()).unwrap();
        let f = st.alloc(4).unwrap();
        st.write_pages(&f, 0, 1, &payload(3, 1)).unwrap();
        drop(st);
        // Model the power cut: the un-fsynced WAL bytes never hit disk.
        std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("wal.log"))
            .unwrap()
            .set_len(0)
            .unwrap();

        let mut st = FileStore::open(&dir, Durability::None, &DiskOptions::new()).unwrap();
        let f = FileHandle::from_raw(f.start_page(), f.pages());
        let mut back = vec![0u8; PAYLOAD_BYTES];
        st.read_pages(&f, 0, 1, &mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0), "unsynced batch is gone");
        let _ = std::fs::remove_dir_all(&dir);
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
        let mut file = FileStore::open(&dir, Durability::PerBatch, &opts).unwrap();
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
        let mut st = FileStore::open(&dir, Durability::PerBatch, &DiskOptions::new()).unwrap();
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
