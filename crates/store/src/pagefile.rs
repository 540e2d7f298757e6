//! The checksummed page file: fixed 8 KiB pages, 32-byte headers,
//! torn-write detection on reopen.
//!
//! ## Page layout (8192 bytes)
//!
//! | offset | bytes | field |
//! |-------:|------:|-------|
//! | 0      | 8     | magic (`PAGE_MAGIC`, little-endian) |
//! | 8      | 8     | page number (self-describing: a page written to the wrong offset is caught) |
//! | 16     | 8     | payload length (≤ 8160) |
//! | 24     | 8     | FNV-1a checksum over the payload, seeded with the page number |
//! | 32     | 8160  | payload (zero-padded past the payload length) |
//!
//! An **all-zero** page is a page that was never written (sparse file
//! reads past the high-water mark) and reads back as an empty payload.
//! Anything else must carry a valid header and checksum; a mismatch is a
//! torn or corrupted write and surfaces as
//! [`Error::StoreFailure`] with op `"page checksum"` — the reopen-time
//! verification pass ([`PageFile::open_in`]) is what turns a crash mid
//! `write(2)` into a detected error instead of silent corruption.

use crate::inject::{Vfs, VfsFile};
use crate::io_err;
use hdidx_core::{fnv1a, Error, Result, FNV_OFFSET};
use std::path::Path;

/// On-disk page size, fixed at the paper's 8 KiB.
pub const PAGE_BYTES: usize = 8192;
/// Bytes of header per page.
pub const HEADER_BYTES: usize = 32;
/// Usable payload bytes per page.
pub const PAYLOAD_BYTES: usize = PAGE_BYTES - HEADER_BYTES;

/// Magic tag of a written page ("HDIXPAGE" little-endian-ish).
const PAGE_MAGIC: u64 = 0x4844_4958_5041_4745;

/// Checksum of a page's payload, bound to its page number so a page
/// written to the wrong slot fails verification too.
fn page_checksum(page_no: u64, payload: &[u8]) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, &page_no.to_le_bytes()), payload)
}

/// A page-granular file of checksummed 8 KiB pages.
#[derive(Debug)]
pub struct PageFile {
    file: Box<dyn VfsFile>,
    /// High-water mark: number of page slots the file currently spans.
    pages: u64,
}

impl PageFile {
    /// Opens (creating if missing) the page file at `path` on `fs` and
    /// verifies **every** existing page's header and checksum —
    /// torn-write detection on reopen.
    ///
    /// # Errors
    ///
    /// OS errors, a file length that is not a multiple of [`PAGE_BYTES`],
    /// or [`Error::StoreFailure`] naming the first page that fails
    /// verification.
    pub fn open_in(fs: &dyn Vfs, path: &Path) -> Result<PageFile> {
        let pf = PageFile::open_deferred_in(fs, path)?;
        let mut buf = [0u8; PAGE_BYTES];
        for p in 0..pf.pages {
            pf.read_raw(p, &mut buf)?;
            Self::decode(p, &buf)?;
        }
        Ok(pf)
    }

    /// Opens the page file **without** the verification pass, for the
    /// scrub, which must tolerate the corrupt pages it is about to find.
    ///
    /// # Errors
    ///
    /// OS errors, or a file length that is not a multiple of
    /// [`PAGE_BYTES`].
    pub fn open_deferred_in(fs: &dyn Vfs, path: &Path) -> Result<PageFile> {
        let file = fs.open(path).map_err(|e| io_err("pagefile open", e))?;
        let len = file.len().map_err(|e| io_err("pagefile stat", e))?;
        if len % PAGE_BYTES as u64 != 0 {
            return Err(Error::StoreFailure {
                op: "pagefile open",
                detail: format!("length {len} is not a multiple of {PAGE_BYTES}"),
            });
        }
        Ok(PageFile {
            file,
            pages: len / PAGE_BYTES as u64,
        })
    }

    /// Number of page slots the file spans.
    #[must_use]
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Verifies a single page slot (header + checksum, or all-zero).
    ///
    /// # Errors
    ///
    /// OS errors and verification failures — the per-page probe the
    /// scrub pass uses to find corrupt or torn pages.
    pub fn check_page(&self, page_no: u64) -> Result<()> {
        let mut buf = [0u8; PAGE_BYTES];
        self.read_raw(page_no, &mut buf)?;
        Self::decode(page_no, &buf).map(|_| ())
    }

    /// Quarantines page `page_no`: overwrites the whole slot with zeros,
    /// turning it back into an "unwritten" page that reads as an empty
    /// payload and passes verification. Used by the scrub pass for
    /// corrupt pages.
    ///
    /// # Errors
    ///
    /// OS errors.
    pub fn quarantine(&mut self, page_no: u64) -> Result<()> {
        let zeros = [0u8; PAGE_BYTES];
        self.file
            .write_all_at(&zeros, page_no * PAGE_BYTES as u64)
            .map_err(|e| io_err("pagefile quarantine", e))?;
        self.pages = self.pages.max(page_no + 1);
        Ok(())
    }

    fn read_raw(&self, page_no: u64, buf: &mut [u8; PAGE_BYTES]) -> Result<()> {
        self.file
            .read_exact_at(buf, page_no * PAGE_BYTES as u64)
            .map_err(|e| io_err("pagefile read", e))
    }

    /// Parses and verifies one raw page image; `Ok(None)` for an all-zero
    /// (unwritten) slot, otherwise the payload length.
    fn decode(page_no: u64, buf: &[u8; PAGE_BYTES]) -> Result<Option<usize>> {
        if buf.iter().all(|&b| b == 0) {
            return Ok(None);
        }
        let word = |i: usize| u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().unwrap());
        if word(0) != PAGE_MAGIC {
            return Err(Error::StoreFailure {
                op: "page magic",
                detail: format!("page {page_no} has bad magic {:#018x}", word(0)),
            });
        }
        if word(1) != page_no {
            return Err(Error::StoreFailure {
                op: "page number",
                detail: format!("page {page_no} claims to be page {}", word(1)),
            });
        }
        let payload_len = word(2) as usize;
        if payload_len > PAYLOAD_BYTES {
            return Err(Error::StoreFailure {
                op: "page length",
                detail: format!("page {page_no} claims {payload_len} payload bytes"),
            });
        }
        let expect = page_checksum(page_no, &buf[HEADER_BYTES..HEADER_BYTES + payload_len]);
        if word(3) != expect {
            return Err(Error::StoreFailure {
                op: "page checksum",
                detail: format!("page {page_no} checksum mismatch (torn or corrupted write)"),
            });
        }
        Ok(Some(payload_len))
    }

    /// Writes `payload` (≤ [`PAYLOAD_BYTES`]) as page `page_no`, growing
    /// the file as needed. Does **not** fsync — durability is the
    /// caller's policy.
    ///
    /// # Errors
    ///
    /// Oversized payloads and OS errors.
    pub fn write_page(&mut self, page_no: u64, payload: &[u8]) -> Result<()> {
        if payload.len() > PAYLOAD_BYTES {
            return Err(Error::invalid(
                "payload",
                format!(
                    "{} bytes exceeds the {PAYLOAD_BYTES}-byte payload",
                    payload.len()
                ),
            ));
        }
        let mut buf = [0u8; PAGE_BYTES];
        buf[0..8].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
        buf[8..16].copy_from_slice(&page_no.to_le_bytes());
        buf[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        buf[24..32].copy_from_slice(&page_checksum(page_no, payload).to_le_bytes());
        buf[HEADER_BYTES..HEADER_BYTES + payload.len()].copy_from_slice(payload);
        self.file
            .write_all_at(&buf, page_no * PAGE_BYTES as u64)
            .map_err(|e| io_err("pagefile write", e))?;
        self.pages = self.pages.max(page_no + 1);
        Ok(())
    }

    /// Reads page `page_no` into `out` (exactly [`PAYLOAD_BYTES`] long,
    /// zero-padded past the stored payload). Unwritten slots — beyond the
    /// file end or all-zero — read as all zeros.
    ///
    /// # Errors
    ///
    /// OS errors and verification failures.
    pub fn read_page(&self, page_no: u64, out: &mut [u8]) -> Result<()> {
        debug_assert_eq!(out.len(), PAYLOAD_BYTES);
        out.fill(0);
        if page_no >= self.pages {
            return Ok(());
        }
        let mut buf = [0u8; PAGE_BYTES];
        self.read_raw(page_no, &mut buf)?;
        if let Some(len) = Self::decode(page_no, &buf)? {
            out[..len].copy_from_slice(&buf[HEADER_BYTES..HEADER_BYTES + len]);
        }
        Ok(())
    }

    /// fsyncs the page file.
    ///
    /// # Errors
    ///
    /// OS errors.
    pub fn sync(&mut self) -> Result<()> {
        self.file
            .sync_all()
            .map_err(|e| io_err("pagefile fsync", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::OsFs;
    use std::fs::OpenOptions;
    use std::io::{Seek, SeekFrom, Write};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("hdidx_pagefile_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn round_trips_and_survives_reopen() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("pages.db");
        let mut pf = PageFile::open_in(&OsFs, &path).unwrap();
        let payload: Vec<u8> = (0..PAYLOAD_BYTES).map(|i| (i % 251) as u8).collect();
        pf.write_page(3, &payload).unwrap();
        pf.write_page(0, b"hello").unwrap();
        pf.sync().unwrap();
        drop(pf);

        let pf = PageFile::open_in(&OsFs, &path).unwrap();
        assert_eq!(pf.pages(), 4);
        let mut out = vec![0u8; PAYLOAD_BYTES];
        pf.read_page(3, &mut out).unwrap();
        assert_eq!(out, payload);
        pf.read_page(0, &mut out).unwrap();
        assert_eq!(&out[..5], b"hello");
        assert!(out[5..].iter().all(|&b| b == 0));
        // Unwritten slots (1, 2, and beyond the end) read as zeros.
        pf.read_page(1, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        pf.read_page(99, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_is_detected_on_reopen() {
        let dir = tmpdir("torn");
        let path = dir.join("pages.db");
        let mut pf = PageFile::open_in(&OsFs, &path).unwrap();
        pf.write_page(1, &[7u8; 100]).unwrap();
        pf.sync().unwrap();
        drop(pf);
        // Flip one payload byte of page 1 — a torn write.
        let mut f = OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(
            PAGE_BYTES as u64 + HEADER_BYTES as u64 + 10,
        ))
        .unwrap();
        f.write_all(&[0xEE]).unwrap();
        drop(f);
        let err = PageFile::open_in(&OsFs, &path).unwrap_err();
        assert!(
            matches!(
                err,
                Error::StoreFailure {
                    op: "page checksum",
                    ..
                }
            ),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_payload_rejected() {
        let dir = tmpdir("oversize");
        let mut pf = PageFile::open_in(&OsFs, &dir.join("pages.db")).unwrap();
        assert!(pf.write_page(0, &vec![0u8; PAYLOAD_BYTES + 1]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
