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
//!
//! ## One read, one verification
//!
//! A page file is read whole, in one read, when it is opened, and the
//! image stays in memory: [`PageFile::open_in`] verifies every page of
//! it once, [`PageFile::read_page`] copies from it, and
//! [`PageFile::write_pages`] writes through to the file and the image.
//! So an open-and-load reads and checksums each page once. Checksums run
//! [`FNV_LANES`] pages per pass ([`fnv1a_lanes`]): FNV-1a's chain is
//! serial and the format is fixed, so the parallelism is across pages.

use crate::inject::{Vfs, VfsFile};
use crate::io_err;
use hdidx_core::{fnv1a, fnv1a_lanes, Error, Result, FNV_LANES, FNV_OFFSET};
use std::path::Path;

/// On-disk page size, fixed at the paper's 8 KiB.
pub const PAGE_BYTES: usize = 8192;
/// Bytes of header per page.
pub const HEADER_BYTES: usize = 32;
/// Usable payload bytes per page.
pub const PAYLOAD_BYTES: usize = PAGE_BYTES - HEADER_BYTES;

/// Magic tag of a written page ("HDIXPAGE" little-endian-ish).
const PAGE_MAGIC: u64 = 0x4844_4958_5041_4745;

/// Checksums of up to [`FNV_LANES`] `(page_no, payload)` pages in one
/// pass: entry `i` is FNV-1a over `payloads[i]`, seeded with page
/// `page_no`'s number, so a page written to the wrong slot fails
/// verification too. Entries past `pages.len()` are unused.
fn page_checksums(pages: &[(u64, &[u8])]) -> [u64; FNV_LANES] {
    debug_assert!(pages.len() <= FNV_LANES);
    let mut seeds = [FNV_OFFSET; FNV_LANES];
    let mut lanes: [&[u8]; FNV_LANES] = [&[]; FNV_LANES];
    for (l, &(page_no, payload)) in pages.iter().enumerate() {
        seeds[l] = fnv1a(FNV_OFFSET, &page_no.to_le_bytes());
        lanes[l] = payload;
    }
    fnv1a_lanes(seeds, lanes)
}

/// Little-endian header word `i` of a raw page.
fn word(page: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(page[i * 8..i * 8 + 8].try_into().unwrap())
}

/// The structural checks of one raw page, before its checksum: `Ok(None)`
/// for an all-zero (unwritten) slot, otherwise the payload length.
fn check_header(page_no: u64, page: &[u8]) -> Result<Option<usize>> {
    if word(page, 0) != PAGE_MAGIC {
        if page.iter().all(|&b| b == 0) {
            return Ok(None);
        }
        return Err(Error::StoreFailure {
            op: "page magic",
            detail: format!("page {page_no} has bad magic {:#018x}", word(page, 0)),
        });
    }
    if word(page, 1) != page_no {
        return Err(Error::StoreFailure {
            op: "page number",
            detail: format!("page {page_no} claims to be page {}", word(page, 1)),
        });
    }
    let payload_len = word(page, 2) as usize;
    if payload_len > PAYLOAD_BYTES {
        return Err(Error::StoreFailure {
            op: "page length",
            detail: format!("page {page_no} claims {payload_len} payload bytes"),
        });
    }
    Ok(Some(payload_len))
}

/// Verifies the raw pages of `image` (page `p` at byte `p *
/// PAGE_BYTES`): each page's verdict, in page order. A page passes when
/// it is all-zero or its header and checksum are valid; the pages whose
/// headers pass are checksummed [`FNV_LANES`] per pass.
fn verify_pages(image: &[u8]) -> Vec<Result<()>> {
    let pages: Vec<(u64, &[u8])> = (0..).zip(image.chunks_exact(PAGE_BYTES)).collect();
    let mut verdicts = Vec::with_capacity(pages.len());
    for group in pages.chunks(FNV_LANES) {
        let headers: Vec<Result<Option<usize>>> = group
            .iter()
            .map(|&(p, page)| check_header(p, page))
            .collect();
        // A page that failed its header or is unwritten rides along empty.
        let payloads: Vec<(u64, &[u8])> = group
            .iter()
            .zip(&headers)
            .map(|(&(p, page), header)| match header {
                Ok(Some(len)) => (p, &page[HEADER_BYTES..HEADER_BYTES + len]),
                _ => (p, &[][..]),
            })
            .collect();
        let sums = page_checksums(&payloads);
        for ((&(p, page), header), sum) in group.iter().zip(headers).zip(sums) {
            verdicts.push(match header {
                Ok(Some(_)) if word(page, 3) != sum => Err(Error::StoreFailure {
                    op: "page checksum",
                    detail: format!("page {p} checksum mismatch (torn or corrupted write)"),
                }),
                header => header.map(drop),
            });
        }
    }
    verdicts
}

/// A page-granular file of checksummed 8 KiB pages, held in memory
/// (see the module docs).
#[derive(Debug)]
pub struct PageFile {
    file: Box<dyn VfsFile>,
    /// The file's bytes, read once at open and kept in step with every
    /// write; its length is the high-water mark in whole pages.
    image: Vec<u8>,
}

impl PageFile {
    /// Opens (creating if missing) the page file at `path` on `fs`, reads
    /// it whole and verifies **every** page's header and checksum —
    /// torn-write detection on reopen.
    ///
    /// # Errors
    ///
    /// OS errors, a file length that is not a multiple of [`PAGE_BYTES`],
    /// or [`Error::StoreFailure`] naming the first page that fails
    /// verification.
    pub fn open_in(fs: &dyn Vfs, path: &Path) -> Result<PageFile> {
        let pf = PageFile::open_deferred_in(fs, path)?;
        pf.verify().into_iter().collect::<Result<()>>()?;
        Ok(pf)
    }

    /// Opens and reads the page file **without** the verification pass,
    /// for the scrub, which must tolerate the corrupt pages it is about
    /// to find. Reads serve the pages as found until they are verified.
    ///
    /// # Errors
    ///
    /// OS errors, or a file length that is not a multiple of
    /// [`PAGE_BYTES`].
    pub(crate) fn open_deferred_in(fs: &dyn Vfs, path: &Path) -> Result<PageFile> {
        let file = fs.open(path).map_err(|e| io_err("pagefile open", e))?;
        let len = file.len().map_err(|e| io_err("pagefile stat", e))?;
        if len % PAGE_BYTES as u64 != 0 {
            return Err(Error::StoreFailure {
                op: "pagefile open",
                detail: format!("length {len} is not a multiple of {PAGE_BYTES}"),
            });
        }
        let len = usize::try_from(len).map_err(|_| Error::StoreFailure {
            op: "pagefile open",
            detail: format!("length {len} does not fit in memory"),
        })?;
        let mut image = vec![0u8; len];
        if len > 0 {
            file.read_exact_at(&mut image, 0)
                .map_err(|e| io_err("pagefile read", e))?;
        }
        Ok(PageFile { file, image })
    }

    /// Number of page slots the file spans.
    #[must_use]
    pub fn pages(&self) -> u64 {
        (self.image.len() / PAGE_BYTES) as u64
    }

    /// Every page slot's verdict, in page order: `Ok` for an all-zero
    /// (unwritten) slot or a valid header and checksum, otherwise the
    /// [`Error::StoreFailure`] naming what failed. The probe the scrub
    /// pass uses to find corrupt or torn pages.
    #[must_use]
    pub(crate) fn verify(&self) -> Vec<Result<()>> {
        verify_pages(&self.image)
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
        self.put(page_no, &[0u8; PAGE_BYTES], "pagefile quarantine")
    }

    /// Writes the raw `page` to slot `page_no` of the file and then of
    /// the image, growing both as needed.
    fn put(&mut self, page_no: u64, page: &[u8; PAGE_BYTES], op: &'static str) -> Result<()> {
        self.file
            .write_all_at(page, page_no * PAGE_BYTES as u64)
            .map_err(|e| io_err(op, e))?;
        let at = page_no as usize * PAGE_BYTES;
        if self.image.len() < at + PAGE_BYTES {
            self.image.resize(at + PAGE_BYTES, 0);
        }
        self.image[at..at + PAGE_BYTES].copy_from_slice(page);
        Ok(())
    }

    /// Writes each `(page_no, payload)` (payloads ≤ [`PAYLOAD_BYTES`]) in
    /// order, one write per page, growing the file as needed; the pages
    /// are sealed [`FNV_LANES`] per checksum pass. Does **not** fsync —
    /// durability is the caller's policy.
    ///
    /// # Errors
    ///
    /// An oversized payload (before anything is written) and OS errors.
    pub fn write_pages(&mut self, pages: &[(u64, &[u8])]) -> Result<()> {
        if let Some((_, payload)) = pages.iter().find(|(_, p)| p.len() > PAYLOAD_BYTES) {
            return Err(Error::invalid(
                "payload",
                format!(
                    "{} bytes exceeds the {PAYLOAD_BYTES}-byte payload",
                    payload.len()
                ),
            ));
        }
        for group in pages.chunks(FNV_LANES) {
            for (&(page_no, payload), sum) in group.iter().zip(page_checksums(group)) {
                let mut page = [0u8; PAGE_BYTES];
                page[0..8].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
                page[8..16].copy_from_slice(&page_no.to_le_bytes());
                page[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
                page[24..32].copy_from_slice(&sum.to_le_bytes());
                page[HEADER_BYTES..HEADER_BYTES + payload.len()].copy_from_slice(payload);
                self.put(page_no, &page, "pagefile write")?;
            }
        }
        Ok(())
    }

    /// Copies page `page_no`'s payload into `out` (exactly
    /// [`PAYLOAD_BYTES`] long, zero-padded past the stored payload).
    /// Unwritten slots — beyond the file end or all-zero — read as all
    /// zeros. The page was verified when the file was opened or sealed
    /// when it was written, so nothing is read or checksummed here.
    pub fn read_page(&self, page_no: u64, out: &mut [u8]) {
        debug_assert_eq!(out.len(), PAYLOAD_BYTES);
        out.fill(0);
        if page_no < self.pages() {
            let page = &self.image[page_no as usize * PAGE_BYTES..][..PAGE_BYTES];
            let len = (word(page, 2) as usize).min(PAYLOAD_BYTES);
            out[..len].copy_from_slice(&page[HEADER_BYTES..HEADER_BYTES + len]);
        }
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

/// The one-page serial sealer and verifier the batched paths replaced,
/// kept as the oracle they must match byte for byte and verdict for
/// verdict.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{HEADER_BYTES, PAGE_BYTES, PAGE_MAGIC, PAYLOAD_BYTES};
    use hdidx_core::{fnv1a, Error, Result, FNV_OFFSET};

    /// FNV-1a over `payload`, seeded with the page number.
    pub(crate) fn checksum(page_no: u64, payload: &[u8]) -> u64 {
        fnv1a(fnv1a(FNV_OFFSET, &page_no.to_le_bytes()), payload)
    }

    /// The raw page image of `payload` written as page `page_no`.
    pub(crate) fn seal(page_no: u64, payload: &[u8]) -> [u8; PAGE_BYTES] {
        let mut buf = [0u8; PAGE_BYTES];
        buf[0..8].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
        buf[8..16].copy_from_slice(&page_no.to_le_bytes());
        buf[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        buf[24..32].copy_from_slice(&checksum(page_no, payload).to_le_bytes());
        buf[HEADER_BYTES..HEADER_BYTES + payload.len()].copy_from_slice(payload);
        buf
    }

    /// Parses and verifies one raw page image; `Ok(None)` for an all-zero
    /// (unwritten) slot, otherwise the payload length.
    pub(crate) fn decode(page_no: u64, buf: &[u8]) -> Result<Option<usize>> {
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
        if word(3) != checksum(page_no, &buf[HEADER_BYTES..HEADER_BYTES + payload_len]) {
            return Err(Error::StoreFailure {
                op: "page checksum",
                detail: format!("page {page_no} checksum mismatch (torn or corrupted write)"),
            });
        }
        Ok(Some(payload_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{InjectedFs, OsFs};
    use hdidx_check::{check, prop_assert_eq, prop_assume, Config, Verdict};
    use hdidx_rand::splitmix::derive_seed;
    use hdidx_rand::{seeded, Rng};
    use std::fs::OpenOptions;
    use std::io::{Seek, SeekFrom, Write};
    use std::path::PathBuf;

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
        pf.write_pages(&[(3, &payload), (0, b"hello")]).unwrap();
        pf.sync().unwrap();
        drop(pf);

        let pf = PageFile::open_in(&OsFs, &path).unwrap();
        assert_eq!(pf.pages(), 4);
        let mut out = vec![0u8; PAYLOAD_BYTES];
        pf.read_page(3, &mut out);
        assert_eq!(out, payload);
        pf.read_page(0, &mut out);
        assert_eq!(&out[..5], b"hello");
        assert!(out[5..].iter().all(|&b| b == 0));
        // Unwritten slots (1, 2, and beyond the end) read as zeros.
        pf.read_page(1, &mut out);
        assert!(out.iter().all(|&b| b == 0));
        pf.read_page(99, &mut out);
        assert!(out.iter().all(|&b| b == 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_is_detected_on_reopen() {
        let dir = tmpdir("torn");
        let path = dir.join("pages.db");
        let mut pf = PageFile::open_in(&OsFs, &path).unwrap();
        pf.write_pages(&[(1, &[7u8; 100])]).unwrap();
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
        let fs = InjectedFs::clean();
        let path = PathBuf::from("/pages.db");
        let mut pf = PageFile::open_in(&fs, &path).unwrap();
        let big = vec![0u8; PAYLOAD_BYTES + 1];
        assert!(pf.write_pages(&[(0, b"fits"), (1, &big)]).is_err());
        assert_eq!(pf.pages(), 0);
        assert_eq!(fs.file_bytes(&path).unwrap(), Vec::<u8>::new());
    }

    /// Kinds of page image the verifier property suite mixes.
    const VALID: u8 = 0;
    const ZERO: u8 = 1;
    const STALE: u8 = 2;
    const BAD_MAGIC: u8 = 3;
    const WRONG_NUMBER: u8 = 4;
    const TOO_LONG: u8 = 5;
    const RESEALED: u8 = 6;
    const PADDING_FLIP: u8 = 7;
    const KINDS: u8 = 8;

    /// Raw image of page `page_no`, of kind `kind % KINDS`, drawn from
    /// `seed`: valid pages of random length, all-zero pages, and each way
    /// a header or payload can be wrong.
    fn page_of_kind(seed: u64, page_no: u64, kind: u8) -> [u8; PAGE_BYTES] {
        let mut rng = seeded(derive_seed(seed, page_no));
        let kind = kind % KINDS;
        let len = match kind {
            // The mutations below need one payload byte, or one of padding.
            STALE | RESEALED => rng.gen_range(1..=PAYLOAD_BYTES),
            PADDING_FLIP => rng.gen_range(0..PAYLOAD_BYTES),
            _ if rng.gen_bool(0.25) => [0, 1, PAYLOAD_BYTES][rng.gen_range(0..3usize)],
            _ => rng.gen_range(0..=PAYLOAD_BYTES),
        };
        let mut payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        let mut page = oracle::seal(page_no, &payload);
        let bit = 1u8 << rng.gen_range(0..8u32);
        match kind {
            ZERO => page = [0u8; PAGE_BYTES],
            STALE => page[HEADER_BYTES + rng.gen_range(0..len)] ^= bit,
            BAD_MAGIC => page[rng.gen_range(0..8usize)] ^= bit,
            WRONG_NUMBER => page = oracle::seal(page_no ^ (1 << rng.gen_range(0..64u32)), &payload),
            TOO_LONG => {
                let claimed = rng.gen_range(PAYLOAD_BYTES as u64 + 1..=u64::MAX);
                page[16..24].copy_from_slice(&claimed.to_le_bytes());
            }
            RESEALED => {
                let at = rng.gen_range(0..len);
                payload[at] ^= bit;
                page = oracle::seal(page_no, &payload);
            }
            PADDING_FLIP => page[HEADER_BYTES + rng.gen_range(len..PAYLOAD_BYTES)] ^= bit,
            _ => {}
        }
        page
    }

    /// A page file on a fresh in-memory fs holding exactly `image`.
    fn stored(image: &[u8]) -> (InjectedFs, PathBuf) {
        let fs = InjectedFs::clean();
        let path = PathBuf::from("/pages.db");
        fs.open(&path).unwrap().write_all_at(image, 0).unwrap();
        (fs, path)
    }

    /// The batched verifier against the one-page oracle over the pages of
    /// `kinds`: each verdict, the open's first failure in page order, and
    /// every payload read back.
    fn batch_matches_the_oracle(seed: u64, kinds: &[u8]) -> Verdict {
        let pages: Vec<[u8; PAGE_BYTES]> = (0..)
            .zip(kinds)
            .map(|(p, &kind)| page_of_kind(seed, p, kind))
            .collect();
        let image = pages.concat();
        let want: Vec<Result<Option<usize>>> = (0..)
            .zip(&pages)
            .map(|(p, page)| oracle::decode(p, page))
            .collect();
        for (p, (got, want)) in verify_pages(&image).into_iter().zip(&want).enumerate() {
            prop_assert_eq!((p, got), (p, want.clone().map(drop)));
        }
        let (fs, path) = stored(&image);
        let first_bad = want.iter().find_map(|w| w.clone().err());
        match PageFile::open_in(&fs, &path) {
            Err(e) => prop_assert_eq!(Some(e), first_bad),
            Ok(pf) => {
                prop_assert_eq!(None, first_bad);
                let mut out = vec![0u8; PAYLOAD_BYTES];
                for (p, (page, len)) in (0..).zip(pages.iter().zip(&want)) {
                    pf.read_page(p, &mut out);
                    let len = len.clone().unwrap().unwrap_or(0);
                    let mut expect = page[HEADER_BYTES..HEADER_BYTES + len].to_vec();
                    expect.resize(PAYLOAD_BYTES, 0);
                    prop_assert_eq!((p, &out), (p, &expect));
                }
            }
        }
        Verdict::Pass
    }

    #[test]
    fn every_bad_page_kind_in_every_lane_matches_the_oracle() {
        for n in 1..=9usize {
            for bad_at in 0..n {
                for bad in [STALE, BAD_MAGIC, WRONG_NUMBER, TOO_LONG] {
                    let mut kinds = vec![VALID; n];
                    kinds[bad_at] = bad;
                    let verdict = batch_matches_the_oracle(n as u64 * 31 + bad_at as u64, &kinds);
                    assert!(
                        matches!(verdict, Verdict::Pass),
                        "{n} pages, kind {bad} at {bad_at}: {verdict:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_verification_matches_the_one_page_oracle() {
        check(
            "batched_verification_matches_the_one_page_oracle",
            &Config::with_cases(128),
            |rng| {
                let n = rng.gen_range(1..=9usize);
                let kinds: Vec<u8> = (0..n)
                    .map(|_| rng.gen_range(0..KINDS as u32) as u8)
                    .collect();
                (rng.next_u64(), kinds)
            },
            |(seed, kinds)| {
                prop_assume!(!kinds.is_empty() && kinds.len() <= 9);
                batch_matches_the_oracle(*seed, kinds)
            },
        );
    }

    #[test]
    fn batched_sealing_writes_the_oracle_bytes() {
        check(
            "batched_sealing_writes_the_oracle_bytes",
            &Config::with_cases(64),
            |rng| {
                let n = rng.gen_range(1..=9usize);
                let lens: Vec<usize> = (0..n).map(|_| rng.gen_range(0..=PAYLOAD_BYTES)).collect();
                (rng.next_u64(), lens)
            },
            |(seed, lens)| {
                let mut rng = seeded(*seed);
                let payloads: Vec<Vec<u8>> = lens
                    .iter()
                    .map(|&n| {
                        (0..n.min(PAYLOAD_BYTES))
                            .map(|_| rng.gen_range(0..=255u32) as u8)
                            .collect()
                    })
                    .collect();
                let pages: Vec<(u64, &[u8])> = (0..).zip(payloads.iter().map(|p| &p[..])).collect();
                let (fs, path) = stored(&[]);
                PageFile::open_in(&fs, &path)
                    .unwrap()
                    .write_pages(&pages)
                    .unwrap();
                let want: Vec<u8> = pages
                    .iter()
                    .flat_map(|&(p, payload)| oracle::seal(p, payload))
                    .collect();
                prop_assert_eq!(fs.file_bytes(&path).unwrap(), want);
                Verdict::Pass
            },
        );
    }
}
