//! The write-ahead log: page-image frames grouped into batches, each
//! batch closed by a commit record.
//!
//! ## Record formats (all words little-endian u64)
//!
//! Frame — one page image destined for the page file:
//!
//! | word | field |
//! |-----:|-------|
//! | 0    | `REC_MAGIC` |
//! | 1    | batch sequence number |
//! | 2    | page number |
//! | 3    | payload length (≤ [`PAYLOAD_BYTES`](crate::PAYLOAD_BYTES)) |
//! | 4    | FNV-1a checksum over the payload, seeded with the page number |
//! | 5..  | payload bytes (exactly the payload length, unpadded) |
//!
//! Commit — closes the batch and makes its frames recoverable:
//!
//! | word | field |
//! |-----:|-------|
//! | 0    | `COMMIT_MAGIC` |
//! | 1    | batch sequence number |
//! | 2    | number of frames in the batch |
//! | 3    | rolling checksum: FNV-1a over the frame checksums, seeded with the sequence number |
//!
//! ## Recovery
//!
//! [`Wal::recover`] scans from the start: every batch whose frames *and*
//! commit record parse and checksum cleanly is returned for replay;
//! the first short read, bad magic, bad checksum, or out-of-order
//! sequence number ends the scan and the file is truncated back to the
//! end of the last complete commit. A crash mid-batch therefore loses
//! exactly the uncommitted tail, never a committed batch that was synced.

use crate::inject::{OsFs, Vfs, VfsFile};
use crate::io_err;
use hdidx_core::{fnv1a, Error, Result, FNV_OFFSET};
use std::path::Path;

const REC_MAGIC: u64 = 0x4844_4958_5F57_414C; // "HDIX_WAL"
const COMMIT_MAGIC: u64 = 0x4844_4958_434F_4D54; // "HDIXCOMT"

/// One recovered page image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalFrame {
    /// Destination page number in the page file.
    pub page_no: u64,
    /// Page payload (unpadded).
    pub payload: Vec<u8>,
}

/// One recovered committed batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalBatch {
    /// The batch's sequence number (consecutive from 0).
    pub seq: u64,
    /// The batch's frames, in append order.
    pub frames: Vec<WalFrame>,
}

/// Checksum of a frame payload, bound to its destination page.
fn frame_checksum(page_no: u64, payload: &[u8]) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, &page_no.to_le_bytes()), payload)
}

/// Append-only write-ahead log over a single file.
#[derive(Debug)]
pub struct Wal {
    file: Box<dyn VfsFile>,
    /// Current append offset (== logical file length).
    len: u64,
    /// Sequence number the next commit will carry.
    next_seq: u64,
    /// Frame checksums accumulated since the last commit.
    pending: Vec<u64>,
}

impl Wal {
    /// Opens (creating if missing) the log at `path`. Callers must run
    /// [`Wal::recover`] before appending — it establishes the append
    /// offset past any torn tail.
    ///
    /// # Errors
    ///
    /// OS errors.
    pub fn open(path: &Path) -> Result<Wal> {
        Wal::open_in(&OsFs, path)
    }

    /// [`Wal::open`] against a caller-supplied filesystem (e.g. the
    /// crash-injected [`InjectedFs`](crate::InjectedFs)).
    ///
    /// # Errors
    ///
    /// OS errors.
    pub fn open_in(fs: &dyn Vfs, path: &Path) -> Result<Wal> {
        let file = fs.open(path).map_err(|e| io_err("wal open", e))?;
        let len = file.len().map_err(|e| io_err("wal stat", e))?;
        Ok(Wal {
            file,
            len,
            next_seq: 0,
            pending: Vec::new(),
        })
    }

    /// Logical length in bytes (the append offset).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Scans the log, returning every complete committed batch in order
    /// and truncating the file back to the end of the last one. Resets
    /// the append offset and the next sequence number accordingly.
    ///
    /// # Errors
    ///
    /// OS errors only — torn or malformed tails are *recovered from*,
    /// not reported.
    pub fn recover(&mut self) -> Result<Vec<WalBatch>> {
        let mut bytes = vec![0u8; self.len as usize];
        self.file
            .read_exact_at(&mut bytes, 0)
            .map_err(|e| io_err("wal read", e))?;

        let mut batches = Vec::new();
        let mut pos = 0usize;
        let mut durable_end = 0usize;
        let mut frames: Vec<WalFrame> = Vec::new();
        let mut checksums: Vec<u64> = Vec::new();
        let word = |b: &[u8], at: usize| -> Option<u64> {
            b.get(at..at + 8)
                .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
        };
        while let Some(magic) = word(&bytes, pos) {
            if magic == REC_MAGIC {
                let (Some(seq), Some(page_no), Some(len), Some(sum)) = (
                    word(&bytes, pos + 8),
                    word(&bytes, pos + 16),
                    word(&bytes, pos + 24),
                    word(&bytes, pos + 32),
                ) else {
                    break;
                };
                if seq != batches.len() as u64 || len > crate::PAYLOAD_BYTES as u64 {
                    break;
                }
                let start = pos + 40;
                let Some(payload) = bytes.get(start..start + len as usize) else {
                    break;
                };
                if frame_checksum(page_no, payload) != sum {
                    break;
                }
                frames.push(WalFrame {
                    page_no,
                    payload: payload.to_vec(),
                });
                checksums.push(sum);
                pos = start + len as usize;
            } else if magic == COMMIT_MAGIC {
                let (Some(seq), Some(n_frames), Some(rolling)) = (
                    word(&bytes, pos + 8),
                    word(&bytes, pos + 16),
                    word(&bytes, pos + 24),
                ) else {
                    break;
                };
                if seq != batches.len() as u64 || n_frames != frames.len() as u64 {
                    break;
                }
                let mut h = fnv1a(FNV_OFFSET, &seq.to_le_bytes());
                for c in &checksums {
                    h = fnv1a(h, &c.to_le_bytes());
                }
                if h != rolling {
                    break;
                }
                pos += 32;
                durable_end = pos;
                batches.push(WalBatch {
                    seq,
                    frames: std::mem::take(&mut frames),
                });
                checksums.clear();
            } else {
                break;
            }
        }

        if durable_end as u64 != self.len {
            self.file
                .set_len(durable_end as u64)
                .map_err(|e| io_err("wal truncate", e))?;
        }
        self.len = durable_end as u64;
        self.next_seq = batches.len() as u64;
        self.pending.clear();
        Ok(batches)
    }

    /// Appends one frame to the in-flight batch. Not recoverable until
    /// [`Wal::commit`] closes the batch.
    ///
    /// # Errors
    ///
    /// Oversized payloads and OS errors.
    pub fn append_frame(&mut self, page_no: u64, payload: &[u8]) -> Result<()> {
        if payload.len() > crate::PAYLOAD_BYTES {
            return Err(Error::invalid(
                "payload",
                format!(
                    "{} bytes exceeds the {}-byte payload",
                    payload.len(),
                    crate::PAYLOAD_BYTES
                ),
            ));
        }
        let sum = frame_checksum(page_no, payload);
        let mut rec = Vec::with_capacity(40 + payload.len());
        for w in [REC_MAGIC, self.next_seq, page_no, payload.len() as u64, sum] {
            rec.extend_from_slice(&w.to_le_bytes());
        }
        rec.extend_from_slice(payload);
        self.file
            .write_all_at(&rec, self.len)
            .map_err(|e| io_err("wal append", e))?;
        self.len += rec.len() as u64;
        self.pending.push(sum);
        Ok(())
    }

    /// Closes the in-flight batch with a commit record and returns its
    /// sequence number. Does **not** fsync — that is the durability
    /// mode's decision.
    ///
    /// # Errors
    ///
    /// OS errors.
    pub fn commit(&mut self) -> Result<u64> {
        let seq = self.next_seq;
        let mut h = fnv1a(FNV_OFFSET, &seq.to_le_bytes());
        for c in &self.pending {
            h = fnv1a(h, &c.to_le_bytes());
        }
        let mut rec = [0u8; 32];
        for (i, w) in [COMMIT_MAGIC, seq, self.pending.len() as u64, h]
            .into_iter()
            .enumerate()
        {
            rec[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        self.file
            .write_all_at(&rec, self.len)
            .map_err(|e| io_err("wal commit", e))?;
        self.len += rec.len() as u64;
        self.next_seq += 1;
        self.pending.clear();
        Ok(seq)
    }

    /// fsyncs the log.
    ///
    /// # Errors
    ///
    /// OS errors.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_all().map_err(|e| io_err("wal fsync", e))
    }

    /// Empties the log after a checkpoint has made its contents redundant.
    ///
    /// # Errors
    ///
    /// OS errors.
    pub fn truncate(&mut self) -> Result<()> {
        self.file
            .set_len(0)
            .map_err(|e| io_err("wal truncate", e))?;
        self.file.sync_all().map_err(|e| io_err("wal fsync", e))?;
        self.len = 0;
        self.next_seq = 0;
        self.pending.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("hdidx_wal_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn seed_two_batches(path: &Path) -> Wal {
        let mut wal = Wal::open(path).unwrap();
        wal.recover().unwrap();
        wal.append_frame(5, b"five").unwrap();
        wal.append_frame(6, b"six").unwrap();
        wal.commit().unwrap();
        wal.append_frame(7, b"seven").unwrap();
        wal.commit().unwrap();
        wal.sync().unwrap();
        wal
    }

    #[test]
    fn committed_batches_recover_in_order() {
        let dir = tmpdir("recover");
        let path = dir.join("wal.log");
        drop(seed_two_batches(&path));

        let mut wal = Wal::open(&path).unwrap();
        let batches = wal.recover().unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].seq, 0);
        assert_eq!(batches[0].frames.len(), 2);
        assert_eq!(batches[0].frames[0].page_no, 5);
        assert_eq!(batches[0].frames[0].payload, b"five");
        assert_eq!(batches[1].seq, 1);
        assert_eq!(batches[1].frames[0].payload, b"seven");
        // Appending after recovery continues the sequence.
        wal.append_frame(9, b"nine").unwrap();
        assert_eq!(wal.commit().unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_to_last_commit() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        let mut wal = seed_two_batches(&path);
        let durable = wal.len();
        // A third batch whose commit record is torn mid-write.
        wal.append_frame(8, b"eight").unwrap();
        wal.commit().unwrap();
        drop(wal);
        let full = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(full - 5)
            .unwrap();

        let mut wal = Wal::open(&path).unwrap();
        let batches = wal.recover().unwrap();
        assert_eq!(batches.len(), 2, "torn third batch must not replay");
        assert_eq!(wal.len(), durable, "file truncated back to last commit");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), durable);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_frames_never_recover() {
        let dir = tmpdir("uncommitted");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path).unwrap();
        wal.recover().unwrap();
        wal.append_frame(1, b"one").unwrap();
        wal.commit().unwrap();
        wal.append_frame(2, b"two").unwrap(); // no commit
        wal.sync().unwrap();
        drop(wal);

        let mut wal = Wal::open(&path).unwrap();
        let batches = wal.recover().unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].frames[0].page_no, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_resets_the_sequence() {
        let dir = tmpdir("trunc");
        let path = dir.join("wal.log");
        let mut wal = seed_two_batches(&path);
        wal.truncate().unwrap();
        assert!(wal.is_empty());
        wal.append_frame(3, b"three").unwrap();
        assert_eq!(wal.commit().unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
