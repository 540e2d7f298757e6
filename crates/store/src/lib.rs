//! # hdidx-store
//!
//! File-backed page storage for index snapshots. The external build and
//! the measurement bill their I/O on the simulated
//! [`hdidx_diskio::Disk`]; a built tree is then persisted here, reopened
//! after a crash, scrubbed and served, with the charged-model seconds of
//! every write and read checked against wall-clock reality.
//!
//! * [`pagefile`] — fixed 8 KiB pages, each with a 32-byte checksummed
//!   header (FNV-1a over the payload); checksums are verified on reopen,
//!   which is what detects torn writes,
//! * [`wal`] — a write-ahead log of page-image frames grouped into
//!   batches, each closed by a commit record; recovery replays complete
//!   batches and truncates the torn tail,
//! * [`filestore`] — [`FileStore`], gluing the two together under an
//!   explicit [`Durability`] mode, with an embedded model
//!   [`Disk`](hdidx_diskio::Disk) so the *charged* bill (seeks,
//!   transfers, faults, retries) is the one a simulated disk charges for
//!   the same pages, by construction,
//! * [`snapshot`] — index persistence: an index-deferred layout that
//!   writes leaf-entry pages sequentially first, back-fills the directory
//!   pages, and commits by writing the superblock (page 0) last.
//!
//! Zero external dependencies: `std::fs` + `std::os::unix::fs::FileExt`
//! only.

pub mod filestore;
pub mod inject;
pub mod pagefile;
pub mod scrub;
pub mod snapshot;
pub mod wal;

pub use filestore::FileStore;
pub use inject::{InjectSpec, InjectedFs, OsFs, Vfs, VfsFile};
pub use pagefile::{PageFile, HEADER_BYTES, PAGE_BYTES, PAYLOAD_BYTES};
pub use scrub::{scrub_store_in, ScrubReport};
pub use snapshot::{load_index, persist_index, SnapshotSet};
pub use wal::Wal;

use hdidx_core::{Error, Result};
use std::fmt;

/// When the write-ahead log is fsynced.
///
/// Every [`FileStore::write_pages`] call forms one batch (frames + one
/// commit record). The mode decides how many committed batches may be
/// lost by a crash:
///
/// * [`Durability::PerBatch`] — fsync after every commit record; a crash
///   loses at most the in-flight batch,
/// * [`Durability::EveryN`] — fsync after every `n`-th commit; up to
///   `n - 1` committed-but-unsynced batches are at risk,
/// * [`Durability::None`] — never fsync the WAL on the write path (only
///   on an explicit checkpoint); everything since the last checkpoint is
///   at risk.
///
/// Recovery semantics are identical in all modes: reopen replays every
/// batch whose commit record survived intact and truncates the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// fsync the WAL after every batch commit.
    PerBatch,
    /// fsync the WAL after every `n`-th batch commit (`n ≥ 1`).
    EveryN(u32),
    /// Never fsync on the write path.
    None,
}

impl Durability {
    /// Parses `"per-batch"`, `"every-N"` (e.g. `"every-4"`) or `"none"`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] on anything else (including
    /// `"every-0"`).
    pub fn parse(s: &str) -> Result<Durability> {
        match s {
            "per-batch" => Ok(Durability::PerBatch),
            "none" => Ok(Durability::None),
            _ => {
                if let Some(n) = s.strip_prefix("every-") {
                    if let Ok(n) = n.parse::<u32>() {
                        if n >= 1 {
                            return Ok(Durability::EveryN(n));
                        }
                    }
                }
                Err(Error::invalid(
                    "durability",
                    format!("unknown mode `{s}` (expected per-batch, every-N or none)"),
                ))
            }
        }
    }

    /// The canonical sweep of modes, strongest first.
    pub const SWEEP: [Durability; 3] = [
        Durability::PerBatch,
        Durability::EveryN(8),
        Durability::None,
    ];
}

impl fmt::Display for Durability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Durability::PerBatch => write!(f, "per-batch"),
            Durability::EveryN(n) => write!(f, "every-{n}"),
            Durability::None => write!(f, "none"),
        }
    }
}

/// Maps an OS I/O error into the workspace error type.
pub(crate) fn io_err(op: &'static str, e: std::io::Error) -> Error {
    Error::StoreFailure {
        op,
        detail: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability_parse_round_trips() {
        for d in Durability::SWEEP {
            assert_eq!(Durability::parse(&d.to_string()).unwrap(), d);
        }
        assert_eq!(Durability::parse("every-1").unwrap(), Durability::EveryN(1));
        assert!(Durability::parse("every-0").is_err());
        assert!(Durability::parse("fsync").is_err());
        assert!(Durability::parse("every-").is_err());
    }
}
