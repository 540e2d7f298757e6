//! # hdidx-store
//!
//! File-backed page storage for index snapshots. The external build and
//! the measurement bill their I/O on the simulated
//! [`hdidx_diskio::Disk`]; a built tree is then persisted here, reopened
//! after a crash, scrubbed and served, with the charged-model seconds of
//! every write and read checked against wall-clock reality.
//!
//! * [`pagefile`] — fixed 8 KiB pages, each with a 32-byte checksummed
//!   header (FNV-1a over the payload); the file is read once on reopen
//!   and every checksum verified, four pages per pass, which is what
//!   detects torn writes,
//! * [`filestore`] — [`FileStore`], a page file plus an embedded model
//!   [`Disk`](hdidx_diskio::Disk), so the *charged* bill (seeks,
//!   transfers, faults, retries) is the one a simulated disk charges for
//!   the same pages, by construction,
//! * [`snapshot`] — index persistence: an index-deferred layout that
//!   writes leaf-entry pages sequentially first, back-fills the directory
//!   pages and writes the superblock (page 0) last, and [`SnapshotSet`],
//!   whose `CURRENT` swap is the only commit point of a snapshot.
//!
//! Zero external dependencies: `std::fs` + `std::os::unix::fs::FileExt`
//! only.

pub mod filestore;
pub mod inject;
pub mod pagefile;
pub mod scrub;
pub mod snapshot;

pub use filestore::FileStore;
pub use inject::{InjectSpec, InjectedFs, OsFs, Vfs, VfsFile};
pub use pagefile::{PageFile, HEADER_BYTES, PAGE_BYTES, PAYLOAD_BYTES};
pub use scrub::{scrub_store_in, AbandonedGeneration, ScrubReport};
pub use snapshot::{load_index, persist_index, SnapshotSet};

use hdidx_core::Error;

/// The one durability a snapshot has: its pages are written once and
/// fsynced once, and the `CURRENT` swap commits them. Nothing reads this
/// value; it stays only so that existing [`SnapshotSet::open`] call sites
/// keep compiling, as `LeafSoup::count_batch` keeps its ignored `&Pool`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// The page file is fsynced once, before the `CURRENT` swap.
    PerBatch,
}

/// Maps an OS I/O error into the workspace error type.
pub(crate) fn io_err(op: &'static str, e: std::io::Error) -> Error {
    Error::StoreFailure {
        op,
        detail: e.to_string(),
    }
}
