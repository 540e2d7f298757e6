//! Index persistence: serializing a bulk-loaded [`RTree`] into a
//! [`FileStore`] and loading it back.
//!
//! ## Index-deferred layout
//!
//! The snapshot is written the way an external bulk loader would want to:
//!
//! 1. the **leaf-entry arena** (point ids in leaf order) goes first,
//!    written sequentially from page 1 — the big, cheap, append-only part,
//! 2. the **directory** (the serialized node arena) is back-filled after
//!    the entries,
//! 3. the **superblock** (page 0) is written **last** and then
//!    [`FileStore::sync`]ed; a reopen that finds no valid superblock
//!    finds no index.
//!
//! ## Superblock (page 0, little-endian u64 words)
//!
//! | word | field |
//! |-----:|-------|
//! | 0    | `SNAP_MAGIC` |
//! | 1    | format version (1) |
//! | 2    | dimensionality |
//! | 3    | root level |
//! | 4    | leaf level |
//! | 5    | number of nodes |
//! | 6    | number of entries |
//! | 7    | entry pages |
//! | 8    | node pages |
//! | 9    | entry bytes |
//! | 10   | node bytes |
//!
//! ## Node record
//!
//! `level: u32 | lo: dim × f32 | hi: dim × f32 | tag: u8 |` then for a
//! leaf `start: u32, end: u32` (entry-arena range) or for an inner node
//! `count: u32, children: count × u32` (arena indices).
//!
//! ## Versioned generations ([`SnapshotSet`])
//!
//! A single store directory can only ever hold one index, and
//! re-persisting means clobbering the previous one — a crash mid-write
//! loses both. [`SnapshotSet`] lifts persistence to *generations*: each
//! [`SnapshotSet::publish`] writes a complete new store under
//! `gen-<N>/` **beside** the old one and then commits by swapping the
//! `CURRENT` superblock file. The swap is the sole commit point:
//!
//! 1. the new generation's pages are written once and fsynced once, with
//!    its directory, in its own directory (the old generation is never
//!    touched),
//! 2. the root directory is fsynced, so the new `gen-<N>` entry is
//!    durable, then the inactive slot of the two-slot `CURRENT` file is
//!    overwritten with the new generation number and fsynced —
//!    LMDB-style ping-pong, so a torn `CURRENT` write can only corrupt
//!    the slot that was not current,
//! 3. only once the swap is durable are the generations no slot names
//!    GC'd: the two slots keep the new generation and the one committed
//!    before it, the scrub's fallback.
//!
//! A crash at any operation therefore leaves either the old or the new
//! generation fully loadable, and a crashed publish's leftover directory
//! is never counted as committed.

use crate::inject::{OsFs, Vfs};
use crate::pagefile::PAYLOAD_BYTES;
use crate::scrub::{scrub_page_file, AbandonedGeneration, ScrubReport};
use crate::{Durability, FileStore};
use hdidx_core::{fnv1a, Error, HyperRect, Result, FNV_OFFSET};
use hdidx_diskio::{DiskOptions, FileHandle, IoStats};
use hdidx_vamsplit::tree::{Node, NodeKind, RTree};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SNAP_MAGIC: u64 = 0x4844_4958_534E_4150; // "HDIXSNAP"
const VERSION: u64 = 1;
const SUPERBLOCK_WORDS: usize = 11;

fn pages_for(bytes: usize) -> u64 {
    (bytes.div_ceil(PAYLOAD_BYTES) as u64).max(1)
}

/// Pads `bytes` with zeros to exactly `pages * PAYLOAD_BYTES`.
fn padded(mut bytes: Vec<u8>, pages: u64) -> Vec<u8> {
    bytes.resize(pages as usize * PAYLOAD_BYTES, 0);
    bytes
}

fn encode_nodes(tree: &RTree) -> Vec<u8> {
    let mut out = Vec::new();
    for node in tree.nodes() {
        out.extend_from_slice(&node.level.to_le_bytes());
        for &v in node.rect.lo() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for &v in node.rect.hi() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        match &node.kind {
            NodeKind::Leaf { entries } => {
                out.push(0);
                out.extend_from_slice(&entries.start.to_le_bytes());
                out.extend_from_slice(&entries.end.to_le_bytes());
            }
            NodeKind::Inner { children } => {
                out.push(1);
                out.extend_from_slice(&(children.len() as u32).to_le_bytes());
                for &c in children {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
    }
    out
}

/// Sequential byte reader over the deserialized snapshot regions.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let s = self
            .at
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.at..end))
            .ok_or_else(|| Error::StoreFailure {
                op: "snapshot decode",
                detail: format!("truncated at byte {} of {}", self.at, self.bytes.len()),
            })?;
        self.at += n;
        Ok(s)
    }

    /// `n` little-endian 4-byte words, taken before anything is
    /// allocated so a corrupt count can never size an allocation past
    /// the arena.
    fn words<T>(&mut self, n: usize, decode: fn([u8; 4]) -> T) -> Result<Vec<T>> {
        let bytes = self.take(n.saturating_mul(4))?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| decode(c.try_into().unwrap()))
            .collect())
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
}

/// Smallest encoded node record at dimensionality `dim`: level, both
/// corners, tag, and a leaf's 8-byte entry range or an inner node's
/// (at least 4-byte) child list.
fn min_node_bytes(dim: u64) -> Option<u64> {
    dim.checked_mul(8)?.checked_add(9)
}

/// Decodes `num_nodes` node records; the caller has checked that that
/// many records of `dim` dimensions fit in `bytes`.
fn decode_nodes(bytes: &[u8], dim: usize, num_nodes: usize) -> Result<Vec<Node>> {
    let mut cur = Cursor { bytes, at: 0 };
    let mut nodes = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        let level = cur.u32()?;
        let lo = cur.words(dim, f32::from_le_bytes)?;
        let hi = cur.words(dim, f32::from_le_bytes)?;
        let rect = HyperRect::new(lo, hi)?;
        let kind = match cur.u8()? {
            0 => NodeKind::Leaf {
                entries: cur.u32()?..cur.u32()?,
            },
            1 => {
                let count = cur.u32()? as usize;
                NodeKind::Inner {
                    children: cur.words(count, u32::from_le_bytes)?,
                }
            }
            tag => {
                return Err(Error::StoreFailure {
                    op: "snapshot decode",
                    detail: format!("unknown node tag {tag}"),
                })
            }
        };
        nodes.push(Node { level, rect, kind });
    }
    Ok(nodes)
}

/// Writes `tree` into an **empty** `store` using the index-deferred
/// layout (entries first, directory back-filled, superblock last) and
/// syncs it. Returns the handle of the snapshot region (always pages
/// `0..total`).
///
/// # Errors
///
/// Rejects a non-empty store (the snapshot owns page 0); propagates
/// store I/O errors.
pub fn persist_index(store: &mut FileStore, tree: &RTree) -> Result<FileHandle> {
    if store.pages() != 0 {
        return Err(Error::invalid(
            "store",
            format!(
                "persist_index needs an empty store; {} pages already allocated",
                store.pages()
            ),
        ));
    }
    let entry_bytes: Vec<u8> = tree
        .entries()
        .iter()
        .flat_map(|e| e.to_le_bytes())
        .collect();
    let node_bytes = encode_nodes(tree);
    let entry_pages = pages_for(entry_bytes.len());
    let node_pages = pages_for(node_bytes.len());
    let total = 1 + entry_pages + node_pages;
    let f = store.alloc(total)?;

    let mut sb = Vec::with_capacity(SUPERBLOCK_WORDS * 8);
    for w in [
        SNAP_MAGIC,
        VERSION,
        tree.dim() as u64,
        tree.root_level() as u64,
        tree.leaf_level() as u64,
        tree.nodes().len() as u64,
        tree.num_entries() as u64,
        entry_pages,
        node_pages,
        entry_bytes.len() as u64,
        node_bytes.len() as u64,
    ] {
        sb.extend_from_slice(&w.to_le_bytes());
    }

    // Entries first, sequential from page 1; directory back-filled;
    // superblock last as the commit point. One call seals all three.
    store.write_runs(
        &f,
        &[
            (1, entry_pages, &padded(entry_bytes, entry_pages)),
            (1 + entry_pages, node_pages, &padded(node_bytes, node_pages)),
            (0, 1, &padded(sb, 1)),
        ],
    )?;
    store.sync()?;
    Ok(f)
}

/// Loads the index persisted by [`persist_index`] from `store`, checking
/// the structural invariants. Returns the tree and the snapshot region's
/// handle.
///
/// # Errors
///
/// A missing or malformed superblock, decode failures, or a tree that
/// fails [`RTree::check_invariants`].
pub fn load_index(store: &mut FileStore) -> Result<(RTree, FileHandle)> {
    let sb_handle = FileHandle::from_raw(0, 1);
    let mut sb = vec![0u8; PAYLOAD_BYTES];
    store.read_pages(&sb_handle, 0, 1, &mut sb)?;
    let word = |i: usize| u64::from_le_bytes(sb[i * 8..i * 8 + 8].try_into().unwrap());
    if word(0) != SNAP_MAGIC {
        return Err(Error::StoreFailure {
            op: "snapshot superblock",
            detail: format!("bad magic {:#018x} (no index persisted?)", word(0)),
        });
    }
    if word(1) != VERSION {
        return Err(Error::StoreFailure {
            op: "snapshot superblock",
            detail: format!("unsupported version {}", word(1)),
        });
    }
    // Every word is checked before it sizes anything: the regions must
    // lie inside the store, each arena inside its region, and the node
    // records inside the node arena.
    let bad = |detail: String| Error::StoreFailure {
        op: "snapshot superblock",
        detail,
    };
    let region_bytes = |pages: u64| {
        usize::try_from(pages)
            .ok()
            .and_then(|p| p.checked_mul(PAYLOAD_BYTES))
    };
    let (dim, num_nodes, num_entries) = (word(2), word(5), word(6));
    let (entry_pages, node_pages) = (word(7), word(8));
    let (entry_len, node_len) = (word(9), word(10));
    let total = entry_pages
        .checked_add(node_pages)
        .and_then(|pages| pages.checked_add(1))
        .filter(|&total| total <= store.pages())
        .ok_or_else(|| {
            bad(format!(
                "{entry_pages} entry + {node_pages} node pages overrun a {}-page store",
                store.pages()
            ))
        })?;
    let entry_bytes = region_bytes(entry_pages)
        .filter(|&cap| num_entries.checked_mul(4) == Some(entry_len) && entry_len <= cap as u64)
        .ok_or_else(|| {
            bad(format!(
                "entry arena: {num_entries} entries in {entry_len} bytes"
            ))
        })?;
    let node_bytes = region_bytes(node_pages)
        .filter(|&cap| node_len <= cap as u64)
        .ok_or_else(|| {
            bad(format!(
                "node arena: {node_len} bytes in {node_pages} pages"
            ))
        })?;
    if min_node_bytes(dim)
        .and_then(|rec| rec.checked_mul(num_nodes))
        .is_none_or(|need| need > node_len)
    {
        return Err(bad(format!(
            "node arena: {num_nodes} nodes of {dim} dims do not fit in {node_len} bytes"
        )));
    }
    let f = FileHandle::from_raw(0, total);

    let mut buf = vec![0u8; entry_bytes];
    store.read_pages(&f, 1, entry_pages, &mut buf)?;
    let entries = Cursor { bytes: &buf, at: 0 }.words(num_entries as usize, u32::from_le_bytes)?;

    let mut buf = vec![0u8; node_bytes];
    store.read_pages(&f, 1 + entry_pages, node_pages, &mut buf)?;
    let nodes = decode_nodes(&buf[..node_len as usize], dim as usize, num_nodes as usize)?;
    let (root_level, leaf_level) = (word(3) as usize, word(4) as usize);

    let tree = RTree::from_arenas(dim as usize, root_level, leaf_level, nodes, entries)?;
    tree.check_invariants()?;
    Ok((tree, f))
}

const CUR_MAGIC: u64 = 0x4844_4958_4355_5252; // "HDIXCURR"
/// Bytes per `CURRENT` slot: magic, version, commit sequence,
/// generation, checksum.
const SLOT_BYTES: usize = 40;

/// Encodes one `CURRENT` slot: the `seq`-th commit, pointing at
/// `generation`. The sequence (not the generation) decides which slot
/// is newest, so a commit can *demote* to an older generation — which
/// is what a scrub fallback does.
fn encode_slot(seq: u64, generation: u64) -> [u8; SLOT_BYTES] {
    let mut slot = [0u8; SLOT_BYTES];
    slot[0..8].copy_from_slice(&CUR_MAGIC.to_le_bytes());
    slot[8..16].copy_from_slice(&VERSION.to_le_bytes());
    slot[16..24].copy_from_slice(&seq.to_le_bytes());
    slot[24..32].copy_from_slice(&generation.to_le_bytes());
    let sum = fnv1a(FNV_OFFSET, &slot[0..32]);
    slot[32..40].copy_from_slice(&sum.to_le_bytes());
    slot
}

/// Decodes one `CURRENT` slot into `(seq, generation)`, `None` if
/// torn/blank/checksum-bad.
fn decode_slot(slot: &[u8]) -> Option<(u64, u64)> {
    if slot.len() < SLOT_BYTES {
        return None;
    }
    let word = |i: usize| u64::from_le_bytes(slot[i * 8..i * 8 + 8].try_into().unwrap());
    if word(0) != CUR_MAGIC || word(1) != VERSION {
        return None;
    }
    if fnv1a(FNV_OFFSET, &slot[0..32]) != word(4) {
        return None;
    }
    Some((word(2), word(3)))
}

/// A root directory of versioned index snapshots with a two-slot
/// `CURRENT` commit file. See the module docs for the commit protocol.
#[derive(Debug)]
pub struct SnapshotSet {
    fs: Arc<dyn Vfs>,
    root: PathBuf,
}

impl SnapshotSet {
    /// Opens (creating if missing) the snapshot set rooted at `root` on
    /// the real filesystem. `Durability` has one value and is ignored.
    ///
    /// # Errors
    ///
    /// OS errors.
    pub fn open(root: &Path, durability: Durability) -> Result<SnapshotSet> {
        SnapshotSet::open_in(Arc::new(OsFs), root, durability)
    }

    /// [`SnapshotSet::open`] against a caller-supplied filesystem.
    ///
    /// # Errors
    ///
    /// OS errors.
    pub fn open_in(fs: Arc<dyn Vfs>, root: &Path, _: Durability) -> Result<SnapshotSet> {
        fs.create_dir_all(root)
            .map_err(|e| crate::io_err("snapshot-set mkdir", e))?;
        Ok(SnapshotSet {
            fs,
            root: root.to_path_buf(),
        })
    }

    /// The set's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn current_path(&self) -> PathBuf {
        self.root.join("CURRENT")
    }

    fn gen_dir(&self, generation: u64) -> PathBuf {
        self.root.join(format!("gen-{generation:08}"))
    }

    /// Reads both `CURRENT` slots; returns the valid ones as `(seq,
    /// generation, slot_index)`, newest (highest-sequence) first. These
    /// are the committed generations: the current one and the one
    /// committed before it.
    fn read_slots(&self) -> Result<Vec<(u64, u64, usize)>> {
        if !self.fs.exists(&self.current_path()) {
            return Ok(Vec::new());
        }
        let f = self
            .fs
            .open(&self.current_path())
            .map_err(|e| crate::io_err("snapshot CURRENT open", e))?;
        let len = f
            .len()
            .map_err(|e| crate::io_err("snapshot CURRENT len", e))? as usize;
        let mut bytes = vec![0u8; len.min(2 * SLOT_BYTES)];
        if !bytes.is_empty() {
            f.read_exact_at(&mut bytes, 0)
                .map_err(|e| crate::io_err("snapshot CURRENT read", e))?;
        }
        let mut slots: Vec<(u64, u64, usize)> = bytes
            .chunks(SLOT_BYTES)
            .enumerate()
            .filter_map(|(i, slot)| decode_slot(slot).map(|(seq, g)| (seq, g, i)))
            .collect();
        slots.sort_unstable_by(|a, b| b.cmp(a));
        Ok(slots)
    }

    /// The committed current generation, if any.
    ///
    /// # Errors
    ///
    /// OS errors; a torn or missing `CURRENT` is `Ok(None)`, not an
    /// error.
    pub fn current(&self) -> Result<Option<u64>> {
        Ok(self.read_slots()?.first().map(|&(_, g, _)| g))
    }

    /// Every `gen-*` directory present under the root, sorted ascending
    /// — committed or not (a stray from a crashed publish lists too).
    ///
    /// # Errors
    ///
    /// OS errors.
    pub fn generations(&self) -> Result<Vec<u64>> {
        let mut gens = Vec::new();
        for p in self
            .fs
            .list_dir(&self.root)
            .map_err(|e| crate::io_err("snapshot-set list", e))?
        {
            if let Some(rest) = p
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix("gen-"))
            {
                if let Ok(g) = rest.parse::<u64>() {
                    gens.push(g);
                }
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Makes `generation` the committed current one: fsyncs the root
    /// directory (so the new `gen-*` directory and `CURRENT` itself are
    /// durable entries), writes the *inactive* `CURRENT` slot and fsyncs
    /// the file. This is the sole commit point of a publish.
    fn commit(&self, generation: u64) -> Result<()> {
        let active = self.read_slots()?.first().copied();
        // Ping-pong: never overwrite the slot readers would fall back to.
        let slot_index = match active {
            Some((_, _, 0)) => 1,
            _ => 0,
        };
        let seq = active.map_or(1, |(s, _, _)| s + 1);
        let mut f = self
            .fs
            .open(&self.current_path())
            .map_err(|e| crate::io_err("snapshot CURRENT open", e))?;
        self.fs
            .sync_dir(&self.root)
            .map_err(|e| crate::io_err("snapshot-set dir fsync", e))?;
        f.write_all_at(
            &encode_slot(seq, generation),
            (slot_index * SLOT_BYTES) as u64,
        )
        .map_err(|e| crate::io_err("snapshot CURRENT write", e))?;
        f.sync_all()
            .map_err(|e| crate::io_err("snapshot CURRENT fsync", e))
    }

    /// Removes every generation directory that no `CURRENT` slot names:
    /// what survives is the current generation and the one committed
    /// before it, the scrub's fallback. Runs only after a commit is
    /// durable, so a crashed publish's leftovers go and never displace a
    /// committed generation.
    fn gc(&self) -> Result<()> {
        let committed: Vec<u64> = self.read_slots()?.iter().map(|&(_, g, _)| g).collect();
        for g in self.generations()? {
            if !committed.contains(&g) {
                self.fs
                    .remove_dir_all(&self.gen_dir(g))
                    .map_err(|e| crate::io_err("snapshot-set gc", e))?;
            }
        }
        Ok(())
    }

    /// Persists `tree` as a fresh generation and commits it. Returns the
    /// new generation number and the I/O bill the write charged. The
    /// number is past every generation present or committed, so a
    /// crashed publish's leftovers are never reused.
    ///
    /// # Errors
    ///
    /// OS errors; the previous current generation stays committed unless
    /// the `CURRENT` swap itself completed.
    pub fn publish(&self, tree: &RTree, opts: &DiskOptions) -> Result<(u64, IoStats)> {
        let committed = self.read_slots()?.iter().map(|&(_, g, _)| g).max();
        let next = self
            .generations()?
            .last()
            .copied()
            .max(committed)
            .map_or(1, |g| g + 1);
        let mut store = FileStore::open_in(Arc::clone(&self.fs), &self.gen_dir(next), opts)?;
        persist_index(&mut store, tree)?;
        let io = store.stats();
        drop(store);
        self.commit(next)?;
        self.gc()?;
        Ok((next, io))
    }

    /// Loads the committed current generation. Returns the tree, its
    /// generation number, and the I/O bill the load charged.
    ///
    /// # Errors
    ///
    /// No committed generation, or any load failure (see
    /// [`load_index`]); use [`SnapshotSet::scrub`] to repair or fall
    /// back first.
    pub fn load(&self, opts: &DiskOptions) -> Result<(RTree, u64, IoStats)> {
        let generation = self.current()?.ok_or(Error::StoreFailure {
            op: "snapshot-set load",
            detail: "no committed generation (CURRENT missing or torn)".to_string(),
        })?;
        let mut store = FileStore::open_in(Arc::clone(&self.fs), &self.gen_dir(generation), opts)?;
        let (tree, _) = load_index(&mut store)?;
        Ok((tree, generation, store.stats()))
    }

    /// Scrubs the committed current generation ([`scrub_store_in`] + a
    /// load check) and, if it still does not load, falls back to the
    /// older generation the other `CURRENT` slot commits, if that one
    /// loads — demoting `CURRENT` to it, so subsequent
    /// [`SnapshotSet::load`]s serve the fallback. The report's page counts
    /// describe the generation served; what the scrub found in each
    /// generation it abandoned is in [`ScrubReport::abandoned`]. The load
    /// check decodes the pages the scrub pass just read and verified; it
    /// reads and checksums none of them again.
    ///
    /// # Errors
    ///
    /// No committed generation, no committed generation loads, or a read
    /// error: a generation whose pages could not be read was not judged,
    /// so nothing is abandoned or demoted for it.
    ///
    /// [`scrub_store_in`]: crate::scrub_store_in
    pub fn scrub(&self, opts: &DiskOptions) -> Result<ScrubReport> {
        let slots = self.read_slots()?;
        let current = slots
            .first()
            .map(|&(_, g, _)| g)
            .ok_or(Error::StoreFailure {
                op: "snapshot-set scrub",
                detail: "no committed generation (CURRENT missing or torn)".to_string(),
            })?;
        let mut candidates: Vec<u64> = slots
            .iter()
            .map(|&(_, g, _)| g)
            .filter(|&g| g <= current)
            .collect();
        candidates.sort_unstable_by(|a, b| b.cmp(a)); // newest first
        let mut first_err: Option<Error> = None;
        let mut abandoned = Vec::new();
        for g in candidates {
            let dir = self.gen_dir(g);
            let scrubbed = scrub_page_file(&*self.fs, &dir).map(|(report, pagefile)| {
                let loads = FileStore::with_page_file(Arc::clone(&self.fs), &dir, pagefile, opts)
                    .and_then(|mut store| load_index(&mut store));
                (report, loads)
            });
            match scrubbed {
                Ok((mut report, Ok(_))) => {
                    report.generation = Some(g);
                    report.fell_back = g != current;
                    report.abandoned = abandoned;
                    if report.fell_back {
                        self.commit(g)?;
                    }
                    return Ok(report);
                }
                Ok((report, Err(e))) => {
                    abandoned.push(AbandonedGeneration {
                        generation: g,
                        pages_corrupt: report.pages_corrupt,
                        pages_quarantined: report.pages_quarantined,
                    });
                    first_err = first_err.or(Some(e));
                }
                Err(
                    e @ Error::StoreFailure {
                        op: "pagefile read",
                        ..
                    },
                ) => return Err(e),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        Err(first_err.unwrap_or(Error::StoreFailure {
            op: "snapshot-set scrub",
            detail: format!("generation {current} does not load"),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{InjectedFs, VfsFile};
    use crate::pagefile::{oracle, HEADER_BYTES, PAGE_BYTES};
    use crate::{Durability, FileStore};
    use hdidx_check::{check, prop_assert_eq, Config, Verdict};
    use hdidx_diskio::DiskOptions;
    use hdidx_rand::{seeded, Rng};
    use std::collections::BTreeMap;
    use std::io;
    use std::sync::Mutex;

    /// An in-memory filesystem that tallies how often each page of every
    /// `pages.db` is read, and fails every read of the file
    /// `failing_reads` names.
    #[derive(Debug, Clone)]
    struct ProbeFs {
        inner: InjectedFs,
        page_reads: Arc<Mutex<BTreeMap<(PathBuf, u64), u64>>>,
        failing_reads: Arc<Mutex<Option<PathBuf>>>,
    }

    impl ProbeFs {
        fn new() -> ProbeFs {
            ProbeFs {
                inner: InjectedFs::clean(),
                page_reads: Arc::default(),
                failing_reads: Arc::default(),
            }
        }

        /// The tallies so far, then cleared.
        fn take_page_reads(&self) -> BTreeMap<(PathBuf, u64), u64> {
            std::mem::take(&mut self.page_reads.lock().unwrap())
        }
    }

    #[derive(Debug)]
    struct ProbeFile {
        file: Box<dyn VfsFile>,
        path: PathBuf,
        fs: ProbeFs,
    }

    impl VfsFile for ProbeFile {
        fn len(&self) -> io::Result<u64> {
            self.file.len()
        }

        fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
            if !self.path.ends_with("pages.db") {
                return self.file.read_exact_at(buf, offset);
            }
            if self.fs.failing_reads.lock().unwrap().as_ref() == Some(&self.path) {
                return Err(io::Error::other("probe read error"));
            }
            self.file.read_exact_at(buf, offset)?;
            let pages =
                offset / PAGE_BYTES as u64..(offset + buf.len() as u64).div_ceil(PAGE_BYTES as u64);
            let mut tally = self.fs.page_reads.lock().unwrap();
            for p in pages {
                *tally.entry((self.path.clone(), p)).or_default() += 1;
            }
            Ok(())
        }

        fn write_all_at(&mut self, data: &[u8], offset: u64) -> io::Result<()> {
            self.file.write_all_at(data, offset)
        }

        fn set_len(&mut self, len: u64) -> io::Result<()> {
            self.file.set_len(len)
        }

        fn sync_all(&mut self) -> io::Result<()> {
            self.file.sync_all()
        }
    }

    impl Vfs for ProbeFs {
        fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
            Ok(Box::new(ProbeFile {
                file: self.inner.open(path)?,
                path: path.to_path_buf(),
                fs: self.clone(),
            }))
        }

        fn sync_dir(&self, path: &Path) -> io::Result<()> {
            self.inner.sync_dir(path)
        }

        fn create_dir_all(&self, path: &Path) -> io::Result<()> {
            self.inner.create_dir_all(path)
        }

        fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
            self.inner.remove_dir_all(path)
        }

        fn remove_file(&self, path: &Path) -> io::Result<()> {
            self.inner.remove_file(path)
        }

        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }

        fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
            self.inner.list_dir(path)
        }
    }

    /// A one-leaf tree with `n` entries: its entry arena spans
    /// `ceil(4n / 8160)` pages.
    fn wide_tree(n: u32) -> RTree {
        let leaf = Node {
            level: 1,
            rect: HyperRect::new(vec![0.0, 0.0], vec![1.0, 1.0]).unwrap(),
            kind: NodeKind::Leaf { entries: 0..n },
        };
        RTree::from_arenas(2, 1, 1, vec![leaf], (0..n).rev().collect()).unwrap()
    }

    fn sample_tree() -> RTree {
        let leaf = |lo: f32, hi: f32, range: std::ops::Range<u32>| Node {
            level: 1,
            rect: HyperRect::new(vec![lo, lo], vec![hi, hi]).unwrap(),
            kind: NodeKind::Leaf { entries: range },
        };
        let root = Node {
            level: 2,
            rect: HyperRect::new(vec![0.0, 0.0], vec![4.0, 4.0]).unwrap(),
            kind: NodeKind::Inner {
                children: vec![1, 2, 3],
            },
        };
        let nodes = vec![
            root,
            leaf(0.0, 1.0, 0..3),
            leaf(1.5, 2.5, 3..5),
            leaf(3.0, 4.0, 5..9),
        ];
        RTree::from_arenas(2, 2, 1, nodes, (0..9).rev().collect()).unwrap()
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("hdidx_snap_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn persisted_tree_loads_back_structurally_identical() {
        let dir = tmpdir("roundtrip");
        let tree = sample_tree();
        let mut st = FileStore::open(&dir, &DiskOptions::new()).unwrap();
        let f = persist_index(&mut st, &tree).unwrap();
        drop(st); // crash-style close; persist_index synced

        let mut st = FileStore::open(&dir, &DiskOptions::new()).unwrap();
        let (loaded, f2) = load_index(&mut st).unwrap();
        assert_eq!(loaded, tree, "arenas must round-trip bitwise");
        assert_eq!(f2.pages(), f.pages());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_requires_an_empty_store() {
        let dir = tmpdir("nonempty");
        let mut st = FileStore::open(&dir, &DiskOptions::new()).unwrap();
        st.alloc(1).unwrap();
        assert!(persist_index(&mut st, &sample_tree()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loading_an_empty_store_reports_a_missing_superblock() {
        let dir = tmpdir("empty");
        let mut st = FileStore::open(&dir, &DiskOptions::new()).unwrap();
        let err = load_index(&mut st).unwrap_err();
        assert!(
            matches!(
                err,
                Error::StoreFailure {
                    op: "snapshot superblock",
                    ..
                }
            ),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crafted_superblocks_fail_without_panicking_or_allocating() {
        // Each case overwrites one word of a valid superblock with a value
        // that once overflowed an offset or sized an allocation.
        let cases: [(usize, u64); 4] = [
            (6, u64::MAX),      // num_entries: the entry-length product
            (7, (1 << 62) - 1), // entry_pages: the region byte size
            (5, (1 << 63) - 1), // num_nodes: the node-arena capacity
            (2, 1 << 40),       // dim: the corner vectors
        ];
        for (word, value) in cases {
            let fs = Arc::new(InjectedFs::clean());
            let dir = PathBuf::from("/crafted");
            let open = || FileStore::open_in(fs.clone(), &dir, &DiskOptions::new()).unwrap();
            let mut st = open();
            let f = persist_index(&mut st, &sample_tree()).unwrap();
            let mut sb = vec![0u8; PAYLOAD_BYTES];
            st.read_pages(&f, 0, 1, &mut sb).unwrap();
            sb[word * 8..word * 8 + 8].copy_from_slice(&value.to_le_bytes());
            st.write_pages(&f, 0, 1, &sb).unwrap();
            st.sync().unwrap();
            drop(st);
            let err = load_index(&mut open()).unwrap_err();
            assert!(
                matches!(err, Error::StoreFailure { .. }),
                "word {word} = {value:#x}: {err}"
            );
        }
    }

    #[test]
    fn crafted_node_arenas_fail_without_panicking() {
        // Each case overwrites one u32 of the node arena (page 2) and
        // rewrites the page through the store, so its checksum is valid
        // and the bad bytes reach the decoder. Records of the 2-d sample
        // tree: the root is level(4) lo(8) hi(8) tag(1) count(4) then
        // three children (bytes 0..37); leaf 1 is level(4) lo(8) hi(8)
        // tag(1) start(4) end(4) (bytes 37..66).
        let edits: [&[(usize, u32)]; 4] = [
            // The root's first child id: outside the 4-node arena.
            &[(25, 0xFFFF)],
            // Leaf 1's level: `child.level + 1` overflows.
            &[(37, u32::MAX)],
            // Leaf 1's range 0..3 -> 100..103: same coverage, outside the
            // 9-entry arena.
            &[(58, 100), (62, 103)],
            // Leaf 1's range 0..3 -> 3..6: same coverage, overlapping leaf
            // 2's 3..5.
            &[(58, 3), (62, 6)],
        ];
        for edit in edits {
            let fs = Arc::new(InjectedFs::clean());
            let dir = PathBuf::from("/crafted_nodes");
            let open = || FileStore::open_in(fs.clone(), &dir, &DiskOptions::new()).unwrap();
            let mut st = open();
            let f = persist_index(&mut st, &sample_tree()).unwrap();
            let mut page = vec![0u8; PAYLOAD_BYTES];
            st.read_pages(&f, 2, 1, &mut page).unwrap();
            for &(at, value) in edit {
                page[at..at + 4].copy_from_slice(&value.to_le_bytes());
            }
            st.write_pages(&f, 2, 1, &page).unwrap();
            st.sync().unwrap();
            drop(st);
            let err = load_index(&mut open()).unwrap_err();
            assert!(
                matches!(err, Error::InfeasibleTopology(_)),
                "{edit:?}: {err}"
            );
        }
    }

    #[test]
    fn entries_precede_the_directory_on_disk() {
        // The index-deferred layout: sequential entry pages from page 1,
        // directory after, superblock at page 0 written last.
        let dir = tmpdir("layout");
        let tree = sample_tree();
        let mut st = FileStore::open(&dir, &DiskOptions::new()).unwrap();
        let f = persist_index(&mut st, &tree).unwrap();
        assert_eq!(f.start_page(), 0);
        assert_eq!(f.pages(), 3, "superblock + 1 entry page + 1 node page");
        let mut page = vec![0u8; PAYLOAD_BYTES];
        st.read_pages(&f, 1, 1, &mut page).unwrap();
        assert_eq!(
            u32::from_le_bytes(page[0..4].try_into().unwrap()),
            8,
            "entry arena (reversed ids) starts at page 1"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A second tree distinguishable from [`sample_tree`] (entry order).
    fn other_tree() -> RTree {
        let mut nodes = sample_tree().nodes().to_vec();
        nodes.truncate(4);
        RTree::from_arenas(2, 2, 1, nodes, (0..9).collect()).unwrap()
    }

    #[test]
    fn publish_load_and_gc_cycle_generations() {
        let fs = InjectedFs::clean();
        let set =
            SnapshotSet::open_in(Arc::new(fs), &PathBuf::from("/snaps"), Durability::PerBatch)
                .unwrap();
        assert_eq!(set.current().unwrap(), None);
        assert!(
            set.load(&DiskOptions::new()).is_err(),
            "nothing committed yet"
        );

        let (g1, _) = set.publish(&sample_tree(), &DiskOptions::new()).unwrap();
        assert_eq!(g1, 1);
        let (t, g, _) = set.load(&DiskOptions::new()).unwrap();
        assert_eq!((t, g), (sample_tree(), 1));

        let (g2, _) = set.publish(&other_tree(), &DiskOptions::new()).unwrap();
        assert_eq!(g2, 2);
        let (t, g, _) = set.load(&DiskOptions::new()).unwrap();
        assert_eq!((t, g), (other_tree(), 2));
        assert_eq!(
            set.generations().unwrap(),
            vec![1, 2],
            "keep=2 retains both"
        );

        let (g3, _) = set.publish(&sample_tree(), &DiskOptions::new()).unwrap();
        assert_eq!(g3, 3);
        assert_eq!(set.generations().unwrap(), vec![2, 3], "generation 1 GC'd");
    }

    #[test]
    fn a_torn_current_slot_still_reads_the_other_slot() {
        let fs = InjectedFs::clean();
        let root = PathBuf::from("/snaps");
        let set = SnapshotSet::open_in(Arc::new(fs.clone()), &root, Durability::PerBatch).unwrap();
        set.publish(&sample_tree(), &DiskOptions::new()).unwrap();
        set.publish(&other_tree(), &DiskOptions::new()).unwrap();
        // Generation 2 lives in the slot written second; corrupt it.
        let (_, _, active) = set.read_slots().unwrap()[0];
        let mut f = fs.open(&root.join("CURRENT")).unwrap();
        f.write_all_at(&[0xEE], (active * SLOT_BYTES + 20) as u64)
            .unwrap();
        assert_eq!(
            set.current().unwrap(),
            Some(1),
            "ping-pong: the untouched slot still commits generation 1"
        );
        let (t, g, _) = set.load(&DiskOptions::new()).unwrap();
        assert_eq!((t, g), (sample_tree(), 1));
    }

    #[test]
    fn scrub_falls_back_to_an_older_generation_and_demotes_current() {
        let fs = InjectedFs::clean();
        let root = PathBuf::from("/snaps");
        let set = SnapshotSet::open_in(Arc::new(fs.clone()), &root, Durability::PerBatch).unwrap();
        set.publish(&sample_tree(), &DiskOptions::new()).unwrap();
        let (g2, _) = set.publish(&other_tree(), &DiskOptions::new()).unwrap();
        // Destroy generation 2's superblock: the scrub can only quarantine it.
        let mut f = fs.open(&root.join("gen-00000002/pages.db")).unwrap();
        f.write_all_at(&[0xEE], 40).unwrap();

        let report = set.scrub(&DiskOptions::new()).unwrap();
        assert!(report.fell_back, "{report}");
        assert_eq!(report.generation, Some(1), "{report}");
        assert_eq!(report.pages_corrupt, 0, "{report}");
        assert_eq!(
            report.abandoned,
            vec![AbandonedGeneration {
                generation: 2,
                pages_corrupt: 1,
                pages_quarantined: 1
            }],
            "{report}"
        );
        assert!(
            report
                .to_string()
                .contains("generation 2 abandoned: 1 corrupt (1 quarantined)"),
            "{report}"
        );
        assert_eq!(set.current().unwrap(), Some(1), "CURRENT demoted");
        let (t, g, _) = set.load(&DiskOptions::new()).unwrap();
        assert_eq!((t, g), (sample_tree(), 1));
        assert!(g < g2);
    }

    #[test]
    fn a_clean_set_scrubs_clean_on_the_real_filesystem() {
        let root = tmpdir("set_os");
        let set = SnapshotSet::open(&root, Durability::PerBatch).unwrap();
        set.publish(&sample_tree(), &DiskOptions::new()).unwrap();
        let report = set.scrub(&DiskOptions::new()).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.generation, Some(1));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Every page of `gen`'s `pages.db` in `probe`'s file, each counted
    /// `times`.
    fn each_page(
        fs: &ProbeFs,
        root: &Path,
        generation: u64,
        times: u64,
    ) -> BTreeMap<(PathBuf, u64), u64> {
        let path = root.join(format!("gen-{generation:08}/pages.db"));
        let pages = fs.inner.file_bytes(&path).unwrap().len() / PAGE_BYTES;
        (0..pages as u64)
            .map(|p| ((path.clone(), p), times))
            .collect()
    }

    #[test]
    fn each_operation_reads_each_page_once() {
        let fs = ProbeFs::new();
        let root = PathBuf::from("/snaps");
        let set = SnapshotSet::open_in(Arc::new(fs.clone()), &root, Durability::PerBatch).unwrap();
        let opts = DiskOptions::new();
        // Seven pages: a superblock, five entry pages and a node page, so
        // the checksum passes run a full group of four and a partial one.
        let (trees, generations) = ([sample_tree(), wide_tree(10_000)], [1, 2]);
        for (tree, generation) in trees.iter().zip(generations) {
            set.publish(tree, &opts).unwrap();
            assert_eq!(
                fs.take_page_reads(),
                BTreeMap::new(),
                "publish reads no page"
            );
            let report = set.scrub(&opts).unwrap();
            assert!(report.is_clean(), "{report}");
            assert_eq!(
                fs.take_page_reads(),
                each_page(&fs, &root, generation, 1),
                "scrub"
            );
            let (loaded, g, _) = set.load(&opts).unwrap();
            assert_eq!((&loaded, g), (tree, generation));
            assert_eq!(
                fs.take_page_reads(),
                each_page(&fs, &root, generation, 1),
                "load"
            );
        }
        assert_eq!(each_page(&fs, &root, 2, 1).len(), 7);
    }

    #[test]
    fn a_read_error_fails_the_scrub_without_demoting_current() {
        let fs = ProbeFs::new();
        let root = PathBuf::from("/snaps");
        let set = SnapshotSet::open_in(Arc::new(fs.clone()), &root, Durability::PerBatch).unwrap();
        let opts = DiskOptions::new();
        set.publish(&sample_tree(), &opts).unwrap();
        set.publish(&other_tree(), &opts).unwrap();
        let images: Vec<Vec<u8>> = [1, 2]
            .map(|g| {
                fs.inner
                    .file_bytes(&set.gen_dir(g).join("pages.db"))
                    .unwrap()
            })
            .to_vec();

        // Generation 1 still reads and loads: the scrub must not fall
        // back to it.
        *fs.failing_reads.lock().unwrap() = Some(set.gen_dir(2).join("pages.db"));
        let err = set.scrub(&opts).unwrap_err();
        assert!(
            matches!(
                err,
                Error::StoreFailure {
                    op: "pagefile read",
                    ..
                }
            ),
            "{err}"
        );
        *fs.failing_reads.lock().unwrap() = None;
        assert_eq!(set.current().unwrap(), Some(2), "CURRENT must not move");
        for (g, image) in [1, 2].into_iter().zip(&images) {
            let now = fs
                .inner
                .file_bytes(&set.gen_dir(g).join("pages.db"))
                .unwrap();
            assert_eq!(&now, image, "generation {g} must be untouched");
        }
        let report = set.scrub(&opts).unwrap();
        assert!(
            report.is_clean() && report.generation == Some(2),
            "{report}"
        );
    }

    #[test]
    fn persisted_pages_are_the_one_page_oracle_bytes() {
        for tree in [sample_tree(), wide_tree(10_000)] {
            let fs = InjectedFs::clean();
            let dir = PathBuf::from("/oracle");
            let mut st =
                FileStore::open_in(Arc::new(fs.clone()), &dir, &DiskOptions::new()).unwrap();
            persist_index(&mut st, &tree).unwrap();
            let image = fs.file_bytes(&dir.join("pages.db")).unwrap();
            assert_eq!(image.len(), st.pages() as usize * PAGE_BYTES);
            for (p, page) in (0..).zip(image.chunks_exact(PAGE_BYTES)) {
                let len = u64::from_le_bytes(page[16..24].try_into().unwrap()) as usize;
                let payload = &page[HEADER_BYTES..HEADER_BYTES + len];
                assert_eq!(page, oracle::seal(p, payload), "page {p}");
            }
        }
    }

    /// Kinds of `CURRENT` slot image the decoder property mixes.
    const ARBITRARY: u8 = 0;
    const TRUNCATED: u8 = 1;
    const FLIPPED: u8 = 2;
    const RESEALED: u8 = 3;
    const SLOT_KINDS: u8 = 5;

    /// A slot image of kind `kind % SLOT_KINDS` drawn from `seed`, and
    /// whether its checksum was recomputed after the mutation: arbitrary
    /// bytes, a valid slot cut short or with one bit flipped (stale
    /// checksum), or bit flips in the checksummed words, or bytes inserted
    /// or deleted, then re-checksummed so the mutation reaches the field
    /// checks.
    fn slot_of_kind(seed: u64, kind: u8) -> (Vec<u8>, bool) {
        let mut rng = seeded(seed);
        let mut slot = encode_slot(rng.gen(), rng.gen()).to_vec();
        let byte = |rng: &mut hdidx_rand::Xoshiro256pp| rng.gen_range(0..=255u32) as u8;
        match kind % SLOT_KINDS {
            ARBITRARY => {
                let len = rng.gen_range(0..=2 * SLOT_BYTES);
                return ((0..len).map(|_| byte(&mut rng)).collect(), false);
            }
            TRUNCATED => {
                slot.truncate(rng.gen_range(0..SLOT_BYTES));
                return (slot, false);
            }
            FLIPPED => {
                slot[rng.gen_range(0..SLOT_BYTES)] ^= 1 << rng.gen_range(0..8u32);
                return (slot, false);
            }
            RESEALED => {
                // Mostly in `seq`/`generation`, sometimes in magic/version.
                let from: usize = if rng.gen_bool(0.75) { 16 } else { 0 };
                for _ in 0..rng.gen_range(1..=4) {
                    slot[rng.gen_range(from..32)] ^= 1 << rng.gen_range(0..8u32);
                }
            }
            _ => {
                // Resized: bytes inserted or deleted.
                let at = if rng.gen_bool(0.75) {
                    rng.gen_range(16..=SLOT_BYTES)
                } else {
                    rng.gen_range(0..16usize)
                };
                let n = rng.gen_range(1..=8usize);
                if at < SLOT_BYTES && rng.gen_bool(0.5) {
                    slot.drain(at..(at + n).min(SLOT_BYTES));
                } else {
                    let ins: Vec<u8> = (0..n).map(|_| byte(&mut rng)).collect();
                    slot.splice(at..at, ins);
                }
            }
        }
        if slot.len() >= SLOT_BYTES {
            let sum = fnv1a(FNV_OFFSET, &slot[0..32]);
            slot[32..40].copy_from_slice(&sum.to_le_bytes());
        }
        (slot, true)
    }

    #[test]
    fn slot_decoder_rejects_or_reads_back_every_mutation() {
        check(
            "CURRENT slot decoder",
            &Config::with_cases(2048),
            |rng| (rng.gen::<u64>(), rng.gen_range(0..SLOT_KINDS)),
            |&(seed, kind)| {
                let (slot, resealed) = slot_of_kind(seed, kind);
                let word =
                    |i: usize| u64::from_le_bytes(slot[i * 8..i * 8 + 8].try_into().unwrap());
                let kept = slot.len() >= SLOT_BYTES && word(0) == CUR_MAGIC && word(1) == VERSION;
                let want = (resealed && kept).then(|| (word(2), word(3)));
                prop_assert_eq!(decode_slot(&slot), want);
                Verdict::Pass
            },
        );
    }
}
