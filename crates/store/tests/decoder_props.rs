//! Decoder property: a persisted snapshot whose superblock, entry arena or
//! node arena was edited must load back as the tree it holds or fail with
//! a typed [`Error`], never panic and never size an allocation from an
//! unchecked word.
//!
//! Each case bulk-loads a small random tree, persists it into an
//! in-memory store and edits the snapshot: one superblock word set to a
//! boundary or random value, random superblock bytes flipped, one node
//! arena `u32` (at any byte offset) set likewise, random node arena bytes
//! flipped, a count or length word made smaller, one child id or leaf
//! range end set one past the end of its arena, or one entry (point id)
//! set to the entry count, to `u32::MAX` or to its neighbour's id. The
//! edited pages are
//! rewritten through the store, so their checksums are valid and the edit
//! reaches [`load_index`]. Then:
//!
//! - an edit that changed no byte the decoder reads (superblock padding,
//!   node arena slack) must load the original tree;
//! - an edit confined to box bounds may load a tree that differs from the
//!   original in those bounds only, if it still passes
//!   `RTree::check_invariants` (containment is what the decoder can check;
//!   the page checksum is what guards the values);
//! - any other edit must load the original tree or fail with a decode
//!   error (`StoreFailure`, `InfeasibleTopology`, `InvalidParameter`),
//!   and a child id or leaf range end one past its arena, or an entry
//!   arena that is no longer a permutation of the point ids, must fail
//!   with `InfeasibleTopology`;
//! - during the load, no single allocation may exceed 8 times the
//!   snapshot's payload bytes and all allocations together 64 times it.
//!
//! The hand-picked edits that once overflowed an offset or sized an
//! allocation from a corrupt word run first, through the same checker,
//! and must fail with their own error kind: `StoreFailure` from the
//! superblock check, `InfeasibleTopology` from the node and entry arena
//! checks.

use hdidx_check::{check, prop_assert, Config, Verdict};
use hdidx_core::{Dataset, Error};
use hdidx_diskio::DiskOptions;
use hdidx_rand::{seeded, Rng};
use hdidx_store::{load_index, persist_index, FileStore, InjectedFs, PAYLOAD_BYTES};
use hdidx_vamsplit::bulkload::bulk_load;
use hdidx_vamsplit::topology::Topology;
use hdidx_vamsplit::tree::{NodeKind, RTree};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;

/// The system allocator, recording per thread the largest single request
/// and the sum of all requests while a load is measured.
struct Tally;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static TOTAL: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
    let _ = TOTAL.try_with(|t| t.set(t.get().saturating_add(size)));
}

// SAFETY: every call forwards to `System` with the caller's layout; the
// bookkeeping touches only const-initialized thread-locals.
unsafe impl GlobalAlloc for Tally {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Tally = Tally;

/// Superblock words the decoder reads (magic through node bytes).
const SB_WORDS: usize = 11;

/// What a field of the node arena encodes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Field {
    Level,
    Bound,
    Tag,
    Start,
    End,
    Count,
    Child,
}

/// Every field of `tree`'s encoded node arena with its byte offset and
/// width, in arena order. Records are packed: level(4), bounds(8·dim),
/// tag(1), then a leaf's start(4) end(4) or an inner node's count(4) and
/// child ids (4 each), so fields are not 4-byte aligned.
fn node_spans(tree: &RTree) -> Vec<(Field, usize, usize)> {
    let mut out = Vec::new();
    let mut at = 0;
    let mut push = |field, width| {
        out.push((field, at, width));
        at += width;
    };
    for node in tree.nodes() {
        push(Field::Level, 4);
        push(Field::Bound, 8 * tree.dim());
        push(Field::Tag, 1);
        match &node.kind {
            NodeKind::Leaf { .. } => {
                push(Field::Start, 4);
                push(Field::End, 4);
            }
            NodeKind::Inner { children } => {
                push(Field::Count, 4);
                for _ in children {
                    push(Field::Child, 4);
                }
            }
        }
    }
    out
}

/// The field of every byte of `tree`'s encoded node arena.
fn node_fields(tree: &RTree) -> Vec<Field> {
    node_spans(tree)
        .into_iter()
        .flat_map(|(field, _, width)| std::iter::repeat_n(field, width))
        .collect()
}

fn random_tree(seed: u64) -> RTree {
    let mut rng = seeded(seed);
    let dim = rng.gen_range(1..=5usize);
    let n = rng.gen_range(1..=200usize);
    let flat = (0..n * dim).map(|_| rng.gen::<f32>()).collect();
    let data = Dataset::from_flat(dim, flat).unwrap();
    let topo =
        Topology::from_capacities(dim, n, rng.gen_range(2..=8usize), rng.gen_range(2..=6usize))
            .unwrap();
    bulk_load(&data, &topo).unwrap()
}

/// The snapshot of `tree` as it sits in a fresh in-memory store: every
/// page's payload, in page order.
struct Snapshot {
    fs: Arc<InjectedFs>,
    dir: PathBuf,
    payload: Vec<u8>,
    /// Payload offset of the node arena.
    nodes_at: usize,
    node_len: usize,
}

impl Snapshot {
    fn persist(tree: &RTree) -> Snapshot {
        let fs = Arc::new(InjectedFs::clean());
        let dir = PathBuf::from("/decoder");
        let mut st = FileStore::open_in(fs.clone(), &dir, &DiskOptions::new()).unwrap();
        let f = persist_index(&mut st, tree).unwrap();
        let mut payload = vec![0u8; f.pages() as usize * PAYLOAD_BYTES];
        st.read_pages(&f, 0, f.pages(), &mut payload).unwrap();
        let word = |i: usize| u64::from_le_bytes(payload[i * 8..i * 8 + 8].try_into().unwrap());
        let nodes_at = (1 + word(7) as usize) * PAYLOAD_BYTES;
        let node_len = word(10) as usize;
        Snapshot {
            fs,
            dir,
            payload,
            nodes_at,
            node_len,
        }
    }

    fn open(&self) -> FileStore {
        FileStore::open_in(self.fs.clone(), &self.dir, &DiskOptions::new()).unwrap()
    }

    /// Rewrites `payload` (same length) through the store, then loads it
    /// and returns the outcome with the largest and total allocation the
    /// load made.
    fn load_edited(&self, payload: &[u8]) -> (Result<RTree, Error>, usize, usize) {
        let mut st = self.open();
        let pages = (payload.len() / PAYLOAD_BYTES) as u64;
        let f = hdidx_diskio::FileHandle::from_raw(0, pages);
        st.write_pages(&f, 0, pages, payload).unwrap();
        st.sync().unwrap();
        drop(st);
        let mut st = self.open();
        LARGEST.with(|m| m.set(0));
        TOTAL.with(|t| t.set(0));
        let loaded = load_index(&mut st).map(|(tree, _)| tree);
        (loaded, LARGEST.with(Cell::get), TOTAL.with(Cell::get))
    }
}

/// A boundary, relative or random replacement for the word `orig`,
/// chosen by `pick`.
fn word_value(pick: u64, orig: u64, rng: &mut impl Rng) -> u64 {
    match pick % 11 {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => (1 << 62) - 1,
        4 => (1 << 63) - 1,
        5 => 1 << 40,
        6 => orig.wrapping_add(1),
        7 => orig.wrapping_sub(1),
        8 => orig.wrapping_mul(2),
        9 => rng.gen_range(0..1024u64),
        _ => rng.next_u64(),
    }
}

/// As [`word_value`] for a node arena `u32`, with the arena's own sizes
/// and non-finite float bits among the boundaries.
fn u32_value(pick: u64, orig: u32, tree: &RTree, rng: &mut impl Rng) -> u32 {
    match pick % 12 {
        0 => 0,
        1 => u32::MAX,
        2 => 0xFFFF,
        3 => orig.wrapping_add(1),
        4 => orig.wrapping_sub(1),
        5 => tree.nodes().len() as u32,
        6 => tree.num_entries() as u32,
        7 => f32::NAN.to_bits(),
        8 => f32::INFINITY.to_bits(),
        9 => (-1.0f32).to_bits(),
        10 => rng.gen_range(0..64u32),
        _ => rng.next_u64() as u32,
    }
}

/// Applies edit `kind` to a copy of the snapshot's payload. Returns the
/// edited payload and whether the edit must make the load fail (a child
/// id or leaf range end set one past its arena, or an entry set out of
/// range or to a repeat).
fn edit(snap: &Snapshot, tree: &RTree, kind: u64, seed: u64) -> (Vec<u8>, bool) {
    let mut rng = seeded(seed);
    let mut out = snap.payload.clone();
    let word = |p: &[u8], i: usize| u64::from_le_bytes(p[i * 8..i * 8 + 8].try_into().unwrap());
    let set_word =
        |p: &mut [u8], i: usize, v: u64| p[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
    let nodes = snap.nodes_at..snap.nodes_at + snap.node_len;
    match kind % 6 {
        // One superblock word (or the first padding word).
        0 => {
            let i = rng.gen_range(0..=SB_WORDS);
            let v = word_value(rng.next_u64(), word(&out, i), &mut rng);
            set_word(&mut out, i, v);
        }
        // Random superblock bytes, padding included.
        1 => {
            for _ in 0..rng.gen_range(1..=4) {
                let at = rng.gen_range(0..SB_WORDS * 8 + 16);
                out[at] ^= rng.gen_range(1..=255u8);
            }
        }
        // One node arena u32 at any byte offset.
        2 => {
            let at = nodes.start + rng.gen_range(0..snap.node_len - 3);
            let orig = u32::from_le_bytes(out[at..at + 4].try_into().unwrap());
            let v = u32_value(rng.next_u64(), orig, tree, &mut rng);
            out[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
        // Random node arena bytes, slack past the arena included.
        3 => {
            let end = (nodes.end + 16).min(out.len());
            for _ in 0..rng.gen_range(1..=4) {
                let at = rng.gen_range(nodes.start..end);
                out[at] ^= rng.gen_range(1..=255u8);
            }
        }
        // Truncations: a count or length word made smaller, or a child id
        // or leaf range end made one past the end of its arena.
        4 => {
            if rng.gen_bool(0.5) {
                let i = rng.gen_range(5..SB_WORDS);
                let orig = word(&out, i);
                if orig > 0 {
                    set_word(&mut out, i, orig - rng.gen_range(1..=orig));
                }
            } else {
                let ids: Vec<(Field, usize)> = node_spans(tree)
                    .into_iter()
                    .filter(|&(field, _, _)| matches!(field, Field::Child | Field::End))
                    .map(|(field, at, _)| (field, at))
                    .collect();
                let (field, at) = ids[rng.gen_range(0..ids.len())];
                let v = match field {
                    Field::Child => tree.nodes().len(),
                    _ => tree.num_entries() + 1,
                };
                let at = nodes.start + at;
                out[at..at + 4].copy_from_slice(&(v as u32).to_le_bytes());
                return (out, true);
            }
        }
        // One entry set out of range or to its neighbour's id.
        _ => {
            let entries = tree.entries();
            let i = rng.gen_range(0..entries.len());
            let v = match rng.gen_range(0..3) {
                0 if entries.len() > 1 => entries[if i == 0 { 1 } else { i - 1 }],
                1 => u32::MAX,
                _ => entries.len() as u32,
            };
            set_entry(&mut out, i, v);
            return (out, true);
        }
    }
    (out, false)
}

/// Overwrites entry `i` of the arena, which starts at page 1.
fn set_entry(payload: &mut [u8], i: usize, id: u32) {
    let at = PAYLOAD_BYTES + 4 * i;
    payload[at..at + 4].copy_from_slice(&id.to_le_bytes());
}

/// The same tree up to box bounds.
fn same_structure(a: &RTree, b: &RTree) -> bool {
    a.dim() == b.dim()
        && a.root_level() == b.root_level()
        && a.leaf_level() == b.leaf_level()
        && a.entries() == b.entries()
        && a.nodes().len() == b.nodes().len()
        && a.nodes()
            .iter()
            .zip(b.nodes())
            .all(|(x, y)| x.level == y.level && x.kind == y.kind)
}

/// The decoder contract for one edited payload (see the module doc).
fn loads_or_fails_typed(snap: &Snapshot, tree: &RTree, edited: &[u8]) -> Verdict {
    let fields = node_fields(tree);
    let changed: Vec<usize> = (0..edited.len())
        .filter(|&i| edited[i] != snap.payload[i])
        .collect();
    let bounds_only = !changed.is_empty()
        && changed
            .iter()
            .all(|&i| i >= snap.nodes_at && fields.get(i - snap.nodes_at) == Some(&Field::Bound));
    let (loaded, largest, total) = snap.load_edited(edited);
    let bytes = edited.len();
    prop_assert!(
        largest <= 8 * bytes && total <= 64 * bytes,
        "load allocated {largest} bytes at once and {total} in all for a {bytes}-byte snapshot"
    );
    match loaded {
        Ok(got) if got == *tree => {}
        Ok(got) => prop_assert!(
            bounds_only && same_structure(&got, tree),
            "edited bytes {changed:?} loaded a different tree"
        ),
        Err(e) => prop_assert!(
            matches!(
                e,
                Error::StoreFailure {
                    op: "snapshot decode" | "snapshot superblock",
                    ..
                } | Error::InfeasibleTopology(_)
                    | Error::InvalidParameter { .. }
            ),
            "edited bytes {changed:?}: untyped failure {e}"
        ),
    }
    Verdict::Pass
}

#[test]
fn crafted_edits_fail_typed_without_allocating() {
    // A root over three leaves in 2-d. Node records: the root is level(4)
    // lo(8) hi(8) tag(1) count(4) then three children (bytes 0..37); leaf
    // 1 is level(4) lo(8) hi(8) tag(1) start(4) end(4) (bytes 37..66).
    let leaf = |lo: f32, hi: f32, range: std::ops::Range<u32>| hdidx_vamsplit::tree::Node {
        level: 1,
        rect: hdidx_core::HyperRect::new(vec![lo, lo], vec![hi, hi]).unwrap(),
        kind: NodeKind::Leaf { entries: range },
    };
    let root = hdidx_vamsplit::tree::Node {
        level: 2,
        rect: hdidx_core::HyperRect::new(vec![0.0, 0.0], vec![4.0, 4.0]).unwrap(),
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
    let tree = RTree::from_arenas(2, 2, 1, nodes, (0..9).rev().collect()).unwrap();
    let snap = Snapshot::persist(&tree);
    // Superblock words that once overflowed an offset or sized an
    // allocation: num_entries (the entry-length product), entry_pages
    // (the region byte size), num_nodes (the node-arena capacity), dim
    // (the corner vectors).
    for (word, value) in [
        (6, u64::MAX),
        (7, (1 << 62) - 1),
        (5, (1 << 63) - 1),
        (2, 1 << 40),
    ] {
        let mut edited = snap.payload.clone();
        edited[word * 8..word * 8 + 8].copy_from_slice(&value.to_le_bytes());
        assert_eq!(loads_or_fails_typed(&snap, &tree, &edited), Verdict::Pass);
        let err = snap.load_edited(&edited).0.unwrap_err();
        assert!(
            matches!(
                err,
                Error::StoreFailure {
                    op: "snapshot superblock",
                    ..
                }
            ),
            "word {word} = {value:#x}: {err}"
        );
    }
    // Node arena edits: the root's first child outside the arena; leaf
    // 1's level (`child.level + 1` overflows); leaf 1's range moved
    // outside the 9-entry arena; leaf 1's range overlapping leaf 2's.
    let edits: [&[(usize, u32)]; 4] = [
        &[(25, 0xFFFF)],
        &[(37, u32::MAX)],
        &[(58, 100), (62, 103)],
        &[(58, 3), (62, 6)],
    ];
    for edit in edits {
        let mut edited = snap.payload.clone();
        for &(at, value) in edit {
            let at = snap.nodes_at + at;
            edited[at..at + 4].copy_from_slice(&value.to_le_bytes());
        }
        assert_eq!(loads_or_fails_typed(&snap, &tree, &edited), Verdict::Pass);
        let err = snap.load_edited(&edited).0.unwrap_err();
        assert!(
            matches!(err, Error::InfeasibleTopology(_)),
            "{edit:?}: {err}"
        );
    }
    // Entry arena edits: the first point id (8) set to the entry count,
    // to `u32::MAX`, and to its neighbour's id (7).
    for value in [9, u32::MAX, 7] {
        let mut edited = snap.payload.clone();
        set_entry(&mut edited, 0, value);
        assert_eq!(loads_or_fails_typed(&snap, &tree, &edited), Verdict::Pass);
        let err = snap.load_edited(&edited).0.unwrap_err();
        assert!(
            matches!(err, Error::InfeasibleTopology(_)),
            "entry 0 = {value:#x}: {err}"
        );
    }
}

#[test]
fn node_spans_locate_every_encoded_field() {
    for seed in 0..32 {
        let tree = random_tree(seed);
        let snap = Snapshot::persist(&tree);
        let spans = node_spans(&tree);
        assert_eq!(spans.last().map(|&(_, at, w)| at + w), Some(snap.node_len));
        let u32_at = |at: usize| {
            let at = snap.nodes_at + at;
            u32::from_le_bytes(snap.payload[at..at + 4].try_into().unwrap())
        };
        let mut spans = spans.into_iter();
        for node in tree.nodes() {
            let mut next = |want: Field| {
                let (field, at, _) = spans.next().unwrap();
                assert_eq!(field, want);
                at
            };
            assert_eq!(u32_at(next(Field::Level)), node.level);
            next(Field::Bound);
            next(Field::Tag);
            match &node.kind {
                NodeKind::Leaf { entries } => {
                    assert_eq!(u32_at(next(Field::Start)), entries.start);
                    assert_eq!(u32_at(next(Field::End)), entries.end);
                }
                NodeKind::Inner { children } => {
                    assert_eq!(u32_at(next(Field::Count)) as usize, children.len());
                    for &child in children {
                        assert_eq!(u32_at(next(Field::Child)), child);
                    }
                }
            }
        }
    }
}

#[test]
fn edited_snapshots_load_the_tree_or_fail_typed() {
    check(
        "edited_snapshots_load_the_tree_or_fail_typed",
        &Config::with_cases(400),
        |rng| (rng.next_u64(), rng.gen_range(0..6u64), rng.next_u64()),
        |&(tree_seed, kind, edit_seed)| {
            let tree = random_tree(tree_seed);
            let snap = Snapshot::persist(&tree);
            let (edited, must_fail) = edit(&snap, &tree, kind, edit_seed);
            let verdict = loads_or_fails_typed(&snap, &tree, &edited);
            if verdict != Verdict::Pass || !must_fail {
                return verdict;
            }
            let loaded = snap.load_edited(&edited).0;
            prop_assert!(
                matches!(loaded, Err(Error::InfeasibleTopology(_))),
                "an id past its arena or a repeated entry loaded as {loaded:?}"
            );
            Verdict::Pass
        },
    );
}
