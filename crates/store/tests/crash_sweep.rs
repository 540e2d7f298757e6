//! Crash-point sweep: the exhaustive crash-consistency contract of a
//! snapshot publish under the injected filesystem.
//!
//! [`InjectedFs`] counts every open/read/write/truncate/fsync the store
//! issues, and `InjectSpec::crash_at(seed, K)` freezes the filesystem at
//! op `K`. Sweeping `K` over a probe run's full op count therefore
//! simulates a power cut **between every pair of I/O operations** two
//! [`SnapshotSet::publish`] calls perform. After each crash,
//! [`InjectedFs::power_cut`] resolves what the platter kept (durable
//! image plus a seeded whole/torn/dropped roll per un-fsynced write),
//! and either the old or the new generation must load.
//!
//! A regression leg pins generation retention on the real filesystem: a
//! crashed publish's leftover directory never displaces a committed
//! generation. An identity leg pins the seam itself: with zero injection
//! the in-memory filesystem behaves bitwise like the real one (same file
//! bytes, same charged stats), so the [`OsFs`] production path is a pure
//! passthrough.

use hdidx_core::HyperRect;
use hdidx_diskio::DiskOptions;
use hdidx_rand::splitmix::derive_seed;
use hdidx_store::{Durability, InjectSpec, InjectedFs, OsFs, SnapshotSet, Vfs};
use hdidx_vamsplit::tree::{Node, NodeKind, RTree};
use std::path::PathBuf;
use std::sync::Arc;

/// Base seed of the sweep; `HDIDX_CRASH_SEED` reseeds it so the CI
/// chaos legs cover independent survival rolls.
fn sweep_seed() -> u64 {
    std::env::var("HDIDX_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x51EE9)
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hdidx_sweep_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A 2-d tree small enough to publish hundreds of times.
fn tree_v1() -> RTree {
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

/// A second tree distinguishable from [`tree_v1`] (entry order).
fn tree_v2() -> RTree {
    RTree::from_arenas(2, 2, 1, tree_v1().nodes().to_vec(), (0..9).collect()).unwrap()
}

#[test]
fn a_crash_anywhere_in_a_publish_leaves_a_generation_loadable() {
    let root = PathBuf::from("/snaps");
    let publish_both = |fs: &InjectedFs| -> (u64, u64, bool) {
        let Ok(set) = SnapshotSet::open_in(Arc::new(fs.clone()), &root, Durability::PerBatch)
        else {
            return (fs.ops(), fs.ops(), false);
        };
        if set.publish(&tree_v1(), &DiskOptions::new()).is_err() {
            return (fs.ops(), fs.ops(), false);
        }
        let after_first = fs.ops();
        let second_ok = set.publish(&tree_v2(), &DiskOptions::new()).is_ok();
        (after_first, fs.ops(), second_ok)
    };

    // Probe: the clean publish sequence and its op boundaries.
    let probe = InjectedFs::clean();
    let (after_first, total_ops, ok) = publish_both(&probe);
    assert!(ok && after_first < total_ops);

    for k in 0..total_ops {
        let fs = InjectedFs::new(InjectSpec::crash_at(derive_seed(sweep_seed(), 7), k));
        publish_both(&fs);
        let after = fs.power_cut();
        let set = SnapshotSet::open_in(Arc::new(after), &root, Durability::PerBatch).unwrap();
        match set.load(&DiskOptions::new()) {
            Ok((tree, generation, _)) => {
                let v1 = generation == 1 && tree == tree_v1();
                let v2 = generation == 2 && tree == tree_v2();
                assert!(
                    v1 || v2,
                    "crash at op {k}/{total_ops}: generation {generation} loaded \
                     but matches neither published tree"
                );
                // Once the first commit is durable, nothing may unpublish it.
                assert!(
                    k < after_first || generation >= 1,
                    "crash at op {k} rolled back past a durable commit"
                );
            }
            Err(e) => {
                // Only acceptable while the *first* generation's commit
                // could still be in flight.
                assert!(
                    k < after_first,
                    "crash at op {k}/{total_ops} (after the first durable \
                     commit at {after_first}) must leave a loadable generation: {e}"
                );
            }
        }
    }
}

#[test]
fn a_crashed_publish_never_displaces_a_committed_generation() {
    let root = tmpdir("gc");
    let set = SnapshotSet::open(&root, Durability::PerBatch).unwrap();
    let opts = DiskOptions::new();
    assert_eq!(set.publish(&tree_v1(), &opts).unwrap().0, 1);
    // A crashed publish of generation 2 leaves its directory behind.
    std::fs::create_dir_all(root.join("gen-00000002")).unwrap();
    let (g, _) = set.publish(&tree_v2(), &opts).unwrap();
    assert_eq!(g, 3, "a leftover generation number is never reused");
    assert_eq!(
        set.generations().unwrap(),
        vec![1, 3],
        "GC keeps the committed generations and drops the leftover"
    );

    // Generation 3's superblock decays: the scrub falls back to 1.
    let pages = root.join("gen-00000003").join("pages.db");
    let mut bytes = std::fs::read(&pages).unwrap();
    bytes[40] ^= 0xEE;
    std::fs::write(&pages, &bytes).unwrap();
    let report = set.scrub(&opts).unwrap();
    assert!(report.fell_back, "{report}");
    assert_eq!(report.generation, Some(1), "{report}");
    let (tree, generation, _) = set.load(&opts).unwrap();
    assert_eq!((tree, generation), (tree_v1(), 1));

    // The next publish takes a fresh number and retires generation 3.
    assert_eq!(set.publish(&tree_v2(), &opts).unwrap().0, 4);
    assert_eq!(set.generations().unwrap(), vec![1, 4]);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn zero_injection_is_bitwise_identical_to_the_real_filesystem() {
    let real_root = tmpdir("os");
    let mem_root = PathBuf::from("/snaps");
    let fs = InjectedFs::clean();
    let real = SnapshotSet::open_in(Arc::new(OsFs), &real_root, Durability::PerBatch).unwrap();
    let injected =
        SnapshotSet::open_in(Arc::new(fs.clone()), &mem_root, Durability::PerBatch).unwrap();
    for tree in [tree_v1(), tree_v2()] {
        let real_io = real.publish(&tree, &DiskOptions::new()).unwrap();
        let injected_io = injected.publish(&tree, &DiskOptions::new()).unwrap();
        assert_eq!(real_io, injected_io, "charging must not see the seam");
    }

    // A generation is its page file and nothing else: no log beside it.
    for root in [&real_root, &mem_root] {
        let dir = root.join("gen-00000002");
        let vfs: &dyn Vfs = if root == &real_root { &OsFs } else { &fs };
        assert_eq!(vfs.list_dir(&dir).unwrap(), vec![dir.join("pages.db")]);
    }
    for file in ["CURRENT", "gen-00000001/pages.db", "gen-00000002/pages.db"] {
        let on_disk = std::fs::read(real_root.join(file)).unwrap();
        let in_mem = fs.file_bytes(&mem_root.join(file)).unwrap();
        assert_eq!(
            on_disk, in_mem,
            "{file} diverged between OsFs and InjectedFs"
        );
    }
    std::fs::remove_dir_all(&real_root).ok();
}
