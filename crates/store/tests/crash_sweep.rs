//! Crash-point sweep: the exhaustive crash-consistency contract under
//! the injected filesystem.
//!
//! [`InjectedFs`] counts every open/read/write/truncate/fsync the store
//! issues, and `InjectSpec::crash_at(seed, K)` freezes the filesystem at
//! op `K`. Sweeping `K` over a probe run's full op count therefore
//! simulates a power cut **between every pair of I/O operations the
//! store ever performs** — not just at the batch boundaries the WAL-cut
//! tests in `crash_consistency.rs` exercise. After each crash,
//! [`InjectedFs::power_cut`] resolves what the platter kept (durable
//! image plus a seeded whole/torn/dropped roll per un-fsynced write),
//! and the store must reopen to a **batch-boundary prefix** of the
//! history bounded below by the durability mode's fsync cadence.
//!
//! The same sweep runs over [`SnapshotSet::publish`]: a crash at any op
//! of a second publish must leave either the old or the new generation
//! fully loadable.
//!
//! Two identity legs pin the seam itself: recovery images are
//! byte-identical across 1/2/8 worker threads, and with zero injection
//! the in-memory filesystem behaves bitwise like the real one (same
//! file bytes, same charged stats) — the [`OsFs`] production path is a
//! pure passthrough.

use hdidx_core::HyperRect;
use hdidx_diskio::{DiskOptions, FileHandle};
use hdidx_rand::splitmix::derive_seed;
use hdidx_store::{Durability, FileStore, InjectSpec, InjectedFs, SnapshotSet, Vfs, PAYLOAD_BYTES};
use hdidx_vamsplit::tree::{Node, NodeKind, RTree};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Address space each history writes into.
const SPAN: u64 = 16;
/// Store directory on the injected filesystem.
const DIR: &str = "/store";

/// Base seed of the sweeps; `HDIDX_CRASH_SEED` reseeds them so the CI
/// chaos legs cover independent histories and survival rolls.
fn sweep_seed() -> u64 {
    std::env::var("HDIDX_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x51EE9)
}

/// The `b`-th batch of history `seed`: a page range and its payload
/// (same construction as `crash_consistency.rs`; never all-zero).
fn batch(seed: u64, b: usize) -> (u64, u64, Vec<u8>) {
    let h = derive_seed(seed, b as u64);
    let n_pages = 1 + (h >> 8) % 3;
    let first = (h % SPAN).min(SPAN - n_pages);
    let bytes = (0..n_pages as usize * PAYLOAD_BYTES)
        .map(|i| (h as usize).wrapping_mul(31).wrapping_add(i * 7) as u8)
        .collect();
    (first, n_pages, bytes)
}

/// Expected page contents after each prefix of the history:
/// `states[j]` = pages after the first `j` batches.
fn states(seed: u64, n_batches: usize) -> Vec<BTreeMap<u64, Vec<u8>>> {
    let mut states = vec![BTreeMap::new()];
    for b in 0..n_batches {
        let (first, n_pages, bytes) = batch(seed, b);
        let mut next = states.last().unwrap().clone();
        for i in 0..n_pages as usize {
            next.insert(
                first + i as u64,
                bytes[i * PAYLOAD_BYTES..(i + 1) * PAYLOAD_BYTES].to_vec(),
            );
        }
        states.push(next);
    }
    states
}

/// Drops all-zero pages from an expected state so it compares against
/// what a reopen can observe (recovery cannot distinguish "never
/// written" from "written as zeros"; the seeded payloads are never
/// all-zero).
fn nonzero(state: &BTreeMap<u64, Vec<u8>>) -> BTreeMap<u64, Vec<u8>> {
    state
        .iter()
        .filter(|(_, v)| v.iter().any(|&b| b != 0))
        .map(|(k, v)| (*k, v.clone()))
        .collect()
}

/// Replays the history against a store on `fs`, stopping at the first
/// error (the injected crash freezes every later op too). Returns how
/// many batches' `write_pages` returned `Ok`.
fn run_history_on(fs: &InjectedFs, seed: u64, mode: Durability, n_batches: usize) -> usize {
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let Ok(mut st) = FileStore::open_in(vfs, Path::new(DIR), mode, &DiskOptions::new()) else {
        return 0;
    };
    let Ok(f) = st.alloc(SPAN) else { return 0 };
    let mut completed = 0;
    for b in 0..n_batches {
        let (first, n_pages, bytes) = batch(seed, b);
        if st.write_pages(&f, first, n_pages, &bytes).is_err() {
            break;
        }
        completed += 1;
    }
    completed // drop is the crash model: no flush, no fsync
}

/// Reopens the store on `fs` (running recovery) and reads back every
/// non-zero page.
fn recovered(fs: &InjectedFs, mode: Durability) -> BTreeMap<u64, Vec<u8>> {
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let mut st = FileStore::open_in(vfs, Path::new(DIR), mode, &DiskOptions::new())
        .expect("recovery on a post-power-cut image must succeed");
    let mut out = BTreeMap::new();
    for p in 0..st.pages() {
        let f = FileHandle::from_raw(p, 1);
        let mut buf = vec![0u8; PAYLOAD_BYTES];
        st.read_pages(&f, 0, 1, &mut buf).unwrap();
        if buf.iter().any(|&b| b != 0) {
            out.insert(p, buf);
        }
    }
    out
}

/// Batches guaranteed durable after `completed` successful batches:
/// the fsync cadence's floor.
fn durable_floor(mode: Durability, completed: usize) -> usize {
    match mode {
        Durability::PerBatch => completed,
        Durability::EveryN(n) => completed - completed % n as usize,
        Durability::None => 0,
    }
}

#[test]
fn a_crash_at_every_op_recovers_a_mode_bounded_batch_prefix() {
    let n_batches = 6;
    for (mi, &mode) in Durability::SWEEP.iter().enumerate() {
        let seed = derive_seed(sweep_seed(), mi as u64);
        // Probe: a clean run counts the ops the full history issues.
        let probe = InjectedFs::clean();
        assert_eq!(run_history_on(&probe, seed, mode, n_batches), n_batches);
        let total_ops = probe.ops();
        assert!(total_ops > 20, "the history must issue real I/O");
        let all = states(seed, n_batches);

        for k in 0..total_ops {
            let fs = InjectedFs::new(InjectSpec::crash_at(seed, k));
            let completed = run_history_on(&fs, seed, mode, n_batches);
            let got = recovered(&fs.power_cut(), mode);

            // The recovered image must be the history cut at a batch
            // boundary: at least the fsync-covered prefix, at most one
            // batch past the last acknowledged one (a crash inside the
            // acknowledging fsync can still leave the batch recoverable).
            let floor = durable_floor(mode, completed);
            let ceil = (completed + 1).min(n_batches);
            let matched = (floor..=ceil).find(|&j| got == nonzero(&all[j]));
            assert!(
                matched.is_some(),
                "mode {mode}, crash at op {k}/{total_ops}: {completed} batches acked, \
                 recovered pages {:?} match no state in {floor}..={ceil}",
                got.keys().collect::<Vec<_>>()
            );
        }
    }
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
fn crash_recovery_is_byte_identical_across_thread_counts() {
    let seed = 0xC0FFEE;
    let n_batches = 6;
    let probe = InjectedFs::clean();
    run_history_on(&probe, seed, Durability::EveryN(2), n_batches);
    let total_ops = probe.ops();

    let image_at = |k: u64| -> (BTreeMap<u64, Vec<u8>>, Vec<u8>) {
        let fs = InjectedFs::new(InjectSpec::crash_at(seed, k));
        run_history_on(&fs, seed, Durability::EveryN(2), n_batches);
        let after = fs.power_cut();
        let pages = recovered(&after, Durability::EveryN(2));
        let db = after.file_bytes(&Path::new(DIR).join("pages.db")).unwrap();
        (pages, db)
    };

    let sample: Vec<u64> = (0..total_ops).step_by(7).collect();
    let mut baseline = None;
    for threads in [1usize, 2, 8] {
        hdidx_pool::set_threads(threads);
        let run: Vec<_> = sample.iter().map(|&k| image_at(k)).collect();
        match &baseline {
            None => baseline = Some(run),
            Some(b) => assert_eq!(&run, b, "recovery moved at {threads} threads"),
        }
    }
}

#[test]
fn zero_injection_is_bitwise_identical_to_the_real_filesystem() {
    let seed = 0xBEEF;
    let n_batches = 5;
    let real_dir = std::env::temp_dir().join(format!("hdidx_sweep_os_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&real_dir);

    // The same history, checkpointed, against both filesystems.
    let drive = |st: &mut FileStore| {
        let f = st.alloc(SPAN).unwrap();
        for b in 0..n_batches {
            let (first, n_pages, bytes) = batch(seed, b);
            st.write_pages(&f, first, n_pages, &bytes).unwrap();
        }
        st.sync().unwrap();
        st.stats()
    };
    let mut real = FileStore::open(&real_dir, Durability::EveryN(2), &DiskOptions::new()).unwrap();
    let real_stats = drive(&mut real);
    drop(real);

    let fs = InjectedFs::clean();
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let mut injected = FileStore::open_in(
        vfs,
        Path::new(DIR),
        Durability::EveryN(2),
        &DiskOptions::new(),
    )
    .unwrap();
    let injected_stats = drive(&mut injected);
    drop(injected);

    assert_eq!(real_stats, injected_stats, "charging must not see the seam");
    for file in ["pages.db", "wal.log"] {
        let on_disk = std::fs::read(real_dir.join(file)).unwrap();
        let in_mem = fs.file_bytes(&Path::new(DIR).join(file)).unwrap();
        assert_eq!(
            on_disk, in_mem,
            "{file} diverged between OsFs and InjectedFs"
        );
    }
    std::fs::remove_dir_all(&real_dir).ok();
}

#[test]
fn every_n_boundaries_match_the_fsync_cadence_exactly() {
    let seed = 0xAB1E;
    let n_batches = 5;
    // ops(mode) − ops(None) counts exactly the WAL fsyncs the mode
    // issued: the histories are otherwise op-for-op identical.
    let ops_for = |mode: Durability| {
        let fs = InjectedFs::clean();
        assert_eq!(run_history_on(&fs, seed, mode, n_batches), n_batches);
        fs.ops()
    };
    let base = ops_for(Durability::None);
    assert_eq!(
        ops_for(Durability::PerBatch) - base,
        n_batches as u64,
        "per-batch fsyncs every commit"
    );
    assert_eq!(
        ops_for(Durability::EveryN(1)) - base,
        n_batches as u64,
        "every-1 must degenerate to per-batch"
    );
    assert_eq!(
        ops_for(Durability::EveryN(2)) - base,
        2,
        "every-2 fsyncs exactly on the 2nd and 4th commits"
    );
    assert_eq!(
        ops_for(Durability::EveryN(8)) - base,
        0,
        "N beyond the history never fsyncs the WAL"
    );

    // Power-cut consequences of those cadences. Fsynced bytes always
    // survive, so every-1 keeps the full history for ANY survival seed —
    // while every-8 (nothing fsynced) is at the mercy of the seeded
    // survival roll, and some seed loses the entire history.
    let all = states(seed, n_batches);
    let recovered_under = |mode: Durability, survival_seed: u64| {
        let fs = InjectedFs::new(InjectSpec::clean(survival_seed));
        assert_eq!(run_history_on(&fs, seed, mode, n_batches), n_batches);
        recovered(&fs.power_cut(), mode)
    };
    let mut none_lost_everything = false;
    for survival_seed in 0..24 {
        assert_eq!(
            recovered_under(Durability::EveryN(1), survival_seed),
            nonzero(&all[n_batches]),
            "every-1 must survive any power cut whole"
        );
        let loose = recovered_under(Durability::EveryN(8), survival_seed);
        // Always a batch-boundary prefix, never a torn mix.
        let j = (0..=n_batches).find(|&j| loose == nonzero(&all[j]));
        assert!(j.is_some(), "seed {survival_seed}: not a prefix");
        none_lost_everything |= j == Some(0);
    }
    assert!(
        none_lost_everything,
        "with no fsync coverage, some power cut must lose the whole history"
    );
}
