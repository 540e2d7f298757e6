//! Crash-consistency contract for the file-backed page store.
//!
//! The crash model: dropping a [`FileStore`] without `sync()` is the
//! process dying (the store deliberately does nothing on drop), and
//! truncating `wal.log` afterwards is the device losing the un-fsynced
//! tail of the log. The property: for **any** seeded write history, any
//! durability mode, and any byte prefix the device kept, reopening
//! recovers *exactly* the batches whose commit records survived intact —
//! a prefix of the history, cut at a batch boundary, never a torn
//! half-batch. The deterministic leg pins the mode-specific guarantee
//! (what a power cut can take is bounded by the fsync cadence) and that
//! recovery is byte-identical across 1/2/8 worker threads.

use hdidx_check::{check, prop_assert, Config, Verdict};
use hdidx_diskio::{DiskOptions, FileHandle};
use hdidx_rand::splitmix::derive_seed;
use hdidx_rand::Rng;
use hdidx_store::{Durability, FileStore, PAYLOAD_BYTES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Address space each history writes into.
const SPAN: u64 = 16;

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "hdidx_crash_{name}_{}_{}",
        std::process::id(),
        std::thread::current().name().unwrap_or("t").len()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The `b`-th batch of history `seed`: a page range and its payload.
fn batch(seed: u64, b: usize) -> (u64, u64, Vec<u8>) {
    let h = derive_seed(seed, b as u64);
    let n_pages = 1 + (h >> 8) % 3;
    let first = (h % SPAN).min(SPAN - n_pages);
    let bytes = (0..n_pages as usize * PAYLOAD_BYTES)
        .map(|i| (h as usize).wrapping_mul(31).wrapping_add(i * 7) as u8)
        .collect();
    (first, n_pages, bytes)
}

/// Replays `n_batches` of history `seed` against a fresh store in `dir`,
/// returning the WAL length recorded after each commit and the expected
/// page contents after each prefix of the history (`states[j]` = pages
/// after the first `j` batches).
fn run_history(
    dir: &Path,
    mode: Durability,
    seed: u64,
    n_batches: usize,
) -> (Vec<u64>, Vec<BTreeMap<u64, Vec<u8>>>) {
    let mut st = FileStore::open(dir, mode, &DiskOptions::new()).unwrap();
    let f = st.alloc(SPAN).unwrap();
    let mut lens = Vec::new();
    let mut states = vec![BTreeMap::new()];
    for b in 0..n_batches {
        let (first, n_pages, bytes) = batch(seed, b);
        st.write_pages(&f, first, n_pages, &bytes).unwrap();
        lens.push(st.wal_len());
        let mut next = states.last().unwrap().clone();
        for i in 0..n_pages as usize {
            next.insert(
                first + i as u64,
                bytes[i * PAYLOAD_BYTES..(i + 1) * PAYLOAD_BYTES].to_vec(),
            );
        }
        states.push(next);
    }
    drop(st); // crash: no checkpoint, Drop flushes nothing
    (lens, states)
}

/// The device kept only the first `keep` bytes of the log.
fn cut_wal(dir: &Path, keep: u64) {
    std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join("wal.log"))
        .unwrap()
        .set_len(keep)
        .unwrap();
}

/// Reopens the store and reads back every page in the span, zero-filled
/// where nothing survived.
fn recovered_pages(dir: &Path, mode: Durability) -> BTreeMap<u64, Vec<u8>> {
    let mut st = FileStore::open(dir, mode, &DiskOptions::new()).unwrap();
    assert_eq!(
        st.wal_len(),
        0,
        "recovery must checkpoint and clear the WAL"
    );
    let mut out = BTreeMap::new();
    let pages = st.pages();
    for p in 0..pages {
        let f = FileHandle::from_raw(p, 1);
        let mut buf = vec![0u8; PAYLOAD_BYTES];
        st.read_pages(&f, 0, 1, &mut buf).unwrap();
        if buf.iter().any(|&b| b != 0) {
            out.insert(p, buf);
        }
    }
    out
}

/// Drops all-zero pages from an expected state so it compares against
/// [`recovered_pages`] (which cannot distinguish "never written" from
/// "written as zeros"; the seeded payloads are never all-zero).
fn nonzero(state: &BTreeMap<u64, Vec<u8>>) -> BTreeMap<u64, Vec<u8>> {
    state
        .iter()
        .filter(|(_, v)| v.iter().any(|&b| b != 0))
        .map(|(k, v)| (*k, v.clone()))
        .collect()
}

#[test]
fn any_kept_prefix_recovers_to_the_last_complete_batch() {
    check(
        "any_kept_prefix_recovers_to_the_last_complete_batch",
        &Config::with_cases(48),
        |rng| {
            (
                rng.next_u64(),
                rng.gen_range(1..=6usize),
                rng.gen_f64(),
                rng.gen_range(0..3usize),
            )
        },
        |&(seed, n_batches, cut_frac, mode_idx)| {
            let mode = Durability::SWEEP[mode_idx % Durability::SWEEP.len()];
            let dir = tmpdir("prefix");
            let (lens, states) = run_history(&dir, mode, seed, n_batches);

            let total = *lens.last().unwrap();
            let keep = (cut_frac.clamp(0.0, 1.0) * total as f64) as u64;
            cut_wal(&dir, keep);
            // The last batch whose commit record fits in the kept prefix.
            let survivors = lens.iter().filter(|&&l| l <= keep).count();

            let got = recovered_pages(&dir, mode);
            let want = nonzero(&states[survivors]);
            std::fs::remove_dir_all(&dir).ok();
            prop_assert!(
                got == want,
                "mode {mode}, kept {keep}/{total} B => {survivors} of {n_batches} batches; \
                 recovered pages {:?}, expected {:?}",
                got.keys().collect::<Vec<_>>(),
                want.keys().collect::<Vec<_>>()
            );
            Verdict::Pass
        },
    );
}

#[test]
fn fsync_cadence_bounds_what_a_power_cut_can_take() {
    // What each mode guarantees after 5 batches and a power cut that
    // drops every un-fsynced byte: per-batch keeps all 5, every-4 keeps
    // the 4 covered by its one fsync, none keeps nothing.
    let histories = [
        (Durability::PerBatch, 5usize),
        (Durability::EveryN(4), 4),
        (Durability::None, 0),
    ];
    for (mode, durable) in histories {
        let dir = tmpdir("cadence");
        let (lens, states) = run_history(&dir, mode, 0xfeed, 5);
        let keep = if durable == 0 { 0 } else { lens[durable - 1] };
        cut_wal(&dir, keep);
        let got = recovered_pages(&dir, mode);
        assert_eq!(
            got,
            nonzero(&states[durable]),
            "mode {mode} must retain exactly its {durable} fsynced batches"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn recovery_is_byte_identical_across_thread_counts() {
    let mut baseline = None;
    for threads in [1usize, 2, 8] {
        hdidx_pool::set_threads(threads);
        let dir = tmpdir("threads");
        let (lens, _) = run_history(&dir, Durability::EveryN(2), 0xc0ffee, 6);
        cut_wal(&dir, lens[3] + 7); // mid-frame torn tail after batch 4
        let got = recovered_pages(&dir, Durability::EveryN(2));
        std::fs::remove_dir_all(&dir).ok();
        match &baseline {
            None => baseline = Some(got),
            Some(b) => assert_eq!(&got, b, "recovery moved at {threads} threads"),
        }
    }
}
