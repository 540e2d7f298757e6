//! Snapshot round trip, end to end: a tree built on the simulated disk
//! persists to a file-backed snapshot store, reopens after a drop, and
//! loads back bitwise identical (arena for arena) to what was built.

use hdidx_rand::{seeded, Rng};
use hdidx_repro::core::Dataset;
use hdidx_repro::diskio::external::{build_on_disk, ExternalConfig};
use hdidx_repro::diskio::DiskOptions;
use hdidx_repro::store::{load_index, persist_index, FileStore};
use hdidx_repro::vamsplit::topology::{PageConfig, Topology};
use std::path::PathBuf;

fn clustered_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let data: Vec<f32> = (0..n * dim)
        .map(|i| {
            let cluster = ((i / dim) % 5) as f32 * 0.17;
            cluster + 0.1 * rng.gen::<f32>()
        })
        .collect();
    Dataset::from_flat(dim, data).unwrap()
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hdidx_identity_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn a_file_built_tree_persists_reopens_and_loads_back_identical() {
    let n = 6_000;
    let data = clustered_dataset(n, 6, 47);
    let topo = Topology::new(6, n, &PageConfig::DEFAULT).unwrap();
    let cfg = ExternalConfig::with_mem_points(900).unwrap();
    let built = build_on_disk(&data, &topo, &cfg).unwrap();

    let snap = tmpdir("roundtrip_snap");
    let mut store = FileStore::open(&snap, &DiskOptions::new()).unwrap();
    persist_index(&mut store, &built.tree).unwrap();
    drop(store);

    let mut reopened = FileStore::open(&snap, &DiskOptions::new()).unwrap();
    let (loaded, _) = load_index(&mut reopened).unwrap();
    assert_eq!(loaded, built.tree);
    loaded.check_invariants().unwrap();
    std::fs::remove_dir_all(&snap).ok();
}
