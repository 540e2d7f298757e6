//! The `PageStore` redesign's identity contract, end to end:
//!
//! 1. **Trait-object transparency** — driving the external build and the
//!    on-disk measurement through `&mut dyn PageStore` over a simulated
//!    [`Disk`] is byte-identical to the concrete wrapper functions: same
//!    trees, same `IoStats`, same fault traces.
//! 2. **File-backend charging identity** — the file-backed store bills
//!    every access through an embedded model disk *before* touching real
//!    bytes, so builds and measurements on it report the identical
//!    `IoStats` and fault traces as the simulation, fault plans included.
//! 3. **Snapshot round trip** — a tree built on the file backend persists
//!    to a snapshot store, reopens after a drop, and loads back bitwise
//!    identical (arena-for-arena) to what was built.

use hdidx_rand::{seeded, Rng};
use hdidx_repro::core::Dataset;
use hdidx_repro::diskio::external::{build_on_disk, build_on_disk_in, ExternalConfig};
use hdidx_repro::diskio::measure::{measure_on_disk, measure_on_disk_in};
use hdidx_repro::diskio::{Disk, DiskOptions, PageStore};
use hdidx_repro::faults::{FaultConfig, FaultPhase, RetryPolicy};
use hdidx_repro::store::{load_index, persist_index, Durability, FileStore};
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

/// The fault plans every identity check runs under: none, and a seeded
/// plan with retries — the trace must survive both indirections intact.
fn plans() -> [Option<FaultConfig>; 2] {
    [
        None,
        Some(
            FaultConfig::disabled(11)
                .with_rate_ppm(30_000)
                .with_retry(RetryPolicy::Exponential),
        ),
    ]
}

/// A store configured the way the concrete wrappers configure their
/// internal disk: the plan phase-specialized for the build.
fn build_options(faults: Option<FaultConfig>) -> DiskOptions {
    DiskOptions::new()
        .fault_plan(faults)
        .phase(FaultPhase::Build)
}

#[test]
fn a_disk_behind_the_trait_object_matches_the_concrete_path() {
    let n = 6_000;
    let data = clustered_dataset(n, 6, 41);
    let topo = Topology::new(6, n, &PageConfig::DEFAULT).unwrap();
    let centers: Vec<Vec<f32>> = (0..12).map(|i| data.point(i * 311).to_vec()).collect();
    for faults in plans() {
        let mut cfg = ExternalConfig::with_mem_points(900).unwrap();
        cfg.faults = faults;

        let built = build_on_disk(&data, &topo, &cfg).unwrap();
        let mut disk = Disk::with_options(&build_options(faults));
        let store: &mut dyn PageStore = &mut disk;
        let built_dyn = build_on_disk_in(store, &data, &topo, &cfg).unwrap();
        assert_eq!(built.tree, built_dyn.tree);
        assert_eq!(built.io, built_dyn.io);
        assert_eq!(built.fault_trace, built_dyn.fault_trace);

        let concrete = measure_on_disk(&data, &topo, &centers, 7, &cfg).unwrap();
        let mut disk = Disk::with_options(&build_options(faults));
        let store: &mut dyn PageStore = &mut disk;
        let dynamic = measure_on_disk_in(store, &data, &topo, &centers, 7, &cfg).unwrap();
        assert_eq!(concrete.tree, dynamic.tree);
        assert_eq!(concrete.build_io, dynamic.build_io);
        assert_eq!(concrete.query_io, dynamic.query_io);
        assert_eq!(
            concrete.per_query_leaf_accesses,
            dynamic.per_query_leaf_accesses
        );
        assert_eq!(concrete.fault_trace, dynamic.fault_trace);
    }
}

#[test]
fn the_file_store_charges_identically_to_the_simulated_disk() {
    let n = 6_000;
    let data = clustered_dataset(n, 6, 43);
    let topo = Topology::new(6, n, &PageConfig::DEFAULT).unwrap();
    let centers: Vec<Vec<f32>> = (0..12).map(|i| data.point(i * 271).to_vec()).collect();
    for (round, faults) in plans().into_iter().enumerate() {
        let mut cfg = ExternalConfig::with_mem_points(900).unwrap();
        cfg.faults = faults;
        let concrete = measure_on_disk(&data, &topo, &centers, 7, &cfg).unwrap();

        let dir = tmpdir(&format!("charge{round}"));
        let mut fs = FileStore::open(&dir, Durability::EveryN(4), &build_options(faults)).unwrap();
        let on_file = measure_on_disk_in(&mut fs, &data, &topo, &centers, 7, &cfg).unwrap();
        assert_eq!(concrete.tree, on_file.tree);
        assert_eq!(concrete.build_io, on_file.build_io);
        assert_eq!(concrete.query_io, on_file.query_io);
        assert_eq!(
            concrete.per_query_leaf_accesses,
            on_file.per_query_leaf_accesses
        );
        assert_eq!(concrete.fault_trace, on_file.fault_trace);
        drop(fs);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_file_built_tree_persists_reopens_and_loads_back_identical() {
    let n = 6_000;
    let data = clustered_dataset(n, 6, 47);
    let topo = Topology::new(6, n, &PageConfig::DEFAULT).unwrap();
    let cfg = ExternalConfig::with_mem_points(900).unwrap();

    let scratch = tmpdir("roundtrip_scratch");
    let mut fs = FileStore::open(&scratch, Durability::PerBatch, &DiskOptions::new()).unwrap();
    let built = build_on_disk_in(&mut fs, &data, &topo, &cfg).unwrap();
    drop(fs);

    for durability in Durability::SWEEP {
        let snap = tmpdir("roundtrip_snap");
        let mut store = FileStore::open(&snap, durability, &DiskOptions::new()).unwrap();
        persist_index(&mut store, &built.tree).unwrap();
        drop(store);

        let mut reopened = FileStore::open(&snap, durability, &DiskOptions::new()).unwrap();
        let (loaded, _) = load_index(&mut reopened).unwrap();
        assert_eq!(loaded, built.tree, "durability {durability}");
        loaded.check_invariants().unwrap();
        std::fs::remove_dir_all(&snap).ok();
    }
    std::fs::remove_dir_all(&scratch).ok();
}
