//! Ground-truth measurement: build the on-disk index, run the k-NN
//! workload against it, and report the paper's "On-disk" row — build I/O
//! plus query I/O plus the measured average leaf accesses per query that
//! every predictor is scored against.

use crate::disk::Disk;
use crate::external::{build_on_disk, ExternalConfig};
use crate::model::IoStats;
use crate::store::DiskOptions;
use hdidx_core::{simd, Dataset, Result};
use hdidx_faults::{FaultEvent, FaultPhase};
use hdidx_vamsplit::query::{knn_through, TreeSoup};
use hdidx_vamsplit::topology::Topology;
use hdidx_vamsplit::tree::RTree;

/// Everything the paper's Table 3 needs from the on-disk baseline.
#[derive(Debug, Clone)]
pub struct OnDiskMeasurement {
    /// The bulk-loaded index.
    pub tree: RTree,
    /// I/O consumed building the index.
    pub build_io: IoStats,
    /// I/O consumed executing the workload. The paper observes that query
    /// page accesses are essentially all random (seek ≈ transfer counts),
    /// so every accessed page (directory or leaf) is charged one seek and
    /// one transfer.
    pub query_io: IoStats,
    /// Leaf accesses per query, in workload order.
    pub per_query_leaf_accesses: Vec<u64>,
    /// Faults injected during the build phase followed by those injected
    /// during the query phase (empty without a fault configuration).
    pub fault_trace: Vec<FaultEvent>,
}

impl OnDiskMeasurement {
    /// Average leaf-page accesses per query — the quantity every predictor
    /// estimates.
    pub fn avg_leaf_accesses(&self) -> f64 {
        if self.per_query_leaf_accesses.is_empty() {
            return 0.0;
        }
        self.per_query_leaf_accesses.iter().sum::<u64>() as f64
            / self.per_query_leaf_accesses.len() as f64
    }

    /// Build + query I/O combined (the paper's "sum" column).
    pub fn total_io(&self) -> IoStats {
        self.build_io + self.query_io
    }
}

/// Builds the on-disk index under `cfg` and executes `k`-NN queries at the
/// given centers, counting all I/O.
///
/// With `cfg.faults` set, the build runs under the plan (see
/// [`build_on_disk`]) and the query phase runs its random page accesses
/// through a second plan derived from the same seed (stream 1, so the two
/// phases stay decorrelated but both replay from the one user-facing
/// seed): every faulted page access burns its seek, is retried up to the
/// attempt budget, and counts into [`IoStats::retries`].
///
/// # Errors
///
/// Propagates build and query errors (shape mismatches, invalid budgets)
/// and `Error::IoFault` when a query access exhausts its retries.
pub fn measure_on_disk(
    data: &Dataset,
    topo: &Topology,
    centers: &[Vec<f32>],
    k: usize,
    cfg: &ExternalConfig,
) -> Result<OnDiskMeasurement> {
    let built = build_on_disk(data, topo, cfg)?;
    let soup = TreeSoup::new(&built.tree)?;
    let isa = simd::active();
    let knn = |c: &[f32]| knn_through(isa, &built.tree, &soup, data, c, k);
    let mut per_query = Vec::with_capacity(centers.len());
    let query_io;
    let mut fault_trace = built.fault_trace;
    match cfg.faults {
        None => {
            let mut io = IoStats::default();
            for c in centers {
                let res = knn(c)?;
                per_query.push(res.stats.leaf_accesses);
                io += IoStats::random(res.stats.total());
            }
            query_io = io;
        }
        Some(fcfg) => {
            // Random accesses are replayed through a scratch disk carrying
            // the query-phase fault plan: alternating between two
            // non-adjacent pages makes every access cost exactly one seek
            // and one transfer — identical to `IoStats::random` — while
            // the plan injects faults and the retry accounting of
            // `Disk::access` applies unchanged.
            let mut qdisk = Disk::with_options(
                &DiskOptions::new()
                    .fault_plan(Some(fcfg))
                    .phase(FaultPhase::Query),
            );
            let qfile = qdisk.alloc(4)?;
            let mut flip = 0u64;
            for c in centers {
                let res = knn(c)?;
                per_query.push(res.stats.leaf_accesses);
                for _ in 0..res.stats.total() {
                    qdisk.access(&qfile, flip, 1)?;
                    flip = 2 - flip;
                }
            }
            fault_trace.extend_from_slice(qdisk.fault_trace());
            query_io = qdisk.stats();
        }
    }
    Ok(OnDiskMeasurement {
        tree: built.tree,
        build_io: built.io,
        query_io,
        per_query_leaf_accesses: per_query,
        fault_trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_rand::seeded;
    use hdidx_rand::Rng;

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
    }

    #[test]
    fn measurement_reports_plausible_numbers() {
        let data = random_dataset(3000, 6, 51);
        let topo = Topology::from_capacities(6, 3000, 20, 8).unwrap();
        let centers: Vec<Vec<f32>> = (0..20).map(|i| data.point(i * 10).to_vec()).collect();
        let m = measure_on_disk(
            &data,
            &topo,
            &centers,
            11,
            &ExternalConfig::with_mem_points(500).unwrap(),
        )
        .unwrap();
        assert_eq!(m.per_query_leaf_accesses.len(), 20);
        assert!(m.avg_leaf_accesses() >= 1.0);
        assert!(m.avg_leaf_accesses() <= topo.leaf_pages() as f64);
        // Query accesses are modeled as fully random.
        assert_eq!(m.query_io.seeks, m.query_io.transfers);
        assert!(m.total_io().transfers >= m.build_io.transfers);
    }

    #[test]
    fn empty_workload_costs_no_query_io() {
        let data = random_dataset(500, 4, 52);
        let topo = Topology::from_capacities(4, 500, 10, 5).unwrap();
        let m = measure_on_disk(
            &data,
            &topo,
            &[],
            5,
            &ExternalConfig::with_mem_points(500).unwrap(),
        )
        .unwrap();
        assert_eq!(m.query_io, IoStats::default());
        assert_eq!(m.avg_leaf_accesses(), 0.0);
    }

    #[test]
    fn faulted_measurement_is_reproducible_and_charges_retries() {
        use hdidx_faults::FaultConfig;
        let data = random_dataset(2000, 5, 53);
        let topo = Topology::from_capacities(5, 2000, 20, 8).unwrap();
        let centers: Vec<Vec<f32>> = (0..10).map(|i| data.point(i * 7).to_vec()).collect();
        let base = ExternalConfig::with_mem_points(300).unwrap();
        let plain = measure_on_disk(&data, &topo, &centers, 9, &base).unwrap();
        // Zero-rate plan: byte-identical to the fault-free path.
        let zero = measure_on_disk(
            &data,
            &topo,
            &centers,
            9,
            &ExternalConfig {
                faults: Some(FaultConfig::disabled(11)),
                ..base
            },
        )
        .unwrap();
        assert_eq!(zero.build_io, plain.build_io);
        assert_eq!(zero.query_io, plain.query_io);
        assert!(zero.fault_trace.is_empty());
        // Moderate faults: reproducible, same leaf counts, extra I/O.
        let fcfg = FaultConfig::disabled(11).with_rate_ppm(20_000).unwrap();
        let cfg = ExternalConfig {
            faults: Some(fcfg),
            ..base
        };
        let a = measure_on_disk(&data, &topo, &centers, 9, &cfg).unwrap();
        let b = measure_on_disk(&data, &topo, &centers, 9, &cfg).unwrap();
        assert_eq!(a.build_io, b.build_io);
        assert_eq!(a.query_io, b.query_io);
        assert_eq!(a.fault_trace, b.fault_trace);
        assert_eq!(a.per_query_leaf_accesses, plain.per_query_leaf_accesses);
        assert!(a.total_io().retries > 0);
        assert!(a.query_io.transfers >= plain.query_io.transfers);
    }
}
