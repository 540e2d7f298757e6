//! On-disk bulk loading under an `M`-point memory budget.
//!
//! This is the baseline the paper charges all predictors against: "it is
//! always possible to simply build an index on disk via bulk loading and
//! then run some sample queries on it" (§4.1). The recursion is the
//! in-memory loader's own: [`build_on_disk`] runs
//! [`bulk_load_observed`] under an observer that bills each of its steps
//! on the simulated disk, as if segments larger than memory were
//! partitioned **externally**:
//!
//! * every binary split of an oversized segment first scans it once to find
//!   the maximum-variance dimension (read-only pass),
//! * the rank partition runs Hoare's *find* externally: each narrowing pass
//!   streams the active subsegment through memory in [`IO_BUF_PAGES`]-sized
//!   chunks, writing the classified output runs back through two buffered
//!   cursors (each chunk: one read access, two displaced write accesses —
//!   which is what makes a seek appear every few pages, reproducing the
//!   paper's observed seek/transfer ratio),
//! * once a segment fits in memory it is read once, processed entirely in
//!   memory, and its finished subtree pages are written out sequentially.
//!
//! So the produced tree is the in-memory loader's, arena for arena; only
//! the I/O bill is added.

use crate::disk::{Disk, FileHandle};
use crate::model::IoStats;
use crate::store::DiskOptions;
use hdidx_core::{Dataset, Error, Result};
use hdidx_faults::{FaultConfig, FaultEvent, FaultPhase};
use hdidx_vamsplit::bulkload::{bulk_load_observed, BuildObserver};
use hdidx_vamsplit::topology::Topology;
use hdidx_vamsplit::tree::RTree;

/// Pages per I/O buffer during external partitioning (chunked streaming;
/// 8 pages reproduces the paper's ≈1:8 seek/transfer ratio during builds).
/// The analytic on-disk build cost in `hdidx-model` charges the same
/// buffer.
pub const IO_BUF_PAGES: u64 = 8;

/// Memory parameters of the external build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExternalConfig {
    /// Number of data points that fit in memory (the paper's `M`).
    pub mem_points: usize,
    /// Optional fault injection: when set, the build's simulated disk runs
    /// every access through a seeded
    /// [`FaultPlan`](hdidx_faults::FaultPlan) with bounded retry.
    pub faults: Option<FaultConfig>,
}

impl ExternalConfig {
    /// Fault-free configuration for a given `M`. The budget must be
    /// positive here and is checked against the page capacity once a
    /// topology is known, in [`build_on_disk`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on a zero `mem_points`.
    pub fn with_mem_points(mem_points: usize) -> Result<Self> {
        if mem_points == 0 {
            return Err(Error::invalid("mem_points", "must be positive"));
        }
        Ok(ExternalConfig {
            mem_points,
            faults: None,
        })
    }
}

/// Result of an on-disk build: the tree plus the I/O consumed building it.
#[derive(Debug, Clone)]
pub struct BuildOutput {
    /// The bulk-loaded index (identical to the in-memory loader's output).
    pub tree: RTree,
    /// Seeks/transfers incurred by the build (including retry charges).
    pub io: IoStats,
    /// Every fault injected during the build, in decision order (empty
    /// without a fault configuration).
    pub fault_trace: Vec<FaultEvent>,
}

/// Bulk-loads the full index "on disk", counting every seek and transfer.
///
/// With `cfg.faults` set, every access runs through the seeded fault plan
/// with bounded retry (each retry is a deterministic re-issue whose extra
/// seeks/transfers are charged to the returned [`IoStats`], alongside its
/// `retries` count). The produced tree is identical either way — only the
/// bill and the trace differ — unless a fault exhausts its retry budget,
/// in which case the build fails with [`Error::IoFault`].
///
/// # Errors
///
/// Rejects memory budgets smaller than one data page and the usual shape
/// mismatches; propagates [`Error::IoFault`] once an access exhausts its
/// attempts.
pub fn build_on_disk(data: &Dataset, topo: &Topology, cfg: &ExternalConfig) -> Result<BuildOutput> {
    if data.dim() != topo.dim() {
        return Err(Error::DimensionMismatch {
            expected: topo.dim(),
            actual: data.dim(),
        });
    }
    if data.len() != topo.n() {
        return Err(Error::invalid(
            "data",
            format!(
                "topology is for {} points, data has {}",
                topo.n(),
                data.len()
            ),
        ));
    }
    if cfg.mem_points < topo.cap_data() {
        return Err(Error::invalid(
            "mem_points",
            format!(
                "memory must hold at least one data page ({} points)",
                topo.cap_data()
            ),
        ));
    }
    let mut disk = Disk::with_options(
        &DiskOptions::new()
            .fault_plan(cfg.faults)
            .phase(FaultPhase::Build),
    );
    let recs_per_page = topo.cap_data() as u64;
    let file = disk.alloc((data.len() as u64).div_ceil(recs_per_page))?;
    // Output region for finished index pages (generously sized; only the
    // access pattern matters).
    let out = disk.alloc(2 * topo.total_pages() + 64)?;
    let mut bill = DiskBill {
        data,
        mem_points: cfg.mem_points,
        disk,
        file,
        out,
        out_cursor: 0,
        recs_per_page,
        resident: None,
    };
    let tree = bulk_load_observed(data, topo, &mut bill)?;
    // Directory pages of the external levels are written at the end in one
    // sequential run.
    let remaining = (tree.nodes().len() as u64).saturating_sub(bill.out_cursor);
    if remaining > 0 {
        bill.disk
            .write_pages(&bill.out, bill.out_cursor, remaining)?;
    }
    Ok(BuildOutput {
        tree,
        io: bill.disk.stats(),
        fault_trace: bill.disk.fault_trace().to_vec(),
    })
}

/// The external build's [`BuildObserver`]: bills the disk accesses of each
/// step of the in-memory loader's recursion.
struct DiskBill<'a> {
    data: &'a Dataset,
    mem_points: usize,
    disk: Disk,
    file: FileHandle,
    out: FileHandle,
    out_cursor: u64,
    recs_per_page: u64,
    /// The node whose segment was read into memory, while its subtree is
    /// being built.
    resident: Option<u32>,
}

impl BuildObserver for DiskBill<'_> {
    fn enter(&mut self, node: u32, start: usize, end: usize) -> Result<()> {
        if self.resident.is_none() && end - start <= self.mem_points {
            // Load the whole segment into memory: one sequential run.
            self.disk.read_records(
                &self.file,
                start as u64,
                (end - start) as u64,
                self.recs_per_page,
            )?;
            self.resident = Some(node);
        }
        Ok(())
    }

    fn split(&mut self, _: u32, start: usize, seg: &[u32], dim: usize, rank: usize) -> Result<()> {
        if self.resident.is_none() {
            // Variance scan of the segment (read-only sequential pass).
            self.disk.read_records(
                &self.file,
                start as u64,
                seg.len() as u64,
                self.recs_per_page,
            )?;
            self.account_external_select(start, seg, dim, rank)?;
        }
        Ok(())
    }

    fn finish(&mut self, node: u32, nodes: usize) -> Result<()> {
        if self.resident == Some(node) {
            // The finished in-memory subtree is flushed to the output
            // region in one sequential run (its data pages + directory
            // pages were all produced in memory).
            self.resident = None;
            self.disk
                .write_pages(&self.out, self.out_cursor, nodes as u64)?;
            self.out_cursor += nodes as u64;
        }
        Ok(())
    }
}

impl DiskBill<'_> {
    /// Simulates the I/O of Hoare's *find* run externally over `seg`
    /// (records `start..start + seg.len()`) for the `rank` split along
    /// `dim`: narrowing passes around real pivots until the active
    /// subsegment fits in memory. Pivot statistics are computed from the
    /// actual data, so skew and duplicates cost what they would really
    /// cost (this is where the paper's "five to ten times higher than best
    /// case on real data" shows up).
    fn account_external_select(
        &mut self,
        start: usize,
        seg: &[u32],
        dim: usize,
        rank: usize,
    ) -> Result<()> {
        let data = self.data;
        let key = |i: usize| data.point(seg[i] as usize)[dim];
        let mut lo = 0;
        let mut hi = seg.len();
        loop {
            let len = hi - lo;
            if len <= self.mem_points {
                // Read the survivor segment, finish in memory, write back.
                let at = (start + lo) as u64;
                self.disk
                    .read_records(&self.file, at, len as u64, self.recs_per_page)?;
                self.disk
                    .write_records(&self.file, at, len as u64, self.recs_per_page)?;
                return Ok(());
            }
            self.partition_pass_io(start + lo, len)?;
            let pivot = median3(key(lo), key(lo + len / 2), key(hi - 1));
            let mut n_less = 0usize;
            let mut n_eq = 0usize;
            for i in lo..hi {
                let k = key(i);
                if k < pivot {
                    n_less += 1;
                } else if k == pivot {
                    n_eq += 1;
                }
            }
            if rank < lo + n_less {
                hi = lo + n_less;
            } else if rank < lo + n_less + n_eq {
                return Ok(());
            } else {
                lo += n_less + n_eq;
            }
            if hi <= lo {
                return Ok(());
            }
        }
    }

    /// One full external partition pass over records `[lo, lo+len)`: read
    /// in [`IO_BUF_PAGES`] chunks, write the classified runs back through two
    /// displaced cursors (front run / back run). Three accesses per chunk —
    /// the displacement is what costs seeks.
    fn partition_pass_io(&mut self, lo: usize, len: usize) -> Result<()> {
        let chunk_recs = (IO_BUF_PAGES * self.recs_per_page) as usize;
        let mut read_pos = lo;
        let mut front = lo;
        let mut back = lo + len;
        let remaining_end = lo + len;
        while read_pos < remaining_end {
            let this = chunk_recs.min(remaining_end - read_pos);
            self.disk
                .read_records(&self.file, read_pos as u64, this as u64, self.recs_per_page)?;
            read_pos += this;
            // Write half the chunk to the front run, half to the back run
            // (the actual split depends on the data; half is the model).
            let half = this / 2;
            if half > 0 {
                self.disk.write_records(
                    &self.file,
                    front as u64,
                    half as u64,
                    self.recs_per_page,
                )?;
                front += half;
            }
            let rest = this - half;
            if rest > 0 {
                back -= rest;
                self.disk.write_records(
                    &self.file,
                    back as u64,
                    rest as u64,
                    self.recs_per_page,
                )?;
            }
        }
        Ok(())
    }
}

#[inline]
fn median3(a: f32, b: f32, c: f32) -> f32 {
    if a <= b {
        if b <= c {
            b
        } else if a <= c {
            c
        } else {
            a
        }
    } else if a <= c {
        a
    } else if b <= c {
        c
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_rand::seeded;
    use hdidx_rand::Rng;
    use hdidx_vamsplit::bulkload::bulk_load;

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
    }

    /// Arena identity: node levels, rect bits, child lists and leaf
    /// ranges in arena order, and the entry-id order.
    fn assert_same_arenas(a: &RTree, b: &RTree) {
        let bits = |r: &hdidx_core::HyperRect| -> Vec<u32> {
            r.lo().iter().chain(r.hi()).map(|x| x.to_bits()).collect()
        };
        assert_eq!(a.nodes().len(), b.nodes().len());
        for (x, y) in a.nodes().iter().zip(b.nodes()) {
            assert_eq!(x.level, y.level);
            assert_eq!(bits(&x.rect), bits(&y.rect));
            assert_eq!(x.kind, y.kind);
        }
        assert_eq!(a.entries(), b.entries());
    }

    #[test]
    fn external_tree_matches_in_memory_tree() {
        let data = random_dataset(5000, 8, 41);
        let topo = Topology::from_capacities(8, 5000, 20, 8).unwrap();
        let mem = bulk_load(&data, &topo).unwrap();
        for m in [40, 300, 5000] {
            let ext =
                build_on_disk(&data, &topo, &ExternalConfig::with_mem_points(m).unwrap()).unwrap();
            ext.tree.check_invariants().unwrap();
            assert_same_arenas(&ext.tree, &mem);
        }
    }

    /// The exact bill of one dataset at three budgets, clean and under 2 %
    /// point faults: `(seeks, transfers, retries, backoff, reads, writes)`
    /// and the fault-trace length. The budgets make the root segment
    /// resident (5000), the level-3 segments of at most 1280 points first
    /// fit (1300), and only the data pages of at most 20 points fit (40).
    #[test]
    fn external_bill_is_pinned() {
        let data = random_dataset(5000, 8, 41);
        let topo = Topology::from_capacities(8, 5000, 20, 8).unwrap();
        assert_eq!(topo.height(), 4);
        type Bill = ((u64, u64, u64, u64, u64, u64), usize);
        let cases: [(usize, Bill, Bill); 3] = [
            (
                5000,
                ((1, 537, 0, 0, 250, 287), 0),
                ((1, 537, 0, 0, 250, 287), 0),
            ),
            (
                1300,
                ((418, 3661, 0, 0, 2040, 1626), 0),
                ((443, 3725, 11, 0, 2040, 1626), 16),
            ),
            (
                40,
                ((2940, 13367, 0, 0, 7596, 6040), 0),
                ((3183, 13430, 107, 0, 7596, 6040), 152),
            ),
        ];
        for (m, clean, faulted) in cases {
            for (faults, want) in [
                (None, clean),
                (
                    Some(FaultConfig::disabled(7).with_rate_ppm(20_000).unwrap()),
                    faulted,
                ),
            ] {
                let cfg = ExternalConfig {
                    faults,
                    ..ExternalConfig::with_mem_points(m).unwrap()
                };
                let out = build_on_disk(&data, &topo, &cfg).unwrap();
                let io = out.io;
                let got = (
                    (
                        io.seeks,
                        io.transfers,
                        io.retries,
                        io.backoff,
                        io.reads,
                        io.writes,
                    ),
                    out.fault_trace.len(),
                );
                assert_eq!(got, want, "m = {m}, faults = {faults:?}");
            }
        }
    }

    #[test]
    fn tiny_memory_costs_more_io_than_large_memory() {
        let data = random_dataset(8000, 6, 42);
        let topo = Topology::from_capacities(6, 8000, 25, 10).unwrap();
        let small =
            build_on_disk(&data, &topo, &ExternalConfig::with_mem_points(100).unwrap()).unwrap();
        let large = build_on_disk(
            &data,
            &topo,
            &ExternalConfig::with_mem_points(8000).unwrap(),
        )
        .unwrap();
        assert!(
            small.io.transfers > large.io.transfers,
            "small-mem {:?} vs large-mem {:?}",
            small.io,
            large.io
        );
        assert!(small.io.seeks > large.io.seeks);
    }

    #[test]
    fn all_in_memory_build_costs_one_read_and_one_write() {
        let data = random_dataset(1000, 4, 43);
        let topo = Topology::from_capacities(4, 1000, 10, 5).unwrap();
        let out = build_on_disk(
            &data,
            &topo,
            &ExternalConfig::with_mem_points(1000).unwrap(),
        )
        .unwrap();
        // One sequential read of the data file + one sequential write of
        // the whole index. The output region is allocated right after the
        // data file, so the write run continues where the read ended and
        // the whole build costs a single seek.
        assert_eq!(out.io.seeks, 1);
        let data_pages = 1000u64.div_ceil(10);
        let index_pages = out.tree.nodes().len() as u64;
        assert_eq!(out.io.transfers, data_pages + index_pages);
    }

    #[test]
    fn build_io_grows_roughly_linearly_in_n() {
        let mk = |n: usize, seed: u64| {
            let data = random_dataset(n, 4, seed);
            let topo = Topology::from_capacities(4, n, 20, 8).unwrap();
            build_on_disk(&data, &topo, &ExternalConfig::with_mem_points(200).unwrap())
                .unwrap()
                .io
        };
        let a = mk(2000, 44);
        let b = mk(8000, 45);
        let ratio = b.transfers as f64 / a.transfers as f64;
        // 4x the data: between 2.5x and 10x the transfers (extra passes for
        // the extra external level are allowed, sublinear is not).
        assert!((2.5..10.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn duplicate_heavy_data_builds_and_terminates() {
        // Quickselect's worst enemy: massive duplicate runs. The external
        // select must terminate (the three-way pivot counting places the
        // rank inside an equal-run) and the tree must match the in-memory
        // build.
        let mut rng = seeded(48);
        let data = Dataset::from_flat(
            3,
            (0..6000)
                .map(|_| (rng.gen_range(0..4) as f32) * 0.25)
                .collect(),
        )
        .unwrap();
        let topo = Topology::from_capacities(3, 2000, 10, 5).unwrap();
        let mem = bulk_load(&data, &topo).unwrap();
        let ext =
            build_on_disk(&data, &topo, &ExternalConfig::with_mem_points(150).unwrap()).unwrap();
        assert_eq!(ext.tree.num_leaves(), mem.num_leaves());
        assert!(ext.io.transfers > 0);
    }

    #[test]
    fn skewed_data_costs_more_than_uniform() {
        // The paper observes real (skewed) data costs 5-10x the best case.
        // Narrowing passes repeat more often when pivots land badly; at
        // minimum the skewed build must not be cheaper than uniform.
        let n = 6000;
        let topo = Topology::from_capacities(2, n, 10, 5).unwrap();
        let uniform = random_dataset(n, 2, 49);
        let mut rng = seeded(50);
        // Heavy-tailed: cube of a uniform variate.
        let skewed = Dataset::from_flat(
            2,
            (0..n * 2)
                .map(|_| {
                    let u: f32 = rng.gen();
                    u * u * u
                })
                .collect(),
        )
        .unwrap();
        let cfg = ExternalConfig::with_mem_points(200).unwrap();
        let a = build_on_disk(&uniform, &topo, &cfg).unwrap().io;
        let b = build_on_disk(&skewed, &topo, &cfg).unwrap().io;
        assert!(
            b.transfers as f64 >= 0.8 * a.transfers as f64,
            "skewed {b:?} vs uniform {a:?}"
        );
    }

    #[test]
    fn config_validation() {
        let data = random_dataset(100, 4, 46);
        let topo = Topology::from_capacities(4, 100, 10, 5).unwrap();
        // A zero budget is rejected at construction.
        assert!(ExternalConfig::with_mem_points(0).is_err());
        // A budget below one data page passes construction (no topology
        // yet) but is rejected by the build.
        let small = ExternalConfig::with_mem_points(5).unwrap();
        assert!(build_on_disk(&data, &topo, &small).is_err());
        let other = random_dataset(50, 4, 47);
        assert!(build_on_disk(
            &other,
            &topo,
            &ExternalConfig::with_mem_points(100).unwrap()
        )
        .is_err());
    }

    #[test]
    fn zero_fault_build_is_byte_identical_and_faults_reproduce() {
        use hdidx_faults::FaultConfig;
        let data = random_dataset(4000, 6, 51);
        let topo = Topology::from_capacities(6, 4000, 20, 8).unwrap();
        let base_cfg = ExternalConfig::with_mem_points(250).unwrap();
        let plain = build_on_disk(&data, &topo, &base_cfg).unwrap();
        let zero = build_on_disk(
            &data,
            &topo,
            &ExternalConfig {
                faults: Some(FaultConfig::disabled(5)),
                ..base_cfg
            },
        )
        .unwrap();
        assert_eq!(zero.io, plain.io);
        assert!(zero.fault_trace.is_empty());
        // Moderate fault pressure: build still succeeds (bounded retry),
        // costs strictly more, and is reproducible from the seed.
        let faulty_cfg = ExternalConfig {
            faults: Some(FaultConfig::disabled(5).with_rate_ppm(20_000).unwrap()),
            ..base_cfg
        };
        let a = build_on_disk(&data, &topo, &faulty_cfg).unwrap();
        let b = build_on_disk(&data, &topo, &faulty_cfg).unwrap();
        assert_eq!(a.io, b.io);
        assert_eq!(a.fault_trace, b.fault_trace);
        assert!(a.io.retries > 0, "2 % faults over a build must retry");
        assert!(a.io.seeks > plain.io.seeks);
        // The tree itself is unaffected by survivable faults.
        assert_eq!(a.tree.num_leaves(), plain.tree.num_leaves());
    }
}
