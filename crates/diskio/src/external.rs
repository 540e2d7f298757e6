//! On-disk bulk loading under an `M`-point memory budget.
//!
//! This is the baseline the paper charges all predictors against: "it is
//! always possible to simply build an index on disk via bulk loading and
//! then run some sample queries on it" (§4.1). The algorithm is the same
//! top-down VAMSplit partitioning as `hdidx-vamsplit`, but segments larger
//! than memory are partitioned **externally**:
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
//! The produced tree is **bit-identical in leaf membership** to the
//! in-memory loader's (rank partitions determine membership, not ordering),
//! which the tests verify; only the I/O bill differs.

use crate::disk::{Disk, FileHandle};
use crate::model::IoStats;
use crate::store::DiskOptions;
use hdidx_core::stats::max_variance_dim;
use hdidx_core::{Dataset, Error, HyperRect, Result};
use hdidx_faults::{FaultConfig, FaultEvent, FaultPhase};
use hdidx_vamsplit::split::partition_by_rank;
use hdidx_vamsplit::topology::Topology;
use hdidx_vamsplit::tree::{Node, NodeKind, RTree};

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
    let n = data.len();
    let recs_per_page = topo.cap_data() as u64;
    let data_pages = (n as u64).div_ceil(recs_per_page);
    let file = disk.alloc(data_pages)?;
    // Output region for finished index pages (generously sized; only the
    // access pattern matters).
    let out = disk.alloc(2 * topo.total_pages() + 64)?;
    let mut b = ExtBuilder {
        data,
        topo,
        cfg,
        disk,
        file,
        out,
        out_cursor: 0,
        nodes: Vec::new(),
        ids: (0..n as u32).collect(),
        recs_per_page,
    };
    let root = b.build_node(0, n, topo.height(), n as f64, false)?;
    debug_assert_eq!(root, Some(0));
    // Directory pages of the external levels are written at the end in one
    // sequential run.
    let written_so_far = b.out_cursor;
    let remaining = (b.nodes.len() as u64).saturating_sub(written_so_far);
    if remaining > 0 {
        b.disk.write_pages(&b.out, b.out_cursor, remaining)?;
        b.out_cursor += remaining;
    }
    let ExtBuilder {
        disk, nodes, ids, ..
    } = b;
    let tree = RTree::from_arenas(data.dim(), topo.height(), 1, nodes, ids)?;
    Ok(BuildOutput {
        tree,
        io: disk.stats(),
        fault_trace: disk.fault_trace().to_vec(),
    })
}

struct ExtBuilder<'a> {
    data: &'a Dataset,
    topo: &'a Topology,
    cfg: &'a ExternalConfig,
    disk: Disk,
    file: FileHandle,
    out: FileHandle,
    out_cursor: u64,
    nodes: Vec<Node>,
    ids: Vec<u32>,
    recs_per_page: u64,
}

impl<'a> ExtBuilder<'a> {
    fn build_node(
        &mut self,
        start: usize,
        end: usize,
        level: usize,
        n_full: f64,
        resident: bool,
    ) -> Result<Option<u32>> {
        if start == end {
            return Ok(None);
        }
        let mut resident = resident;
        let mut newly_resident = false;
        if !resident && end - start <= self.cfg.mem_points {
            // Load the whole segment into memory: one sequential run.
            self.disk.read_records(
                &self.file,
                start as u64,
                (end - start) as u64,
                self.recs_per_page,
            )?;
            resident = true;
            newly_resident = true;
        }
        let my_index = self.nodes.len() as u32;
        self.nodes.push(Node {
            level: level as u32,
            rect: HyperRect::point(self.data.point(self.ids[start] as usize)),
            kind: NodeKind::Leaf {
                entries: start as u32..end as u32,
            },
        });
        if level == 1 {
            debug_assert!(resident, "a data page must fit in memory");
            // Invariant: `start < end` was established at function entry
            // (the `start == end` case returned `None`), so the slice is
            // non-empty and `mbr_of` cannot fail.
            let rect = self.data.mbr_of(&self.ids[start..end]).expect("non-empty");
            self.nodes[my_index as usize].rect = rect;
        } else {
            let fanout = self.topo.fanout_for(level, n_full);
            let mut groups = Vec::with_capacity(fanout);
            self.partition_groups(start, end, level, fanout, n_full, resident, &mut groups)?;
            let mut children = Vec::with_capacity(groups.len());
            let mut rect: Option<HyperRect> = None;
            for (g_start, g_end, g_full) in groups {
                if let Some(child) = self.build_node(g_start, g_end, level - 1, g_full, resident)? {
                    let child_rect = self.nodes[child as usize].rect.clone();
                    match rect.as_mut() {
                        Some(r) => r.expand_to_rect(&child_rect),
                        None => rect = Some(child_rect),
                    }
                    children.push(child);
                }
            }
            debug_assert!(!children.is_empty());
            let node = &mut self.nodes[my_index as usize];
            // Invariant: the segment is non-empty and partition_groups
            // covers it exactly, so at least one group is non-empty and
            // produced a child whose rect initialized `rect`.
            node.rect = rect.expect("at least one child");
            node.kind = NodeKind::Inner { children };
        }
        if newly_resident {
            // The finished in-memory subtree is flushed to the output
            // region in one sequential run (its data pages + directory
            // pages were all produced in memory).
            let subtree_pages = self.nodes.len() as u64 - my_index as u64;
            self.disk
                .write_pages(&self.out, self.out_cursor, subtree_pages)?;
            self.out_cursor += subtree_pages;
        }
        Ok(Some(my_index))
    }

    #[allow(clippy::too_many_arguments)]
    fn partition_groups(
        &mut self,
        start: usize,
        end: usize,
        level: usize,
        fanout: usize,
        n_full: f64,
        resident: bool,
        out: &mut Vec<(usize, usize, f64)>,
    ) -> Result<()> {
        if fanout <= 1 {
            out.push((start, end, n_full));
            return Ok(());
        }
        let child_cap = self.topo.subtree_capacity(level - 1);
        let f_left = fanout / 2;
        let left_full = (f_left as f64) * child_cap;
        let right_full = (n_full - left_full).max(1.0);
        let len = end - start;
        let rank = if len == 0 {
            0
        } else {
            (((len as f64) * left_full / n_full).round() as usize).min(len)
        };
        if rank > 0 && rank < len {
            if !resident {
                // Variance scan of the segment (read-only sequential pass).
                self.disk
                    .read_records(&self.file, start as u64, len as u64, self.recs_per_page)?;
            }
            let dim = max_variance_dim(self.data, &self.ids[start..end])?;
            if !resident {
                self.account_external_select(start, end, dim, start + rank)?;
            }
            partition_by_rank(self.data, &mut self.ids[start..end], dim, rank);
        }
        self.partition_groups(start, start + rank, level, f_left, left_full, resident, out)?;
        self.partition_groups(
            start + rank,
            end,
            level,
            fanout - f_left,
            right_full,
            resident,
            out,
        )
    }

    /// Simulates the I/O of Hoare's *find* run externally: narrowing passes
    /// around real pivots until the active subsegment fits in memory. Pivot
    /// statistics are computed from the actual data, so skew and duplicates
    /// cost what they would really cost (this is where the paper's "five to
    /// ten times higher than best case on real data" shows up).
    fn account_external_select(
        &mut self,
        seg_start: usize,
        seg_end: usize,
        dim: usize,
        rank_abs: usize,
    ) -> Result<()> {
        let key = |b: &Self, i: usize| b.data.point(b.ids[i] as usize)[dim];
        let mut lo = seg_start;
        let mut hi = seg_end;
        loop {
            let len = hi - lo;
            if len <= self.cfg.mem_points {
                // Read the survivor segment, finish in memory, write back.
                self.disk
                    .read_records(&self.file, lo as u64, len as u64, self.recs_per_page)?;
                self.disk
                    .write_records(&self.file, lo as u64, len as u64, self.recs_per_page)?;
                return Ok(());
            }
            self.partition_pass_io(lo, len)?;
            let pivot = median3(key(self, lo), key(self, lo + len / 2), key(self, hi - 1));
            let mut n_less = 0usize;
            let mut n_eq = 0usize;
            for i in lo..hi {
                let k = key(self, i);
                if k < pivot {
                    n_less += 1;
                } else if k == pivot {
                    n_eq += 1;
                }
            }
            if rank_abs < lo + n_less {
                hi = lo + n_less;
            } else if rank_abs < lo + n_less + n_eq {
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

    #[test]
    fn external_tree_matches_in_memory_tree() {
        let data = random_dataset(5000, 8, 41);
        let topo = Topology::from_capacities(8, 5000, 20, 8).unwrap();
        let mem = bulk_load(&data, &topo).unwrap();
        let ext =
            build_on_disk(&data, &topo, &ExternalConfig::with_mem_points(300).unwrap()).unwrap();
        ext.tree.check_invariants().unwrap();
        assert_eq!(ext.tree.height(), mem.height());
        assert_eq!(ext.tree.num_leaves(), mem.num_leaves());
        // Leaf membership identical: compare sorted id sets per leaf, in
        // construction (pre-)order.
        let leaves_of = |t: &RTree| -> Vec<Vec<u32>> {
            t.leaves()
                .map(|l| {
                    let mut v = t.leaf_entries(l).to_vec();
                    v.sort_unstable();
                    v
                })
                .collect()
        };
        assert_eq!(leaves_of(&ext.tree), leaves_of(&mem));
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
