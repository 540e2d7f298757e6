//! §4.1–§4.6: closed-form I/O cost of the three approaches (Eqs. 1–5).
//!
//! These formulas generate the paper's Figures 9 and 10 without touching
//! any data. They are deliberately *optimistic* for the on-disk baseline
//! (best-case O(N) partitioning, exactly as the paper assumes — §4.1 notes
//! the measured cost on real data is 5–10× higher), so the analytic gap to
//! the predictors is a lower bound on the real gap.

use crate::hupper;
use hdidx_core::Result;
use hdidx_diskio::external::IO_BUF_PAGES;
use hdidx_diskio::{DiskModel, IoStats};
use hdidx_vamsplit::topology::Topology;

/// Inputs of the analytic cost model (the paper's Table 2 symbols).
#[derive(Debug, Clone)]
pub struct CostInputs {
    /// Tree topology over `N` points (fixes `B = C_eff,data`, heights,
    /// fanouts).
    pub topo: Topology,
    /// Memory size in points (`M`).
    pub m: usize,
    /// Number of query points (`q`).
    pub q: usize,
    /// Disk timing model (`t_seek`, `t_xfer`).
    pub disk: DiskModel,
}

impl CostInputs {
    /// Convenience constructor with the paper's disk.
    pub fn new(topo: Topology, m: usize, q: usize) -> Self {
        CostInputs {
            topo,
            m,
            q,
            disk: DiskModel::PAPER,
        }
    }

    fn n(&self) -> u64 {
        self.topo.n() as u64
    }

    fn b(&self) -> u64 {
        self.topo.cap_data() as u64
    }

    fn data_pages(&self) -> u64 {
        self.n().div_ceil(self.b())
    }

    /// Eq. 2: reading `q` query points randomly.
    #[must_use]
    pub fn read_query_points(&self) -> IoStats {
        IoStats::random(self.q as u64)
    }

    /// Eq. (unnumbered, §4.3): one sequential scan of the dataset.
    #[must_use]
    pub fn scan_dataset(&self) -> IoStats {
        IoStats::run(self.data_pages())
    }

    /// Eq. 3: total cost of the cutoff prediction.
    #[must_use]
    pub fn cutoff(&self) -> IoStats {
        self.read_query_points() + self.scan_dataset()
    }

    /// Eq. 4: the resampling step for a given `h_upper`.
    #[must_use]
    pub fn resampling(&self, h_upper: usize) -> IoStats {
        let sigma_lower = hupper::sigma_lower(&self.topo, self.m, h_upper);
        let k = self.topo.upper_leaf_count(h_upper);
        let m = self.m as f64;
        let chunks = ((self.n() as f64) * sigma_lower / m).ceil() as u64;
        let read_per_chunk = ((m / (self.b() as f64 * sigma_lower)).ceil()) as u64;
        let write_per_chunk = (m / self.b() as f64).ceil() as u64;
        IoStats {
            seeks: chunks * (1 + k),
            transfers: chunks * (read_per_chunk + write_per_chunk),
            ..IoStats::default()
        }
    }

    /// §4.4: reading the `k` areas back to build the lower trees.
    #[must_use]
    pub fn build_lower_subtrees(&self, h_upper: usize) -> IoStats {
        let k = self.topo.upper_leaf_count(h_upper);
        let pages = (self.m as f64 / self.b() as f64).ceil() as u64;
        IoStats {
            seeks: k,
            transfers: k * pages,
            ..IoStats::default()
        }
    }

    /// Eq. 5: total cost of the resampled prediction.
    #[must_use]
    pub fn resampled(&self, h_upper: usize) -> IoStats {
        self.read_query_points()
            + self.scan_dataset()
            + self.resampling(h_upper)
            + self.build_lower_subtrees(h_upper)
    }

    /// Eq. 5 at the §4.5.2 recommended `h_upper`.
    ///
    /// # Errors
    ///
    /// Propagates infeasibility from [`hupper::recommended_h_upper`].
    pub fn resampled_recommended(&self) -> Result<(usize, IoStats)> {
        let h = hupper::recommended_h_upper(&self.topo, self.m)?;
        Ok((h, self.resampled(h)))
    }

    /// Eq. 1: best-case cost of building the index on disk.
    ///
    /// Derivation mirroring the external builder's best case: every tree
    /// level whose subtrees exceed memory pays, per binary split level
    /// (`⌈log2(fanout)⌉` of them), one variance scan (read N/B) and one
    /// best-case selection pass (read + write N/B with a seek every
    /// [`IO_BUF_PAGES`] chunk, matching the external partitioner). Once
    /// subtrees fit in memory, the remaining data is read once per subtree
    /// and the finished pages are written once.
    #[must_use]
    pub fn on_disk_build(&self) -> IoStats {
        let topo = &self.topo;
        let n_pages = self.data_pages();
        let mut io = IoStats::default();
        let mut level = topo.height();
        while level >= 2 && topo.pts(level) > self.m as f64 {
            // Representative fanout at this level (root uses its own).
            let fanout = if level == topo.height() {
                topo.fanout_for(level, topo.n() as f64)
            } else {
                topo.cap_dir()
            };
            let split_levels = (fanout as f64).log2().ceil().max(1.0) as u64;
            let chunked_seeks = 3 * n_pages.div_ceil(IO_BUF_PAGES);
            for _ in 0..split_levels {
                // Variance scan.
                io += IoStats::run(n_pages);
                // Best-case selection: one read+write pass over the level.
                io += IoStats {
                    seeks: chunked_seeks,
                    transfers: 2 * n_pages,
                    ..IoStats::default()
                };
            }
            level -= 1;
        }
        // Resident phase: read each fitting subtree once, write all pages.
        let groups = if level >= 1 {
            topo.nodes_at_level(level)
        } else {
            1
        };
        io += IoStats {
            seeks: groups,
            transfers: n_pages,
            ..IoStats::default()
        };
        io += IoStats {
            seeks: groups,
            transfers: topo.total_pages(),
            ..IoStats::default()
        };
        io
    }

    /// Seconds for a counter under this model.
    #[must_use]
    pub fn seconds(&self, io: IoStats) -> f64 {
        self.disk.cost_seconds(io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 9/10 parameter point: N = 1M, d = 60, B = 33 (8 KB pages).
    fn million60(m: usize) -> CostInputs {
        let topo = Topology::from_capacities(60, 1_000_000, 33, 16).unwrap();
        CostInputs::new(topo, m, 500)
    }

    #[test]
    fn figure9_orderings_hold() {
        // At every memory size: cutoff < resampled < on-disk, with the
        // paper's one/two order-of-magnitude gaps at M = 10,000.
        for m in [1_000, 10_000, 100_000] {
            let c = million60(m);
            let cutoff = c.seconds(c.cutoff());
            let (_, res_io) = c.resampled_recommended().unwrap();
            let resampled = c.seconds(res_io);
            let ondisk = c.seconds(c.on_disk_build());
            assert!(
                cutoff < resampled && resampled < ondisk,
                "M = {m}: cutoff {cutoff:.1}s, resampled {resampled:.1}s, on-disk {ondisk:.1}s"
            );
            if m == 10_000 {
                assert!(ondisk / resampled > 4.0, "gap {:.1}", ondisk / resampled);
                assert!(ondisk / cutoff > 20.0, "gap {:.1}", ondisk / cutoff);
            }
        }
    }

    #[test]
    fn costs_decrease_with_memory() {
        let lo = million60(2_000);
        let hi = million60(200_000);
        assert!(
            hi.seconds(hi.on_disk_build()) <= lo.seconds(lo.on_disk_build()),
            "on-disk not monotone"
        );
        let (_, r_lo) = lo.resampled_recommended().unwrap();
        let (_, r_hi) = hi.resampled_recommended().unwrap();
        assert!(
            hi.seconds(r_hi) <= lo.seconds(r_lo),
            "resampled not monotone"
        );
        // Cutoff is memory-independent (scan + queries only).
        assert_eq!(lo.cutoff(), hi.cutoff());
    }

    #[test]
    fn eq4_matches_hand_computation() {
        // TEXTURE60, M = 10,000, h_upper = 2: k = 3, sigma_lower = 0.1089.
        let topo = Topology::from_capacities(60, 275_465, 33, 16).unwrap();
        let c = CostInputs::new(topo, 10_000, 500);
        let io = c.resampling(2);
        let sigma = 3.0 * 10_000.0 / 275_465.0;
        let chunks = (275_465.0 * sigma / 10_000.0_f64).ceil(); // = 3
        assert_eq!(chunks as u64, 3);
        let read = (10_000.0 / (33.0 * sigma)).ceil() as u64; // span pages
        let write = (10_000.0_f64 / 33.0).ceil() as u64;
        assert_eq!(
            io,
            IoStats {
                seeks: 3 * (1 + 3),
                transfers: 3 * (read + write),
                ..IoStats::default()
            }
        );
    }

    #[test]
    fn resampled_io_increases_with_h_upper() {
        let topo = Topology::from_capacities(60, 275_465, 33, 16).unwrap();
        let c = CostInputs::new(topo, 10_000, 500);
        let s2 = c.seconds(c.resampled(2));
        let s3 = c.seconds(c.resampled(3));
        let s4 = c.seconds(c.resampled(4));
        assert!(s2 < s3 && s3 < s4, "{s2} {s3} {s4}");
    }

    #[test]
    fn on_disk_cost_scales_superlinearly_in_n() {
        // More data means both more pages per pass and more external
        // levels; the analytic build cost must grow at least linearly.
        let at = |n: usize| {
            let topo = Topology::from_capacities(60, n, 33, 16).unwrap();
            let c = CostInputs::new(topo, 10_000, 0);
            c.seconds(c.on_disk_build())
        };
        let small = at(100_000);
        let large = at(1_600_000);
        assert!(
            large >= 14.0 * small,
            "16x data: {small:.1}s -> {large:.1}s"
        );
    }

    #[test]
    fn cutoff_cost_is_exactly_queries_plus_scan() {
        let topo = Topology::from_capacities(60, 275_465, 33, 16).unwrap();
        let c = CostInputs::new(topo, 10_000, 500);
        let io = c.cutoff();
        let scan_pages = 275_465u64.div_ceil(33);
        assert_eq!(io.seeks, 500 + 1);
        assert_eq!(io.transfers, 500 + scan_pages);
        // Paper Table 3 anchor: 501 seeks, ~8.7k transfers, ~8.5 s.
        assert_eq!(io.seeks, 501);
        let secs = c.seconds(io);
        assert!((8.0..9.5).contains(&secs), "cutoff {secs:.2}s");
    }

    #[test]
    fn dimensionality_sweep_is_monotone() {
        // Figure 10: M = 600,000 / dim; cost grows with dimensionality for
        // all approaches (fewer points per page => more pages to move).
        let at = |dim: usize| {
            let cap_data = (8192 / (4 * dim + 8)).max(2);
            let cap_dir = (8192 / (8 * dim + 8)).max(2);
            let topo = Topology::from_capacities(dim, 1_000_000, cap_data, cap_dir).unwrap();
            let m = 600_000 / dim;
            CostInputs::new(topo, m, 500)
        };
        let c20 = at(20);
        let c120 = at(120);
        assert!(c120.seconds(c120.cutoff()) > c20.seconds(c20.cutoff()));
        assert!(c120.seconds(c120.on_disk_build()) > c20.seconds(c20.on_disk_build()));
    }
}
