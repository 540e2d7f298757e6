//! Prepared experiment state: dataset + topology + workload + ground truth.

use crate::args::ExpArgs;
use hdidx_core::{Dataset, Result};
use hdidx_datagen::registry::NamedDataset;
use hdidx_datagen::workload::Workload;
use hdidx_diskio::external::ExternalConfig;
use hdidx_diskio::measure::{measure_on_disk, OnDiskMeasurement};
use hdidx_model::QueryBall;
use hdidx_vamsplit::topology::{PageConfig, Topology};

/// A fully prepared experiment: the generated dataset, the index topology,
/// the density-biased workload with exact radii, and the query balls every
/// predictor consumes.
pub struct ExperimentContext {
    /// Which analog this is.
    pub name: &'static str,
    /// The generated dataset.
    pub data: Dataset,
    /// Topology of the on-disk index.
    pub topo: Topology,
    /// The workload (centers from the data, exact k-NN radii).
    pub workload: Workload,
    /// The same workload as predictor inputs.
    pub balls: Vec<QueryBall>,
}

impl ExperimentContext {
    /// Generates the dataset analog at `args.scale` and prepares the
    /// workload.
    ///
    /// # Errors
    ///
    /// Propagates generation/topology/scan errors.
    pub fn prepare(ds: NamedDataset, args: &ExpArgs) -> Result<ExperimentContext> {
        let data = ds.spec_scaled(args.scale).generate()?;
        let topo = Topology::new(
            data.dim(),
            data.len(),
            &PageConfig::with_page_bytes(ds.page_bytes()),
        )?;
        let workload = Workload::density_biased(&data, args.queries, args.k, args.seed)?;
        let balls = balls_of(&workload);
        Ok(ExperimentContext {
            name: ds.name(),
            data,
            topo,
            workload,
            balls,
        })
    }

    /// Ground-truth measurement: build the on-disk index under memory `m`
    /// and run the workload on it.
    ///
    /// # Errors
    ///
    /// Propagates build/query errors.
    pub fn measure(&self, m: usize) -> Result<OnDiskMeasurement> {
        let centers: Vec<Vec<f32>> = self
            .workload
            .queries
            .iter()
            .map(|q| q.center.clone())
            .collect();
        measure_on_disk(
            &self.data,
            &self.topo,
            &centers,
            self.workload.k,
            &ExternalConfig::with_mem_points(m).unwrap(),
        )
    }
}

/// Converts a workload to predictor inputs.
pub fn balls_of(w: &Workload) -> Vec<QueryBall> {
    w.queries
        .iter()
        .map(|q| QueryBall::new(q.center.clone(), q.radius))
        .collect()
}
