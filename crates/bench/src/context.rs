//! Prepared experiment state: dataset + topology + workload + ground truth,
//! and the [`Suite`] that prepares each of them once per process.

use crate::args::ExpArgs;
use hdidx_core::{Dataset, Result};
use hdidx_datagen::registry::NamedDataset;
use hdidx_datagen::workload::Workload;
use hdidx_diskio::external::ExternalConfig;
use hdidx_diskio::measure::{measure_on_disk, OnDiskMeasurement};
use hdidx_model::QueryBall;
use hdidx_vamsplit::topology::{PageConfig, Topology};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

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
        self.measure_with(&self.topo, m)
    }

    /// As [`ExperimentContext::measure`], on another topology of the same
    /// data (another page size).
    ///
    /// # Errors
    ///
    /// Propagates build/query errors.
    pub fn measure_with(&self, topo: &Topology, m: usize) -> Result<OnDiskMeasurement> {
        let centers: Vec<Vec<f32>> = self
            .workload
            .queries
            .iter()
            .map(|q| q.center.clone())
            .collect();
        measure_on_disk(
            &self.data,
            topo,
            &centers,
            self.workload.k,
            &ExternalConfig::with_mem_points(m)?,
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

/// What a context is a pure function of.
type Key = (NamedDataset, u64, usize, usize, u64);

/// The contexts of one run of experiments, each prepared on first use
/// and then shared read-only: experiments that ask for the same dataset,
/// scale, query count, `k` and seed get the same context.
#[derive(Default)]
pub struct Suite {
    contexts: RefCell<HashMap<Key, Rc<ExperimentContext>>>,
}

impl Suite {
    /// The context for `ds` under `args`, prepared if no earlier call
    /// asked for it.
    ///
    /// # Errors
    ///
    /// Propagates [`ExperimentContext::prepare`]'s errors; a failed
    /// preparation is not kept.
    pub fn context(&self, ds: NamedDataset, args: &ExpArgs) -> Result<Rc<ExperimentContext>> {
        let key = (ds, args.scale.to_bits(), args.queries, args.k, args.seed);
        if let Some(ctx) = self.contexts.borrow().get(&key) {
            return Ok(Rc::clone(ctx));
        }
        let ctx = Rc::new(ExperimentContext::prepare(ds, args)?);
        self.contexts.borrow_mut().insert(key, Rc::clone(&ctx));
        Ok(ctx)
    }

    /// How many contexts have been prepared.
    pub fn prepared(&self) -> usize {
        self.contexts.borrow().len()
    }
}
