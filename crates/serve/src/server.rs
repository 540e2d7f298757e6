//! The serving engine: a built index executing typed request batches on
//! simulated time.
//!
//! # Request path
//!
//! A [`Server`] owns the bulk-loaded index (its directory flattened into
//! a [`TreeSoup`], one SoA soup per inner node, so a request counts the
//! leaves its ball meets by descending the directory boxes) plus the
//! grown upper tree of the paper's sampled cost predictor. A k-NN request
//! finds its radius by a best-first search through the same soups, or
//! through the linear scan when the index cannot prune ([`crate::knn`]). The whole offered stream executes in
//! one pass over the [`Pool`] with per-query panic isolation
//! ([`Pool::par_map_isolated`]); executing a request is pure, so the
//! lanes' shadow pass and the single-threaded accounting pass (which
//! batches the admitted requests and advances simulated time) both read
//! those results. Nothing about latency or fault injection depends on
//! which OS thread ran a query, so the whole run is byte-identical at any
//! `HDIDX_THREADS`.
//!
//! # Simulated time
//!
//! Latency is composed, never measured: each executed query charges its
//! page accesses (directory descent + leaf reads, all random I/O) plus any
//! fault-retry backoff through [`DiskModel::cost_seconds`]. The server is
//! modeled as `concurrency` identical slots; a batch is dispatched to the
//! earliest-free slot once its last request has arrived, and its queries
//! complete sequentially on that slot. A request's latency is its
//! completion time minus its arrival time — queueing delay is where open
//! loops grow tails, and it falls out of the slot algebra for free.
//!
//! # Overload control
//!
//! The [`OverloadPolicy`] layers two deterministic mechanisms on top,
//! both off by default ([`OverloadPolicy::none`] runs byte-identical to a
//! server that predates the subsystem):
//!
//! * **Lanes** shed per class on a feed-forward pressure signal: a shadow
//!   pass of the slot algebra over the *offered* stream prices every
//!   request's queue delay, and a class whose sliding-window mean exceeds
//!   its budget sheds. Decisions never depend on earlier sheds, so they
//!   are thread-invariant and monotone in the budget.
//! * **Breaker**: a [`CircuitBreaker`] clocked by the monotone envelope
//!   of slot times gates the disk-backed classes; while open they fail
//!   fast (charging nothing), while predictions keep serving from memory.

use crate::admission::LaneState;
use crate::knn::knn_radius_with;
use crate::latency::{LatencyRecorder, LatencySummary};
use crate::overload::OverloadPolicy;
use crate::request::{Query, QueryClass, Request};
use hdidx_core::{simd, Dataset, Error, LeafSoup, Result};
use hdidx_diskio::breaker::CircuitBreaker;
use hdidx_diskio::disk::Disk;
use hdidx_diskio::external::{build_on_disk, ExternalConfig};
use hdidx_diskio::model::{DiskModel, IoStats};
use hdidx_diskio::store::DiskOptions;
use hdidx_diskio::BreakerState;
use hdidx_faults::{FaultConfig, FaultPhase};
use hdidx_model::hupper::recommended_h_upper;
use hdidx_model::upper::build_upper_phase;
use hdidx_pool::Pool;
use hdidx_store::ScrubReport;
use hdidx_vamsplit::query::TreeSoup;
use hdidx_vamsplit::topology::Topology;
use hdidx_vamsplit::tree::RTree;

/// Per-run serving knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Number of parallel service slots in the simulated server.
    pub concurrency: usize,
    /// Requests dispatched per batch.
    pub batch: usize,
    /// Overload-control policy (defaults to [`OverloadPolicy::none`]).
    pub overload: OverloadPolicy,
    /// Disk cost model that converts I/O counts into seconds.
    pub disk: DiskModel,
}

impl ServeConfig {
    /// Default knobs: 4 slots, batches of 8, no overload policy (so
    /// nothing sheds), the paper's disk.
    #[must_use]
    pub fn new() -> ServeConfig {
        ServeConfig {
            concurrency: 4,
            batch: 8,
            overload: OverloadPolicy::none(),
            disk: DiskModel::PAPER,
        }
    }

    /// Checks the knobs: at least one slot, at least one request per
    /// batch, and a valid overload policy.
    ///
    /// # Errors
    ///
    /// [`hdidx_core::Error::InvalidParameter`] describing the violation.
    pub fn validate(&self) -> Result<()> {
        if self.concurrency == 0 {
            return Err(Error::invalid("concurrency", "must be at least 1"));
        }
        if self.batch == 0 {
            return Err(Error::invalid("batch", "must be at least 1"));
        }
        self.overload.validate()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::new()
    }
}

/// Outcome of executing one request (before time accounting).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ExecResult {
    /// The request's answer: leaf pages the query read, or for a predict
    /// the sampled estimate of them.
    leaf_accesses: u64,
    /// I/O charged, including fault retries and backoff.
    io: IoStats,
    /// False when the query failed (exhausted retries or panicked).
    ok: bool,
}

impl ExecResult {
    fn failed() -> ExecResult {
        ExecResult {
            leaf_accesses: 0,
            io: IoStats::default(),
            ok: false,
        }
    }

    /// Simulated seconds the request occupies its slot.
    fn service_s(&self, disk: &DiskModel) -> f64 {
        disk.cost_seconds(self.io)
    }
}

/// Per-class slice of a serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassStats {
    /// The class the row describes.
    pub class: QueryClass,
    /// Requests of this class admitted and executed.
    pub executed: u64,
    /// Requests of this class shed (lanes).
    pub shed: u64,
    /// Executed requests of this class that failed.
    pub failed: u64,
    /// Percentile summary of this class's latency samples.
    pub summary: Option<LatencySummary>,
    /// FNV-1a digest of this class's latency sample stream.
    pub digest: u64,
}

/// Breaker observables of one serving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerSummary {
    /// Closed→Open transitions.
    pub trips: u64,
    /// Requests refused while open.
    pub fast_fails: u64,
    /// State at the end of the run.
    pub state: BreakerState,
    /// FNV-1a digest of the transition trajectory (times + states).
    pub digest: u64,
}

/// Aggregate outcome of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests offered by the load generator.
    pub total: u64,
    /// Requests admitted and executed.
    pub executed: u64,
    /// Requests shed (lanes).
    pub shed: u64,
    /// Executed requests that failed (retry exhaustion, worker panic, or
    /// breaker fast-fail).
    pub failed: u64,
    /// Per-query latency samples (simulated seconds), completion order.
    pub samples: Vec<f64>,
    /// Exact nearest-rank percentile summary (`None` when nothing ran).
    pub summary: Option<LatencySummary>,
    /// Total I/O charged across all executed requests.
    pub io: IoStats,
    /// Total charged retry backoff, in simulated seconds.
    pub backoff_s: f64,
    /// Simulated completion time of the last request.
    pub makespan_s: f64,
    /// Fraction of offered requests shed.
    pub shed_fraction: f64,
    /// FNV-1a digest of the latency sample stream (byte-identity check).
    pub digest: u64,
    /// Per-class accounting, indexed by [`QueryClass::index`].
    pub by_class: [ClassStats; QueryClass::COUNT],
    /// Breaker observables (`None` when no breaker was configured).
    pub breaker: Option<BreakerSummary>,
    /// Geometry-kernel ISA the run dispatched to
    /// ([`hdidx_core::simd::active`]). Observability only: every ISA
    /// produces byte-identical samples and digests.
    pub isa: &'static str,
}

/// A query server over a built index.
///
/// Holds the dataset by reference, the bulk-loaded tree, its directory
/// soup the range/k-NN path counts leaves through, and the grown
/// upper-tree soup the predict path counts against.
#[derive(Debug, Clone)]
pub struct Server<'a> {
    data: &'a Dataset,
    tree: RTree,
    leaves: TreeSoup,
    predict_soup: LeafSoup,
    build_io: IoStats,
    faults: Option<FaultConfig>,
    height: usize,
}

impl<'a> Server<'a> {
    /// Builds the on-disk index under the external-memory builder (with
    /// `m` points of working memory), flattens its directory, and builds the
    /// grown upper tree at the recommended cut for the same budget. With
    /// `faults` set, the build itself runs under the plan's build phase
    /// and queries will replay through per-request query-phase plans.
    ///
    /// # Errors
    ///
    /// Propagates builder and upper-phase errors (shape mismatches,
    /// infeasible `m`).
    pub fn build(
        data: &'a Dataset,
        topo: &Topology,
        m: usize,
        seed: u64,
        faults: Option<FaultConfig>,
    ) -> Result<Server<'a>> {
        let mut cfg = ExternalConfig::with_mem_points(m)?;
        cfg.faults = faults;
        let built = build_on_disk(data, topo, &cfg)?;
        Server::from_tree(data, topo, built.tree, m, seed, faults, built.io, None)
    }

    /// Adopts an already-built `tree` — e.g. one loaded back from a
    /// persistent page store — instead of building one. The soups and the
    /// grown upper tree are reconstructed exactly as [`Server::build`]
    /// does, so a server over a loaded tree serves range / k-NN / predict
    /// queries identically to the server that persisted it (pinned by the
    /// file-backend round-trip tests). `build_io` is whatever the caller
    /// wants reported — typically the I/O charged loading the snapshot.
    ///
    /// `scrub` is the [`ScrubReport`] of the generation the tree was
    /// loaded from, when the caller ran a scrub-and-repair pass first.
    /// A report with quarantined pages is refused: quarantining zeroes
    /// a page nothing could re-materialize, so even a tree that *loads*
    /// may silently misreport data — serving it would turn detected
    /// corruption into wrong answers.
    ///
    /// # Errors
    ///
    /// Propagates soup and upper-phase errors (a tree failing
    /// [`RTree::check_invariants`], shape mismatches, infeasible `m`);
    /// refuses a scrub report with quarantined pages.
    #[allow(clippy::too_many_arguments)]
    pub fn from_tree(
        data: &'a Dataset,
        topo: &Topology,
        tree: RTree,
        m: usize,
        seed: u64,
        faults: Option<FaultConfig>,
        build_io: IoStats,
        scrub: Option<&ScrubReport>,
    ) -> Result<Server<'a>> {
        if let Some(report) = scrub {
            if report.pages_quarantined > 0 {
                return Err(Error::StoreFailure {
                    op: "serve reopen",
                    detail: format!(
                        "refusing to serve generation {:?}: scrub quarantined {} of {} pages",
                        report.generation, report.pages_quarantined, report.pages_scanned
                    ),
                });
            }
        }
        let leaves = TreeSoup::new(&tree)?;
        let h_upper = recommended_h_upper(topo, m)?;
        let up = build_upper_phase(data, topo, m, h_upper, seed)?;
        let predict_soup = up.grown_soup()?;
        let height = tree.height();
        Ok(Server {
            data,
            tree,
            leaves,
            predict_soup,
            build_io,
            faults,
            height,
        })
    }

    /// The bulk-loaded index.
    #[must_use]
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// Radius of the exact k-NN sphere of `center`, searched through the
    /// server's index with the linear-scan fallback of
    /// [`crate::knn::knn_radius_with`]. Bit-identical to
    /// [`hdidx_core::knn::scan_knn_radius`].
    ///
    /// # Errors
    ///
    /// A wrong-length `center` or `k == 0`.
    pub fn knn_radius(&self, center: &[f32], k: usize) -> Result<f64> {
        knn_radius_with(
            simd::active(),
            &self.tree,
            &self.leaves,
            self.data,
            center,
            k,
        )
        .map(|(r, _)| r)
    }

    /// I/O consumed building the index (including build-phase faults).
    #[must_use]
    pub fn build_io(&self) -> IoStats {
        self.build_io
    }

    /// Replays `pages` random accesses through a scratch disk whose fault
    /// plan is derived from `stream`: which pages fault is a pure function
    /// of (fault seed, stream), never of scheduling. Alternating between
    /// two non-adjacent pages makes each access cost exactly one seek and
    /// one transfer, identical to `IoStats::random`, while `Disk::access`
    /// retry accounting applies unchanged. The replay stops when an access
    /// exhausts its retries (the seeks and backoff already burned stay
    /// charged).
    ///
    /// Returns the charged stats and the success flag.
    fn replay(&self, fcfg: &FaultConfig, stream: u64, pages: u64) -> (IoStats, bool) {
        let mut disk = Disk::with_options(
            &DiskOptions::new()
                .fault_plan(Some(*fcfg))
                .phase(FaultPhase::Query)
                .derived(stream),
        );
        let Ok(file) = disk.alloc(4) else {
            return (IoStats::default(), false);
        };
        let mut flip = 0u64;
        for _ in 0..pages {
            if disk.access(&file, flip, 1).is_err() {
                return (disk.stats(), false);
            }
            flip = 2 - flip;
        }
        (disk.stats(), true)
    }

    /// Executes a disk-backed query reading `leaf_accesses` leaves plus
    /// the directory descent, all random I/O: the closed form on a clean
    /// server, a per-request fault replay on a faulted one.
    fn run_disk_query(&self, req: &Request, leaf_accesses: u64) -> ExecResult {
        let pages = leaf_accesses + (self.height.saturating_sub(1)) as u64;
        let (io, ok) = match &self.faults {
            None => (IoStats::random(pages), true),
            Some(fcfg) => self.replay(fcfg, req.id, pages),
        };
        ExecResult {
            leaf_accesses,
            io,
            ok,
        }
    }

    /// Executes one request: resolves its leaf-access count through the
    /// counting kernels, then charges the page accesses (directory descent
    /// plus leaves, all random I/O) — through a per-request fault plan when
    /// faults are configured.
    fn execute(&self, req: &Request) -> ExecResult {
        match &req.query {
            Query::Range { center, radius } => {
                let leaves = self.leaves.count_intersecting(center, radius * radius);
                self.run_disk_query(req, leaves)
            }
            Query::Knn { center, k } => match self.knn_radius(center, *k) {
                Ok(r) => {
                    let leaves = self.leaves.count_intersecting(center, r * r);
                    self.run_disk_query(req, leaves)
                }
                Err(_) => ExecResult::failed(),
            },
            // The paper's sampled estimate is entirely in-memory: count
            // against the grown upper leaves, charge no I/O.
            Query::Predict { center, radius } => ExecResult {
                leaf_accesses: self
                    .predict_soup
                    .count_intersecting(center, radius * radius),
                io: IoStats::default(),
                ok: true,
            },
        }
    }

    /// Prices every offered request's queue delay with a no-shedding
    /// shadow pass of the slot algebra — the feed-forward pressure signal
    /// the admission lanes decide on.
    fn shadow_delays(
        &self,
        requests: &[Request],
        results: &[ExecResult],
        cfg: &ServeConfig,
    ) -> Vec<f64> {
        let mut free_at = vec![0.0f64; cfg.concurrency];
        let mut delays = vec![0.0f64; requests.len()];
        let mut base = 0usize;
        for batch in requests.chunks(cfg.batch) {
            let ready = batch.last().map_or(0.0, |r| r.arrival_s);
            let slot = (0..free_at.len())
                .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
                .unwrap_or(0);
            let mut t = free_at[slot].max(ready);
            for (j, req) in batch.iter().enumerate() {
                delays[base + j] = t - req.arrival_s;
                t += results[base + j].service_s(&cfg.disk);
            }
            free_at[slot] = t;
            base += batch.len();
        }
        delays
    }

    /// Serves an arrival-ordered request stream and accounts latency on
    /// simulated time (see the module docs for the queueing model and the
    /// overload-control layers).
    ///
    /// # Errors
    ///
    /// Propagates [`ServeConfig::validate`] and lane/breaker construction.
    pub fn run(&self, requests: &[Request], cfg: &ServeConfig, pool: &Pool) -> Result<ServeReport> {
        cfg.validate()?;
        let mut breaker = match cfg.overload.breaker {
            Some(bcfg) => Some(CircuitBreaker::new(bcfg)?),
            None => None,
        };

        // One execution pass over the offered stream. `execute` is pure,
        // so a request's result never depends on whether the lanes or the
        // breaker later refuse it; the shadow pass and the accounting loop
        // below both read these results.
        let results: Vec<ExecResult> = pool
            .par_map_isolated(requests, |r| self.execute(r))
            .into_iter()
            .map(|r| r.unwrap_or_else(|_| ExecResult::failed()))
            .collect();

        // Lane admission runs before batching, on the shadow-priced offered
        // stream; the admitted sub-stream is then re-chunked into batches.
        // With lanes off, the admitted stream IS the offered stream.
        let mut class_shed = [0u64; QueryClass::COUNT];
        let admitted: Vec<usize> = match cfg.overload.lanes {
            Some(policy) => {
                let delays = self.shadow_delays(requests, &results, cfg);
                let mut lanes = LaneState::new(policy)?;
                (0..requests.len())
                    .filter(|&i| {
                        let class = QueryClass::of(&requests[i].query);
                        let admit = lanes.admit(class, delays[i]);
                        if !admit {
                            class_shed[class.index()] += 1;
                        }
                        admit
                    })
                    .collect()
            }
            None => (0..requests.len()).collect(),
        };

        let mut recorder = LatencyRecorder::new();
        let mut class_rec: [LatencyRecorder; QueryClass::COUNT] = Default::default();
        let mut class_executed = [0u64; QueryClass::COUNT];
        let mut class_failed = [0u64; QueryClass::COUNT];
        let mut free_at = vec![0.0f64; cfg.concurrency];
        let mut io = IoStats::default();
        let mut failed = 0u64;
        let mut makespan_s = 0.0f64;
        // The breaker clock: a monotone envelope of the slot times the
        // sequential accounting pass touches. Monotone because breaker
        // state must never move backwards in time even though slots do.
        let mut clock_s = 0.0f64;

        for batch in admitted.chunks(cfg.batch) {
            // Single-threaded time accounting: dispatch the batch to the
            // earliest-free slot (lowest index on ties) once its last
            // request has arrived.
            let ready = batch.last().map_or(0.0, |&i| requests[i].arrival_s);
            let slot = (0..free_at.len())
                .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
                .unwrap_or(0);
            let mut t = free_at[slot].max(ready);
            for &i in batch {
                let (req, res) = (&requests[i], &results[i]);
                let class = QueryClass::of(&req.query);
                let ci = class.index();
                // Breaker gate, clocked by the monotone time envelope.
                clock_s = clock_s.max(t);
                if let Some(b) = breaker.as_mut() {
                    if class != QueryClass::Predict && !b.allow(clock_s) {
                        // Fail fast: the executed result is discarded,
                        // nothing is charged, the refusal is immediate.
                        recorder.record(t - req.arrival_s);
                        class_rec[ci].record(t - req.arrival_s);
                        class_executed[ci] += 1;
                        failed += 1;
                        class_failed[ci] += 1;
                        continue;
                    }
                }
                t += res.service_s(&cfg.disk);
                recorder.record(t - req.arrival_s);
                class_rec[ci].record(t - req.arrival_s);
                io += res.io;
                class_executed[ci] += 1;
                if !res.ok {
                    failed += 1;
                    class_failed[ci] += 1;
                }
                if let Some(b) = breaker.as_mut() {
                    if class != QueryClass::Predict {
                        clock_s = clock_s.max(t);
                        if res.ok {
                            b.on_success(clock_s);
                        } else {
                            b.on_failure(clock_s);
                        }
                    }
                }
            }
            free_at[slot] = t;
            makespan_s = makespan_s.max(t);
        }

        let by_class: [ClassStats; QueryClass::COUNT] = std::array::from_fn(|i| ClassStats {
            class: QueryClass::ALL[i],
            executed: class_executed[i],
            shed: class_shed[i],
            failed: class_failed[i],
            summary: class_rec[i].summary(),
            digest: class_rec[i].digest(),
        });
        let total = requests.len() as u64;
        let shed: u64 = class_shed.iter().sum();
        Ok(ServeReport {
            total,
            executed: class_executed.iter().sum(),
            shed,
            failed,
            summary: recorder.summary(),
            digest: recorder.digest(),
            samples: recorder.samples().to_vec(),
            io,
            backoff_s: io.backoff as f64 * cfg.disk.t_seek_s,
            makespan_s,
            shed_fraction: if total == 0 {
                0.0
            } else {
                shed as f64 / total as f64
            },
            by_class,
            breaker: breaker.map(|b| BreakerSummary {
                trips: b.trips(),
                fast_fails: b.fast_fails(),
                state: b.state(),
                digest: b.transitions_digest(),
            }),
            isa: hdidx_core::simd::active().name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{ArrivalModel, LoadGen};
    use crate::overload::LanePolicy;
    use crate::request::MixSpec;
    use hdidx_diskio::BreakerConfig;
    use hdidx_rand::{seeded, Rng};

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
    }

    fn fixture() -> (Dataset, Topology) {
        let data = random_dataset(2000, 4, 61);
        let topo = Topology::from_capacities(4, 2000, 10, 5).unwrap();
        (data, topo)
    }

    fn stream(data: &Dataset, seed: u64) -> Vec<Request> {
        let candidates: Vec<hdidx_model::QueryBall> = (0..16)
            .map(|i| hdidx_model::QueryBall::new(data.point(i * 100).to_vec(), 0.3))
            .collect();
        LoadGen {
            rate_per_s: 400.0,
            duration_s: 0.5,
            model: ArrivalModel::Bursty,
            seed,
        }
        .requests(&candidates, &MixSpec::default(), 5)
        .unwrap()
    }

    #[test]
    fn serves_a_stream_and_reports_latencies() {
        let (data, topo) = fixture();
        let server = Server::build(&data, &topo, 400, 7, None).unwrap();
        let reqs = stream(&data, 7);
        let report = server
            .run(&reqs, &ServeConfig::new(), &Pool::serial())
            .unwrap();
        assert_eq!(report.total, reqs.len() as u64);
        assert_eq!(report.executed, report.total);
        assert_eq!(report.shed, 0);
        assert_eq!(report.failed, 0);
        assert_eq!(report.samples.len(), reqs.len());
        let s = report.summary.unwrap();
        assert!(s.p50_s >= 0.0 && s.p50_s <= s.p95_s && s.p95_s <= s.p99_s);
        assert!(s.max_s <= report.makespan_s + 1e-12);
        // All latencies non-negative; disk-backed queries charge I/O.
        assert!(report.samples.iter().all(|&l| l >= 0.0));
        assert!(report.io.seeks > 0);
        assert_eq!(report.backoff_s, 0.0);
        // The zero-policy run reports the overload observables as absent.
        assert_eq!(report.breaker, None);
        // Per-class accounting partitions the run exactly.
        let exec: u64 = report.by_class.iter().map(|c| c.executed).sum();
        assert_eq!(exec, report.executed);
        for c in &report.by_class {
            assert!(c.executed > 0, "default mix exercises every class");
            assert_eq!(c.shed, 0);
            assert_eq!(c.summary.unwrap().count as u64, c.executed);
        }
    }

    #[test]
    fn more_slots_cannot_increase_latency() {
        let (data, topo) = fixture();
        let server = Server::build(&data, &topo, 400, 7, None).unwrap();
        let reqs = stream(&data, 8);
        let pool = Pool::serial();
        let narrow = server
            .run(
                &reqs,
                &ServeConfig {
                    concurrency: 1,
                    ..ServeConfig::new()
                },
                &pool,
            )
            .unwrap();
        let wide = server
            .run(
                &reqs,
                &ServeConfig {
                    concurrency: 8,
                    ..ServeConfig::new()
                },
                &pool,
            )
            .unwrap();
        let (n, w) = (narrow.summary.unwrap(), wide.summary.unwrap());
        assert!(w.p99_s <= n.p99_s + 1e-12, "wide {w:?} vs narrow {n:?}");
        assert!(w.mean_s <= n.mean_s + 1e-12);
        // Same work, same I/O — only queueing changes.
        assert_eq!(narrow.io, wide.io);
    }

    #[test]
    fn faulted_serving_shelters_determinism_and_sheds() {
        let (data, topo) = fixture();
        let fcfg = FaultConfig::disabled(3)
            .with_rate_ppm(300_000)
            .unwrap()
            .with_retry(hdidx_faults::RetryPolicy::Exponential)
            .with_phase_scale(FaultPhase::Build, 0);
        let server = Server::build(&data, &topo, 400, 7, Some(fcfg)).unwrap();
        let reqs = stream(&data, 9);
        // One lane budget for every class: charged backoff inflates the
        // shadow service times, so the fault storm sheds through the lanes.
        let mut overload = OverloadPolicy::none();
        overload.lanes = Some(LanePolicy::parse("2").unwrap());
        let cfg = ServeConfig {
            overload,
            ..ServeConfig::new()
        };
        let pool = Pool::serial();
        let a = server.run(&reqs, &cfg, &pool).unwrap();
        let b = server.run(&reqs, &cfg, &pool).unwrap();
        assert_eq!(a, b, "faulted serving must be reproducible");
        assert!(a.io.retries > 0, "fault rate must trigger retries");
        assert!(a.backoff_s > 0.0);
        assert!(
            a.shed > 0,
            "a 2 s lane budget must shed under this fault rate"
        );
        assert!(a.shed_fraction > 0.0);
        assert_eq!(a.executed + a.shed, a.total);
        // Shed requests record no latency.
        assert_eq!(a.samples.len() as u64, a.executed);
        // Per-class sheds sum to the total.
        let shed: u64 = a.by_class.iter().map(|c| c.shed).sum();
        assert_eq!(shed, a.shed);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let (data, topo) = fixture();
        let server = Server::build(&data, &topo, 400, 7, None).unwrap();
        let reqs = stream(&data, 7);
        let pool = Pool::serial();
        let bad = |cfg: ServeConfig| server.run(&reqs, &cfg, &pool).is_err();
        assert!(bad(ServeConfig {
            concurrency: 0,
            ..ServeConfig::new()
        }));
        assert!(bad(ServeConfig {
            batch: 0,
            ..ServeConfig::new()
        }));
        let mut overload = OverloadPolicy::none();
        overload.lanes = Some(LanePolicy {
            budget_s: [1.0; QueryClass::COUNT],
            window: 0,
        });
        assert!(bad(ServeConfig {
            overload,
            ..ServeConfig::new()
        }));
    }

    #[test]
    fn closed_lane_equals_never_offering_that_class() {
        let (data, topo) = fixture();
        let server = Server::build(&data, &topo, 400, 7, None).unwrap();
        let reqs = stream(&data, 7);
        let pool = Pool::serial();
        // Close knn+predict lanes; range is protected.
        let mut overload = OverloadPolicy::none();
        overload.lanes = Some(LanePolicy::parse("knn:0,predict:0").unwrap());
        let cfg = ServeConfig {
            overload,
            ..ServeConfig::new()
        };
        let gated = server.run(&reqs, &cfg, &pool).unwrap();
        // The same stream with the shed classes physically removed.
        let only_range: Vec<Request> = reqs
            .iter()
            .filter(|r| QueryClass::of(&r.query) == QueryClass::Range)
            .cloned()
            .collect();
        let alone = server.run(&only_range, &ServeConfig::new(), &pool).unwrap();
        let r = QueryClass::Range.index();
        assert_eq!(
            gated.by_class[r].digest, alone.by_class[r].digest,
            "protected class must not see the shed load at all"
        );
        assert_eq!(gated.by_class[r].executed, alone.by_class[r].executed);
        assert_eq!(gated.executed, alone.executed);
        assert_eq!(
            gated.shed,
            reqs.len() as u64 - only_range.len() as u64,
            "everything non-range sheds"
        );
    }

    #[test]
    fn breaker_fast_fails_under_fault_storm_and_reports() {
        let (data, topo) = fixture();
        let fcfg = FaultConfig::disabled(3)
            .with_rate_ppm(900_000)
            .unwrap()
            .with_retry(hdidx_faults::RetryPolicy::Exponential)
            .with_phase_scale(FaultPhase::Build, 0);
        let server = Server::build(&data, &topo, 400, 7, Some(fcfg)).unwrap();
        let reqs = stream(&data, 9);
        let pool = Pool::serial();
        let mut overload = OverloadPolicy::none();
        overload.breaker = Some(BreakerConfig {
            failure_threshold: 2,
            window_s: 10.0,
            open_s: 0.2,
            probes: 1,
        });
        let cfg = ServeConfig {
            overload,
            ..ServeConfig::new()
        };
        let a = server.run(&reqs, &cfg, &pool).unwrap();
        let b = server.run(&reqs, &cfg, &pool).unwrap();
        assert_eq!(a, b, "breaker trajectory must replay");
        let brk = a.breaker.expect("breaker summary present");
        assert!(brk.trips >= 1, "the storm must trip the breaker: {brk:?}");
        assert!(brk.fast_fails >= 1);
        // Fast-failed requests count as failed; the run charges less I/O
        // than the breaker-less run burning full retry ladders everywhere.
        let off = server
            .run(
                &reqs,
                &ServeConfig {
                    overload: OverloadPolicy::none(),
                    ..cfg
                },
                &pool,
            )
            .unwrap();
        assert!(
            a.backoff_s < off.backoff_s,
            "{} vs {}",
            a.backoff_s,
            off.backoff_s
        );
        // Predictions never route through the breaker.
        let p = QueryClass::Predict.index();
        assert_eq!(a.by_class[p].failed, 0);
    }
}
