//! The serving engine: a built index executing typed request batches on
//! simulated time.
//!
//! # Request path
//!
//! A [`Server`] owns the bulk-loaded index (leaf boxes flattened into a
//! [`LeafSoup`] for the blocked counting kernels) plus the grown upper
//! tree of the paper's sampled cost predictor. A k-NN request finds its
//! radius through that index, or through the linear scan when the index
//! cannot prune ([`crate::knn`]). Requests arrive in batches;
//! each admitted batch fans out over the [`Pool`] with per-query panic
//! isolation ([`Pool::par_map_isolated`]), then a single-threaded
//! accounting pass advances simulated time. Nothing about latency or fault
//! injection depends on which OS thread ran a query, so the whole run is
//! byte-identical at any `HDIDX_THREADS`.
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
//! The [`OverloadPolicy`] layers four deterministic mechanisms on top,
//! every one off by default ([`OverloadPolicy::none`] runs byte-identical
//! to a server that predates the subsystem):
//!
//! * **Deadlines** cap a query's charged *service* cost per class. A cut
//!   range/k-NN query keeps what it already read charged; a cut predict
//!   switches to the *priced* sample scan and answers from cutoff
//!   extrapolation over the prefix it covered (degraded, never failed).
//! * **Lanes** shed per class on a feed-forward pressure signal: a shadow
//!   pass of the slot algebra over the *offered* stream prices every
//!   request's queue delay, and a class whose sliding-window mean exceeds
//!   its budget sheds. Decisions never depend on earlier sheds, so they
//!   are thread-invariant and monotone in the budget.
//! * **Breaker**: a [`CircuitBreaker`] clocked by the monotone envelope
//!   of slot times gates the disk-backed classes; while open they fail
//!   fast (charging nothing), while predictions keep serving from memory.
//! * **Hedged replays**: a faulted replay straggling past the hedge delay
//!   re-issues against a derived fault stream; both attempts stay
//!   charged, the earlier completion wins.
//!
//! [`Maintenance`] rides in the same loop: idle gaps in the slot algebra
//! run incremental scrub slices, whose findings drive the
//! Healthy → Degraded → ReadOnly health machine gating admission.

use crate::admission::{AdmissionControl, LaneState};
use crate::knn::knn_radius_with;
use crate::latency::{LatencyRecorder, LatencySummary};
use crate::maintain::{HealthState, Maintenance, MaintenanceReport};
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
use hdidx_model::DegradedReport;
use hdidx_pool::Pool;
use hdidx_store::ScrubReport;
use hdidx_vamsplit::topology::Topology;
use hdidx_vamsplit::tree::RTree;

/// Stream offset separating a hedged replay's fault stream from every
/// primary stream (request ids are dense from 0, far below this).
const HEDGE_STREAM_OFFSET: u64 = 1 << 32;

/// Entries per page of the priced predict sample scan (matches the soup
/// kernels' block size).
const PREDICT_SCAN_BLOCK: u64 = 64;

/// Per-run serving knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Number of parallel service slots in the simulated server.
    pub concurrency: usize,
    /// Requests dispatched per batch.
    pub batch: usize,
    /// Admission backoff budget in simulated seconds
    /// (`f64::INFINITY` disables shedding).
    pub admission_budget_s: f64,
    /// Sliding-window length of the backoff-budget admission controller.
    pub admission_window: usize,
    /// Overload-control policy (defaults to [`OverloadPolicy::none`]).
    pub overload: OverloadPolicy,
    /// Disk cost model that converts I/O counts into seconds.
    pub disk: DiskModel,
}

impl ServeConfig {
    /// Default knobs: 4 slots, batches of 8, shedding disabled, no
    /// overload policy, the paper's disk.
    #[must_use]
    pub fn new() -> ServeConfig {
        ServeConfig {
            concurrency: 4,
            batch: 8,
            admission_budget_s: f64::INFINITY,
            admission_window: AdmissionControl::DEFAULT_WINDOW,
            overload: OverloadPolicy::none(),
            disk: DiskModel::PAPER,
        }
    }

    /// Checks the knobs: at least one slot, at least one request per
    /// batch, a positive admission budget, a non-empty admission window,
    /// and a valid overload policy.
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
        if self.admission_budget_s.is_nan() || self.admission_budget_s <= 0.0 {
            return Err(Error::invalid(
                "admission-budget",
                format!(
                    "must be positive (or infinite to disable), got {}",
                    self.admission_budget_s
                ),
            ));
        }
        if self.admission_window == 0 {
            return Err(Error::invalid(
                "admission-window",
                "window must be at least 1 charge",
            ));
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
    /// Leaf pages the query read (or, for a degraded predict, estimated).
    leaf_accesses: u64,
    /// I/O charged, including fault retries, backoff and hedged attempts.
    io: IoStats,
    /// Simulated seconds the request occupies its slot. Equals
    /// `disk.cost_seconds(io)` except for hedged replays, where the
    /// earlier completion wins but both attempts' I/O stays charged.
    service_s: f64,
    /// False when the query failed (exhausted retries or panicked).
    ok: bool,
    /// True when a deadline cut the query short.
    cut: bool,
    /// True when a predict answered from cutoff extrapolation.
    degraded: bool,
    /// Fraction of the predict sample scanned (1.0 when not degraded).
    coverage: f64,
    /// True when a hedged replay was issued; `hedge_won` when the hedge's
    /// completion was adopted.
    hedged: bool,
    hedge_won: bool,
    /// True for classes that touch the page store (range, k-NN).
    disk_backed: bool,
}

impl ExecResult {
    fn failed() -> ExecResult {
        ExecResult {
            leaf_accesses: 0,
            io: IoStats::default(),
            service_s: 0.0,
            ok: false,
            cut: false,
            degraded: false,
            coverage: 1.0,
            hedged: false,
            hedge_won: false,
            disk_backed: false,
        }
    }
}

/// Per-class slice of a serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassStats {
    /// The class the row describes.
    pub class: QueryClass,
    /// Requests of this class admitted and executed.
    pub executed: u64,
    /// Requests of this class shed (lanes, batch admission, or health).
    pub shed: u64,
    /// Executed requests of this class that failed.
    pub failed: u64,
    /// Executed requests cut short by their deadline.
    pub deadline_cut: u64,
    /// Executed requests answered from a degraded fallback.
    pub degraded: u64,
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
    /// Requests shed (admission budget, lanes, or read-only health).
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
    /// Executed requests cut short by a deadline.
    pub deadline_cut: u64,
    /// Hedged replays issued / adopted.
    pub hedged: u64,
    /// Hedged replays whose completion won.
    pub hedge_wins: u64,
    /// Degradation summary over predict queries: fallback count plus mean
    /// scan coverage (the PR 3 graceful-degradation shape).
    pub degraded: DegradedReport,
    /// Breaker observables (`None` when no breaker was configured).
    pub breaker: Option<BreakerSummary>,
    /// Store health at the end of the run (`None` without maintenance).
    pub health: Option<HealthState>,
    /// Idle-slot maintenance accounting (`None` without maintenance).
    pub maintenance: Option<MaintenanceReport>,
    /// Geometry-kernel ISA the run dispatched to
    /// ([`hdidx_core::simd::active`]). Observability only: every ISA
    /// produces byte-identical samples and digests.
    pub isa: &'static str,
}

/// A query server over a built index.
///
/// Holds the dataset by reference, the bulk-loaded tree, the SoA leaf soup
/// the range/k-NN path counts against, and the grown upper-tree soup the
/// predict path counts against.
#[derive(Debug, Clone)]
pub struct Server<'a> {
    data: &'a Dataset,
    tree: RTree,
    leaf_soup: LeafSoup,
    predict_soup: LeafSoup,
    build_io: IoStats,
    faults: Option<FaultConfig>,
    height: usize,
}

impl<'a> Server<'a> {
    /// Builds the on-disk index under the external-memory builder (with
    /// `m` points of working memory), flattens its leaves, and builds the
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
        let leaf_soup = LeafSoup::from_rects(topo.dim(), &built.tree.leaf_rects())?;
        let h_upper = recommended_h_upper(topo, m)?;
        let up = build_upper_phase(data, topo, m, h_upper, seed)?;
        let predict_soup = up.grown_soup()?;
        let height = built.tree.height();
        Ok(Server {
            data,
            tree: built.tree,
            leaf_soup,
            predict_soup,
            build_io: built.io,
            faults,
            height,
        })
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
    /// Propagates soup and upper-phase errors (shape mismatches,
    /// infeasible `m`); refuses a scrub report with quarantined pages.
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
        let leaf_soup = LeafSoup::from_rects(topo.dim(), &tree.leaf_rects())?;
        let h_upper = recommended_h_upper(topo, m)?;
        let up = build_upper_phase(data, topo, m, h_upper, seed)?;
        let predict_soup = up.grown_soup()?;
        let height = tree.height();
        Ok(Server {
            data,
            tree,
            leaf_soup,
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
            &self.leaf_soup,
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
    /// retry accounting applies unchanged. The replay stops early when the
    /// accumulated charged cost crosses `deadline_s` (the crossing access
    /// stays charged) or when an access exhausts its retries (the seeks
    /// and backoff already burned stay charged).
    ///
    /// Returns the charged stats, completed-access count, success flag,
    /// and whether the deadline cut the replay.
    fn replay(
        &self,
        fcfg: &FaultConfig,
        stream: u64,
        pages: u64,
        deadline_s: f64,
        disk_model: &DiskModel,
    ) -> (IoStats, u64, bool, bool) {
        let mut disk = Disk::with_options(
            &DiskOptions::new()
                .fault_plan(Some(*fcfg))
                .phase(FaultPhase::Query)
                .derived(stream),
        );
        let file = match disk.alloc(4) {
            Ok(f) => f,
            Err(_) => return (IoStats::default(), 0, false, false),
        };
        let mut flip = 0u64;
        let mut done = 0u64;
        let mut ok = true;
        let mut cut = false;
        for _ in 0..pages {
            if disk.access(&file, flip, 1).is_err() {
                ok = false;
                break;
            }
            flip = 2 - flip;
            done += 1;
            if deadline_s.is_finite() && disk_model.cost_seconds(disk.stats()) > deadline_s {
                cut = done < pages;
                break;
            }
        }
        (disk.stats(), done, ok, cut)
    }

    /// Executes a disk-backed query of `pages` random accesses under the
    /// class deadline and (on the faulted path) the hedge policy.
    fn run_disk_query(
        &self,
        req: &Request,
        cfg: &ServeConfig,
        leaf_accesses: u64,
        deadline_s: f64,
    ) -> ExecResult {
        let pages = leaf_accesses + (self.height.saturating_sub(1)) as u64;
        let Some(fcfg) = self.faults else {
            // Clean path: every access costs exactly one seek + transfer,
            // so the deadline translates to a whole-page allowance.
            let per_page = cfg.disk.t_seek_s + cfg.disk.t_xfer_s();
            let allowed = if deadline_s.is_finite() {
                ((deadline_s / per_page).floor() as u64).min(pages)
            } else {
                pages
            };
            let io = IoStats::random(allowed);
            return ExecResult {
                leaf_accesses,
                io,
                service_s: cfg.disk.cost_seconds(io),
                ok: true,
                cut: allowed < pages,
                degraded: false,
                coverage: 1.0,
                hedged: false,
                hedge_won: false,
                disk_backed: true,
            };
        };
        let (pio, _, pok, pcut) = self.replay(&fcfg, req.id, pages, deadline_s, &cfg.disk);
        let primary_s = cfg.disk.cost_seconds(pio);
        let hedge_s = cfg.overload.hedge_s;
        if hedge_s.is_infinite() || (pok && primary_s <= hedge_s) {
            return ExecResult {
                leaf_accesses,
                io: pio,
                service_s: primary_s,
                ok: pok,
                cut: pcut,
                degraded: false,
                coverage: 1.0,
                hedged: false,
                hedge_won: false,
                disk_backed: true,
            };
        }
        // The primary straggled past the hedge delay (or failed): re-issue
        // against a derived stream — the snapshot generation's replica.
        // Both attempts stay charged; the earlier completion wins.
        let sec_deadline = if deadline_s.is_finite() {
            (deadline_s - hedge_s).max(0.0)
        } else {
            deadline_s
        };
        let (sio, _, sok, scut) = self.replay(
            &fcfg,
            req.id + HEDGE_STREAM_OFFSET,
            pages,
            sec_deadline,
            &cfg.disk,
        );
        let sec_total = hedge_s + cfg.disk.cost_seconds(sio);
        let mut io = pio;
        io += sio;
        if pok && (primary_s <= sec_total || !sok) {
            ExecResult {
                leaf_accesses,
                io,
                service_s: primary_s,
                ok: true,
                cut: pcut,
                degraded: false,
                coverage: 1.0,
                hedged: true,
                hedge_won: false,
                disk_backed: true,
            }
        } else if sok {
            ExecResult {
                leaf_accesses,
                io,
                service_s: sec_total,
                ok: true,
                cut: scut,
                degraded: false,
                coverage: 1.0,
                hedged: true,
                hedge_won: true,
                disk_backed: true,
            }
        } else {
            ExecResult {
                leaf_accesses,
                io,
                service_s: primary_s.max(sec_total),
                ok: false,
                cut: pcut || scut,
                degraded: false,
                coverage: 1.0,
                hedged: true,
                hedge_won: false,
                disk_backed: true,
            }
        }
    }

    /// Executes a predict under a **finite** deadline: the *priced* mode.
    ///
    /// Instead of the free in-memory count, the prediction charges the
    /// sample-scan reads it models — `ceil(len / 64)` pages over the grown
    /// upper soup. When the deadline (or a fault) cuts the scan, the
    /// prefix actually covered is counted exactly and scaled by the
    /// uncovered fraction — the same cutoff extrapolation PR 3's
    /// degradation fallback uses — and the answer is degraded, never
    /// failed: predictions are what keeps serving when the store cannot.
    fn run_priced_predict(
        &self,
        req: &Request,
        cfg: &ServeConfig,
        center: &[f32],
        r2: f64,
        deadline_s: f64,
    ) -> ExecResult {
        let len = self.predict_soup.len() as u64;
        let total_pages = len.div_ceil(PREDICT_SCAN_BLOCK);
        let (io, done, cut) = match self.faults {
            None => {
                let per_page = cfg.disk.t_seek_s + cfg.disk.t_xfer_s();
                let allowed = ((deadline_s / per_page).floor() as u64).min(total_pages);
                (IoStats::random(allowed), allowed, allowed < total_pages)
            }
            Some(fcfg) => {
                // A failed access is a cutoff too: the prediction answers
                // from whatever prefix it covered.
                let (io, done, ok, cut) =
                    self.replay(&fcfg, req.id, total_pages, deadline_s, &cfg.disk);
                (io, done, cut || !ok)
            }
        };
        let (estimate, coverage, degraded) = if cut {
            let scanned = (done * PREDICT_SCAN_BLOCK).min(len);
            let prefix = self
                .predict_soup
                .count_intersecting_prefix(center, r2, scanned as usize);
            let estimate = if scanned == 0 {
                0
            } else {
                (prefix as f64 * len as f64 / scanned as f64).round() as u64
            };
            let coverage = if len == 0 {
                1.0
            } else {
                scanned as f64 / len as f64
            };
            (estimate, coverage, true)
        } else {
            (self.predict_soup.count_intersecting(center, r2), 1.0, false)
        };
        ExecResult {
            leaf_accesses: estimate,
            io,
            service_s: cfg.disk.cost_seconds(io),
            ok: true,
            cut,
            degraded,
            coverage,
            hedged: false,
            hedge_won: false,
            disk_backed: false,
        }
    }

    /// Executes one request: resolves its leaf-access count through the
    /// counting kernels, then charges the page accesses (directory descent
    /// plus leaves, all random I/O) — through a per-request fault plan when
    /// faults are configured, under the class deadline and hedge policy
    /// when one is set.
    fn execute(&self, req: &Request, cfg: &ServeConfig) -> ExecResult {
        let deadline_s = cfg.overload.deadlines.get(QueryClass::of(&req.query));
        match &req.query {
            Query::Range { center, radius } => {
                let leaves = self.leaf_soup.count_intersecting(center, radius * radius);
                self.run_disk_query(req, cfg, leaves, deadline_s)
            }
            Query::Knn { center, k } => match self.knn_radius(center, *k) {
                Ok(r) => {
                    let leaves = self.leaf_soup.count_intersecting(center, r * r);
                    self.run_disk_query(req, cfg, leaves, deadline_s)
                }
                Err(_) => ExecResult::failed(),
            },
            Query::Predict { center, radius } => {
                let r2 = radius * radius;
                if deadline_s.is_finite() {
                    self.run_priced_predict(req, cfg, center, r2, deadline_s)
                } else {
                    // The paper's sampled estimate is entirely in-memory:
                    // count against the grown upper leaves, charge no I/O.
                    ExecResult {
                        leaf_accesses: self.predict_soup.count_intersecting(center, r2),
                        io: IoStats::default(),
                        service_s: 0.0,
                        ok: true,
                        cut: false,
                        degraded: false,
                        coverage: 1.0,
                        hedged: false,
                        hedge_won: false,
                        disk_backed: false,
                    }
                }
            }
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
                t += results[base + j].service_s;
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
    /// Propagates [`ServeConfig::validate`].
    pub fn run(&self, requests: &[Request], cfg: &ServeConfig, pool: &Pool) -> Result<ServeReport> {
        self.run_with_maintenance(requests, cfg, pool, None)
    }

    /// [`Server::run`] with an idle-slot [`Maintenance`] scheduler: idle
    /// gaps in the slot algebra run scrub slices, and the resulting
    /// [`HealthState`] gates admission — Degraded halves the backoff
    /// budget, ReadOnly refuses the disk-backed classes while predictions
    /// keep serving from memory.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeConfig::validate`], lane/breaker construction,
    /// and maintenance I/O errors.
    pub fn run_with_maintenance(
        &self,
        requests: &[Request],
        cfg: &ServeConfig,
        pool: &Pool,
        mut maint: Option<&mut Maintenance>,
    ) -> Result<ServeReport> {
        cfg.validate()?;
        let mut admission =
            AdmissionControl::with_window(cfg.admission_budget_s, cfg.admission_window)?;
        let mut breaker = match cfg.overload.breaker {
            Some(bcfg) => Some(CircuitBreaker::new(bcfg)?),
            None => None,
        };

        // Lane admission runs before batching, on the shadow-priced offered
        // stream; the admitted sub-stream is then re-chunked into batches.
        // With lanes off, the admitted stream IS the offered stream and no
        // shadow pass runs (the zero-overload path stays byte-identical).
        let mut class_shed = [0u64; QueryClass::COUNT];
        let (admitted_idx, precomputed) = if let Some(policy) = cfg.overload.lanes {
            let results: Vec<ExecResult> = pool
                .par_map_isolated(requests, |r| self.execute(r, cfg))
                .into_iter()
                .map(|r| r.unwrap_or_else(|_| ExecResult::failed()))
                .collect();
            let delays = self.shadow_delays(requests, &results, cfg);
            let mut lanes = LaneState::new(policy)?;
            let mut idx = Vec::with_capacity(requests.len());
            for (i, req) in requests.iter().enumerate() {
                if lanes.admit(QueryClass::of(&req.query), delays[i]) {
                    idx.push(i);
                }
            }
            class_shed = lanes.shed_by_class();
            (idx, Some(results))
        } else {
            ((0..requests.len()).collect::<Vec<_>>(), None)
        };
        let lane_shed: u64 = class_shed.iter().sum();

        let mut recorder = LatencyRecorder::new();
        let mut class_rec: [LatencyRecorder; QueryClass::COUNT] = Default::default();
        let mut class_executed = [0u64; QueryClass::COUNT];
        let mut class_failed = [0u64; QueryClass::COUNT];
        let mut class_cut = [0u64; QueryClass::COUNT];
        let mut class_degraded = [0u64; QueryClass::COUNT];
        let mut free_at = vec![0.0f64; cfg.concurrency];
        let mut io = IoStats::default();
        let mut failed = 0u64;
        let mut deadline_cut = 0u64;
        let mut hedged = 0u64;
        let mut hedge_wins = 0u64;
        let mut degraded_count = 0u64;
        let mut coverage_sum = 0.0f64;
        let mut predict_executed = 0u64;
        let mut health_refused = 0u64;
        let mut makespan_s = 0.0f64;
        // The breaker clock: a monotone envelope of the slot times the
        // sequential accounting pass touches. Monotone because breaker
        // state must never move backwards in time even though slots do.
        let mut clock_s = 0.0f64;

        for batch in admitted_idx.chunks(cfg.batch) {
            // Health gates admission: a degraded store halves the backoff
            // budget for subsequent batches.
            if let Some(m) = maint.as_deref() {
                admission.set_budget_scale(match m.health() {
                    HealthState::Degraded => 0.5,
                    _ => 1.0,
                });
            }
            // The admission decision precedes execution and depends only
            // on the window state left by earlier batches — deterministic
            // because batches are accounted in arrival order.
            if !admission.admit_batch(batch.len()) {
                for &i in batch {
                    class_shed[QueryClass::of(&requests[i].query).index()] += 1;
                }
                continue;
            }
            let results: Vec<ExecResult> = match &precomputed {
                Some(all) => batch.iter().map(|&i| all[i]).collect(),
                // Without lanes the admitted indices are contiguous, so the
                // batch is a subslice of the offered stream.
                None => {
                    let reqs = &requests[batch[0]..batch[0] + batch.len()];
                    pool.par_map_isolated(reqs, |req| self.execute(req, cfg))
                        .into_iter()
                        .map(|r| r.unwrap_or_else(|_| ExecResult::failed()))
                        .collect()
                }
            };
            // Single-threaded time accounting: dispatch the batch to the
            // earliest-free slot (lowest index on ties) once its last
            // request has arrived.
            let ready = batch.last().map_or(0.0, |&i| requests[i].arrival_s);
            let slot = (0..free_at.len())
                .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
                .unwrap_or(0);
            let dispatch = free_at[slot].max(ready);
            // Idle gap on the slot: spend it on scrub slices. Maintenance
            // consumes the gap, never delays the dispatch.
            if let Some(m) = maint.as_deref_mut() {
                let idle = dispatch - free_at[slot];
                if idle > 0.0 {
                    m.run_idle(idle, &cfg.disk)?;
                }
            }
            let health = maint.as_deref().map(Maintenance::health);
            let mut t = dispatch;
            for (&i, res) in batch.iter().zip(results) {
                let req = &requests[i];
                let class = QueryClass::of(&req.query);
                let ci = class.index();
                // A read-only store refuses the disk-backed classes;
                // predictions keep serving from memory.
                if health == Some(HealthState::ReadOnly) && class != QueryClass::Predict {
                    health_refused += 1;
                    class_shed[ci] += 1;
                    continue;
                }
                // Breaker gate, clocked by the monotone time envelope.
                clock_s = clock_s.max(t);
                if let Some(b) = breaker.as_mut() {
                    if class != QueryClass::Predict && !b.allow(clock_s) {
                        // Fail fast: the precomputed result is discarded,
                        // nothing is charged, the refusal is immediate.
                        recorder.record(t - req.arrival_s);
                        class_rec[ci].record(t - req.arrival_s);
                        class_executed[ci] += 1;
                        failed += 1;
                        class_failed[ci] += 1;
                        admission.observe(0.0);
                        continue;
                    }
                }
                t += res.service_s;
                recorder.record(t - req.arrival_s);
                class_rec[ci].record(t - req.arrival_s);
                admission.observe(res.io.backoff as f64 * cfg.disk.t_seek_s);
                io += res.io;
                class_executed[ci] += 1;
                if !res.ok {
                    failed += 1;
                    class_failed[ci] += 1;
                }
                if res.cut {
                    deadline_cut += 1;
                    class_cut[ci] += 1;
                }
                if res.degraded {
                    degraded_count += 1;
                    class_degraded[ci] += 1;
                }
                if class == QueryClass::Predict {
                    predict_executed += 1;
                    coverage_sum += res.coverage;
                }
                if res.hedged {
                    hedged += 1;
                    if res.hedge_won {
                        hedge_wins += 1;
                    }
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
            deadline_cut: class_cut[i],
            degraded: class_degraded[i],
            summary: class_rec[i].summary(),
            digest: class_rec[i].digest(),
        });
        Ok(ServeReport {
            total: requests.len() as u64,
            executed: admission.admitted() - health_refused,
            shed: admission.shed() + lane_shed + health_refused,
            failed,
            summary: recorder.summary(),
            digest: recorder.digest(),
            samples: recorder.samples().to_vec(),
            io,
            backoff_s: io.backoff as f64 * cfg.disk.t_seek_s,
            makespan_s,
            shed_fraction: {
                let total = requests.len() as u64;
                if total == 0 {
                    0.0
                } else {
                    (admission.shed() + lane_shed + health_refused) as f64 / total as f64
                }
            },
            by_class,
            deadline_cut,
            hedged,
            hedge_wins,
            degraded: DegradedReport {
                leaves_degraded: degraded_count as usize,
                coverage_fraction: if predict_executed == 0 {
                    1.0
                } else {
                    coverage_sum / predict_executed as f64
                },
            },
            breaker: breaker.map(|b| BreakerSummary {
                trips: b.trips(),
                fast_fails: b.fast_fails(),
                state: b.state(),
                digest: b.transitions_digest(),
            }),
            health: maint.as_deref().map(Maintenance::health),
            maintenance: maint.as_deref().map(Maintenance::report),
            isa: hdidx_core::simd::active().name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{ArrivalModel, LoadGen};
    use crate::maintain::{CleanSource, ScrubSource, SliceOutcome};
    use crate::overload::{Deadlines, LanePolicy};
    use crate::request::MixSpec;
    use hdidx_core::rng::{seeded, Rng};
    use hdidx_diskio::BreakerConfig;

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
        // The zero-policy run reports the new observables as all-quiet.
        assert_eq!(report.deadline_cut, 0);
        assert_eq!(report.hedged, 0);
        assert_eq!(report.degraded, DegradedReport::default());
        assert_eq!(report.breaker, None);
        assert_eq!(report.health, None);
        assert_eq!(report.maintenance, None);
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
            .with_retry(hdidx_faults::RetryPolicy::Exponential)
            .with_phase_scale(FaultPhase::Build, 0);
        let server = Server::build(&data, &topo, 400, 7, Some(fcfg)).unwrap();
        let reqs = stream(&data, 9);
        let cfg = ServeConfig {
            admission_budget_s: 0.05,
            ..ServeConfig::new()
        };
        let pool = Pool::serial();
        let a = server.run(&reqs, &cfg, &pool).unwrap();
        let b = server.run(&reqs, &cfg, &pool).unwrap();
        assert_eq!(a, b, "faulted serving must be reproducible");
        assert!(a.io.retries > 0, "fault rate must trigger retries");
        assert!(a.backoff_s > 0.0);
        assert!(a.shed > 0, "budget 50 ms must shed under this fault rate");
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
        assert!(bad(ServeConfig {
            admission_budget_s: 0.0,
            ..ServeConfig::new()
        }));
        assert!(bad(ServeConfig {
            admission_budget_s: f64::NAN,
            ..ServeConfig::new()
        }));
        assert!(bad(ServeConfig {
            admission_window: 0,
            ..ServeConfig::new()
        }));
        let mut overload = OverloadPolicy::none();
        overload.hedge_s = -1.0;
        assert!(bad(ServeConfig {
            overload,
            ..ServeConfig::new()
        }));
    }

    #[test]
    fn deadlines_cut_disk_queries_and_degrade_predicts() {
        let (data, topo) = fixture();
        let server = Server::build(&data, &topo, 400, 7, None).unwrap();
        let reqs = stream(&data, 7);
        let pool = Pool::serial();
        let base = server.run(&reqs, &ServeConfig::new(), &pool).unwrap();
        // A deadline of ~3 page costs cuts everything that reads more.
        let per_page = DiskModel::PAPER.t_seek_s + DiskModel::PAPER.t_xfer_s();
        let mut overload = OverloadPolicy::none();
        overload.deadlines = Deadlines::all(3.0 * per_page + 1e-9);
        let cfg = ServeConfig {
            overload,
            ..ServeConfig::new()
        };
        let tight = server.run(&reqs, &cfg, &pool).unwrap();
        assert!(tight.deadline_cut > 0, "tight deadline must cut queries");
        assert_eq!(tight.failed, 0, "cuts are not failures");
        assert!(
            tight.io.transfers < base.io.transfers,
            "cut queries charge less I/O"
        );
        assert!(
            tight.makespan_s < base.makespan_s,
            "bounded service bounds the makespan"
        );
        // Every predict ran priced: it charged I/O and possibly degraded.
        let p = &tight.by_class[QueryClass::Predict.index()];
        assert!(p.executed > 0);
        assert_eq!(
            tight.degraded.leaves_degraded as u64, p.degraded,
            "degradation is a predict-class phenomenon"
        );
        if p.degraded > 0 {
            assert!(tight.degraded.coverage_fraction < 1.0);
        }
        // Identical replay.
        assert_eq!(tight, server.run(&reqs, &cfg, &pool).unwrap());
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

    #[test]
    fn hedged_replays_bound_stragglers_and_charge_both_attempts() {
        let (data, topo) = fixture();
        let fcfg = FaultConfig::disabled(3)
            .with_rate_ppm(400_000)
            .with_retry(hdidx_faults::RetryPolicy::Exponential)
            .with_phase_scale(FaultPhase::Build, 0);
        let server = Server::build(&data, &topo, 400, 7, Some(fcfg)).unwrap();
        let reqs = stream(&data, 9);
        let pool = Pool::serial();
        let base = server.run(&reqs, &ServeConfig::new(), &pool).unwrap();
        let mut overload = OverloadPolicy::none();
        overload.hedge_s = 0.05;
        let cfg = ServeConfig {
            overload,
            ..ServeConfig::new()
        };
        let hedged = server.run(&reqs, &cfg, &pool).unwrap();
        assert!(hedged.hedged > 0, "the storm must trigger hedges");
        assert!(hedged.hedge_wins <= hedged.hedged);
        assert!(
            hedged.io.transfers > base.io.transfers,
            "hedges charge both attempts"
        );
        assert!(
            hedged.failed <= base.failed,
            "a hedge can only rescue failures"
        );
        assert_eq!(hedged, server.run(&reqs, &cfg, &pool).unwrap());
    }

    #[test]
    fn maintenance_scrubs_idle_gaps_and_read_only_refuses_disk_classes() {
        let (data, topo) = fixture();
        let server = Server::build(&data, &topo, 400, 7, None).unwrap();
        let reqs = stream(&data, 7);
        let pool = Pool::serial();
        // A clean source: health stays healthy, slices accumulate.
        let mut maint = Maintenance::new(Box::new(CleanSource { pages: 64 }), 4).unwrap();
        let cfg = ServeConfig::new();
        let report = server
            .run_with_maintenance(&reqs, &cfg, &pool, Some(&mut maint))
            .unwrap();
        assert_eq!(report.health, Some(HealthState::Healthy));
        let m = report.maintenance.unwrap();
        assert!(m.slices > 0, "arrival gaps must leave idle time: {m:?}");
        // The maintained run serves the exact same latency stream: scrub
        // slices consume idle time without delaying any dispatch.
        let plain = server.run(&reqs, &cfg, &pool).unwrap();
        assert_eq!(report.digest, plain.digest);

        // A source that quarantines on its first slice forces read-only:
        // every disk-backed request after that point is refused.
        struct Lossy;
        impl ScrubSource for Lossy {
            fn pages(&mut self) -> Result<u64> {
                Ok(16)
            }
            fn scrub_slice(&mut self, first: u64, _n: u64) -> Result<SliceOutcome> {
                Ok(if first == 0 {
                    SliceOutcome {
                        corrupt: 1,
                        repaired: 0,
                        quarantined: 1,
                    }
                } else {
                    SliceOutcome::default()
                })
            }
        }
        let mut maint = Maintenance::new(Box::new(Lossy), 4).unwrap();
        let ro = server
            .run_with_maintenance(&reqs, &cfg, &pool, Some(&mut maint))
            .unwrap();
        assert_eq!(ro.health, Some(HealthState::ReadOnly));
        assert!(ro.shed > 0, "read-only must refuse disk-backed requests");
        assert_eq!(ro.executed + ro.shed, ro.total);
        let p = QueryClass::Predict.index();
        assert_eq!(
            ro.by_class[p].shed, 0,
            "predictions keep serving from memory"
        );
        assert!(ro.by_class[QueryClass::Range.index()].shed > 0);
    }
}
