//! # hdidx-faults
//!
//! Deterministic, replayable fault injection for the workspace's simulated
//! I/O layer. Real measurement pipelines survive transient device faults
//! and report partial results honestly; the seed repo's simulated disk was
//! an ideal device on which every access succeeded, so none of the
//! external build, the resampled predictor's second-sample reads, or the
//! measurement loop ever exercised a failure path. This crate supplies the
//! failure model they are exercised against.
//!
//! ## The determinism contract
//!
//! Fault decisions extend the workspace's PR 1/2 determinism contract: a
//! [`FaultPlan`] is a **pure function of `(seed, access index, attempt
//! index)`** — SplitMix64 seed derivation, the same scheme
//! `hdidx_pool::derive_seed` uses for per-work-item PRNG streams. Because
//! every consumer charges its simulated I/O from a single thread in a
//! thread-count-independent order, the same seed reproduces the identical
//! fault trace, retry counts, and degraded output for any `HDIDX_THREADS`
//! (pinned by `tests/fault_injection.rs` at 1/2/8 threads).
//!
//! Keying decisions on the *access* index rather than a shared sequential
//! stream has a second payoff: for a fixed seed, raising a fault rate can
//! only turn successful attempts into faults, never the reverse, so
//! degradation is **monotone in the fault rate** — the property the chaos
//! suite pins.
//!
//! ## Fault taxonomy
//!
//! * [`FaultKind::Transient`] — the attempt fails outright; the head
//!   position is lost and a retry pays a fresh seek.
//! * [`FaultKind::Torn`] — a multi-page access completes only a prefix of
//!   its pages before failing; the completed transfers are still charged
//!   and the retry re-reads the whole range.
//! * [`FaultKind::LatencySpike`] — the access succeeds but is charged
//!   extra seek-equivalents (queueing/recalibration latency).
//!
//! Rates are expressed in **parts per million** so the configuration stays
//! `Copy + Eq + Hash`-able and embeddable in the `Copy` parameter structs
//! of the predictors.
//!
//! ## Correlated bursts
//!
//! Real disks fail in correlated regions (a scratched track, a dying
//! head), not only as independent point events. [`BurstConfig`] overlays a
//! seeded **bad-region layout** on the page space: the space is divided
//! into fixed windows and each window hosts at most one bad region whose
//! existence, length and offset are pure functions of `(seed, window)`.
//! An access overlapping a bad region suffers an *additional* per-attempt
//! fault probability, drawn on a stream independent of the point-fault
//! draw so enabling bursts never clears a point fault and monotonicity in
//! the rates survives.
//!
//! ## Retry pacing
//!
//! [`RetryPolicy`] decides how a consumer paces retries: `fixed` retries
//! immediately (charging nothing), `exponential` charges `2^attempt` plus
//! deterministic jitter in seek-equivalents per retry. Pacing only
//! charges time: both policies make the same attempts, so the same
//! accesses fail under either. The backoff is charged into
//! `IoStats::backoff` by the simulated disk and priced at one `t_seek`
//! each by the cost model.
//!
//! ## Phases
//!
//! One user-facing fault seed drives several pipeline phases (external
//! build, measurement queries, predictor-simulated I/O). Instead of ad-hoc
//! seed derivation at every call site, [`FaultConfig::for_phase`] derives
//! a per-[`FaultPhase`] seed and applies the configuration's per-phase
//! percentage scaling, so the phases run decorrelated and can run under
//! different pressure.

use hdidx_rand::splitmix::derive_seed;

/// Scale of the fault rates: one million, i.e. `ppm / PPM_SCALE` is the
/// per-attempt probability.
pub const PPM_SCALE: u32 = 1_000_000;

/// A per-attempt rate in ppm: a rate above certainty is a mistake, not a
/// request to saturate.
fn checked_ppm(ppm: u32) -> std::result::Result<u32, String> {
    if ppm > PPM_SCALE {
        return Err(format!("{ppm} exceeds {PPM_SCALE} (a rate of 100 %)"));
    }
    Ok(ppm)
}

/// Default bound on attempts per access (1 initial + 3 retries).
pub const DEFAULT_MAX_ATTEMPTS: u32 = 4;

/// Derivation stream of the bad-region layout (distinct from every
/// per-attempt stream so the layout is shared by all attempts).
const BURST_LAYOUT_STREAM: u64 = 0xB5;

/// Derivation stream of the per-attempt burst-fault draw (distinct from
/// the point-fault draw so bursts compose monotonically with point rates).
const BURST_DRAW_STREAM: u64 = 5;

/// Derivation stream of the backoff jitter.
const BACKOFF_STREAM: u64 = 6;

/// Base stream of the per-phase seed derivation in
/// [`FaultConfig::for_phase`].
const PHASE_STREAM_BASE: u64 = 0xFA5E;

/// The kind of an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The access attempt failed outright; nothing was transferred.
    Transient,
    /// A multi-page access transferred only a prefix before failing.
    Torn,
    /// The access succeeded but was charged extra latency.
    LatencySpike,
}

impl FaultKind {
    /// Stable lower-case name, used in error messages and traces.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Torn => "torn",
            FaultKind::LatencySpike => "latency-spike",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a consumer paces and bounds retries after failed attempts.
///
/// Backoff is measured in **seek-equivalents**: the simulated disk
/// accumulates it into `IoStats::backoff` and the cost model prices each
/// unit at one `t_seek`, so retry pressure visibly bends the paper's cost
/// curves instead of hiding inside a wall-clock sleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RetryPolicy {
    /// Immediate retries, no backoff charged (the historical behaviour,
    /// and the default — existing pinned traces stay byte-identical).
    #[default]
    Fixed,
    /// Exponential backoff with deterministic jitter: the retry after
    /// attempt `a` charges `2^a + jitter` seek-equivalents with
    /// `jitter ∈ [0, 2^a)` derived from `(seed, access, attempt)`.
    Exponential,
}

impl RetryPolicy {
    /// Parses a policy by name (`fixed` | `exponential`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown names.
    pub fn parse(name: &str) -> std::result::Result<RetryPolicy, String> {
        match name {
            "fixed" => Ok(RetryPolicy::Fixed),
            "exponential" => Ok(RetryPolicy::Exponential),
            other => Err(format!(
                "unknown retry policy '{other}' (expected fixed or exponential)"
            )),
        }
    }

    /// Seek-equivalents charged for the retry following attempt `attempt`
    /// of access `access`. A pure function of `(seed, access, attempt)` —
    /// the same determinism contract as the fault decisions themselves.
    #[must_use]
    pub fn backoff_seeks(&self, seed: u64, access: u64, attempt: u32) -> u64 {
        match self {
            RetryPolicy::Fixed => 0,
            RetryPolicy::Exponential => {
                let base = 1u64 << attempt.min(16);
                let h = derive_seed(derive_seed(seed, access), u64::from(attempt));
                base + derive_seed(h, BACKOFF_STREAM) % base
            }
        }
    }

    /// Stable lower-case name, matching [`RetryPolicy::parse`].
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            RetryPolicy::Fixed => "fixed",
            RetryPolicy::Exponential => "exponential",
        }
    }
}

impl std::fmt::Display for RetryPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Correlated-fault burst model: a deterministic bad-region layout over
/// the page space.
///
/// The page space is divided into fixed windows of `window_pages`; each
/// window independently hosts at most one bad region (probability
/// `region_ppm`) whose length (`1..=max_region_pages`) and offset are
/// derived from the window ordinal, so the layout is a pure function of
/// `(seed, window)` with no state to race on. An access overlapping a bad
/// region suffers an additional `fault_ppm` per-attempt fault probability:
/// torn just before the first bad page when the range permits, transient
/// otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BurstConfig {
    /// Size of the layout windows in pages.
    pub window_pages: u64,
    /// Probability (ppm) that a window hosts a bad region.
    pub region_ppm: u32,
    /// Longest possible bad region in pages (clamped to the window).
    pub max_region_pages: u64,
    /// Per-attempt fault probability (ppm) for accesses overlapping a bad
    /// region, on top of the point rates.
    pub fault_ppm: u32,
}

impl BurstConfig {
    /// Default window size: 256 pages (2 MB at 8 KB pages).
    pub const DEFAULT_WINDOW_PAGES: u64 = 256;
    /// Default bad-window density: 2 % of windows host a region.
    pub const DEFAULT_REGION_PPM: u32 = 20_000;
    /// Default longest region: 32 pages.
    pub const DEFAULT_MAX_REGION_PAGES: u64 = 32;

    /// The default geometry at the given per-attempt fault probability
    /// (what the CLI's `--fault-burst-ppm` installs).
    ///
    /// # Errors
    ///
    /// Rejects a probability above [`PPM_SCALE`] (certainty).
    pub fn with_fault_ppm(fault_ppm: u32) -> std::result::Result<BurstConfig, String> {
        Ok(BurstConfig {
            window_pages: Self::DEFAULT_WINDOW_PAGES,
            region_ppm: Self::DEFAULT_REGION_PPM,
            max_region_pages: Self::DEFAULT_MAX_REGION_PAGES,
            fault_ppm: checked_ppm(fault_ppm)?,
        })
    }

    /// Whether this model can ever fire.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.fault_ppm == 0 || self.region_ppm == 0 || self.window_pages == 0
    }

    /// The bad region hosted by window `window` under `seed`, as an
    /// absolute `(first_page, n_pages)` range. A pure function of
    /// `(seed, window)`; the region never crosses the window boundary.
    #[must_use]
    pub fn region_in_window(&self, seed: u64, window: u64) -> Option<(u64, u64)> {
        if self.region_ppm == 0 || self.window_pages == 0 {
            return None;
        }
        let h = derive_seed(derive_seed(seed, BURST_LAYOUT_STREAM), window);
        if (h % u64::from(PPM_SCALE)) as u32 >= self.region_ppm {
            return None;
        }
        let max_len = self.max_region_pages.clamp(1, self.window_pages);
        let len = 1 + derive_seed(h, 1) % max_len;
        let offset = derive_seed(h, 2) % (self.window_pages - len + 1);
        Some((window * self.window_pages + offset, len))
    }

    /// The first bad page intersecting `page..page + n_pages`, if any.
    #[must_use]
    pub fn first_bad_page(&self, seed: u64, page: u64, n_pages: u64) -> Option<u64> {
        if n_pages == 0 || self.region_ppm == 0 || self.window_pages == 0 {
            return None;
        }
        let last = page + n_pages - 1;
        // A window's region stays inside the window, so only windows
        // overlapping the range can contribute.
        for w in (page / self.window_pages)..=(last / self.window_pages) {
            if let Some((start, len)) = self.region_in_window(seed, w) {
                if start <= last && start + len > page {
                    return Some(start.max(page));
                }
            }
        }
        None
    }
}

/// The pipeline phase an access belongs to, for per-phase fault-rate
/// overrides (see [`FaultConfig::for_phase`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPhase {
    /// External (on-disk) index construction.
    Build,
    /// Measurement-time query execution.
    Query,
    /// Predictor-simulated I/O (scans, resampling, lower-tree builds).
    Predict,
}

impl FaultPhase {
    /// Every phase, in `phase_scale_pct` index order.
    pub const ALL: [FaultPhase; 3] = [FaultPhase::Build, FaultPhase::Query, FaultPhase::Predict];

    /// Stable lower-case name.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultPhase::Build => "build",
            FaultPhase::Query => "query",
            FaultPhase::Predict => "predict",
        }
    }
}

/// Seeded fault-injection configuration. All-integer so it stays
/// `Copy + Eq + Hash` and can ride inside the `Copy` parameter structs of
/// the predictors (`ExternalConfig`, `ResampledParams`-adjacent wiring).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultConfig {
    /// Seed of the fault plan (independent of the data/sampling seeds).
    pub seed: u64,
    /// Per-attempt probability of a transient failure, in ppm.
    pub transient_ppm: u32,
    /// Per-attempt probability of a torn multi-page access, in ppm
    /// (single-page accesses fall back to transient).
    pub torn_ppm: u32,
    /// Per-successful-access probability of a latency spike, in ppm.
    pub spike_ppm: u32,
    /// Bound on attempts per access (first try + retries); clamped to
    /// at least 1 by [`FaultPlan`].
    pub max_attempts: u32,
    /// Correlated burst model layered on top of the point rates (`None`
    /// disables bursts).
    pub burst: Option<BurstConfig>,
    /// Per-phase percentage scaling of all rates, indexed in
    /// [`FaultPhase::ALL`] order (`[build, query, predict]`; 100 leaves a
    /// phase unscaled). Applied by [`FaultConfig::for_phase`].
    pub phase_scale_pct: [u16; 3],
    /// How consumers pace and bound retries of failed accesses.
    pub retry: RetryPolicy,
}

impl FaultConfig {
    /// A plan that never fires: zero rates. Installing it must be
    /// byte-identical to running with no plan at all (regression-pinned in
    /// `tests/fault_injection.rs`).
    #[must_use]
    pub fn disabled(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            transient_ppm: 0,
            torn_ppm: 0,
            spike_ppm: 0,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            burst: None,
            phase_scale_pct: [100; 3],
            retry: RetryPolicy::Fixed,
        }
    }

    /// A chaos-testing preset: noticeable fault pressure (3 % transient,
    /// 2 % torn, 2 % spikes per attempt) that still converges under the
    /// default retry bound.
    #[must_use]
    pub fn chaos(seed: u64) -> FaultConfig {
        FaultConfig {
            transient_ppm: 30_000,
            torn_ppm: 20_000,
            spike_ppm: 20_000,
            ..FaultConfig::disabled(seed)
        }
    }

    /// Scales the transient rate to `ppm` (torn and spikes at half that),
    /// keeping seed and retry bound.
    ///
    /// # Errors
    ///
    /// Rejects a rate above [`PPM_SCALE`] (certainty).
    pub fn with_rate_ppm(mut self, ppm: u32) -> std::result::Result<FaultConfig, String> {
        let ppm = checked_ppm(ppm)?;
        self.transient_ppm = ppm;
        self.torn_ppm = ppm / 2;
        self.spike_ppm = ppm / 2;
        Ok(self)
    }

    /// Attaches (or clears) the correlated burst model.
    #[must_use]
    pub fn with_burst(mut self, burst: Option<BurstConfig>) -> FaultConfig {
        self.burst = burst;
        self
    }

    /// Selects the retry/backoff policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> FaultConfig {
        self.retry = retry;
        self
    }

    /// Sets one phase's percentage scaling (100 = unscaled; 0 silences the
    /// phase entirely).
    #[must_use]
    pub fn with_phase_scale(mut self, phase: FaultPhase, pct: u16) -> FaultConfig {
        self.phase_scale_pct[phase as usize] = pct;
        self
    }

    /// Specializes this configuration for one pipeline phase: the seed is
    /// derived per phase (decorrelating the phases' fault streams and
    /// bad-region layouts — each phase simulates its own disk, hence its
    /// own page space) and every rate, including the burst fault rate, is
    /// scaled by the phase's percentage. The retry policy and region
    /// geometry are phase-independent.
    #[must_use]
    pub fn for_phase(mut self, phase: FaultPhase) -> FaultConfig {
        let pct = u64::from(self.phase_scale_pct[phase as usize]);
        let scale = |ppm: u32| (u64::from(ppm) * pct / 100).min(u64::from(PPM_SCALE)) as u32;
        self.seed = derive_seed(self.seed, PHASE_STREAM_BASE + phase as u64);
        self.transient_ppm = scale(self.transient_ppm);
        self.torn_ppm = scale(self.torn_ppm);
        self.spike_ppm = scale(self.spike_ppm);
        if let Some(b) = &mut self.burst {
            b.fault_ppm = scale(b.fault_ppm);
        }
        self
    }

    /// A copy of this configuration whose seed is the `stream`-th derived
    /// sub-seed of the current one — used to decorrelate phases that share
    /// one user-facing fault seed (e.g. the build phase vs. the query
    /// phase of a measurement) without the caller picking seeds by hand.
    #[must_use]
    pub fn derived(mut self, stream: u64) -> FaultConfig {
        self.seed = derive_seed(self.seed, stream);
        self
    }

    /// Whether this configuration can ever inject anything.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.transient_ppm == 0
            && self.torn_ppm == 0
            && self.spike_ppm == 0
            && self.burst.as_ref().is_none_or(BurstConfig::is_zero)
    }
}

/// One recorded injection: which access attempt it hit and what happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Ordinal of the access within its plan (0-based).
    pub access: u64,
    /// Attempt number within the access (0 = first try).
    pub attempt: u32,
    /// Absolute first page of the attempted range.
    pub page: u64,
    /// Length of the attempted range in pages.
    pub n_pages: u64,
    /// What was injected.
    pub kind: FaultKind,
    /// Pages transferred before the failure (torn faults; 0 otherwise).
    pub completed_pages: u64,
    /// Extra seek-equivalents charged (latency spikes; 0 otherwise).
    pub extra_seeks: u64,
    /// Whether the burst model (rather than a point rate) injected this.
    pub burst: bool,
}

/// Outcome of one access attempt under a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The attempt succeeds with no injection.
    Success,
    /// The attempt succeeds but is charged `extra_seeks` latency.
    Spike {
        /// Seek-equivalents to charge on top of the normal bill.
        extra_seeks: u64,
    },
    /// The attempt fails outright; nothing was transferred.
    Transient,
    /// The attempt transferred `completed_pages` (≥ 1, < n_pages) and then
    /// failed.
    Torn {
        /// Pages transferred before the failure.
        completed_pages: u64,
    },
}

impl FaultOutcome {
    /// Whether the attempt must be retried (or reported as exhausted).
    #[must_use]
    pub fn is_failure(&self) -> bool {
        matches!(self, FaultOutcome::Transient | FaultOutcome::Torn { .. })
    }

    /// The fault kind of this outcome, if any.
    #[must_use]
    pub fn kind(&self) -> Option<FaultKind> {
        match self {
            FaultOutcome::Success => None,
            FaultOutcome::Spike { .. } => Some(FaultKind::LatencySpike),
            FaultOutcome::Transient => Some(FaultKind::Transient),
            FaultOutcome::Torn { .. } => Some(FaultKind::Torn),
        }
    }
}

/// A stateful, seeded fault plan: hands out per-attempt outcomes and
/// records every injection into a replayable trace.
///
/// Decisions are pure functions of `(seed, access, attempt)`; the only
/// state is the access ordinal (advanced by [`FaultPlan::next_access`])
/// and the accumulated [`FaultPlan::trace`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    next_access: u64,
    trace: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan over `cfg` with an empty trace.
    #[must_use]
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            cfg,
            next_access: 0,
            trace: Vec::new(),
        }
    }

    /// The wrapped configuration.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Bound on attempts per access (at least 1).
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        self.cfg.max_attempts.max(1)
    }

    /// Claims the ordinal of the next logical access. Consumers call this
    /// once per access, then [`FaultPlan::attempt`] once per attempt.
    pub fn next_access(&mut self) -> u64 {
        let a = self.next_access;
        self.next_access += 1;
        a
    }

    /// Decides (and records) the outcome of attempt `attempt` of access
    /// `access` over the page range `page..page + n_pages`.
    ///
    /// For a fixed seed the decision is monotone in the rates: raising any
    /// rate can only turn a [`FaultOutcome::Success`] into a fault, never
    /// clear one.
    pub fn attempt(&mut self, access: u64, attempt: u32, page: u64, n_pages: u64) -> FaultOutcome {
        if self.cfg.is_zero() {
            return FaultOutcome::Success;
        }
        let h = derive_seed(derive_seed(self.cfg.seed, access), u64::from(attempt));
        let draw = (h % u64::from(PPM_SCALE)) as u32;
        let fail_ppm = self
            .cfg
            .transient_ppm
            .saturating_add(self.cfg.torn_ppm)
            .min(PPM_SCALE);
        let mut burst = false;
        let outcome = if draw < fail_ppm {
            // Torn faults need at least two pages to tear between.
            if draw >= self.cfg.transient_ppm && n_pages >= 2 {
                let completed = 1 + derive_seed(h, 1) % (n_pages - 1);
                FaultOutcome::Torn {
                    completed_pages: completed,
                }
            } else {
                FaultOutcome::Transient
            }
        } else if let Some(outcome) = self.burst_fault(h, page, n_pages) {
            burst = true;
            outcome
        } else {
            let spike_draw = (derive_seed(h, 2) % u64::from(PPM_SCALE)) as u32;
            if spike_draw < self.cfg.spike_ppm {
                FaultOutcome::Spike {
                    extra_seeks: 1 + derive_seed(h, 3) % 4,
                }
            } else {
                FaultOutcome::Success
            }
        };
        if let Some(kind) = outcome.kind() {
            let (completed_pages, extra_seeks) = match outcome {
                FaultOutcome::Torn { completed_pages } => (completed_pages, 0),
                FaultOutcome::Spike { extra_seeks } => (0, extra_seeks),
                _ => (0, 0),
            };
            self.trace.push(FaultEvent {
                access,
                attempt,
                page,
                n_pages,
                kind,
                completed_pages,
                extra_seeks,
                burst,
            });
        }
        outcome
    }

    /// The correlated-burst decision for this attempt: fires only when the
    /// range overlaps a bad region, with probability `fault_ppm` drawn on
    /// a stream independent of the point-fault draw (so enabling bursts
    /// never clears a point fault and the rate-monotonicity contract
    /// survives). Torn just before the first bad page when the range
    /// permits, transient otherwise.
    fn burst_fault(&self, h: u64, page: u64, n_pages: u64) -> Option<FaultOutcome> {
        let b = self.cfg.burst?;
        if b.is_zero() {
            return None;
        }
        let first_bad = b.first_bad_page(self.cfg.seed, page, n_pages)?;
        let draw = (derive_seed(h, BURST_DRAW_STREAM) % u64::from(PPM_SCALE)) as u32;
        if draw >= b.fault_ppm {
            return None;
        }
        if first_bad > page && n_pages >= 2 {
            Some(FaultOutcome::Torn {
                completed_pages: first_bad - page,
            })
        } else {
            Some(FaultOutcome::Transient)
        }
    }

    /// Everything injected so far, in decision order.
    #[must_use]
    pub fn trace(&self) -> &[FaultEvent] {
        &self.trace
    }

    /// Consumes the plan, returning its trace.
    #[must_use]
    pub fn into_trace(self) -> Vec<FaultEvent> {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_plan(cfg: FaultConfig, accesses: u64, n_pages: u64) -> (Vec<FaultEvent>, u64) {
        let mut plan = FaultPlan::new(cfg);
        let mut retries = 0u64;
        for _ in 0..accesses {
            let a = plan.next_access();
            for attempt in 0..plan.max_attempts() {
                let out = plan.attempt(a, attempt, a * n_pages, n_pages);
                if !out.is_failure() {
                    break;
                }
                if attempt + 1 < plan.max_attempts() {
                    retries += 1;
                }
            }
        }
        (plan.into_trace(), retries)
    }

    #[test]
    fn zero_rate_plan_never_fires() {
        let (trace, retries) = run_plan(FaultConfig::disabled(7), 10_000, 8);
        assert!(trace.is_empty());
        assert_eq!(retries, 0);
    }

    #[test]
    fn same_seed_reproduces_the_trace() {
        let cfg = FaultConfig::chaos(42);
        let (a, ra) = run_plan(cfg, 5_000, 8);
        let (b, rb) = run_plan(cfg, 5_000, 8);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        assert!(!a.is_empty(), "chaos preset must fire over 5000 accesses");
        let (c, _) = run_plan(FaultConfig::chaos(43), 5_000, 8);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let cfg = FaultConfig::disabled(1).with_rate_ppm(100_000).unwrap(); // 10 %
        let mut plan = FaultPlan::new(cfg);
        let mut failures = 0usize;
        let n = 20_000u64;
        for _ in 0..n {
            let a = plan.next_access();
            if plan.attempt(a, 0, a, 4).is_failure() {
                failures += 1;
            }
        }
        // transient 10 % + torn 5 % = 15 % expected failure rate.
        let rate = failures as f64 / n as f64;
        assert!((0.12..0.18).contains(&rate), "observed failure rate {rate}");
    }

    #[test]
    fn fault_set_is_monotone_in_the_rate() {
        // Raising the rate may only add faults at (access, attempt) keys,
        // never clear one — the property the degradation sweep relies on.
        let lo = FaultConfig::disabled(9).with_rate_ppm(20_000).unwrap();
        let hi = FaultConfig::disabled(9).with_rate_ppm(200_000).unwrap();
        let mut plan_lo = FaultPlan::new(lo);
        let mut plan_hi = FaultPlan::new(hi);
        for a in 0..5_000u64 {
            for attempt in 0..2u32 {
                let out_lo = plan_lo.attempt(a, attempt, a, 8);
                let out_hi = plan_hi.attempt(a, attempt, a, 8);
                if out_lo.is_failure() {
                    assert!(
                        out_hi.is_failure(),
                        "fault at ({a},{attempt}) vanished when the rate rose"
                    );
                }
            }
        }
    }

    #[test]
    fn torn_needs_two_pages_and_tears_inside_the_range() {
        let cfg = FaultConfig {
            torn_ppm: PPM_SCALE, // always torn (when possible)
            max_attempts: 1,
            ..FaultConfig::disabled(3)
        };
        let mut plan = FaultPlan::new(cfg);
        let a = plan.next_access();
        // Single-page access degrades to transient.
        assert_eq!(plan.attempt(a, 0, 0, 1), FaultOutcome::Transient);
        for n_pages in [2u64, 3, 16, 1000] {
            let a = plan.next_access();
            match plan.attempt(a, 0, 0, n_pages) {
                FaultOutcome::Torn { completed_pages } => {
                    assert!((1..n_pages).contains(&completed_pages));
                }
                other => panic!("expected torn, got {other:?}"),
            }
        }
    }

    #[test]
    fn spikes_charge_but_do_not_fail() {
        let cfg = FaultConfig {
            spike_ppm: PPM_SCALE,
            max_attempts: 1,
            ..FaultConfig::disabled(5)
        };
        let mut plan = FaultPlan::new(cfg);
        let a = plan.next_access();
        match plan.attempt(a, 0, 7, 2) {
            FaultOutcome::Spike { extra_seeks } => assert!((1..=4).contains(&extra_seeks)),
            other => panic!("expected spike, got {other:?}"),
        }
        assert_eq!(plan.trace().len(), 1);
        assert_eq!(plan.trace()[0].kind, FaultKind::LatencySpike);
        assert_eq!(plan.trace()[0].page, 7);
    }

    #[test]
    fn config_presets() {
        assert!(FaultConfig::disabled(0).is_zero());
        assert!(!FaultConfig::chaos(0).is_zero());
        let c = FaultConfig::disabled(1).with_rate_ppm(10_000).unwrap();
        assert_eq!(c.transient_ppm, 10_000);
        assert_eq!(c.torn_ppm, 5_000);
        assert_eq!(c.spike_ppm, 5_000);
    }

    #[test]
    fn rates_above_certainty_are_rejected_not_clamped() {
        // PPM_SCALE itself is certainty and stays valid.
        let sure = FaultConfig::disabled(1).with_rate_ppm(PPM_SCALE).unwrap();
        assert_eq!(sure.transient_ppm, PPM_SCALE);
        assert_eq!(
            BurstConfig::with_fault_ppm(PPM_SCALE).unwrap().fault_ppm,
            PPM_SCALE
        );
        for ppm in [PPM_SCALE + 1, u32::MAX] {
            let e = FaultConfig::disabled(1).with_rate_ppm(ppm).unwrap_err();
            assert_eq!(e, format!("{ppm} exceeds 1000000 (a rate of 100 %)"));
            let e = BurstConfig::with_fault_ppm(ppm).unwrap_err();
            assert_eq!(e, format!("{ppm} exceeds 1000000 (a rate of 100 %)"));
        }
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(FaultKind::Transient.as_str(), "transient");
        assert_eq!(FaultKind::Torn.as_str(), "torn");
        assert_eq!(FaultKind::LatencySpike.to_string(), "latency-spike");
    }

    #[test]
    fn burst_regions_are_deterministic_and_in_bounds() {
        let b = BurstConfig::with_fault_ppm(500_000).unwrap();
        let mut hosted = 0usize;
        for window in 0..4_000u64 {
            let r1 = b.region_in_window(11, window);
            let r2 = b.region_in_window(11, window);
            assert_eq!(r1, r2, "layout must be a pure function of (seed, window)");
            if let Some((start, len)) = r1 {
                hosted += 1;
                assert!(len >= 1 && len <= b.max_region_pages);
                assert!(start >= window * b.window_pages);
                assert!(start + len <= (window + 1) * b.window_pages);
            }
        }
        // 2 % of 4000 windows ≈ 80 regions; allow generous slack.
        assert!((20..200).contains(&hosted), "hosted {hosted} regions");
        // A different seed yields a different layout.
        let other: Vec<_> = (0..4_000u64).map(|w| b.region_in_window(12, w)).collect();
        let this: Vec<_> = (0..4_000u64).map(|w| b.region_in_window(11, w)).collect();
        assert_ne!(this, other);
    }

    #[test]
    fn burst_faults_fire_only_inside_declared_regions() {
        // Certain-fire burst rate, zero point rates: an access fails iff it
        // overlaps a bad region, and torn tears exactly at the first bad
        // page.
        let burst = BurstConfig::with_fault_ppm(PPM_SCALE).unwrap();
        let cfg = FaultConfig::disabled(17).with_burst(Some(burst));
        let mut plan = FaultPlan::new(cfg);
        let mut fired = 0usize;
        for a in 0..3_000u64 {
            let page = (a * 37) % 200_000;
            let n_pages = 1 + a % 16;
            let access = plan.next_access();
            let out = plan.attempt(access, 0, page, n_pages);
            match burst.first_bad_page(cfg.seed, page, n_pages) {
                None => assert_eq!(out, FaultOutcome::Success, "fault outside regions"),
                Some(first_bad) => {
                    fired += 1;
                    if first_bad > page && n_pages >= 2 {
                        assert_eq!(
                            out,
                            FaultOutcome::Torn {
                                completed_pages: first_bad - page
                            }
                        );
                    } else {
                        assert_eq!(out, FaultOutcome::Transient);
                    }
                }
            }
        }
        assert!(fired > 0, "sweep must cross at least one bad region");
        assert!(plan.trace().iter().all(|e| e.burst));
    }

    #[test]
    fn burst_fault_set_is_monotone_in_the_rate() {
        let lo = FaultConfig::disabled(9)
            .with_burst(Some(BurstConfig::with_fault_ppm(100_000).unwrap()));
        let hi = FaultConfig::disabled(9)
            .with_burst(Some(BurstConfig::with_fault_ppm(800_000).unwrap()));
        let mut plan_lo = FaultPlan::new(lo);
        let mut plan_hi = FaultPlan::new(hi);
        for a in 0..5_000u64 {
            let out_lo = plan_lo.attempt(a, 0, a * 8, 8);
            let out_hi = plan_hi.attempt(a, 0, a * 8, 8);
            if out_lo.is_failure() {
                assert!(out_hi.is_failure(), "burst fault at {a} vanished");
            }
        }
    }

    #[test]
    fn phase_override_scales_rates_and_decorrelates_seeds() {
        let cfg = FaultConfig::disabled(5)
            .with_rate_ppm(10_000)
            .unwrap()
            .with_burst(Some(BurstConfig::with_fault_ppm(40_000).unwrap()))
            .with_phase_scale(FaultPhase::Build, 50)
            .with_phase_scale(FaultPhase::Query, 200)
            .with_phase_scale(FaultPhase::Predict, 0);
        let build = cfg.for_phase(FaultPhase::Build);
        assert_eq!(build.transient_ppm, 5_000);
        assert_eq!(build.torn_ppm, 2_500);
        assert_eq!(build.burst.unwrap().fault_ppm, 20_000);
        let query = cfg.for_phase(FaultPhase::Query);
        assert_eq!(query.transient_ppm, 20_000);
        let predict = cfg.for_phase(FaultPhase::Predict);
        assert!(predict.is_zero(), "0 % scaling silences the phase");
        assert_ne!(build.seed, query.seed);
        assert_ne!(build.seed, cfg.seed);
        // Scaling clamps at certainty.
        let hot = FaultConfig::disabled(1)
            .with_rate_ppm(900_000)
            .unwrap()
            .with_phase_scale(FaultPhase::Build, 300)
            .for_phase(FaultPhase::Build);
        assert_eq!(hot.transient_ppm, PPM_SCALE);
        // The geometry and retry policy are phase-independent.
        assert_eq!(
            build.burst.unwrap().window_pages,
            BurstConfig::DEFAULT_WINDOW_PAGES
        );
        assert_eq!(build.retry, cfg.retry);
    }

    #[test]
    fn retry_policy_parse_backoff_and_names() {
        assert_eq!(RetryPolicy::parse("fixed"), Ok(RetryPolicy::Fixed));
        assert_eq!(
            RetryPolicy::parse("exponential"),
            Ok(RetryPolicy::Exponential)
        );
        assert!(RetryPolicy::parse("eventually").is_err());
        assert!(RetryPolicy::parse("budgeted").is_err());
        assert_eq!(RetryPolicy::Fixed.to_string(), "fixed");
        assert_eq!(RetryPolicy::Exponential.as_str(), "exponential");

        // Fixed charges nothing; the exponential schedule is deterministic
        // and stays within [2^a, 2^(a+1)).
        assert_eq!(RetryPolicy::Fixed.backoff_seeks(1, 2, 3), 0);
        for attempt in 0..8u32 {
            let b1 = RetryPolicy::Exponential.backoff_seeks(42, 7, attempt);
            let b2 = RetryPolicy::Exponential.backoff_seeks(42, 7, attempt);
            assert_eq!(b1, b2);
            let base = 1u64 << attempt;
            assert!((base..2 * base).contains(&b1), "attempt {attempt}: {b1}");
        }
    }

    #[test]
    fn zero_burst_and_zero_scale_count_as_zero() {
        assert!(FaultConfig::disabled(0)
            .with_burst(Some(BurstConfig::with_fault_ppm(0).unwrap()))
            .is_zero());
        assert!(!FaultConfig::disabled(0)
            .with_burst(Some(BurstConfig::with_fault_ppm(1).unwrap()))
            .is_zero());
        let b = BurstConfig {
            region_ppm: 0,
            ..BurstConfig::with_fault_ppm(1_000).unwrap()
        };
        assert!(b.is_zero());
        assert_eq!(b.first_bad_page(1, 0, 1_000_000), None);
    }
}
