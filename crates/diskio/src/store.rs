//! [`DiskOptions`]: the one value that configures a device's fault
//! injection — the simulated [`Disk`](crate::Disk) here and the
//! file-backed store in `hdidx-store` alike (that store embeds a model
//! `Disk` built from the same options, so both charge one bill).

use hdidx_faults::{FaultConfig, FaultPhase, FaultPlan};

/// Builder for a configured disk or file store: fault injection, phase
/// specialization and stream derivation in one value, replacing the
/// former by-hand `FaultPlan::new(cfg.for_phase(..).derived(..))` call
/// chains. The retry policy rides inside the [`FaultConfig`]
/// ([`FaultConfig::with_retry`]).
///
/// Resolution order, applied by [`DiskOptions::resolved_config`]:
///
/// 1. the explicit [`FaultConfig`] (or none — an unconfigured options
///    value yields an ideal device),
/// 2. [`FaultConfig::for_phase`] specialization, if a phase is set,
/// 3. [`FaultConfig::derived`] stream derivation, if a stream is set —
///    e.g. a per-request id, so per-request plans stay decorrelated.
///
/// The value is `Copy`, so deriving a per-request variant is one call:
/// `base.derived(req_id)`.
///
/// # Examples
///
/// ```
/// use hdidx_diskio::{Disk, DiskOptions};
/// use hdidx_faults::{FaultConfig, FaultPhase, RetryPolicy};
///
/// let faults = FaultConfig::disabled(7)
///     .with_rate_ppm(1_000).unwrap()
///     .with_retry(RetryPolicy::Exponential);
/// let opts = DiskOptions::new()
///     .fault_plan(Some(faults))
///     .phase(FaultPhase::Query);
/// let mut disk = Disk::with_options(&opts.derived(42));
/// let f = disk.alloc(4).unwrap();
/// disk.access(&f, 0, 4).unwrap();
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskOptions {
    faults: Option<FaultConfig>,
    phase: Option<FaultPhase>,
    stream: Option<u64>,
}

impl DiskOptions {
    /// An ideal device: no faults, no retries, no phase.
    #[must_use]
    pub fn new() -> DiskOptions {
        DiskOptions::default()
    }

    /// Sets (or clears) the fault-injection configuration.
    #[must_use]
    pub fn fault_plan(mut self, faults: Option<FaultConfig>) -> DiskOptions {
        self.faults = faults;
        self
    }

    /// Specializes the fault stream for one pipeline phase
    /// ([`FaultConfig::for_phase`]: derived seed + per-phase rate scaling).
    #[must_use]
    pub fn phase(mut self, phase: FaultPhase) -> DiskOptions {
        self.phase = Some(phase);
        self
    }

    /// Derives the `stream`-th fault sub-seed ([`FaultConfig::derived`]),
    /// applied after phase specialization — used for per-request plans.
    #[must_use]
    pub fn derived(mut self, stream: u64) -> DiskOptions {
        self.stream = Some(stream);
        self
    }

    /// The fully resolved fault configuration (see the type-level docs for
    /// the order), or `None` for an ideal device.
    #[must_use]
    pub fn resolved_config(&self) -> Option<FaultConfig> {
        let mut cfg = self.faults?;
        if let Some(phase) = self.phase {
            cfg = cfg.for_phase(phase);
        }
        if let Some(stream) = self.stream {
            cfg = cfg.derived(stream);
        }
        Some(cfg)
    }

    /// A fresh fault plan over the resolved configuration, or `None` for
    /// an ideal device. A zero-rate configuration still yields a plan —
    /// byte-identical to no plan, as the disk tests pin.
    #[must_use]
    pub fn resolved_plan(&self) -> Option<FaultPlan> {
        self.resolved_config().map(FaultPlan::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Disk;
    use hdidx_faults::RetryPolicy;

    #[test]
    fn options_resolve_like_the_manual_call_chain() {
        let fcfg = FaultConfig::disabled(11)
            .with_rate_ppm(250_000)
            .unwrap()
            .with_retry(RetryPolicy::Exponential);
        let opts = DiskOptions::new()
            .fault_plan(Some(fcfg))
            .phase(FaultPhase::Query)
            .derived(42);
        let expect = fcfg.for_phase(FaultPhase::Query).derived(42);
        assert_eq!(opts.resolved_config(), Some(expect));
        assert_eq!(DiskOptions::new().resolved_config(), None);
        assert!(DiskOptions::new().resolved_plan().is_none());
    }

    #[test]
    fn phase_resolution_matches_a_pre_resolved_config() {
        let fcfg = FaultConfig::disabled(3).with_rate_ppm(400_000).unwrap();
        let run = |d: &mut Disk| {
            let f = d.alloc(64).unwrap();
            for p in 0..32 {
                let _ = d.access(&f, p * 2, 2);
            }
            (d.stats(), d.fault_trace().to_vec())
        };
        // Resolving the phase by hand and letting the builder do it must
        // install byte-identical plans.
        let mut manual = Disk::with_options(
            &DiskOptions::new().fault_plan(Some(fcfg.for_phase(FaultPhase::Build))),
        );
        let mut built = Disk::with_options(
            &DiskOptions::new()
                .fault_plan(Some(fcfg))
                .phase(FaultPhase::Build),
        );
        assert_eq!(run(&mut manual), run(&mut built));
    }
}
