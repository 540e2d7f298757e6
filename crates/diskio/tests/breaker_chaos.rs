//! Breaker chaos contract: under a seeded fault storm a [`CircuitBreaker`]
//! driven around [`Disk::access`] trips, fails fast while open, recovers
//! through half-open probes — and the whole trajectory (transitions,
//! charged stats, fault trace) is **byte-identical** when replayed, for
//! any `HDIDX_FAULT_SEED`.
//!
//! The CI breaker-chaos leg runs this file under two different fault
//! seeds; the assertions hold for every seed because the drive loop keeps
//! retrying cooldown windows until the seeded fault stream yields clean
//! probes.

use hdidx_diskio::{
    BreakerConfig, BreakerState, CircuitBreaker, Disk, DiskModel, DiskOptions, FileHandle,
};
use hdidx_faults::{FaultConfig, RetryPolicy};

fn fault_seed() -> u64 {
    std::env::var("HDIDX_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
}

/// What one gated access did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Served,
    Failed,
    /// Refused by the open breaker: no I/O, nothing charged.
    Refused,
}

/// One page access behind the breaker. The breaker clock is a monotone
/// envelope of the disk's charged cost and of any idle time the caller
/// credits to `clock_s`.
fn gated_access(
    disk: &mut Disk,
    breaker: &mut CircuitBreaker,
    clock_s: &mut f64,
    file: &FileHandle,
    page: u64,
) -> Outcome {
    let tick = |disk: &Disk, clock_s: &mut f64| {
        *clock_s = clock_s.max(DiskModel::PAPER.cost_seconds(disk.stats()));
    };
    tick(disk, clock_s);
    if !breaker.allow(*clock_s) {
        return Outcome::Refused;
    }
    let out = disk.access(file, page, 1);
    tick(disk, clock_s);
    if out.is_ok() {
        breaker.on_success(*clock_s);
        Outcome::Served
    } else {
        breaker.on_failure(*clock_s);
        Outcome::Failed
    }
}

/// One full drive: an access loop against a heavily faulted simulated disk
/// behind a breaker, advancing the charged clock through cooldowns until
/// the breaker has both tripped and recovered. Returns the observable
/// trajectory.
fn drive(seed: u64) -> (Vec<(u64, &'static str)>, u64, u64, u64, String) {
    // 400k ppm: with torn faults riding on top, ~60 % of attempts fail, so
    // ~13 % of accesses exhaust their 4 attempts — enough pressure to trip
    // a 3-failure window repeatedly while most half-open probes succeed.
    let fcfg = FaultConfig::disabled(seed)
        .with_rate_ppm(400_000)
        .unwrap()
        .with_retry(RetryPolicy::Exponential);
    let mut disk = Disk::with_options(&DiskOptions::new().fault_plan(Some(fcfg)));
    let cfg = BreakerConfig {
        failure_threshold: 3,
        window_s: 5.0,
        open_s: 0.5,
        probes: 1,
    };
    let mut breaker = CircuitBreaker::new(cfg).unwrap();
    let mut clock_s = 0.0f64;
    let file = disk.alloc(8).unwrap();
    let mut fast_fails = 0u64;
    let mut failures = 0u64;
    let mut successes = 0u64;
    for i in 0..400u64 {
        match gated_access(&mut disk, &mut breaker, &mut clock_s, &file, i % 8) {
            Outcome::Served => successes += 1,
            Outcome::Failed => failures += 1,
            Outcome::Refused => {
                fast_fails += 1;
                // Model idle simulated time passing while the disk is
                // refused: credit one cooldown so the breaker can
                // half-open and probe the (still seeded) fault stream.
                clock_s += cfg.open_s;
            }
        }
    }
    let transitions: Vec<(u64, &'static str)> = breaker
        .transitions()
        .iter()
        .map(|&(t, s)| (t.to_bits(), s.as_str()))
        .collect();
    let trace = format!("{:?}", disk.fault_trace());
    assert_eq!(breaker.fast_fails(), fast_fails);
    assert!(successes > 0, "seed {seed}: some accesses must survive");
    assert!(failures > 0, "seed {seed}: retry exhaustion must occur");
    (
        transitions,
        breaker.transitions_digest(),
        breaker.trips(),
        fast_fails,
        trace,
    )
}

#[test]
fn breaker_trips_fails_fast_and_recovers_byte_identically() {
    let seed = fault_seed();
    let (transitions, digest, trips, fast_fails, trace) = drive(seed);
    assert!(trips >= 1, "seed {seed}: the storm must trip the breaker");
    assert!(fast_fails >= 1, "seed {seed}: open state must fail fast");
    // Half-open recovery: some Open entry is later followed by a Closed
    // entry (a probe succeeded after a cooldown).
    let opened = transitions
        .iter()
        .position(|&(_, s)| s == BreakerState::Open.as_str());
    let recovered = opened.is_some_and(|i| {
        transitions[i..]
            .iter()
            .any(|&(_, s)| s == BreakerState::Closed.as_str())
    });
    assert!(
        recovered,
        "seed {seed}: breaker must recover through half-open probes: {transitions:?}"
    );
    assert!(
        transitions
            .iter()
            .any(|&(_, s)| s == BreakerState::HalfOpen.as_str()),
        "seed {seed}: recovery must pass through half-open"
    );

    // Replay: the entire trajectory is a pure function of the seed.
    let (t2, d2, trips2, ff2, trace2) = drive(seed);
    assert_eq!(transitions, t2, "seed {seed}: transitions must replay");
    assert_eq!(digest, d2);
    assert_eq!((trips, fast_fails), (trips2, ff2));
    assert_eq!(trace, trace2, "seed {seed}: fault trace must replay");
}

#[test]
fn breaker_off_burns_backoff_that_fast_fail_avoids() {
    let seed = fault_seed();
    // 900k ppm transient (plus torn on top) saturates to a 100 % per-
    // attempt failure rate: every un-gated access burns the full ladder.
    let fcfg = FaultConfig::disabled(seed)
        .with_rate_ppm(900_000)
        .unwrap()
        .with_retry(RetryPolicy::Exponential);
    // Bare disk: every access burns the full retry ladder.
    let mut bare = Disk::with_options(&DiskOptions::new().fault_plan(Some(fcfg)));
    let file = bare.alloc(8).unwrap();
    for i in 0..200u64 {
        let _ = bare.access(&file, i % 8, 1);
    }
    let bare_backoff = bare.stats().backoff;

    // Same storm behind a breaker: open stretches skip the disk entirely,
    // so the charged backoff is strictly bounded below bare.
    let mut disk = Disk::with_options(&DiskOptions::new().fault_plan(Some(fcfg)));
    let mut breaker = CircuitBreaker::new(BreakerConfig {
        failure_threshold: 3,
        window_s: 5.0,
        open_s: 0.5,
        probes: 1,
    })
    .unwrap();
    let mut clock_s = 0.0f64;
    let file = disk.alloc(8).unwrap();
    for i in 0..200u64 {
        // Credit idle cooldown time only while refused: advancing the
        // clock on *real* failures too would vault every cooldown and turn
        // each access into a half-open probe, gating nothing.
        if gated_access(&mut disk, &mut breaker, &mut clock_s, &file, i % 8) == Outcome::Refused {
            clock_s += 0.5;
        }
    }
    let gated_backoff = disk.stats().backoff;
    assert!(
        breaker.fast_fails() > 0,
        "seed {seed}: open stretches must refuse accesses"
    );
    assert!(
        gated_backoff < bare_backoff,
        "seed {seed}: breaker must bound charged backoff ({gated_backoff} vs {bare_backoff})"
    );
}
