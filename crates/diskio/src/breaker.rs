//! A deterministic circuit breaker over charged simulated time.
//!
//! Real circuit breakers trip on wall-clock failure rates; this one trips
//! on **charged** time so its transitions are a pure function of the
//! access sequence and the fault trace — replayable, thread-invariant and
//! byte-comparable across runs. The state machine is the classic one:
//!
//! * **Closed** — operations flow; failures enter a sliding window of
//!   charged timestamps. When `failure_threshold` failures land within
//!   `window_s` charged seconds, the breaker opens.
//! * **Open** — operations fail fast (no I/O, nothing charged — that is
//!   the point: a broken store must not let callers burn retry backoff).
//!   After `open_s` charged seconds the breaker half-opens.
//! * **Half-open** — the next `probes` operations run against the store.
//!   All succeed → closed (window cleared); any failure → open again with
//!   a fresh cooldown.
//!
//! [`CircuitBreaker`] is the bare state machine: the caller clocks it and
//! reports each operation's outcome (the serving loop drives one directly
//! from its slot algebra).

use hdidx_core::{fnv1a, Error, Result, FNV_OFFSET};
use std::collections::VecDeque;

/// Breaker tuning. All times are charged simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Failures within [`BreakerConfig::window_s`] that trip the breaker.
    pub failure_threshold: u32,
    /// Length of the sliding failure window, seconds.
    pub window_s: f64,
    /// Cooldown before an open breaker half-opens, seconds.
    pub open_s: f64,
    /// Consecutive successful probes that close a half-open breaker.
    pub probes: u32,
}

impl BreakerConfig {
    /// Conservative defaults: 4 failures in half a second trip the
    /// breaker, it cools down for one second, two clean probes close it.
    #[must_use]
    pub fn new() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 4,
            window_s: 0.5,
            open_s: 1.0,
            probes: 2,
        }
    }

    /// Checks the knobs: a positive threshold and probe count, positive
    /// finite window and cooldown.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] describing the violation.
    pub fn validate(&self) -> Result<()> {
        if self.failure_threshold == 0 {
            return Err(Error::invalid(
                "breaker",
                "failure threshold must be at least 1",
            ));
        }
        if self.probes == 0 {
            return Err(Error::invalid("breaker", "probe count must be at least 1"));
        }
        if !self.window_s.is_finite() || self.window_s <= 0.0 {
            return Err(Error::invalid(
                "breaker",
                format!("window must be positive seconds, got {}", self.window_s),
            ));
        }
        if !self.open_s.is_finite() || self.open_s <= 0.0 {
            return Err(Error::invalid(
                "breaker",
                format!("cooldown must be positive seconds, got {}", self.open_s),
            ));
        }
        Ok(())
    }

    /// Parses a `fails:window_s:open_s[:probes]` spec, e.g. `4:0.5:1`
    /// or `3:0.2:1.5:2`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] on malformed fields or an invalid
    /// resulting config.
    pub fn parse(spec: &str) -> Result<BreakerConfig> {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != 3 && parts.len() != 4 {
            return Err(Error::invalid(
                "breaker",
                format!("expected fails:window_s:open_s[:probes], got `{spec}`"),
            ));
        }
        // Counts parse as `u32` directly, so `4.7` or an overflowing count
        // is a parse error rather than a silent truncation.
        fn field<T: std::str::FromStr>(spec: &str, part: &str, name: &str) -> Result<T> {
            part.parse().map_err(|_| {
                Error::invalid(
                    "breaker",
                    format!("cannot parse {name} `{part}` in `{spec}`"),
                )
            })
        }
        let cfg = BreakerConfig {
            failure_threshold: field(spec, parts[0], "failure threshold")?,
            window_s: field(spec, parts[1], "window")?,
            open_s: field(spec, parts[2], "cooldown")?,
            probes: if parts.len() == 4 {
                field(spec, parts[3], "probe count")?
            } else {
                BreakerConfig::new().probes
            },
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig::new()
    }
}

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Operations flow; failures accumulate in the window.
    Closed,
    /// Operations fail fast until the cooldown elapses.
    Open,
    /// Probing: a bounded number of operations run to test recovery.
    HalfOpen,
}

impl BreakerState {
    /// Stable state name (`"closed"`, `"open"`, `"half-open"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// The deterministic breaker state machine.
///
/// Callers feed it a **non-decreasing** charged-time clock: `allow` before
/// an operation, then `on_success`/`on_failure` with the operation's
/// completion time. In this workspace every caller clocks it with a
/// monotone envelope of charged seconds, so transitions are replayable.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    /// Charged timestamps of recent failures, oldest first.
    failures: VecDeque<f64>,
    opened_at: f64,
    probes_left: u32,
    /// Every state transition as `(charged_time, new_state)`.
    transitions: Vec<(f64, BreakerState)>,
    fast_fails: u64,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given (validated) config.
    ///
    /// # Errors
    ///
    /// Propagates [`BreakerConfig::validate`].
    pub fn new(cfg: BreakerConfig) -> Result<CircuitBreaker> {
        cfg.validate()?;
        Ok(CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            failures: VecDeque::new(),
            opened_at: 0.0,
            probes_left: 0,
            transitions: Vec::new(),
            fast_fails: 0,
            trips: 0,
        })
    }

    fn transition(&mut self, now_s: f64, to: BreakerState) {
        self.state = to;
        self.transitions.push((now_s, to));
    }

    /// Whether an operation may proceed at charged time `now_s`. An open
    /// breaker whose cooldown has elapsed half-opens here; a denied
    /// operation is counted as a fast fail.
    pub fn allow(&mut self, now_s: f64) -> bool {
        if self.state == BreakerState::Open {
            if now_s >= self.opened_at + self.cfg.open_s {
                self.probes_left = self.cfg.probes;
                self.transition(now_s, BreakerState::HalfOpen);
            } else {
                self.fast_fails += 1;
                return false;
            }
        }
        true
    }

    /// Records a successful operation completing at charged time `now_s`.
    pub fn on_success(&mut self, now_s: f64) {
        if self.state == BreakerState::HalfOpen {
            self.probes_left = self.probes_left.saturating_sub(1);
            if self.probes_left == 0 {
                self.failures.clear();
                self.transition(now_s, BreakerState::Closed);
            }
        }
    }

    /// Records a failed operation completing at charged time `now_s`. In
    /// the closed state the failure enters the sliding window and may trip
    /// the breaker; in the half-open state it re-opens immediately.
    pub fn on_failure(&mut self, now_s: f64) {
        match self.state {
            BreakerState::HalfOpen => {
                self.opened_at = now_s;
                self.trips += 1;
                self.transition(now_s, BreakerState::Open);
            }
            BreakerState::Closed => {
                let horizon = now_s - self.cfg.window_s;
                self.failures.retain(|&t| t > horizon);
                self.failures.push_back(now_s);
                if self.failures.len() >= self.cfg.failure_threshold as usize {
                    self.failures.clear();
                    self.opened_at = now_s;
                    self.trips += 1;
                    self.transition(now_s, BreakerState::Open);
                }
            }
            BreakerState::Open => {}
        }
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker tripped (entered the open state).
    #[must_use]
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Operations denied while open.
    #[must_use]
    pub fn fast_fails(&self) -> u64 {
        self.fast_fails
    }

    /// Every transition so far, `(charged_time, new_state)` in order.
    #[must_use]
    pub fn transitions(&self) -> &[(f64, BreakerState)] {
        &self.transitions
    }

    /// FNV-1a digest over the transition log (time bit patterns and state
    /// tags) — the byte-identity check for breaker behavior.
    #[must_use]
    pub fn transitions_digest(&self) -> u64 {
        self.transitions.iter().fold(FNV_OFFSET, |h, &(t, s)| {
            let tag = match s {
                BreakerState::Closed => 0,
                BreakerState::Open => 1,
                BreakerState::HalfOpen => 2,
            };
            fnv1a(fnv1a(h, &t.to_bits().to_le_bytes()), &[tag])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validates_and_parses() {
        assert!(BreakerConfig::new().validate().is_ok());
        for bad in [
            BreakerConfig {
                failure_threshold: 0,
                ..BreakerConfig::new()
            },
            BreakerConfig {
                probes: 0,
                ..BreakerConfig::new()
            },
            BreakerConfig {
                window_s: 0.0,
                ..BreakerConfig::new()
            },
            BreakerConfig {
                open_s: f64::NAN,
                ..BreakerConfig::new()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
        let cfg = BreakerConfig::parse("3:0.25:1.5").unwrap();
        assert_eq!(cfg.failure_threshold, 3);
        assert_eq!(cfg.probes, BreakerConfig::new().probes);
        let cfg = BreakerConfig::parse("3:0.25:1.5:5").unwrap();
        assert_eq!(cfg.probes, 5);
        assert!(BreakerConfig::parse("3:0.25").is_err());
        assert!(BreakerConfig::parse("lots:0.25:1").is_err());
        assert!(BreakerConfig::parse("0:0.25:1").is_err());
        // Counts are integers: a fractional, overflowing or NaN count is a
        // typed parse error, never truncated or saturated.
        for spec in ["4.7:0.5:1", "99999999999:0.5:1", "4:0.5:1:2.9", "nan:0.5:1"] {
            let e = BreakerConfig::parse(spec).unwrap_err().to_string();
            assert!(e.contains("cannot parse"), "{spec}: {e}");
        }
    }

    #[test]
    fn trips_after_threshold_failures_within_the_window() {
        let mut br = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            window_s: 1.0,
            open_s: 2.0,
            probes: 1,
        })
        .unwrap();
        assert!(br.allow(0.0));
        br.on_failure(0.1);
        br.on_failure(0.2);
        assert_eq!(br.state(), BreakerState::Closed);
        br.on_failure(0.3);
        assert_eq!(br.state(), BreakerState::Open, "third failure trips");
        assert_eq!(br.trips(), 1);
        assert!(!br.allow(0.5), "cooldown not elapsed");
        assert_eq!(br.fast_fails(), 1);
    }

    #[test]
    fn stale_failures_age_out_of_the_window() {
        let mut br = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            window_s: 0.5,
            open_s: 1.0,
            probes: 1,
        })
        .unwrap();
        br.on_failure(0.0);
        br.on_failure(0.1);
        // 0.0 and 0.1 fall out of the (0.5, 1.0] window.
        br.on_failure(1.0);
        assert_eq!(br.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_probes_close_or_reopen() {
        let cfg = BreakerConfig {
            failure_threshold: 1,
            window_s: 1.0,
            open_s: 1.0,
            probes: 2,
        };
        let mut br = CircuitBreaker::new(cfg).unwrap();
        br.on_failure(0.0);
        assert_eq!(br.state(), BreakerState::Open);
        assert!(br.allow(1.5), "cooldown elapsed half-opens");
        assert_eq!(br.state(), BreakerState::HalfOpen);
        br.on_success(1.6);
        assert_eq!(br.state(), BreakerState::HalfOpen, "needs 2 probes");
        br.on_success(1.7);
        assert_eq!(br.state(), BreakerState::Closed);

        let mut br = CircuitBreaker::new(cfg).unwrap();
        br.on_failure(0.0);
        assert!(br.allow(1.5));
        br.on_failure(1.6);
        assert_eq!(br.state(), BreakerState::Open, "failed probe reopens");
        assert_eq!(br.trips(), 2);
        assert!(!br.allow(2.0), "fresh cooldown from the reopen");
        assert!(br.allow(2.7));
    }

    #[test]
    fn transition_log_digests_identically_on_replay() {
        let drive = || {
            let mut br = CircuitBreaker::new(BreakerConfig {
                failure_threshold: 2,
                window_s: 1.0,
                open_s: 0.5,
                probes: 1,
            })
            .unwrap();
            for i in 0..20u32 {
                let t = f64::from(i) * 0.2;
                if br.allow(t) {
                    if i % 3 == 0 {
                        br.on_failure(t + 0.05);
                    } else {
                        br.on_success(t + 0.05);
                    }
                }
            }
            br
        };
        let (a, b) = (drive(), drive());
        assert_eq!(a.transitions(), b.transitions());
        assert_eq!(a.transitions_digest(), b.transitions_digest());
        assert!(a.trips() > 0, "the schedule must exercise transitions");
        assert_ne!(
            a.transitions_digest(),
            CircuitBreaker::new(BreakerConfig::new())
                .unwrap()
                .transitions_digest()
        );
    }
}
