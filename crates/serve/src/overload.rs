//! The overload-control policy: per-class admission lanes and breaker
//! gating, both expressed in **charged simulated seconds**, so every
//! decision is a pure, replayable function of the request stream and the
//! fault seed.
//!
//! The policy is deliberately *opt-in per knob*: [`OverloadPolicy::none`]
//! is the identity (one implicit lane, no breaker) and a server run under
//! it is byte-identical to a server that predates the subsystem — the
//! zero-overload digests are pinned by `tests/serve_determinism.rs`.

use crate::request::QueryClass;
use hdidx_core::{Error, Result};
use hdidx_diskio::breaker::BreakerConfig;
use std::fmt;

/// Parses one `class:budget` lane list (`"0.5"` shorthand = every class;
/// unnamed classes stay unbounded, `inf`/`none` spell unbounded).
fn parse_budgets(spec: &str) -> Result<[f64; QueryClass::COUNT]> {
    let parse_value = |s: &str| match s {
        "inf" | "none" => Some(f64::INFINITY),
        other => other.parse().ok(),
    };
    let mut out = [f64::INFINITY; QueryClass::COUNT];
    if !spec.contains(':') {
        let v = parse_value(spec)
            .ok_or_else(|| Error::invalid("lanes", format!("cannot parse `{spec}`")))?;
        return Ok([v; QueryClass::COUNT]);
    }
    let mut seen = [false; QueryClass::COUNT];
    for (i, part) in spec.split(',').enumerate() {
        let field = i + 1;
        let (name, value) = part.split_once(':').ok_or_else(|| {
            Error::invalid(
                "lanes",
                format!("field {field}: expected class:value, got `{part}`"),
            )
        })?;
        let class = QueryClass::parse(name)
            .map_err(|e| Error::invalid("lanes", format!("field {field}: {e}")))?;
        if seen[class.index()] {
            return Err(Error::invalid(
                "lanes",
                format!("field {field}: class `{name}` given twice"),
            ));
        }
        seen[class.index()] = true;
        out[class.index()] = parse_value(value).ok_or_else(|| {
            Error::invalid(
                "lanes",
                format!("field {field}: cannot parse value `{value}`"),
            )
        })?;
    }
    Ok(out)
}

/// Per-class admission lanes: a sliding-window **queue-delay budget** per
/// class, in simulated seconds.
///
/// The controller prices the *offered* stream: a shadow pass of the slot
/// algebra (no shedding) assigns every request the queue delay it would
/// see, and each class keeps a sliding window of those delays. A request
/// is shed when its class's window mean exceeds the class budget. Because
/// the shadow delays are a pure function of the offered stream — never of
/// what was previously shed — decisions are byte-identical at any thread
/// count and **monotone in the budget**: tightening a budget can only
/// grow the shed set (pinned by the bursty-admission property test).
///
/// Priorities are expressed through the budgets: `INFINITY` marks a
/// protected lane that never sheds, small budgets shed first, and `0`
/// closes a lane outright (every request shed) — shedding a closed lane
/// is then *exactly* equivalent to never offering its load, which the CI
/// overload leg asserts digest-for-digest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LanePolicy {
    /// Queue-delay budget per class, indexed by [`QueryClass::index`].
    pub budget_s: [f64; QueryClass::COUNT],
    /// Sliding-window length (delays per class); must be positive.
    pub window: usize,
}

impl LanePolicy {
    /// Default window length.
    pub const DEFAULT_WINDOW: usize = 64;

    /// The budget for one class.
    #[must_use]
    pub fn get(&self, class: QueryClass) -> f64 {
        self.budget_s[class.index()]
    }

    /// Checks the policy: positive window; budgets non-negative (zero
    /// closes a lane) or infinite, never NaN.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] describing the violation.
    pub fn validate(&self) -> Result<()> {
        if self.window == 0 {
            return Err(Error::invalid("lanes", "window must be at least 1"));
        }
        for c in QueryClass::ALL {
            let b = self.get(c);
            if b.is_nan() || b < 0.0 {
                return Err(Error::invalid(
                    "lanes",
                    format!("budget for `{c}` must be non-negative seconds, got {b}"),
                ));
            }
        }
        Ok(())
    }

    /// Parses `"knn:0.5,predict:0"` (listed classes; unnamed lanes are
    /// protected, i.e. infinite budget) or a bare number for every class.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] with a field-oriented message.
    pub fn parse(spec: &str) -> Result<LanePolicy> {
        let p = LanePolicy {
            budget_s: parse_budgets(spec)?,
            window: LanePolicy::DEFAULT_WINDOW,
        };
        p.validate()?;
        Ok(p)
    }
}

impl fmt::Display for LanePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for c in QueryClass::ALL {
            if !first {
                f.write_str(",")?;
            }
            first = false;
            let b = self.get(c);
            if b.is_infinite() {
                write!(f, "{c}:inf")?;
            } else {
                write!(f, "{c}:{b}")?;
            }
        }
        Ok(())
    }
}

/// The complete overload-control policy of one serving run. Every knob
/// defaults to "off"; [`OverloadPolicy::none`] is the identity policy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverloadPolicy {
    /// Admission lanes (`None` = one implicit lane, nothing shed).
    pub lanes: Option<LanePolicy>,
    /// Circuit breaker over the query replay path (`None` = disabled).
    pub breaker: Option<BreakerConfig>,
}

impl OverloadPolicy {
    /// The identity policy: no lanes, no breaker. A run under it
    /// reproduces the pre-overload serve digests bit for bit.
    #[must_use]
    pub fn none() -> OverloadPolicy {
        OverloadPolicy::default()
    }

    /// Validates every configured knob.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        if let Some(lanes) = &self.lanes {
            lanes.validate()?;
        }
        if let Some(breaker) = &self.breaker {
            breaker.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_identity_policy_is_valid() {
        let p = OverloadPolicy::none();
        assert_eq!(p.lanes, None);
        assert_eq!(p.breaker, None);
        p.validate().unwrap();
    }

    #[test]
    fn lanes_parse_validate_and_allow_closed_lanes() {
        let p = LanePolicy::parse("knn:0.5,predict:0").unwrap();
        assert!(
            p.get(QueryClass::Range).is_infinite(),
            "unnamed = protected"
        );
        assert_eq!(p.get(QueryClass::Knn), 0.5);
        assert_eq!(p.get(QueryClass::Predict), 0.0, "zero closes the lane");
        assert_eq!(p.window, LanePolicy::DEFAULT_WINDOW);
        p.validate().unwrap();
        assert!(LanePolicy { window: 0, ..p }.validate().is_err());
        assert!(LanePolicy::parse("knn:inf")
            .unwrap()
            .get(QueryClass::Knn)
            .is_infinite());
        for bad in [
            "",
            "knn:-0.5",
            "knn:nan",
            "range",
            "scan:1",
            "range:1,range:2",
        ] {
            assert!(LanePolicy::parse(bad).is_err(), "`{bad}` must be rejected");
        }
        let p = LanePolicy::parse("range:1,knn:2,predict:3").unwrap();
        assert_eq!(LanePolicy::parse(&p.to_string()).unwrap(), p);
    }

    #[test]
    fn policy_validation_covers_every_knob() {
        let mut p = OverloadPolicy::none();
        p.lanes = Some(LanePolicy {
            budget_s: [f64::NAN; 3],
            window: 4,
        });
        assert!(p.validate().is_err());
        p.lanes = None;
        p.breaker = Some(BreakerConfig {
            failure_threshold: 0,
            ..BreakerConfig::new()
        });
        assert!(p.validate().is_err());
    }
}
