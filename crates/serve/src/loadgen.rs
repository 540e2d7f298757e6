//! Open-loop load generation on simulated time.
//!
//! Arrival times are drawn from a seeded `hdidx-rand` stream — never from
//! a wall clock — so a load profile is a pure function of `(rate, duration,
//! model, seed)` and every run is replayable bit for bit. The generator is
//! *open-loop*: arrivals do not depend on service completions, which is
//! what makes tail latency under overload observable at all (a closed loop
//! self-throttles and hides the queueing collapse).
//!
//! Two interarrival models:
//!
//! * [`ArrivalModel::Fixed`] — a Poisson process at the configured rate
//!   (i.i.d. exponential gaps via inverse-CDF sampling).
//! * [`ArrivalModel::Bursty`] — a balanced hyperexponential: each gap is
//!   drawn hot (4× the rate) or cold (4/7× the rate) with equal
//!   probability, preserving the mean interarrival `1/rate` exactly while
//!   clumping arrivals into bursts (squared coefficient of variation ≈ 2.1
//!   vs 1 for Poisson).

use crate::request::{MixSpec, Query, QueryClass, Request};
use hdidx_core::{Error, Result};
use hdidx_model::QueryBall;
use hdidx_rand::{derive_seed, seeded, Rng};

/// Interarrival-time model of the open-loop stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalModel {
    /// Poisson arrivals at the configured rate.
    Fixed,
    /// Hyperexponential bursts with the same mean rate.
    Bursty,
}

impl ArrivalModel {
    /// Parses `"fixed"` or `"bursty"`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] for any other name.
    pub fn parse(name: &str) -> Result<ArrivalModel> {
        match name {
            "fixed" => Ok(ArrivalModel::Fixed),
            "bursty" => Ok(ArrivalModel::Bursty),
            other => Err(Error::invalid(
                "arrivals",
                format!("unknown arrival model `{other}` (expected fixed, bursty)"),
            )),
        }
    }

    /// Stable model name.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            ArrivalModel::Fixed => "fixed",
            ArrivalModel::Bursty => "bursty",
        }
    }
}

/// Safety cap on generated requests, so a typo'd rate cannot allocate
/// without bound.
const MAX_REQUESTS: usize = 2_000_000;

/// Decorrelation stream of the load generator's PRNG relative to the base
/// seed (which callers typically share with workload/build seeding).
const LOADGEN_STREAM: u64 = 0x4c6f_6164; // "Load"

/// Deterministic open-loop request-stream generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadGen {
    /// Mean arrival rate, in requests per simulated second.
    pub rate_per_s: f64,
    /// Length of the arrival window, in simulated seconds.
    pub duration_s: f64,
    /// Interarrival model.
    pub model: ArrivalModel,
    /// Base seed; the generator derives its own decorrelated stream.
    pub seed: u64,
}

impl LoadGen {
    /// Checks rate and duration: both must be finite and positive, and the
    /// expected request count must stay under the safety cap.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] describing the violated constraint.
    pub fn validate(&self) -> Result<()> {
        if !self.rate_per_s.is_finite() || self.rate_per_s <= 0.0 {
            return Err(Error::invalid(
                "rate",
                format!("must be positive and finite, got {}", self.rate_per_s),
            ));
        }
        if !self.duration_s.is_finite() || self.duration_s <= 0.0 {
            return Err(Error::invalid(
                "duration",
                format!("must be positive and finite, got {}", self.duration_s),
            ));
        }
        if self.rate_per_s * self.duration_s > MAX_REQUESTS as f64 {
            return Err(Error::invalid(
                "rate",
                format!("rate × duration exceeds the {MAX_REQUESTS}-request cap"),
            ));
        }
        Ok(())
    }

    /// Draws the arrival times in `[0, duration_s)`, ascending.
    ///
    /// # Errors
    ///
    /// Propagates [`LoadGen::validate`].
    pub fn arrivals(&self) -> Result<Vec<f64>> {
        self.validate()?;
        let mut rng = seeded(derive_seed(self.seed, LOADGEN_STREAM));
        let mut out = Vec::with_capacity((self.rate_per_s * self.duration_s) as usize + 1);
        let mut t = 0.0f64;
        loop {
            // Inverse-CDF exponential gap: -ln(1 - u) / λ with u ∈ [0, 1).
            let lambda = match self.model {
                ArrivalModel::Fixed => self.rate_per_s,
                ArrivalModel::Bursty => {
                    // Equal-weight hot/cold mixture with mean gap
                    // 0.5·(1/4λ) + 0.5·(7/4λ) = 1/λ.
                    if rng.gen_f64() < 0.5 {
                        4.0 * self.rate_per_s
                    } else {
                        4.0 * self.rate_per_s / 7.0
                    }
                }
            };
            t += -(1.0 - rng.gen_f64()).ln() / lambda;
            if t >= self.duration_s || out.len() >= MAX_REQUESTS {
                break;
            }
            out.push(t);
        }
        Ok(out)
    }

    /// Generates the full typed request stream: arrivals from the
    /// interarrival model, each paired with a query drawn from
    /// `candidates` (a pool of centers with exact k-NN radii) and classed
    /// by `mix`. K-NN requests use neighbor count `k`.
    ///
    /// # Errors
    ///
    /// Propagates [`LoadGen::validate`]; rejects an empty candidate pool,
    /// an invalid `mix`, and `k == 0`.
    pub fn requests(
        &self,
        candidates: &[QueryBall],
        mix: &MixSpec,
        k: usize,
    ) -> Result<Vec<Request>> {
        mix.validate()?;
        if candidates.is_empty() {
            return Err(Error::EmptyInput("query candidate pool"));
        }
        if k == 0 {
            return Err(Error::invalid("k", "k must be positive"));
        }
        let arrivals = self.arrivals()?;
        let mut rng = seeded(derive_seed(self.seed, LOADGEN_STREAM.wrapping_add(1)));
        let mut out = Vec::with_capacity(arrivals.len());
        for (id, arrival_s) in arrivals.into_iter().enumerate() {
            let class = mix.pick(rng.gen_f64());
            let ball = &candidates[rng.gen_range(0..candidates.len())];
            let query = match class {
                QueryClass::Range => Query::Range {
                    center: ball.center.clone(),
                    radius: ball.radius,
                },
                QueryClass::Knn => Query::Knn {
                    center: ball.center.clone(),
                    k,
                },
                QueryClass::Predict => Query::Predict {
                    center: ball.center.clone(),
                    radius: ball.radius,
                },
            };
            out.push(Request {
                id: id as u64,
                arrival_s,
                query,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> Vec<QueryBall> {
        (0..n)
            .map(|i| QueryBall::new(vec![i as f32, 2.0 * i as f32], 0.5 + i as f64))
            .collect()
    }

    #[test]
    fn arrivals_are_ascending_in_window_and_deterministic() {
        for model in [ArrivalModel::Fixed, ArrivalModel::Bursty] {
            let gen = LoadGen {
                rate_per_s: 500.0,
                duration_s: 2.0,
                model,
                seed: 9,
            };
            let a = gen.arrivals().unwrap();
            let b = gen.arrivals().unwrap();
            assert_eq!(a, b, "{model:?}");
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "{model:?}");
            assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)), "{model:?}");
            // Mean rate within 20% of nominal at this sample size.
            assert!(
                (a.len() as f64 - 1000.0).abs() < 200.0,
                "{model:?}: {} arrivals",
                a.len()
            );
        }
        // Different seeds decorrelate.
        let base = LoadGen {
            rate_per_s: 500.0,
            duration_s: 2.0,
            model: ArrivalModel::Fixed,
            seed: 9,
        };
        let other = LoadGen { seed: 10, ..base };
        assert_ne!(base.arrivals().unwrap(), other.arrivals().unwrap());
    }

    #[test]
    fn bursty_is_burstier_than_fixed() {
        let cv2 = |gaps: &[f64]| {
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        let gaps_of = |model| {
            let a = LoadGen {
                rate_per_s: 1000.0,
                duration_s: 20.0,
                model,
                seed: 3,
            }
            .arrivals()
            .unwrap();
            a.windows(2).map(|w| w[1] - w[0]).collect::<Vec<f64>>()
        };
        let fixed = cv2(&gaps_of(ArrivalModel::Fixed));
        let bursty = cv2(&gaps_of(ArrivalModel::Bursty));
        // Poisson has CV² ≈ 1; the hyperexponential sits near 2.1.
        assert!(fixed < 1.5, "fixed CV² = {fixed}");
        assert!(bursty > fixed + 0.4, "bursty {bursty} vs fixed {fixed}");
    }

    #[test]
    fn requests_follow_the_mix_and_are_deterministic() {
        let gen = LoadGen {
            rate_per_s: 2000.0,
            duration_s: 1.0,
            model: ArrivalModel::Fixed,
            seed: 77,
        };
        let mix = MixSpec::default();
        let reqs = gen.requests(&pool(10), &mix, 7).unwrap();
        assert_eq!(reqs, gen.requests(&pool(10), &mix, 7).unwrap());
        assert!(reqs.len() > 1000);
        // Ids are the arrival order.
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
        let count = |class| {
            reqs.iter()
                .filter(|r| QueryClass::of(&r.query) == class)
                .count()
        };
        let n = reqs.len() as f64;
        assert!((count(QueryClass::Range) as f64 / n - 0.5).abs() < 0.1);
        assert!((count(QueryClass::Knn) as f64 / n - 0.3).abs() < 0.1);
        assert!((count(QueryClass::Predict) as f64 / n - 0.2).abs() < 0.1);
        // Every knn request carries the configured k.
        assert!(reqs.iter().all(|r| match &r.query {
            Query::Knn { k, .. } => *k == 7,
            _ => true,
        }));
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let ok = LoadGen {
            rate_per_s: 10.0,
            duration_s: 1.0,
            model: ArrivalModel::Fixed,
            seed: 0,
        };
        assert!(LoadGen {
            rate_per_s: 0.0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(LoadGen {
            rate_per_s: -5.0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(LoadGen {
            rate_per_s: f64::NAN,
            ..ok
        }
        .validate()
        .is_err());
        assert!(LoadGen {
            duration_s: 0.0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(LoadGen {
            duration_s: f64::INFINITY,
            ..ok
        }
        .validate()
        .is_err());
        assert!(LoadGen {
            rate_per_s: 1e9,
            duration_s: 1e9,
            ..ok
        }
        .validate()
        .is_err());
        // Empty candidate pool and k = 0 are rejected by requests().
        assert!(ok.requests(&[], &MixSpec::default(), 3).is_err());
        assert!(ok.requests(&pool(2), &MixSpec::default(), 0).is_err());
        assert!(ArrivalModel::parse("sinusoidal").is_err());
        assert_eq!(ArrivalModel::parse("fixed").unwrap(), ArrivalModel::Fixed);
        assert_eq!(ArrivalModel::parse("bursty").unwrap(), ArrivalModel::Bursty);
    }
}
