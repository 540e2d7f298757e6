//! Typed serving requests and the read-mix specification.

use hdidx_core::{Error, Result};

/// One typed query a [`crate::Server`] can execute.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Ball (range) query: read every leaf page whose MINDIST to `center`
    /// is at most `radius`.
    Range {
        /// Query center.
        center: Vec<f32>,
        /// Query-sphere radius.
        radius: f64,
    },
    /// Exact k-NN: resolve the k-NN radius against the dataset, then read
    /// the leaf pages of the resulting sphere — the access set the
    /// best-first search visits.
    Knn {
        /// Query center.
        center: Vec<f32>,
        /// Neighbor count.
        k: usize,
    },
    /// Cost prediction: count the grown upper-tree leaves the sphere
    /// intersects, entirely in memory (the paper's sampled estimate); no
    /// disk I/O is charged.
    Predict {
        /// Query center.
        center: Vec<f32>,
        /// Query-sphere radius.
        radius: f64,
    },
}

/// The three query classes as a dense index — the unit overload policy
/// (admission lanes, per-class latency accounting) is keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Ball (range) queries.
    Range,
    /// Exact k-NN queries.
    Knn,
    /// Cost predictions.
    Predict,
}

impl QueryClass {
    /// Number of classes (array-index bound).
    pub const COUNT: usize = 3;

    /// All classes, in index order.
    pub const ALL: [QueryClass; QueryClass::COUNT] =
        [QueryClass::Range, QueryClass::Knn, QueryClass::Predict];

    /// The class of a query.
    #[must_use]
    pub fn of(query: &Query) -> QueryClass {
        match query {
            Query::Range { .. } => QueryClass::Range,
            Query::Knn { .. } => QueryClass::Knn,
            Query::Predict { .. } => QueryClass::Predict,
        }
    }

    /// Dense index (`range` 0, `knn` 1, `predict` 2).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable class name (`"range"`, `"knn"`, `"predict"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            QueryClass::Range => "range",
            QueryClass::Knn => "knn",
            QueryClass::Predict => "predict",
        }
    }

    /// Parses a class name.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] for anything but the three class names.
    pub fn parse(name: &str) -> Result<QueryClass> {
        match name {
            "range" => Ok(QueryClass::Range),
            "knn" => Ok(QueryClass::Knn),
            "predict" => Ok(QueryClass::Predict),
            other => Err(Error::invalid(
                "class",
                format!("unknown class `{other}` (expected range, knn, predict)"),
            )),
        }
    }
}

impl std::fmt::Display for QueryClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A request in the open-loop arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Sequence number in arrival order. Also the fault-plan stream of the
    /// request: its injected faults are a pure function of `(fault seed,
    /// id)`, never of scheduling.
    pub id: u64,
    /// Simulated arrival time, in seconds from the start of the run.
    pub arrival_s: f64,
    /// The typed query to execute.
    pub query: Query,
}

/// Workload mix: the fraction of requests drawn as range / k-NN / predict.
///
/// Fractions must be finite, non-negative, and sum to 1 (within 1e-6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixSpec {
    /// Fraction of [`Query::Range`] requests.
    pub range: f64,
    /// Fraction of [`Query::Knn`] requests.
    pub knn: f64,
    /// Fraction of [`Query::Predict`] requests.
    pub predict: f64,
}

impl Default for MixSpec {
    /// The default serving mix: half range reads, 30 % k-NN, 20 % cost
    /// predictions.
    fn default() -> Self {
        MixSpec {
            range: 0.5,
            knn: 0.3,
            predict: 0.2,
        }
    }
}

impl MixSpec {
    /// Parses a `class:fraction[,class:fraction...]` spec, e.g.
    /// `range:0.5,knn:0.3,predict:0.2`. Unnamed classes default to 0; the
    /// named fractions must sum to 1.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] with a field-oriented message (matching
    /// the CSV reader's line-oriented style) for an unknown class, an
    /// unparsable or out-of-range fraction, a duplicated class, or
    /// fractions that do not sum to 1.
    pub fn parse(spec: &str) -> Result<MixSpec> {
        let mut mix = MixSpec {
            range: 0.0,
            knn: 0.0,
            predict: 0.0,
        };
        let mut seen = [false; QueryClass::COUNT];
        for (i, part) in spec.split(',').enumerate() {
            let field = i + 1;
            let (name, frac) = part.split_once(':').ok_or_else(|| {
                Error::invalid(
                    "mix",
                    format!("field {field}: expected class:fraction, got `{part}`"),
                )
            })?;
            let class = QueryClass::parse(name)
                .map_err(|e| Error::invalid("mix", format!("field {field}: {e}")))?;
            if seen[class.index()] {
                return Err(Error::invalid(
                    "mix",
                    format!("field {field}: class `{name}` given twice"),
                ));
            }
            seen[class.index()] = true;
            let value: f64 = frac.parse().map_err(|_| {
                Error::invalid(
                    "mix",
                    format!("field {field}: cannot parse fraction `{frac}`"),
                )
            })?;
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(Error::invalid(
                    "mix",
                    format!("field {field}: fraction `{frac}` must lie in [0, 1]"),
                ));
            }
            match class {
                QueryClass::Range => mix.range = value,
                QueryClass::Knn => mix.knn = value,
                QueryClass::Predict => mix.predict = value,
            }
        }
        mix.validate()?;
        Ok(mix)
    }

    /// Checks the mix: finite fractions in `[0, 1]` summing to 1.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] describing the violated constraint.
    pub fn validate(&self) -> Result<()> {
        for (name, f) in [
            ("range", self.range),
            ("knn", self.knn),
            ("predict", self.predict),
        ] {
            if !f.is_finite() || !(0.0..=1.0).contains(&f) {
                return Err(Error::invalid(
                    "mix",
                    format!("fraction for `{name}` must lie in [0, 1], got {f}"),
                ));
            }
        }
        let sum = self.range + self.knn + self.predict;
        if (sum - 1.0).abs() > 1e-6 {
            return Err(Error::invalid(
                "mix",
                format!("fractions must sum to 1.0, got {sum}"),
            ));
        }
        Ok(())
    }

    /// Maps a uniform draw `u ∈ [0, 1)` to a query class by cumulative
    /// fraction: `[0, range)` → range, `[range, range+knn)` → k-NN, the
    /// rest → predict.
    #[must_use]
    pub fn pick(&self, u: f64) -> QueryClass {
        if u < self.range {
            QueryClass::Range
        } else if u < self.range + self.knn {
            QueryClass::Knn
        } else {
            QueryClass::Predict
        }
    }
}

impl std::fmt::Display for MixSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "range:{},knn:{},predict:{}",
            self.range, self.knn, self.predict
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_and_partial_specs() {
        let mix = MixSpec::parse("range:0.5,knn:0.3,predict:0.2").unwrap();
        assert_eq!(
            mix,
            MixSpec {
                range: 0.5,
                knn: 0.3,
                predict: 0.2
            }
        );
        // Unnamed classes default to zero.
        let mix = MixSpec::parse("range:1.0").unwrap();
        assert_eq!(mix.range, 1.0);
        assert_eq!(mix.knn, 0.0);
        assert_eq!(mix.predict, 0.0);
        let mix = MixSpec::parse("knn:0.25,range:0.75").unwrap();
        assert_eq!(mix.knn, 0.25);
        // Round-trips through Display.
        assert_eq!(MixSpec::parse(&mix.to_string()).unwrap(), mix);
    }

    #[test]
    fn rejects_malformed_specs_with_field_numbers() {
        let e = MixSpec::parse("range:0.5,knn").unwrap_err().to_string();
        assert!(e.contains("field 2"), "{e}");
        assert!(e.contains("class:fraction"), "{e}");
        let e = MixSpec::parse("scan:1.0").unwrap_err().to_string();
        assert!(e.contains("unknown class `scan`"), "{e}");
        let e = MixSpec::parse("range:0.5,range:0.5")
            .unwrap_err()
            .to_string();
        assert!(e.contains("field 2") && e.contains("twice"), "{e}");
        let e = MixSpec::parse("range:lots").unwrap_err().to_string();
        assert!(e.contains("cannot parse fraction"), "{e}");
        let e = MixSpec::parse("range:-0.5,knn:1.5")
            .unwrap_err()
            .to_string();
        assert!(e.contains("must lie in [0, 1]"), "{e}");
        let e = MixSpec::parse("range:0.5,knn:0.3").unwrap_err().to_string();
        assert!(e.contains("sum to 1.0"), "{e}");
        let e = MixSpec::parse("range:nan").unwrap_err().to_string();
        assert!(e.contains("must lie in [0, 1]"), "{e}");
    }

    #[test]
    fn pick_follows_cumulative_fractions() {
        let mix = MixSpec::default();
        assert_eq!(mix.pick(0.0), QueryClass::Range);
        assert_eq!(mix.pick(0.49), QueryClass::Range);
        assert_eq!(mix.pick(0.5), QueryClass::Knn);
        assert_eq!(mix.pick(0.79), QueryClass::Knn);
        assert_eq!(mix.pick(0.8), QueryClass::Predict);
        assert_eq!(mix.pick(0.999), QueryClass::Predict);
        let all_knn = MixSpec {
            range: 0.0,
            knn: 1.0,
            predict: 0.0,
        };
        assert_eq!(all_knn.pick(0.0), QueryClass::Knn);
    }

    #[test]
    fn query_class_round_trips_names_and_indexes_densely() {
        for (i, c) in QueryClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(QueryClass::parse(c.as_str()).unwrap(), *c);
            assert_eq!(c.to_string(), c.as_str());
        }
        let e = QueryClass::parse("scan").unwrap_err().to_string();
        assert!(e.contains("unknown class `scan`"), "{e}");
    }

    #[test]
    fn query_class_of_maps_each_variant() {
        let c = vec![0.0f32];
        let queries = [
            Query::Range {
                center: c.clone(),
                radius: 1.0,
            },
            Query::Knn {
                center: c.clone(),
                k: 3,
            },
            Query::Predict {
                center: c,
                radius: 1.0,
            },
        ];
        let classes: Vec<QueryClass> = queries.iter().map(QueryClass::of).collect();
        assert_eq!(classes, QueryClass::ALL);
    }
}
