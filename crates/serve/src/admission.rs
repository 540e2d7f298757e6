//! Per-class admission lanes: the one mechanism that sheds offered load.
//!
//! Every offered request is priced by a no-shedding shadow pass of the
//! slot algebra, and its shadow queue delay is charged into its class's
//! sliding window. Service times come from `DiskModel::cost_seconds`, so
//! charged fault-retry backoff and retry seeks raise lane pressure under
//! every retry policy: fault pressure sheds through the lanes. All
//! decisions are functions of the request stream and fault plan only —
//! never of wall-clock time or thread scheduling.

use crate::overload::LanePolicy;
use crate::request::QueryClass;
use hdidx_core::Result;
use std::collections::VecDeque;

/// Per-class admission lanes over **shadow queue delays**.
///
/// The server prices the offered stream with a no-shedding shadow pass of
/// its slot algebra; each request's shadow queue delay is charged here
/// into its class's sliding window *before* the admit decision for that
/// request is made. A request is shed when its class's window **mean**
/// exceeds the class budget ([`LanePolicy`]): an infinite budget marks a
/// protected lane (never sheds), a zero budget closes the lane (always
/// sheds — equivalent, digest for digest, to never offering that load).
///
/// Because the pressure signal derives from the offered stream only —
/// never from earlier shed decisions — admission is a pure per-request
/// function, byte-identical at any thread count and monotone in every
/// budget: lowering a budget can only grow that class's shed set.
#[derive(Debug, Clone)]
pub struct LaneState {
    policy: LanePolicy,
    windows: [VecDeque<f64>; QueryClass::COUNT],
}

impl LaneState {
    /// Lane state for a validated policy.
    ///
    /// # Errors
    ///
    /// [`hdidx_core::Error::InvalidParameter`] from [`LanePolicy::validate`].
    pub fn new(policy: LanePolicy) -> Result<LaneState> {
        policy.validate()?;
        Ok(LaneState {
            policy,
            windows: std::array::from_fn(|_| VecDeque::with_capacity(policy.window)),
        })
    }

    /// Charges one shadow queue delay into the class window, then decides
    /// admission for the request that produced it. Returns `true` to admit.
    pub fn admit(&mut self, class: QueryClass, shadow_delay_s: f64) -> bool {
        let i = class.index();
        if self.windows[i].len() == self.policy.window {
            self.windows[i].pop_front();
        }
        self.windows[i].push_back(shadow_delay_s);
        let budget = self.policy.get(class);
        if budget.is_infinite() {
            true
        } else if budget <= 0.0 {
            false
        } else {
            let w = &self.windows[i];
            let mean = w.iter().sum::<f64>() / w.len() as f64;
            mean <= budget
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_shed_by_window_mean_and_respect_protection() {
        let policy = LanePolicy {
            budget_s: [f64::INFINITY, 0.5, 0.0],
            window: 2,
        };
        let mut lanes = LaneState::new(policy).unwrap();
        // Protected lane: admits regardless of pressure.
        assert!(lanes.admit(QueryClass::Range, 1e9));
        // Budgeted lane: mean of the window decides.
        assert!(lanes.admit(QueryClass::Knn, 0.4));
        assert!(!lanes.admit(QueryClass::Knn, 1.0), "mean 0.7 > 0.5");
        assert!(!lanes.admit(QueryClass::Knn, 1.0), "mean 1.0 > 0.5");
        assert!(lanes.admit(QueryClass::Knn, 0.0), "mean 0.5 <= 0.5");
        // Closed lane: always sheds, even at zero pressure.
        assert!(!lanes.admit(QueryClass::Predict, 0.0));
    }

    #[test]
    fn lane_shedding_is_monotone_in_the_budget() {
        // The same delay stream under a tighter budget must shed a superset.
        let delays: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 100) / 50.0).collect();
        let shed_set = |budget: f64| -> Vec<usize> {
            let mut lanes = LaneState::new(LanePolicy {
                budget_s: [budget; QueryClass::COUNT],
                window: 8,
            })
            .unwrap();
            delays
                .iter()
                .enumerate()
                .filter(|&(_, &d)| !lanes.admit(QueryClass::Range, d))
                .map(|(i, _)| i)
                .collect()
        };
        let mut prev = shed_set(f64::INFINITY);
        assert!(prev.is_empty());
        for budget in [2.0, 1.0, 0.5, 0.1, 0.0] {
            let cur = shed_set(budget);
            assert!(
                prev.iter().all(|i| cur.contains(i)),
                "budget {budget}: shed set must contain the looser set"
            );
            prev = cur;
        }
        assert_eq!(prev.len(), delays.len(), "closed lane sheds everything");
    }
}
