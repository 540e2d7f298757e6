//! Seeded property testing: generate cases from a deterministic PRNG,
//! report the failing case's seed, and shrink the failing input.
//!
//! The harness replaces `proptest` for this workspace with three ideas:
//!
//! 1. **Cases are seeds.** Every case draws its input from a
//!    [`Xoshiro256pp`] seeded with a value derived from the run seed and
//!    the case index. A failure report prints that case seed, and
//!    `HDIDX_CHECK_REPLAY=<seed>` re-runs exactly that input.
//! 2. **Properties return a [`Verdict`]**, not a panic: `Pass`,
//!    `Discard` (the input misses a precondition — draw another) or
//!    `Fail(message)`. Panics inside a property are caught and treated
//!    as failures, so plain `assert!`/`unwrap` still work.
//! 3. **Failing inputs shrink** via [`Shrink`]:
//!    greedy descent to a fixed point, bounded by
//!    [`Config::max_shrink_iters`].
//!
//! ```
//! use hdidx_check::{check, Config, Verdict};
//! use hdidx_rand::Rng;
//!
//! check(
//!     "sum is commutative",
//!     &Config::with_cases(64),
//!     |rng| (rng.gen::<u32>() >> 1, rng.gen::<u32>() >> 1),
//!     |&(a, b)| {
//!         hdidx_check::prop_assert_eq!(a + b, b + a);
//!         Verdict::Pass
//!     },
//! );
//! ```

use crate::shrink::Shrink;
use hdidx_rand::{splitmix, Xoshiro256pp};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Outcome of evaluating a property on one input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds for this input.
    Pass,
    /// The input misses a precondition; it does not count as a case.
    Discard,
    /// The property is violated; the message explains how.
    Fail(String),
}

/// Property-run configuration.
///
/// Environment overrides (read by [`Config::from_env`], which all
/// constructors apply):
///
/// * `HDIDX_CHECK_CASES`  — override the number of cases per property.
/// * `HDIDX_CHECK_SEED`   — override the base seed of the run.
/// * `HDIDX_CHECK_REPLAY` — run exactly one case from this case seed
///   (the value printed in a failure report), skipping generation of all
///   other cases.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of passing cases required.
    pub cases: u32,
    /// Base seed; case `i` uses a sub-seed derived from it.
    pub seed: u64,
    /// Upper bound on property evaluations spent shrinking a failure.
    pub max_shrink_iters: u32,
    /// Give up with an error after `cases * max_discard_ratio` discards.
    pub max_discard_ratio: u32,
    /// When set, replay exactly this case seed and nothing else.
    pub replay: Option<u64>,
}

impl Default for Config {
    fn default() -> Self {
        Self::with_cases(256)
    }
}

impl Config {
    /// A config running `cases` cases from the default seed, with
    /// environment overrides applied.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self {
            cases,
            seed: 0x5eed_001d_1d05_ca1e ^ 0xa076_1d64_78bd_642f,
            max_shrink_iters: 512,
            max_discard_ratio: 16,
            replay: None,
        }
        .from_env()
    }

    /// Applies the `HDIDX_CHECK_*` environment overrides.
    #[must_use]
    pub fn from_env(mut self) -> Self {
        if let Some(c) = env_u64("HDIDX_CHECK_CASES") {
            self.cases = c as u32;
        }
        if let Some(s) = env_u64("HDIDX_CHECK_SEED") {
            self.seed = s;
        }
        self.replay = env_u64("HDIDX_CHECK_REPLAY").or(self.replay);
        self
    }
}

fn env_u64(key: &str) -> Option<u64> {
    let raw = std::env::var(key).ok()?;
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("[hdidx-check] cannot parse {key}={raw} as u64"),
    }
}

/// Evaluates the property, converting panics into failures.
fn eval<T, P>(prop: &P, input: &T) -> Verdict
where
    P: Fn(&T) -> Verdict,
{
    match catch_unwind(AssertUnwindSafe(|| prop(input))) {
        Ok(v) => v,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "property panicked".to_string());
            Verdict::Fail(format!("panic: {msg}"))
        }
    }
}

/// Checks `prop` against `cfg.cases` inputs drawn by `gen`.
///
/// Panics with a structured report (test name, case index, case seed,
/// original and shrunken inputs, replay instructions) on the first
/// failing case, after shrinking it.
///
/// # Panics
///
/// On property failure, or when the discard budget is exhausted.
pub fn check<T, G, P>(name: &str, cfg: &Config, gen: G, prop: P)
where
    T: Clone + Debug + Shrink,
    G: Fn(&mut Xoshiro256pp) -> T,
    P: Fn(&T) -> Verdict,
{
    if let Some(case_seed) = cfg.replay {
        let input = gen(&mut Xoshiro256pp::seed_from_u64(case_seed));
        match eval(&prop, &input) {
            Verdict::Fail(msg) => fail_report(name, 0, case_seed, &input, &input, 0, &msg),
            Verdict::Discard => {
                eprintln!("[hdidx-check] {name}: replayed case {case_seed:#018x} was discarded");
            }
            Verdict::Pass => {}
        }
        return;
    }

    let mut passed: u32 = 0;
    let mut discarded: u64 = 0;
    let mut attempt: u64 = 0;
    while passed < cfg.cases {
        let case_seed = splitmix::derive_seed(cfg.seed, attempt);
        attempt += 1;
        let input = gen(&mut Xoshiro256pp::seed_from_u64(case_seed));
        match eval(&prop, &input) {
            Verdict::Pass => passed += 1,
            Verdict::Discard => {
                discarded += 1;
                let budget = u64::from(cfg.cases) * u64::from(cfg.max_discard_ratio);
                assert!(
                    discarded <= budget,
                    "[hdidx-check] property '{name}': {discarded} discards for {passed} passes \
                     (budget {budget}); loosen the generator or the preconditions"
                );
            }
            Verdict::Fail(msg) => {
                let (minimal, min_msg, steps) = shrink_failure(cfg, &prop, input.clone(), &msg);
                fail_report(
                    name,
                    attempt - 1,
                    case_seed,
                    &input,
                    &minimal,
                    steps,
                    &min_msg,
                );
            }
        }
    }
}

/// Greedy shrink: repeatedly move to the first still-failing candidate.
fn shrink_failure<T, P>(cfg: &Config, prop: &P, input: T, msg: &str) -> (T, String, u32)
where
    T: Clone + Debug + Shrink,
    P: Fn(&T) -> Verdict,
{
    let mut best = input;
    let mut best_msg = msg.to_string();
    let mut iters: u32 = 0;
    'descend: loop {
        for cand in best.shrink() {
            if iters >= cfg.max_shrink_iters {
                break 'descend;
            }
            iters += 1;
            if let Verdict::Fail(m) = eval(prop, &cand) {
                best = cand;
                best_msg = m;
                continue 'descend;
            }
        }
        break;
    }
    (best, best_msg, iters)
}

fn fail_report<T: Debug>(
    name: &str,
    case: u64,
    case_seed: u64,
    original: &T,
    minimal: &T,
    shrink_steps: u32,
    msg: &str,
) -> ! {
    panic!(
        "\n[hdidx-check] property '{name}' FAILED\n\
         \x20 case        : #{case} (seed {case_seed:#018x})\n\
         \x20 error       : {msg}\n\
         \x20 original    : {original:?}\n\
         \x20 minimal     : {minimal:?}  ({shrink_steps} shrink evals)\n\
         \x20 replay with : HDIDX_CHECK_REPLAY={case_seed:#x} cargo test {name}\n"
    );
}

/// Asserts a condition inside a property, failing the case (not the
/// process) when it does not hold.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return $crate::Verdict::Fail(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return $crate::Verdict::Fail(format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a property, showing both sides on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return $crate::Verdict::Fail(format!(
                "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
}

/// Discards the current case when a precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return $crate::Verdict::Discard;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_rand::Rng;

    fn quiet() -> Config {
        // Bypass env overrides so the harness's own tests stay hermetic.
        Config {
            cases: 64,
            seed: 99,
            max_shrink_iters: 256,
            max_discard_ratio: 16,
            replay: None,
        }
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let mut cfg = quiet();
        cfg.cases = 32;
        check(
            "u32 halves fit",
            &cfg,
            |rng| rng.gen::<u32>(),
            |&x| {
                prop_assert!(u64::from(x / 2) * 2 <= u64::from(x));
                Verdict::Pass
            },
        );
    }

    #[test]
    fn failing_property_shrinks_to_threshold() {
        let result = catch_unwind(|| {
            check(
                "fails at >= 100",
                &quiet(),
                |rng| rng.gen_range(0..1_000_000usize),
                |&x| {
                    prop_assert!(x < 100, "x = {x}");
                    Verdict::Pass
                },
            );
        });
        let msg = match result {
            Err(payload) => payload.downcast_ref::<String>().unwrap().clone(),
            Ok(()) => panic!("property should have failed"),
        };
        // Greedy scalar shrinking lands exactly on the boundary value.
        assert!(msg.contains("minimal     : 100"), "{msg}");
        assert!(msg.contains("HDIDX_CHECK_REPLAY="), "{msg}");
    }

    #[test]
    fn panics_are_reported_as_failures() {
        let result = catch_unwind(|| {
            check(
                "panics on big",
                &quiet(),
                |rng| rng.gen_range(0..100usize),
                |&x| {
                    assert!(x < 90, "boom {x}");
                    Verdict::Pass
                },
            );
        });
        assert!(result.is_err());
    }

    #[test]
    fn discards_do_not_count_as_cases() {
        let hits = std::cell::Cell::new(0u32);
        let cfg = quiet();
        check(
            "only evens",
            &cfg,
            |rng| rng.gen::<u32>(),
            |&x| {
                prop_assume!(x % 2 == 0);
                hits.set(hits.get() + 1);
                prop_assert!(x % 2 == 0);
                Verdict::Pass
            },
        );
        assert!(hits.get() >= cfg.cases);
    }

    #[test]
    #[should_panic(expected = "discards")]
    fn impossible_preconditions_exhaust_the_budget() {
        check(
            "never satisfiable",
            &quiet(),
            |rng| rng.gen::<u32>(),
            |_| Verdict::Discard,
        );
    }

    #[test]
    fn same_seed_same_cases() {
        let collect = || {
            let inputs = std::cell::RefCell::new(Vec::new());
            check(
                "trace",
                &quiet(),
                |rng| rng.gen::<u64>(),
                |&x| {
                    inputs.borrow_mut().push(x);
                    Verdict::Pass
                },
            );
            inputs.into_inner()
        };
        assert_eq!(collect(), collect());
    }
}
