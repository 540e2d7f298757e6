//! # hdidx-rand
//!
//! Self-contained deterministic randomness for the `hdidx` workspace:
//! a xoshiro256++ generator seeded through SplitMix64, a small [`Rng`]
//! trait, and the statistical primitives the paper's pipeline needs
//! (Box–Muller Gaussians, Bernoulli scan sampling, Floyd's sampling
//! without replacement).
//!
//! The crate has **zero external dependencies** by design: the paper's
//! contribution rests on *reproducible* sampling, so the workspace owns
//! its randomness end to end instead of tracking an external crate whose
//! streams may shift between versions.
//!
//! ## Stream stability guarantee
//!
//! The bit streams produced by [`seeded`], [`Xoshiro256pp`] and
//! [`SplitMix64`] are part of the public contract of this crate: a given
//! seed must produce the same `u64`/`f64`/`f32` sequence on every
//! platform and in every future version. The golden-vector tests in
//! `tests/determinism.rs` pin the streams; any change that breaks them is
//! a breaking API change, not a patch.

pub mod splitmix;
pub mod stats;
pub mod traits;
pub mod xoshiro;

pub use splitmix::{derive_seed, SplitMix64};
pub use stats::{bernoulli_sample, sample_without_replacement, standard_normal};
pub use traits::{Rng, Sample, SampleRange};
pub use xoshiro::Xoshiro256pp;

/// Creates the workspace's default deterministic RNG from a 64-bit seed.
///
/// This is the single entry point every crate in the workspace uses; the
/// returned generator is a [`Xoshiro256pp`] whose 256-bit state is expanded
/// from `seed` with SplitMix64 (the seeding procedure recommended by the
/// xoshiro authors, which also guarantees a non-zero state).
#[must_use]
pub fn seeded(seed: u64) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64(seed)
}
