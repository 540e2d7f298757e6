//! Statistical sampling primitives used by the prediction pipeline:
//! Gaussian variates, Bernoulli scan samples (the paper's ζ-sampling),
//! and Floyd's sampling without replacement (memory samples and
//! density-biased query draws).

use crate::traits::Rng;

/// Draws one standard-normal variate via the Box–Muller transform.
///
/// Consumes exactly two `f64` draws (so the stream position after a call
/// is seed-stable), and samples `u1` from `(0, 1]` to avoid `ln(0)`.
pub fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen_f64();
    let u2: f64 = rng.gen_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Bernoulli sample of ids `0..n` with probability `fraction` each.
///
/// This is the sampling primitive of the paper's predictors: a single
/// scan over the data file in which each record independently enters the
/// sample with probability ζ. The result is sorted and duplicate-free by
/// construction.
///
/// Degenerate fractions are clamped rather than rejected so the scan is
/// total: `fraction >= 1` returns all ids without consuming any draws,
/// and `fraction <= 0` **or NaN** returns the empty sample. (A NaN ζ
/// would previously silently behave like 0 while still looking like a
/// valid probability to the caller; clamping it explicitly makes the
/// contract testable.)
pub fn bernoulli_sample<R: Rng>(rng: &mut R, n: usize, fraction: f64) -> Vec<u32> {
    if fraction >= 1.0 {
        return (0..n as u32).collect();
    }
    // `fraction.is_nan()` falls through both comparisons; fold it into the
    // empty case instead of scanning n draws that can never hit.
    if fraction <= 0.0 || fraction.is_nan() || n == 0 {
        return Vec::new();
    }
    // Pre-allocate mean + 4σ of the Binomial(n, fraction) size, capped at
    // n: the old `1.1 × mean` heuristic under-allocated for small means
    // (forcing reallocation-heavy growth) and over-allocated past n for
    // fractions near 1.
    let mean = fraction * n as f64;
    let sd = (mean * (1.0 - fraction)).sqrt();
    let cap = (mean + 4.0 * sd).ceil() as usize + 1;
    let mut ids = Vec::with_capacity(cap.min(n));
    for i in 0..n {
        if rng.gen_f64() < fraction {
            ids.push(i as u32);
        }
    }
    ids
}

/// Samples exactly `k` distinct ids from `0..n` uniformly at random
/// (Floyd's algorithm), returned in ascending order. `k > n` is clamped
/// to `n`.
///
/// The prediction pipeline draws its fixed-size samples here: the
/// upper-phase and cutoff memory samples of `M` points, and the
/// density-biased query points (reading q random records from the file,
/// paper Eq. 2).
///
/// Draw `j` picks `t` in `0..=j` and takes `j` itself when `t` is already
/// chosen. The chosen ids are marked in a bitset of `n` bits and read
/// back word by word, which yields them in ascending order with no sort.
/// A call costs `O(n / 64 + k)`, so many tiny samples from a large `n`
/// are better drawn another way.
pub fn sample_without_replacement<R: Rng>(rng: &mut R, n: usize, k: usize) -> Vec<u32> {
    let k = k.min(n);
    let mut chosen = vec![0u64; n.div_ceil(64)];
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        let t = if (chosen[t / 64] >> (t % 64)) & 1 == 0 {
            t
        } else {
            j
        };
        chosen[t / 64] |= 1 << (t % 64);
    }
    let mut ids = Vec::with_capacity(k);
    for (w, mut word) in chosen.into_iter().enumerate() {
        while word != 0 {
            ids.push((w * 64) as u32 + word.trailing_zeros());
            word &= word - 1;
        }
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded;

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded(42);
        let n = 50_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = standard_normal(&mut rng);
            assert!(x.is_finite());
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / f64::from(n);
        let var = sum2 / f64::from(n) - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn bernoulli_sample_rate_and_bounds() {
        let mut rng = seeded(1);
        let ids = bernoulli_sample(&mut rng, 100_000, 0.1);
        let rate = ids.len() as f64 / 100_000.0;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted & distinct");
    }

    #[test]
    fn bernoulli_sample_edge_cases() {
        let mut rng = seeded(2);
        // fraction <= 0: empty, including negative and -0.0.
        assert!(bernoulli_sample(&mut rng, 10, 0.0).is_empty());
        assert!(bernoulli_sample(&mut rng, 10, -0.5).is_empty());
        // fraction >= 1: everything, even far above 1.
        assert_eq!(bernoulli_sample(&mut rng, 10, 1.0).len(), 10);
        assert_eq!(bernoulli_sample(&mut rng, 10, 2.0).len(), 10);
        // n = 0: empty for every fraction.
        assert!(bernoulli_sample(&mut rng, 0, 0.5).is_empty());
        assert!(bernoulli_sample(&mut rng, 0, 1.0).is_empty());
        // NaN fraction: defined as the empty sample, not a scan of misses.
        let before = rng.clone();
        assert!(bernoulli_sample(&mut rng, 10, f64::NAN).is_empty());
        // ... and it must not consume any stream positions.
        assert_eq!(rng, before, "NaN fraction consumed RNG draws");
    }

    #[test]
    fn bernoulli_sample_capacity_is_tight() {
        // The 4σ heuristic must avoid reallocation in the typical case and
        // never reserve more than n.
        let mut rng = seeded(3);
        for &(n, f) in &[(100_000usize, 0.1f64), (50_000, 0.9), (1_000, 0.999)] {
            let ids = bernoulli_sample(&mut rng, n, f);
            assert!(ids.capacity() <= n, "cap {} > n {n}", ids.capacity());
            assert!(ids.len() <= ids.capacity());
        }
    }

    #[test]
    fn sample_without_replacement_properties() {
        let mut rng = seeded(3);
        let s = sample_without_replacement(&mut rng, 1000, 50);
        assert_eq!(s.len(), 50);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&x| (x as usize) < 1000));
        // k > n clamps.
        let s = sample_without_replacement(&mut rng, 5, 10);
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    /// The `BTreeSet` form of Floyd's algorithm that the bitset replaced:
    /// the oracle [`sample_without_replacement`] is pinned against.
    fn sample_without_replacement_btree<R: Rng>(rng: &mut R, n: usize, k: usize) -> Vec<u32> {
        let k = k.min(n);
        let mut chosen = std::collections::BTreeSet::new();
        for j in (n - k)..n {
            let t = rng.gen_range(0..=j) as u32;
            if !chosen.insert(t) {
                chosen.insert(j as u32);
            }
        }
        chosen.into_iter().collect()
    }

    #[test]
    fn bitset_floyd_matches_btree_reference() {
        let mut shapes: Vec<(usize, usize, u64)> = Vec::new();
        // Word-boundary sizes (n mod 64 in {0, 1, 63}) with k = 0, 1,
        // half, n - 1, n and k > n.
        for n in [0usize, 1, 63, 64, 65, 127, 128, 129, 2_669] {
            for k in [0, 1, n / 2, n.saturating_sub(1), n, n + 7] {
                shapes.push((n, k, 0x5EED ^ ((n as u64) << 8) ^ k as u64));
            }
        }
        // Random shapes, and the predictor's 1,250-of-2,669 draw.
        let mut r = seeded(99);
        for seed in 0..200u64 {
            let n = r.gen_range(0..3_000usize);
            let k = r.gen_range(0..=n + 10);
            shapes.push((n, k, seed));
            shapes.push((2_669, 1_250, seed));
        }
        for (n, k, seed) in shapes {
            let (mut a, mut b) = (seeded(seed), seeded(seed));
            let fast = sample_without_replacement(&mut a, n, k);
            let slow = sample_without_replacement_btree(&mut b, n, k);
            assert_eq!(fast, slow, "n = {n}, k = {k}, seed = {seed}");
            // The same draws were consumed, so the streams stay aligned.
            assert_eq!(a, b, "stream position, n = {n}, k = {k}, seed = {seed}");
        }
    }
}
