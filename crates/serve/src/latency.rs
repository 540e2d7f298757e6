//! Exact tail-latency accounting.
//!
//! The recorder keeps **every** per-query latency sample (simulated
//! seconds) in completion order and reports exact nearest-rank percentiles
//! via [`hdidx_check::stats`] — no reservoirs, no histograms, no
//! approximation. At serving-experiment scale (≤ 2M requests) exact
//! samples are cheap, and they buy two properties the subsystem's
//! determinism contract needs: the digest of the sample stream is
//! byte-comparable across thread counts, and every reported percentile is
//! a latency some request actually experienced.

use hdidx_check::stats;
use hdidx_core::{fnv1a, FNV_OFFSET};

/// Exact-sample latency recorder for one serving run (or sweep cell).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyRecorder {
    samples: Vec<f64>,
}

/// Percentile summary of a recorder's samples, all values exact observed
/// latencies in simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of recorded samples.
    pub count: usize,
    /// Nearest-rank median.
    pub p50_s: f64,
    /// Nearest-rank 95th percentile.
    pub p95_s: f64,
    /// Nearest-rank 99th percentile.
    pub p99_s: f64,
    /// Largest sample.
    pub max_s: f64,
    /// Arithmetic mean.
    pub mean_s: f64,
}

impl LatencyRecorder {
    /// Empty recorder.
    #[must_use]
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Appends one latency sample (seconds), in completion order.
    pub fn record(&mut self, latency_s: f64) {
        self.samples.push(latency_s);
    }

    /// The raw samples, in record order.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// FNV-1a hash over the little-endian bit patterns of the samples in
    /// record order. Two runs are byte-identical iff digests match, which
    /// makes the determinism contract observable from CLI output alone.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.samples
            .iter()
            .fold(FNV_OFFSET, |h, s| fnv1a(h, &s.to_bits().to_le_bytes()))
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean of the samples, or `None` when empty.
    #[must_use]
    pub fn mean_s(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Largest sample (by IEEE total order), or `None` when empty.
    #[must_use]
    pub fn max_s(&self) -> Option<f64> {
        self.samples.iter().copied().max_by(f64::total_cmp)
    }

    /// Exact nearest-rank percentile summary, or `None` when the recorder
    /// is empty or a sample is NaN (a NaN latency is an accounting bug and
    /// must not silently vanish inside a percentile).
    #[must_use]
    pub fn summary(&self) -> Option<LatencySummary> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        Some(LatencySummary {
            count: sorted.len(),
            p50_s: stats::p50(&sorted)?,
            p95_s: stats::p95(&sorted)?,
            p99_s: stats::p99(&sorted)?,
            max_s: *sorted.last()?,
            mean_s: sorted.iter().sum::<f64>() / sorted.len() as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reports_exact_observed_percentiles() {
        let mut rec = LatencyRecorder::new();
        // Record out of order; summary sorts internally.
        for v in (1..=100).rev() {
            rec.record(f64::from(v) * 1e-3);
        }
        let s = rec.summary().unwrap();
        assert_eq!(s.count, 100);
        assert!((s.p50_s - 0.050).abs() < 1e-12);
        assert!((s.p95_s - 0.095).abs() < 1e-12);
        assert!((s.p99_s - 0.099).abs() < 1e-12);
        assert!((s.max_s - 0.100).abs() < 1e-12);
        assert!((s.mean_s - 0.0505).abs() < 1e-12);
    }

    #[test]
    fn empty_and_nan_yield_none() {
        assert_eq!(LatencyRecorder::new().summary(), None);
        let mut rec = LatencyRecorder::new();
        rec.record(1.0);
        rec.record(f64::NAN);
        assert_eq!(rec.summary(), None);
    }

    #[test]
    fn mean_and_max_accessors_match_the_summary() {
        let mut rec = LatencyRecorder::new();
        assert_eq!(rec.mean_s(), None);
        assert_eq!(rec.max_s(), None);
        assert!(rec.is_empty());
        for v in [0.3, 0.1, 0.2] {
            rec.record(v);
        }
        assert_eq!(rec.len(), 3);
        let s = rec.summary().unwrap();
        assert_eq!(rec.mean_s(), Some(s.mean_s));
        assert_eq!(rec.max_s(), Some(s.max_s));
        assert!((rec.max_s().unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn digest_depends_on_order_and_bits() {
        let mut a = LatencyRecorder::new();
        a.record(0.25);
        a.record(0.5);
        let mut b = LatencyRecorder::new();
        b.record(0.5);
        b.record(0.25);
        assert_ne!(a.digest(), b.digest(), "order must matter");
        let mut c = LatencyRecorder::new();
        c.record(0.25);
        c.record(0.5);
        assert_eq!(a.digest(), c.digest());
        assert_ne!(a.digest(), LatencyRecorder::new().digest());
        // -0.0 and +0.0 differ bitwise, so they must differ in the digest.
        let mut pz = LatencyRecorder::new();
        pz.record(0.0);
        let mut nz = LatencyRecorder::new();
        nz.record(-0.0);
        assert_ne!(pz.digest(), nz.digest());
    }
}
