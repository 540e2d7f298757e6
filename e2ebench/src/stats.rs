//! Order statistics, the answer digest and the process memory probe.

/// Fewest samples a p90 is reported from: nearest-rank p90 of `n` samples
/// leaves `n / 10` samples beyond it, and fewer than ten is noise.
pub const MIN_P90_SAMPLES: usize = 100;

/// Nearest-rank percentile `p` (in `(0, 100]`) of `samples`.
///
/// Refuses (returns `None`) when fewer than ten samples would lie beyond
/// the percentile, i.e. when `n * (100 - p) / 100 < 10`.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(p > 0.0 && p <= 100.0) || (n as f64) * (100.0 - p) / 100.0 < 10.0 - 1e-9 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Median (mean of the two middle values for an even count); `None` when
/// empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    })
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// FNV-1a offset basis: the digest of nothing.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the little-endian bytes of `words`, continuing from `h`.
pub fn fnv(mut h: u64, words: &[u64]) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
