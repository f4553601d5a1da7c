//! Order statistics for latency samples.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a tail figure always rests on more than a handful of
//! outliers. Failed or missing requests enter as `f64::INFINITY`: they
//! count as missing every latency limit instead of silently thinning the
//! sample.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `samples` (`0 < q < 1`), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    // 1-based nearest rank; the samples after it are the ones "beyond".
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Smallest sample count for which [`percentile`] reports `q`.
pub fn samples_needed(q: f64) -> usize {
    (1..).find(|&n| n - ((q * n as f64).ceil() as usize).clamp(1, n) >= MIN_BEYOND).unwrap_or(0)
}

/// Median of a non-empty slice (mean of the middle pair for even length).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_keeps_ten_samples_beyond_the_reported_rank() {
        for q in [0.5, 0.9, 0.95, 0.99] {
            let need = samples_needed(q);
            let samples: Vec<f64> = (0..need).map(|i| i as f64).collect();
            let p = percentile(&samples, q).expect("enough samples");
            let beyond = samples.iter().filter(|&&x| x > p).count();
            assert!(beyond >= MIN_BEYOND, "q={q}: {beyond} beyond {p}");
            assert_eq!(percentile(&samples[..need - 1], q), None, "q={q}");
        }
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.5), 20);
    }

    #[test]
    fn failures_count_as_infinitely_slow() {
        let mut samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let clean = percentile(&samples, 0.99).unwrap();
        for x in samples.iter_mut().take(20) {
            *x = f64::INFINITY;
        }
        assert!(percentile(&samples, 0.99).unwrap() > clean);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
