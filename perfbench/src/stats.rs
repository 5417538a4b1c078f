//! Small, pure helpers the benchmark's numbers go through: percentiles,
//! metric-name checks and the unattributed-time remainder.

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported: fewer, and the figure is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of all samples at or below it. `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = rank_of(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// [`nearest_rank`], but only when at least [`MIN_BEYOND`] samples lie
/// beyond the percentile's rank; `None` otherwise.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = rank_of(sorted.len(), p)?;
    (sorted.len() - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// 1-based nearest rank of percentile `p` over `n` samples.
fn rank_of(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Median by nearest rank of an unsorted sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 50.0).unwrap_or(0.0)
}

/// Groups `(t, value)` samples into `windows` consecutive spans of `span`
/// seconds by `t`; samples past the last span land in the last window.
pub fn split_windows(
    samples: impl IntoIterator<Item = (f64, f64)>,
    windows: usize,
    span: f64,
) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); windows];
    for (t, v) in samples {
        let i = ((t / span).max(0.0) as usize).min(windows - 1);
        out[i].push(v);
    }
    out
}

/// The median over windows of each window's [`tail_percentile`] `p`, so a
/// stall confined to one window moves the figure no more than one sample
/// of five does. `None` when any window is too small for `p`.
pub fn windowed_percentile(windows: &[Vec<f64>], p: f64) -> Option<f64> {
    let mut per_window = Vec::with_capacity(windows.len());
    for w in windows {
        let mut sorted = w.clone();
        sorted.sort_by(f64::total_cmp);
        per_window.push(tail_percentile(&sorted, p)?);
    }
    (!per_window.is_empty()).then(|| median(&per_window))
}

/// True when `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The part of a served request's median that no replayed layer accounts
/// for: `served_p50` minus the sum of the layers' medians. Negative when
/// the replayed layers, run alone, take longer than the served request.
pub fn unattributed(served_p50: f64, layer_p50s: &[f64]) -> f64 {
    served_p50 - layer_p50s.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v = ramp(10);
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&v, 101.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        let v = ramp(1000);
        assert_eq!(tail_percentile(&v, 99.0), Some(990.0));
        // With 999 samples the p99 rank is 990 and only nine lie beyond.
        assert_eq!(tail_percentile(&ramp(999), 99.0), None);
        // A median always qualifies once there are twenty samples.
        assert_eq!(tail_percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(tail_percentile(&ramp(19), 50.0), None);
    }

    #[test]
    fn windows_split_by_time_and_clamp() {
        let w = split_windows([(0.5, 1.0), (1.5, 2.0), (2.9, 3.0), (7.0, 4.0)], 3, 1.0);
        assert_eq!(w, vec![vec![1.0], vec![2.0], vec![3.0, 4.0]]);
    }

    #[test]
    fn windowed_percentile_ignores_one_slow_window() {
        let fast = ramp(100);
        let slow: Vec<f64> = ramp(100).iter().map(|v| v * 10.0).collect();
        let windows = vec![fast.clone(), slow, fast.clone(), fast.clone(), fast];
        assert_eq!(windowed_percentile(&windows, 50.0), Some(50.0));
        assert_eq!(windowed_percentile(&windows, 90.0), Some(90.0));
        // p95 of 100 samples leaves only five beyond it.
        assert_eq!(windowed_percentile(&windows, 95.0), None);
        assert_eq!(windowed_percentile(&[], 50.0), None);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "setup_s",
            "serve.api.parse_ms",
            "top5_frac",
            "a-b.c_d",
            "5xx",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "slash/name",
            "ü",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    fn unattributed_is_the_remainder() {
        assert_eq!(unattributed(10.0, &[2.0, 3.0, 1.5]), 3.5);
        assert_eq!(unattributed(4.0, &[]), 4.0);
        assert_eq!(unattributed(1.0, &[0.75, 0.5]), -0.25);
    }
}
