//! The arithmetic behind every reported number: medians, percentiles,
//! run-to-run spread, and the long-minus-short subtraction that takes
//! start-up out of a subprocess measurement.

/// Percentiles the report may quote, ascending.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count, NaN
/// for none.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps `90 % of 100` at 90 when the product rounds up to
/// 90.00000000000001.
fn rank_of(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted_values`.
pub fn percentile(sorted_values: &[f64], p: f64) -> f64 {
    if sorted_values.is_empty() {
        return f64::NAN;
    }
    sorted_values[rank_of(p, sorted_values.len()).clamp(1, sorted_values.len()) - 1]
}

/// Percentile `p` of unsorted `values`.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    percentile(&sorted(values), p)
}

/// Percentile `want` of `values` if that many samples support it,
/// otherwise the highest percentile they do support (a smoke run's few
/// samples quote a median, not a p99 made of one outlier).
pub fn supported_percentile_of(values: &[f64], want: f64) -> f64 {
    percentile_of(values, tail_percentile(values.len()).map_or(50.0, |p| p.min(want)))
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it among `n` — the tail a report may quote without
/// quoting noise. `None` below twenty samples (not even the median
/// qualifies).
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| n >= rank_of(p, n) + 10)
}

/// Index of the smallest of `values` (the first of equals; 0 for none):
/// the repetition a run reports, since the box's noise only adds time.
pub fn fastest(values: &[f64]) -> usize {
    (0..values.len()).min_by(|&a, &b| values[a].total_cmp(&values[b])).unwrap_or(0)
}

/// `(max − min) / median`, in percent: how far the repetitions of one
/// run disagree.
pub fn spread_pct(values: &[f64]) -> f64 {
    let v = sorted(values);
    match (v.first(), v.last()) {
        (Some(lo), Some(hi)) => (hi - lo) / median(&v) * 100.0,
        _ => f64::NAN,
    }
}

/// Steps per second of the steps a long run executes beyond a short
/// one, with everything both runs share (spawn, rendezvous, warm-up,
/// final evaluation) subtracted out. `None` when the long run was not
/// measurably longer.
pub fn rate_beyond(long_steps: u64, short_steps: u64, long_s: f64, short_s: f64) -> Option<f64> {
    let (steps, secs) = (long_steps.checked_sub(short_steps)?, long_s - short_s);
    (steps > 0 && secs > 0.0).then(|| steps as f64 / secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn fastest_repetition() {
        assert_eq!(fastest(&[3.0, 1.0, 2.0, 1.0]), 1);
        assert_eq!(fastest(&[5.0]), 0);
        assert_eq!(fastest(&[]), 0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile_of(&[9.0, 1.0, 5.0], 50.0), 5.0);
    }

    #[test]
    fn tail_picker_wants_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_percentile_of(&v, 99.0), 90.0);
        assert_eq!(supported_percentile_of(&v, 90.0), 90.0);
        assert_eq!(supported_percentile_of(&v[..30], 90.0), 15.0);
        assert_eq!(supported_percentile_of(&v[..5], 90.0), 3.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread_pct(&[10.0, 11.0, 9.0]), 20.0);
        assert_eq!(spread_pct(&[7.0]), 0.0);
        assert!(spread_pct(&[]).is_nan());
    }

    #[test]
    fn long_minus_short_arithmetic() {
        // 3200 steps in 3.5 s, 200 steps in 0.5 s: 3000 steps in 3 s.
        assert_eq!(rate_beyond(3200, 200, 3.5, 0.5), Some(1000.0));
        assert_eq!(rate_beyond(200, 200, 1.0, 0.5), None);
        assert_eq!(rate_beyond(100, 200, 1.0, 0.5), None);
        assert_eq!(rate_beyond(3200, 200, 0.4, 0.5), None);
    }
}
