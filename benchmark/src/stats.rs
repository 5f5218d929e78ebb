//! The estimators every metric goes through: medians, the quartiles the
//! driver computes, percentiles under the "ten samples beyond" rule, and
//! the windowed tail estimator.

/// Sorts `values` ascending in place (total order; the benchmark never
/// produces NaN timings).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method) — the driver measures spread with that function, so
/// `--compare` must agree with it digit for digit. Fewer than two
/// values yield the value itself three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the driver holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank percentile of an ascending slice; `p` in `0.0..=100.0`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles the benchmark reports, highest last, each with the
/// share of samples beyond it in parts per thousand (whole numbers, so
/// the rule below is exact at the boundaries).
const TAIL_LADDER: [(f64, usize); 5] =
    [(50.0, 500), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// ten samples beyond it in a sample of `n` — a tail read off fewer
/// than ten samples is one stall away from a different number.
pub fn highest_supported_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|(_, beyond)| n * beyond >= 10 * 1000)
        .map_or(TAIL_LADDER[0].0, |&(p, _)| p)
}

/// The median over `windows` of each window's `p`-th percentile. One VM
/// stall inflates a plain p99 of the whole run; here it can spoil one
/// window, and the median over windows ignores it.
pub fn windowed_percentile(windows: &[Vec<f64>], p: f64) -> f64 {
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| {
            let mut sorted = w.clone();
            sort(&mut sorted);
            percentile(&sorted, p)
        })
        .collect();
    median(&per_window)
}

/// Splits timestamped samples `(at, value)` into `count` equal windows
/// of the span `0.0..span`; samples past the span land in the last.
pub fn split_windows(samples: &[(f64, f64)], span: f64, count: usize) -> Vec<Vec<f64>> {
    let mut windows = vec![Vec::new(); count];
    for &(at, value) in samples {
        let slot = ((at / span) * count as f64) as usize;
        windows[slot.min(count - 1)].push(value);
    }
    windows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_percentile_rule_wants_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), 50.0);
        assert_eq!(highest_supported_percentile(20), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(999), 95.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(9_999), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn one_stalled_window_does_not_move_the_windowed_tail() {
        // Ten windows of 1000 samples at 1.0 with a tail of 20 at 2.0. A
        // 75 ms stall at 2000 req/s holds up 150 requests of one window.
        let window = |stalled: usize| {
            let mut w = vec![1.0; 980 - stalled];
            w.extend(vec![2.0; 20]);
            w.extend(vec![70_000.0; stalled]);
            w
        };
        let mut windows: Vec<Vec<f64>> = (0..10).map(|_| window(0)).collect();
        assert_eq!(windowed_percentile(&windows, 99.0), 2.0);
        windows[3] = window(150);
        assert_eq!(windowed_percentile(&windows, 99.0), 2.0);
        // The plain p99 of the same 10 000 samples is the stall.
        let mut all: Vec<f64> = windows.concat();
        sort(&mut all);
        assert_eq!(percentile(&all, 99.0), 70_000.0);
    }

    #[test]
    fn samples_split_into_equal_windows_by_time() {
        let samples = [(0.0, 1.0), (0.49, 2.0), (0.5, 3.0), (0.99, 4.0), (1.2, 5.0)];
        let windows = split_windows(&samples, 1.0, 2);
        assert_eq!(windows, vec![vec![1.0, 2.0], vec![3.0, 4.0, 5.0]]);
    }
}
