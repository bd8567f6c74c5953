//! Exact order statistics and span-interval arithmetic.

/// The `q`-quantile of `sorted` (ascending) by the nearest-rank rule: the
/// smallest sample with at least `q·n` samples at or below it. Exact —
/// every value returned was measured.
///
/// # Panics
///
/// Panics on an empty slice or `q` outside `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy ascending (NaN last, so it surfaces in the top quantiles).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median: the mean of the two middle samples for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), so `compare` agrees with the
/// driver's arithmetic.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(v.len() >= 2, "quartiles need at least two values");
    let n = v.len();
    let cut = |i: usize| {
        // position i·(n+1)/4 on the 1-based sample axis, clamped inside
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the driver holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Total length covered by a set of `(start, end)` intervals, counting
/// overlaps once. Intervals with `end <= start` cover nothing.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (children are clipped to the parent first).
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .collect();
    pe.saturating_sub(ps) - union_len(&clipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        // ten samples lie beyond the p90 of a hundred, as the guide asks
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 0.9)).count(), 10);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[10.0, 20.0, 40.0]);
        assert_eq!((q1, q3), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interval_union_counts_overlap_once() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10)]), 10);
        assert_eq!(union_len(&[(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(&[(20, 30), (0, 10), (10, 12)]), 22);
        assert_eq!(union_len(&[(0, 10), (2, 3), (4, 4), (9, 1)]), 10);
    }

    #[test]
    fn self_time_subtracts_clipped_child_cover() {
        // one child: the ladder case, self = rung − rung below
        assert_eq!(self_time((100, 200), &[(120, 180)]), 40);
        // overlapping children count once; a child leaking out is clipped
        assert_eq!(
            self_time((100, 200), &[(110, 150), (140, 160), (190, 250)]),
            40
        );
        assert_eq!(self_time((100, 200), &[]), 100);
        assert_eq!(self_time((100, 200), &[(0, 300)]), 0);
        // self times of a chain sum to the top span
        let chain = [(0u64, 1000u64), (100, 900), (300, 500)];
        let total: u64 = (0..chain.len())
            .map(|i| self_time(chain[i], &chain[i + 1..chain.len().min(i + 2)]))
            .sum();
        assert_eq!(total, 1000);
    }
}
