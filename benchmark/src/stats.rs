//! Order statistics and segment medians: the only arithmetic between a raw
//! timestamp and a printed metric.

/// Nearest-rank percentile (`p` in 0..=100) of `values`: the smallest
/// sample with at least `p` % of the samples at or below it. Sorts in
/// place; returns 0 for an empty sample.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median with the midpoint rule (mean of the two central samples when the
/// count is even). Sorts in place; returns 0 for an empty sample.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `(q1, median, q3)` by nearest rank.
pub fn quartiles(values: &mut [f64]) -> (f64, f64, f64) {
    (
        percentile(values, 25.0),
        percentile(values, 50.0),
        percentile(values, 75.0),
    )
}

/// Events per second in each of `segments` equal slices of `[t0, t1)`.
/// `times_ns` need not be sorted; events outside the window are ignored.
pub fn segment_rates(times_ns: &[u64], t0: u64, t1: u64, segments: usize) -> Vec<f64> {
    assert!(t1 > t0 && segments > 0, "empty window");
    let mut counts = vec![0u64; segments];
    let span = (t1 - t0) as u128;
    for &t in times_ns {
        if t >= t0 && t < t1 {
            let idx = ((t - t0) as u128 * segments as u128 / span) as usize;
            counts[idx] += 1;
        }
    }
    let seg_s = (t1 - t0) as f64 / 1e9 / segments as f64;
    counts.into_iter().map(|c| c as f64 / seg_s).collect()
}

/// Median of per-segment ratios `Σ work / Σ busy seconds`, for work that is
/// only busy part of the time (the protected half of an interleaved pair).
/// Each sample is `(end_ns, work, busy_ns)` and lands in the segment that
/// holds its end; segments without a sample are skipped.
pub fn segment_ratio_median(samples: &[(u64, f64, u64)], t0: u64, t1: u64, segments: usize) -> f64 {
    assert!(t1 > t0 && segments > 0, "empty window");
    let mut work = vec![0.0f64; segments];
    let mut busy = vec![0u64; segments];
    let span = (t1 - t0) as u128;
    for &(end, w, b) in samples {
        if end >= t0 && end < t1 {
            let idx = ((end - t0) as u128 * segments as u128 / span) as usize;
            work[idx] += w;
            busy[idx] += b;
        }
    }
    let mut ratios: Vec<f64> = work
        .iter()
        .zip(&busy)
        .filter(|(_, &b)| b > 0)
        .map(|(&w, &b)| w / (b as f64 / 1e9))
        .collect();
    median(&mut ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        // Five samples: p50 is the third, p99 the fifth (nearest rank never
        // interpolates).
        let mut w = vec![9.0, 1.0, 7.0, 3.0, 5.0];
        assert_eq!(percentile(&mut w, 50.0), 5.0);
        assert_eq!(percentile(&mut w, 99.0), 9.0);
        assert_eq!(percentile(&mut w, 20.0), 1.0);
        assert_eq!(percentile(&mut w, 21.0), 3.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn median_uses_the_midpoint_rule() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn segment_rates_bucket_by_time_and_ignore_outsiders() {
        // Window of 4 s in 4 segments; 1, 2, 0, 3 events plus two outside.
        let s = 1_000_000_000u64;
        let times = [
            10 * s + 1,
            11 * s,
            11 * s + 5,
            13 * s,
            13 * s + 1,
            14 * s - 1,
            9 * s,
            14 * s,
        ];
        let rates = segment_rates(&times, 10 * s, 14 * s, 4);
        assert_eq!(rates, vec![1.0, 2.0, 0.0, 3.0]);
        let mut r = rates;
        assert_eq!(median(&mut r), 1.5);
    }

    #[test]
    fn segment_ratio_median_divides_work_by_busy_time() {
        let s = 1_000_000_000u64;
        // Segment 0: 100 units in 0.5 s busy; segment 1: 300 in 1 s;
        // segment 2 empty (skipped); segment 3: 50 in 0.25 s.
        let samples = [
            (s / 2, 60.0, s / 4),
            (s - 1, 40.0, s / 4),
            (s + 1, 300.0, s),
            (3 * s + 1, 50.0, s / 4),
        ];
        let m = segment_ratio_median(&samples, 0, 4 * s, 4);
        assert_eq!(m, 200.0); // ratios 200, 300, 200
    }
}
