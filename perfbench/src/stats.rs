//! The benchmark's own statistics: percentiles, quartiles and span self
//! time. Every latency the benchmark reports is computed here from raw
//! samples, never from histogram buckets.

/// Minimum number of samples that must lie above a reported tail
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending) at `pct` in (0, 100].
///
/// Infinite samples (failed operations) sort last and are returned as
/// such. Returns `None` for an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Number of samples strictly beyond the nearest-rank `pct` percentile.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// The highest of `candidates` (percent values) that keeps at least
/// [`MIN_BEYOND`] samples beyond it among `n`, or `None` when even the
/// lowest does not.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= MIN_BEYOND)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// Median over consecutive `slice`-second windows of each window's
/// `pct` percentile. `samples` are `(offset_s, value)` pairs; a window
/// counts only when it keeps [`MIN_BEYOND`] samples beyond `pct`, so a
/// short final window cannot swing the result. A few slow seconds on a
/// shared host move one window, not the median.
pub fn sliced_percentile(samples: &[(f64, f64)], slice: f64, pct: f64) -> Option<f64> {
    median(&window_percentiles(samples, slice, pct))
}

/// Each counted window's `pct` percentile, in window order (see
/// [`sliced_percentile`]).
pub fn window_percentiles(samples: &[(f64, f64)], slice: f64, pct: f64) -> Vec<f64> {
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = std::collections::BTreeMap::new();
    for &(t, v) in samples {
        windows.entry((t / slice) as u64).or_default().push(v);
    }
    windows
        .into_values()
        .filter(|w| samples_beyond(w.len(), pct) >= MIN_BEYOND)
        .filter_map(|mut w| {
            w.sort_by(f64::total_cmp);
            percentile(&w, pct)
        })
        .collect()
}

/// Median over the complete `slice`-second windows of `[0, span)` of
/// each window's event rate, taken between its first and last event so
/// the rate is not quantised to whole events per window. `event_times`
/// must be sorted.
pub fn sliced_rate(event_times: &[f64], slice: f64, span: f64) -> Option<f64> {
    let full = (span / slice) as usize;
    let mut rates = Vec::with_capacity(full);
    for w in 0..full {
        let (lo, hi) = (w as f64 * slice, (w + 1) as f64 * slice);
        let a = event_times.partition_point(|&t| t < lo);
        let b = event_times.partition_point(|&t| t < hi);
        if b >= a + 2 && event_times[b - 1] > event_times[a] {
            rates.push((b - a - 1) as f64 / (event_times[b - 1] - event_times[a]));
        }
    }
    median(&rates)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First, second and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// Returns `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // Python's integer arithmetic, including its extrapolation when the
    // clamped index leaves `delta` outside 0..=4.
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1i64..).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    Some((q3 - q1) / q2.abs())
}

/// A closed span as the tracer stores it: nanoseconds since the trace
/// epoch, and the index of the span that was open when it began.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// `layer/operation`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once, and
/// a child running past its parent only covers the parent's part).
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // A failed operation is an infinite sample: it misses every limit.
        assert_eq!(percentile(&[1.0, f64::INFINITY], 99.0), Some(f64::INFINITY));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(100, 90.0), 10);
        let candidates = [50.0, 75.0, 90.0, 95.0, 99.0];
        assert_eq!(highest_supported(1000, &candidates), Some(99.0));
        assert_eq!(highest_supported(999, &candidates), Some(95.0));
        assert_eq!(highest_supported(100, &candidates), Some(90.0));
        assert_eq!(highest_supported(40, &candidates), Some(75.0));
        assert_eq!(highest_supported(19, &candidates), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&v).expect("ten values");
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn sliced_statistics_take_the_median_window() {
        // Three one-second windows of 20 samples; the middle one is slow.
        let mut samples = Vec::new();
        for (w, base) in [(0.0, 100.0), (1.0, 900.0), (2.0, 200.0)] {
            for i in 0..20 {
                samples.push((w + f64::from(i) / 20.0, base + f64::from(i)));
            }
        }
        // Window medians (nearest rank 10 of 20): 109, 909, 209.
        assert_eq!(sliced_percentile(&samples, 1.0, 50.0), Some(209.0));
        // p90 keeps only 2 samples beyond in a 20-sample window.
        assert_eq!(sliced_percentile(&samples, 1.0, 90.0), None);
        // Events every 0.05 s: 19 gaps span 0.95 s in each window.
        let times: Vec<f64> = (0..60).map(|i| f64::from(i) / 20.0).collect();
        let rate = sliced_rate(&times, 1.0, 3.0).expect("three windows");
        assert!((rate - 20.0).abs() < 1e-9, "{rate}");
        // Only the one complete 2 s window of [0, 3) counts; denser
        // events past it change nothing.
        let mut more = times.clone();
        more.extend((0..100).map(|i| 2.5 + f64::from(i) / 1000.0));
        more.sort_by(f64::total_cmp);
        let rate = sliced_rate(&more, 2.0, 3.0).expect("one window");
        assert!((rate - 20.0).abs() < 1e-9, "{rate}");
    }

    fn span(start: u64, end: u64, parent: Option<usize>) -> SpanRecord {
        SpanRecord {
            name: "x",
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_child_coverage() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),  // overlaps the first child: counted once
            span(90, 120, Some(0)), // runs past the parent: clipped
            span(12, 18, Some(1)),  // grandchild: covers its parent only
            span(200, 260, None),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 40 - 10, 20 - 6, 30, 30, 6, 60]
        );
    }
}
