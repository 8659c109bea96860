//! Tick and percentile math of the noise protocol.
//!
//! Every end-to-end timing is computed per tick of the measured window
//! and reported as the *better quartile* of the ticks. The sandbox's
//! noise is one-sided and comes in bursts: a neighbour on the host takes
//! a share of a core for seconds at a time, and everything runs 1.3–1.7×
//! slower while it does. A median of ticks flips between the two states
//! with the share of the window the burst covers; the better quartile
//! reads the undisturbed state as long as a quarter of the window had
//! it. Measured with a synthetic neighbour (one core burnt 1–6 s on,
//! 1–6 s off), eight runs each: `read_point` throughput spread 48 % as
//! median of ticks, 10 % as better quartile; its median latency 53 %
//! against 4 %; `read_join` throughput 39 % against 12 %. On noise that
//! is not bursty (`write_small` waiting for the shared disk) the two
//! are alike (7 %).
//!
//! Spreads are quartile distances as a share of the median, the same
//! statistic the driver judges the benchmark by.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for even counts).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

// Nearest rank of percentile `pct` (1..=100) among `n > 0` samples,
// 1-based. Integer arithmetic: the ten-samples rule must not hinge on
// how 0.9 rounds.
fn rank(n: usize, pct: usize) -> usize {
    (n * pct).div_ceil(100).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice, `pct` in 1..=100.
pub fn percentile(sorted: &[u64], pct: usize) -> Option<u64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), pct) - 1])
}

/// The tail percentile a sample of `n` supports: 95 when at least
/// [`TAIL_SAMPLES_BEYOND`] samples lie beyond it, otherwise the highest
/// lower step that has them, down to the median.
pub fn supported_tail(n: usize) -> usize {
    [95, 90, 75]
        .into_iter()
        .find(|pct| n > 0 && n - rank(n, *pct) >= TAIL_SAMPLES_BEYOND)
        .unwrap_or(50)
}

/// First, second and third quartile by the exclusive method — what
/// Python's `statistics.quantiles(values, n=4)` returns. Needs at least
/// two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some([1usize, 2, 3].map(|k| {
        // 1-based position k(n+1)/4, clamped into the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    }))
}

/// The quartile on the good side of `values`: the third when higher is
/// better, the first when lower is.
pub fn better_quartile(values: &[f64], higher_is_better: bool) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    Some(if higher_is_better { q3 } else { q1 })
}

/// Quartile distance as a share of the median (the driver's spread).
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// One slice's latencies reduced to its median and supported tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceLatency {
    pub samples: usize,
    pub p50_us: f64,
    pub tail_us: f64,
    /// The percentile `tail_us` was taken at (95 unless the slice is
    /// too small to have ten samples beyond it).
    pub tail_pct: usize,
}

/// Reduce one slice's latencies (nanoseconds, any order).
pub fn slice_latency(latencies_ns: &mut [u64]) -> Option<SliceLatency> {
    latencies_ns.sort_unstable();
    let tail_pct = supported_tail(latencies_ns.len());
    Some(SliceLatency {
        samples: latencies_ns.len(),
        p50_us: percentile(latencies_ns, 50)? as f64 / 1e3,
        tail_us: percentile(latencies_ns, tail_pct)? as f64 / 1e3,
        tail_pct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_slices_ignores_one_disturbed_slice() {
        assert_eq!(median(&[100.0, 101.0, 99.0, 100.5, 400.0]), Some(100.5));
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50), Some(50));
        assert_eq!(percentile(&sorted, 95), Some(95));
        assert_eq!(percentile(&sorted, 100), Some(100));
        assert_eq!(percentile(&sorted[..99], 50), Some(50));
        assert_eq!(percentile(&[7], 95), Some(7));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(200), 95);
        assert_eq!(supported_tail(199), 90);
        assert_eq!(supported_tail(100), 90);
        assert_eq!(supported_tail(99), 75);
        assert_eq!(supported_tail(40), 75);
        assert_eq!(supported_tail(39), 50);
        assert_eq!(supported_tail(0), 50);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(spread(&[16.0, 1.0, 4.0, 2.0, 8.0]), Some(10.5 / 4.0));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn better_quartile_reads_the_undisturbed_state() {
        // Twelve ticks at full speed, eight while a neighbour is busy.
        let mut rps = vec![60_000.0; 12];
        rps.extend([41_000.0; 8]);
        assert_eq!(better_quartile(&rps, true), Some(60_000.0));
        let p50: Vec<f64> = rps.iter().map(|r| 1.7e6 / r).collect();
        assert_eq!(better_quartile(&p50, false), Some(1.7e6 / 60_000.0));
        // The median would have read the burst had it covered more
        // than half the window; the quartile holds up to three quarters.
        let mut mostly_slow = vec![41_000.0; 14];
        mostly_slow.extend([60_000.0; 6]);
        assert_eq!(median(&mostly_slow), Some(41_000.0));
        assert_eq!(better_quartile(&mostly_slow, true), Some(60_000.0));
    }

    #[test]
    fn slice_latency_reports_the_percentile_it_used() {
        let mut small: Vec<u64> = (1..=50).map(|v| v * 1000).collect();
        let reduced = slice_latency(&mut small).unwrap();
        assert_eq!(reduced.tail_pct, 75);
        assert_eq!(reduced.p50_us, 25.0);
        assert_eq!(reduced.tail_us, 38.0);
        assert!(slice_latency(&mut []).is_none());
    }
}
