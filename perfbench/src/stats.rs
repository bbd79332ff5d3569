//! The benchmark's own statistics: medians, quartiles, tail percentiles
//! and open-loop latency. Every reported timing goes through here.

/// Median of `values` (mean of the two middle values for even counts).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The three cut points dividing `values` into quarters, computed
/// exactly as Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so the spread a reader computes from printed
/// values agrees with ours. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len() as i64;
    if ld < 2 {
        return None;
    }
    let n = 4i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        let (lo, hi) = (data[(j - 1) as usize], data[j as usize]);
        *slot = (lo * (n - delta) as f64 + hi * delta as f64) / n as f64;
    }
    Some(out)
}

/// The percentile ladder tail reporting climbs, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile for it to mean
/// anything.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples. The
/// epsilon keeps `0.999 * 10000` from rounding up past 9990.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile no higher than `want`, from the ladder
/// 99.9/99/95/90/75/50, that has at least [`MIN_BEYOND`] samples beyond
/// it among `n`. Falls back to the median when even that has too few.
pub fn tail_percentile(n: usize, want: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= want)
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// A latency distribution summarised the way every timing is reported:
/// median, a tail percentile with enough samples beyond it, and the
/// sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile `tail` is (99 when enough samples exist).
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
}

/// Summarise `values`, reporting the tail at `want` (or the highest
/// ladder percentile below it that still has [`MIN_BEYOND`] samples
/// beyond it). `None` for no samples.
pub fn summarize(values: &[f64], want: f64) -> Option<Summary> {
    let data = sorted(values);
    let n = data.len();
    if n == 0 {
        return None;
    }
    let tail_pct = tail_percentile(n, want);
    Some(Summary {
        n,
        p50: median(&data)?,
        tail_pct,
        tail: data[rank(n, tail_pct) - 1],
    })
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its response completed (seconds from the schedule
/// origin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenSample {
    /// Scheduled send time.
    pub due: f64,
    /// Actual send time.
    pub sent: f64,
    /// Response completion time.
    pub done: f64,
}

impl OpenSample {
    /// Latency as a user arriving on schedule sees it: from the due
    /// time, so a stall also charges every request queued behind it.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator itself sent the request.
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Due time of the `i`-th request of a fixed-rate schedule.
pub fn due_time(i: usize, rate_per_s: f64) -> f64 {
    i as f64 / rate_per_s
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // index is clamped, the interpolation is not.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[7.0]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
        assert_eq!(tail_percentile(1000, 99.0), 99.0);
        // 999: p99 is rank 990 (ceil 989.01), 9 beyond -> p95.
        assert_eq!(tail_percentile(999, 99.0), 95.0);
        // 10_000 samples admit p99.9, but never above what was asked.
        assert_eq!(tail_percentile(10_000, 99.9), 99.9);
        assert_eq!(tail_percentile(10_000, 99.0), 99.0);
        // 100 samples: p90 leaves 10 beyond, p95 only 5.
        assert_eq!(tail_percentile(100, 99.0), 90.0);
        // Too few for any tail: fall back to the median.
        assert_eq!(tail_percentile(5, 99.0), 50.0);
        assert_eq!(tail_percentile(0, 99.0), 50.0);
    }

    #[test]
    fn summary_reads_the_tail_by_nearest_rank() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&values, 99.0).expect("samples");
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.5);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
        let one = summarize(&[42.0], 99.0).expect("one sample");
        assert_eq!((one.p50, one.tail_pct, one.tail), (42.0, 50.0, 42.0));
        assert_eq!(summarize(&[], 99.0), None);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Due at 1.0 s, sent late at 1.25 s, done at 1.5 s: the user who
        // arrived on schedule waited 0.5 s, of which 0.25 s was the
        // generator's own lateness.
        let s = OpenSample {
            due: 1.0,
            sent: 1.25,
            done: 1.5,
        };
        assert_eq!(s.latency(), 0.5);
        assert_eq!(s.lateness(), 0.25);
        // Sent early (sleep overshoot never goes negative): no lateness,
        // and latency still runs from the due time.
        let early = OpenSample {
            due: 2.0,
            sent: 2.0,
            done: 2.001,
        };
        assert_eq!(early.lateness(), 0.0);
        assert!((early.latency() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn a_stall_charges_every_request_queued_behind_it() {
        // 1000 req/s; request 0 stalls for 10 ms, so requests 1..=9 are
        // sent late and each waits from its own due time.
        let rate = 1000.0;
        let mut clock: f64 = 0.0;
        let mut samples = Vec::new();
        for i in 0..20 {
            let due = due_time(i, rate);
            let sent = clock.max(due);
            let service = if i == 0 { 0.010 } else { 0.0001 };
            clock = sent + service;
            samples.push(OpenSample {
                due,
                sent,
                done: clock,
            });
        }
        assert!(samples[1].lateness() > 0.008);
        assert!(samples[5].latency() > samples[5].done - samples[5].sent);
        // Once the backlog drains, requests are on time again.
        assert_eq!(samples[19].lateness(), 0.0);
    }
}
