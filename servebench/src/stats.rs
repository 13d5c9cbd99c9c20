//! Exact order statistics over raw per-operation samples.
//!
//! Every percentile is read off the full sorted sample (nearest rank),
//! never from histogram buckets, so a 20% shift in a tail is visible.

/// Nearest-rank quantile of an ascending slice; `None` when empty.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a set of measurements (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A latency sample in nanoseconds, one entry per operation.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    ns: Vec<u64>,
    sorted: bool,
}

impl Latencies {
    /// Records one operation's latency.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Appends another sample.
    pub fn extend(&mut self, other: Latencies) {
        self.ns.extend(other.ns);
        self.sorted = false;
    }

    /// Number of operations recorded.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// True when no operation was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Quantile `q` in microseconds, 0 when empty.
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        quantile(&self.ns, q).map_or(0.0, |ns| ns as f64 / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), Some(50));
        assert_eq!(quantile(&v, 0.99), Some(99));
        assert_eq!(quantile(&v, 1.0), Some(100));
        assert_eq!(quantile(&[7], 0.99), Some(7));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
