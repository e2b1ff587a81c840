//! Bucketed time series for utilization-over-time reporting.

use serde::{Deserialize, Serialize};

/// Accumulates amounts into fixed-width time buckets.
///
/// The serving engine records GPU busy-seconds into a [`TimeSeries`] so
/// reports can show utilization over the run (e.g. the backlog building
/// up during the arrival burst and draining afterwards).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    bucket_secs: f64,
    buckets: Vec<f64>,
}

impl Default for TimeSeries {
    /// One-minute buckets.
    fn default() -> Self {
        TimeSeries::new(60.0)
    }
}

impl TimeSeries {
    /// Creates a series with the given bucket width in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_secs` is not strictly positive.
    pub fn new(bucket_secs: f64) -> TimeSeries {
        assert!(bucket_secs > 0.0, "bucket width must be positive");
        TimeSeries {
            bucket_secs,
            buckets: Vec::new(),
        }
    }

    /// Returns the bucket width in seconds.
    pub fn bucket_secs(&self) -> f64 {
        self.bucket_secs
    }

    /// Adds `amount` at instant `at_secs` (the bucket containing it).
    pub fn add(&mut self, at_secs: f64, amount: f64) {
        let idx = (at_secs.max(0.0) / self.bucket_secs) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] += amount;
    }

    /// Records a gauge sample at `at_secs`: the bucket keeps the
    /// *maximum* value seen rather than a sum, so the series traces an
    /// occupancy curve's peaks (HBM reservations, tier occupancy).
    pub fn record_max(&mut self, at_secs: f64, value: f64) {
        let idx = (at_secs.max(0.0) / self.bucket_secs) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] = self.buckets[idx].max(value);
    }

    /// Spreads `amount` uniformly over `[start_secs, start_secs + dur_secs)`,
    /// splitting across bucket boundaries.
    pub fn add_span(&mut self, start_secs: f64, dur_secs: f64, amount: f64) {
        if dur_secs <= 0.0 {
            self.add(start_secs, amount);
            return;
        }
        let rate = amount / dur_secs;
        let mut t = start_secs.max(0.0);
        let end = start_secs + dur_secs;
        while t < end {
            let bucket_end = (((t / self.bucket_secs) as usize + 1) as f64) * self.bucket_secs;
            let chunk_end = bucket_end.min(end);
            self.add(t, (chunk_end - t) * rate);
            t = chunk_end;
        }
    }

    /// Adds `other`'s buckets into this series, bucket by bucket.
    ///
    /// # Panics
    ///
    /// Panics if the two series have different bucket widths.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.bucket_secs, other.bucket_secs,
            "merged series must share a bucket width"
        );
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0.0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Returns the bucket values.
    pub fn buckets(&self) -> &[f64] {
        &self.buckets
    }

    /// Returns the number of buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Returns `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Returns the sum over all buckets.
    pub fn total(&self) -> f64 {
        self.buckets.iter().sum()
    }

    /// Returns the largest bucket value (0 when empty).
    pub fn peak(&self) -> f64 {
        self.buckets.iter().copied().fold(0.0, f64::max)
    }

    /// Renders a compact ASCII sparkline (one char per bucket, eight
    /// levels), capped at `max_width` chars by merging buckets.
    pub fn sparkline(&self, max_width: usize) -> String {
        const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.buckets.is_empty() || max_width == 0 {
            return String::new();
        }
        let group = self.buckets.len().div_ceil(max_width);
        let merged: Vec<f64> = self
            .buckets
            .chunks(group)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        let peak = merged.iter().copied().fold(0.0f64, f64::max);
        if peak == 0.0 {
            return LEVELS[0].to_string().repeat(merged.len());
        }
        merged
            .iter()
            .map(|&v| LEVELS[((v / peak * 7.0).round() as usize).min(7)])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_lands_in_the_right_bucket() {
        let mut ts = TimeSeries::new(10.0);
        ts.add(0.0, 1.0);
        ts.add(9.99, 2.0);
        ts.add(25.0, 4.0);
        assert_eq!(ts.buckets(), &[3.0, 0.0, 4.0]);
        assert_eq!(ts.total(), 7.0);
        assert_eq!(ts.peak(), 4.0);
    }

    #[test]
    fn add_span_splits_across_boundaries() {
        let mut ts = TimeSeries::new(10.0);
        // 6 units over [5, 35): 5s in bucket 0, 10s each in 1-2, 5s in 3.
        ts.add_span(5.0, 30.0, 6.0);
        let b = ts.buckets();
        assert_eq!(b.len(), 4);
        assert!((b[0] - 1.0).abs() < 1e-9);
        assert!((b[1] - 2.0).abs() < 1e-9);
        assert!((b[2] - 2.0).abs() < 1e-9);
        assert!((b[3] - 1.0).abs() < 1e-9);
        assert!((ts.total() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_bucketwise_and_extends() {
        let mut a = TimeSeries::new(10.0);
        a.add(5.0, 1.0);
        let mut b = TimeSeries::new(10.0);
        b.add(5.0, 2.0);
        b.add(25.0, 4.0);
        a.merge(&b);
        assert_eq!(a.buckets(), &[3.0, 0.0, 4.0]);
        let mut empty = TimeSeries::new(10.0);
        empty.merge(&b);
        assert_eq!(empty.buckets(), b.buckets());
    }

    #[test]
    fn zero_duration_span_degenerates_to_point() {
        let mut ts = TimeSeries::new(10.0);
        ts.add_span(12.0, 0.0, 5.0);
        assert_eq!(ts.buckets(), &[0.0, 5.0]);
    }

    #[test]
    fn record_max_keeps_the_bucket_peak() {
        let mut ts = TimeSeries::new(10.0);
        ts.record_max(1.0, 5.0);
        ts.record_max(2.0, 3.0);
        ts.record_max(15.0, 7.0);
        assert_eq!(ts.buckets(), &[5.0, 7.0]);
        assert_eq!(ts.peak(), 7.0);
    }

    #[test]
    fn sparkline_compacts_to_width() {
        let mut ts = TimeSeries::new(1.0);
        for i in 0..100 {
            ts.add(i as f64, (i % 10) as f64);
        }
        let s = ts.sparkline(20);
        assert!(s.chars().count() <= 20);
        let empty = TimeSeries::new(1.0);
        assert!(empty.sparkline(20).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bucket_width_rejected() {
        let _ = TimeSeries::new(0.0);
    }
}
