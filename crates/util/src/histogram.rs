//! Fixed-bucket integer histograms.
//!
//! Load distributions in the paper's experiments are small non-negative
//! integers (a server's load rarely exceeds a few dozen), so a dense
//! `Vec<u64>` of counts indexed by value is the right representation: O(1)
//! increment, trivial merging across Monte-Carlo workers, exact quantiles.

/// Dense histogram over non-negative integer observations.
///
/// Values beyond the current capacity grow the bucket vector on demand, so
/// the histogram is exact for any input.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty histogram with buckets preallocated for values `< capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            counts: vec![0; capacity],
            total: 0,
        }
    }

    /// Record one observation of `value`.
    #[inline]
    pub fn record(&mut self, value: usize) {
        if value >= self.counts.len() {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += 1;
        self.total += 1;
    }

    /// Record `weight` observations of `value`.
    pub fn record_n(&mut self, value: usize, weight: u64) {
        if weight == 0 {
            return;
        }
        if value >= self.counts.len() {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += weight;
        self.total += weight;
    }

    /// Merge another histogram into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.total += other.total;
    }

    /// Total number of observations.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count of observations equal to `value`.
    pub fn count(&self, value: usize) -> u64 {
        self.counts.get(value).copied().unwrap_or(0)
    }

    /// Largest observed value (`None` when empty).
    pub fn max_value(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// Mean of the observations (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let weighted: u128 = self
            .counts
            .iter()
            .enumerate()
            .map(|(v, &c)| v as u128 * c as u128)
            .sum();
        weighted as f64 / self.total as f64
    }

    /// Exact `q`-quantile (`0 ≤ q ≤ 1`) under the "lower value at cut"
    /// convention; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // rank in [1, total]
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (value, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(value);
            }
        }
        self.max_value()
    }

    /// Compact JSON summary `{"count":…,"mean":…,"p50":…,"p99":…,"max":…}`
    /// shared by the telemetry snapshots and BENCH artifact writers.
    /// Statistics of an empty histogram serialize as `null`.
    pub fn summary_json(&self) -> String {
        let mean = if self.total == 0 {
            "null".to_string()
        } else {
            let m = self.mean();
            if m.is_finite() {
                format!("{m}")
            } else {
                "null".to_string()
            }
        };
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        format!(
            "{{\"count\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
            self.total,
            mean,
            opt(self.quantile(0.5)),
            opt(self.quantile(0.99)),
            opt(self.max_value()),
        )
    }
}

impl Extend<usize> for Histogram {
    fn extend<T: IntoIterator<Item = usize>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<usize> for Histogram {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut h = Self::new();
        h.extend(iter);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.max_value(), None);
        assert_eq!(h.quantile(0.5), None);
        assert!(h.mean().is_nan());
    }

    #[test]
    fn record_and_count() {
        let h: Histogram = [3usize, 1, 3, 3, 0].into_iter().collect();
        assert_eq!(h.total(), 5);
        assert_eq!(h.count(3), 3);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(99), 0);
        assert_eq!(h.max_value(), Some(3));
    }

    #[test]
    fn mean_matches_direct() {
        let vals = [5usize, 7, 7, 9, 2];
        let h: Histogram = vals.into_iter().collect();
        let direct = vals.iter().sum::<usize>() as f64 / vals.len() as f64;
        assert!((h.mean() - direct).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let h: Histogram = (1..=100usize).collect();
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(0.99), Some(99));
        assert_eq!(h.quantile(1.0), Some(100));
    }

    #[test]
    fn merge_matches_union() {
        let a: Histogram = [1usize, 2, 2, 8].into_iter().collect();
        let b: Histogram = [0usize, 2, 9, 9].into_iter().collect();
        let mut m = a.clone();
        m.merge(&b);
        let u: Histogram = [1usize, 2, 2, 8, 0, 2, 9, 9].into_iter().collect();
        assert_eq!(m, u);
    }

    #[test]
    fn summary_json_roundtrips_stats() {
        let h: Histogram = (1..=100usize).collect();
        let json = h.summary_json();
        assert!(json.contains("\"count\":100"));
        assert!(json.contains("\"mean\":50.5"));
        assert!(json.contains("\"p50\":50"));
        assert!(json.contains("\"p99\":99"));
        assert!(json.contains("\"max\":100"));
    }

    #[test]
    fn summary_json_empty_is_null() {
        let json = Histogram::new().summary_json();
        assert_eq!(
            json,
            "{\"count\":0,\"mean\":null,\"p50\":null,\"p99\":null,\"max\":null}"
        );
    }

    #[test]
    fn record_n_weighted() {
        let mut h = Histogram::with_capacity(4);
        h.record_n(2, 10);
        h.record_n(0, 5);
        h.record_n(7, 0);
        assert_eq!(h.total(), 15);
        assert_eq!(h.count(2), 10);
        assert_eq!(h.count(7), 0);
        assert_eq!(h.max_value(), Some(2));
    }
}
