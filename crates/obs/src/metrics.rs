//! A deterministic metrics registry.
//!
//! Counters, gauges and histograms addressed by stable string names,
//! stored in `BTreeMap`s so every iteration order is the sorted name
//! order — a registry rendered twice produces identical bytes. The
//! registry is pure bookkeeping: it never reads clocks (D001) and never
//! draws randomness (D004); wall-time measurements are taken runner-side
//! with `testkit::bench::Stopwatch` and *recorded* here.

use std::collections::BTreeMap;

/// A power-of-two-bucket histogram over `u64` samples.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// `buckets[i]` counts samples in `[2^(i-1), 2^i)`; `buckets[0]`
    /// counts zeros and ones.
    buckets: Vec<u64>,
}

/// Index of the bucket a sample falls into.
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).saturating_sub(1)
}

impl Histogram {
    /// Record one sample.
    pub fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        let b = bucket_of(value);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The populated buckets as `(bucket_upper_bound, count)` pairs in
    /// ascending order.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (if i >= 63 { u64::MAX } else { 1u64 << (i + 1) }, c))
            .collect()
    }

    /// Nearest-rank quantile estimate (`q` in `[0, 1]`).
    ///
    /// The histogram keeps bucket counts, not samples, so the estimate
    /// is the inclusive upper bound of the bucket holding the
    /// nearest-rank sample (`2^(i+1) - 1`), clamped to the exact
    /// `[min, max]` the histogram tracked. Exact integers in, a
    /// deterministic integer out — never an interpolation.
    pub fn quantile_est(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let top = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return top.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// The registry: named counters, gauges and histograms with sorted,
/// deterministic iteration.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to the named counter (created at zero on first use).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set the named gauge to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record one sample into the named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms.entry(name.to_owned()).or_default().observe(value);
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in sorted name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in sorted name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in sorted name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Render every metric as `name value` lines in sorted order —
    /// byte-stable across identical runs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counters() {
            out.push_str(name);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        for (name, v) in self.gauges() {
            out.push_str(name);
            out.push(' ');
            out.push_str(&format!("{v:.6}"));
            out.push('\n');
        }
        for (name, h) in self.histograms() {
            out.push_str(&format!(
                "{name} count={} sum={} min={} max={} p50={} p95={} p99={}\n",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.quantile_est(0.50),
                h.quantile_est(0.95),
                h.quantile_est(0.99),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_iterate_sorted() {
        let mut m = MetricsRegistry::new();
        m.counter_add("z.last", 2);
        m.counter_add("a.first", 1);
        m.counter_add("z.last", 3);
        assert_eq!(m.counter("z.last"), 5);
        assert_eq!(m.counter("missing"), 0);
        let names: Vec<&str> = m.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.first", "z.last"]);
    }

    #[test]
    fn histogram_tracks_shape() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1006);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1000);
        assert_eq!(h.mean(), 251);
        let buckets = h.buckets();
        assert!(buckets.iter().map(|&(_, c)| c).sum::<u64>() == 4);
        // 1000 lands in the (512, 1024] bucket.
        assert!(buckets.iter().any(|&(ub, c)| ub == 1024 && c == 1));
    }

    #[test]
    fn render_is_stable() {
        let mut m = MetricsRegistry::new();
        m.counter_add("domino.bursts_sent", 7);
        m.gauge_set("run.duration_s", 2.0);
        m.observe("crash.latency_ns", 100);
        assert_eq!(m.render(), m.clone().render());
        assert!(m.render().starts_with("domino.bursts_sent 7\n"));
    }

    #[test]
    fn histogram_quantile_estimates_bound_and_render() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile_est(0.5), 0, "empty histogram");
        // 90 small samples and 10 large ones: p50 stays in the small
        // bucket, p95/p99 land in the large one.
        for _ in 0..90 {
            h.observe(100);
        }
        for _ in 0..10 {
            h.observe(5000);
        }
        let p50 = h.quantile_est(0.50);
        let p95 = h.quantile_est(0.95);
        let p99 = h.quantile_est(0.99);
        // Bucket upper bounds: 100 → [64,128) top 127; 5000 → [4096,8192) top 8191
        // clamped to max=5000.
        assert_eq!(p50, 127);
        assert_eq!(p95, 5000);
        assert_eq!(p99, 5000);
        // Single-value histograms clamp to the exact sample.
        let mut one = Histogram::default();
        one.observe(1000);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile_est(q), 1000);
        }
        let mut m = MetricsRegistry::new();
        m.observe("lat", 1000);
        assert!(m.render().contains("lat count=1 sum=1000 min=1000 max=1000 p50=1000 p95=1000 p99=1000"));
    }
}
