//! Throughput and delay accumulators.

/// Counts delivered payload bits over a measurement window and reports
/// throughput.
#[derive(Clone, Debug, Default)]
pub struct ThroughputMeter {
    bits: u64,
    packets: u64,
}

impl ThroughputMeter {
    /// A fresh meter.
    pub fn new() -> ThroughputMeter {
        ThroughputMeter::default()
    }

    /// Record a delivered packet of `payload_bytes`.
    pub fn record_packet(&mut self, payload_bytes: usize) {
        self.bits += payload_bytes as u64 * 8;
        self.packets += 1;
    }

    /// Total delivered bits.
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Total delivered packets.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Throughput in Mb/s over a window of `seconds`.
    pub fn mbps(&self, seconds: f64) -> f64 {
        assert!(seconds > 0.0, "empty measurement window");
        self.bits as f64 / seconds / 1e6
    }
}

/// Accumulates per-packet delays (µs) and reports summary statistics.
#[derive(Clone, Debug, Default)]
pub struct DelayMeter {
    samples: Vec<f64>,
}

impl DelayMeter {
    /// A fresh meter.
    pub fn new() -> DelayMeter {
        DelayMeter::default()
    }

    /// Record one packet's delay in microseconds.
    pub fn record_us(&mut self, delay_us: f64) {
        assert!(delay_us.is_finite() && delay_us >= 0.0, "invalid delay {delay_us}");
        self.samples.push(delay_us);
    }

    /// Number of recorded packets.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean delay in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank; 0 when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[idx]
    }

    /// Maximum recorded delay (0 when empty).
    pub fn max_us(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// The raw samples in recording order (the snapshot-save path).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Rebuild a meter from raw samples (the snapshot-restore path).
    pub fn from_samples(samples: Vec<f64>) -> DelayMeter {
        DelayMeter { samples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_accounting() {
        let mut m = ThroughputMeter::new();
        for _ in 0..100 {
            m.record_packet(512);
        }
        assert_eq!(m.packets(), 100);
        assert_eq!(m.bits(), 100 * 512 * 8);
        // 409600 bits over 0.1 s = 4.096 Mb/s.
        assert!((m.mbps(0.1) - 4.096).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty measurement window")]
    fn zero_window_panics() {
        ThroughputMeter::new().mbps(0.0);
    }

    #[test]
    fn delay_statistics() {
        let mut d = DelayMeter::new();
        for v in [10.0, 20.0, 30.0, 40.0, 100.0] {
            d.record_us(v);
        }
        assert_eq!(d.count(), 5);
        assert!((d.mean_us() - 40.0).abs() < 1e-12);
        assert_eq!(d.quantile_us(0.5), 30.0);
        assert_eq!(d.quantile_us(1.0), 100.0);
        assert_eq!(d.quantile_us(0.0), 10.0);
        assert_eq!(d.max_us(), 100.0);
    }

    #[test]
    fn empty_meters_are_safe() {
        let d = DelayMeter::new();
        assert_eq!(d.mean_us(), 0.0);
        assert_eq!(d.quantile_us(0.9), 0.0);
        assert_eq!(d.max_us(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid delay")]
    fn negative_delay_panics() {
        DelayMeter::new().record_us(-1.0);
    }
}
