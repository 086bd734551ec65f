//! Order statistics, digests and process probes shared by every workload.

/// Percentile ladder the tail quantile is chosen from, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: f64 = 10.0;

/// Nearest-rank percentile `q` (0..=100) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice: callers guard with [`supported`].
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (the lower middle for even counts); NaN
/// for an empty one.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Percentiles over consecutive groups of samples. A group closes once it
/// holds `size` samples; each percentile is reported as its median over the
/// closed groups, so one slow stretch of a run moves one group, not the
/// result. Only the open group's samples are kept.
#[derive(Debug)]
pub struct Grouped {
    size: usize,
    qs: Vec<f64>,
    open: Vec<f64>,
    closed: Vec<Vec<f64>>,
    count: usize,
}

impl Grouped {
    /// Groups of `size` samples, reporting percentiles `qs`.
    #[must_use]
    pub fn new(size: usize, qs: &[f64]) -> Self {
        Self {
            size,
            qs: qs.to_vec(),
            open: Vec::new(),
            closed: Vec::new(),
            count: 0,
        }
    }

    /// Adds samples in arrival order.
    pub fn add(&mut self, samples: &[f64]) {
        self.count += samples.len();
        self.open.extend_from_slice(samples);
        if self.open.len() >= self.size {
            self.close();
        }
    }

    fn close(&mut self) {
        self.open.sort_by(f64::total_cmp);
        let values = self.qs.iter().map(|&q| percentile(&self.open, q)).collect();
        self.closed.push(values);
        self.open.clear();
    }

    /// Samples added so far.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Closed groups so far.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.closed.len()
    }

    /// The median over groups of each percentile, in the order given. A run
    /// too short to close a group reports its partial group.
    #[must_use]
    pub fn finish(mut self) -> Vec<f64> {
        if self.closed.is_empty() && !self.open.is_empty() {
            self.close();
        }
        (0..self.qs.len())
            .map(|i| median(&self.closed.iter().map(|g| g[i]).collect::<Vec<_>>()))
            .collect()
    }
}

/// Whether percentile `q` of `n` samples has at least [`MIN_BEYOND`]
/// samples above it.
#[must_use]
pub fn supported(q: f64, n: usize) -> bool {
    n as f64 * (1.0 - q / 100.0) >= MIN_BEYOND - 1e-9
}

/// The highest percentile of the ladder with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the lowest rung lacks them.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&q| supported(q, n))
}

/// 64-bit FNV-1a, fed field by field.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorbs raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs an integer in little-endian order.
    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// Absorbs a float's exact bit pattern.
    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    /// The digest as 16 hex digits.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), if readable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn grouped_reports_the_median_over_closed_groups() {
        // Groups of 200: two fast, one slow; the 50 left over stay open.
        let fast: Vec<f64> = (1..=200).map(f64::from).collect();
        let slow: Vec<f64> = fast.iter().map(|x| x * 10.0).collect();
        let mut grouped = Grouped::new(200, &[50.0, 95.0]);
        for samples in [&fast, &slow, &fast] {
            grouped.add(samples);
        }
        grouped.add(&[1.0; 50]);
        assert_eq!((grouped.count(), grouped.groups()), (650, 3));
        assert_eq!(grouped.finish(), vec![100.0, 190.0]);
        // Too few samples for a group: the partial group is reported.
        let mut short = Grouped::new(200, &[50.0]);
        short.add(&[2.0, 4.0, 6.0]);
        assert_eq!(short.groups(), 0);
        assert_eq!(short.finish(), vec![4.0]);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p99.9 needs 10 000 samples, p99 1 000, p95 200, p90 100, p75 40.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
        assert!(supported(95.0, 200) && !supported(95.0, 199));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut empty = Fnv::default();
        assert_eq!(empty.hex(), "cbf29ce484222325");
        empty.bytes(b"a");
        assert_eq!(empty.hex(), "af63dc4c8601ec8c");
    }
}
