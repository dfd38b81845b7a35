//! Exact order statistics over raw in-memory samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-quantile of
//! `n` sorted samples is the sample at 1-based rank `ceil(p * n)`.
//! A percentile is only *supported* when at least [`MIN_BEYOND`]
//! samples rank above it; callers report the sample count and the
//! number beyond with every figure.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-quantile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// One percentile of a sample set, with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The quantile asked for, in `(0, 1]`.
    pub p: f64,
    /// The sample at that rank.
    pub value: f64,
    /// How many samples the set holds.
    pub samples: usize,
    /// How many samples rank above the reported one.
    pub beyond: usize,
}

impl Percentile {
    /// Whether enough samples lie beyond the value to report it.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }

    /// `p50`, `p99`, ... as a label.
    pub fn label(&self) -> String {
        format!("p{}", (self.p * 100.0).round())
    }
}

/// Sorted copy of a sample set; the one place samples get ordered.
#[derive(Clone, Debug)]
pub struct Sorted(Vec<f64>);

impl Sorted {
    /// Sorts `samples` (NaN-free by construction: every sample is a
    /// measured duration or size).
    pub fn new(mut samples: Vec<f64>) -> Sorted {
        samples.sort_by(f64::total_cmp);
        Sorted(samples)
    }

    /// The nearest-rank `p`-quantile, or `None` for an empty set.
    pub fn percentile(&self, p: f64) -> Option<Percentile> {
        if self.0.is_empty() {
            return None;
        }
        let r = rank(self.0.len(), p);
        Some(Percentile {
            p,
            value: self.0[r - 1],
            samples: self.0.len(),
            beyond: self.0.len() - r,
        })
    }

    /// The median (nearest rank), or `None` for an empty set.
    pub fn median(&self) -> Option<f64> {
        self.percentile(0.5).map(|q| q.value)
    }

    /// The highest of `candidates` (tried in order) that has at least
    /// [`MIN_BEYOND`] samples beyond it.
    pub fn highest_supported(&self, candidates: &[f64]) -> Option<Percentile> {
        candidates
            .iter()
            .filter_map(|&p| self.percentile(p))
            .find(Percentile::supported)
    }
}

/// Median of a small set of values (nearest rank), e.g. repeated
/// set-up times; `None` for an empty set.
pub fn median(values: &[f64]) -> Option<f64> {
    Sorted::new(values.to_vec()).median()
}

/// Nanoseconds elapsed since `start`, saturating.
pub fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `VmHWM` of this process in MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` has no readable `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// An empty vector whose `capacity` slots were all written once, so
/// its pages are resident before a timed phase starts: filling it
/// then adds nothing to the peak RSS, whatever the throughput.
pub fn touched<T: Clone>(capacity: usize, fill: T) -> Vec<T> {
    let mut v = vec![fill; capacity];
    v.clear();
    v
}

/// Bytes `capacity` slots of `T` hold, in MiB.
pub fn capacity_mb<T>(capacity: usize) -> f64 {
    (capacity * std::mem::size_of::<T>()) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Sorted {
        // Reversed on purpose: construction must sort.
        Sorted::new((1..=n).rev().map(|v| v as f64).collect())
    }

    #[test]
    fn nearest_rank_on_known_vectors() {
        let s = one_to(100);
        assert_eq!(s.median(), Some(50.0));
        let p99 = s.percentile(0.99).unwrap();
        assert_eq!((p99.value, p99.samples, p99.beyond), (99.0, 100, 1));
        assert_eq!(s.percentile(1.0).unwrap().value, 100.0);
        assert_eq!(s.percentile(0.0001).unwrap().value, 1.0);

        let five = Sorted::new(vec![15.0, 20.0, 35.0, 40.0, 50.0]);
        // Classic nearest-rank example: p30 = 20, p40 = 20, p50 = 35.
        assert_eq!(five.percentile(0.3).unwrap().value, 20.0);
        assert_eq!(five.percentile(0.4).unwrap().value, 20.0);
        assert_eq!(five.median(), Some(35.0));

        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert!(Sorted::new(Vec::new()).percentile(0.5).is_none());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 999 samples: p99 sits at rank 990, 9 beyond -> unsupported.
        let s = one_to(999);
        let p99 = s.percentile(0.99).unwrap();
        assert_eq!(p99.beyond, 9);
        assert!(!p99.supported());
        // 1000 samples: rank 990, 10 beyond -> supported.
        let s = one_to(1000);
        let p99 = s.percentile(0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        assert!(p99.supported());
        assert_eq!(p99.label(), "p99");
        // The fallback picks p90 when p99 has too little support.
        let s = one_to(200);
        let tail = s.highest_supported(&[0.99, 0.9, 0.5]).unwrap();
        assert_eq!((tail.label().as_str(), tail.value), ("p90", 180.0));
        assert!(one_to(5).highest_supported(&[0.99, 0.9]).is_none());
    }

    #[test]
    fn touched_vectors_keep_their_capacity_and_start_empty() {
        let v = touched(1 << 16, 7u32);
        assert!(v.is_empty());
        assert!(v.capacity() >= 1 << 16);
        assert_eq!(capacity_mb::<u32>(1 << 18), 1.0);
        assert!(peak_rss_mb().unwrap() > 0.25);
    }
}
