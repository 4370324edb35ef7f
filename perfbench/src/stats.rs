//! Order statistics: a fixed-size log-linear latency histogram, a
//! fixed-size systematic sample of floats, and a float median.

/// Sub-buckets per power of two: quantiles carry at most
/// `1/SUB` ≈ 0.8% relative error.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Largest recordable value, ns (about 18 minutes); larger ones clamp.
const MAX_VALUE: u64 = (1 << 40) - 1;
const BUCKETS: usize = ((40 - SUB_BITS + 1) as usize + 1) * SUB as usize;

fn index(v: u64) -> usize {
    let v = v.min(MAX_VALUE);
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    let mantissa = (v >> shift) - SUB;
    ((shift as u64 + 1) * SUB + mantissa) as usize
}

/// Midpoint of bucket `idx`.
fn midpoint(idx: usize) -> f64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx as f64;
    }
    let shift = idx / SUB - 1;
    let lo = (SUB + idx % SUB) << shift;
    lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

/// A latency histogram in nanoseconds. Its memory is allocated once,
/// whatever the sample count, so the benchmark's own footprint does
/// not move the resident-set metric.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl Hist {
    /// Records one sample, ns.
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
    }

    /// Adds another histogram's samples.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Sample count.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Nearest-rank quantile `q ∈ [0, 1]` in ns (bucket midpoint; 0
    /// when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return midpoint(idx);
            }
        }
        midpoint(BUCKETS - 1)
    }

    /// Quantile `q` in µs.
    pub fn us(&self, q: f64) -> f64 {
        self.quantile(q) / 1e3
    }
}

/// Values a [`Sample`] keeps at most.
const SAMPLE_CAP: usize = 1 << 12;

/// A systematic sample of a stream of floats in fixed memory: every
/// value until [`SAMPLE_CAP`] are kept, then every other kept value is
/// dropped and only every second later value is kept, and so on. The
/// kept values are exact, so their median reads as measured.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    kept: Vec<f64>,
    stride: u64,
    seen: u64,
}

impl Sample {
    /// Offers one value.
    pub fn push(&mut self, v: f64) {
        if self.seen.is_multiple_of(self.stride.max(1)) {
            if self.kept.is_empty() {
                self.kept.reserve_exact(SAMPLE_CAP);
            }
            self.kept.push(v);
            self.thin();
        }
        self.seen += 1;
    }

    /// Adds another sample's kept values.
    pub fn merge(&mut self, other: &Sample) {
        self.kept.extend(&other.kept);
        self.stride = self.stride.max(other.stride);
        self.seen += other.seen;
        self.thin();
    }

    fn thin(&mut self) {
        while self.kept.len() >= SAMPLE_CAP {
            let mut i = 0;
            self.kept.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            self.stride = self.stride.max(1) * 2;
        }
    }

    /// Values offered.
    pub fn len(&self) -> u64 {
        self.seen
    }

    /// Whether no value was offered.
    pub fn is_empty(&self) -> bool {
        self.seen == 0
    }

    /// Median of the kept values (0 when empty).
    pub fn median(&self) -> f64 {
        median_f64(&self.kept)
    }
}

/// Median of unsorted floats (0 when empty).
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact_and_large_ones_within_resolution() {
        let mut h = Hist::default();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert_eq!(h.len(), 100);
        for v in [1_000u64, 38_123, 1_234_567, 987_654_321, 1 << 39] {
            let mut h = Hist::default();
            h.record(v);
            let got = h.quantile(0.5);
            assert!(
                (got - v as f64).abs() / v as f64 <= 1.0 / SUB as f64,
                "{v} -> {got}"
            );
        }
        let mut a = Hist::default();
        a.record(10);
        a.merge(&h);
        assert_eq!(a.len(), 101);
        assert_eq!(Hist::default().quantile(0.5), 0.0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn a_sample_stays_bounded_and_keeps_the_median() {
        let mut s = Sample::default();
        for v in 0..10 * SAMPLE_CAP {
            s.push(v as f64);
        }
        assert_eq!(s.len(), 10 * SAMPLE_CAP as u64);
        assert!(s.kept.len() < SAMPLE_CAP);
        let mid = 5.0 * SAMPLE_CAP as f64;
        assert!((s.median() - mid).abs() / mid < 0.01, "{}", s.median());
        let mut t = Sample::default();
        t.push(1.0);
        t.merge(&s);
        assert_eq!(t.len(), s.len() + 1);
        assert!(t.kept.len() < SAMPLE_CAP);
    }
}
