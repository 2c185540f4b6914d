//! Order statistics, the geometric mean and the input fingerprint hash.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. `p` is a share in `0..=1`.
///
/// # Panics
/// Panics on an empty slice: a percentile of nothing is a harness bug.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort ascending (total order, so a NaN cannot poison the sort).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median with the two middle samples averaged on even counts; 0 for an
/// empty sample (a layer the workload never entered).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v.to_vec());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Geometric mean of strictly positive values.
///
/// # Panics
/// Panics on an empty slice or a non-positive value: every case of a
/// workload must have produced a positive timing before aggregation.
pub fn gmean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "geometric mean of an empty sample");
    let mut log_sum = 0.0;
    for &x in v {
        assert!(x > 0.0, "geometric mean needs positive values, got {x}");
        log_sum += x.ln();
    }
    (log_sum / v.len() as f64).exp()
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// FNV-1a-64, the input fingerprint: fed every source string and every
/// generated data buffer of a workload, so an edit to a kernel or a
/// generator shows up as a changed `inputs_fnv` instead of a silently
/// shifted baseline.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]); // terminator: "ab","c" != "a","bc"
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn i64s(&mut self, v: &[i64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x as u64);
        }
    }

    pub fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x.to_bits());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Ten samples: p95 is the largest, p50 the fifth.
        let t: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&t, 0.95), 10.0);
        assert_eq!(percentile(&t, 0.50), 5.0);
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn gmean_of_ratios_is_scale_free() {
        assert!((gmean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        // Doubling one of four cases moves the mean by 2^(1/4).
        let base = gmean(&[5.0, 6.0, 7.0, 8.0]);
        let moved = gmean(&[10.0, 6.0, 7.0, 8.0]);
        assert!((moved / base - 2f64.powf(0.25)).abs() < 1e-9);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv64::default();
        h.bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv_separates_adjacent_strings() {
        let mut a = Fnv64::default();
        a.str("ab");
        a.str("c");
        let mut b = Fnv64::default();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
