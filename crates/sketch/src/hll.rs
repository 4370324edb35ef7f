//! HyperLogLog distinct counting (Flajolet et al. 2007; engineering
//! per Heule et al. \[18\]).
//!
//! `m = 2^b` registers; each item is hashed to 64 well-mixed bits, the
//! first `b` select a register and the register keeps the **maximum**
//! number of leading zeros (+1) of the remaining bits. The estimate is
//! the bias-corrected harmonic mean `α_m · m² / Σ 2^{−M[j]}`, with the
//! standard linear-counting correction for small cardinalities.
//! Standard error is `≈ 1.04/√m`.
//!
//! Registers are **max-registers**: state only grows, and the estimate
//! is a monotone function of the register vector — the second monotone
//! quantitative object family of the workspace (`ivl-concurrent`
//! parallelizes it with CAS-max and checks IVL via the interval fast
//! path).

use crate::coins::CoinFlips;
use crate::hash::MixHash;

/// A HyperLogLog sketch with `2^precision` registers.
///
/// # Examples
///
/// ```
/// use ivl_sketch::{CoinFlips, HyperLogLog};
///
/// let mut coins = CoinFlips::from_seed(7);
/// let mut hll = HyperLogLog::new(12, &mut coins);
/// for x in 0..10_000u64 {
///     hll.update(x);
///     hll.update(x); // duplicates don't inflate the estimate
/// }
/// let est = hll.estimate();
/// assert!((est - 10_000.0).abs() / 10_000.0 < 4.0 * hll.standard_error());
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct HyperLogLog {
    precision: u32,
    registers: Vec<u8>,
    hash: MixHash,
}

impl HyperLogLog {
    /// Creates a sketch with `2^precision` registers (`4 ≤ precision ≤
    /// 16`), drawing its hash from `coins`.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is outside `[4, 16]`.
    pub fn new(precision: u32, coins: &mut CoinFlips) -> Self {
        assert!(
            (4..=16).contains(&precision),
            "precision must be in [4, 16]"
        );
        HyperLogLog {
            precision,
            registers: vec![0; 1 << precision],
            hash: MixHash::draw(coins),
        }
    }

    /// Number of registers `m`.
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    /// The register index and rank contribution of `item` — exposed so
    /// the concurrent parallelization applies *the same deterministic
    /// mapping* (same coin flips ⇒ same algorithm).
    pub fn route(&self, item: u64) -> (usize, u8) {
        let h = self.hash.hash(item);
        let idx = (h >> (64 - self.precision)) as usize;
        let rest = h << self.precision;
        // Rank: leading zeros of the remaining bits + 1, capped.
        let rank = (rest.leading_zeros() + 1).min(64 - self.precision + 1) as u8;
        (idx, rank)
    }

    /// Observes `item`.
    pub fn update(&mut self, item: u64) {
        let (idx, rank) = self.route(item);
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Bias-correction constant `α_m` for `m` registers.
    fn alpha(m: usize) -> f64 {
        match m {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m as f64),
        }
    }

    /// Estimates the number of distinct items observed.
    pub fn estimate(&self) -> f64 {
        Self::estimate_registers(&self.registers)
    }

    /// The [`estimate`](Self::estimate) of a sketch holding `regs`
    /// (`m = regs.len()` registers), so a loaded register snapshot is
    /// estimated without building a sketch around it.
    pub fn estimate_registers(regs: &[u8]) -> f64 {
        let m = regs.len() as f64;
        let sum: f64 = regs.iter().map(|&r| inv_pow2(r)).sum();
        let raw = Self::alpha(regs.len()) * m * m / sum;
        if raw <= 2.5 * m {
            // Small-range (linear counting) correction.
            let zeros = regs.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    /// The standard error `1.04/√m` of the estimate.
    pub fn standard_error(&self) -> f64 {
        1.04 / (self.registers.len() as f64).sqrt()
    }

    /// Read-only register view.
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Merges another sketch built with the *same coins* (register-wise
    /// max) — the mergeability property of \[1\].
    ///
    /// # Panics
    ///
    /// Panics if the sketches have different precision or hashes.
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(self.precision, other.precision, "precision mismatch");
        assert_eq!(self.hash, other.hash, "sketches use different coins");
        self.merge_registers(&other.registers);
    }

    /// Merges a raw register vector (register-wise max), e.g. a
    /// register snapshot loaded from a concurrent sketch.
    ///
    /// # Panics
    ///
    /// Panics if `regs` has a different length.
    pub fn merge_registers(&mut self, regs: &[u8]) {
        assert_eq!(regs.len(), self.registers.len(), "register count mismatch");
        for (a, &b) in self.registers.iter_mut().zip(regs) {
            *a = (*a).max(b);
        }
    }
}

/// `2^{-r}` built from its bit pattern: the biased exponent
/// `1023 - r` stays normal for every `u8` rank, so the term is exact —
/// the same value `2f64.powi(-r)` computes, without the loop.
#[inline]
fn inv_pow2(r: u8) -> f64 {
    f64::from_bits((1023 - u64::from(r)) << 52)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_within_a_few_standard_errors() {
        let mut coins = CoinFlips::from_seed(1);
        let mut hll = HyperLogLog::new(12, &mut coins);
        let n = 100_000u64;
        for x in 0..n {
            hll.update(x);
        }
        let est = hll.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(
            rel < 4.0 * hll.standard_error(),
            "estimate {est} vs {n}: rel err {rel}"
        );
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut coins = CoinFlips::from_seed(2);
        let mut hll = HyperLogLog::new(10, &mut coins);
        for _ in 0..100 {
            for x in 0..500u64 {
                hll.update(x);
            }
        }
        let est = hll.estimate();
        assert!((est - 500.0).abs() / 500.0 < 0.15, "est {est}");
    }

    #[test]
    fn small_range_uses_linear_counting() {
        let mut coins = CoinFlips::from_seed(3);
        let mut hll = HyperLogLog::new(12, &mut coins);
        for x in 0..10u64 {
            hll.update(x);
        }
        let est = hll.estimate();
        assert!((est - 10.0).abs() <= 2.0, "small-range est {est}");
    }

    #[test]
    fn registers_are_monotone() {
        let mut coins = CoinFlips::from_seed(4);
        let mut hll = HyperLogLog::new(8, &mut coins);
        let mut prev = hll.registers().to_vec();
        for x in 0..10_000u64 {
            hll.update(x);
            for (a, b) in hll.registers().iter().zip(&prev) {
                assert!(a >= b, "register decreased");
            }
            prev = hll.registers().to_vec();
        }
    }

    #[test]
    fn merge_equals_union() {
        let mut coins = CoinFlips::from_seed(5);
        let proto = HyperLogLog::new(10, &mut coins);
        let mut a = proto.clone();
        let mut b = proto.clone();
        let mut u = proto.clone();
        for x in 0..3000u64 {
            a.update(x);
            u.update(x);
        }
        for x in 2000..6000u64 {
            b.update(x);
            u.update(x);
        }
        a.merge(&b);
        assert_eq!(a, u, "merge must equal processing the union");
    }

    #[test]
    #[should_panic(expected = "different coins")]
    fn merge_rejects_mismatched_coins() {
        let mut c1 = CoinFlips::from_seed(6);
        let mut c2 = CoinFlips::from_seed(7);
        let mut a = HyperLogLog::new(8, &mut c1);
        let b = HyperLogLog::new(8, &mut c2);
        a.merge(&b);
    }

    /// Reference estimator for the bit-identity test: one `powi` per
    /// register.
    fn powi_estimate(regs: &[u8]) -> f64 {
        let m = regs.len() as f64;
        let sum: f64 = regs.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = HyperLogLog::alpha(regs.len()) * m * m / sum;
        if raw <= 2.5 * m {
            let zeros = regs.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    #[test]
    fn estimate_is_bit_identical_to_the_powi_formula() {
        for r in 0..=u8::MAX {
            assert_eq!(
                inv_pow2(r).to_bits(),
                2f64.powi(-(r as i32)).to_bits(),
                "r = {r}"
            );
        }
        // Random register vectors of every shape: sparse (linear
        // counting), dense, and ranks past what `route` produces.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for precision in [4u32, 5, 6, 10, 12] {
            for trial in 0..50 {
                let max_rank = [2u64, 8, 20, 64, 256][trial % 5];
                let regs: Vec<u8> = (0..1usize << precision)
                    .map(|_| {
                        let v = next();
                        if v % 4 == 0 {
                            0
                        } else {
                            ((v >> 8) % max_rank) as u8
                        }
                    })
                    .collect();
                assert_eq!(
                    HyperLogLog::estimate_registers(&regs).to_bits(),
                    powi_estimate(&regs).to_bits(),
                    "precision {precision}, trial {trial}"
                );
            }
        }
    }

    #[test]
    fn route_is_stable() {
        let mut coins = CoinFlips::from_seed(8);
        let hll = HyperLogLog::new(8, &mut coins);
        let (i1, r1) = hll.route(12345);
        let (i2, r2) = hll.route(12345);
        assert_eq!((i1, r1), (i2, r2));
        assert!(i1 < hll.num_registers());
        assert!(r1 >= 1);
    }
}
