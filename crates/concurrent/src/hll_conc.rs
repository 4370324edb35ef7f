//! A concurrent HyperLogLog: registers as `AtomicU8` with `fetch_max`.
//!
//! HyperLogLog's registers are max-registers — monotone quantitative
//! objects — so the lock-free parallelization (`fetch_max` per
//! update, plain loads per query) is IVL: a query's estimate is
//! bounded between the estimate at its start and the estimate with
//! every overlapping update applied. [`ConcurrentHll::indicator`]
//! exposes a *strictly monotone integer* functional of the register
//! vector used by the formal IVL checks (the corrected estimate of
//! [`ConcurrentHll::estimate`] is monotone too, but float-valued and
//! piecewise, so tests quantize via the indicator instead).

use ivl_sketch::hll::HyperLogLog;
use ivl_sketch::CoinFlips;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

/// A shared HyperLogLog sketch.
#[derive(Debug)]
pub struct ConcurrentHll {
    /// A sequential prototype holding the routing hash (same coins ⇒
    /// same deterministic algorithm as the sequential sketch).
    proto: HyperLogLog,
    registers: Vec<AtomicU8>,
    /// Update epoch: bumped (`fetch_add`, multi-writer) only by
    /// updates that actually raised a register, so an unchanged epoch
    /// means an unchanged register vector — the `Unchanged` fast path
    /// of delta snapshots. The bump follows the register's
    /// `fetch_max`; a reader that observes the bump (`Acquire`)
    /// therefore sees the raised register.
    epoch: AtomicU64,
    /// Cumulative dirty register range `[lo, hi)`: `fetch_min`/
    /// `fetch_max` widened by raising updates, never narrowed — a
    /// delta reader over-approximates (registers outside the range
    /// still hold their initial 0).
    dirty_lo: AtomicU32,
    dirty_hi: AtomicU32,
}

impl ConcurrentHll {
    /// Creates a sketch with `2^precision` registers, drawing the hash
    /// from `coins`.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is outside `[4, 16]`.
    pub fn new(precision: u32, coins: &mut CoinFlips) -> Self {
        let proto = HyperLogLog::new(precision, coins);
        let m = proto.num_registers();
        ConcurrentHll {
            proto,
            registers: (0..m).map(|_| AtomicU8::new(0)).collect(),
            epoch: AtomicU64::new(0),
            dirty_lo: AtomicU32::new(m as u32),
            dirty_hi: AtomicU32::new(0),
        }
    }

    /// Observes `item`: one `fetch_max` on its register. When the
    /// register actually rises, the dirty range widens over it and the
    /// update epoch is bumped (duplicates stay RMW-free beyond the
    /// `fetch_max` itself).
    pub fn update(&self, item: u64) {
        let (idx, rank) = self.proto.route(item);
        let prev = self.registers[idx].fetch_max(rank, Ordering::AcqRel);
        if prev < rank {
            self.dirty_lo.fetch_min(idx as u32, Ordering::AcqRel);
            self.dirty_hi.fetch_max(idx as u32 + 1, Ordering::AcqRel);
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Absorbs a peer's full register vector — the HLL absorb path of
    /// replication catch-up: register-wise `fetch_max`, i.e. exactly
    /// the union-merge the sequential sketch performs, applied with
    /// the same monotone-merge discipline as [`update`](Self::update).
    /// Registers that actually rise widen the dirty range; the epoch
    /// is bumped once when anything rose (so delta snapshots notice),
    /// and not at all for an absorb that changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `registers.len()` differs from the register count —
    /// callers gate peer precision (and hash fingerprints) first.
    pub fn absorb(&self, registers: &[u8]) {
        assert_eq!(
            registers.len(),
            self.registers.len(),
            "peer register vector must match this sketch's precision"
        );
        let mut raised: Option<(u32, u32)> = None;
        for (idx, &rank) in registers.iter().enumerate() {
            if rank == 0 {
                continue;
            }
            let prev = self.registers[idx].fetch_max(rank, Ordering::AcqRel);
            if prev < rank {
                let (lo, hi) = raised.unwrap_or((idx as u32, idx as u32 + 1));
                raised = Some((lo.min(idx as u32), hi.max(idx as u32 + 1)));
            }
        }
        if let Some((lo, hi)) = raised {
            self.dirty_lo.fetch_min(lo, Ordering::AcqRel);
            self.dirty_hi.fetch_max(hi, Ordering::AcqRel);
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// The sketch's update epoch (`Acquire`): monotone, equal across
    /// two reads only if the register vector is unchanged between
    /// them.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The cumulative dirty register range `[lo, hi)` (`Acquire`);
    /// `lo >= hi` means no register was ever raised. Registers outside
    /// the range still hold their initial 0.
    pub fn dirty_range(&self) -> (u32, u32) {
        (
            self.dirty_lo.load(Ordering::Acquire),
            self.dirty_hi.load(Ordering::Acquire),
        )
    }

    /// Loads the registers in `[lo, hi)` (`Acquire` each), appending
    /// to `out` — the sparse read backing a delta snapshot.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on an out-of-range span.
    pub fn registers_range_into(&self, lo: usize, hi: usize, out: &mut Vec<u8>) {
        debug_assert!(hi <= self.registers.len() && lo <= hi);
        out.extend(
            self.registers[lo..hi]
                .iter()
                .map(|r| r.load(Ordering::Acquire)),
        );
    }

    /// Loads the register vector.
    pub fn registers_snapshot(&self) -> Vec<u8> {
        self.registers
            .iter()
            .map(|r| r.load(Ordering::Acquire))
            .collect()
    }

    /// The corrected cardinality estimate (same estimator as the
    /// sequential sketch, evaluated on the loaded registers).
    pub fn estimate(&self) -> f64 {
        HyperLogLog::estimate_registers(&self.registers_snapshot())
    }

    /// A strictly monotone integer functional of the register vector:
    /// `Σ_j (2^R − 2^(R − M[j]))` with `R = 64`, i.e. larger registers
    /// ⇒ strictly larger indicator. Used as the query value in formal
    /// IVL checks (the paper's quantitative-object query must be
    /// totally ordered; monotone in every register).
    pub fn indicator(&self) -> u128 {
        self.registers
            .iter()
            .map(|r| {
                let m = r.load(Ordering::Acquire) as u32;
                (1u128 << 64) - (1u128 << (64 - m.min(64)))
            })
            .sum()
    }

    /// Number of registers.
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    /// The routing prototype (for building matched sequential
    /// sketches in tests).
    pub fn prototype(&self) -> &HyperLogLog {
        &self.proto
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_equals_sequential_at_quiescence() {
        let mut coins = CoinFlips::from_seed(1);
        let conc = ConcurrentHll::new(10, &mut coins);
        let mut seq = conc.prototype().clone();
        let n = 50_000u64;
        crossbeam::scope(|s| {
            for t in 0..4u64 {
                let conc = &conc;
                s.spawn(move |_| {
                    for x in (t * n / 4)..((t + 1) * n / 4) {
                        conc.update(x);
                    }
                });
            }
        })
        .unwrap();
        for x in 0..n {
            seq.update(x);
        }
        assert_eq!(conc.registers_snapshot(), seq.registers().to_vec());
        assert_eq!(conc.estimate(), seq.estimate());
    }

    #[test]
    fn estimate_reasonable_under_concurrency() {
        let mut coins = CoinFlips::from_seed(2);
        let hll = ConcurrentHll::new(12, &mut coins);
        let n = 80_000u64;
        crossbeam::scope(|s| {
            for t in 0..8u64 {
                let hll = &hll;
                s.spawn(move |_| {
                    for x in (t * n / 8)..((t + 1) * n / 8) {
                        hll.update(x);
                    }
                });
            }
        })
        .unwrap();
        let est = hll.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.1, "estimate {est} vs {n}");
    }

    #[test]
    fn indicator_is_monotone_under_concurrent_reads() {
        let mut coins = CoinFlips::from_seed(3);
        let hll = ConcurrentHll::new(8, &mut coins);
        crossbeam::scope(|s| {
            let hll = &hll;
            let w = s.spawn(move |_| {
                for x in 0..200_000u64 {
                    hll.update(x);
                }
            });
            s.spawn(move |_| {
                let mut last = 0u128;
                for _ in 0..20_000 {
                    let v = hll.indicator();
                    assert!(v >= last, "indicator regressed");
                    last = v;
                }
            });
            w.join().unwrap();
        })
        .unwrap();
    }

    #[test]
    fn duplicates_do_not_move_indicator() {
        let mut coins = CoinFlips::from_seed(4);
        let hll = ConcurrentHll::new(8, &mut coins);
        for x in 0..100u64 {
            hll.update(x);
        }
        let before = hll.indicator();
        for x in 0..100u64 {
            hll.update(x);
        }
        assert_eq!(hll.indicator(), before);
    }

    #[test]
    fn absorb_takes_register_max_and_bumps_the_epoch_once() {
        let mut coins = CoinFlips::from_seed(6);
        let a = ConcurrentHll::new(8, &mut coins);
        let mut peer_coins = CoinFlips::from_seed(6);
        let b = ConcurrentHll::new(8, &mut peer_coins);
        for x in 0..500u64 {
            a.update(x);
        }
        for x in 300..900u64 {
            b.update(x);
        }
        // The union via absorb equals the sequential union-merge.
        let mut seq = a.prototype().clone();
        seq.merge_registers(&a.registers_snapshot());
        seq.merge_registers(&b.registers_snapshot());
        let e = a.epoch();
        a.absorb(&b.registers_snapshot());
        assert_eq!(a.registers_snapshot(), seq.registers().to_vec());
        assert_eq!(a.epoch(), e + 1, "raising absorb bumps the epoch once");
        // Absorbing the same peer again raises nothing: epoch frozen.
        a.absorb(&b.registers_snapshot());
        assert_eq!(a.epoch(), e + 1, "no-op absorb must not bump the epoch");
        // Dirty range still covers every nonzero register.
        let snap = a.registers_snapshot();
        let (lo, hi) = a.dirty_range();
        for (idx, &r) in snap.iter().enumerate() {
            if r != 0 {
                assert!((lo as usize) <= idx && idx < hi as usize);
            }
        }
    }

    #[test]
    fn epoch_moves_only_on_raising_updates_and_range_covers_them() {
        let mut coins = CoinFlips::from_seed(5);
        let hll = ConcurrentHll::new(8, &mut coins);
        assert_eq!(hll.epoch(), 0);
        let (lo, hi) = hll.dirty_range();
        assert!(lo >= hi, "clean sketch has no dirty range");
        for x in 0..100u64 {
            hll.update(x);
        }
        let e = hll.epoch();
        assert!(e > 0, "raising updates must bump the epoch");
        // Duplicates raise nothing: epoch frozen.
        for x in 0..100u64 {
            hll.update(x);
        }
        assert_eq!(hll.epoch(), e, "duplicate updates must not bump the epoch");
        // Every nonzero register sits inside the dirty range, and the
        // range read matches the full snapshot's slice.
        let snap = hll.registers_snapshot();
        let (lo, hi) = hll.dirty_range();
        for (idx, &r) in snap.iter().enumerate() {
            if r != 0 {
                assert!(
                    (lo as usize) <= idx && idx < hi as usize,
                    "raised register {idx} outside dirty range [{lo}, {hi})"
                );
            }
        }
        let mut ranged = Vec::new();
        hll.registers_range_into(lo as usize, hi as usize, &mut ranged);
        assert_eq!(ranged, snap[lo as usize..hi as usize]);
    }
}
