//! Lifetime stuck-at fault arrivals — the wear-out process behind the
//! self-healing execution path.
//!
//! Program-time fault models ([`crate::FaultModel`]) deal an array its
//! defects once; a deployed crossbar keeps accumulating them as cells wear
//! out. [`LifetimeFaultModel`] models that arrival process on a monotone
//! *scrub-epoch* axis: each cell independently draws a geometric arrival
//! epoch (per-epoch Bernoulli failure with a fixed rate), and once arrived
//! the cell is stuck for every later epoch.
//!
//! Like [`crate::DriftModel`], the model is a *pure function* of
//! `(seed, row, col)` — no RNG stream is consumed, every query is O(1),
//! and the answer is independent of query order and thread count, so the
//! scrub loop built on top stays bitwise serial≡parallel and checkpoint
//! restores can re-derive the exact fault state from `(model, epoch)`
//! alone.

use crate::error::DeviceError;
use crate::{FaultKind, FaultMap};
use xbar_tensor::rng::XorShiftRng;

/// Fraction of lifetime faults that are stuck-at-`g_min` (opens) versus
/// stuck-at-`g_max` (shorts) — the same 80/20 split
/// [`crate::FaultModel::uniform`] uses for program-time defects.
const STUCK_LOW_FRACTION: f32 = 0.8;

/// Deterministic per-cell stuck-at fault arrivals indexed by a monotone
/// scrub epoch.
///
/// `fault_at(row, col, epoch)` is a pure function: cell `(row, col)` draws
/// its arrival epoch from a geometric distribution with per-epoch rate
/// [`LifetimeFaultModel::rate`] (hash-seeded, like
/// [`crate::DriftModel`]'s per-cell ν), and is stuck from that epoch on.
/// Faults are therefore *monotone*: the fault set at epoch `e` is a subset
/// of the set at `e + 1`, which is what lets online detection treat any
/// new checksum residual as a new arrival.
///
/// The inactive model ([`LifetimeFaultModel::none`], rate 0) never deals a
/// fault and is the [`Default`] — execution paths that check
/// [`LifetimeFaultModel::is_none`] first are bitwise no-ops.
///
/// # Example
///
/// ```
/// use xbar_device::LifetimeFaultModel;
///
/// let model = LifetimeFaultModel::new(0.05, 42).unwrap();
/// // Pure and monotone: once stuck, stuck forever.
/// for row in 0..8 {
///     for col in 0..8 {
///         if let Some(kind) = model.fault_at(row, col, 10) {
///             assert_eq!(model.fault_at(row, col, 20), Some(kind));
///         }
///     }
/// }
/// assert!(LifetimeFaultModel::none().fault_at(0, 0, u32::MAX).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeFaultModel {
    rate: f32,
    seed: u64,
}

impl LifetimeFaultModel {
    /// Builds a lifetime fault model with a per-cell per-epoch arrival
    /// probability `rate` in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] if `rate` is NaN or
    /// outside `[0, 1]`.
    pub fn new(rate: f32, seed: u64) -> Result<Self, DeviceError> {
        if !(0.0..=1.0).contains(&rate) {
            return Err(DeviceError::InvalidParameter {
                model: "lifetime fault model",
                detail: format!("arrival rate {rate} must be in [0, 1]"),
            });
        }
        Ok(Self { rate, seed })
    }

    /// The inactive model: no cell ever fails.
    pub fn none() -> Self {
        Self { rate: 0.0, seed: 0 }
    }

    /// Whether the model is inactive (zero arrival rate).
    pub fn is_none(&self) -> bool {
        self.rate == 0.0
    }

    /// Whether the model can ever deal a fault (non-zero arrival rate).
    pub fn is_active(&self) -> bool {
        !self.is_none()
    }

    /// Per-cell per-epoch arrival probability.
    pub fn rate(&self) -> f32 {
        self.rate
    }

    /// The wear-out process seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scrub epoch at which cell `(row, col)` becomes stuck, and the
    /// value it sticks at, or `None` if it outlives every representable
    /// epoch. Stacked conductance-matrix coordinates (`row` = device
    /// column, `col` = input), matching [`crate::DriftModel::nu_at`].
    pub fn arrival(&self, row: usize, col: usize) -> Option<(u32, FaultKind)> {
        if self.is_none() {
            return None;
        }
        // Same per-cell hash-seeded stream as DriftModel::nu_at, so the
        // arrival is a pure function of (seed, row, col).
        let mixed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((row as u64).wrapping_mul(0xA076_1D64_78BD_642F))
            .wrapping_add((col as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB));
        let mut rng = XorShiftRng::new(mixed | 1);
        let u = rng.next_f32();
        let kind = if rng.next_f32() < STUCK_LOW_FRACTION {
            FaultKind::StuckAtGMin
        } else {
            FaultKind::StuckAtGMax
        };
        if self.rate >= 1.0 {
            return Some((1, kind));
        }
        // Geometric arrival on {1, 2, ...}: P(epoch ≤ e) = 1 − (1−rate)^e.
        let survive = f64::from(1.0 - self.rate).ln();
        let tail = f64::from(1.0 - u).max(f64::MIN_POSITIVE).ln();
        let epoch = (tail / survive).ceil().max(1.0);
        if epoch > f64::from(u32::MAX) {
            None
        } else {
            Some((epoch as u32, kind))
        }
    }

    /// The stuck-at state of cell `(row, col)` at scrub epoch `epoch`
    /// (`None` = still healthy). Epoch 0 is the pristine array: no
    /// lifetime fault has arrived yet.
    pub fn fault_at(&self, row: usize, col: usize, epoch: u32) -> Option<FaultKind> {
        self.arrival(row, col)
            .and_then(|(e, kind)| (e <= epoch).then_some(kind))
    }

    /// Materializes the full fault map of a `rows × cols` array at scrub
    /// epoch `epoch`.
    pub fn fault_map(&self, rows: usize, cols: usize, epoch: u32) -> FaultMap {
        self.fault_map_with_arrivals(rows, cols, epoch).0
    }

    /// [`LifetimeFaultModel::fault_map`] plus the number of cells whose
    /// fault arrives exactly at `epoch` — the new stuck cells of that
    /// epoch, counted in the same single pass over the cells.
    pub fn fault_map_with_arrivals(
        &self,
        rows: usize,
        cols: usize,
        epoch: u32,
    ) -> (FaultMap, usize) {
        let mut map = FaultMap::pristine(rows, cols);
        let mut arrivals = 0;
        if self.is_none() || epoch == 0 {
            return (map, arrivals);
        }
        for row in 0..rows {
            for col in 0..cols {
                if let Some((at, kind)) = self.arrival(row, col) {
                    if at <= epoch {
                        map.set(row, col, kind);
                        arrivals += usize::from(at == epoch);
                    }
                }
            }
        }
        (map, arrivals)
    }
}

impl Default for LifetimeFaultModel {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_faults() {
        let m = LifetimeFaultModel::none();
        assert!(m.is_none());
        assert!(m.fault_at(3, 7, u32::MAX).is_none());
        assert!(m.fault_map(8, 8, 1000).is_pristine());
        assert_eq!(LifetimeFaultModel::default(), m);
    }

    #[test]
    fn rejects_invalid_rates() {
        assert!(LifetimeFaultModel::new(-0.1, 1).is_err());
        assert!(LifetimeFaultModel::new(1.5, 1).is_err());
        assert!(LifetimeFaultModel::new(f32::NAN, 1).is_err());
        assert!(LifetimeFaultModel::new(0.0, 1).unwrap().is_none());
        assert!(!LifetimeFaultModel::new(0.3, 1).unwrap().is_none());
    }

    #[test]
    fn epoch_zero_is_pristine() {
        let m = LifetimeFaultModel::new(0.9, 5).unwrap();
        assert!(m.fault_map(16, 16, 0).is_pristine());
    }

    #[test]
    fn faults_are_monotone_in_epoch() {
        let m = LifetimeFaultModel::new(0.08, 11).unwrap();
        for epoch in 0..30u32 {
            let now = m.fault_map(12, 10, epoch);
            let later = m.fault_map(12, 10, epoch + 1);
            assert!(later.num_stuck() >= now.num_stuck());
            for (row, col, kind) in now.iter_stuck() {
                assert_eq!(later.get(row, col), Some(kind), "({row},{col})");
            }
            // The single-pass arrival count is the growth of the map.
            let (map, arrivals) = m.fault_map_with_arrivals(12, 10, epoch + 1);
            assert_eq!(map, later);
            assert_eq!(arrivals, later.num_stuck() - now.num_stuck());
        }
    }

    #[test]
    fn pure_function_of_seed_row_col() {
        let a = LifetimeFaultModel::new(0.1, 77).unwrap();
        let b = LifetimeFaultModel::new(0.1, 77).unwrap();
        // Query in different orders; answers must agree cell-by-cell.
        for row in (0..9).rev() {
            for col in 0..9 {
                assert_eq!(a.fault_at(row, col, 13), b.fault_at(row, col, 13));
                assert_eq!(a.arrival(row, col), b.arrival(row, col));
            }
        }
        let c = LifetimeFaultModel::new(0.1, 78).unwrap();
        let same = (0..9)
            .flat_map(|r| (0..9).map(move |c2| (r, c2)))
            .all(|(r, c2)| a.arrival(r, c2) == c.arrival(r, c2));
        assert!(!same, "different seeds must decorrelate arrivals");
    }

    #[test]
    fn rate_one_fails_everything_at_epoch_one() {
        let m = LifetimeFaultModel::new(1.0, 3).unwrap();
        let map = m.fault_map(6, 6, 1);
        assert_eq!(map.num_stuck(), 36);
    }

    #[test]
    fn arrival_rate_matches_statistics() {
        let m = LifetimeFaultModel::new(0.02, 9).unwrap();
        // After e epochs, expect 1 − 0.98^e of cells stuck.
        let cells = 64 * 64;
        let stuck = m.fault_map(64, 64, 20).num_stuck() as f32;
        let expect = (1.0 - 0.98f32.powi(20)) * cells as f32;
        assert!(
            (stuck - expect).abs() < 0.15 * expect,
            "stuck {stuck} vs expected {expect}"
        );
    }

    #[test]
    fn both_fault_kinds_appear_in_roughly_80_20_split() {
        let m = LifetimeFaultModel::new(1.0, 21).unwrap();
        let map = m.fault_map(64, 64, 1);
        let low = map
            .iter_stuck()
            .filter(|&(_, _, k)| k == FaultKind::StuckAtGMin)
            .count() as f32;
        let frac = low / map.num_stuck() as f32;
        assert!((frac - 0.8).abs() < 0.05, "stuck-low fraction {frac}");
    }

    #[test]
    fn map_agrees_with_pointwise_queries() {
        let m = LifetimeFaultModel::new(0.15, 33).unwrap();
        let map = m.fault_map(10, 14, 7);
        for row in 0..10 {
            for col in 0..14 {
                assert_eq!(map.get(row, col), m.fault_at(row, col, 7));
            }
        }
    }
}
