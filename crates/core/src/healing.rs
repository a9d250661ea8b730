//! Self-healing crossbar execution: online fault detection, staged repair
//! with retry/backoff, and exact digital fallback.
//!
//! Write-verify programming, null-space remap and `Mapping::Perm` act at
//! *program time*; a fault that arrives after mapping silently corrupts
//! every later MVM. [`ScrubState`] closes the loop at run time. Each
//! [`ScrubState::tick`] is one scrub epoch of a programmed layer:
//!
//! 1. **Refresh** — every tile is noiselessly re-programmed from
//!    `clamp(ideal + shift)` over the epoch's lifetime fault map
//!    ([`xbar_device::LifetimeFaultModel`]); stuck cells keep their
//!    forced values.
//! 2. **Detection** — an ABFT checksum per tile. The column sums `c` of a
//!    tile's target block satisfy `Σ_d (x·Mᵀ)[d] = x·c` for every input
//!    `x`; the scrub evaluates the worst-case mismatch over unit inputs
//!    analytically, so detection is a pure function of array state.
//! 3. **Health tracking** — a per-tile residual EWMA drives
//!    `Healthy → Suspect → Repairing → Quarantined`; one suspect reading
//!    never triggers a repair, the residual must persist.
//! 4. **Staged repair** — a bounded retry/backoff budget walks
//!    [`RepairStage::Reprogram`] → [`RepairStage::Remap`] (tile-local
//!    null-space compensation of the stuck cells, kept in `shift`) →
//!    [`RepairStage::FullRemap`] (remap from the ideal block), recording
//!    every [`RepairAttempt`].
//! 5. **Digital fallback** — a tile that exhausts its budget is
//!    quarantined and served from its ideal block, exactly; the
//!    [`ScrubReport::analog_coverage`] metric drops instead of accuracy.
//!
//! Scrub programming uses `VariationModel::none()`: it writes targets
//! exactly and consumes no RNG, so what a tick serves is a pure function
//! of `(ideal, shift, health, epoch)` and the lifetime model. Serial and
//! pooled runs stay bitwise identical, and a checkpoint rebuilds the
//! served view exactly ([`ScrubState::served`]).

use xbar_device::{DeviceConfig, FaultMap, VariationModel};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::Tensor;

use crate::{remap_for_faults, MappingError, PeripheryMatrix, Tile, TileGrid};

/// Health state of one physical tile, as tracked by the
/// [`HealthMonitor`]'s per-tile state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum TileHealth {
    /// Residual EWMA below threshold; the tile serves analog MVMs.
    #[default]
    Healthy,
    /// The residual crossed the threshold once; confirmed (and repaired)
    /// only if it persists at the next scrub.
    Suspect,
    /// Under active repair, walking the escalation ladder between
    /// backoff windows.
    Repairing,
    /// Repair budget exhausted; the tile's partial product is served by
    /// the exact digital fallback path.
    Quarantined,
}

impl TileHealth {
    /// Stable numeric code, for flat (tensor) persistence.
    fn code(self) -> f32 {
        f32::from(self as u8)
    }

    /// Inverse of [`TileHealth::code`].
    fn from_code(code: f32) -> Option<Self> {
        [
            Self::Healthy,
            Self::Suspect,
            Self::Repairing,
            Self::Quarantined,
        ]
        .into_iter()
        .find(|s| s.code() == code)
    }
}

/// One rung of the repair escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStage {
    /// Re-run the write-verify programming pass against the current
    /// targets. Clears transient (soft) corruption; cannot fix stuck
    /// cells.
    Reprogram,
    /// Tile-local null-space remap: shift the tile's healthy cells along
    /// the local periphery's null direction to compensate the stuck
    /// ones, then re-program.
    Remap,
    /// Discard every previously accumulated shift and remap the tile
    /// from its ideal block — recovers from a stale compensation that
    /// later arrivals invalidated.
    FullRemap,
}

/// Tuning knobs of the detection/repair loop.
///
/// The attempt counts define the escalation ladder: the first
/// `reprogram_attempts` failed attempts on a tile re-program it, the next
/// `remap_attempts` remap it, the final `full_remap_attempts` remap it
/// from scratch; a tile whose total budget is exhausted is quarantined.
/// After every failed attempt the tile backs off for
/// `backoff_base << attempts` scrub epochs (capped) before the next try.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairPolicy {
    /// Checksum-residual level above which a tile becomes suspect.
    pub residual_threshold: f32,
    /// Smoothing factor of the per-tile residual EWMA in `(0, 1]`
    /// (1 = no smoothing, track the raw residual).
    pub ewma_alpha: f32,
    /// Budget for the [`RepairStage::Reprogram`] rung.
    pub reprogram_attempts: u32,
    /// Budget for the [`RepairStage::Remap`] rung.
    pub remap_attempts: u32,
    /// Budget for the [`RepairStage::FullRemap`] rung.
    pub full_remap_attempts: u32,
    /// Base backoff in scrub epochs; doubles per failed attempt.
    pub backoff_base: u32,
    /// Weight-space residual (Frobenius, normalized weight units) below
    /// which a remap counts as having restored the tile's accuracy. This
    /// is the accuracy-vs-coverage knob: range clamping leaves real
    /// remaps slightly inexact, so a tolerance near machine precision
    /// quarantines every faulty tile (exact but all-digital), while a
    /// loose one keeps tiles analog at the cost of bounded weight error.
    pub weight_tolerance: f32,
}

impl Default for RepairPolicy {
    fn default() -> Self {
        Self {
            residual_threshold: 1e-4,
            ewma_alpha: 0.5,
            reprogram_attempts: 1,
            remap_attempts: 1,
            full_remap_attempts: 1,
            backoff_base: 1,
            weight_tolerance: 1e-2,
        }
    }
}

impl RepairPolicy {
    /// Total repair attempts a tile is granted before quarantine.
    pub fn budget(&self) -> u32 {
        self.reprogram_attempts + self.remap_attempts + self.full_remap_attempts
    }

    /// The ladder rung for the `attempt`-th attempt (0-based).
    pub fn stage_for(&self, attempt: u32) -> RepairStage {
        if attempt < self.reprogram_attempts {
            RepairStage::Reprogram
        } else if attempt < self.reprogram_attempts + self.remap_attempts {
            RepairStage::Remap
        } else {
            RepairStage::FullRemap
        }
    }

    /// Backoff window (in scrub epochs) after the `attempt`-th failed
    /// attempt: `backoff_base << attempt`, capped at 6 doublings.
    pub fn backoff_after(&self, attempt: u32) -> u32 {
        self.backoff_base << attempt.min(6)
    }
}

/// What the monitor asks the scrub loop to do with one tile this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HealthAction {
    /// Residual nominal; nothing to do.
    Nothing,
    /// First threshold crossing: the tile is now suspect, confirm next
    /// scrub before repairing.
    Detected,
    /// Run one repair attempt at the given ladder rung.
    Repair(RepairStage),
    /// In a backoff window after a failed attempt; wait.
    Backoff,
    /// The tile is quarantined; it is served digitally and ignored.
    AlreadyQuarantined,
}

/// One tile's monitor entry; the default is a fresh healthy tile.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct TileState {
    state: TileHealth,
    ewma: f32,
    attempts: u32,
    backoff_until: u32,
}

/// Per-tile residual EWMAs and the `Healthy → Suspect → Repairing →
/// Quarantined` state machine they drive.
///
/// Tiles are indexed in the grid's deterministic order: row blocks outer,
/// column groups inner (matching [`TileGrid::tiles`]).
#[derive(Debug, Clone, PartialEq)]
struct HealthMonitor {
    policy: RepairPolicy,
    tiles: Vec<TileState>,
}

impl HealthMonitor {
    /// A monitor with every tile healthy.
    fn new(num_tiles: usize, policy: RepairPolicy) -> Self {
        Self {
            policy,
            tiles: vec![TileState::default(); num_tiles],
        }
    }

    /// Health state of one tile.
    fn state(&self, tile: usize) -> TileHealth {
        self.tiles[tile].state
    }

    /// Tiles currently quarantined.
    fn num_quarantined(&self) -> usize {
        self.tiles
            .iter()
            .filter(|t| t.state == TileHealth::Quarantined)
            .count()
    }

    /// Folds one scrub's residual observation for `tile` into the EWMA
    /// and advances the state machine, returning the action the scrub
    /// loop should take.
    fn observe(&mut self, tile: usize, residual: f32, epoch: u32) -> HealthAction {
        let policy = self.policy;
        let t = &mut self.tiles[tile];
        if t.state == TileHealth::Quarantined {
            return HealthAction::AlreadyQuarantined;
        }
        t.ewma = policy.ewma_alpha * residual + (1.0 - policy.ewma_alpha) * t.ewma;
        let over = t.ewma > policy.residual_threshold;
        let (state, action) = match (t.state, over) {
            (TileHealth::Healthy, false) => (TileHealth::Healthy, HealthAction::Nothing),
            (TileHealth::Healthy, true) => (TileHealth::Suspect, HealthAction::Detected),
            // Transient: the residual cleared on its own.
            (TileHealth::Suspect, false) => (TileHealth::Healthy, HealthAction::Nothing),
            (TileHealth::Repairing, _) if epoch < t.backoff_until => {
                (TileHealth::Repairing, HealthAction::Backoff)
            }
            (TileHealth::Suspect, true) | (TileHealth::Repairing, _) => (
                TileHealth::Repairing,
                HealthAction::Repair(policy.stage_for(t.attempts)),
            ),
            (TileHealth::Quarantined, _) => unreachable!("handled above"),
        };
        t.state = state;
        action
    }

    /// Records the outcome of one repair attempt on `tile` and returns
    /// the tile's new state. A healed tile goes back to `Healthy` with a
    /// fresh budget; a failed attempt burns budget, schedules an
    /// exponential backoff window, and quarantines the tile once the
    /// budget is gone.
    fn record_attempt(&mut self, tile: usize, epoch: u32, healed: bool) -> TileHealth {
        let policy = self.policy;
        let t = &mut self.tiles[tile];
        if healed {
            *t = TileState::default();
        } else {
            t.attempts += 1;
            if t.attempts >= policy.budget() {
                t.state = TileHealth::Quarantined;
            } else {
                t.backoff_until = epoch + policy.backoff_after(t.attempts - 1);
            }
        }
        t.state
    }

    /// Flattens the monitor to a tensor of `4` floats per tile
    /// (`[state code, ewma, attempts, backoff_until]`), for tensor-based
    /// checkpoint persistence.
    fn to_tensor(&self) -> Tensor {
        let flat: Vec<f32> = self
            .tiles
            .iter()
            .flat_map(|t| {
                [
                    t.state.code(),
                    t.ewma,
                    t.attempts as f32,
                    t.backoff_until as f32,
                ]
            })
            .collect();
        let len = flat.len();
        Tensor::from_vec(flat, &[len]).expect("length matches")
    }

    /// Rebuilds a monitor from [`HealthMonitor::to_tensor`] output.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the length is not a multiple of 4, a
    /// state code is invalid, an EWMA is not finite, or a counter is
    /// negative or not finite.
    fn from_flat(flat: &[f32], policy: RepairPolicy) -> Result<Self, MappingError> {
        let invalid = |what: &str, v: f32| {
            MappingError::Shape(xbar_tensor::ShapeError::new(
                "health monitor",
                format!("invalid {what} {v}"),
            ))
        };
        if !flat.len().is_multiple_of(4) {
            return Err(invalid("flat state length", flat.len() as f32));
        }
        let tiles = flat
            .chunks_exact(4)
            .map(|c| {
                let state =
                    TileHealth::from_code(c[0]).ok_or_else(|| invalid("tile health code", c[0]))?;
                if !c[1].is_finite() {
                    return Err(invalid("tile residual EWMA", c[1]));
                }
                if let Some(&v) = c[2..].iter().find(|v| !(v.is_finite() && **v >= 0.0)) {
                    return Err(invalid("tile counter", v));
                }
                Ok(TileState {
                    state,
                    ewma: c[1],
                    attempts: c[2] as u32,
                    backoff_until: c[3] as u32,
                })
            })
            .collect::<Result<Vec<_>, MappingError>>()?;
        Ok(Self { policy, tiles })
    }
}

/// One rung-of-the-ladder repair attempt on one tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairAttempt {
    /// Scrub epoch the attempt ran in.
    pub epoch: u32,
    /// Tile index (row blocks outer, column groups inner).
    pub tile: usize,
    /// The ladder rung used.
    pub stage: RepairStage,
    /// Checksum residual before the attempt.
    pub residual_before: f32,
    /// Checksum residual after the attempt.
    pub residual_after: f32,
    /// Whether the attempt restored the tile (stage-specific criterion:
    /// checksum residual for re-programming, weight-space residual for
    /// the remap rungs).
    pub healed: bool,
}

/// Outcome of one [`ScrubState::tick`]: the epoch's fault arrivals and
/// every detection, repair and quarantine event it triggered.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScrubReport {
    /// The scrub epoch this report covers.
    pub epoch: u32,
    /// Lifetime faults that arrived this epoch (new stuck cells).
    pub new_faults: usize,
    /// Tiles that newly crossed the detection threshold.
    pub detections: usize,
    /// Every repair attempt run this epoch.
    pub repairs: Vec<RepairAttempt>,
    /// Tiles quarantined during this scrub.
    pub quarantined_now: usize,
    /// Total quarantined tiles after this scrub.
    pub quarantined_total: usize,
    /// Tiles still serving analog MVMs after this scrub.
    pub analog_tiles: usize,
    /// Total tiles in the grid.
    pub total_tiles: usize,
    /// Cells that blew the write-verify retry budget across this epoch's
    /// programming passes.
    pub exhausted_cells: usize,
}

impl ScrubReport {
    /// Fraction of tiles still served by the analog array, in `[0, 1]`.
    pub fn analog_coverage(&self) -> f32 {
        if self.total_tiles == 0 {
            return 1.0;
        }
        self.analog_tiles as f32 / self.total_tiles as f32
    }
}

/// Worst-case ABFT checksum residual of a tile: the maximum over input
/// columns of the absolute column-sum mismatch between the physical and
/// target blocks — the largest residual a checksummed MVM can observe
/// over unit inputs. A single column checksum can in principle be
/// blinded by two arrivals of opposite sign cancelling in the same
/// column — rare, and caught at the next arrival.
fn checksum_residual(physical: &Tensor, targets: &Tensor) -> f32 {
    debug_assert_eq!(physical.shape(), targets.shape());
    let (rows, cols) = (physical.shape()[0], physical.shape()[1]);
    let mut worst = 0.0f32;
    for c in 0..cols {
        let mut sum = 0.0f32;
        for r in 0..rows {
            sum += physical.data()[r * cols + c] - targets.data()[r * cols + c];
        }
        worst = worst.max(sum.abs());
    }
    worst
}

/// A check a persisted tensor's contents must pass, beyond its shape,
/// before a snapshot may be restored into it.
type StateCheck = fn(&Tensor) -> Result<(), String>;

/// Deterministic seed of the (never-consumed) scrub programming stream.
const SCRUB_RNG_SEED: u64 = 0x5C2B;

/// Persistent state of the self-healing scrub loop of one programmed
/// layer: the scrub epoch, the per-tile health, and the remap
/// compensation `shift`, kept as tensors so they ride any tensor
/// checkpoint path ([`ScrubState::tensors_mut`]).
///
/// The layer is borrowed on every call: the caller owns the
/// [`TileGrid`], periphery, device and *ideal* conductances — the snapped
/// targets of a [`crate::CrossbarArray`], or a trained parameter's
/// quantized conductances, which may change between ticks. The served
/// view is not persisted; [`ScrubState::served`] rebuilds it.
///
/// # Example
///
/// ```
/// use xbar_core::{CrossbarArray, Mapping, RepairPolicy, ScrubState};
/// use xbar_device::{DeviceConfig, LifetimeFaultModel, TileShape};
/// use xbar_tensor::{rng::XorShiftRng, Tensor};
///
/// # fn main() -> Result<(), xbar_core::MappingError> {
/// let mut rng = XorShiftRng::new(9);
/// let w = Tensor::rand_uniform(&[12, 24], -0.02, 0.02, &mut rng);
/// let device = DeviceConfig::ideal()
///     .with_tile_shape(Some(TileShape::new(8, 8)))
///     .with_lifetime_faults(LifetimeFaultModel::new(0.001, 7).unwrap());
/// let xb = CrossbarArray::program_signed(&w, Mapping::Acm, device, &mut rng)?;
/// let (grid, policy) = (xb.grid(), RepairPolicy::default());
/// let mut scrub = ScrubState::new(grid);
/// let (report, served, _) =
///     scrub.tick(grid, xb.periphery(), xb.device(), xb.targets(), true, &policy)?;
/// assert_eq!(report.epoch, 1);
/// assert_eq!(report.total_tiles, xb.grid().num_tiles());
/// assert_eq!(served.shape(), xb.targets().shape());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ScrubState {
    /// Scrub epoch counter, shape `[1]` (0 = never scrubbed).
    epoch: Tensor,
    /// Flattened [`HealthMonitor`], 4 floats per tile.
    health: Tensor,
    /// Persistent remap compensation, shaped like the ideal
    /// conductances.
    shift: Tensor,
}

impl ScrubState {
    /// A never-scrubbed state for a layer laid out on `grid`: epoch 0,
    /// every tile healthy, no compensation.
    pub fn new(grid: &TileGrid) -> Self {
        Self {
            epoch: Tensor::zeros(&[1]),
            health: HealthMonitor::new(grid.num_tiles(), RepairPolicy::default()).to_tensor(),
            shift: Tensor::zeros(&[grid.nd_total(), grid.n_in()]),
        }
    }

    /// The current scrub epoch (0 = never scrubbed).
    pub fn epoch(&self) -> u32 {
        self.epoch.data()[0] as u32
    }

    /// The persisted tensors in checkpoint order — `epoch`, `health`,
    /// `shift` — each with the check its contents must pass (beyond its
    /// shape) before a snapshot may be restored into it.
    pub fn tensors_mut(&mut self) -> [(&'static str, &mut Tensor, StateCheck); 3] {
        [
            ("epoch", &mut self.epoch, |e| {
                let epoch = e.data()[0];
                if epoch >= 0.0 && epoch.fract() == 0.0 && epoch < u32::MAX as f32 {
                    Ok(())
                } else {
                    Err(format!("scrub epoch {epoch} is not a non-negative integer"))
                }
            }),
            ("health", &mut self.health, |h| {
                HealthMonitor::from_flat(h.data(), RepairPolicy::default())
                    .map(drop)
                    .map_err(|e| e.to_string())
            }),
            ("shift", &mut self.shift, |_| Ok(())),
        ]
    }

    /// The persisted health states. The policy is irrelevant to reading
    /// them; a tick decodes with its own.
    fn monitor(&self) -> Result<HealthMonitor, MappingError> {
        HealthMonitor::from_flat(self.health.data(), RepairPolicy::default())
    }

    /// Advances the wear clock one scrub epoch and returns the epoch's
    /// report, the served conductances, and the epoch's stuck-cell map.
    ///
    /// Every tile is programmed once from `clamp(ideal + shift)` over the
    /// epoch's fault map (plus once per repair attempt). With `detect`,
    /// each tile's checksum residual then drives the health monitor and
    /// the repair ladder under `policy`; without, observation and repair
    /// are skipped (the maintenance-free deployment) and quarantined
    /// tiles stay on the fallback, as [`ScrubState::served`] rebuilds.
    ///
    /// # Errors
    ///
    /// Returns a [`MappingError`] if the persisted health state is invalid
    /// or a tile-local remap fails. The epoch and health state then stay
    /// unchanged; shift blocks revised earlier in the walk keep their
    /// revision.
    pub fn tick(
        &mut self,
        grid: &TileGrid,
        periphery: &PeripheryMatrix,
        device: &DeviceConfig,
        ideal: &Tensor,
        detect: bool,
        policy: &RepairPolicy,
    ) -> Result<(ScrubReport, Tensor, FaultMap), MappingError> {
        let range = device.range();
        let epoch = self.epoch() + 1;
        let (faults, new_faults) =
            device
                .lifetime()
                .fault_map_with_arrivals(grid.nd_total(), grid.n_in(), epoch);
        let mut monitor = HealthMonitor::from_flat(self.health.data(), *policy)?;
        let quarantined_before = monitor.num_quarantined();
        let targets = scrub_targets(ideal, &self.shift, device);
        let mut report = ScrubReport {
            epoch,
            new_faults,
            total_tiles: grid.num_tiles(),
            ..ScrubReport::default()
        };
        let mut served = Tensor::zeros(ideal.shape());
        for tile in grid.tiles() {
            let tile_faults = tile.faults(&faults);
            let t_block = tile.read(&targets);
            let (mut programmed, unconverged) = program_tile(device, &t_block, &tile_faults);
            report.exhausted_cells += unconverged;
            let mut repair = None;
            if detect {
                let residual = checksum_residual(&programmed, &t_block);
                match monitor.observe(tile.index, residual, epoch) {
                    HealthAction::Detected => report.detections += 1,
                    HealthAction::Repair(stage) => repair = Some((stage, residual)),
                    _ => {}
                }
            }
            if let Some((stage, residual_before)) = repair {
                // The remap rungs revise this tile's block of the
                // persistent shift; the targets are then recomputed from
                // the `clamp(ideal + shift)` formula, so a checkpoint
                // rebuild reproduces the same f32 operations bitwise.
                let ideal_block = tile.read(ideal);
                let weight_residual = match stage {
                    RepairStage::Reprogram => None,
                    RepairStage::Remap | RepairStage::FullRemap => {
                        let base = if stage == RepairStage::FullRemap {
                            &ideal_block
                        } else {
                            &t_block
                        };
                        let stencil = tile.group.stencil(periphery)?;
                        let (shifted, rr) = remap_for_faults(base, &stencil, &tile_faults, range)?;
                        tile.write(&mut self.shift, &shifted.sub(&ideal_block)?);
                        Some(rr.residual_after())
                    }
                };
                let t_block = scrub_targets(&ideal_block, &tile.read(&self.shift), device);
                let unconverged;
                (programmed, unconverged) = program_tile(device, &t_block, &tile_faults);
                report.exhausted_cells += unconverged;
                let residual_after = checksum_residual(&programmed, &t_block);
                let healed = match weight_residual {
                    // Remap rungs must restore *weight* accuracy, not just
                    // agree with their own revised targets.
                    Some(wr) => wr <= policy.weight_tolerance,
                    None => residual_after <= policy.residual_threshold,
                };
                if monitor.record_attempt(tile.index, epoch, healed) == TileHealth::Quarantined {
                    // The digital fallback takes over; the tile's
                    // compensation is cleared.
                    tile.write(&mut self.shift, &Tensor::zeros(ideal_block.shape()));
                }
                report.repairs.push(RepairAttempt {
                    epoch,
                    tile: tile.index,
                    stage,
                    residual_before,
                    residual_after,
                    healed,
                });
            }
            tile.write(
                &mut served,
                &serve_tile(&tile, &monitor, ideal, || programmed),
            );
        }
        report.quarantined_total = monitor.num_quarantined();
        report.quarantined_now = report.quarantined_total - quarantined_before;
        report.analog_tiles = grid.num_tiles() - report.quarantined_total;
        self.epoch = Tensor::from_vec(vec![epoch as f32], &[1]).expect("length matches");
        self.health = monitor.to_tensor();
        Ok((report, served, faults))
    }

    /// Rebuilds what the last tick served, from the state alone — the
    /// checkpoint-restore path. Returns the served conductances and the
    /// epoch's stuck-cell map.
    ///
    /// # Errors
    ///
    /// Returns a [`MappingError`] if the persisted health state is
    /// invalid.
    pub fn served(
        &self,
        grid: &TileGrid,
        device: &DeviceConfig,
        ideal: &Tensor,
    ) -> Result<(Tensor, FaultMap), MappingError> {
        let monitor = self.monitor()?;
        let faults = device
            .lifetime()
            .fault_map(grid.nd_total(), grid.n_in(), self.epoch());
        let targets = scrub_targets(ideal, &self.shift, device);
        let mut served = Tensor::zeros(ideal.shape());
        for tile in grid.tiles() {
            let block = serve_tile(&tile, &monitor, ideal, || {
                program_tile(device, &tile.read(&targets), &tile.faults(&faults)).0
            });
            tile.write(&mut served, &block);
        }
        Ok((served, faults))
    }

    /// Checks the digital-fallback contract on a served view: every
    /// quarantined tile must serve its ideal block bitwise, so its MVM
    /// contribution is exactly what the ideal array would produce.
    /// Vacuously `true` before the first tick; `false` also covers corrupt
    /// health state.
    pub fn fallback_parity(&self, grid: &TileGrid, ideal: &Tensor, served: &Tensor) -> bool {
        if self.epoch() == 0 {
            return true;
        }
        let Ok(monitor) = self.monitor() else {
            return false;
        };
        grid.tiles()
            .filter(|tile| monitor.state(tile.index) == TileHealth::Quarantined)
            .all(|tile| {
                let bits =
                    |t| -> Vec<u32> { tile.read(t).data().iter().map(|v| v.to_bits()).collect() };
                bits(served) == bits(ideal)
            })
    }
}

/// The one serve rule, shared by [`ScrubState::tick`] and
/// [`ScrubState::served`]: a quarantined tile serves its ideal block (the
/// exact digital fallback); every other tile serves `programmed`, the
/// noiseless programming of `clamp(ideal + shift)` over the epoch's fault
/// map.
fn serve_tile(
    tile: &Tile,
    monitor: &HealthMonitor,
    ideal: &Tensor,
    programmed: impl FnOnce() -> Tensor,
) -> Tensor {
    if monitor.state(tile.index) == TileHealth::Quarantined {
        tile.read(ideal)
    } else {
        programmed()
    }
}

/// Elementwise `clamp(ideal + shift)` — the one formula the tick and the
/// rebuild derive programming targets from, so the two stay bitwise
/// identical.
fn scrub_targets(ideal: &Tensor, shift: &Tensor, device: &DeviceConfig) -> Tensor {
    let range = device.range();
    let mut t = ideal.add(shift).expect("shift shape fixed at construction");
    t.map_inplace(|v| range.clamp(v));
    t
}

/// Noiseless write-verify programming of one tile: stuck cells keep
/// their forced values, everything else lands exactly on target, and no
/// randomness is consumed. Returns the programmed block and its count of
/// unconverged cells.
fn program_tile(device: &DeviceConfig, targets: &Tensor, faults: &FaultMap) -> (Tensor, usize) {
    let (programmed, report) = device.programming().program_tensor(
        targets,
        &VariationModel::none(),
        device.range(),
        Some(faults),
        &mut XorShiftRng::new(SCRUB_RNG_SEED),
    );
    (programmed, report.num_unconverged())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrossbarArray, Mapping};
    use xbar_device::{LifetimeFaultModel, TileShape};
    use xbar_tensor::{backend, linalg};

    fn reference(mapping: Mapping) -> CrossbarArray {
        let mut r = XorShiftRng::new(404);
        let w = Tensor::rand_uniform(&[12, 24], -0.02, 0.02, &mut r);
        let device = DeviceConfig::ideal().with_tile_shape(Some(TileShape::new(8, 8)));
        CrossbarArray::program_signed(&w, mapping, device, &mut r).unwrap()
    }

    /// One scrub tick of `xb` under `lifetime`, driven by the array's
    /// targets, grid, periphery and device.
    fn tick(
        scrub: &mut ScrubState,
        xb: &CrossbarArray,
        lifetime: LifetimeFaultModel,
    ) -> (ScrubReport, Tensor, FaultMap) {
        let (device, policy) = (
            xb.device().with_lifetime_faults(lifetime),
            RepairPolicy::default(),
        );
        let (grid, periphery, ideal) = (xb.grid(), xb.periphery(), xb.targets());
        scrub
            .tick(grid, periphery, &device, ideal, true, &policy)
            .unwrap()
    }

    /// Batched signed MVM of `xb`'s layout over the served conductances.
    fn forward(xb: &CrossbarArray, served: &Tensor, x: &Tensor) -> Tensor {
        xb.periphery()
            .combine(&xb.grid().raw_mvm(served, x))
            .unwrap()
    }

    #[test]
    fn monitor_walks_the_state_machine() {
        let policy = RepairPolicy::default();
        let mut m = HealthMonitor::new(1, policy);
        assert_eq!(m.state(0), TileHealth::Healthy);
        // Clean observation: nothing.
        assert_eq!(m.observe(0, 0.0, 1), HealthAction::Nothing);
        // First crossing: detected, no repair yet.
        assert_eq!(m.observe(0, 1.0, 2), HealthAction::Detected);
        assert_eq!(m.state(0), TileHealth::Suspect);
        // Persisting: repair, starting at the reprogram rung.
        assert_eq!(
            m.observe(0, 1.0, 3),
            HealthAction::Repair(RepairStage::Reprogram)
        );
        assert_eq!(m.state(0), TileHealth::Repairing);
        // Failed attempt: budget burns, backoff scheduled.
        assert_eq!(m.record_attempt(0, 3, false), TileHealth::Repairing);
        assert_eq!(m.observe(0, 1.0, 3), HealthAction::Backoff);
        // After the backoff window the ladder escalates to remap.
        assert_eq!(
            m.observe(0, 1.0, 10),
            HealthAction::Repair(RepairStage::Remap)
        );
        // Successful attempt: healthy again, fresh budget.
        assert_eq!(m.record_attempt(0, 10, true), TileHealth::Healthy);
        assert_eq!(m.tiles[0].ewma, 0.0);
        // Exhaust the whole budget: quarantined, observe becomes a no-op.
        for epoch in 20..23u32 {
            m.observe(0, 1.0, epoch);
            m.record_attempt(0, epoch, false);
        }
        assert_eq!(m.state(0), TileHealth::Quarantined);
        assert_eq!(m.observe(0, 0.0, 30), HealthAction::AlreadyQuarantined);
        assert_eq!(m.num_quarantined(), 1);
    }

    #[test]
    fn suspect_clears_on_transient_residual() {
        let mut m = HealthMonitor::new(
            1,
            RepairPolicy {
                ewma_alpha: 1.0,
                ..RepairPolicy::default()
            },
        );
        assert_eq!(m.observe(0, 1.0, 1), HealthAction::Detected);
        assert_eq!(m.observe(0, 0.0, 2), HealthAction::Nothing);
        assert_eq!(m.state(0), TileHealth::Healthy);
    }

    #[test]
    fn stage_ladder_follows_attempt_budgets() {
        let p = RepairPolicy {
            reprogram_attempts: 2,
            remap_attempts: 1,
            full_remap_attempts: 1,
            ..RepairPolicy::default()
        };
        assert_eq!(p.budget(), 4);
        assert_eq!(p.stage_for(0), RepairStage::Reprogram);
        assert_eq!(p.stage_for(1), RepairStage::Reprogram);
        assert_eq!(p.stage_for(2), RepairStage::Remap);
        assert_eq!(p.stage_for(3), RepairStage::FullRemap);
    }

    #[test]
    fn monitor_flat_round_trips() {
        let policy = RepairPolicy::default();
        let mut m = HealthMonitor::new(3, policy);
        m.observe(0, 1.0, 1);
        m.observe(1, 0.5, 1);
        m.observe(2, 2.0, 1);
        m.observe(2, 2.0, 2);
        m.record_attempt(2, 2, false);
        let flat = m.to_tensor().data().to_vec();
        assert_eq!(flat.len(), 12);
        let back = HealthMonitor::from_flat(&flat, policy).unwrap();
        assert_eq!(back, m);
        // Invalid encodings are rejected.
        assert!(HealthMonitor::from_flat(&flat[..7], policy).is_err());
        for (at, value) in [(0, 9.0), (1, f32::NAN), (2, -1.0), (3, f32::INFINITY)] {
            let mut bad = flat.clone();
            bad[at] = value;
            assert!(
                HealthMonitor::from_flat(&bad, policy).is_err(),
                "{at}: {value}"
            );
        }
    }

    #[test]
    fn inactive_lifetime_is_a_bitwise_noop() {
        let mut r = XorShiftRng::new(11);
        let x = Tensor::rand_uniform(&[5, 24], -1.0, 1.0, &mut r);
        for mapping in Mapping::ALL {
            let xb = reference(mapping);
            let mut scrub = ScrubState::new(xb.grid());
            for _ in 0..3 {
                let (report, served, faults) = tick(&mut scrub, &xb, LifetimeFaultModel::none());
                assert_eq!(report.new_faults, 0);
                assert_eq!(report.detections, 0);
                assert!(report.repairs.is_empty());
                assert_eq!(report.analog_coverage(), 1.0);
                assert!(faults.is_pristine());
                assert_eq!(
                    forward(&xb, &served, &x).data(),
                    xb.forward(&x).unwrap().data(),
                    "{mapping}: scrubbing a wear-free array must change nothing"
                );
            }
        }
    }

    #[test]
    fn forward_verified_flags_exactly_the_corrupted_tile() {
        let xb = reference(Mapping::Acm);
        let residuals = |physical: &Tensor| -> Vec<f32> {
            xb.grid()
                .tiles()
                .map(|tile| checksum_residual(&tile.read(physical), &tile.read(xb.targets())))
                .collect()
        };
        let clean = residuals(xb.effective_conductances());
        assert!(clean.iter().all(|&v| v < 1e-4), "clean array: {clean:?}");
        // Corrupt one cell in tile 0 (rows 0..9 ACM group 0, cols 0..8).
        let mut corrupted = xb.effective_conductances().clone();
        *corrupted.at_mut(&[2, 3]) = 1.0;
        let res = residuals(&corrupted);
        assert!(res[0] > 0.1, "corrupted tile must trip: {res:?}");
        assert!(
            res[1..].iter().all(|&v| v < 1e-4),
            "other tiles stay clean: {res:?}"
        );
    }

    #[test]
    fn lifetime_fault_escalates_to_remap_and_recovers_weights() {
        for mapping in [Mapping::Acm, Mapping::Perm] {
            let xb = reference(mapping);
            // Low rate: a few stuck cells over the first epochs.
            let lifetime = LifetimeFaultModel::new(0.002, 23).unwrap();
            let policy = RepairPolicy::default();
            let mut scrub = ScrubState::new(xb.grid());
            // Scrub until the array quiesces: three consecutive epochs
            // with no arrivals, no repair activity, and no tile pending.
            let (mut detections, mut remaps, mut quiet, mut epochs) = (0, 0, 0, 0);
            let mut last = None;
            while quiet < 3 && epochs < 80 {
                let (rep, served, faults) = tick(&mut scrub, &xb, lifetime);
                detections += rep.detections;
                remaps += rep
                    .repairs
                    .iter()
                    .filter(|a| a.stage != RepairStage::Reprogram && a.healed)
                    .count();
                let monitor = scrub.monitor().unwrap();
                let pending = xb.grid().tiles().any(|t| {
                    matches!(
                        monitor.state(t.index),
                        TileHealth::Suspect | TileHealth::Repairing
                    )
                });
                if rep.new_faults > 0 || rep.detections > 0 || !rep.repairs.is_empty() || pending {
                    quiet = 0;
                } else {
                    quiet += 1;
                }
                epochs += 1;
                last = Some((served, faults));
            }
            let (served, faults) = last.unwrap();
            assert_eq!(quiet, 3, "{mapping}: wear never quiesced");
            assert!(faults.num_stuck() > 0, "{mapping}: no wear");
            assert!(detections > 0, "{mapping}: wear was never detected");
            assert!(remaps > 0, "{mapping}: no successful remap repair");
            // Quiescent means every tile is Healthy (fault-free, or
            // remap-healed to within the policy's weight tolerance) or
            // Quarantined (served exactly by the digital fallback), so the
            // end-to-end weight error is bounded by the tolerance.
            let w_ideal = xb.effective_weights();
            let w_healed = linalg::matmul(xb.periphery().matrix(), &served).unwrap();
            assert!(
                w_healed.all_close(&w_ideal, 1.5 * policy.weight_tolerance),
                "{mapping}: weight error {} after healing",
                w_healed.sub(&w_ideal).unwrap().abs_max()
            );
        }
    }

    #[test]
    fn total_wearout_quarantines_everything_and_falls_back_exactly() {
        let xb = reference(Mapping::Acm);
        let lifetime = LifetimeFaultModel::new(1.0, 3).unwrap();
        let mut scrub = ScrubState::new(xb.grid());
        // Every cell fails at epoch 1; no remap can absorb a fully stuck
        // tile, so the ladder runs dry and every tile quarantines.
        let (mut saw_quarantine_event, mut last) = (false, None);
        for _ in 0..12 {
            let (rep, served, _) = tick(&mut scrub, &xb, lifetime);
            saw_quarantine_event |= rep.quarantined_now > 0;
            last = Some((rep, served));
        }
        let (rep, served) = last.unwrap();
        assert!(saw_quarantine_event);
        assert_eq!(rep.quarantined_total, xb.grid().num_tiles());
        assert_eq!(rep.analog_coverage(), 0.0);
        assert!(scrub.fallback_parity(xb.grid(), xb.targets(), &served));
        // Digital fallback serves the ideal fault-free output *exactly*.
        let mut r = XorShiftRng::new(29);
        let x = Tensor::rand_uniform(&[6, 24], -1.0, 1.0, &mut r);
        assert_eq!(
            forward(&xb, &served, &x).data(),
            xb.forward(&x).unwrap().data(),
            "quarantined grid must be bitwise the ideal reference"
        );
    }

    #[test]
    fn scrub_and_forward_are_bitwise_serial_vs_pooled() {
        let xb = reference(Mapping::Acm);
        let lifetime = LifetimeFaultModel::new(0.003, 51).unwrap();
        let run = |serial: bool| {
            backend::force_serial(serial);
            let mut scrub = ScrubState::new(xb.grid());
            let mut reports = Vec::new();
            let mut served = None;
            for _ in 0..8 {
                let (rep, view, _) = tick(&mut scrub, &xb, lifetime);
                reports.push(rep);
                served = Some(view);
            }
            let mut r = XorShiftRng::new(31);
            let x = Tensor::rand_uniform(&[7, 24], -1.0, 1.0, &mut r);
            let y = forward(&xb, &served.unwrap(), &x);
            backend::force_serial(false);
            (reports, y, scrub.monitor().unwrap())
        };
        let (rep_s, y_s, mon_s) = run(true);
        let (rep_p, y_p, mon_p) = run(false);
        assert_eq!(rep_s, rep_p, "scrub reports diverged across pooling");
        assert_eq!(y_s.data(), y_p.data(), "forward diverged across pooling");
        assert_eq!(mon_s, mon_p, "health state diverged across pooling");
    }
}
