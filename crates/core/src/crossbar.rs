use std::sync::OnceLock;

use xbar_device::{DeviceConfig, FaultMap, ProgrammingReport};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::{backend, Tensor};

use crate::quantized::ReadoutImage;
use crate::{remap_for_faults, Mapping, MappingError, PeripheryMatrix, RemapReport, TileGrid};

/// A behavioural simulator of one programmed crossbar layer plus its
/// periphery, laid out on the grid of physical tiles its device allows.
///
/// The array stores a non-negative conductance matrix `M` of shape
/// `(N_D, N_I)` — `N_I` rows driven by input voltages, `N_D` columns of
/// synapse elements. Programming goes through a
/// [`DeviceConfig`]: target conductances are snapped to the device's
/// quantized states and then perturbed by device variation, reproducing the
/// paper's inference-under-variation methodology (Sec. IV-B): *train,
/// program with noise, evaluate without fine-tuning*.
///
/// The layout is the [`TileGrid`] of the device's
/// [`DeviceConfig::tile_shape`]. With no tile bound the grid is the
/// degenerate 1×1 case — one array, the classic `N_D = N_O + 1`
/// accounting. With one, outputs split into column groups that each carry
/// their own local stencil (and, for BC/ACM, their own reference column),
/// the periphery is block-diagonal over the groups, and every tile is
/// dealt its own stuck-at defects, programmed through its own write-verify
/// pass and remapped against its own stencil — as separate chips would
/// be. The stored tensors stack the groups' device columns.
///
/// An MVM is evaluated in two stages, exactly as in hardware:
/// 1. the analog stage — raw column dot products `y_dev = M·x`, per tile,
///    with partial sums added digitally across row blocks;
/// 2. the digital periphery — the fixed signed combine `y = S·y_dev`.
///
/// The analog stage reads the *effective* conductances: the programmed
/// values composed with the device's parasitic read non-idealities
/// (conductance drift at the configured time index, then the
/// position-dependent line-resistance attenuation, restarting at every
/// tile boundary). With both parasitic models off the effective matrix is
/// the programmed matrix, bitwise.
///
/// # Example
///
/// ```
/// use xbar_core::{CrossbarArray, Mapping};
/// use xbar_device::DeviceConfig;
/// use xbar_tensor::{rng::XorShiftRng, Tensor};
///
/// # fn main() -> Result<(), xbar_core::MappingError> {
/// let w = Tensor::from_vec(vec![0.4, -0.2, -0.3, 0.1], &[2, 2])?;
/// let mut rng = XorShiftRng::new(1);
/// // Ideal device: the crossbar result equals the mathematical MVM.
/// let xbar = CrossbarArray::program_signed(&w, Mapping::Acm, DeviceConfig::ideal(), &mut rng)?;
/// let x = Tensor::from_vec(vec![1.0, 2.0], &[2])?;
/// let y = xbar.mvm_signed(&x)?;
/// assert!((y.data()[0] - 0.0).abs() < 1e-6);   // 0.4·1 − 0.2·2
/// assert!((y.data()[1] - (-0.1)).abs() < 1e-6); // −0.3·1 + 0.1·2
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CrossbarArray {
    grid: TileGrid,
    /// Block-diagonal over the per-group stencils (with each group's
    /// physical row order folded in for [`Mapping::Perm`]).
    periphery: PeripheryMatrix,
    device: DeviceConfig,
    /// Ideal (post-quantization, post-remap, pre-variation) conductance
    /// targets, stacked `(n_dev, n_in)`.
    targets: Tensor,
    /// Realised conductances after per-tile programming.
    programmed: Tensor,
    /// What the read path sees: `programmed` composed with drift and
    /// per-tile line-resistance attenuation (equal to `programmed` when
    /// both are off).
    effective: Tensor,
    /// The stuck-at defects every tile was dealt, in the stacked frame.
    faults: FaultMap,
    /// Merged outcome of the most recent per-tile programming passes.
    report: ProgrammingReport,
    /// The integer readout's operands of `effective`, built by the first
    /// [`CrossbarArray::forward_quantized`] and reset whenever
    /// `effective` changes.
    pub(crate) readout: OnceLock<ReadoutImage>,
}

/// Stable descending order of the device rows of `M (N_D × N_I)` by total
/// deviation from `mid` (`Σᵢ |m[j,i] − mid|`) — the X-CHANGR-style
/// placement rule behind [`Mapping::Perm`]: the returned `perm` assigns
/// logical device column `perm[p]` to physical position `p`, so the
/// largest-magnitude rows land nearest the drivers where IR-drop
/// attenuation is smallest. The sort is stable, so a BC reference row
/// (all `mid`, deviation exactly zero, stored last) stays last.
pub fn magnitude_permutation(m: &Tensor, mid: f32) -> Vec<usize> {
    let (nd, n_in) = (m.shape()[0], m.shape()[1]);
    let key: Vec<f32> = (0..nd)
        .map(|j| {
            m.data()[j * n_in..(j + 1) * n_in]
                .iter()
                .map(|&g| (g - mid).abs())
                .sum()
        })
        .collect();
    let mut perm: Vec<usize> = (0..nd).collect();
    perm.sort_by(|&a, &b| {
        key[b]
            .partial_cmp(&key[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    perm
}

/// Copies the rows of `M` into physical order: row `p` of the result is
/// logical row `perm[p]` of `m`.
pub fn permute_rows(m: &Tensor, perm: &[usize]) -> Tensor {
    let n_in = m.shape()[1];
    let mut out = Tensor::zeros(&[perm.len(), n_in]);
    for (p, &logical) in perm.iter().enumerate() {
        out.data_mut()[p * n_in..(p + 1) * n_in]
            .copy_from_slice(&m.data()[logical * n_in..(logical + 1) * n_in]);
    }
    out
}

impl CrossbarArray {
    /// Decomposes a signed weight matrix `W (N_O × N_I)` under `mapping`
    /// — column group by column group on a tiled device — and programs
    /// the resulting conductances through `device`, tile by tile.
    ///
    /// # Errors
    ///
    /// Returns an error if the decomposition fails (weights outside the
    /// representable range — see [`crate::decompose`]) or the device's
    /// tile is too narrow for `mapping`.
    pub fn program_signed(
        w: &Tensor,
        mapping: Mapping,
        device: DeviceConfig,
        rng: &mut XorShiftRng,
    ) -> Result<Self, MappingError> {
        let grid = Self::grid_for(w, mapping, &device, false)?;
        let m = grid.decompose(w, device.range())?;
        Self::program_inner(&m, grid, device, false, rng).map(|(xbar, _)| xbar)
    }

    /// Like [`CrossbarArray::program_signed`], but absorbs each tile's
    /// sampled stuck-at faults into its local periphery's null-space
    /// slack before programming (see [`remap_for_faults`]); the
    /// [`RemapReport`] merges the per-tile reports and carries the
    /// residual weight error that could not be absorbed.
    ///
    /// # Errors
    ///
    /// Returns an error if the decomposition fails.
    pub fn program_signed_remapped(
        w: &Tensor,
        mapping: Mapping,
        device: DeviceConfig,
        rng: &mut XorShiftRng,
    ) -> Result<(Self, RemapReport), MappingError> {
        let grid = Self::grid_for(w, mapping, &device, false)?;
        let m = grid.decompose(w, device.range())?;
        Self::program_inner(&m, grid, device, true, rng)
            .map(|(xbar, report)| (xbar, report.expect("remap requested")))
    }

    /// Programs an explicit stacked non-negative conductance matrix
    /// `M (N_D × N_I)` — the path used after training, where the trainer
    /// owns `M` directly. The logical output count is inferred from the
    /// row count, `mapping` and the device's tile bound.
    ///
    /// # Errors
    ///
    /// Returns an error if `M` is negative anywhere, exceeds the device
    /// range, or its row count is invalid for `mapping` on the device's
    /// tiles.
    pub fn program_conductances(
        m: &Tensor,
        mapping: Mapping,
        device: DeviceConfig,
        rng: &mut XorShiftRng,
    ) -> Result<Self, MappingError> {
        let grid = Self::grid_for(m, mapping, &device, true)?;
        Self::program_inner(m, grid, device, false, rng).map(|(xbar, _)| xbar)
    }

    /// Like [`CrossbarArray::program_conductances`], but fault-aware:
    /// after sampling each tile's stuck-at pattern, each faulty column is
    /// shifted along the local periphery's null direction so the stuck
    /// cells land on the conductances they are frozen at anyway (see
    /// [`remap_for_faults`]).
    ///
    /// # Errors
    ///
    /// Same validation as [`CrossbarArray::program_conductances`].
    pub fn program_conductances_remapped(
        m: &Tensor,
        mapping: Mapping,
        device: DeviceConfig,
        rng: &mut XorShiftRng,
    ) -> Result<(Self, RemapReport), MappingError> {
        let grid = Self::grid_for(m, mapping, &device, true)?;
        Self::program_inner(m, grid, device, true, rng)
            .map(|(xbar, report)| (xbar, report.expect("remap requested")))
    }

    /// The device's tile grid for a 2-D matrix: signed weights `W`, or
    /// stacked conductances `M` when `stacked` is set.
    fn grid_for(
        t: &Tensor,
        mapping: Mapping,
        device: &DeviceConfig,
        stacked: bool,
    ) -> Result<TileGrid, MappingError> {
        if t.ndim() != 2 {
            return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                "program",
                format!("expected a 2-D matrix, got {:?}", t.shape()),
            )));
        }
        let (rows, n_in, tile) = (t.shape()[0], t.shape()[1], device.tile_shape());
        if stacked {
            TileGrid::for_conductances(rows, n_in, mapping, tile)
        } else {
            TileGrid::new(rows, n_in, mapping, tile)
        }
    }

    fn program_inner(
        m: &Tensor,
        grid: TileGrid,
        device: DeviceConfig,
        remap: bool,
        rng: &mut XorShiftRng,
    ) -> Result<(Self, Option<RemapReport>), MappingError> {
        if !m.data().iter().all(|v| v.is_finite()) {
            return Err(MappingError::NonFiniteInput {
                op: "program_conductances",
            });
        }
        let range = device.range();
        if m.min() < range.g_min() - 1e-6 || m.max() > range.g_max() + 1e-6 {
            return Err(MappingError::NotRepresentable {
                mapping: grid.mapping().tag(),
                detail: format!(
                    "conductances [{}, {}] outside device range [{}, {}]",
                    m.min(),
                    m.max(),
                    range.g_min(),
                    range.g_max()
                ),
            });
        }
        // Snap to the device's programmable states (non-uniform in
        // conductance for nonlinear devices — states sit at equal pulse
        // spacing along the transfer curve); every per-tile stage below
        // starts from the snapped targets.
        let mut snapped = m.map(|g| device.snap(g));
        let mut peripheries: Vec<PeripheryMatrix> = grid
            .col_groups()
            .iter()
            .map(|g| grid.mapping().periphery(g.out_len))
            .collect();
        // Perm: `m` arrives in logical (decompose) order. Each group
        // derives its physical row order from the *pre-snap* conductances
        // over the full input width (so every row block of the group
        // agrees on one order) — large-magnitude rows nearest the drivers
        // — folds the inverse into its local stencil so `S_p · (P·M) =
        // S · M` exactly, and rearranges its snapped rows into physical
        // order. The stable descending sort keeps the group's all-mid
        // reference row last.
        if grid.mapping() == Mapping::Perm {
            for (g, periphery) in grid.col_groups().iter().zip(peripheries.iter_mut()) {
                let perm = magnitude_permutation(&g.dev_rows(m), range.midpoint());
                *periphery = periphery.permuted(&perm);
                let physical = permute_rows(&g.dev_rows(&snapped), &perm);
                g.write_dev_rows(&mut snapped, &physical);
            }
        }
        let (nd, n_in) = (grid.nd_total(), grid.n_in());
        let mut targets = Tensor::zeros(&[nd, n_in]);
        let mut programmed = Tensor::zeros(&[nd, n_in]);
        let mut faults = FaultMap::pristine(nd, n_in);
        let mut report = ProgrammingReport::default();
        let mut remap_report: Option<RemapReport> = None;
        // Each tile is an independent physical array: in grid order it
        // draws its own defect pattern (no randomness under the default
        // fault-free model), optionally absorbs it into its stencil's
        // slack, and runs its own write-verify pass — variation per write,
        // stuck cells frozen, unconverged cells reported rather than
        // silently mis-written. The compensated targets stay analog:
        // closed-loop programming can trim a cell to any in-range
        // conductance, so re-snapping would quantize away sub-step
        // compensations.
        for tile in grid.tiles() {
            let g = tile.group;
            let mut tile_targets = tile.read(&snapped);
            let tile_faults = device.faults().sample_map(g.dev_len, tile.row_len, rng);
            if remap {
                let (shifted, tile_remap) = remap_for_faults(
                    &tile_targets,
                    &peripheries[tile.group_index],
                    &tile_faults,
                    range,
                )?;
                tile_targets = shifted;
                remap_report = Some(match remap_report {
                    Some(acc) => acc.merge(&tile_remap),
                    None => tile_remap,
                });
            }
            let (tile_programmed, tile_report) = device.programming().program_tensor(
                &tile_targets,
                &device.variation(),
                range,
                Some(&tile_faults),
                rng,
            );
            tile.write(&mut targets, &tile_targets);
            tile.write(&mut programmed, &tile_programmed);
            for (row, col, kind) in tile_faults.iter_stuck() {
                faults.set(g.dev_start + row, tile.row_start + col, kind);
            }
            report.merge(tile_report, g.dev_start, tile.row_start);
        }
        let mut effective = programmed.clone();
        grid.apply_parasitics(&mut effective, &device, &faults);
        Ok((
            Self {
                periphery: PeripheryMatrix::block_diagonal(&peripheries),
                grid,
                device,
                targets,
                programmed,
                effective,
                faults,
                report,
                readout: OnceLock::new(),
            },
            remap_report,
        ))
    }

    /// The mapping this array was programmed with.
    pub fn mapping(&self) -> Mapping {
        self.grid.mapping()
    }

    /// The device model.
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// The block-diagonal layer-level periphery.
    pub fn periphery(&self) -> &PeripheryMatrix {
        &self.periphery
    }

    /// The tile layout (1×1 when the device has no tile bound).
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Number of inputs (crossbar rows).
    pub fn n_in(&self) -> usize {
        self.grid.n_in()
    }

    /// Number of signed outputs.
    pub fn n_out(&self) -> usize {
        self.grid.n_out()
    }

    /// Number of device columns (`N_D`) across all column groups.
    pub fn n_dev(&self) -> usize {
        self.grid.nd_total()
    }

    /// Total synapse elements across all tiles (occupied cells).
    pub fn num_elements(&self) -> usize {
        self.programmed.len()
    }

    /// The realised conductances (after quantization and variation),
    /// stacked `(n_dev, n_in)`.
    pub fn conductances(&self) -> &Tensor {
        &self.programmed
    }

    /// The conductances the read path sees: [`CrossbarArray::conductances`]
    /// composed with drift (at the device's configured time index) and
    /// per-tile line-resistance attenuation. Equal to the programmed
    /// matrix when both parasitic models are off.
    pub fn effective_conductances(&self) -> &Tensor {
        &self.effective
    }

    /// The ideal conductance targets (after quantization and any remap,
    /// before variation).
    pub fn targets(&self) -> &Tensor {
        &self.targets
    }

    /// The effective signed weight matrix `S · G` realised by the array,
    /// including the parasitic read non-idealities.
    pub fn effective_weights(&self) -> Tensor {
        self.periphery
            .mul(&self.effective)
            .expect("periphery and conductances are dimension-checked at construction")
    }

    /// The stuck-at defects every tile was dealt at programming time, in
    /// the stacked frame (pristine under the default fault-free device).
    pub fn fault_map(&self) -> &FaultMap {
        &self.faults
    }

    /// Outcome of the most recent programming pass, merged over tiles:
    /// converged / stuck / unconverged cell counts and write statistics.
    pub fn programming_report(&self) -> &ProgrammingReport {
        &self.report
    }

    /// Returns a typed error if the last programming pass left any cell
    /// out of tolerance — for callers that need strict convergence rather
    /// than the default graceful degradation.
    ///
    /// # Errors
    ///
    /// [`MappingError::ProgrammingFailed`] with the unconverged-cell count
    /// and worst residual.
    pub fn require_converged(&self) -> Result<(), MappingError> {
        if self.report.all_converged() {
            Ok(())
        } else {
            Err(MappingError::ProgrammingFailed {
                unconverged: self.report.num_unconverged(),
                worst_residual: self.report.worst_residual(),
            })
        }
    }

    /// Re-programs every tile around the stored targets, modelling a
    /// fresh chip written with the same weights — one Monte-Carlo sample
    /// of the paper's Fig. 6 loop. The defect pattern is part of the
    /// chip, so it is kept; variation (and write-verify retries) are
    /// re-drawn tile by tile in grid order.
    pub fn resample_variation(&mut self, rng: &mut XorShiftRng) {
        let mut programmed = Tensor::zeros(self.targets.shape());
        let mut report = ProgrammingReport::default();
        for tile in self.grid.tiles() {
            let (tile_programmed, tile_report) = self.device.programming().program_tensor(
                &tile.read(&self.targets),
                &self.device.variation(),
                self.device.range(),
                Some(&tile.faults(&self.faults)),
                rng,
            );
            tile.write(&mut programmed, &tile_programmed);
            report.merge(tile_report, tile.group.dev_start, tile.row_start);
        }
        let mut effective = programmed.clone();
        self.grid
            .apply_parasitics(&mut effective, &self.device, &self.faults);
        self.programmed = programmed;
        self.effective = effective;
        self.report = report;
        self.readout.take();
    }

    /// Raw analog column outputs `y_dev = G · x` for a 1-D input of length
    /// `n_in()` — what the ADCs digitize across all tiles, accumulated
    /// digitally across row blocks, before the periphery combine. Runs the
    /// batched [`CrossbarArray::forward`] path with a batch of one.
    ///
    /// # Errors
    ///
    /// Returns a shape error on input-length mismatch, or
    /// [`MappingError::NonFiniteInput`] if `x` contains NaN/Inf — a DAC
    /// has no encoding for either, and letting them through would poison
    /// every column sum.
    pub fn mvm_raw(&self, x: &Tensor) -> Result<Tensor, MappingError> {
        if x.ndim() != 1 {
            return Err(MappingError::Shape(xbar_tensor::ShapeError::new(
                "mvm_raw",
                format!("expected 1-D input, got {:?}", x.shape()),
            )));
        }
        let raw = self.raw_batch(&x.reshape(&[1, x.len()])?, "mvm_raw")?;
        Ok(raw.reshape(&[self.n_dev()])?)
    }

    /// Signed MVM `y = S · (G · x)` for a 1-D input.
    ///
    /// # Errors
    ///
    /// Returns a shape error on input-length mismatch.
    pub fn mvm_signed(&self, x: &Tensor) -> Result<Tensor, MappingError> {
        let raw = self.mvm_raw(x)?;
        let y = self.periphery.combine(&raw.reshape(&[1, raw.len()])?)?;
        Ok(y.reshape(&[self.n_out()])?)
    }

    /// Batched signed MVM: `X (batch × N_I) → Y (batch × N_O)`, with the
    /// per-tile partial products fanned across the compute pool (bitwise
    /// identical at any thread count).
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` is not `(batch, n_in())`, or
    /// [`MappingError::NonFiniteInput`] if `x` contains NaN/Inf.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor, MappingError> {
        let raw = self.raw_batch(x, "forward")?;
        self.periphery.combine(&raw)
    }

    /// Validates a `(batch, n_in)` input and reads the raw column outputs
    /// of the effective conductances, tile by tile.
    fn raw_batch(&self, x: &Tensor, op: &'static str) -> Result<Tensor, MappingError> {
        self.grid.check_batch(x, op)?;
        Ok(self.grid.raw_mvm(&self.effective, x))
    }

    /// Monte-Carlo fan-out: evaluates `trials` freshly re-programmed
    /// copies of this array on the same batch `X (batch × N_I)`, fanning
    /// the trials across the compute pool. Trial `t` behaves exactly like
    /// `{ let mut c = self.clone(); c.resample_variation(&mut rng.fork(t)); c.forward(x) }`
    /// run serially in trial order — per-trial RNG streams are forked from
    /// `rng` up front, so the returned outputs are bitwise identical for
    /// any thread count.
    ///
    /// # Errors
    ///
    /// Returns the first trial's error on input-shape or non-finite-input
    /// failures (all trials share `x`, so all fail alike).
    pub fn variation_trials(
        &self,
        x: &Tensor,
        trials: usize,
        rng: &mut XorShiftRng,
    ) -> Result<Vec<Tensor>, MappingError> {
        // Fork serially, in trial order, before going parallel: forking
        // advances the parent stream, so this is the step that must not
        // race.
        let trial_rngs: Vec<XorShiftRng> = (0..trials).map(|t| rng.fork(t as u64)).collect();
        backend::parallel_map(trial_rngs, |_, mut trial_rng| {
            let mut chip = self.clone();
            chip.resample_variation(&mut trial_rng);
            chip.forward(x)
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_device::{DeviceConfig, UpdateModel};
    use xbar_tensor::linalg;

    fn rng() -> XorShiftRng {
        XorShiftRng::new(81)
    }

    fn test_w() -> Tensor {
        Tensor::from_vec(vec![0.3, -0.2, 0.1, -0.4, 0.25, 0.05], &[2, 3]).unwrap()
    }

    #[test]
    fn ideal_crossbar_equals_mathematical_mvm_all_mappings() {
        let w = test_w();
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[3]).unwrap();
        let expected = linalg::matvec(&w, &x).unwrap();
        for mapping in Mapping::ALL {
            let mut r = rng();
            let xb =
                CrossbarArray::program_signed(&w, mapping, DeviceConfig::ideal(), &mut r).unwrap();
            let y = xb.mvm_signed(&x).unwrap();
            assert!(y.all_close(&expected, 1e-5), "{mapping}: {:?}", y.data());
        }
    }

    #[test]
    fn batched_forward_matches_per_sample_mvm() {
        let w = test_w();
        let mut r = rng();
        let xb =
            CrossbarArray::program_signed(&w, Mapping::Acm, DeviceConfig::ideal(), &mut r).unwrap();
        let x = Tensor::from_vec(vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5], &[2, 3]).unwrap();
        let batch = xb.forward(&x).unwrap();
        for b in 0..2 {
            let single = xb.mvm_signed(&x.row(b)).unwrap();
            for j in 0..2 {
                assert!((batch.at(&[b, j]) - single.data()[j]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn quantized_program_snaps_to_states() {
        let w = test_w();
        let dev = DeviceConfig::quantized_linear(2); // states 0, 1/3, 2/3, 1
        let mut r = rng();
        let xb = CrossbarArray::program_signed(&w, Mapping::DoubleElement, dev, &mut r).unwrap();
        let q = dev.quantizer();
        for &g in xb.conductances().data() {
            assert!(
                (g - q.quantize(g)).abs() < 1e-6,
                "{g} is not a device state"
            );
        }
    }

    #[test]
    fn variation_perturbs_but_targets_stay() {
        let w = test_w();
        let dev = DeviceConfig::quantized_linear(4).with_variation_sigma(0.1);
        let mut r = rng();
        let xb = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut r).unwrap();
        assert!(!xb.conductances().all_close(xb.targets(), 1e-4));
        // Targets are still exact device states.
        let q = dev.quantizer();
        for &g in xb.targets().data() {
            assert!((g - q.quantize(g)).abs() < 1e-6);
        }
    }

    #[test]
    fn resample_variation_changes_programmed_not_targets() {
        let w = test_w();
        let dev = DeviceConfig::quantized_linear(4).with_variation_sigma(0.1);
        let mut r = rng();
        let mut xb = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut r).unwrap();
        let before = xb.conductances().clone();
        let targets = xb.targets().clone();
        xb.resample_variation(&mut r);
        assert!(!xb.conductances().all_close(&before, 1e-6));
        assert!(xb.targets().all_close(&targets, 0.0));
    }

    #[test]
    fn effective_weights_approximate_w_under_quantization() {
        let w = test_w();
        let dev = DeviceConfig::quantized_linear(6);
        let mut r = rng();
        let xb = CrossbarArray::program_signed(&w, Mapping::DoubleElement, dev, &mut r).unwrap();
        let eff = xb.effective_weights();
        // 6-bit quantization: max error per element <= step (two elements).
        let step = dev.quantizer().step();
        assert!(eff.all_close(&w, step * 1.01), "{:?}", eff.data());
    }

    #[test]
    fn dimensions_reported_correctly() {
        let w = test_w();
        let mut r = rng();
        let xb =
            CrossbarArray::program_signed(&w, Mapping::Acm, DeviceConfig::ideal(), &mut r).unwrap();
        assert_eq!(xb.n_in(), 3);
        assert_eq!(xb.n_out(), 2);
        assert_eq!(xb.n_dev(), 3);
        assert_eq!(xb.num_elements(), 9);
        assert_eq!(xb.mapping(), Mapping::Acm);
    }

    #[test]
    fn rejects_negative_conductances() {
        let m = Tensor::from_vec(vec![-0.1, 0.2, 0.3, 0.4, 0.5, 0.6], &[3, 2]).unwrap();
        let mut r = rng();
        let err =
            CrossbarArray::program_conductances(&m, Mapping::Acm, DeviceConfig::ideal(), &mut r)
                .unwrap_err();
        assert!(matches!(err, MappingError::NotRepresentable { .. }));
    }

    #[test]
    fn rejects_bad_input_length() {
        let w = test_w();
        let mut r = rng();
        let xb =
            CrossbarArray::program_signed(&w, Mapping::Acm, DeviceConfig::ideal(), &mut r).unwrap();
        assert!(xb.mvm_signed(&Tensor::zeros(&[5])).is_err());
    }

    #[test]
    fn rejects_non_finite_inputs_and_conductances() {
        let w = test_w();
        let mut r = rng();
        let xb =
            CrossbarArray::program_signed(&w, Mapping::Acm, DeviceConfig::ideal(), &mut r).unwrap();
        let bad = Tensor::from_vec(vec![1.0, f32::NAN, 0.0], &[3]).unwrap();
        assert!(matches!(
            xb.mvm_raw(&bad),
            Err(MappingError::NonFiniteInput { op: "mvm_raw" })
        ));
        assert!(matches!(
            xb.mvm_signed(&bad),
            Err(MappingError::NonFiniteInput { .. })
        ));
        let bad_batch = Tensor::from_vec(vec![0.5, 0.5, f32::INFINITY], &[1, 3]).unwrap();
        assert!(matches!(
            xb.forward(&bad_batch),
            Err(MappingError::NonFiniteInput { op: "forward" })
        ));
        let bad_m = Tensor::from_vec(vec![0.1, f32::NAN, 0.2, 0.3, 0.4, 0.5], &[3, 2]).unwrap();
        assert!(matches!(
            CrossbarArray::program_conductances(
                &bad_m,
                Mapping::Acm,
                DeviceConfig::ideal(),
                &mut r
            ),
            Err(MappingError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn fault_free_device_reports_pristine_map_and_full_convergence() {
        let w = test_w();
        let mut r = rng();
        let xb =
            CrossbarArray::program_signed(&w, Mapping::Acm, DeviceConfig::ideal(), &mut r).unwrap();
        assert!(xb.fault_map().is_pristine());
        assert!(xb.programming_report().all_converged());
        assert!(xb.require_converged().is_ok());
        assert_eq!(xb.programming_report().total_cells(), xb.num_elements());
    }

    #[test]
    fn fault_model_freezes_cells_through_programming() {
        use xbar_device::FaultModel;
        let mut r = rng();
        let w = Tensor::rand_uniform(&[8, 16], -0.02, 0.02, &mut r);
        let dev = DeviceConfig::ideal().with_faults(FaultModel::uniform(0.05));
        let xb = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut r).unwrap();
        let stuck = xb.fault_map().num_stuck();
        assert!(stuck > 0, "5% rate on 144 cells should hit");
        assert_eq!(xb.programming_report().num_stuck(), stuck);
        let range = dev.range();
        for (row, col, kind) in xb.fault_map().iter_stuck() {
            assert_eq!(xb.conductances().at(&[row, col]), kind.forced_value(range));
        }
    }

    #[test]
    fn remapped_programming_recovers_weight_accuracy() {
        use xbar_device::FaultModel;
        let mut r = rng();
        let w = Tensor::rand_uniform(&[8, 16], -0.02, 0.02, &mut r);
        let dev = DeviceConfig::ideal().with_faults(FaultModel::uniform(0.02));
        // Same seed for both arrays → identical fault pattern.
        let naive =
            CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut XorShiftRng::new(5)).unwrap();
        let (remapped, report) =
            CrossbarArray::program_signed_remapped(&w, Mapping::Acm, dev, &mut XorShiftRng::new(5))
                .unwrap();
        assert_eq!(naive.fault_map(), remapped.fault_map());
        assert!(naive.fault_map().num_stuck() > 0);
        let err = |xb: &CrossbarArray| xb.effective_weights().sub(&w).unwrap().norm_sq().sqrt();
        assert!(
            err(&remapped) < err(&naive) * 0.5,
            "remapped error {} vs naive {}",
            err(&remapped),
            err(&naive)
        );
        assert!(report.residual_after() <= report.residual_before());
        assert_eq!(report.stuck_cells(), naive.fault_map().num_stuck());
    }

    #[test]
    fn resample_keeps_fault_pattern_but_redraws_noise() {
        use xbar_device::FaultModel;
        let mut r = rng();
        let w = Tensor::rand_uniform(&[6, 10], -0.02, 0.02, &mut r);
        let dev = DeviceConfig::ideal()
            .with_faults(FaultModel::uniform(0.05))
            .with_variation_sigma(0.05);
        let mut xb = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut r).unwrap();
        let map_before = xb.fault_map().clone();
        let prog_before = xb.conductances().clone();
        xb.resample_variation(&mut r);
        assert_eq!(xb.fault_map(), &map_before, "defects belong to the chip");
        assert!(!xb.conductances().all_close(&prog_before, 1e-7));
        for (row, col, kind) in xb.fault_map().iter_stuck() {
            assert_eq!(
                xb.conductances().at(&[row, col]),
                kind.forced_value(dev.range())
            );
        }
    }

    #[test]
    fn variation_trials_match_serial_resample_loop() {
        let w = test_w();
        let dev = DeviceConfig::quantized_linear(4).with_variation_sigma(0.05);
        let mut r = rng();
        let xb = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut r).unwrap();
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1, 0.2, 0.3], &[2, 3]).unwrap();
        let mut rng_a = XorShiftRng::new(99);
        let got = xb.variation_trials(&x, 5, &mut rng_a).unwrap();
        assert_eq!(got.len(), 5);
        // Reference: the documented serial loop with the same fork order.
        let mut rng_b = XorShiftRng::new(99);
        let forks: Vec<_> = (0..5u64).map(|t| rng_b.fork(t)).collect();
        for (t, mut fr) in forks.into_iter().enumerate() {
            let mut chip = xb.clone();
            chip.resample_variation(&mut fr);
            let want = chip.forward(&x).unwrap();
            assert_eq!(got[t].data(), want.data(), "trial {t}");
        }
        // Variation is actually redrawn between trials.
        assert!(!got[0].all_close(&got[1], 1e-7));
        // The parent stream advanced exactly as the serial loop's did.
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn strict_convergence_check_surfaces_programming_failure() {
        use xbar_device::ProgrammingModel;
        let w = test_w();
        // Impossible tolerance with heavy noise: nothing converges.
        let dev = DeviceConfig::ideal()
            .with_variation_sigma(0.2)
            .with_programming(ProgrammingModel::write_verify(2, 1e-6));
        let mut r = rng();
        let xb = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut r).unwrap();
        assert!(xb.programming_report().num_unconverged() > 0);
        let err = xb.require_converged().unwrap_err();
        assert!(matches!(err, MappingError::ProgrammingFailed { .. }));
    }

    #[test]
    fn write_verify_tightens_programmed_weights() {
        use xbar_device::ProgrammingModel;
        let mut r = rng();
        let w = Tensor::rand_uniform(&[8, 16], -0.02, 0.02, &mut r);
        let err_with = |prog: ProgrammingModel| {
            let dev = DeviceConfig::ideal()
                .with_variation_sigma(0.1)
                .with_programming(prog);
            let xb =
                CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut XorShiftRng::new(17))
                    .unwrap();
            xb.effective_weights().sub(&w).unwrap().norm_sq().sqrt()
        };
        let one_shot = err_with(ProgrammingModel::one_shot());
        let verified = err_with(ProgrammingModel::write_verify(8, 0.02));
        assert!(
            verified < one_shot * 0.5,
            "write-verify {verified} vs one-shot {one_shot}"
        );
    }

    #[test]
    fn nonlinear_update_device_still_programs_correctly() {
        // Programming (as opposed to in-situ training) is a write-verify
        // operation: the nonlinearity affects training updates, not the
        // final programmed states.
        let w = test_w();
        let dev = DeviceConfig::builder()
            .bits(4)
            .update(UpdateModel::symmetric_nonlinear(5.0))
            .build();
        let mut r = rng();
        let xb = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut r).unwrap();
        let eff = xb.effective_weights();
        assert!(eff.all_close(&w, dev.quantizer().step() * 2.0));
    }

    #[test]
    fn parasitics_off_effective_is_bitwise_programmed() {
        let w = test_w();
        for mapping in Mapping::ALL {
            let xb = CrossbarArray::program_signed(
                &w,
                mapping,
                DeviceConfig::quantized_linear(4).with_variation_sigma(0.03),
                &mut rng(),
            )
            .unwrap();
            assert_eq!(
                xb.effective_conductances().data(),
                xb.conductances().data(),
                "{mapping}: parasitics off must be a pure pass-through"
            );
        }
    }

    #[test]
    fn line_resistance_attenuates_every_live_cell() {
        use xbar_device::LineResistanceModel;
        let w = test_w();
        let dev = DeviceConfig::ideal().with_line_resistance(LineResistanceModel::new(0.01));
        let xb = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut rng()).unwrap();
        let (prog, eff) = (xb.conductances(), xb.effective_conductances());
        for (p, e) in prog.data().iter().zip(eff.data()) {
            if *p > 0.0 {
                assert!(*e < *p, "attenuation must strictly shrink {p} -> {e}");
            } else {
                assert_eq!(*e, *p);
            }
        }
        // Output error grows with the wire resistance.
        let x = Tensor::ones(&[w.shape()[1]]);
        let err = |r_frac: f32| {
            let dev = DeviceConfig::ideal().with_line_resistance(LineResistanceModel::new(r_frac));
            let xb = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut rng()).unwrap();
            let ideal = linalg::matvec(&w, &x).unwrap();
            xb.mvm_signed(&x).unwrap().sub(&ideal).unwrap().abs_max()
        };
        assert!(err(0.02) > err(0.002));
    }

    #[test]
    fn drift_decays_toward_g_min_but_skips_stuck_cells() {
        use xbar_device::{DriftModel, FaultModel};
        let w = test_w();
        let dev = DeviceConfig::ideal()
            .with_faults(FaultModel::uniform(0.1))
            .with_drift(DriftModel::new(0.1, 0.02, 99).at_time(1000));
        let xb = CrossbarArray::program_signed(&w, Mapping::BiasColumn, dev, &mut rng()).unwrap();
        assert!(xb.fault_map().num_stuck() > 0);
        let g_min = dev.range().g_min();
        let cols = xb.conductances().shape()[1];
        let mut decayed = 0usize;
        for (idx, (p, e)) in xb
            .conductances()
            .data()
            .iter()
            .zip(xb.effective_conductances().data())
            .enumerate()
        {
            let (r, c) = (idx / cols, idx % cols);
            if xb.fault_map().get(r, c).is_some() {
                assert_eq!(*e, *p, "stuck cells are frozen and must not drift");
            } else {
                assert!(*e <= *p && *e >= g_min);
                if *e < *p {
                    decayed += 1;
                }
            }
        }
        assert!(decayed > 0, "drift at t=1000 must move some live cells");
    }

    #[test]
    fn perm_reorders_conductance_rows_but_weights_are_exact() {
        let w = test_w();
        let mut r = rng();
        let bc = CrossbarArray::program_signed(
            &w,
            Mapping::BiasColumn,
            DeviceConfig::ideal(),
            &mut rng(),
        )
        .unwrap();
        let perm =
            CrossbarArray::program_signed(&w, Mapping::Perm, DeviceConfig::ideal(), &mut rng())
                .unwrap();
        // Same multiset of device rows, different order.
        assert_eq!(bc.conductances().shape(), perm.conductances().shape());
        assert_ne!(
            bc.conductances().data(),
            perm.conductances().data(),
            "the magnitude sort should move rows for a generic W"
        );
        // The folded-in inverse permutation keeps the map exact.
        assert!(perm.effective_weights().all_close(&w, 1e-5));
        let x = Tensor::rand_uniform(&[w.shape()[1]], -1.0, 1.0, &mut r);
        let yb = bc.mvm_signed(&x).unwrap();
        let yp = perm.mvm_signed(&x).unwrap();
        assert!(yp.all_close(&yb, 1e-4));
    }

    #[test]
    fn perm_places_large_magnitude_rows_near_the_driver() {
        let w = test_w();
        let xb =
            CrossbarArray::program_signed(&w, Mapping::Perm, DeviceConfig::ideal(), &mut rng())
                .unwrap();
        let mid = xb.device().range().midpoint();
        let (nd, n_in) = (xb.conductances().shape()[0], xb.conductances().shape()[1]);
        let dev: Vec<f32> = (0..nd)
            .map(|j| {
                xb.conductances().data()[j * n_in..(j + 1) * n_in]
                    .iter()
                    .map(|&g| (g - mid).abs())
                    .sum()
            })
            .collect();
        for pair in dev.windows(2) {
            assert!(
                pair[0] >= pair[1] - 1e-6,
                "physical rows must be sorted by descending mid-deviation: {dev:?}"
            );
        }
    }

    #[test]
    fn magnitude_permutation_is_stable_for_ties() {
        // Identical rows keep their original order (stable sort), which
        // is what pins BC's all-mid reference row to the last slot.
        let m = Tensor::from_vec(vec![0.5, 0.5, 0.9, 0.1, 0.5, 0.5], &[3, 2]).unwrap();
        assert_eq!(magnitude_permutation(&m, 0.5), vec![1, 0, 2]);
    }
}
