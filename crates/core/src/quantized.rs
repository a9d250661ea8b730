//! Integer (int8) crossbar readout: the ADC-exact quantized forward path.
//!
//! The fp32 forward path multiplies activations against the effective
//! conductance matrix in floating point. Real inference hardware does
//! neither: DACs drive the rows with a few bits of activation code, the
//! array accumulates charge, and a column ADC digitizes the sum. This
//! module models that pipeline as *exact integer arithmetic* end to end:
//!
//! 1. **Activations** quantize onto the unsigned affine grid
//!    (`x ≈ s_x · (c − zp)`, codes ≤ 127 — the
//!    [`xbar_tensor::qgemm`] operand contract).
//! 2. **Conductances** are read as their state indices on the device's
//!    `B`-bit grid, centered into i8 (`gsym = index − 2^(B−1)`, so
//!    `g = c₀ + step · gsym`). This requires `B ≤ 8`; conductances that
//!    sit off-grid (variation, drift, IR drop) snap to the nearest state
//!    — the read discretization a digital readout cannot avoid.
//! 3. Each tile computes `acc = Σ c · gsym` through the int8 GEMM
//!    kernels, removes the zero point digitally
//!    (`A = acc − zp · Σ gsym`, the analog zero-point compensation
//!    current), and digitizes `A` with the column [`AdcSpec`] — ranged
//!    from the worst-case tile-local magnitude, truncating and
//!    saturating exactly as the converter would.
//! 4. Digitized partial sums accumulate *as integers* across grid rows
//!    in fixed tile order; the only floating-point work is the final
//!    per-element reconstruction
//!    `y_dev = s_x · (c₀ · S + step · A)` (with `S = Σ (c − zp)` the
//!    input code sum), done serially on the calling thread.
//!
//! Steps 2 and 3's conductance side — each tile's centered i8 block and
//! its column sums `Σ gsym` — depends only on the programmed state, so
//! [`ReadoutImage`] builds it once and every later batch only reads it.
//!
//! Because every parallel step is integer-exact and the commit order is
//! pinned by [`backend::ordered_stream`], the quantized forward is
//! **bitwise identical for any thread count** — stronger than the fp32
//! path's tolerance-free determinism, and checked by `ci.sh`.

use xbar_device::{AdcSpec, DeviceConfig, Quantizer};
use xbar_tensor::backend;
use xbar_tensor::qgemm::{self, QGEMM_MAX_K};
use xbar_tensor::quant::{QScheme, QuantizedTensor};
use xbar_tensor::{scratch, Tensor};

use crate::crossbar::CrossbarArray;
use crate::error::MappingError;
use crate::tiling::TileGrid;

/// Configuration of the integer readout: activation DAC width, optional
/// calibrated activation clip range, and the column ADC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantReadout {
    /// Activation (DAC) bit width, `1..=7` — codes must respect the
    /// unsigned GEMM operand bound.
    pub act_bits: u8,
    /// Calibrated activation clip range `(lo, hi)`. `None` derives the
    /// range from the batch itself (min/max), which is convenient but
    /// makes the grid data-dependent; calibrated inference should pass
    /// the range observed during calibration.
    pub act_range: Option<(f32, f32)>,
    /// The column ADC model.
    pub adc: AdcSpec,
}

impl Default for QuantReadout {
    /// 7-bit activations (the widest exact configuration), data-derived
    /// range, effectively transparent ADC.
    fn default() -> Self {
        Self {
            act_bits: 7,
            act_range: None,
            adc: AdcSpec::lossless(),
        }
    }
}

impl QuantReadout {
    /// The readout with a `bits`-wide column ADC and defaults elsewhere.
    pub fn with_adc_bits(bits: u8) -> Self {
        Self {
            adc: AdcSpec::new(bits),
            ..Self::default()
        }
    }
}

/// Checks that `device` supports the integer readout: it must expose a
/// quantized state grid no wider than 8 bits (centered indices must fit
/// i8).
fn readout_quantizer(device: &DeviceConfig, op: &'static str) -> Result<Quantizer, MappingError> {
    let q = device
        .quantizer_opt()
        .ok_or_else(|| MappingError::Unsupported {
            op,
            reason: "device conductance is continuous; the integer readout needs a \
                     quantized state grid (set a bit width ≤ 8)"
                .into(),
        })?;
    if q.bits() > 8 {
        return Err(MappingError::Unsupported {
            op,
            reason: format!(
                "device bit width {} exceeds 8; centered state codes must fit i8",
                q.bits()
            ),
        });
    }
    Ok(q)
}

/// One tile's weight-side operands for the integer readout.
#[derive(Debug, Clone)]
struct TileOperand {
    row_start: usize,
    row_len: usize,
    dev_start: usize,
    dev_len: usize,
    /// Centered state codes `gsym`, `dev_len × row_len` row-major — the
    /// `b` operand of [`qgemm::qgemm_nt`].
    codes: Vec<i8>,
    /// Per device column, `Σ gsym` over the tile's rows: the term the
    /// activation zero point multiplies.
    colsums: Vec<i32>,
}

/// The integer readout's weight-side operands of one programmed state:
/// per tile, the packed centered-i8 block of the conductances and its
/// column sums, plus the grid constants that turn integer sums back into
/// conductance units. Everything here depends on the conductances only,
/// never on the activations, so it is built once per programmed state
/// ([`ReadoutImage::new`]) and read for every batch after that
/// ([`ReadoutImage::read`]).
#[derive(Debug, Clone)]
pub struct ReadoutImage {
    nd: usize,
    k: usize,
    /// Tiles in grid order — the fixed commit order of the readout.
    tiles: Vec<TileOperand>,
    /// `2^(B−1)`: the centering offset and the worst-case `|gsym|`.
    half: i32,
    step: f32,
    /// Conductance of the centered code 0: `g = c0 + step · gsym`.
    c0: f32,
}

impl ReadoutImage {
    /// Reads `conductances (N_D × N_I)` laid out on `grid` as state
    /// indices on `q`'s grid, centered into i8, and packs each tile's
    /// block with its column sums. Conductances that sit off-grid snap
    /// to the nearest state.
    ///
    /// # Panics
    ///
    /// Panics if `q.bits() > 8`, the conductance shape disagrees with the
    /// grid, or `N_I` exceeds [`QGEMM_MAX_K`].
    pub fn new(conductances: &Tensor, grid: &TileGrid, q: &Quantizer) -> Self {
        let (nd, k) = (conductances.shape()[0], conductances.shape()[1]);
        assert_eq!(grid.nd_total(), nd, "conductance/grid height mismatch");
        assert_eq!(grid.n_in(), k, "conductance/grid width mismatch");
        assert!(k <= QGEMM_MAX_K, "input width {k} exceeds exact-i32 bound");
        assert!(q.bits() <= 8, "device bits must be ≤ 8 for the i8 image");
        let half = 1i32 << (q.bits() - 1);
        let g = conductances.data();
        let tiles = grid
            .tiles()
            .map(|tile| {
                let (r0, rl) = (tile.row_start, tile.row_len);
                let (d0, dl) = (tile.group.dev_start, tile.group.dev_len);
                let mut codes = Vec::with_capacity(dl * rl);
                for j in 0..dl {
                    codes.extend(
                        g[(d0 + j) * k + r0..][..rl]
                            .iter()
                            .map(|&v| (q.state_index(v) as i32 - half) as i8),
                    );
                }
                let colsums = codes
                    .chunks_exact(rl)
                    .map(|col| col.iter().map(|&c| i32::from(c)).sum())
                    .collect();
                TileOperand {
                    row_start: r0,
                    row_len: rl,
                    dev_start: d0,
                    dev_len: dl,
                    codes,
                    colsums,
                }
            })
            .collect();
        let step = q.step();
        Self {
            nd,
            k,
            tiles,
            half,
            step,
            c0: q.state_value(0) + half as f32 * step,
        }
    }

    /// Raw dequantized column outputs `(batch × N_D)` for the activations
    /// `x (batch × N_I)` — what the ADCs delivered, before the periphery
    /// combine. Each tile gets its own int8 GEMM and its own ADC ranging
    /// (the monolithic grid is one full-array tile), and digitized
    /// partial sums accumulate as integers across row blocks in fixed
    /// tile order.
    ///
    /// # Panics
    ///
    /// Panics if `mode.act_bits` is outside `1..=7` or `x` is not
    /// `(batch, N_I)`.
    pub fn read(&self, mode: &QuantReadout, x: &Tensor) -> Tensor {
        let (batch, k, nd) = (x.shape()[0], self.k, self.nd);
        assert_eq!(x.shape()[1], k, "conductance/input width mismatch");

        // Activation codes (unsigned affine, ≤ 127 by construction).
        let qx = QuantizedTensor::quantize_affine_with_range(x, mode.act_bits, mode.act_range);
        let QScheme::Affine {
            scale: sx,
            zero_point: zp,
            ..
        } = *qx.scheme()
        else {
            unreachable!("quantize_affine always returns an affine scheme")
        };
        let codes = qx.data();
        let max_code = ((1u32 << mode.act_bits) - 1) as i64;

        // Per-batch centered input code sums S[b] = Σ_i (c_i − zp): the
        // term the grid offset c0 multiplies. Row blocks partition the
        // inputs, so the total equals the sum of every tile's local S.
        let s_tot: Vec<i32> = (0..batch)
            .map(|b| codes[b * k..][..k].iter().map(|&c| c as i32 - zp).sum())
            .collect();

        // Digitized partial column sums, accumulated in i32: per-tile
        // integer GEMMs fan across the pool, the ordered stream commits
        // them in submission order, and every step is exact — bitwise
        // identical at any thread count.
        let mut a_tot = scratch::take_filled_i32(batch * nd, 0);
        let (adc, half) = (mode.adc, self.half);
        backend::ordered_stream(
            self.tiles.iter().collect(),
            |_, tile: &TileOperand| {
                let (r0, rl, dl) = (tile.row_start, tile.row_len, tile.dev_len);
                let mut a_blk = scratch::take_filled_i8(batch * rl, 0);
                for b in 0..batch {
                    a_blk[b * rl..][..rl].copy_from_slice(&codes[b * k + r0..][..rl]);
                }
                let mut acc = scratch::take_filled_i32(batch * dl, 0);
                // SAFETY: affine codes are non-negative (≤ 127), so the i8
                // buffer reinterprets to u8 value-preservingly.
                let a_u8 =
                    unsafe { std::slice::from_raw_parts(a_blk.as_ptr().cast::<u8>(), a_blk.len()) };
                qgemm::qgemm_nt(a_u8, &tile.codes, &mut acc, batch, rl, dl);
                // Zero-point correction term, then the tile's ADC: ranged
                // from the worst-case tile-local centered sum
                // rl · max|c − zp| · max|gsym|.
                let shift = adc.shift_for(rl as i64 * max_code * half as i64);
                for row in acc.chunks_exact_mut(dl) {
                    for (a, &cs) in row.iter_mut().zip(&tile.colsums) {
                        *a = adc.convert(*a - zp * cs, shift);
                    }
                }
                scratch::give_i8(a_blk);
                (tile.dev_start, dl, acc)
            },
            |_, (d0, dl, acc)| {
                for b in 0..batch {
                    let dst = &mut a_tot[b * nd + d0..][..dl];
                    for (d, &p) in dst.iter_mut().zip(&acc[b * dl..][..dl]) {
                        *d += p;
                    }
                }
                scratch::give_i32(acc);
            },
        );

        // Serial f32 reconstruction: y_dev = s_x · (c0 · S + step · A).
        let (step, c0) = (self.step, self.c0);
        let mut raw = Tensor::zeros(&[batch, nd]);
        let rd = raw.data_mut();
        for b in 0..batch {
            let base = sx * c0 * s_tot[b] as f32;
            for j in 0..nd {
                rd[b * nd + j] = base + sx * step * a_tot[b * nd + j] as f32;
            }
        }
        scratch::give_i32(a_tot);
        raw
    }
}

/// Raw dequantized column outputs `(batch × N_D)` of the integer readout
/// of `effective (N_D × N_I)` laid out on `grid` — the uncached form of
/// `ReadoutImage::new(effective, grid, q).read(mode, x)`, building the
/// operands and reading them once.
///
/// The caller guarantees `q.bits() ≤ 8` (see the module docs); shapes
/// must agree (`x` is `(batch, N_I)`).
///
/// # Panics
///
/// Panics if `mode.act_bits` is outside `1..=7`, shapes disagree, or
/// `N_I` exceeds [`QGEMM_MAX_K`].
pub fn quantized_raw_batch(
    effective: &Tensor,
    grid: &TileGrid,
    q: &Quantizer,
    mode: &QuantReadout,
    x: &Tensor,
) -> Tensor {
    ReadoutImage::new(effective, grid, q).read(mode, x)
}

impl CrossbarArray {
    /// Batched signed MVM through the integer readout, tile by tile:
    /// `X (batch × N_I) → Y (batch × N_O)`, with activations quantized to
    /// `mode.act_bits`, conductances read on the device state grid, each
    /// tile's column sums digitized by `mode.adc` (ranged for the tile's
    /// row depth), digitized partial sums accumulated as integers across
    /// row blocks, and the per-group periphery combining the result.
    /// Bitwise identical for any thread count.
    ///
    /// The weight-side operands ([`ReadoutImage`]) are built by the first
    /// call and reused by every later one until
    /// [`CrossbarArray::resample_variation`] re-programs the array.
    ///
    /// # Errors
    ///
    /// [`MappingError::Unsupported`] if the device has no quantizer or
    /// more than 8 bits; shape / non-finite-input errors as for
    /// [`CrossbarArray::forward`].
    pub fn forward_quantized(
        &self,
        x: &Tensor,
        mode: &QuantReadout,
    ) -> Result<Tensor, MappingError> {
        let q = readout_quantizer(self.device(), "forward_quantized")?;
        self.grid().check_batch(x, "forward_quantized")?;
        let image = self
            .readout
            .get_or_init(|| ReadoutImage::new(self.effective_conductances(), self.grid(), &q));
        self.periphery().combine(&image.read(mode, x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mapping;
    use xbar_device::TileShape;
    use xbar_tensor::rng::XorShiftRng;

    fn rand_tensor(rng: &mut XorShiftRng, shape: &[usize], lo: f32, hi: f32) -> Tensor {
        let mut t = Tensor::zeros(shape);
        for v in t.data_mut() {
            *v = lo + (hi - lo) * rng.next_f32();
        }
        t
    }

    fn ideal_device(bits: u8) -> DeviceConfig {
        DeviceConfig::builder().bits(bits).build()
    }

    #[test]
    fn monolithic_readout_matches_f32_on_the_quantized_input() {
        let mut rng = XorShiftRng::new(42);
        let w = rand_tensor(&mut rng, &[11, 37], -0.05, 0.05);
        let xbar =
            CrossbarArray::program_signed(&w, Mapping::Acm, ideal_device(6), &mut rng).unwrap();
        let x = rand_tensor(&mut rng, &[5, 37], -1.0, 1.0);
        let mode = QuantReadout::default();
        let got = xbar.forward_quantized(&x, &mode).unwrap();
        // The same product through the fp32 path, fed the dequantized
        // activations the integer path actually sees: identical math,
        // integer-exact vs f32 accumulation.
        let x_dq = QuantizedTensor::quantize_affine(&x, mode.act_bits).dequantize();
        let want = xbar.forward(&x_dq).unwrap();
        for (&g, &e) in got.data().iter().zip(want.data()) {
            assert!((g - e).abs() <= 1e-4 + 1e-3 * e.abs(), "{g} vs {e}");
        }
    }

    #[test]
    fn tiled_readout_matches_f32_on_the_quantized_input() {
        let mut rng = XorShiftRng::new(7);
        let w = rand_tensor(&mut rng, &[20, 50], -0.04, 0.04);
        let xbar = CrossbarArray::program_signed(
            &w,
            Mapping::Acm,
            ideal_device(6).with_tile_shape(Some(TileShape::new(16, 16))),
            &mut rng,
        )
        .unwrap();
        assert!(xbar.grid().num_tiles() > 1);
        let x = rand_tensor(&mut rng, &[4, 50], -1.0, 1.0);
        let mode = QuantReadout::default();
        let got = xbar.forward_quantized(&x, &mode).unwrap();
        let x_dq = QuantizedTensor::quantize_affine(&x, mode.act_bits).dequantize();
        let want = xbar.forward(&x_dq).unwrap();
        for (&g, &e) in got.data().iter().zip(want.data()) {
            assert!((g - e).abs() <= 1e-4 + 1e-3 * e.abs(), "{g} vs {e}");
        }
    }

    #[test]
    fn readout_is_bitwise_identical_serial_vs_parallel() {
        let mut rng = XorShiftRng::new(99);
        let w = rand_tensor(&mut rng, &[24, 60], -0.3, 0.3);
        let xbar = CrossbarArray::program_signed(
            &w,
            Mapping::BiasColumn,
            ideal_device(5).with_tile_shape(Some(TileShape::new(16, 16))),
            &mut rng,
        )
        .unwrap();
        let x = rand_tensor(&mut rng, &[6, 60], -1.0, 1.0);
        let mode = QuantReadout::with_adc_bits(8);
        let parallel = xbar.forward_quantized(&x, &mode).unwrap();
        backend::force_serial(true);
        let serial = xbar.forward_quantized(&x, &mode).unwrap();
        backend::force_serial(false);
        assert_eq!(serial.data(), parallel.data());
    }

    #[test]
    fn cached_readout_follows_resampled_variation() {
        let mut rng = XorShiftRng::new(12);
        let w = rand_tensor(&mut rng, &[20, 40], -0.04, 0.04);
        let device = ideal_device(6)
            .with_variation_sigma(0.05)
            .with_tile_shape(Some(TileShape::new(16, 16)));
        let x = rand_tensor(&mut rng, &[4, 40], -1.0, 1.0);
        let mode = QuantReadout::with_adc_bits(10);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for mapping in Mapping::ALL {
            let mut xbar = CrossbarArray::program_signed(&w, mapping, device, &mut rng).unwrap();
            let q = xbar.device().quantizer();
            // The uncached reference: operands rebuilt from the effective
            // conductances, combined through the dense periphery.
            let uncached = |xbar: &CrossbarArray| {
                let raw =
                    quantized_raw_batch(xbar.effective_conductances(), xbar.grid(), &q, &mode, &x);
                xbar_tensor::linalg::matmul_nt(&raw, xbar.periphery().matrix()).unwrap()
            };
            let first = xbar.forward_quantized(&x, &mode).unwrap();
            assert_eq!(bits(&first), bits(&uncached(&xbar)), "{mapping}");
            xbar.resample_variation(&mut rng);
            let second = xbar.forward_quantized(&x, &mode).unwrap();
            assert_ne!(
                bits(&first),
                bits(&second),
                "{mapping}: variation did not move"
            );
            assert_eq!(
                bits(&second),
                bits(&uncached(&xbar)),
                "{mapping}: stale cache"
            );
        }
    }

    #[test]
    fn narrow_adc_truncates_the_readout() {
        let mut rng = XorShiftRng::new(5);
        let w = rand_tensor(&mut rng, &[9, 64], -0.05, 0.05);
        let xbar =
            CrossbarArray::program_signed(&w, Mapping::Acm, ideal_device(6), &mut rng).unwrap();
        let x = rand_tensor(&mut rng, &[3, 64], -1.0, 1.0);
        let wide = xbar
            .forward_quantized(&x, &QuantReadout::default())
            .unwrap();
        let narrow = xbar
            .forward_quantized(&x, &QuantReadout::with_adc_bits(4))
            .unwrap();
        assert_ne!(wide.data(), narrow.data());
        // More resolution brings the readout closer to the transparent
        // converter.
        let mid = xbar
            .forward_quantized(&x, &QuantReadout::with_adc_bits(10))
            .unwrap();
        let err = |y: &Tensor| -> f32 {
            y.data()
                .iter()
                .zip(wide.data())
                .map(|(&a, &b)| (a - b).abs())
                .sum()
        };
        assert!(err(&mid) < err(&narrow));
    }

    #[test]
    fn unquantized_or_too_wide_devices_are_rejected() {
        let mut rng = XorShiftRng::new(1);
        let w = rand_tensor(&mut rng, &[4, 8], -0.05, 0.05);
        let x = rand_tensor(&mut rng, &[2, 8], -1.0, 1.0);
        let full_precision = CrossbarArray::program_signed(
            &w,
            Mapping::Acm,
            DeviceConfig::builder().build(),
            &mut rng,
        )
        .unwrap();
        let err = full_precision
            .forward_quantized(&x, &QuantReadout::default())
            .unwrap_err();
        assert!(matches!(err, MappingError::Unsupported { .. }), "{err}");
        let wide =
            CrossbarArray::program_signed(&w, Mapping::Acm, ideal_device(9), &mut rng).unwrap();
        let err = wide
            .forward_quantized(&x, &QuantReadout::default())
            .unwrap_err();
        assert!(err.to_string().contains("exceeds 8"), "{err}");
    }

    #[test]
    fn input_validation_mirrors_the_f32_path() {
        let mut rng = XorShiftRng::new(2);
        let w = rand_tensor(&mut rng, &[4, 8], -0.05, 0.05);
        let xbar =
            CrossbarArray::program_signed(&w, Mapping::Acm, ideal_device(4), &mut rng).unwrap();
        let bad_shape = Tensor::zeros(&[2, 9]);
        assert!(matches!(
            xbar.forward_quantized(&bad_shape, &QuantReadout::default()),
            Err(MappingError::Shape(_))
        ));
        let mut bad_value = Tensor::zeros(&[2, 8]);
        bad_value.data_mut()[3] = f32::NAN;
        assert!(matches!(
            xbar.forward_quantized(&bad_value, &QuantReadout::default()),
            Err(MappingError::NonFiniteInput { .. })
        ));
    }

    #[test]
    fn calibrated_activation_range_pins_the_grid() {
        let mut rng = XorShiftRng::new(3);
        let w = rand_tensor(&mut rng, &[6, 16], -0.05, 0.05);
        let xbar =
            CrossbarArray::program_signed(&w, Mapping::Acm, ideal_device(6), &mut rng).unwrap();
        let x = rand_tensor(&mut rng, &[3, 16], -0.5, 0.5);
        let mode = QuantReadout {
            act_range: Some((-1.0, 1.0)),
            ..QuantReadout::default()
        };
        let y = xbar.forward_quantized(&x, &mode).unwrap();
        // A batch-dependent subrange input produces the same grid when
        // the calibrated range is pinned: scaling the batch down must not
        // change the codes' meaning, only which codes fire.
        let x_half = {
            let mut t = x.clone();
            t.data_mut().iter_mut().for_each(|v| *v *= 0.5);
            t
        };
        let y_half = xbar.forward_quantized(&x_half, &mode).unwrap();
        assert_ne!(y.data(), y_half.data());
        assert!(y.data().iter().all(|v| v.is_finite()));
        assert!(y_half.data().iter().all(|v| v.is_finite()));
    }
}
