//! Integration tests of the crossbar simulator against the mathematical
//! layer stack: an ideal crossbar must agree exactly with the dense math,
//! and non-idealities must degrade it in bounded, predictable ways.

use xbar_core::{CrossbarArray, Mapping};
use xbar_device::{ClampMode, DeviceConfig, VariationModel};
use xbar_nn::persist::crc32;
use xbar_tensor::{linalg, rng::XorShiftRng, Tensor};

// The property-based half of this suite needs the proptest registry crate,
// unavailable offline; it is gated behind the non-default `slow-proptests`
// feature (see crates/xbar/Cargo.toml).
#[cfg(feature = "slow-proptests")]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ideal crossbar MVM == mathematical MVM for all mappings, any
    /// representable W, any input.
    #[test]
    fn ideal_crossbar_is_exact(
        seed in any::<u64>(),
        n_out in 1usize..10,
        n_in in 1usize..10,
    ) {
        let mut rng = XorShiftRng::new(seed);
        let amp = 0.3 / n_out as f32;
        let w = Tensor::rand_uniform(&[n_out, n_in], -amp, amp, &mut rng);
        let x = Tensor::rand_uniform(&[n_in], -1.0, 1.0, &mut rng);
        let expected = linalg::matvec(&w, &x).expect("dims");
        for mapping in Mapping::ALL {
            let xbar =
                CrossbarArray::program_signed(&w, mapping, DeviceConfig::ideal(), &mut rng)
                    .expect("representable");
            let y = xbar.mvm_signed(&x).expect("dims");
            prop_assert!(y.all_close(&expected, 1e-4), "{} diverged", mapping);
        }
    }

    /// Quantized programming error is bounded by the state spacing: the
    /// effective weight error per element is at most one quantizer step
    /// per contributing device (2 for all our mappings).
    #[test]
    fn quantized_weight_error_is_bounded(
        seed in any::<u64>(),
        bits in 2u8..8,
    ) {
        let mut rng = XorShiftRng::new(seed);
        let w = Tensor::rand_uniform(&[4, 6], -0.05, 0.05, &mut rng);
        for mapping in Mapping::ALL {
            let dev = DeviceConfig::quantized_linear(bits);
            let xbar = CrossbarArray::program_signed(&w, mapping, dev, &mut rng)
                .expect("representable");
            let err = xbar.effective_weights().sub(&w).expect("dims").abs_max();
            let bound = dev.quantizer().step() * 1.01; // nearest-state snap: half step per element, 2 elements
            prop_assert!(err <= bound, "{}: error {} > bound {}", mapping, err, bound);
        }
    }

    /// Monte-Carlo resampling leaves targets untouched and produces
    /// different programmed arrays each time.
    #[test]
    fn resampling_is_fresh_noise(seed in any::<u64>()) {
        let mut rng = XorShiftRng::new(seed);
        let w = Tensor::rand_uniform(&[4, 4], -0.05, 0.05, &mut rng);
        let dev = DeviceConfig::quantized_linear(4).with_variation_sigma(0.1);
        let mut xbar =
            CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut rng).expect("ok");
        let t0 = xbar.targets().clone();
        let p0 = xbar.conductances().clone();
        xbar.resample_variation(&mut rng);
        prop_assert!(xbar.targets().all_close(&t0, 0.0));
        prop_assert!(!xbar.conductances().all_close(&p0, 1e-7));
    }
    }
}

#[test]
fn variation_noise_statistics_scale_with_sigma() {
    // Program the same array at two sigmas; the weight-space perturbation
    // RMS should roughly double when sigma doubles.
    let mut rng = XorShiftRng::new(97);
    let w = Tensor::rand_uniform(&[16, 64], -0.01, 0.01, &mut rng);
    let rms_at = |sigma: f32, rng: &mut XorShiftRng| {
        let dev = DeviceConfig::quantized_linear(6).with_variation_sigma(sigma);
        let xbar = CrossbarArray::program_signed(&w, Mapping::DoubleElement, dev, rng).unwrap();
        let diff = xbar
            .effective_weights()
            .sub(&linalg::matmul(xbar.periphery().matrix(), xbar.targets()).unwrap())
            .unwrap();
        (diff.norm_sq() / diff.len() as f32).sqrt()
    };
    let r1 = rms_at(0.05, &mut rng);
    let r2 = rms_at(0.10, &mut rng);
    let ratio = r2 / r1;
    assert!(
        (1.6..=2.4).contains(&ratio),
        "noise should scale linearly with sigma, got ratio {ratio}"
    );
}

#[test]
fn unclamped_variation_model_is_unbiased() {
    let range = xbar_device::ConductanceRange::normalized();
    let var = VariationModel::new(0.2).with_clamp(ClampMode::None);
    let mut rng = XorShiftRng::new(98);
    let t = Tensor::full(&[64, 64], 0.5);
    let noisy = var.sample_tensor(&t, range, &mut rng);
    let mean = noisy.mean();
    assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
}

#[test]
fn clamp_mode_controls_out_of_range_conductances() {
    // Heavy noise around a target at the range ceiling: ToRange (the
    // default) must keep every programmed conductance inside the device
    // range, while None lets the noise spill past it — and the two modes
    // must agree on the draw sequence (clamping is a post-step).
    let range = xbar_device::ConductanceRange::normalized();
    let t = Tensor::full(&[32, 32], 1.0);
    let clamped = VariationModel::new(0.3).sample_tensor(&t, range, &mut XorShiftRng::new(100));
    let free = VariationModel::new(0.3)
        .with_clamp(ClampMode::None)
        .sample_tensor(&t, range, &mut XorShiftRng::new(100));
    assert!(clamped.data().iter().all(|&g| (0.0..=1.0).contains(&g)));
    assert!(
        free.data().iter().any(|&g| g > 1.0),
        "sigma 0.3 at g_max must overshoot"
    );
    for (c, f) in clamped.data().iter().zip(free.data()) {
        assert_eq!(
            *c,
            range.clamp(*f),
            "clamped draw must be the clamp of the free draw"
        );
    }
}

#[test]
fn resampling_is_deterministic_under_a_fixed_seed() {
    // Monte-Carlo studies re-seed per sample; two arrays resampled with
    // equal seeds must agree bit-for-bit, and a different seed must not.
    let mut rng = XorShiftRng::new(101);
    let w = Tensor::rand_uniform(&[8, 16], -0.02, 0.02, &mut rng);
    let dev = DeviceConfig::quantized_linear(5).with_variation_sigma(0.08);
    let mut a = CrossbarArray::program_signed(&w, Mapping::Acm, dev, &mut rng).unwrap();
    let mut b = a.clone();
    a.resample_variation(&mut XorShiftRng::new(7));
    b.resample_variation(&mut XorShiftRng::new(7));
    assert_eq!(a.conductances(), b.conductances());
    assert_eq!(a.targets(), b.targets());
    b.resample_variation(&mut XorShiftRng::new(8));
    assert_ne!(a.conductances(), b.conductances());
}

#[test]
fn bc_and_acm_arrays_use_identical_element_counts() {
    // Table I's "same hardware" claim at the simulator level.
    let mut rng = XorShiftRng::new(99);
    let w = Tensor::rand_uniform(&[8, 16], -0.02, 0.02, &mut rng);
    let bc =
        CrossbarArray::program_signed(&w, Mapping::BiasColumn, DeviceConfig::ideal(), &mut rng)
            .unwrap();
    let acm =
        CrossbarArray::program_signed(&w, Mapping::Acm, DeviceConfig::ideal(), &mut rng).unwrap();
    let de =
        CrossbarArray::program_signed(&w, Mapping::DoubleElement, DeviceConfig::ideal(), &mut rng)
            .unwrap();
    assert_eq!(bc.num_elements(), acm.num_elements());
    assert!(de.num_elements() > acm.num_elements() * 17 / 10);
}

#[test]
fn untiled_programming_is_bitwise_pinned() {
    // Every stage of the untiled pipeline at once — snapping, fault
    // dealing, write-verify with variation, drift and IR drop — digested
    // as raw bits. The constants pin the untiled array's exact RNG draw
    // order, arithmetic and parasitic composition; none of them may move.
    use xbar_device::{DriftModel, FaultModel, LineResistanceModel, ProgrammingModel};
    let dev = DeviceConfig::quantized_linear(4)
        .with_variation_sigma(0.05)
        .with_faults(FaultModel::uniform(0.06))
        .with_programming(ProgrammingModel::write_verify(4, 0.02))
        .with_drift(DriftModel::new(0.1, 0.02, 11).at_time(100))
        .with_line_resistance(LineResistanceModel::new(0.01));
    let expected: [u32; 4] = [0xe570_0dcc, 0x008e_a7ed, 0x73aa_5ffa, 0x00f0_95c9];
    let mut got = [0u32; 4];
    for (mapping, digest) in Mapping::ALL.into_iter().zip(&mut got) {
        let mut rng = XorShiftRng::new(2024);
        let w = Tensor::rand_uniform(&[9, 14], -0.02, 0.02, &mut rng);
        let xb = CrossbarArray::program_signed(&w, mapping, dev, &mut rng).unwrap();
        let x = Tensor::rand_uniform(&[3, 14], -1.0, 1.0, &mut rng);
        let y = xb.forward(&x).unwrap();
        assert!(xb.fault_map().num_stuck() > 0, "{mapping}: no faults dealt");
        assert_ne!(xb.conductances(), xb.effective_conductances());
        let report = xb.programming_report();
        let counts = [
            report.total_cells(),
            report.num_converged(),
            report.num_stuck(),
            report.num_unconverged(),
            report.total_writes() as usize,
        ];
        let stuck = xb.fault_map().iter_stuck().flat_map(|(row, col, kind)| {
            [row, col, kind.forced_value(dev.range()).to_bits() as usize]
        });
        let words = [
            xb.targets(),
            xb.conductances(),
            xb.effective_conductances(),
            &y,
        ]
        .into_iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits() as u64))
        .chain(stuck.chain(counts).map(|n| n as u64));
        let bytes: Vec<u8> = words.flat_map(u64::to_le_bytes).collect();
        *digest = crc32(&bytes);
    }
    assert_eq!(got, expected, "untiled programming drifted: {got:#x?}");
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn array_honours_the_device_tile_setting() {
    use xbar_device::{FaultModel, TileShape};
    let mut rng = XorShiftRng::new(5);
    let w = Tensor::rand_uniform(&[20, 50], -0.01, 0.01, &mut rng);
    let x = Tensor::rand_uniform(&[4, 50], -1.0, 1.0, &mut rng);
    let program = |device: DeviceConfig| {
        CrossbarArray::program_signed(&w, Mapping::Acm, device, &mut XorShiftRng::new(1)).unwrap()
    };
    // A 16x16 tile splits the 20x50 ACM layer into ceil(50/16) row blocks
    // by ceil(20/15) column groups; the map it computes is unchanged.
    let untiled = program(DeviceConfig::ideal());
    let tiled = program(DeviceConfig::ideal().with_tile_shape(Some(TileShape::new(16, 16))));
    assert!(untiled.grid().is_monolithic());
    assert_eq!(tiled.grid().grid(), (4, 2));
    let (yt, yu) = (tiled.forward(&x).unwrap(), untiled.forward(&x).unwrap());
    assert!(yt.all_close(&yu, 1e-4));
    assert!(tiled
        .effective_weights()
        .all_close(&untiled.effective_weights(), 1e-4));

    // A tile larger than the layer is the 1x1 grid: the same RNG draws and
    // the same state, bit for bit, on a noisy faulty device.
    let noisy = DeviceConfig::quantized_linear(4)
        .with_variation_sigma(0.05)
        .with_faults(FaultModel::uniform(0.05));
    let plain = program(noisy);
    let big = program(noisy.with_tile_shape(Some(TileShape::new(64, 64))));
    assert!(big.grid().is_monolithic());
    assert!(big.fault_map().num_stuck() > 0);
    for (a, b) in [
        (big.targets(), plain.targets()),
        (big.conductances(), plain.conductances()),
        (big.effective_conductances(), plain.effective_conductances()),
    ] {
        assert_eq!(bits(a), bits(b));
    }
    assert_eq!(big.fault_map(), plain.fault_map());
    assert_eq!(big.programming_report(), plain.programming_report());
    assert_eq!(
        bits(&big.forward(&x).unwrap()),
        bits(&plain.forward(&x).unwrap())
    );
}
