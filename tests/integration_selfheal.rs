//! Self-healing execution integration: scrubbed training (lifetime fault
//! arrivals + ABFT detection + staged repair) is bitwise identical across
//! the serial and pooled backends, and a training run killed during a
//! repair epoch resumes from its checkpoint bitwise — the health state
//! machine, quarantine set, and remap compensation all survive the crash.

use std::fs;
use std::path::PathBuf;

use xbar_core::{Mapping, RepairPolicy};
use xbar_data::SyntheticMnist;
use xbar_device::{DeviceConfig, LifetimeFaultModel, TileShape};
use xbar_nn::persist;
use xbar_nn::{
    scrub_network, train, Dense, Flatten, Layer, Relu, Sequential, TrainConfig, WeightKind,
};
use xbar_tensor::{rng::XorShiftRng, Tensor};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xbar-selfheal-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A tiled device whose cells wear out over scrub epochs.
fn aging_device() -> DeviceConfig {
    DeviceConfig::quantized_linear(4)
        .with_tile_shape(Some(TileShape::new(8, 8)))
        .with_lifetime_faults(LifetimeFaultModel::new(0.002, 77).unwrap())
}

fn make_net(seed: u64) -> Sequential {
    let kind = WeightKind::Mapped(Mapping::Acm);
    let mut rng = XorShiftRng::new(seed);
    let mut net = Sequential::new();
    net.push(Flatten::new());
    net.push(Dense::new(256, 16, kind, aging_device(), &mut rng).unwrap());
    net.push(Relu::new());
    net.push(Dense::new(16, 10, kind, aging_device(), &mut rng).unwrap());
    net
}

fn scrub_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 16,
        lr: 0.08,
        lr_decay: 0.9,
        seed: 0x5E1F,
        verbose: false,
        scrub_every: 1,
        scrub_detect: true,
        ..TrainConfig::default()
    }
}

/// The fault process must actually exercise the detection/repair path at
/// this size and rate — otherwise the bitwise tests below would pass
/// vacuously on a quiet array.
#[test]
fn scrub_cycle_detects_and_repairs_at_this_scale() {
    let mut net = make_net(31);
    let policy = RepairPolicy::default();
    let (mut faults, mut detections, mut repairs) = (0, 0, 0);
    for _ in 0..4 {
        let rep = scrub_network(&mut net, true, &policy).unwrap().unwrap();
        faults += rep.new_faults;
        detections += rep.detections;
        repairs += rep.repairs.len();
    }
    assert!(faults > 0, "no lifetime faults arrived in 4 epochs");
    assert!(detections > 0, "stuck cells must trip the ABFT checksum");
    assert!(repairs > 0, "detections must escalate to repair attempts");
}

/// A tick with detection off skips only observation and repair: a
/// quarantined tile keeps serving its exact digital fallback. Collecting a
/// checkpoint rebuilds the served array from the persisted state, so it
/// must leave the live forward output alone, and a restored copy must
/// forward the same bits.
#[test]
fn detect_off_tick_keeps_quarantined_tiles_on_the_fallback() {
    let device = DeviceConfig::quantized_linear(4)
        .with_tile_shape(Some(TileShape::new(8, 8)))
        .with_lifetime_faults(LifetimeFaultModel::new(0.05, 9).unwrap());
    let build = || {
        let mut rng = XorShiftRng::new(9);
        let mut net = Sequential::new();
        net.push(Dense::new(24, 12, WeightKind::Mapped(Mapping::Acm), device, &mut rng).unwrap());
        net
    };
    let mut net = build();
    let policy = RepairPolicy::default();
    for _ in 0..12 {
        scrub_network(&mut net, true, &policy).unwrap();
    }
    let off = scrub_network(&mut net, false, &policy).unwrap().unwrap();
    assert!(off.quarantined_total > 0, "the wear must quarantine a tile");

    let x = Tensor::rand_uniform(&[5, 24], -1.0, 1.0, &mut XorShiftRng::new(10));
    let live = net.forward(&x, false).unwrap();
    let snapshot = persist::collect_state(&mut net);
    assert_eq!(
        net.forward(&x, false).unwrap().data(),
        live.data(),
        "collecting a checkpoint changed the served array"
    );
    let mut restored = build();
    persist::restore_state(&mut restored, &snapshot).unwrap();
    assert_eq!(
        restored.forward(&x, false).unwrap().data(),
        live.data(),
        "a restored copy serves a different array"
    );
}

#[test]
fn scrubbed_training_is_serial_parallel_bitwise() {
    let data = SyntheticMnist::builder()
        .train(64)
        .test(32)
        .seed(23)
        .build();
    let run = |serial: bool| {
        xbar_tensor::backend::force_serial(serial);
        let mut net = make_net(31);
        let hist = train(
            &mut net,
            data.train.as_split(),
            Some(data.test.as_split()),
            &scrub_cfg(3),
        )
        .unwrap();
        xbar_tensor::backend::force_serial(false);
        (hist, persist::collect_state(&mut net))
    };
    let (h1, s1) = run(true);
    let (h2, s2) = run(false);
    assert_eq!(h1, h2, "history diverged between serial and pooled scrub");
    assert_eq!(s1, s2, "state diverged between serial and pooled scrub");
}

#[test]
fn resumed_training_through_a_repair_epoch_is_bitwise() {
    let dir = tmp_dir("resume");
    let data = SyntheticMnist::builder()
        .train(96)
        .test(32)
        .seed(29)
        .build();

    // Reference: 4 epochs straight through (scrubbing every epoch).
    let mut full_net = make_net(31);
    let full_hist = train(
        &mut full_net,
        data.train.as_split(),
        Some(data.test.as_split()),
        &scrub_cfg(4),
    )
    .unwrap();

    // "Crashed" run: killed right after the epoch-2 checkpoint — by which
    // point the fault process has already forced detections and repairs
    // (see scrub_cycle_detects_and_repairs_at_this_scale) — then a fresh
    // process resumes from disk and runs to 4.
    let ckpt_cfg = |epochs| TrainConfig {
        checkpoint_every: 2,
        checkpoint_dir: Some(dir.clone()),
        ..scrub_cfg(epochs)
    };
    let mut crashed = make_net(31);
    train(
        &mut crashed,
        data.train.as_split(),
        Some(data.test.as_split()),
        &ckpt_cfg(2),
    )
    .unwrap();
    drop(crashed); // the in-memory net (and its served array) dies here

    let mut resumed = make_net(31);
    let resumed_hist = train(
        &mut resumed,
        data.train.as_split(),
        Some(data.test.as_split()),
        &ckpt_cfg(4),
    )
    .unwrap();

    assert_eq!(full_hist, resumed_hist, "history diverged across resume");
    assert_eq!(
        persist::collect_state(&mut full_net),
        persist::collect_state(&mut resumed),
        "health/shift/weight state diverged across resume"
    );
}
