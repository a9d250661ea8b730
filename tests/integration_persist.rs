//! Persistence integration: checkpoint codec round-trips, corruption
//! detection, and the headline crash-safety property — a training run
//! killed at epoch k and resumed from its checkpoint reproduces the
//! uninterrupted run bitwise (History and final weights).

use std::fs;
use std::path::PathBuf;

use xbar_core::{Mapping, RepairPolicy};
use xbar_data::SyntheticMnist;
use xbar_device::{DeviceConfig, LifetimeFaultModel, TileShape};
use xbar_nn::persist::{self, PersistError, StateItem, KIND_MODEL, KIND_TENSOR, KIND_TRAIN, MAGIC};
use xbar_nn::{
    scrub_network, train, BatchNorm2d, Conv2d, Dense, Dropout, Flatten, Relu, Sequential,
    TrainConfig, WeightKind,
};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::Tensor;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xbar-persist-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small net exercising every kind of persistent state: mapped conv and
/// dense weights (with their stochastic-update RNGs), batch-norm running
/// statistics, and a dropout mask RNG.
fn make_net(seed: u64) -> Sequential {
    let device = DeviceConfig::quantized_linear(4);
    let kind = WeightKind::Mapped(Mapping::Acm);
    let mut rng = XorShiftRng::new(seed);
    let mut net = Sequential::new();
    net.push(Conv2d::new(1, 4, 3, 2, 1, kind, device, &mut rng).unwrap());
    net.push(BatchNorm2d::new(4));
    net.push(Relu::new());
    net.push(Flatten::new());
    net.push(Dense::new(256, 16, kind, device, &mut rng).unwrap());
    net.push(Relu::new());
    net.push(Dropout::new(0.2, seed ^ 0xD0));
    net.push(Dense::new(16, 10, kind, device, &mut rng).unwrap());
    net
}

fn train_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 16,
        lr: 0.08,
        lr_decay: 0.9,
        seed: 0xC4A5,
        verbose: false,
        ..TrainConfig::default()
    }
}

#[test]
fn tensor_round_trip_is_bitwise_and_leaves_no_temp_file() {
    let dir = tmp_dir("tensor");
    let path = dir.join("t.bin");
    let mut rng = XorShiftRng::new(7);
    let t = Tensor::rand_uniform(&[3, 5, 2], -2.0, 2.0, &mut rng);
    persist::save_tensor(&path, &t).unwrap();
    let back = persist::load_tensor(&path).unwrap();
    assert_eq!(t, back);
    // Atomic write must not leave its temporary file behind.
    let stray: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(stray.is_empty(), "stray temp files: {stray:?}");
}

#[test]
fn model_round_trip_restores_every_state_item() {
    let dir = tmp_dir("model");
    let path = dir.join("model.bin");
    let data = SyntheticMnist::builder()
        .train(80)
        .test(20)
        .seed(11)
        .build();

    // Train briefly so running stats, update RNGs, and dropout RNG all
    // move off their initial values.
    let mut net = make_net(3);
    train(&mut net, data.train.as_split(), None, &train_cfg(1)).unwrap();
    persist::save_model(&path, &mut net).unwrap();

    let mut fresh = make_net(999); // different seed: different initial state
    assert_ne!(
        persist::collect_state(&mut net),
        persist::collect_state(&mut fresh)
    );
    persist::load_model(&path, &mut fresh).unwrap();
    assert_eq!(
        persist::collect_state(&mut net),
        persist::collect_state(&mut fresh)
    );
}

#[test]
fn corrupted_files_are_rejected_with_typed_errors() {
    let dir = tmp_dir("corrupt");
    let path = dir.join("t.bin");
    let mut rng = XorShiftRng::new(9);
    let t = Tensor::rand_uniform(&[16, 16], -1.0, 1.0, &mut rng);
    persist::save_tensor(&path, &t).unwrap();
    let good = fs::read(&path).unwrap();

    // Truncation: cut the file mid-payload.
    fs::write(&path, &good[..good.len() / 2]).unwrap();
    match persist::load_tensor(&path) {
        Err(PersistError::Truncated { .. }) => {}
        other => panic!("truncated file: expected Truncated, got {other:?}"),
    }

    // Bit flip inside the payload: header parses, checksum must not.
    let mut flipped = good.clone();
    let payload_start = good.len() - 4; // flip within trailing payload bytes
    flipped[payload_start] ^= 0x10;
    fs::write(&path, &flipped).unwrap();
    match persist::load_tensor(&path) {
        Err(PersistError::ChecksumMismatch { .. }) => {}
        other => panic!("bit flip: expected ChecksumMismatch, got {other:?}"),
    }

    // Foreign file: wrong magic.
    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xFF;
    fs::write(&path, &bad_magic).unwrap();
    match persist::load_tensor(&path) {
        Err(PersistError::BadMagic) => {}
        other => panic!("bad magic: expected BadMagic, got {other:?}"),
    }

    // Future format version.
    let mut bad_version = good.clone();
    bad_version[MAGIC.len()] = 0xFE;
    fs::write(&path, &bad_version).unwrap();
    match persist::load_tensor(&path) {
        Err(PersistError::UnsupportedVersion(_)) => {}
        other => panic!("bad version: expected UnsupportedVersion, got {other:?}"),
    }

    // Right container, wrong kind: a tensor file is not a model file.
    fs::write(&path, &good).unwrap();
    let mut net = make_net(1);
    match persist::load_model(&path, &mut net) {
        Err(PersistError::WrongKind { expected, found }) => {
            assert_eq!((expected, found), (KIND_MODEL, KIND_TENSOR));
        }
        other => panic!("wrong kind: expected WrongKind, got {other:?}"),
    }
    let _ = (KIND_TRAIN,); // all three kinds are part of the public contract
}

#[test]
fn architecture_mismatch_is_rejected_and_leaves_net_untouched() {
    let dir = tmp_dir("mismatch");
    let path = dir.join("model.bin");
    let mut net = make_net(5);
    persist::save_model(&path, &mut net).unwrap();

    // A different architecture: one mapped dense layer, nothing else.
    let device = DeviceConfig::quantized_linear(4);
    let mut rng = XorShiftRng::new(77);
    let mut other = Sequential::new();
    other.push(Flatten::new());
    other.push(Dense::new(256, 10, WeightKind::Mapped(Mapping::Acm), device, &mut rng).unwrap());

    let before = persist::collect_state(&mut other);
    match persist::load_model(&path, &mut other) {
        Err(PersistError::StateMismatch(_)) => {}
        other => panic!("expected StateMismatch, got {other:?}"),
    }
    // Validation failed before application: the net must be unchanged.
    assert_eq!(before, persist::collect_state(&mut other));
}

#[test]
fn corrupt_perm_or_health_tensors_are_rejected_before_applying() {
    // Contents a valid CRC cannot vouch for: a snapshot edited in memory
    // must fail validation with a typed error and leave the net untouched.
    let device = DeviceConfig::quantized_linear(4)
        .with_tile_shape(Some(TileShape::new(8, 8)))
        .with_lifetime_faults(LifetimeFaultModel::new(0.01, 3).unwrap());
    let mut rng = XorShiftRng::new(31);
    let mut net = Sequential::new();
    net.push(Dense::new(20, 12, WeightKind::Mapped(Mapping::Perm), device, &mut rng).unwrap());
    scrub_network(&mut net, true, &RepairPolicy::default()).unwrap();
    let snapshot = persist::collect_state(&mut net);
    let corrupt = |suffix: &str, edit: &dyn Fn(&mut [f32])| {
        let mut items = snapshot.clone();
        let item = items.iter_mut().find(|i| i.name().ends_with(suffix));
        let Some(StateItem::Tensor { value, .. }) = item else {
            panic!("no {suffix} tensor in the snapshot");
        };
        edit(value.data_mut());
        items
    };
    let duplicated_index = corrupt("perm", &|p| p[1] = p[0]);
    let bad_health_code = corrupt("scrub_health", &|h| h[0] = 9.0);
    for (suffix, items) in [
        ("perm", duplicated_index),
        ("scrub_health", bad_health_code),
    ] {
        match persist::restore_state(&mut net, &items) {
            Err(PersistError::StateMismatch(msg)) => assert!(msg.contains(suffix), "{msg}"),
            other => panic!("{suffix}: expected StateMismatch, got {other:?}"),
        }
        assert_eq!(snapshot, persist::collect_state(&mut net), "{suffix}");
    }
}

#[test]
fn checkpoint_round_trip_is_exact() {
    let dir = tmp_dir("ckpt");
    let path = dir.join("train.ckpt");
    let data = SyntheticMnist::builder()
        .train(60)
        .test(20)
        .seed(13)
        .build();
    let mut net = make_net(2);
    let hist = train(
        &mut net,
        data.train.as_split(),
        Some(data.test.as_split()),
        &train_cfg(2),
    )
    .unwrap();

    let mut rng = XorShiftRng::new(0xFEED);
    rng.normal(); // leave a Box–Muller spare pending so it must round-trip
    let ckpt = persist::TrainCheckpoint {
        epochs_done: 2,
        lr: 0.0648,
        shards: 3,
        rng: rng.save_state(),
        order: vec![5, 3, 0, 1, 4, 2],
        history: hist.epochs().to_vec(),
        model: persist::collect_state(&mut net),
    };
    persist::save_checkpoint(&path, &ckpt).unwrap();
    assert_eq!(ckpt, persist::load_checkpoint(&path).unwrap());
}

#[test]
fn resumed_training_matches_uninterrupted_run_bitwise() {
    let dir = tmp_dir("resume");
    let data = SyntheticMnist::builder()
        .train(120)
        .test(40)
        .seed(17)
        .build();

    // Reference: 5 epochs straight through, no checkpointing.
    let mut full_net = make_net(21);
    let full_hist = train(
        &mut full_net,
        data.train.as_split(),
        Some(data.test.as_split()),
        &train_cfg(5),
    )
    .unwrap();

    // "Crashed" run: identical net trained 2 epochs with checkpointing on
    // — the process dies here — then a fresh process resumes from the
    // checkpoint directory and runs to 5.
    let ckpt_cfg = |epochs| TrainConfig {
        checkpoint_every: 2,
        checkpoint_dir: Some(dir.clone()),
        ..train_cfg(epochs)
    };
    let mut crashed = make_net(21);
    train(
        &mut crashed,
        data.train.as_split(),
        Some(data.test.as_split()),
        &ckpt_cfg(2),
    )
    .unwrap();
    drop(crashed); // the in-memory net is lost with the crash

    let mut resumed = make_net(21);
    let resumed_hist = train(
        &mut resumed,
        data.train.as_split(),
        Some(data.test.as_split()),
        &ckpt_cfg(5),
    )
    .unwrap();

    assert_eq!(full_hist, resumed_hist, "history diverged across resume");
    assert_eq!(
        persist::collect_state(&mut full_net),
        persist::collect_state(&mut resumed),
        "weights/RNG state diverged across resume"
    );
}

#[test]
fn resume_with_wrong_dataset_size_is_rejected() {
    let dir = tmp_dir("wrongsize");
    let data = SyntheticMnist::builder()
        .train(60)
        .test(20)
        .seed(19)
        .build();
    let cfg = TrainConfig {
        checkpoint_every: 1,
        checkpoint_dir: Some(dir.clone()),
        ..train_cfg(1)
    };
    let mut net = make_net(4);
    train(&mut net, data.train.as_split(), None, &cfg).unwrap();

    // Same checkpoint dir, different training-set size: the persisted
    // shuffle order no longer applies and must be rejected, not misused.
    let other = SyntheticMnist::builder()
        .train(80)
        .test(20)
        .seed(19)
        .build();
    let mut net2 = make_net(4);
    let err = train(&mut net2, other.train.as_split(), None, &cfg).unwrap_err();
    assert!(
        matches!(
            err,
            xbar_nn::NnError::Persist(PersistError::StateMismatch(_))
        ),
        "expected StateMismatch, got {err:?}"
    );
}
