//! The four workloads. Each is driven from outside the library through
//! public calls only, and is organised in *rounds*: a round starts from
//! a fixed state captured at set-up, runs a fixed list of ops, and so
//! ends in the same state and with the same op results every time. That
//! makes every round after the first a bitwise check of the first, and
//! makes the end state — hence `accuracy_pct` and the state digest —
//! depend on the seed only, never on how many rounds the time budget
//! allowed.
//!
//! Every network is pre-trained at set-up, at the library's default
//! learning rate, until it is well above chance on every seed, so a
//! change that stops learning shows as a large drop in `accuracy_pct`.

use xbar_bench::experiments::{
    run_variation_cell_parasitic, ModelType, NetKind, Parasitics, Setup, VariationPoint, DEFAULT_NU,
};
use xbar_core::{Mapping, RepairPolicy, ScrubReport};
use xbar_data::{Dataset, DatasetPair, SyntheticMnist};
use xbar_device::{AdcSpec, DeviceConfig, LifetimeFaultModel, TileShape};
use xbar_models::{mlp2, ModelConfig};
use xbar_nn::persist::{collect_state, crc32, restore_state, StateItem};
use xbar_nn::{
    calibrate, evaluate, evaluate_quantized, scrub_network, train, Layer, QuantReadout, Sequential,
    TrainConfig,
};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::Tensor;

use crate::trace::{span, timed, Kind, Mark, Traced};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "train_resnet20",
    "infer_variation_lenet",
    "infer_int8_mlp",
    "scrub_lifetime_lenet",
];

/// Independently seeded ResNet-20 runs of `train_resnet20`.
const RESNET_RUNS: usize = 6;
/// Training steps per run and round (one epoch of this many 32-sample
/// batches).
const RESNET_STEPS: usize = 32;
/// Epochs of pre-training per run; a round trains the next epoch.
const RESNET_PRETRAIN_EPOCHS: usize = 1;
/// Rows of the batches the per-layer probes run on.
const PROBE_ROWS: usize = 64;
/// Training samples of every LeNet, and epochs of the variation nets
/// and of the scrubbed chip.
const LENET_TRAIN: usize = 2048;
const VAR_EPOCHS: usize = 4;
const SCRUB_TRAIN_EPOCHS: usize = 6;
/// Test images each Monte-Carlo chip is scored on.
const VAR_TEST: usize = 128;
/// Monte-Carlo chips per mapping per sweep cell (one per lane).
const VAR_SAMPLES: usize = 2;
/// Cells of the (σ, r_line, t_drift) grid; one round visits each once.
const VAR_GRID: usize = 8;
const VAR_BITS: u8 = 4;
const MLP_TRAIN: usize = 2048;
const MLP_EPOCHS: usize = 2;
const MLP_BATCH: usize = 64;
/// `evaluate_quantized` batches per `infer_int8_mlp` round.
const MLP_BATCHES: usize = 8;
/// Batches of the int8-vs-fp32 check set; the timed batches come first.
/// On 2048 images the lossless-ADC gap is known to about 0.2 points, so
/// a 1-point limit does not trip on the images drawn.
const MLP_CHECK_BATCHES: usize = 32;
const MLP_ADC_BITS: u8 = 12;
/// Test images the aged chip is scored on at the end of a round.
const LENET_TEST: usize = 512;
/// Scrub epochs per `scrub_lifetime_lenet` round.
const SCRUB_EPOCHS: usize = 20;
/// Lifetime wear-out rate (new stuck cells per cell per scrub epoch).
const WEAR_RATE: f32 = 0.001;

/// Wall-clock costs of the set-up stages, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub synth_ms: f64,
    pub build_ms: f64,
    pub pretrain_ms: f64,
}

/// What one round produced.
pub struct RoundOut {
    /// One digest per op; the last one also covers the end state.
    pub digests: Vec<u64>,
    /// Items each op processed.
    pub items: Vec<usize>,
    /// A failed round-level check (finite loss, int8 vs fp32, fallback
    /// parity). Every op of such a round counts as failed.
    pub check: Result<(), String>,
}

/// A workload after set-up.
pub trait Workload {
    /// Runs one round from the set-up state, pushing the start and the
    /// end of every op onto `marks`.
    fn round(&mut self, marks: &mut Vec<Mark>) -> Result<RoundOut, String>;

    /// Runs the first op of a round from the set-up state and returns its
    /// digest: the reference that a forced-serial run must reproduce.
    fn reference_op(&mut self) -> Result<u64, String>;

    /// Simulated accuracy (%) of the last round; fixed by the seed.
    fn accuracy_pct(&mut self) -> Result<f64, String>;

    /// A copy of the workload's network for the per-layer probes.
    fn probe_net(&self) -> Sequential;

    /// One batch of the workload's own test inputs and labels.
    fn probe_batch(&self) -> (Tensor, Vec<usize>);

    /// Workload-specific exact counts of the last round, by metric name.
    fn counts(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Builds workload `name` from `seed`, recording stage times in `t`.
pub fn setup(name: &str, seed: u64, t: &mut SetupTimes) -> Result<Box<dyn Workload>, String> {
    match name {
        "train_resnet20" => Ok(Box::new(TrainResnet::new(seed, t)?)),
        "infer_variation_lenet" => Ok(Box::new(VariationLenet::new(seed, t)?)),
        "infer_int8_mlp" => Ok(Box::new(Int8Mlp::new(seed, t)?)),
        "scrub_lifetime_lenet" => Ok(Box::new(ScrubLenet::new(seed, t)?)),
        _ => Err(format!("unknown workload {name:?}")),
    }
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Bitwise fingerprint of op results and network state: the values'
/// bytes, checksummed with the persist codec's CRC-32.
pub struct Digest(Vec<u8>);

impl Digest {
    pub fn new() -> Self {
        Self(Vec::new())
    }

    pub fn word(self, w: u64) -> Self {
        self.bytes(&w.to_le_bytes())
    }

    pub fn f32(self, v: f32) -> Self {
        self.bytes(&v.to_bits().to_le_bytes())
    }

    pub fn bytes(mut self, b: &[u8]) -> Self {
        self.0.extend_from_slice(b);
        self
    }

    pub fn finish(self) -> u64 {
        u64::from(crc32(&self.0))
    }
}

/// Digest of every persistent state component of `net`
/// (`persist::collect_state`): names, shapes, values and RNG streams.
pub fn state_digest(net: &mut dyn Layer) -> u64 {
    let mut d = Digest::new();
    for item in collect_state(net) {
        d = d.bytes(item.name().as_bytes());
        match item {
            StateItem::Tensor { value, .. } => {
                for &s in value.shape() {
                    d = d.word(s as u64);
                }
                for &v in value.data() {
                    d = d.f32(v);
                }
            }
            StateItem::Rng { value, .. } => {
                d = d.word(value.state).word(
                    value
                        .spare_normal
                        .map_or(u64::MAX, |v| u64::from(v.to_bits())),
                );
            }
        }
    }
    d.finish()
}

/// Training schedule of every workload: the experiment set-up's rate
/// and decay, `epochs` epochs per `train` call and two data-parallel
/// shards (pinned, so the weights do not depend on the lane count).
fn train_config(setup: &Setup, epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        shards: Some(2),
        ..setup.train_config()
    }
}

/// Trains `net` through `train`, adding the call's time to `ms`.
fn pretrain(
    net: &mut Traced<Sequential>,
    data: &Dataset,
    cfg: &TrainConfig,
    ms: &mut f64,
) -> Result<(), String> {
    let (h, t) = timed(|| {
        net.begin();
        let h = train(net, data.as_split(), None, cfg);
        net.finish();
        h
    });
    *ms += t;
    h.map(drop).map_err(err)
}

fn test_accuracy(net: &mut dyn Layer, data: &Dataset, batch: usize) -> Result<f32, String> {
    let (_, acc) = span(Kind::Evaluate, || {
        evaluate(net, data.features(), data.labels(), batch)
    })
    .map_err(err)?;
    Ok(acc)
}

fn first_rows(data: &Dataset, n: usize) -> (Tensor, Vec<usize>) {
    let d = data.truncated(n);
    (d.features().clone(), d.labels().to_vec())
}

/// Maps the benchmark seed to the experiment seed the library uses for
/// data synthesis, initialisation and shuffling.
fn setup_for(net: NetKind, seed: u64) -> Setup {
    Setup {
        seed: 0xDAC_2020 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..Setup::new(net)
    }
}

// ---------------------------------------------------------------------------
// train_resnet20
// ---------------------------------------------------------------------------

/// ResNet-20 (Small) on synthetic CIFAR, ACM mapping on a 4-bit
/// nonlinear device (ν = 5) with 128×128 tiles, batch 32, two shards.
/// One op is one SGD step. A round trains each of [`RESNET_RUNS`]
/// independently seeded runs for one `train` epoch, continuing from its
/// pre-trained state.
///
/// `accuracy_pct` is the runs' mean running training accuracy over the
/// round. On this device the test accuracy after the last step swings by
/// tens of points between steps, and one run's accuracy at a given step
/// count varies by about a sixth between seeds; the mean over the runs
/// divides that variance by their number.
struct TrainResnet {
    runs: Vec<ResnetRun>,
    first_batch: Dataset,
    last_acc: Option<f64>,
}

struct ResnetRun {
    net: Traced<Sequential>,
    start: Vec<StateItem>,
    data: DatasetPair,
    cfg: TrainConfig,
}

impl TrainResnet {
    fn new(seed: u64, t: &mut SetupTimes) -> Result<Self, String> {
        let mut runs = Vec::with_capacity(RESNET_RUNS);
        for k in 0..RESNET_RUNS {
            let run_seed = seed.wrapping_mul(RESNET_RUNS as u64).wrapping_add(k as u64);
            let mut s = setup_for(NetKind::Resnet20, run_seed);
            s.train_n = RESNET_STEPS * s.batch;
            s.test_n = PROBE_ROWS;
            let (data, ms) = timed(|| s.data());
            t.synth_ms += ms;
            let device = DeviceConfig::quantized_nonlinear(4, DEFAULT_NU)
                .with_tile_shape(Some(TileShape::new(128, 128)));
            let (net, ms) = timed(|| s.build(ModelType::Mapped(Mapping::Acm), device));
            t.build_ms += ms;
            let mut net = Traced::new(net.map_err(err)?);
            let pre = train_config(&s, RESNET_PRETRAIN_EPOCHS);
            pretrain(&mut net, &data.train, &pre, &mut t.pretrain_ms)?;
            // Every round continues training from the pre-trained state.
            let start = collect_state(&mut net.inner);
            runs.push(ResnetRun {
                net,
                start,
                data,
                cfg: train_config(&s, 1),
            });
        }
        let first_batch = runs[0].data.train.truncated(runs[0].cfg.batch_size);
        Ok(Self {
            runs,
            first_batch,
            last_acc: None,
        })
    }
}

impl Workload for TrainResnet {
    fn round(&mut self, marks: &mut Vec<Mark>) -> Result<RoundOut, String> {
        let mut out = RoundOut {
            digests: Vec::new(),
            items: Vec::new(),
            check: Ok(()),
        };
        let mut acc_sum = 0.0;
        for run in &mut self.runs {
            restore_state(&mut run.net.inner, &run.start).map_err(err)?;
            run.net.begin();
            let h = train(&mut run.net, run.data.train.as_split(), None, &run.cfg);
            let m = run.net.finish();
            let h = h.map_err(err)?;
            for step in m.windows(2) {
                marks.extend(step);
            }
            let steps = m.len() - 1;
            let (loss, acc) = h
                .last()
                .map_or((f32::NAN, 0.0), |e| (e.train_loss, e.train_acc));
            acc_sum += f64::from(acc);
            if !loss.is_finite() {
                out.check = Err(format!("training loss is {loss}"));
            }
            out.digests.extend(std::iter::repeat_n(0, steps - 1));
            out.digests.push(
                Digest::new()
                    .f32(loss)
                    .f32(acc)
                    .word(state_digest(&mut run.net.inner))
                    .finish(),
            );
            out.items
                .extend(std::iter::repeat_n(run.cfg.batch_size, steps));
        }
        self.last_acc = Some(100.0 * acc_sum / self.runs.len() as f64);
        Ok(out)
    }

    fn reference_op(&mut self) -> Result<u64, String> {
        let run = &mut self.runs[0];
        restore_state(&mut run.net.inner, &run.start).map_err(err)?;
        run.net.begin();
        let h = train(&mut run.net, self.first_batch.as_split(), None, &run.cfg);
        run.net.finish();
        let loss = h.map_err(err)?.last().map_or(f32::NAN, |e| e.train_loss);
        Ok(Digest::new()
            .f32(loss)
            .word(state_digest(&mut run.net.inner))
            .finish())
    }

    fn accuracy_pct(&mut self) -> Result<f64, String> {
        self.last_acc.ok_or_else(|| "no round has run".into())
    }

    fn probe_net(&self) -> Sequential {
        self.runs[0].net.inner.clone()
    }

    fn probe_batch(&self) -> (Tensor, Vec<usize>) {
        first_rows(&self.runs[0].data.test, PROBE_ROWS)
    }
}

// ---------------------------------------------------------------------------
// infer_variation_lenet
// ---------------------------------------------------------------------------

/// Fig. 6 Monte-Carlo inference: LeNet (Small) trained once per mapping
/// (ACM, DE, BC, Perm) at 4 bits; one op is one sweep cell through
/// `run_variation_cell_parasitic` with both parasitic axes on.
struct VariationLenet {
    setup: Setup,
    nets: Vec<Sequential>,
    data: DatasetPair,
    grid: Vec<(f32, Parasitics)>,
    last: Vec<VariationPoint>,
}

impl VariationLenet {
    fn new(seed: u64, t: &mut SetupTimes) -> Result<Self, String> {
        let mut s = setup_for(NetKind::Lenet, seed);
        s.train_n = LENET_TRAIN;
        s.test_n = VAR_TEST;
        let (data, ms) = timed(|| s.data());
        t.synth_ms += ms;
        let device = DeviceConfig::quantized_linear(VAR_BITS);
        let cfg = train_config(&s, VAR_EPOCHS);
        let mut nets = Vec::new();
        for model in ModelType::MAPPED {
            let (net, ms) = timed(|| s.build(model, device));
            t.build_ms += ms;
            let mut net = Traced::new(net.map_err(err)?);
            pretrain(&mut net, &data.train, &cfg, &mut t.pretrain_ms)?;
            nets.push(net.inner);
        }
        // A Latin-hypercube grid drawn from the seed: each axis is cut
        // into `VAR_GRID` strata and every stratum is visited once, so
        // the grid covers the same ranges on every seed. σ in [1%, 6%]
        // of the conductance range, line resistance in [0.01%, 0.05%]
        // of R_on, drift read time in [2, 100).
        let mut rng = XorShiftRng::new(s.seed ^ 0x6121D);
        let mut stratum = |i: usize| (i as f32 + rng.next_f32()) / VAR_GRID as f32;
        let grid = (0..VAR_GRID)
            .map(|i| {
                let sigma = 0.01 + 0.05 * stratum(i);
                let r_line = 0.0001 + 0.0004 * stratum(i * 3 % VAR_GRID);
                let t_drift = 2 + (stratum(i * 5 % VAR_GRID) * 98.0) as u32;
                (sigma, Parasitics { r_line, t_drift })
            })
            .collect();
        Ok(Self {
            setup: s,
            nets,
            data,
            grid,
            last: Vec::new(),
        })
    }

    fn cell(&self, i: usize) -> Result<VariationPoint, String> {
        let (sigma, par) = self.grid[i];
        run_variation_cell_parasitic(
            &self.setup,
            &self.nets,
            VAR_BITS,
            sigma,
            par,
            VAR_SAMPLES,
            &self.data,
        )
        .map_err(err)
    }

    fn items_per_cell(&self) -> usize {
        self.nets.len() * VAR_SAMPLES * self.data.test.len()
    }
}

fn point_digest(p: &VariationPoint) -> u64 {
    Digest::new()
        .word(u64::from(p.bits))
        .f32(p.sigma)
        .f32(p.r_line)
        .word(u64::from(p.t_drift))
        .f32(p.acm)
        .f32(p.de)
        .f32(p.bc)
        .f32(p.perm)
        .finish()
}

impl Workload for VariationLenet {
    fn round(&mut self, marks: &mut Vec<Mark>) -> Result<RoundOut, String> {
        let mut points = Vec::with_capacity(self.grid.len());
        for i in 0..self.grid.len() {
            let start = Mark::now();
            points.push(self.cell(i)?);
            marks.extend([start, Mark::now()]);
        }
        let digests = points.iter().map(point_digest).collect();
        self.last = points;
        Ok(RoundOut {
            digests,
            items: vec![self.items_per_cell(); self.grid.len()],
            check: Ok(()),
        })
    }

    fn reference_op(&mut self) -> Result<u64, String> {
        self.cell(0).map(|p| point_digest(&p))
    }

    /// Accuracy averaged over the round's cells and the four mappings.
    fn accuracy_pct(&mut self) -> Result<f64, String> {
        if self.last.is_empty() {
            return Err("no round has run".into());
        }
        let n = (self.last.len() * Mapping::ALL.len()) as f64;
        let acc: f64 = self
            .last
            .iter()
            .flat_map(|p| Mapping::ALL.map(|m| f64::from(p.accuracy(m))))
            .sum();
        Ok(acc / n)
    }

    fn probe_net(&self) -> Sequential {
        self.nets[0].clone()
    }

    fn probe_batch(&self) -> (Tensor, Vec<usize>) {
        first_rows(&self.data.test, PROBE_ROWS)
    }
}

// ---------------------------------------------------------------------------
// infer_int8_mlp
// ---------------------------------------------------------------------------

/// The only path through the integer readout: `mlp2` 256-512-10, ACM on
/// a 6-bit device with 128×128 tiles, calibrated, then scored through
/// `evaluate_quantized` with 7-bit activations and a 12-bit column ADC.
/// One op is one 64-image batch.
///
/// The 12-bit ADC saturates at a quarter of the worst-case column sum
/// (`xbar_device::adc::OVERRANGE_BITS`) at any width below 20 bits here,
/// and that clipping costs up to about a point of accuracy on some seeds.
/// So the 1-point int8-vs-fp32 check runs the same integer readout with
/// the lossless ADC, as the repository's own quantized parity gate does;
/// the timed 12-bit path is checked bitwise from round to round.
struct Int8Mlp {
    net: Traced<Sequential>,
    batches: Vec<(Tensor, Vec<usize>)>,
    /// Lossless-ADC int8 against fp32 on the check set, fixed at set-up.
    check: Result<(), String>,
    mode: QuantReadout,
    last_acc: Option<f64>,
}

/// The readout every int8 measurement uses: 7-bit activations (the
/// widest exact setting), the calibrated range, a 12-bit column ADC.
pub fn int8_mode() -> QuantReadout {
    QuantReadout {
        act_bits: 7,
        act_range: None,
        adc: AdcSpec::new(MLP_ADC_BITS),
    }
}

impl Int8Mlp {
    fn new(seed: u64, t: &mut SetupTimes) -> Result<Self, String> {
        // The LeNet set-up carries the synthetic-MNIST seeds and schedule.
        let s = setup_for(NetKind::Lenet, seed);
        let (data, ms) = timed(|| {
            SyntheticMnist::builder()
                .train(MLP_TRAIN)
                .test(MLP_CHECK_BATCHES * MLP_BATCH)
                .seed(s.seed ^ 0x111)
                .build()
        });
        t.synth_ms += ms;
        let device =
            DeviceConfig::quantized_linear(6).with_tile_shape(Some(TileShape::new(128, 128)));
        let cfg = ModelConfig::mapped(Mapping::Acm, device).with_seed(s.seed ^ 0x333);
        let (net, ms) = timed(|| mlp2(256, 512, 10, &cfg));
        t.build_ms += ms;
        let mut net = Traced::new(net.map_err(err)?);
        pretrain(
            &mut net,
            &data.train,
            &train_config(&s, MLP_EPOCHS),
            &mut t.pretrain_ms,
        )?;
        span(Kind::CalibrateEntry, || {
            calibrate(&mut net, data.train.features(), MLP_BATCH)
        })
        .map_err(err)?;
        let sample = 256;
        let x = data.test.features().data();
        let lossless = QuantReadout {
            adc: AdcSpec::lossless(),
            ..int8_mode()
        };
        let mut batches = Vec::with_capacity(MLP_CHECK_BATCHES);
        let (mut fp32_wrong, mut int8_wrong) = (0.0, 0.0);
        for b in 0..MLP_CHECK_BATCHES {
            let rows = b * MLP_BATCH..(b + 1) * MLP_BATCH;
            let xb = Tensor::from_vec(
                x[rows.start * sample..rows.end * sample].to_vec(),
                &[MLP_BATCH, 1, 16, 16],
            )
            .map_err(err)?;
            let yb = data.test.labels()[rows].to_vec();
            let (_, acc) =
                span(Kind::Evaluate, || evaluate(&mut net, &xb, &yb, MLP_BATCH)).map_err(err)?;
            fp32_wrong += f64::from(1.0 - acc) * MLP_BATCH as f64;
            let (_, acc) =
                evaluate_quantized(&mut net, &xb, &yb, MLP_BATCH, &lossless).map_err(err)?;
            int8_wrong += f64::from(1.0 - acc) * MLP_BATCH as f64;
            batches.push((xb, yb));
        }
        batches.truncate(MLP_BATCHES);
        let n = (MLP_CHECK_BATCHES * MLP_BATCH) as f64;
        let (int8, fp32) = (100.0 * int8_wrong / n, 100.0 * fp32_wrong / n);
        let check = if (int8 - fp32).abs() <= 1.0 {
            Ok(())
        } else {
            Err(format!(
                "lossless-ADC int8 error {int8:.3}% is more than 1 point from fp32 {fp32:.3}%"
            ))
        };
        Ok(Self {
            net,
            batches,
            check,
            mode: int8_mode(),
            last_acc: None,
        })
    }

    fn op(&mut self, b: usize) -> Result<(u64, f64), String> {
        let (xb, yb) = &self.batches[b];
        let (loss, acc) =
            evaluate_quantized(&mut self.net, xb, yb, MLP_BATCH, &self.mode).map_err(err)?;
        let digest = Digest::new().f32(loss).f32(acc).finish();
        Ok((digest, f64::from(1.0 - acc) * yb.len() as f64))
    }
}

impl Workload for Int8Mlp {
    fn round(&mut self, marks: &mut Vec<Mark>) -> Result<RoundOut, String> {
        let mut digests = Vec::with_capacity(self.batches.len());
        let mut wrong = 0.0;
        for b in 0..self.batches.len() {
            let start = Mark::now();
            let (d, w) = self.op(b)?;
            marks.extend([start, Mark::now()]);
            digests.push(d);
            wrong += w;
        }
        let n = (self.batches.len() * MLP_BATCH) as f64;
        self.last_acc = Some(100.0 - 100.0 * wrong / n);
        let last = digests.last_mut().expect("at least one batch");
        *last = Digest::new()
            .word(*last)
            .word(state_digest(&mut self.net.inner))
            .finish();
        Ok(RoundOut {
            digests,
            items: vec![MLP_BATCH; self.batches.len()],
            check: self.check.clone(),
        })
    }

    fn reference_op(&mut self) -> Result<u64, String> {
        self.op(0).map(|(d, _)| d)
    }

    fn accuracy_pct(&mut self) -> Result<f64, String> {
        self.last_acc.ok_or_else(|| "no round has run".into())
    }

    fn probe_net(&self) -> Sequential {
        self.net.inner.clone()
    }

    fn probe_batch(&self) -> (Tensor, Vec<usize>) {
        self.batches[0].clone()
    }
}

// ---------------------------------------------------------------------------
// scrub_lifetime_lenet
// ---------------------------------------------------------------------------

/// Self-healing lifetime study: LeNet (Small), ACM at 4 bits on 8×8
/// tiles, cells wearing out every scrub epoch. One op is one scrub epoch
/// (`scrub_network` with detection on); one round ages a fresh copy of
/// the trained chip for `SCRUB_EPOCHS` epochs and then scores it with
/// `evaluate`, outside the ops, so op time is scrub time.
struct ScrubLenet {
    net: Traced<Sequential>,
    fresh: Sequential,
    data: DatasetPair,
    batch: usize,
    policy: RepairPolicy,
    /// Totals of the last complete round (`epochs == 0` before one ran).
    totals: ScrubTotals,
}

#[derive(Debug, Clone, Copy, Default)]
struct ScrubTotals {
    epochs: usize,
    /// Test accuracy of the chip at the end of the round.
    accuracy: f32,
    detections: usize,
    repairs: usize,
    healed: usize,
    quarantined: usize,
    analog_coverage: f32,
    exhausted: usize,
}

fn report_digest(r: &ScrubReport) -> u64 {
    let mut d = Digest::new()
        .word(u64::from(r.epoch))
        .word(r.new_faults as u64)
        .word(r.detections as u64)
        .word(r.quarantined_now as u64)
        .word(r.quarantined_total as u64)
        .word(r.analog_tiles as u64)
        .word(r.total_tiles as u64)
        .word(r.exhausted_cells as u64);
    for a in &r.repairs {
        d = d
            .word(u64::from(a.epoch))
            .word(a.tile as u64)
            .bytes(format!("{:?}", a.stage).as_bytes())
            .f32(a.residual_before)
            .f32(a.residual_after)
            .word(u64::from(a.healed));
    }
    d.finish()
}

impl ScrubLenet {
    fn new(seed: u64, t: &mut SetupTimes) -> Result<Self, String> {
        let mut s = setup_for(NetKind::Lenet, seed);
        s.train_n = LENET_TRAIN;
        s.test_n = LENET_TEST;
        let (data, ms) = timed(|| s.data());
        t.synth_ms += ms;
        let lifetime = LifetimeFaultModel::new(WEAR_RATE, s.seed ^ 0x777).map_err(err)?;
        let device = DeviceConfig::quantized_linear(4)
            .with_tile_shape(Some(TileShape::new(8, 8)))
            .with_lifetime_faults(lifetime);
        let (net, ms) = timed(|| s.build(ModelType::Mapped(Mapping::Acm), device));
        t.build_ms += ms;
        let mut net = Traced::new(net.map_err(err)?);
        pretrain(
            &mut net,
            &data.train,
            &train_config(&s, SCRUB_TRAIN_EPOCHS),
            &mut t.pretrain_ms,
        )?;
        let fresh = net.inner.clone();
        Ok(Self {
            net,
            fresh,
            data,
            batch: s.batch,
            policy: RepairPolicy::default(),
            totals: ScrubTotals::default(),
        })
    }

    fn op(&mut self, totals: &mut ScrubTotals) -> Result<(u64, usize), String> {
        let rep = span(Kind::Scrub, || {
            scrub_network(&mut self.net, true, &self.policy)
        })
        .map_err(err)?
        .ok_or("the network has no scrub-capable parameters")?;
        totals.detections += rep.detections;
        totals.repairs += rep.repairs.len();
        totals.healed += rep.repairs.iter().filter(|a| a.healed).count();
        totals.quarantined = rep.quarantined_total;
        totals.analog_coverage = rep.analog_coverage();
        totals.exhausted += rep.exhausted_cells;
        totals.epochs += 1;
        Ok((report_digest(&rep), rep.total_tiles))
    }
}

impl Workload for ScrubLenet {
    fn round(&mut self, marks: &mut Vec<Mark>) -> Result<RoundOut, String> {
        self.net.inner = self.fresh.clone();
        let mut totals = ScrubTotals::default();
        let mut digests = Vec::with_capacity(SCRUB_EPOCHS);
        let mut items = Vec::with_capacity(SCRUB_EPOCHS);
        for _ in 0..SCRUB_EPOCHS {
            let start = Mark::now();
            let (d, tiles) = self.op(&mut totals)?;
            marks.extend([start, Mark::now()]);
            digests.push(d);
            items.push(tiles);
        }
        totals.accuracy = test_accuracy(&mut self.net, &self.data.test, self.batch)?;
        self.totals = totals;
        let mut parity = true;
        self.net
            .inner
            .visit_mapped(&mut |p| parity &= p.scrub_fallback_parity());
        let last = digests.last_mut().expect("at least one epoch");
        *last = Digest::new()
            .word(*last)
            .f32(totals.accuracy)
            .word(state_digest(&mut self.net.inner))
            .finish();
        let check = if parity {
            Ok(())
        } else {
            Err("a quarantined tile does not serve its fault-free conductances".into())
        };
        Ok(RoundOut {
            digests,
            items,
            check,
        })
    }

    fn reference_op(&mut self) -> Result<u64, String> {
        self.net.inner = self.fresh.clone();
        self.op(&mut ScrubTotals::default()).map(|(d, _)| d)
    }

    /// Test accuracy of the chip at the end of its scrubbed lifetime.
    fn accuracy_pct(&mut self) -> Result<f64, String> {
        let t = self.totals;
        if t.epochs == 0 {
            return Err("no round has run".into());
        }
        Ok(100.0 * f64::from(t.accuracy))
    }

    fn probe_net(&self) -> Sequential {
        self.net.inner.clone()
    }

    fn probe_batch(&self) -> (Tensor, Vec<usize>) {
        first_rows(&self.data.test, PROBE_ROWS)
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        let t = self.totals;
        vec![
            ("core.scrub_detections", t.detections as f64),
            ("core.scrub_repairs", t.repairs as f64),
            (
                "core.repair_heal_frac",
                if t.repairs == 0 {
                    0.0
                } else {
                    t.healed as f64 / t.repairs as f64
                },
            ),
            ("core.quarantined_tiles", t.quarantined as f64),
            ("core.analog_coverage", f64::from(t.analog_coverage)),
            ("core.exhausted_cells", t.exhausted as f64),
        ]
    }
}
