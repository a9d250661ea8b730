//! End-to-end benchmark of the acm-xbar workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload (see `workloads.rs`) on two lanes
//! (`XBAR_THREADS=2`):
//!
//! 1. Set-up (data synthesis, model build, pre-training, calibration and
//!    one warm-up op) runs three times, each against a fresh temporary
//!    autotune cache; `setup_s` is the median.
//! 2. The reference op runs [`REF_REPS`] times under `force_serial(true)`
//!    and as often pooled; every run must agree bitwise.
//! 3. Rounds run until `--seconds` have passed and at least 100 ops were
//!    timed. Every round must reproduce the first round's op digests
//!    bitwise and pass the workload's own check.
//!
//! With `--trace 0` the last stdout line is a JSON object with the
//! end-to-end metrics. With `--trace 1` the timed phase is split: half
//! untraced, half with span recording on (the digests of both halves
//! must agree, which is the trace-fidelity check), followed by per-layer
//! probes; the JSON then carries the per-layer metrics.

mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use xbar_bench::experiments::drift_model;
use xbar_core::RepairPolicy;
use xbar_device::LineResistanceModel;
use xbar_nn::{calibrate, evaluate, evaluate_quantized, scrub_network, Layer, QuantReadout};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::{backend, linalg, scratch, tune, Tensor};

use trace::{span, timed, Kind, Phase, Span, Step, Traced};
use workloads::{SetupTimes, Workload};

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Minimum timed ops per phase, so p90 has ten samples beyond it.
const MIN_OPS: usize = 100;
/// Repetitions of each direct per-layer probe; the median is reported.
const PROBE_REPS: usize = 5;
/// Serial and pooled runs of the reference op each.
const REF_REPS: usize = 3;
/// Lane count every run uses.
const THREADS: &str = "2";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            workloads::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // Before the first library call: the pool is sized on first use.
    std::env::set_var("XBAR_THREADS", THREADS);
    let tmp = match TempDir::new() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "e2ebench: workload {} seed {} lanes {} of {} cores, simd {}",
        args.workload,
        args.seed,
        backend::threads(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        xbar_tensor::simd_active()
    );
    let result = run(&args, &tmp.0);
    drop(tmp);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// A scratch directory under the working directory for the per-set-up
/// autotune caches, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Result<Self, String> {
        let dir = std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(".e2ebench_tmp")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Timings and counts of one timed phase.
#[derive(Default)]
struct PhaseStats {
    op_ns: Vec<u64>,
    items: u64,
    allocs: u64,
    cpu_ns: u64,
    wall_ns: u64,
    attempted: u64,
    failed: u64,
    accuracy_pct: f64,
}

impl PhaseStats {
    /// Items per second of op time. A mean, not a median of per-round
    /// rates: on a host whose speed flips between two levels every few
    /// tens of milliseconds, short rounds are bimodal and their median
    /// jumps between the levels.
    fn items_per_s(&self) -> f64 {
        self.items as f64 / (self.op_ns.iter().sum::<u64>() as f64 * 1e-9)
    }

    fn quantile_ms(&self, q: f64) -> f64 {
        let mut v = self.op_ns.clone();
        v.sort_unstable();
        let i = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1;
        v[i] as f64 * 1e-6
    }
}

fn run(args: &Args, tmp: &Path) -> Result<String, String> {
    // 1. Set-up, repeated against fresh tune caches.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut stage_times: Vec<SetupTimes> = Vec::with_capacity(SETUP_REPS);
    let mut winners: Vec<BTreeMap<String, (String, f64)>> = Vec::with_capacity(SETUP_REPS);
    let mut w: Option<Box<dyn Workload>> = None;
    for rep in 0..SETUP_REPS {
        drop(w.take());
        let cache = tmp.join(format!("tune{rep}.json"));
        tune::reload_from(Some(&cache), true).map_err(|e| e.to_string())?;
        let last = rep + 1 == SETUP_REPS;
        if args.trace && last {
            trace::set_recording(true, Phase::Setup);
        }
        let mut times = SetupTimes::default();
        let t0 = Instant::now();
        let mut built = workloads::setup(&args.workload, args.seed, &mut times)?;
        // Warm-up op: tunes every GEMM shape the ops use and fills the
        // scratch pools, so the timed phase starts warm.
        built.reference_op()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        trace::set_recording(false, Phase::Setup);
        stage_times.push(times);
        winners.push(read_tune_cache(&cache)?);
        w = Some(built);
    }
    let mut w = w.expect("at least one set-up");

    // 2. Serial reference ops against pooled ones.
    let mut reference_runs = |serial: bool| -> Result<(Vec<u64>, f64), String> {
        backend::force_serial(serial);
        let runs: Vec<(Result<u64, String>, f64)> =
            (0..REF_REPS).map(|_| timed(|| w.reference_op())).collect();
        backend::force_serial(false);
        let ms = median(runs.iter().map(|r| r.1));
        let digests = runs.into_iter().map(|r| r.0).collect::<Result<_, _>>()?;
        Ok((digests, ms))
    };
    let (serial, serial_ms) = reference_runs(true)?;
    let (pooled, pooled_ms) = reference_runs(false)?;
    let mut attempted = (2 * REF_REPS) as u64;
    let mut failed = serial
        .iter()
        .chain(&pooled)
        .filter(|&&d| d != serial[0])
        .count() as u64;
    if failed > 0 {
        eprintln!(
            "check failed: {failed} forced-serial or pooled reference ops differ from the first"
        );
    }

    // 3. Timed rounds.
    let mut reference = None;
    let end_accuracy = |w: &mut dyn Workload, st: &mut PhaseStats| match w.accuracy_pct() {
        Ok(a) => st.accuracy_pct = a,
        Err(e) => {
            eprintln!("op failed: {e}");
            st.attempted += 1;
            st.failed += 1;
            st.accuracy_pct = f64::NAN;
        }
    };
    let scratch0 = scratch::stats();
    let (base, traced) = if args.trace {
        let mut base = run_phase(w.as_mut(), args.seconds / 2.0, &mut reference);
        end_accuracy(w.as_mut(), &mut base);
        trace::set_recording(true, Phase::Timed);
        let mut traced = run_phase(w.as_mut(), args.seconds / 2.0, &mut reference);
        trace::set_recording(false, Phase::Timed);
        end_accuracy(w.as_mut(), &mut traced);
        (base, Some(traced))
    } else {
        let mut base = run_phase(w.as_mut(), args.seconds, &mut reference);
        end_accuracy(w.as_mut(), &mut base);
        (base, None)
    };
    let scratch1 = scratch::stats();
    attempted += base.attempted;
    failed += base.failed;
    if let Some(t) = &traced {
        attempted += t.attempted;
        failed += t.failed;
        if t.accuracy_pct.to_bits() != base.accuracy_pct.to_bits() {
            eprintln!(
                "check failed: traced accuracy {} differs from untraced {}",
                t.accuracy_pct, base.accuracy_pct
            );
            failed += 1;
        }
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push((name.to_string(), value, unit));
    };
    if let Some(traced) = traced {
        // 4. Per-layer probes on a copy of the workload's network.
        trace::set_recording(true, Phase::Probe);
        let probe = probe(w.as_ref(), args.seed)?;
        trace::set_recording(false, Phase::Probe);
        let (spans, steps) = trace::drain();
        let lanes = backend::threads() as f64;

        step_metrics(&spans, &steps, &mut put);
        // Median call time in the timed phase, or in the probes when
        // the workload's ops never make that call.
        let per_call = |kind: Kind| {
            let of = |phase| {
                spans
                    .iter()
                    .filter(move |s| s.kind == kind && s.phase == phase)
                    .map(|s| (s.t1 - s.t0) as f64 * 1e-6)
            };
            if of(Phase::Timed).next().is_some() {
                median(of(Phase::Timed))
            } else {
                median(of(Phase::Probe))
            }
        };
        put(
            "nn.forward_quantized_ms",
            per_call(Kind::ForwardQuantized),
            "ms",
        );
        put("nn.calibrate_ms", per_call(Kind::CalibrateEntry), "ms");
        put("nn.evaluate_ms", per_call(Kind::Evaluate), "ms");
        put("nn.scrub_ms", per_call(Kind::Scrub), "ms");
        put(
            "nn.pretrain_ms",
            median(stage_times.iter().map(|t| t.pretrain_ms)),
            "ms",
        );
        put(
            "data.synth_ms",
            median(stage_times.iter().map(|t| t.synth_ms)),
            "ms",
        );
        put(
            "models.build_ms",
            median(stage_times.iter().map(|t| t.build_ms)),
            "ms",
        );
        put("device.apply_variation_ms", probe.apply_variation_ms, "ms");
        put(
            "device.apply_parasitics_ms",
            probe.apply_parasitics_ms,
            "ms",
        );
        put("nn.clone_ms", probe.clone_ms, "ms");
        put("core.readout_int8_ms", probe.readout_int8_ms, "ms");
        put("core.readout_fp32_ms", probe.readout_fp32_ms, "ms");
        put(
            "core.readout_int8_over_fp32",
            probe.readout_int8_ms / probe.readout_fp32_ms,
            "x",
        );
        let lookups = (scratch1.hits - scratch0.hits) + (scratch1.misses - scratch0.misses);
        put(
            "scratch.hit_rate",
            (scratch1.hits - scratch0.hits) as f64 / lookups.max(1) as f64,
            "frac",
        );
        put(
            "scratch.cached_mb",
            scratch1.cached_bytes as f64 / MIB,
            "MiB",
        );
        // The tail of the untraced half. Kept out of the end-to-end set:
        // CPU steal on a shared host widens it by up to half in some runs,
        // more than any bound could absorb.
        put("op_p90_ms", base.quantile_ms(0.9), "ms");
        put("sched.speedup_vs_serial", serial_ms / pooled_ms, "x");
        put(
            "sched.busy_frac",
            base.cpu_ns as f64 / (lanes * base.wall_ns as f64),
            "frac",
        );
        let last = winners.last().expect("at least one set-up");
        put("dispatch.tuned_shapes", last.len() as f64, "count");
        put(
            "dispatch.tune_ms",
            last.values().map(|(_, ms)| ms).sum(),
            "ms",
        );
        let first = &winners[0];
        let flips = last
            .iter()
            .filter(|(k, (r, _))| first.get(*k).is_some_and(|(r0, _)| r0 != r))
            .count();
        put("dispatch.winner_flips", flips as f64, "count");
        let counts: BTreeMap<&str, f64> = w.counts().into_iter().collect();
        for name in [
            "core.scrub_detections",
            "core.scrub_repairs",
            "core.repair_heal_frac",
            "core.quarantined_tiles",
            "core.analog_coverage",
            "core.exhausted_cells",
        ] {
            let unit = if name.ends_with("_frac") || name.ends_with("_coverage") {
                "frac"
            } else {
                "count"
            };
            put(name, counts.get(name).copied().unwrap_or(0.0), unit);
        }
        put(
            "trace.overhead_ratio",
            traced.items_per_s() / base.items_per_s(),
            "x",
        );
        put("failed_frac", failed as f64 / attempted as f64, "frac");
    } else {
        put("setup_s", median(setup_s.iter().copied()), "s");
        put("items_per_s", base.items_per_s(), "1/s");
        put("op_p50_ms", base.quantile_ms(0.5), "ms");
        put("peak_rss_mb", peak_rss_bytes()? as f64 / MIB, "MiB");
        put(
            "allocs_per_item",
            base.allocs as f64 / base.items as f64,
            "count",
        );
        put("accuracy_pct", base.accuracy_pct, "%");
    }
    Ok(result_json(attempted, failed, &metrics))
}

const MIB: f64 = 1024.0 * 1024.0;

/// Runs rounds for at least `secs` seconds and [`MIN_OPS`] ops. The
/// first round ever run (`reference`) fixes the digests every later
/// round must reproduce.
fn run_phase(w: &mut dyn Workload, secs: f64, reference: &mut Option<Vec<u64>>) -> PhaseStats {
    let mut st = PhaseStats::default();
    let mut marks = Vec::with_capacity(1 << 14);
    let cpu0 = cpu_ns();
    let t0 = Instant::now();
    loop {
        marks.clear();
        let out = match w.round(&mut marks) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("op failed: {e}");
                st.attempted += 1;
                st.failed += 1;
                break;
            }
        };
        for (op, &items) in marks.chunks_exact(2).zip(&out.items) {
            st.op_ns.push(op[1].t - op[0].t);
            st.allocs += op[1].allocs - op[0].allocs;
            st.items += items as u64;
        }
        let n = out.digests.len() as u64;
        st.attempted += n;
        let mismatched = match reference.as_ref() {
            None => {
                *reference = Some(out.digests.clone());
                0
            }
            Some(r) if r.len() != out.digests.len() || r.last() != out.digests.last() => n,
            Some(r) => r.iter().zip(&out.digests).filter(|(a, b)| a != b).count() as u64,
        };
        if mismatched > 0 {
            eprintln!("check failed: {mismatched} ops differ from the first round");
        }
        if let Err(e) = &out.check {
            eprintln!("check failed: {e}");
        }
        st.failed += if out.check.is_err() { n } else { mismatched };
        if t0.elapsed().as_secs_f64() >= secs && st.op_ns.len() >= MIN_OPS {
            break;
        }
    }
    st.wall_ns = t0.elapsed().as_nanos() as u64;
    st.cpu_ns = cpu_ns().saturating_sub(cpu0);
    st
}

/// Per-SGD-step breakdown from the wrapper spans. Steps of the timed
/// phase are used when it trains; otherwise the set-up's pre-training
/// steps. Method spans are summed over lanes; `nn.step_self_ms` is the
/// part of a step's wall time that no span on any lane covers.
fn step_metrics(spans: &[Span], steps: &[Step], put: &mut impl FnMut(&str, f64, &'static str)) {
    let timed: Vec<&Step> = steps.iter().filter(|s| s.phase == Phase::Timed).collect();
    let chosen: Vec<&Step> = if timed.is_empty() {
        steps.iter().filter(|s| s.phase == Phase::Setup).collect()
    } else {
        timed
    };
    let mut methods: Vec<&Span> = spans.iter().filter(|s| s.kind.is_method()).collect();
    methods.sort_by_key(|s| s.t0);
    // The first four groups also get an `alloc.*_per_op` reading; the
    // allocations of every other span count as `alloc.other_per_op`.
    let groups = [
        ("forward", Kind::Forward),
        ("backward", Kind::Backward),
        ("update", Kind::Update),
        ("broadcast", Kind::VisitState),
        ("grad_copy", Kind::VisitGrads),
    ];
    let mut ms = [0.0f64; 6];
    let mut allocs = [0u64; 6];
    let (mut wall, mut uncovered, mut other_allocs, mut bytes) = (0.0, 0.0, 0.0, 0.0);
    for step in &chosen {
        let (a, b) = (step.start.t, step.end.t);
        let first = methods.partition_point(|s| s.t0 < a);
        let inside: Vec<&&Span> = methods[first..]
            .iter()
            .take_while(|s| s.t0 < b)
            .filter(|s| s.t1 <= b)
            .collect();
        let mut named_allocs = 0u64;
        for s in &inside {
            let g = groups
                .iter()
                .position(|&(_, k)| k == s.kind)
                .unwrap_or(groups.len());
            ms[g] += (s.t1 - s.t0) as f64 * 1e-6;
            allocs[g] += s.allocs;
            if g < 4 {
                named_allocs += s.allocs;
            }
        }
        // Union of the span intervals (sorted by start).
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for s in &inside {
            match cur {
                Some((lo, hi)) if s.t0 <= hi => cur = Some((lo, hi.max(s.t1))),
                Some((lo, hi)) => {
                    covered += hi - lo;
                    cur = Some((s.t0, s.t1));
                }
                None => cur = Some((s.t0, s.t1)),
            }
        }
        if let Some((lo, hi)) = cur {
            covered += hi - lo;
        }
        wall += (b - a) as f64 * 1e-6;
        uncovered += (b - a).saturating_sub(covered) as f64 * 1e-6;
        let step_allocs = step.end.allocs - step.start.allocs;
        other_allocs += step_allocs.saturating_sub(named_allocs) as f64;
        bytes += (step.end.bytes - step.start.bytes) as f64;
    }
    let n = chosen.len().max(1) as f64;
    for (i, (name, _)) in groups.iter().enumerate() {
        put(&format!("nn.{name}_ms"), ms[i] / n, "ms");
    }
    put("nn.misc_ms", ms[groups.len()] / n, "ms");
    put("nn.step_wall_ms", wall / n, "ms");
    put("nn.step_self_ms", uncovered / n, "ms");
    put("nn.steps", chosen.len() as f64, "count");
    for (i, (name, _)) in groups[..4].iter().enumerate() {
        put(
            &format!("alloc.{name}_per_op"),
            allocs[i] as f64 / n,
            "count",
        );
    }
    put("alloc.other_per_op", other_allocs / n, "count");
    put("alloc.bytes_per_op", bytes / n, "B");
}

/// Direct per-layer timings, each the median of [`PROBE_REPS`] calls.
struct Probe {
    apply_variation_ms: f64,
    apply_parasitics_ms: f64,
    clone_ms: f64,
    readout_int8_ms: f64,
    readout_fp32_ms: f64,
}

fn probe(w: &dyn Workload, seed: u64) -> Result<Probe, String> {
    let net = w.probe_net();
    let (x, y) = w.probe_batch();
    let rows = y.len();
    let err = |e: xbar_nn::NnError| e.to_string();

    // Library entry points on a wrapped copy, so every per-call metric
    // is measured on every workload.
    let mut wrapped = Traced::new(net.clone());
    for _ in 0..PROBE_REPS {
        span(Kind::CalibrateEntry, || calibrate(&mut wrapped, &x, rows)).map_err(err)?;
        span(Kind::Evaluate, || evaluate(&mut wrapped, &x, &y, rows)).map_err(err)?;
        evaluate_quantized(&mut wrapped, &x, &y, rows, &workloads::int8_mode()).map_err(err)?;
        span(Kind::Scrub, || {
            scrub_network(&mut wrapped, true, &RepairPolicy::default())
        })
        .map_err(err)?;
    }

    // Direct calls through `visit_mapped` on the workload's parameters.
    let line = LineResistanceModel::new(0.002);
    let drift = drift_model(seed, 0, 1000);
    let mut rng = XorShiftRng::new(seed ^ 0x9A0BE);
    let mut chip = net.clone();
    let (mut var, mut par, mut cln) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        cln.push(timed(|| drop(std::hint::black_box(net.clone()))).1);
        var.push(
            timed(|| {
                chip.visit_mapped(&mut |p| p.apply_variation(0.05, &mut rng));
            })
            .1,
        );
        let mut res = Ok(());
        par.push(
            timed(|| {
                chip.visit_mapped(&mut |p| {
                    if let Err(e) = p.apply_parasitics(line, drift) {
                        res = Err(e);
                    }
                });
            })
            .1,
        );
        res.map_err(err)?;
        chip.visit_mapped(&mut |p| p.clear_variation());
    }

    // Readout of every mapped parameter on a 64-row activation batch in
    // [0, 1): the integer ADC-exact path against the fp32 matmul.
    let mode = QuantReadout {
        act_range: Some((0.0, 1.0)),
        ..workloads::int8_mode()
    };
    let mut acts = Vec::new();
    chip.visit_mapped(&mut |p| {
        acts.push(Tensor::rand_uniform(&[64, p.n_in()], 0.0, 1.0, &mut rng));
    });
    let (mut q, mut f) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        let mut res: Result<(), String> = Ok(());
        let mut i = 0;
        q.push(
            timed(|| {
                chip.visit_mapped(&mut |p| {
                    match p.forward_quantized(&acts[i], &mode) {
                        Ok(y) => drop(std::hint::black_box(y)),
                        Err(e) => res = Err(e.to_string()),
                    }
                    i += 1;
                });
            })
            .1,
        );
        let mut i = 0;
        f.push(
            timed(|| {
                chip.visit_mapped(&mut |p| {
                    let y = match p.effective_weights_ref() {
                        Some(wt) => linalg::matmul_nt(&acts[i], wt),
                        None => linalg::matmul_nt(&acts[i], &p.effective_weights()),
                    };
                    match y {
                        Ok(y) => drop(std::hint::black_box(y)),
                        Err(e) => res = Err(e.to_string()),
                    }
                    i += 1;
                });
            })
            .1,
        );
        res?;
    }
    Ok(Probe {
        apply_variation_ms: median(var.into_iter()),
        apply_parasitics_ms: median(par.into_iter()),
        clone_ms: median(cln.into_iter()),
        readout_int8_ms: median(q.into_iter()),
        readout_fp32_ms: median(f.into_iter()),
    })
}

fn median(v: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = v.collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Winning routine and tune cost per shape key of a tune-cache file.
fn read_tune_cache(path: &Path) -> Result<BTreeMap<String, (String, f64)>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let doc = xbar_tensor::json::Json::parse(&text)?;
    let mut out = BTreeMap::new();
    for e in doc.get("entries").and_then(|e| e.as_arr()).unwrap_or(&[]) {
        let key = e.get("key").and_then(|v| v.as_str());
        let routine = e.get("routine").and_then(|v| v.as_str());
        let ms = e.get("tune_ms").and_then(|v| v.as_f64());
        if let (Some(k), Some(r), Some(ms)) = (key, routine, ms) {
            out.insert(k.to_string(), (r.to_string(), ms));
        }
    }
    Ok(out)
}

/// CPU time of every thread of this process, in nanoseconds.
fn cpu_ns() -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// The process's resident-set high-water mark.
fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

fn result_json(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}
