//! The benchmark's own instrumentation: a counting allocator with
//! per-thread counters, an in-memory span recorder, and [`Traced`], a
//! delegating [`Layer`] wrapper that times every trait method on every
//! lane that calls it.
//!
//! Nothing here lives in the library. Spans are recorded only while
//! [`set_recording`] is on; when it is off a wrapped call costs one
//! relaxed atomic load beyond the call itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use xbar_nn::{Layer, MappedParam, NnError, QuantReadout, StateVisitor};
use xbar_tensor::rng::XorShiftRng;
use xbar_tensor::Tensor;

// ---------------------------------------------------------------------------
// Allocation counting
// ---------------------------------------------------------------------------

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator that counts allocator entries process-wide and per
/// thread (reallocations count as entries; frees do not).
pub struct CountingAlloc;

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch only atomics and a const-initialised
// thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Process-wide `(allocations, bytes)` since start.
pub fn allocs() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Clock and marks
// ---------------------------------------------------------------------------

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A point on the op timeline: when, and the process allocation
/// counters at that moment.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// [`now_ns`] reading.
    pub t: u64,
    /// Process allocation count.
    pub allocs: u64,
    /// Process allocated bytes.
    pub bytes: u64,
}

impl Mark {
    /// Reads the clock and the allocation counters.
    pub fn now() -> Self {
        let (allocs, bytes) = allocs();
        Self {
            t: now_ns(),
            allocs,
            bytes,
        }
    }
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------

/// What a span covers: one of the 15 [`Layer`] methods, or a library
/// entry point called by the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Describe,
    CloneBox,
    Forward,
    Calibrate,
    ForwardQuantized,
    Backward,
    Update,
    ZeroGrad,
    NumParams,
    VisitMapped,
    VisitGrads,
    VisitGradSegments,
    VisitForwardRngs,
    VisitBatchStats,
    VisitState,
    /// `xbar_nn::evaluate`.
    Evaluate,
    /// `xbar_nn::calibrate`.
    CalibrateEntry,
    /// `xbar_nn::scrub_network`.
    Scrub,
}

impl Kind {
    /// Whether the span is one of the wrapper's trait-method spans (as
    /// opposed to an entry-point span that encloses them).
    pub fn is_method(self) -> bool {
        !matches!(self, Kind::Evaluate | Kind::CalibrateEntry | Kind::Scrub)
    }
}

/// Which part of a run a span or step belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    Setup = 0,
    Timed = 1,
    Probe = 2,
}

/// One recorded span, on whichever lane (thread) made the call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub phase: Phase,
    pub t0: u64,
    pub t1: u64,
    /// Allocations made by this span's own thread inside the span.
    pub allocs: u64,
}

/// One SGD step: the interval between the end of the previous `update`
/// (or the `train` call start) and the end of this one.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub phase: Phase,
    pub start: Mark,
    pub end: Mark,
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static PHASE: AtomicU8 = AtomicU8::new(Phase::Setup as u8);

struct Log {
    spans: Vec<Span>,
    steps: Vec<Step>,
}

fn log() -> &'static Mutex<Log> {
    static LOG: OnceLock<Mutex<Log>> = OnceLock::new();
    LOG.get_or_init(|| {
        Mutex::new(Log {
            spans: Vec::new(),
            steps: Vec::new(),
        })
    })
}

fn phase() -> Phase {
    match PHASE.load(Ordering::Relaxed) {
        0 => Phase::Setup,
        1 => Phase::Timed,
        _ => Phase::Probe,
    }
}

/// Turns span recording on (in `phase`) or off. Turning it on reserves
/// log space up front so recording does not allocate in the measured
/// intervals.
pub fn set_recording(on: bool, phase: Phase) {
    if on {
        let mut log = log().lock().expect("trace log lock");
        log.spans.reserve(1 << 16);
        log.steps.reserve(1 << 12);
    }
    PHASE.store(phase as u8, Ordering::Relaxed);
    RECORDING.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Runs `f`, recording it as a `kind` span when recording is on.
#[inline]
pub fn span<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    if !RECORDING.load(Ordering::Relaxed) {
        return f();
    }
    let a0 = thread_allocs();
    let t0 = now_ns();
    let r = f();
    let t1 = now_ns();
    let allocs = thread_allocs() - a0;
    let s = Span {
        kind,
        phase: phase(),
        t0,
        t1,
        allocs,
    };
    log().lock().expect("trace log lock").spans.push(s);
    r
}

/// Takes every span and step recorded so far.
pub fn drain() -> (Vec<Span>, Vec<Step>) {
    let mut log = log().lock().expect("trace log lock");
    (
        std::mem::take(&mut log.spans),
        std::mem::take(&mut log.steps),
    )
}

// ---------------------------------------------------------------------------
// The delegating wrapper
// ---------------------------------------------------------------------------

/// A [`Layer`] that delegates all 15 trait methods to `inner`, timing
/// each call as a span. Between [`Traced::begin`] and [`Traced::finish`]
/// it also marks the end of every `update`, which is how a `train`
/// call's steps are timed: the library calls `update` on the network it
/// was given only, never on the data-parallel replicas it clones.
pub struct Traced<L> {
    pub inner: L,
    /// Step boundaries: the `begin` mark, then one per `update`.
    marks: Vec<Mark>,
}

impl<L: Layer + Clone + 'static> Traced<L> {
    pub fn new(inner: L) -> Self {
        Self {
            inner,
            marks: Vec::new(),
        }
    }

    /// Starts a new mark sequence (call right before `train`).
    pub fn begin(&mut self) {
        self.marks.clear();
        self.marks.reserve(4096);
        self.marks.push(Mark::now());
    }

    /// Files the steps of the last `train` call with the span log (when
    /// recording) and returns the step boundaries.
    pub fn finish(&mut self) -> Vec<Mark> {
        let marks = std::mem::take(&mut self.marks);
        if recording() {
            let ph = phase();
            let mut log = log().lock().expect("trace log lock");
            for w in marks.windows(2) {
                log.steps.push(Step {
                    phase: ph,
                    start: w[0],
                    end: w[1],
                });
            }
        }
        marks
    }
}

impl<L: Layer + Clone + 'static> Layer for Traced<L> {
    fn describe(&self) -> String {
        span(Kind::Describe, || self.inner.describe())
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        span(Kind::CloneBox, || Box::new(Traced::new(self.inner.clone())))
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError> {
        span(Kind::Forward, || self.inner.forward(x, train))
    }

    fn calibrate(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        span(Kind::Calibrate, || self.inner.calibrate(x))
    }

    fn forward_quantized(&mut self, x: &Tensor, mode: &QuantReadout) -> Result<Tensor, NnError> {
        span(Kind::ForwardQuantized, || {
            self.inner.forward_quantized(x, mode)
        })
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        span(Kind::Backward, || self.inner.backward(grad))
    }

    fn update(&mut self, lr: f32) {
        span(Kind::Update, || self.inner.update(lr));
        if !self.marks.is_empty() {
            self.marks.push(Mark::now());
        }
    }

    fn zero_grad(&mut self) {
        span(Kind::ZeroGrad, || self.inner.zero_grad())
    }

    fn num_params(&self) -> usize {
        span(Kind::NumParams, || self.inner.num_params())
    }

    fn visit_mapped(&mut self, visit: &mut dyn FnMut(&mut MappedParam)) {
        span(Kind::VisitMapped, || self.inner.visit_mapped(visit))
    }

    fn visit_grads(&mut self, visit: &mut dyn FnMut(&mut Tensor)) {
        span(Kind::VisitGrads, || self.inner.visit_grads(visit))
    }

    fn visit_grad_segments(&mut self, visit: &mut dyn FnMut(usize)) {
        span(Kind::VisitGradSegments, || {
            self.inner.visit_grad_segments(visit)
        })
    }

    fn visit_forward_rngs(&mut self, visit: &mut dyn FnMut(&mut XorShiftRng)) {
        span(Kind::VisitForwardRngs, || {
            self.inner.visit_forward_rngs(visit)
        })
    }

    fn visit_batch_stats(&mut self, visit: &mut dyn FnMut(&mut Tensor)) {
        span(Kind::VisitBatchStats, || {
            self.inner.visit_batch_stats(visit)
        })
    }

    fn visit_state(&mut self, prefix: &str, visitor: &mut dyn StateVisitor) {
        span(Kind::VisitState, || self.inner.visit_state(prefix, visitor))
    }
}
