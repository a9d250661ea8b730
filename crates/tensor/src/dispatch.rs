//! Autotuned GEMM kernel dispatch: routine registry, per-shape selector,
//! and the glue to the persistent tune cache ([`crate::tune`]).
//!
//! Every matmul variant enters through `dispatch`, which picks one of
//! the registered [`Routine`]s for the problem shape. Selection happens
//! in three tiers:
//!
//! 1. **Class split** — sub-threshold problems (`n < NR/2` or fewer than
//!    `SMALL_MACS` multiply-adds) always run the streaming small kernels.
//!    This boundary is a fixed function of the problem size and is *not*
//!    tunable: the small kernels accumulate in a different order than the
//!    blocked family, so crossing it would change bits.
//! 2. **Tune cache** — blocked problems look up their [`ShapeClass`] key
//!    (transpose kind, pow2-bucketed dims, thread count, SIMD flag) in
//!    the in-memory cache seeded from `XBAR_TUNE_CACHE`. A miss measures
//!    every candidate routine on synthetic data of the same size and
//!    records the winner (persisted when a cache path is set).
//! 3. **Static table** — with `XBAR_AUTOTUNE=0`, or when the cache file
//!    failed to load (typed error, never a panic), a heuristic table
//!    picks the routine instead.
//!
//! **Determinism.** Autotuning changes *which* routine runs, never the
//! result. All blocked-family routines are bitwise-identical to each
//! other because three knobs they vary are bitwise-invariant:
//!
//! * *packing strategy* is pure data movement — per-chunk panels, a
//!   shared per-KC-block buffer, an explicit A-transpose, or reading A
//!   in place through a runtime stride all feed the micro-kernel the
//!   same values in the same order;
//! * *row-chunk granularity* regroups rows across pool jobs, and every
//!   output element's dot product accumulates row-locally;
//! * *register-tile height* (`MRT`) regroups rows within a chunk; per
//!   element the depth loop is one sequential FMA chain regardless.
//!
//! The serial≡parallel contract is likewise preserved: chunk boundaries
//! depend only on the problem size, and the selector key includes the
//! thread count only so a host tunes per configuration — within one
//! process, serial and parallel runs resolve to the same key, and even a
//! different routine choice could not change bits.

use crate::gemm::{
    microkernel, pack_a, pack_b, simd_active, small_nn, small_nt, small_tn, KC, MC, MR, NR,
    SMALL_MACS,
};
use crate::{backend, scratch, tune};
use std::time::Instant;

/// Register-tile height used by the wide blocked routines: 12 of the 16
/// AVX2 `ymm` registers hold accumulators (vs 8 at the reference
/// `MR = 4`), trading register pressure for FMA-port utilisation.
const WIDE_MR: usize = 6;

/// Transpose kind of a GEMM problem. `TT` does not exist in this
/// workspace (no matmul variant produces it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `C += A · B`
    Nn,
    /// `C += Aᵀ · B` (weight-gradient shape)
    Tn,
    /// `C += A · Bᵀ` (input-gradient shape)
    Nt,
}

impl Kind {
    /// Short tag used in shape-class keys: `"nn"` / `"tn"` / `"nt"`.
    pub fn tag(&self) -> &'static str {
        match self {
            Kind::Nn => "nn",
            Kind::Tn => "tn",
            Kind::Nt => "nt",
        }
    }
}

/// One GEMM problem: logical dims `op(A): (m, k)`, `op(B): (k, n)` plus
/// the operand transpose flags.
#[derive(Debug, Clone, Copy)]
pub struct Problem {
    /// A is stored `(k, m)` row-major and used transposed.
    pub trans_a: bool,
    /// B is stored `(n, k)` row-major and used transposed.
    pub trans_b: bool,
    /// Output rows.
    pub m: usize,
    /// Depth (dot-product length).
    pub k: usize,
    /// Output columns.
    pub n: usize,
}

impl Problem {
    /// Builds a problem description.
    pub fn new(trans_a: bool, trans_b: bool, m: usize, k: usize, n: usize) -> Self {
        Self {
            trans_a,
            trans_b,
            m,
            k,
            n,
        }
    }

    /// The transpose kind.
    pub fn kind(&self) -> Kind {
        match (self.trans_a, self.trans_b) {
            (false, false) => Kind::Nn,
            (true, false) => Kind::Tn,
            (false, true) => Kind::Nt,
            (true, true) => unreachable!("no TT matmul variant exists"),
        }
    }

    /// Total multiply-adds.
    pub fn macs(&self) -> usize {
        self.m * self.k * self.n
    }

    /// Whether this problem belongs to the small (streaming-kernel)
    /// class. Fixed function of the problem size — part of the numeric
    /// contract, never tuned.
    pub fn small(&self) -> bool {
        self.n < NR / 2 || self.macs() < SMALL_MACS
    }
}

/// A named GEMM routine. All routines compute `C += op(A) · op(B)`;
/// routines supporting the same problem are bitwise-identical on it
/// (asserted by `tests/integration_dispatch.rs`).
pub trait Routine: Sync {
    /// Stable registry name (appears in tune-cache files and bench JSON).
    fn name(&self) -> &'static str;
    /// Whether this routine can run `p`. Supports-sets never cross the
    /// small/blocked class boundary.
    fn supports(&self, p: &Problem) -> bool;
    /// Runs the routine. `od` is the row-major `m × n` accumulator.
    fn run(&self, p: &Problem, ad: &[f32], bd: &[f32], od: &mut [f32]);
}

/// Streaming single-chunk kernel for sub-threshold NN/TN problems; runs
/// inline with no packing or pool dispatch.
struct SingleChunk;

impl Routine for SingleChunk {
    fn name(&self) -> &'static str {
        "single_chunk"
    }
    fn supports(&self, p: &Problem) -> bool {
        p.small() && p.kind() != Kind::Nt
    }
    fn run(&self, p: &Problem, ad: &[f32], bd: &[f32], od: &mut [f32]) {
        match p.kind() {
            Kind::Nn => small_nn(ad, bd, od, p.m, p.k, p.n),
            Kind::Tn => small_tn(ad, bd, od, p.m, p.k, p.n),
            Kind::Nt => unreachable!("single_chunk does not support NT"),
        }
    }
}

/// Four-way unrolled row-dot-row kernel for sub-threshold NT problems.
struct SmallNtUnrolled;

impl Routine for SmallNtUnrolled {
    fn name(&self) -> &'static str {
        "small_nt_unrolled"
    }
    fn supports(&self, p: &Problem) -> bool {
        p.small() && p.kind() == Kind::Nt
    }
    fn run(&self, p: &Problem, ad: &[f32], bd: &[f32], od: &mut [f32]) {
        small_nt(ad, bd, od, p.m, p.k, p.n);
    }
}

/// The reference pack-and-tile routine: per-chunk A/B packing, `MR = 4`
/// register tiles, classic chunk granularity. Reproduces the
/// pre-dispatch engine exactly.
struct PackedBlocked;

impl Routine for PackedBlocked {
    fn name(&self) -> &'static str {
        "packed_blocked"
    }
    fn supports(&self, p: &Problem) -> bool {
        !p.small()
    }
    fn run(&self, p: &Problem, ad: &[f32], bd: &[f32], od: &mut [f32]) {
        blocked_run::<MR>(p, ad, bd, od);
    }
}

/// Same structure as [`PackedBlocked`] with a 6-row register tile.
struct PackedWide;

impl Routine for PackedWide {
    fn name(&self) -> &'static str {
        "packed_wide"
    }
    fn supports(&self, p: &Problem) -> bool {
        !p.small()
    }
    fn run(&self, p: &Problem, ad: &[f32], bd: &[f32], od: &mut [f32]) {
        blocked_run::<WIDE_MR>(p, ad, bd, od);
    }
}

/// Shared-B double-buffered routine: each `KC` block of B is packed
/// exactly once into a shared buffer (instead of once per row chunk),
/// and the next block is packed into the inactive buffer before the
/// current block's row chunks are dispatched.
struct DoubleBuffered;

impl Routine for DoubleBuffered {
    fn name(&self) -> &'static str {
        "double_buffered"
    }
    fn supports(&self, p: &Problem) -> bool {
        !p.small() && !p.trans_a
    }
    fn run(&self, p: &Problem, ad: &[f32], bd: &[f32], od: &mut [f32]) {
        shared_b_run::<MR>(p.trans_b, ad, bd, od, p.m, p.k, p.n);
    }
}

/// TN-specialized routine: cache-blocked transpose of A into scratch,
/// then the shared-B NN path. Replaces the per-chunk strided column
/// gather (and the hand-tuned TN chunk constants) with one contiguous
/// pass.
struct TnPacked;

impl Routine for TnPacked {
    fn name(&self) -> &'static str {
        "tn_packed"
    }
    fn supports(&self, p: &Problem) -> bool {
        !p.small() && p.trans_a
    }
    fn run(&self, p: &Problem, ad: &[f32], bd: &[f32], od: &mut [f32]) {
        let mut at = scratch::take_filled(p.m * p.k, 0.0);
        transpose_into(ad, &mut at, p.k, p.m);
        // The transpose left A in NN row-major layout, so the kernel can
        // read it directly — packing it again would be a second copy.
        direct_a_run::<MR>(false, &at, bd, od, p.k, p.n);
        scratch::give(at);
    }
}

/// Zero-pack-A routine: shared per-`KC`-block B packing like
/// [`DoubleBuffered`], but the micro-kernel reads NN-layout A directly
/// (row stride `k`) instead of copying row panels first. The kernel
/// consumes the same values in the same order, so skipping the pack is
/// bitwise-invariant; it wins on tall-skinny problems where the A copy
/// rivals the compute.
struct DirectA;

impl Routine for DirectA {
    fn name(&self) -> &'static str {
        "direct_a"
    }
    fn supports(&self, p: &Problem) -> bool {
        !p.small() && !p.trans_a
    }
    fn run(&self, p: &Problem, ad: &[f32], bd: &[f32], od: &mut [f32]) {
        direct_a_run::<MR>(p.trans_b, ad, bd, od, p.k, p.n);
    }
}

/// The routine registry, in deterministic tie-break order (earlier wins
/// a measurement tie).
pub fn routines() -> &'static [&'static dyn Routine] {
    static REGISTRY: [&dyn Routine; 7] = [
        &SingleChunk,
        &SmallNtUnrolled,
        &PackedBlocked,
        &PackedWide,
        &DoubleBuffered,
        &TnPacked,
        &DirectA,
    ];
    &REGISTRY
}

/// Looks up a registered routine by name.
pub fn routine_by_name(name: &str) -> Option<&'static dyn Routine> {
    routines().iter().copied().find(|r| r.name() == name)
}

/// Names of the routines that support the given problem, in registry
/// order.
pub fn candidate_names(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    k: usize,
    n: usize,
) -> Vec<&'static str> {
    let p = Problem::new(trans_a, trans_b, m, k, n);
    routines()
        .iter()
        .filter(|r| r.supports(&p))
        .map(|r| r.name())
        .collect()
}

/// Runs one named routine directly, bypassing the selector (test hook).
/// Returns `false` if the routine is unknown or does not support the
/// problem. Zero-sized problems are a successful no-op.
#[allow(clippy::too_many_arguments)]
pub fn run_routine(
    name: &str,
    trans_a: bool,
    trans_b: bool,
    ad: &[f32],
    bd: &[f32],
    od: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) -> bool {
    let Some(r) = routine_by_name(name) else {
        return false;
    };
    let p = Problem::new(trans_a, trans_b, m, k, n);
    if m == 0 || k == 0 || n == 0 {
        return true;
    }
    if !r.supports(&p) {
        return false;
    }
    r.run(&p, ad, bd, od);
    true
}

// ---------------------------------------------------------------------------
// Shape classes and selection
// ---------------------------------------------------------------------------

/// The selector key: transpose kind, pow2-bucketed dims, thread count and
/// SIMD flag. Problems in one class share a tuned routine choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShapeClass {
    /// Transpose kind.
    pub kind: Kind,
    /// Pow2-floor bucket of `m`.
    pub m: usize,
    /// Pow2-floor bucket of `k`.
    pub k: usize,
    /// Pow2-floor bucket of `n`.
    pub n: usize,
    /// Configured pool thread count (`backend::threads()`).
    pub threads: usize,
    /// Whether the AVX2+FMA micro-kernel is active.
    pub simd: bool,
}

/// Pow2-floor bucket: `257 → 256`, `96 → 64`, `1 → 1`, `0 → 0`.
pub fn bucket(x: usize) -> usize {
    if x == 0 {
        0
    } else {
        1 << (usize::BITS - 1 - x.leading_zeros())
    }
}

impl ShapeClass {
    /// The class of a problem under the current backend configuration.
    pub fn of(p: &Problem) -> Self {
        Self {
            kind: p.kind(),
            m: bucket(p.m),
            k: bucket(p.k),
            n: bucket(p.n),
            threads: backend::threads(),
            simd: simd_active(),
        }
    }

    /// Canonical cache key, e.g. `"tn:m256:k256:n256:t4:simd"`.
    pub fn key(&self) -> String {
        format!(
            "{}:m{}:k{}:n{}:t{}:{}",
            self.kind.tag(),
            self.m,
            self.k,
            self.n,
            self.threads,
            if self.simd { "simd" } else { "nosimd" }
        )
    }
}

/// How a selection was decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Sub-threshold problem: the fixed small-class kernel.
    Small,
    /// Static heuristic table (autotune disabled or cache unusable).
    Static,
    /// Measured in this process (cold tune).
    Measured,
    /// Loaded from the persistent tune cache (warm).
    Cached,
}

impl Source {
    /// Short tag used in bench JSON: `"small"` / `"static"` /
    /// `"measured"` / `"cached"`.
    pub fn tag(&self) -> &'static str {
        match self {
            Source::Small => "small",
            Source::Static => "static",
            Source::Measured => "measured",
            Source::Cached => "cached",
        }
    }
}

/// The routine the selector resolved for a problem, with provenance.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Registry name of the chosen routine.
    pub routine: &'static str,
    /// How the choice was made.
    pub source: Source,
    /// The shape-class key the choice is filed under.
    pub key: String,
    /// Wall-clock cost of the measurement pass that produced the choice
    /// (milliseconds) — the cold-tune cost a warm run avoids. `None` for
    /// small/static selections.
    pub tune_ms: Option<f64>,
}

/// Cold-start heuristic table. TN goes to the transpose-packing routine;
/// NN/NT problems wide enough to split into several row chunks benefit
/// from the shared-B buffer, everything else takes the wide tile.
fn static_choice(p: &Problem) -> &'static str {
    if p.trans_a {
        "tn_packed"
    } else if p.m > MC {
        "double_buffered"
    } else {
        "packed_blocked"
    }
}

/// Fixed small-class kernel for the problem's kind.
fn small_choice(p: &Problem) -> &'static str {
    if p.kind() == Kind::Nt {
        "small_nt_unrolled"
    } else {
        "single_chunk"
    }
}

/// Resolves the routine for a problem — the public face of the selector,
/// also used by `bench_kernels` to report per-entry routine names and
/// tune provenance. On a cache miss with autotuning active this runs the
/// measurement pass (so a bench "tune pass" is just a `selection_for`
/// sweep over its shapes).
pub fn selection_for(trans_a: bool, trans_b: bool, m: usize, k: usize, n: usize) -> Selection {
    select(&Problem::new(trans_a, trans_b, m, k, n))
}

fn select(p: &Problem) -> Selection {
    let class = ShapeClass::of(p);
    let key = class.key();
    if p.small() {
        return Selection {
            routine: small_choice(p),
            source: Source::Small,
            key,
            tune_ms: None,
        };
    }
    if !tune::active() {
        return Selection {
            routine: static_choice(p),
            source: Source::Static,
            key,
            tune_ms: None,
        };
    }
    if let Some(entry) = tune::lookup(&key) {
        // A cached name that no longer exists (or no longer supports the
        // class) falls back to the static table rather than panicking.
        if let Some(r) = routine_by_name(&entry.routine) {
            if r.supports(p) {
                return Selection {
                    routine: r.name(),
                    source: if entry.from_file {
                        Source::Cached
                    } else {
                        Source::Measured
                    },
                    key,
                    tune_ms: Some(entry.tune_ms),
                };
            }
        }
        return Selection {
            routine: static_choice(p),
            source: Source::Static,
            key,
            tune_ms: None,
        };
    }
    let (routine, tune_ms) = measure(p);
    tune::record(&key, routine, tune_ms);
    Selection {
        routine,
        source: Source::Measured,
        key,
        tune_ms: Some(tune_ms),
    }
}

/// Measures every candidate routine on synthetic data of the problem's
/// exact size and returns (winner, total measurement milliseconds).
/// Candidates within a class are bitwise-identical, so timing jitter can
/// only affect speed, never results; ties keep the earlier registry
/// entry.
fn measure(p: &Problem) -> (&'static str, f64) {
    let started = Instant::now();
    let cands: Vec<&'static dyn Routine> = routines()
        .iter()
        .copied()
        .filter(|r| r.supports(p))
        .collect();
    let mut a = scratch::take_filled(p.m * p.k, 0.0);
    let mut b = scratch::take_filled(p.k * p.n, 0.0);
    fill_pattern(&mut a, 3);
    fill_pattern(&mut b, 7);
    let mut out = scratch::take_filled(p.m * p.n, 0.0);
    let reps = if p.macs() >= 1 << 26 {
        3
    } else if p.macs() >= 1 << 22 {
        5
    } else {
        7
    };
    // Untimed warmup: first-touch scratch allocation and cache
    // population would otherwise pollute each candidate's first rep.
    for r in &cands {
        out.fill(0.0);
        r.run(p, &a, &b, &mut out);
    }
    // Round-robin the timed reps across candidates so a transient noise
    // window (this host is a shared VM) degrades every candidate's
    // sample equally instead of sinking whichever one it lands on;
    // best-of-reps then discards the noisy rounds entirely.
    let mut fastest = vec![f64::INFINITY; cands.len()];
    for _ in 0..reps {
        for (r, fast) in cands.iter().zip(fastest.iter_mut()) {
            out.fill(0.0);
            let t0 = Instant::now();
            r.run(p, &a, &b, &mut out);
            *fast = fast.min(t0.elapsed().as_secs_f64());
        }
    }
    let mut best_name = cands[0].name();
    let mut best = f64::INFINITY;
    for (r, fast) in cands.iter().zip(fastest.iter()) {
        if *fast < best {
            best = *fast;
            best_name = r.name();
        }
    }
    scratch::give(out);
    scratch::give(b);
    scratch::give(a);
    (best_name, started.elapsed().as_secs_f64() * 1e3)
}

/// Cheap deterministic fill for tuning inputs (values are irrelevant to
/// timing; no RNG dependency).
fn fill_pattern(buf: &mut [f32], salt: usize) {
    for (i, v) in buf.iter_mut().enumerate() {
        *v = (((i * salt) % 31) as f32 - 15.0) * 0.0625;
    }
}

/// GEMM entry point: resolves a routine and runs it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dispatch(
    trans_a: bool,
    trans_b: bool,
    ad: &[f32],
    bd: &[f32],
    od: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let p = Problem::new(trans_a, trans_b, m, k, n);
    let sel = select(&p);
    let r = routine_by_name(sel.routine).expect("selector returned a registered routine");
    r.run(&p, ad, bd, od);
}

// ---------------------------------------------------------------------------
// Execution engines shared by the blocked routines
// ---------------------------------------------------------------------------

/// Classic chunk granularity, retained verbatim for the reference
/// routine: `MC` rows for NN/NT; TN aims for ~`2^20` multiply-adds per
/// chunk with a single-chunk fallback below `2^21`. These TN constants
/// used to be the engine's only routing knob — the shape selector now
/// supersedes them (TN normally dispatches to `tn_packed`), but the
/// reference routine keeps them so it reproduces pre-dispatch behavior
/// exactly. A fixed function of the problem size only (determinism
/// contract rule 1).
fn classic_chunk_rows(trans_a: bool, m: usize, k: usize, n: usize) -> usize {
    if !trans_a {
        return MC;
    }
    const TN_PARALLEL_MIN_MACS: usize = 1 << 21;
    if m * k * n < TN_PARALLEL_MIN_MACS {
        return m.max(1);
    }
    const TN_CHUNK_MACS: usize = 1 << 20;
    let per_row = (k * n).max(1);
    let rows = (TN_CHUNK_MACS / per_row).max(1).div_ceil(MR) * MR;
    rows.clamp(MR, MC)
}

/// Per-chunk pack-and-tile engine (the pre-dispatch `gemm` body) with a
/// const-generic register-tile height.
fn blocked_run<const MRT: usize>(p: &Problem, ad: &[f32], bd: &[f32], od: &mut [f32]) {
    let simd = simd_active();
    let rows_per_chunk = classic_chunk_rows(p.trans_a, p.m, p.k, p.n);
    let (trans_a, trans_b, m, k, n) = (p.trans_a, p.trans_b, p.m, p.k, p.n);
    backend::parallel_chunks_mut(od, rows_per_chunk * n, |ci, oc| {
        classic_chunk::<MRT>(
            trans_a,
            trans_b,
            ad,
            bd,
            oc,
            ci * rows_per_chunk,
            k,
            m,
            n,
            simd,
        );
    });
}

/// Blocked GEMM over one chunk of `oc.len() / n` consecutive output rows
/// starting at global row `i0`, packing its own A rows and B panels.
#[allow(clippy::too_many_arguments)]
fn classic_chunk<const MRT: usize>(
    trans_a: bool,
    trans_b: bool,
    ad: &[f32],
    bd: &[f32],
    oc: &mut [f32],
    i0: usize,
    k: usize,
    m: usize,
    n: usize,
    simd: bool,
) {
    let rows = oc.len() / n;
    // Pack buffer comes from the thread-local scratch pool: steady-state
    // training steps repeat the same shapes, so after warmup this is
    // allocation-free.
    let mut pa = scratch::take_filled(rows * KC, 0.0);
    let mut panel = [0f32; KC * NR];
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        pack_a(trans_a, ad, &mut pa, i0, rows, p0, kc, m, k);
        let mut j0 = 0;
        while j0 < n {
            let nr = NR.min(n - j0);
            pack_b(trans_b, bd, &mut panel, p0, kc, j0, nr, k, n);
            microkernel::<MRT>(&pa, KC, &panel, oc, rows, kc, n, j0, nr, simd);
            j0 += NR;
        }
        p0 += KC;
    }
    scratch::give(pa);
}

/// Shared-B engine: per `KC` depth block, B is packed once into a shared
/// panel run, the next block is packed into the inactive buffer before
/// the current block's row chunks are dispatched (double buffering), and
/// `MC`-row chunks consume the shared panels.
///
/// Iterating depth blocks *outside* the chunk dispatch is bitwise
/// identical to the per-chunk loop: each output element still receives
/// its block partials in increasing `p0` order, and each partial is the
/// same micro-kernel FMA chain.
fn shared_b_run<const MRT: usize>(
    trans_b: bool,
    ad: &[f32],
    bd: &[f32],
    od: &mut [f32],
    _m: usize,
    k: usize,
    n: usize,
) {
    let simd = simd_active();
    let panels = n.div_ceil(NR);
    let blen = panels * KC * NR;
    let mut cur = scratch::take_filled(blen, 0.0);
    let mut nxt = scratch::take_filled(blen, 0.0);
    pack_block(trans_b, bd, &mut cur, 0, KC.min(k), k, n);
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        let next_p0 = p0 + KC;
        if next_p0 < k {
            pack_block(trans_b, bd, &mut nxt, next_p0, KC.min(k - next_p0), k, n);
        }
        let cur_ref: &[f32] = &cur;
        backend::parallel_chunks_mut(od, MC * n, |ci, oc| {
            shared_chunk::<MRT>(ad, cur_ref, oc, ci * MC, p0, kc, k, n, simd);
        });
        std::mem::swap(&mut cur, &mut nxt);
        p0 += KC;
    }
    scratch::give(nxt);
    scratch::give(cur);
}

/// Shared-B engine without A packing: same double-buffered per-block B
/// panels as [`shared_b_run`], but each row chunk feeds the micro-kernel
/// its A rows straight from the NN-layout matrix (row stride `k`).
fn direct_a_run<const MRT: usize>(
    trans_b: bool,
    ad: &[f32],
    bd: &[f32],
    od: &mut [f32],
    k: usize,
    n: usize,
) {
    let simd = simd_active();
    let panels = n.div_ceil(NR);
    let blen = panels * KC * NR;
    let mut cur = scratch::take_filled(blen, 0.0);
    let mut nxt = scratch::take_filled(blen, 0.0);
    pack_block(trans_b, bd, &mut cur, 0, KC.min(k), k, n);
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        let next_p0 = p0 + KC;
        if next_p0 < k {
            pack_block(trans_b, bd, &mut nxt, next_p0, KC.min(k - next_p0), k, n);
        }
        let cur_ref: &[f32] = &cur;
        backend::parallel_chunks_mut(od, MC * n, |ci, oc| {
            let rows = oc.len() / n;
            let ablock = &ad[ci * MC * k + p0..];
            let mut j0 = 0;
            let mut ji = 0;
            while j0 < n {
                let nr = NR.min(n - j0);
                let panel = &cur_ref[ji * KC * NR..(ji + 1) * KC * NR];
                microkernel::<MRT>(ablock, k, panel, oc, rows, kc, n, j0, nr, simd);
                j0 += NR;
                ji += 1;
            }
        });
        std::mem::swap(&mut cur, &mut nxt);
        p0 += KC;
    }
    scratch::give(nxt);
    scratch::give(cur);
}

/// Packs all `NR`-wide panels of one `kc`-deep block of op(B) into a
/// contiguous panel run (`panels × KC × NR`, only the first `kc` rows of
/// each panel are meaningful).
fn pack_block(
    trans_b: bool,
    bd: &[f32],
    buf: &mut [f32],
    p0: usize,
    kc: usize,
    k: usize,
    n: usize,
) {
    let mut j0 = 0;
    let mut ji = 0;
    while j0 < n {
        let nr = NR.min(n - j0);
        let panel = &mut buf[ji * KC * NR..(ji + 1) * KC * NR];
        pack_b(trans_b, bd, panel, p0, kc, j0, nr, k, n);
        j0 += NR;
        ji += 1;
    }
}

/// One row chunk of the shared-B engine: packs its A rows for the
/// current depth block, then sweeps the pre-packed panels.
#[allow(clippy::too_many_arguments)]
fn shared_chunk<const MRT: usize>(
    ad: &[f32],
    bblock: &[f32],
    oc: &mut [f32],
    i0: usize,
    p0: usize,
    kc: usize,
    k: usize,
    n: usize,
    simd: bool,
) {
    let rows = oc.len() / n;
    let mut pa = scratch::take_filled(rows * KC, 0.0);
    pack_a(false, ad, &mut pa, i0, rows, p0, kc, 0, k);
    let mut j0 = 0;
    let mut ji = 0;
    while j0 < n {
        let nr = NR.min(n - j0);
        let panel = &bblock[ji * KC * NR..(ji + 1) * KC * NR];
        microkernel::<MRT>(&pa, KC, panel, oc, rows, kc, n, j0, nr, simd);
        j0 += NR;
        ji += 1;
    }
    scratch::give(pa);
}

// ---------------------------------------------------------------------------
// Quantized (u8 × i8 → i32) routine registry and selector
// ---------------------------------------------------------------------------

/// One quantized NT GEMM problem: `a` is `(m, k)` unsigned codes, `b` is
/// `(n, k)` signed codes, output is `m × n` i32. There is only one
/// transpose kind (NT — every quantized consumer is row-dot-row), so the
/// problem is just its dims.
#[derive(Debug, Clone, Copy)]
pub struct QProblem {
    /// Output rows.
    pub m: usize,
    /// Depth (dot-product length).
    pub k: usize,
    /// Output columns.
    pub n: usize,
}

impl QProblem {
    /// Builds a problem description.
    pub fn new(m: usize, k: usize, n: usize) -> Self {
        Self { m, k, n }
    }

    /// Total multiply-adds.
    pub fn macs(&self) -> usize {
        self.m * self.k * self.n
    }

    /// Whether this problem runs the fixed streaming kernel instead of
    /// the tuned blocked family. Same threshold as the f32 selector.
    /// Unlike the f32 boundary this one is *not* a numeric contract —
    /// integer kernels are all bitwise-identical — it just keeps tiny
    /// problems out of the pool and the tune cache.
    pub fn small(&self) -> bool {
        self.n < NR / 2 || self.macs() < SMALL_MACS
    }

    /// Canonical cache key, e.g. `"qnt:m256:k256:n256:t4:simd"`. The
    /// `qnt` tag keeps quantized classes disjoint from the f32 `nn` /
    /// `tn` / `nt` namespaces in the shared `XBAR_TUNE_CACHE` file.
    pub fn key(&self) -> String {
        format!(
            "qnt:m{}:k{}:n{}:t{}:{}",
            bucket(self.m),
            bucket(self.k),
            bucket(self.n),
            backend::threads(),
            if simd_active() { "simd" } else { "nosimd" }
        )
    }
}

/// A named quantized GEMM routine. All routines are exact integer
/// arithmetic and therefore bitwise-identical wherever they overlap.
pub trait QRoutine: Sync {
    /// Stable registry name (appears in tune-cache files and bench JSON).
    fn name(&self) -> &'static str;
    /// Whether this routine can run `p`.
    fn supports(&self, p: &QProblem) -> bool;
    /// Runs the routine. `od` is the row-major `m × n` output.
    fn run(&self, p: &QProblem, ad: &[u8], bd: &[i8], od: &mut [i32]);
}

/// Serial streaming kernel: the small-class routine (also a blocked-class
/// candidate — on memory-bound shapes the pool fan-out can lose).
struct QRowDot;

impl QRoutine for QRowDot {
    fn name(&self) -> &'static str {
        "q_rowdot"
    }
    fn supports(&self, _p: &QProblem) -> bool {
        true
    }
    fn run(&self, p: &QProblem, ad: &[u8], bd: &[i8], od: &mut [i32]) {
        crate::qgemm::qk_rowdot(ad, bd, od, p.m, p.k, p.n);
    }
}

/// Scalar 2×4 register-blocked kernel, parallel over row chunks.
struct QBlocked;

impl QRoutine for QBlocked {
    fn name(&self) -> &'static str {
        "q_blocked"
    }
    fn supports(&self, p: &QProblem) -> bool {
        !p.small()
    }
    fn run(&self, p: &QProblem, ad: &[u8], bd: &[i8], od: &mut [i32]) {
        crate::qgemm::qk_blocked(ad, bd, od, p.m, p.k, p.n);
    }
}

/// AVX2 `maddubs` micro-kernel, parallel over row chunks.
struct QMaddubs;

impl QRoutine for QMaddubs {
    fn name(&self) -> &'static str {
        "q_maddubs"
    }
    fn supports(&self, p: &QProblem) -> bool {
        !p.small() && simd_active()
    }
    fn run(&self, p: &QProblem, ad: &[u8], bd: &[i8], od: &mut [i32]) {
        crate::qgemm::qk_maddubs(ad, bd, od, p.m, p.k, p.n);
    }
}

/// The quantized routine registry, in deterministic tie-break order.
pub fn q_routines() -> &'static [&'static dyn QRoutine] {
    static REGISTRY: [&dyn QRoutine; 3] = [&QRowDot, &QBlocked, &QMaddubs];
    &REGISTRY
}

/// Looks up a registered quantized routine by name.
pub fn q_routine_by_name(name: &str) -> Option<&'static dyn QRoutine> {
    q_routines().iter().copied().find(|r| r.name() == name)
}

/// Names of the quantized routines that support the given problem, in
/// registry order.
pub fn q_candidate_names(m: usize, k: usize, n: usize) -> Vec<&'static str> {
    let p = QProblem::new(m, k, n);
    q_routines()
        .iter()
        .filter(|r| r.supports(&p))
        .map(|r| r.name())
        .collect()
}

/// Runs one named quantized routine directly, bypassing the selector
/// (test hook). Returns `false` if the routine is unknown or does not
/// support the problem.
pub fn run_q_routine(
    name: &str,
    ad: &[u8],
    bd: &[i8],
    od: &mut [i32],
    m: usize,
    k: usize,
    n: usize,
) -> bool {
    let Some(r) = q_routine_by_name(name) else {
        return false;
    };
    let p = QProblem::new(m, k, n);
    if m == 0 || k == 0 || n == 0 {
        return true;
    }
    if !r.supports(&p) {
        return false;
    }
    r.run(&p, ad, bd, od);
    true
}

/// Cold-start heuristic for blocked quantized problems: the SIMD kernel
/// when available, the scalar blocked kernel otherwise.
fn q_static_choice(_p: &QProblem) -> &'static str {
    if simd_active() {
        "q_maddubs"
    } else {
        "q_blocked"
    }
}

/// Resolves the routine for a quantized problem — mirrors
/// [`selection_for`], sharing [`Source`], [`Selection`], and the
/// persistent tune cache (under `qnt:` keys).
pub fn q_selection_for(m: usize, k: usize, n: usize) -> Selection {
    q_select(&QProblem::new(m, k, n))
}

fn q_select(p: &QProblem) -> Selection {
    let key = p.key();
    if p.small() {
        return Selection {
            routine: "q_rowdot",
            source: Source::Small,
            key,
            tune_ms: None,
        };
    }
    if !tune::active() {
        return Selection {
            routine: q_static_choice(p),
            source: Source::Static,
            key,
            tune_ms: None,
        };
    }
    if let Some(entry) = tune::lookup(&key) {
        if let Some(r) = q_routine_by_name(&entry.routine) {
            if r.supports(p) {
                return Selection {
                    routine: r.name(),
                    source: if entry.from_file {
                        Source::Cached
                    } else {
                        Source::Measured
                    },
                    key,
                    tune_ms: Some(entry.tune_ms),
                };
            }
        }
        return Selection {
            routine: q_static_choice(p),
            source: Source::Static,
            key,
            tune_ms: None,
        };
    }
    let (routine, tune_ms) = q_measure(p);
    tune::record(&key, routine, tune_ms);
    Selection {
        routine,
        source: Source::Measured,
        key,
        tune_ms: Some(tune_ms),
    }
}

/// Measures every candidate quantized routine on synthetic data of the
/// problem's exact size — the integer twin of [`measure`].
fn q_measure(p: &QProblem) -> (&'static str, f64) {
    let started = Instant::now();
    let cands: Vec<&'static dyn QRoutine> = q_routines()
        .iter()
        .copied()
        .filter(|r| r.supports(p))
        .collect();
    let mut a8 = scratch::take_filled_i8(p.m * p.k, 0);
    for (i, v) in a8.iter_mut().enumerate() {
        *v = ((i * 37) % 128) as i8;
    }
    // Codes in 0..=127 reinterpret exactly as the unsigned operand.
    let a: &[u8] = unsafe { std::slice::from_raw_parts(a8.as_ptr().cast::<u8>(), a8.len()) };
    let mut b = scratch::take_filled_i8(p.k * p.n, 0);
    for (i, v) in b.iter_mut().enumerate() {
        *v = (((i * 53) % 255) as i32 - 127) as i8;
    }
    let mut out = scratch::take_filled_i32(p.m * p.n, 0);
    let reps = if p.macs() >= 1 << 26 {
        3
    } else if p.macs() >= 1 << 22 {
        5
    } else {
        7
    };
    for r in &cands {
        out.fill(0);
        r.run(p, a, &b, &mut out);
    }
    let mut fastest = vec![f64::INFINITY; cands.len()];
    for _ in 0..reps {
        for (r, fast) in cands.iter().zip(fastest.iter_mut()) {
            out.fill(0);
            let t0 = Instant::now();
            r.run(p, a, &b, &mut out);
            *fast = fast.min(t0.elapsed().as_secs_f64());
        }
    }
    let mut best_name = cands[0].name();
    let mut best = f64::INFINITY;
    for (r, fast) in cands.iter().zip(fastest.iter()) {
        if *fast < best {
            best = *fast;
            best_name = r.name();
        }
    }
    scratch::give_i32(out);
    scratch::give_i8(b);
    scratch::give_i8(a8);
    (best_name, started.elapsed().as_secs_f64() * 1e3)
}

/// Quantized GEMM entry point: resolves a routine and runs it.
pub(crate) fn q_dispatch(ad: &[u8], bd: &[i8], od: &mut [i32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let p = QProblem::new(m, k, n);
    let sel = q_select(&p);
    let r = q_routine_by_name(sel.routine).expect("selector returned a registered routine");
    r.run(&p, ad, bd, od);
}

/// Cache-blocked transpose: `src` is `(k, m)` row-major, `dst` becomes
/// `(m, k)` row-major. Pure data movement — parallel over destination
/// row blocks with disjoint writes, so scheduling cannot affect values.
fn transpose_into(src: &[f32], dst: &mut [f32], k: usize, m: usize) {
    const TB: usize = 32;
    backend::parallel_chunks_mut(dst, TB * k, |bi, chunk| {
        let i0 = bi * TB;
        let rows = chunk.len() / k;
        let mut j0 = 0;
        while j0 < k {
            let jb = TB.min(k - j0);
            for r in 0..rows {
                let i = i0 + r;
                for j in j0..j0 + jb {
                    chunk[r * k + j] = src[j * m + i];
                }
            }
            j0 += TB;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShiftRng;
    use crate::tune::test_support::temp_cache;
    use crate::Tensor;

    #[test]
    fn bucket_is_pow2_floor() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(96), 64);
        assert_eq!(bucket(256), 256);
        assert_eq!(bucket(257), 256);
    }

    #[test]
    fn shape_class_key_is_canonical() {
        let p = Problem::new(true, false, 300, 256, 257);
        let c = ShapeClass::of(&p);
        assert_eq!(
            c.key(),
            format!(
                "tn:m256:k256:n256:t{}:{}",
                backend::threads(),
                if simd_active() { "simd" } else { "nosimd" }
            )
        );
    }

    #[test]
    fn registry_names_are_unique_and_every_problem_has_candidates() {
        let names: Vec<_> = routines().iter().map(|r| r.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate routine name");
        for (ta, tb) in [(false, false), (true, false), (false, true)] {
            for (m, k, n) in [(2, 3, 4), (256, 256, 256)] {
                assert!(
                    !candidate_names(ta, tb, m, k, n).is_empty(),
                    "no candidate for ({ta},{tb}) {m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn supports_sets_never_cross_the_class_boundary() {
        let small = Problem::new(false, false, 4, 5, 8);
        let blocked = Problem::new(false, false, 256, 256, 256);
        assert!(small.small() && !blocked.small());
        for r in routines() {
            assert!(
                !(r.supports(&small) && r.supports(&blocked)),
                "{} crosses the small/blocked boundary",
                r.name()
            );
        }
    }

    #[test]
    fn static_choice_covers_every_kind() {
        // TN always routes to the transpose-packing routine.
        assert_eq!(
            static_choice(&Problem::new(true, false, 256, 256, 256)),
            "tn_packed"
        );
        // Multi-chunk NN/NT prefer the shared-B engine, single-chunk the
        // reference tile; every choice must be a registered, supporting routine.
        assert_eq!(
            static_choice(&Problem::new(false, false, 256, 256, 256)),
            "double_buffered"
        );
        assert_eq!(
            static_choice(&Problem::new(false, true, 32, 400, 120)),
            "packed_blocked"
        );
        for p in [
            Problem::new(false, false, 2048, 576, 128),
            Problem::new(true, false, 400, 32, 120),
            Problem::new(false, true, 64, 64, 64),
        ] {
            let r = routine_by_name(static_choice(&p)).unwrap();
            assert!(r.supports(&p), "static choice must support its class");
        }
    }

    #[test]
    fn tn_chunk_rows_depend_only_on_problem_size() {
        // Below the parallel threshold: one chunk covering every row.
        assert_eq!(classic_chunk_rows(true, 64, 64, 64), 64);
        // Above it: work-balanced, MR-aligned, clamped to [MR, MC].
        let r = classic_chunk_rows(true, 256, 256, 256);
        assert!(r.is_multiple_of(MR) && (MR..=MC).contains(&r));
        assert!(r < 256, "large TN must split into multiple chunks");
        // NN/NT keep the MC granularity.
        assert_eq!(classic_chunk_rows(false, 256, 256, 256), MC);
    }

    #[test]
    fn tn_multi_chunk_split_is_bitwise_identical_to_one_chunk() {
        // 160x160x160 = 4.1M MACs crosses the TN parallel threshold, so
        // the reference routine runs multiple row chunks; the
        // single-chunk execution of the same blocked loop must agree bit
        // for bit (per-row accumulation is chunk-grouping independent).
        let (m, k, n) = (160, 160, 160);
        let mut rng = XorShiftRng::new(0x7171);
        let a = Tensor::rand_normal(&[k, m], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
        assert!(
            classic_chunk_rows(true, m, k, n) < m,
            "test must exercise a split"
        );
        let p = Problem::new(true, false, m, k, n);
        let mut got = vec![0f32; m * n];
        blocked_run::<MR>(&p, a.data(), b.data(), &mut got);
        let mut want = vec![0f32; m * n];
        classic_chunk::<MR>(
            true,
            false,
            a.data(),
            b.data(),
            &mut want,
            0,
            k,
            m,
            n,
            simd_active(),
        );
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn every_blocked_routine_is_bitwise_identical_to_the_reference() {
        // Ragged blocked shapes per kind; the big bench shapes live in
        // tests/integration_dispatch.rs.
        for (ta, tb, m, k, n) in [
            (false, false, 70, 300, 33),
            (false, true, 70, 300, 33),
            (true, false, 70, 300, 33),
            (false, false, 97, 89, 83),
            (true, false, 97, 89, 83),
            (false, true, 97, 89, 83),
        ] {
            let p = Problem::new(ta, tb, m, k, n);
            assert!(!p.small());
            let mut rng = XorShiftRng::new(0x9000 + m as u64 + u64::from(ta) + 2 * u64::from(tb));
            let a_shape = if ta { [k, m] } else { [m, k] };
            let b_shape = if tb { [n, k] } else { [k, n] };
            let a = Tensor::rand_normal(&a_shape, 0.0, 1.0, &mut rng);
            let b = Tensor::rand_normal(&b_shape, 0.0, 1.0, &mut rng);
            let mut want = vec![0f32; m * n];
            assert!(run_routine(
                "packed_blocked",
                ta,
                tb,
                a.data(),
                b.data(),
                &mut want,
                m,
                k,
                n
            ));
            for name in candidate_names(ta, tb, m, k, n) {
                let mut got = vec![0f32; m * n];
                assert!(run_routine(
                    name,
                    ta,
                    tb,
                    a.data(),
                    b.data(),
                    &mut got,
                    m,
                    k,
                    n
                ));
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{name} differs from reference on ({ta},{tb}) {m}x{k}x{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn transpose_into_round_trips() {
        let (k, m) = (37, 53);
        let mut rng = XorShiftRng::new(0xABCD);
        let src = Tensor::rand_normal(&[k, m], 0.0, 1.0, &mut rng);
        let mut dst = vec![0f32; m * k];
        transpose_into(src.data(), &mut dst, k, m);
        for i in 0..m {
            for j in 0..k {
                assert_eq!(dst[i * k + j].to_bits(), src.data()[j * m + i].to_bits());
            }
        }
    }

    #[test]
    fn run_routine_rejects_unknown_and_unsupported() {
        let a = [1.0f32; 64];
        let mut o = [0f32; 64];
        assert!(!run_routine(
            "no_such", false, false, &a, &a, &mut o, 8, 8, 8
        ));
        // Blocked routine on a small problem is refused.
        assert!(!run_routine(
            "packed_wide",
            false,
            false,
            &a,
            &a,
            &mut o,
            8,
            8,
            8
        ));
        // Zero dims are a successful no-op.
        assert!(run_routine(
            "packed_wide",
            false,
            false,
            &a,
            &a,
            &mut o[..0],
            0,
            8,
            8
        ));
    }

    #[test]
    fn selector_sources_follow_cache_state() {
        let path = temp_cache("selector");
        let _ = std::fs::remove_file(&path);
        // Small problems never consult the cache.
        crate::tune::reload_from(None, true).unwrap();
        let s = selection_for(false, true, 4, 5, 8);
        assert_eq!((s.routine, s.source), ("small_nt_unrolled", Source::Small));
        // Disabled: static table.
        crate::tune::reload_from(None, false).unwrap();
        let s = selection_for(true, false, 256, 256, 256);
        assert_eq!((s.routine, s.source), ("tn_packed", Source::Static));
        assert!(s.tune_ms.is_none());
        // Enabled with a cache path: first resolve measures and persists…
        crate::tune::reload_from(Some(&path), true).unwrap();
        let cold = selection_for(true, false, 96, 96, 96);
        assert_eq!(cold.source, Source::Measured);
        assert!(cold.tune_ms.is_some());
        // …repeat resolves hit the in-memory entry…
        let repeat = selection_for(true, false, 96, 96, 96);
        assert_eq!(repeat.source, Source::Measured);
        assert_eq!(repeat.routine, cold.routine);
        // …and a reload serves it from the file (warm).
        assert_eq!(crate::tune::reload_from(Some(&path), true).unwrap(), 1);
        let warm = selection_for(true, false, 96, 96, 96);
        assert_eq!(warm.source, Source::Cached);
        assert_eq!(warm.routine, cold.routine);
        assert_eq!(warm.key, cold.key);
        crate::tune::reload_from(None, true).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cached_unknown_routine_falls_back_to_static() {
        let path = temp_cache("unknown-routine");
        let key = ShapeClass::of(&Problem::new(false, false, 256, 256, 256)).key();
        std::fs::write(
            &path,
            format!("{{\"version\":1,\"entries\":[{{\"key\":\"{key}\",\"routine\":\"retired_routine\",\"tune_ms\":1}}]}}"),
        )
        .unwrap();
        crate::tune::reload_from(Some(&path), true).unwrap();
        let s = selection_for(false, false, 256, 256, 256);
        assert_eq!(s.source, Source::Static);
        assert!(routine_by_name(s.routine).is_some());
        crate::tune::reload_from(None, true).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn q_registry_names_unique_and_small_problems_have_the_fixed_kernel() {
        let mut names: Vec<_> = q_routines().iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), q_routines().len());
        // q_rowdot supports everything; blocked candidates exist for
        // blocked shapes.
        assert_eq!(q_candidate_names(2, 8, 4), vec!["q_rowdot"]);
        assert!(q_candidate_names(256, 256, 256).len() >= 2);
    }

    #[test]
    fn q_key_is_disjoint_from_f32_namespace() {
        let key = QProblem::new(256, 256, 256).key();
        assert!(key.starts_with("qnt:"), "{key}");
        let f32_key = ShapeClass::of(&Problem::new(false, true, 256, 256, 256)).key();
        assert_ne!(key, f32_key);
    }

    #[test]
    fn q_selector_sources_follow_cache_state() {
        let path = temp_cache("q-selector");
        let _ = std::fs::remove_file(&path);
        crate::tune::reload_from(None, true).unwrap();
        let s = q_selection_for(2, 8, 4);
        assert_eq!((s.routine, s.source), ("q_rowdot", Source::Small));
        crate::tune::reload_from(None, false).unwrap();
        let s = q_selection_for(96, 96, 96);
        assert_eq!(s.source, Source::Static);
        assert!(q_routine_by_name(s.routine).is_some());
        crate::tune::reload_from(Some(&path), true).unwrap();
        let cold = q_selection_for(96, 96, 96);
        assert_eq!(cold.source, Source::Measured);
        assert!(cold.tune_ms.is_some());
        assert_eq!(crate::tune::reload_from(Some(&path), true).unwrap(), 1);
        let warm = q_selection_for(96, 96, 96);
        assert_eq!(warm.source, Source::Cached);
        assert_eq!(warm.routine, cold.routine);
        assert_eq!(warm.key, cold.key);
        crate::tune::reload_from(None, true).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_q_routine_rejects_unknown_and_unsupported() {
        let (m, k, n) = (2, 8, 4);
        let a = vec![1u8; m * k];
        let b = vec![1i8; n * k];
        let mut out = vec![0i32; m * n];
        assert!(!run_q_routine("nope", &a, &b, &mut out, m, k, n));
        // Blocked-only routine on a small problem.
        assert!(!run_q_routine("q_blocked", &a, &b, &mut out, m, k, n));
        assert!(run_q_routine("q_rowdot", &a, &b, &mut out, m, k, n));
        assert!(out.iter().all(|&v| v == k as i32));
    }
}
