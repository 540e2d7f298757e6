//! Runtime-dispatched SIMD lanes for the hot geometry kernels.
//!
//! The predictors and the serve path spend their CPU time in three inner
//! loops: MINDIST² accumulation over [`crate::LeafSoup`] stripes, the
//! early-abandon point-distance kernel behind [`crate::knn::KBest`], and
//! the per-dimension moments behind every bulk-load split's choice of
//! the maximum-variance dimension ([`crate::stats`]). This module gives
//! them SSE2 and AVX2 paths on `x86_64` (detected at runtime; a portable
//! scalar fallback everywhere else) with **zero external dependencies**.
//!
//! ## The identity argument (lanes across leaves, never across dims)
//!
//! The committed scalar kernels accumulate, for every leaf (or candidate
//! point), the per-dimension squared distances in ascending dimension
//! order, in `f64`. The SIMD kernels vectorize across the *leaf axis*
//! only: lane `l` of a vector register owns leaf `i + l` and replays the
//! exact same `f64` add chain — `(lo − x).max(x − hi).max(0.0)` per
//! dimension, squared, added in dimension order, no FMA contraction. A
//! vertical `max`/`sub`/`mul`/`add` is performed per lane exactly as the
//! scalar op would be, so every per-leaf sum adds the same `f64` operands
//! in the same order and the counts are **byte-identical** to the scalar
//! path, not approximately equal. Early exits (movemask over "every live
//! accumulator already exceeds `r²`") are sound for the same reason the
//! scalar block exit is: accumulation of non-negative terms is monotone.
//! Reducing across dimensions inside a register would re-associate the
//! sum and break this contract, which is why no kernel here ever does it.
//! The counting kernels put a cheaper `f32` tier in front of this one
//! (below): it settles only the lanes whose `f64` decision it can prove
//! and hands every other group to this chain, so each count is still the
//! scalar count, lane for lane.
//!
//! ## The moments kernel (lanes across dims, never across points)
//!
//! The max-variance moments run on the opposite axis: lane `l` owns
//! dimension `j + l` of a 16-, 8-, 4- or 1-wide dimension tile, and the
//! points are the sequential axis. The exactness argument is the same one
//! seen from the other side. Each dimension's mean and variance are two
//! independent `f64` add chains over the points in `ids` order, so a lane
//! replays its dimension's chain exactly — `f64::from` of an `f32` is
//! exact, `mean /= n` and `dev * dev` are separate correctly rounded ops
//! (Rust never contracts to FMA) — and no sum ever crosses lanes. What
//! would break it is splitting one dimension's chain across points, which
//! is why this kernel never does that. The points are walked in blocks of
//! 16 rows, and every tile runs over a block before the next is read: a
//! chain is only paused at a block edge (its sum parked in memory) and
//! resumed with the next point in `ids` order, so the blocking changes
//! which rows are in cache, never the order of any chain's adds. The
//! routine is plain safe Rust, compiled once at the SSE2 baseline and
//! once inside an AVX2 `#[target_feature]` wrapper, where a 16-dimension
//! tile's accumulators fit in four `ymm` registers. Rust leaves the sign and payload of a
//! NaN result unspecified, so both paths return NaN moments as
//! [`f64::NAN`]; every moment is then bit-identical across ISAs.
//!
//! ## The `f32` filter (decide in `f32` inside a proven margin)
//!
//! Counting needs only each lane's decision `MINDIST² <= r²`, not the sum,
//! so the SSE2/AVX2 counting kernels first run the same chain in `f32`:
//! per dimension `max(max(lo − x, x − hi), 0)`, squared, added in
//! ascending dimension order, 8 lanes per `ymm` and 4 per `xmm`, with no
//! widening. [`filter_band`] turns `r²` and `dim` into two `f32`
//! thresholds, `hit ≤ r²(1 − ε) − 2⁻¹⁰⁰` (rounded down) and
//! `miss ≥ r²(1 + ε) + 2⁻¹⁰⁰` (rounded up), with
//! `ε(dim) = (dim + 8)·2⁻²²`. A lane whose `f32` sum is at most `hit` is
//! counted, a lane whose sum exceeds `miss` is not, and the per-tile early
//! exit uses `miss`. A group with any valid lane between the two runs the
//! exact `f64` group kernel above instead, and so does every `r²` outside
//! `[0, 2¹⁰⁰]` (NaN and ∞ included) and every `dim` above
//! [`FILTER_MAX_DIM`].
//!
//! Why a decided lane is decided as the `f64` chain decides it:
//!
//! - **Same classes.** Boxes are finite (the `+∞` padding sentinels
//!   aside), so `lo − x` is NaN in `f32` exactly when it is in `f64` (a
//!   NaN centre or an `∞ − ∞` with a sentinel); an `f32` overflow gives
//!   `±∞`, never NaN. The `max` operand order is `group16_avx2`'s, so a
//!   NaN difference picks the same operand, and a NaN term becomes 0 in
//!   both. Otherwise each precision's term is its own rounding of the same
//!   real `max(max(lo − x, x − hi), 0)`, and rounding is monotone, so the
//!   terms are zero, positive or infinite together. No accumulator is
//!   ever NaN.
//! - **Same real sum.** Both chains approximate one real sum `T` of
//!   squared terms: each term is rounded once, squared and rounded, then
//!   added with at most `dim − 1` more roundings, so the relative error is
//!   at most `(dim + 2)·2⁻²⁴` in `f32` and `(dim + 2)·2⁻⁵³` in `f64`.
//!   `ε` is about four times the `f32` bound, which also covers the `f64`
//!   one. A nonzero `f64` term is at least `2⁻¹⁴⁹` (differences of `f32`
//!   values are multiples of it), so its square is a normal `f64`: the
//!   `f64` chain never underflows. The `f32` squares may underflow, by at
//!   most `2⁻¹⁵⁰` each, which the `2⁻¹⁰⁰` slack covers for any `dim` up to
//!   [`FILTER_MAX_DIM`].
//! - **Overflow.** An `f32` overflow (a difference, a square or a partial
//!   sum reaching `2¹²⁸`) means `T` is far above `2¹⁰⁰ ≥ r²`, so the
//!   lane is a miss in `f64` too, which is what an `∞` sum above `miss`
//!   says. `∞` sums from sentinels or infinite centres are misses in both.
//!
//! So `f32 sum ≤ hit` implies `T < r²(1 − ε)/(1 − 2⁻²⁴)^(dim+2)` and then
//! `f64 sum ≤ r²`; `f32 sum > miss` implies the `f64` sum exceeds `r²`.
//! Partial sums obey the same bounds, so the early exit is sound as well.
//! Each threshold is computed in `f64` (two roundings), rounded to the
//! nearest `f32` and then stepped one `f32` step outward, which more than
//! covers the three roundings. Counts therefore stay byte-identical to the
//! scalar path; only the k-NN expansion
//! ([`crate::LeafSoup::for_each_intersecting`]), which needs every passing
//! lane's MINDIST², runs the `f64` kernel on every group.
//!
//! ## Dispatch
//!
//! The active ISA is resolved once and cached, with precedence
//! **explicit force (the CLI's `--simd`) > `HDIDX_SIMD` env
//! (`auto|scalar|sse2|avx2`) > runtime detection** (AVX2 if
//! `is_x86_feature_detected!`, else SSE2 on `x86_64` — it is baseline —
//! else scalar). All `unsafe` is confined to `#[target_feature]` lane
//! primitives in the private `x86` module; the blocked drivers in
//! [`crate::soup`] and [`crate::knn`] and the moments kernel in
//! [`crate::stats`] are safe and shared by all ISAs.
//! Every kernel also has a `*_with(isa, ..)` variant so tests and benches
//! can pin an ISA without touching the process-global state.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Maximum `f64` lanes any supported ISA processes per group (AVX2).
pub const MAX_LANES: usize = 4;

/// Largest dimensionality the `f32` filter serves; `ε` stays at most 1/4.
pub const FILTER_MAX_DIM: usize = 1 << 20;

/// Largest `r²` the `f32` filter serves (`2¹⁰⁰`).
const FILTER_R2_MAX: f64 = f64::from_bits(0x4630_0000_0000_0000);

/// Absolute slack on both thresholds (`2⁻¹⁰⁰`): covers the `f32` squares'
/// underflow.
const FILTER_SLACK: f64 = f64::from_bits(0x39B0_0000_0000_0000);

/// The `f32` filter's thresholds for one ball (see the module doc): a lane
/// whose `f32` sum is at most `hit` intersects the ball, a lane whose sum
/// exceeds `miss` does not, and a lane in between is decided in `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterBand {
    /// At most `r²(1 − ε) − 2⁻¹⁰⁰`.
    pub hit: f32,
    /// At least `r²(1 + ε) + 2⁻¹⁰⁰`.
    pub miss: f32,
}

/// The filter's relative margin `ε(dim) = (dim + 8)·2⁻²²`, exact in `f64`.
#[must_use]
pub fn filter_eps(dim: usize) -> f64 {
    (dim + 8) as f64 / f64::from(1u32 << 22)
}

/// The [`FilterBand`] of squared radius `r2` in `dim` dimensions, or `None`
/// when the filter cannot decide any lane (every `r2` outside
/// `[0, 2¹⁰⁰]`, NaN and ∞ included, and `dim > FILTER_MAX_DIM`), so that
/// every lane goes to the exact `f64` kernel.
#[must_use]
pub fn filter_band(r2: f64, dim: usize) -> Option<FilterBand> {
    if !(0.0..=FILTER_R2_MAX).contains(&r2) || dim > FILTER_MAX_DIM {
        return None;
    }
    let eps = filter_eps(dim);
    let hit = r2 * (1.0 - eps) - FILTER_SLACK;
    let miss = r2 * (1.0 + eps) + FILTER_SLACK;
    Some(FilterBand {
        hit: (hit as f32).next_down(),
        miss: (miss as f32).next_up(),
    })
}

/// Instruction set implementing the geometry kernels. Ordered by
/// preference: detection picks the last supported variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Isa {
    /// Portable scalar kernels — the committed reference path.
    Scalar = 0,
    /// 2 × `f64` lanes (`x86_64` baseline, no detection needed).
    Sse2 = 1,
    /// 4 × `f64` lanes, runtime-detected.
    Avx2 = 2,
}

impl Isa {
    /// Every ISA, scalar first.
    pub const ALL: [Isa; 3] = [Isa::Scalar, Isa::Sse2, Isa::Avx2];

    /// Lower-case name, matching the `HDIDX_SIMD` / `--simd` spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Sse2 => "sse2",
            Isa::Avx2 => "avx2",
        }
    }

    /// `f64` lanes per vector register (1 for the scalar path).
    #[must_use]
    pub fn lanes(self) -> usize {
        match self {
            Isa::Scalar => 1,
            Isa::Sse2 => 2,
            Isa::Avx2 => 4,
        }
    }

    /// Whether this build/CPU can run the ISA's kernels. Scalar is always
    /// supported; SSE2 is part of the `x86_64` baseline; AVX2 is detected
    /// at runtime (the result is cached by `std`).
    #[must_use]
    pub fn is_supported(self) -> bool {
        match self {
            Isa::Scalar => true,
            Isa::Sse2 => cfg!(target_arch = "x86_64"),
            Isa::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
        }
    }

    fn from_tag(tag: u8) -> Isa {
        match tag {
            0 => Isa::Scalar,
            1 => Isa::Sse2,
            2 => Isa::Avx2,
            other => unreachable!("invalid Isa tag {other}"),
        }
    }
}

impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A user-facing ISA selection: a concrete ISA or auto-detection. This is
/// what `--simd` and `HDIDX_SIMD` parse into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Use the best ISA the CPU supports.
    Auto,
    /// Use exactly this ISA (rejected if unsupported).
    Fixed(Isa),
}

impl Choice {
    /// Parses `auto|scalar|sse2|avx2`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted spellings otherwise.
    pub fn parse(s: &str) -> Result<Choice, String> {
        match s {
            "auto" => Ok(Choice::Auto),
            "scalar" => Ok(Choice::Fixed(Isa::Scalar)),
            "sse2" => Ok(Choice::Fixed(Isa::Sse2)),
            "avx2" => Ok(Choice::Fixed(Isa::Avx2)),
            other => Err(format!(
                "unknown SIMD ISA {other:?} (expected auto, scalar, sse2 or avx2)"
            )),
        }
    }
}

/// The best ISA this CPU supports.
#[must_use]
pub fn detect() -> Isa {
    if Isa::Avx2.is_supported() {
        Isa::Avx2
    } else if Isa::Sse2.is_supported() {
        Isa::Sse2
    } else {
        Isa::Scalar
    }
}

/// Every ISA this CPU supports, scalar first — what identity tests and
/// per-ISA bench rows iterate over.
#[must_use]
pub fn supported() -> Vec<Isa> {
    Isa::ALL
        .iter()
        .copied()
        .filter(|isa| isa.is_supported())
        .collect()
}

/// `FORCED` holds `isa as u8 + 1`, 0 meaning "not forced".
static FORCED: AtomicU8 = AtomicU8::new(0);
/// Cached env/detection resolution with its provenance label.
static RESOLVED: OnceLock<(Isa, &'static str)> = OnceLock::new();

fn resolve_env() -> (Isa, &'static str) {
    match std::env::var("HDIDX_SIMD") {
        Err(_) => (detect(), "detected"),
        Ok(raw) => match Choice::parse(raw.trim()) {
            Ok(Choice::Auto) => (detect(), "env"),
            Ok(Choice::Fixed(isa)) => {
                assert!(
                    isa.is_supported(),
                    "HDIDX_SIMD={raw} requested but this CPU/build does not support {isa}"
                );
                (isa, "env")
            }
            Err(e) => panic!("HDIDX_SIMD: {e}"),
        },
    }
}

/// The ISA every dispatching kernel entry point uses. Precedence:
/// [`force`] > `HDIDX_SIMD` > [`detect`], resolved once and cached.
#[must_use]
pub fn active() -> Isa {
    match FORCED.load(Ordering::Relaxed) {
        0 => RESOLVED.get_or_init(resolve_env).0,
        tag => Isa::from_tag(tag - 1),
    }
}

/// Forces the active ISA (the CLI's `--simd`), overriding `HDIDX_SIMD`
/// and detection. `Choice::Auto` forces the detected ISA, so an explicit
/// `--simd auto` also overrides the env var, per the documented
/// flag > env > detect precedence.
///
/// # Errors
///
/// Rejects a concrete ISA the CPU/build does not support (forcing it
/// anyway would be undefined behavior, so this can never be a warning).
pub fn force(choice: Choice) -> Result<(), String> {
    let isa = match choice {
        Choice::Auto => detect(),
        Choice::Fixed(isa) => {
            if !isa.is_supported() {
                return Err(format!(
                    "--simd {isa}: this CPU/build does not support {isa}"
                ));
            }
            isa
        }
    };
    FORCED.store(isa as u8 + 1, Ordering::Relaxed);
    Ok(())
}

/// Human-readable active ISA with provenance, e.g. `avx2 (detected)`,
/// `scalar (env)` or `sse2 (forced)` — the line `serve`/`measure` reports
/// print so perf artifacts are comparable across machines.
#[must_use]
pub fn describe() -> String {
    if FORCED.load(Ordering::Relaxed) != 0 {
        format!("{} (forced)", active())
    } else {
        let &(isa, source) = RESOLVED.get_or_init(resolve_env);
        format!("{isa} ({source})")
    }
}

/// Hands `sink` one lane mask per lane group of the stripes, in stripe
/// order: `sink(base, mask, mindist2)` with bit `l` of `mask` set when
/// lane `base + l` has MINDIST² to `center` at most `r2`, and
/// `mindist2[l]` that lane's fully accumulated MINDIST² wherever bit `l`
/// is set (a group the kernel abandoned early has no bit set). `lo`/`hi`
/// are the padded column-major stripes of a [`crate::LeafSoup`]
/// (`lo[j * stride + i]`), `stride` a multiple of
/// [`crate::soup::LANE_PAD`]. Lanes `>= valid` (padding sentinels) are
/// never set: the final group's mask is masked down to the valid lanes,
/// so even a non-finite `r2` cannot report a sentinel. Counting
/// popcounts the masks; [`crate::LeafSoup::for_each_intersecting`]
/// walks their bits and hands on each lane's MINDIST².
///
/// # Panics
///
/// Panics when `isa` is scalar (the scalar path lives in
/// [`crate::LeafSoup`]) or unsupported, or on stripe-geometry mismatch.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn soup_group_masks(
    isa: Isa,
    lo: &[f32],
    hi: &[f32],
    stride: usize,
    valid: usize,
    center: &[f32],
    r2: f64,
    sink: impl FnMut(usize, u32, &[f64]),
) {
    check_soup_dispatch(isa, lo, hi, stride, valid, center.len());
    #[cfg(target_arch = "x86_64")]
    {
        match isa {
            Isa::Scalar => unreachable!("scalar dispatch handled by LeafSoup"),
            // SAFETY: `is_supported` was asserted above (SSE2 is baseline,
            // AVX2 runtime-detected) and the stripe geometry checks
            // guarantee every `j * stride + i .. + lanes` load is in
            // bounds because `stride % LANE_PAD == 0` and `valid <= stride`.
            Isa::Sse2 => unsafe { x86::group_masks_sse2(lo, hi, stride, valid, center, r2, sink) },
            Isa::Avx2 => unsafe { x86::group_masks_avx2(lo, hi, stride, valid, center, r2, sink) },
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (r2, sink);
        unreachable!("non-scalar ISA {isa} dispatched on a non-x86_64 build")
    }
}

/// The counting twin of [`soup_group_masks`]: `sink(base, mask)` per lane
/// group with the same masks, decided by the `f32` filter where it can
/// prove the decision and by the exact `f64` group kernel elsewhere, and
/// without the MINDIST²s.
///
/// # Panics
///
/// As [`soup_group_masks`].
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn soup_hit_masks(
    isa: Isa,
    lo: &[f32],
    hi: &[f32],
    stride: usize,
    valid: usize,
    center: &[f32],
    r2: f64,
    sink: impl FnMut(usize, u32),
) {
    check_soup_dispatch(isa, lo, hi, stride, valid, center.len());
    #[cfg(target_arch = "x86_64")]
    {
        let band = filter_band(r2, center.len());
        match isa {
            Isa::Scalar => unreachable!("scalar dispatch handled by LeafSoup"),
            // SAFETY: as in `soup_group_masks`.
            Isa::Sse2 => unsafe {
                x86::hit_masks_sse2(lo, hi, stride, valid, center, r2, band, sink)
            },
            Isa::Avx2 => unsafe {
                x86::hit_masks_avx2(lo, hi, stride, valid, center, r2, band, sink)
            },
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (r2, sink);
        unreachable!("non-scalar ISA {isa} dispatched on a non-x86_64 build")
    }
}

/// Batched counting over the same stripes as [`soup_group_masks`]:
/// `counts[q] +=` the number of lanes `i < valid` intersecting query `q`'s
/// ball. Queries are given as `(center, r²)` pairs; the group loop is
/// leaf-major with queries inner, so one group's stripe bytes are reused
/// by the whole query block while resident in L1. Each query's
/// [`FilterBand`] is derived once per call, next to its `r²`, and its
/// lanes are decided as in [`soup_hit_masks`].
pub(crate) fn soup_count_chunk(
    isa: Isa,
    lo: &[f32],
    hi: &[f32],
    stride: usize,
    valid: usize,
    queries: &[(&[f32], f64)],
    counts: &mut [u64],
) {
    let dim = queries.first().map_or(0, |&(c, _)| c.len());
    check_soup_dispatch(isa, lo, hi, stride, valid, dim);
    assert_eq!(queries.len(), counts.len(), "one count slot per query");
    #[cfg(target_arch = "x86_64")]
    {
        let bands: Vec<Option<FilterBand>> = queries
            .iter()
            .map(|&(center, r2)| filter_band(r2, center.len()))
            .collect();
        match isa {
            Isa::Scalar => unreachable!("scalar dispatch handled by LeafSoup"),
            // SAFETY: as in `soup_group_masks`.
            Isa::Sse2 => unsafe {
                x86::count_chunk_sse2(lo, hi, stride, valid, queries, &bands, counts)
            },
            Isa::Avx2 => unsafe {
                x86::count_chunk_avx2(lo, hi, stride, valid, queries, &bands, counts)
            },
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        unreachable!("non-scalar ISA {isa} dispatched on a non-x86_64 build")
    }
}

/// Early-abandon batched point distance for [`crate::knn::KBest`]:
/// `rows` holds `isa.lanes()` points, lane `l` owning `rows[l]`, each read
/// in place. Accumulates every lane's squared distance to `q` in
/// ascending dimension order (the exact `dist2_below` chain) and abandons
/// the whole group once every lane's partial sum satisfies `acc >= bound`.
///
/// Returns a lane bitmask of candidates with `!(d2 >= bound)` — the
/// scalar insertion predicate, including its NaN behavior — and writes
/// the fully accumulated `d2` of every lane into `out`. A zero mask may
/// mean "abandoned early", in which case `out` is not meaningful.
pub(crate) fn knn_group_below(
    isa: Isa,
    rows: &[&[f32]],
    q: &[f32],
    bound: f64,
    out: &mut [f64; MAX_LANES],
) -> u32 {
    assert!(
        isa.is_supported(),
        "ISA {isa} dispatched but not supported by this CPU/build"
    );
    assert!(
        rows.len() == isa.lanes() && rows.iter().all(|r| r.len() == q.len()),
        "rows must hold exactly isa.lanes() points of q's dimensionality"
    );
    #[cfg(target_arch = "x86_64")]
    {
        match isa {
            Isa::Scalar => unreachable!("scalar dispatch handled by KBest"),
            // SAFETY: support asserted above; the length checks bound
            // every `rows[l][j]` load.
            Isa::Sse2 => unsafe { x86::knn2_below_sse2(rows, q, bound, out) },
            Isa::Avx2 => unsafe { x86::knn4_below_avx2(rows, q, bound, out) },
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (rows, q, bound, out);
        unreachable!("non-scalar ISA {isa} dispatched on a non-x86_64 build")
    }
}

/// Per-dimension moments of the rows `ids` of the row-major `flat` buffer
/// of `dim`-wide points: the row-blocked, register-tiled kernel behind
/// [`crate::stats::dim_stats_with`], handing each panel of dimensions'
/// means and variances to `sink` in ascending dimension order. SSE2 runs the
/// baseline copy of the kernel, AVX2 its `#[target_feature]` copy.
///
/// # Panics
///
/// Panics when `isa` is scalar (the scalar path lives in
/// [`crate::stats`]) or unsupported, or when an id is out of range.
pub(crate) fn moments(
    isa: Isa,
    flat: &[f32],
    dim: usize,
    ids: &[u32],
    sink: impl FnMut(usize, &[f64], &[f64]),
) {
    assert!(
        isa.is_supported(),
        "ISA {isa} dispatched but not supported by this CPU/build"
    );
    match isa {
        Isa::Scalar => unreachable!("scalar dispatch handled by stats"),
        Isa::Sse2 => crate::stats::moments_tiled(flat, dim, ids, sink),
        // SAFETY: AVX2 support was asserted above; the kernel
        // itself is safe, bounds-checked code.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { x86::moments_avx2(flat, dim, ids, sink) },
        #[cfg(not(target_arch = "x86_64"))]
        Isa::Avx2 => unreachable!("AVX2 dispatched on a non-x86_64 build"),
    }
}

/// Shared stripe-geometry validation for the soup dispatchers.
fn check_soup_dispatch(isa: Isa, lo: &[f32], hi: &[f32], stride: usize, valid: usize, dim: usize) {
    assert!(
        isa.is_supported(),
        "ISA {isa} dispatched but not supported by this CPU/build"
    );
    assert!(
        stride.is_multiple_of(crate::soup::LANE_PAD) && valid <= stride,
        "stripe stride {stride} must be LANE_PAD-padded and cover valid {valid}"
    );
    assert!(
        lo.len() == dim * stride && hi.len() == dim * stride,
        "stripe arrays must hold dim * stride bounds"
    );
}

/// The `#[target_feature]` lane primitives. Everything `unsafe` lives
/// here; callers guarantee (a) the feature was detected and (b) the
/// stripe/row geometry asserted by the dispatchers above.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{FilterBand, MAX_LANES};
    use crate::soup::DIM_TILE;
    use core::arch::x86_64::*;

    /// Bitmask of the low `lanes` of a 16-lane group.
    #[inline]
    fn mask16(lanes: usize) -> u32 {
        if lanes >= 16 {
            0xFFFF
        } else {
            (1u32 << lanes) - 1
        }
    }

    /// Bitmask of the low `lanes` of an 8-lane group.
    #[inline]
    fn mask8(lanes: usize) -> u32 {
        if lanes >= 8 {
            0xFF
        } else {
            (1u32 << lanes) - 1
        }
    }

    /// One 16-leaf group against one ball: four 4-lane `f64` accumulator
    /// chains held in registers (interleaving four chains hides the
    /// `addpd` latency that would otherwise bound the kernel), dimensions
    /// ascending, early exit via movemask every [`DIM_TILE`] dims. Returns
    /// the group's lane mask (bit `l`: leaf `base + l` has MINDIST² at
    /// most `r2`), restricted to `lane_mask`; an early exit returns 0.
    /// When the mask is not 0, `out[l]` holds lane `l`'s MINDIST².
    ///
    /// # Safety
    ///
    /// AVX2 must be available and `lo`/`hi` must be readable at
    /// `j * stride + base + 0..16` for every `j < center.len()`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn group16_avx2(
        lo: *const f32,
        hi: *const f32,
        stride: usize,
        base: usize,
        center: &[f32],
        r2: f64,
        lane_mask: u32,
        out: &mut [f64; 16],
    ) -> u32 {
        let dim = center.len();
        let zero = _mm256_setzero_pd();
        let r2v = _mm256_set1_pd(r2);
        let (mut a0, mut a1, mut a2, mut a3) = (zero, zero, zero, zero);
        let mut j = 0usize;
        while j < dim {
            let tile_end = (j + DIM_TILE).min(dim);
            while j < tile_end {
                let x = _mm256_set1_pd(f64::from(*center.get_unchecked(j)));
                let p = j * stride + base;
                let l0 = _mm256_cvtps_pd(_mm_loadu_ps(lo.add(p)));
                let l1 = _mm256_cvtps_pd(_mm_loadu_ps(lo.add(p + 4)));
                let l2 = _mm256_cvtps_pd(_mm_loadu_ps(lo.add(p + 8)));
                let l3 = _mm256_cvtps_pd(_mm_loadu_ps(lo.add(p + 12)));
                let h0 = _mm256_cvtps_pd(_mm_loadu_ps(hi.add(p)));
                let h1 = _mm256_cvtps_pd(_mm_loadu_ps(hi.add(p + 4)));
                let h2 = _mm256_cvtps_pd(_mm_loadu_ps(hi.add(p + 8)));
                let h3 = _mm256_cvtps_pd(_mm_loadu_ps(hi.add(p + 12)));
                // Same operands as the scalar `(lo - x).max(x - hi).max(0.0)`;
                // the zero-sign ambiguity of `max` is erased by squaring and
                // `mul` + `add` stay separate ops (FMA would re-round).
                let d0 = _mm256_max_pd(
                    _mm256_max_pd(_mm256_sub_pd(l0, x), _mm256_sub_pd(x, h0)),
                    zero,
                );
                let d1 = _mm256_max_pd(
                    _mm256_max_pd(_mm256_sub_pd(l1, x), _mm256_sub_pd(x, h1)),
                    zero,
                );
                let d2 = _mm256_max_pd(
                    _mm256_max_pd(_mm256_sub_pd(l2, x), _mm256_sub_pd(x, h2)),
                    zero,
                );
                let d3 = _mm256_max_pd(
                    _mm256_max_pd(_mm256_sub_pd(l3, x), _mm256_sub_pd(x, h3)),
                    zero,
                );
                a0 = _mm256_add_pd(a0, _mm256_mul_pd(d0, d0));
                a1 = _mm256_add_pd(a1, _mm256_mul_pd(d1, d1));
                a2 = _mm256_add_pd(a2, _mm256_mul_pd(d2, d2));
                a3 = _mm256_add_pd(a3, _mm256_mul_pd(d3, d3));
                j += 1;
            }
            // All 16 lanes strictly above r² (ordered compare, NaN-safe like
            // the scalar `a > r2`): no later dimension can flip a decision.
            let g = _mm256_and_pd(
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_GT_OQ>(a0, r2v),
                    _mm256_cmp_pd::<_CMP_GT_OQ>(a1, r2v),
                ),
                _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_GT_OQ>(a2, r2v),
                    _mm256_cmp_pd::<_CMP_GT_OQ>(a3, r2v),
                ),
            );
            if _mm256_movemask_pd(g) == 0b1111 {
                return 0;
            }
        }
        let m0 = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(a0, r2v)) as u32;
        let m1 = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(a1, r2v)) as u32;
        let m2 = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(a2, r2v)) as u32;
        let m3 = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(a3, r2v)) as u32;
        let mask = (m0 | (m1 << 4) | (m2 << 8) | (m3 << 12)) & lane_mask;
        if mask != 0 {
            let o = out.as_mut_ptr();
            _mm256_storeu_pd(o, a0);
            _mm256_storeu_pd(o.add(4), a1);
            _mm256_storeu_pd(o.add(8), a2);
            _mm256_storeu_pd(o.add(12), a3);
        }
        mask
    }

    /// One 8-leaf group against one ball on SSE2: four 2-lane chains,
    /// returning the lane mask and MINDIST²s as [`group16_avx2`] does.
    ///
    /// # Safety
    ///
    /// `lo`/`hi` must be readable at `j * stride + base + 0..8` for every
    /// `j < center.len()` (SSE2 itself is `x86_64` baseline).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn group8_sse2(
        lo: *const f32,
        hi: *const f32,
        stride: usize,
        base: usize,
        center: &[f32],
        r2: f64,
        lane_mask: u32,
        out: &mut [f64; 8],
    ) -> u32 {
        #[inline(always)]
        unsafe fn load2(p: *const f32) -> __m128d {
            _mm_cvtps_pd(_mm_castsi128_ps(_mm_loadl_epi64(p as *const __m128i)))
        }
        let dim = center.len();
        let zero = _mm_setzero_pd();
        let r2v = _mm_set1_pd(r2);
        let (mut a0, mut a1, mut a2, mut a3) = (zero, zero, zero, zero);
        let mut j = 0usize;
        while j < dim {
            let tile_end = (j + DIM_TILE).min(dim);
            while j < tile_end {
                let x = _mm_set1_pd(f64::from(*center.get_unchecked(j)));
                let p = j * stride + base;
                let l0 = load2(lo.add(p));
                let l1 = load2(lo.add(p + 2));
                let l2 = load2(lo.add(p + 4));
                let l3 = load2(lo.add(p + 6));
                let h0 = load2(hi.add(p));
                let h1 = load2(hi.add(p + 2));
                let h2 = load2(hi.add(p + 4));
                let h3 = load2(hi.add(p + 6));
                let d0 = _mm_max_pd(_mm_max_pd(_mm_sub_pd(l0, x), _mm_sub_pd(x, h0)), zero);
                let d1 = _mm_max_pd(_mm_max_pd(_mm_sub_pd(l1, x), _mm_sub_pd(x, h1)), zero);
                let d2 = _mm_max_pd(_mm_max_pd(_mm_sub_pd(l2, x), _mm_sub_pd(x, h2)), zero);
                let d3 = _mm_max_pd(_mm_max_pd(_mm_sub_pd(l3, x), _mm_sub_pd(x, h3)), zero);
                a0 = _mm_add_pd(a0, _mm_mul_pd(d0, d0));
                a1 = _mm_add_pd(a1, _mm_mul_pd(d1, d1));
                a2 = _mm_add_pd(a2, _mm_mul_pd(d2, d2));
                a3 = _mm_add_pd(a3, _mm_mul_pd(d3, d3));
                j += 1;
            }
            let g = _mm_and_pd(
                _mm_and_pd(_mm_cmpgt_pd(a0, r2v), _mm_cmpgt_pd(a1, r2v)),
                _mm_and_pd(_mm_cmpgt_pd(a2, r2v), _mm_cmpgt_pd(a3, r2v)),
            );
            if _mm_movemask_pd(g) == 0b11 {
                return 0;
            }
        }
        let m0 = _mm_movemask_pd(_mm_cmple_pd(a0, r2v)) as u32;
        let m1 = _mm_movemask_pd(_mm_cmple_pd(a1, r2v)) as u32;
        let m2 = _mm_movemask_pd(_mm_cmple_pd(a2, r2v)) as u32;
        let m3 = _mm_movemask_pd(_mm_cmple_pd(a3, r2v)) as u32;
        let mask = (m0 | (m1 << 2) | (m2 << 4) | (m3 << 6)) & lane_mask;
        if mask != 0 {
            let o = out.as_mut_ptr();
            _mm_storeu_pd(o, a0);
            _mm_storeu_pd(o.add(2), a1);
            _mm_storeu_pd(o.add(4), a2);
            _mm_storeu_pd(o.add(6), a3);
        }
        mask
    }

    /// The `f32` filter pass of one 16-leaf group (module doc, "the `f32`
    /// filter"): two 8-lane `f32` chains over `group16_avx2`'s operands,
    /// the early exit after each [`DIM_TILE`] on `band.miss`. Returns the
    /// group's hit mask restricted to `lane_mask`, or `None` when a lane of
    /// `lane_mask` ends between `band.hit` and `band.miss`.
    ///
    /// # Safety
    ///
    /// As [`group16_avx2`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn filter16_avx2(
        lo: *const f32,
        hi: *const f32,
        stride: usize,
        base: usize,
        center: &[f32],
        band: FilterBand,
        lane_mask: u32,
    ) -> Option<u32> {
        let dim = center.len();
        let zero = _mm256_setzero_ps();
        let missv = _mm256_set1_ps(band.miss);
        let (mut a0, mut a1) = (zero, zero);
        let mut j = 0usize;
        while j < dim {
            let tile_end = (j + DIM_TILE).min(dim);
            while j < tile_end {
                let x = _mm256_set1_ps(*center.get_unchecked(j));
                let p = j * stride + base;
                let l0 = _mm256_loadu_ps(lo.add(p));
                let l1 = _mm256_loadu_ps(lo.add(p + 8));
                let h0 = _mm256_loadu_ps(hi.add(p));
                let h1 = _mm256_loadu_ps(hi.add(p + 8));
                let d0 = _mm256_max_ps(
                    _mm256_max_ps(_mm256_sub_ps(l0, x), _mm256_sub_ps(x, h0)),
                    zero,
                );
                let d1 = _mm256_max_ps(
                    _mm256_max_ps(_mm256_sub_ps(l1, x), _mm256_sub_ps(x, h1)),
                    zero,
                );
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(d0, d0));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(d1, d1));
                j += 1;
            }
            let g = _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_GT_OQ>(a0, missv),
                _mm256_cmp_ps::<_CMP_GT_OQ>(a1, missv),
            );
            if _mm256_movemask_ps(g) == 0xFF {
                return Some(0);
            }
        }
        let hitv = _mm256_set1_ps(band.hit);
        let hit = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(a0, hitv)) as u32
            | (_mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(a1, hitv)) as u32) << 8;
        let miss = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(a0, missv)) as u32
            | (_mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(a1, missv)) as u32) << 8;
        (lane_mask & !(hit | miss) == 0).then_some(hit & lane_mask)
    }

    /// The `f32` filter pass of one 8-leaf group on SSE2: two 4-lane `f32`
    /// chains, returning as [`filter16_avx2`] does.
    ///
    /// # Safety
    ///
    /// As [`group8_sse2`].
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn filter8_sse2(
        lo: *const f32,
        hi: *const f32,
        stride: usize,
        base: usize,
        center: &[f32],
        band: FilterBand,
        lane_mask: u32,
    ) -> Option<u32> {
        let dim = center.len();
        let zero = _mm_setzero_ps();
        let missv = _mm_set1_ps(band.miss);
        let (mut a0, mut a1) = (zero, zero);
        let mut j = 0usize;
        while j < dim {
            let tile_end = (j + DIM_TILE).min(dim);
            while j < tile_end {
                let x = _mm_set1_ps(*center.get_unchecked(j));
                let p = j * stride + base;
                let l0 = _mm_loadu_ps(lo.add(p));
                let l1 = _mm_loadu_ps(lo.add(p + 4));
                let h0 = _mm_loadu_ps(hi.add(p));
                let h1 = _mm_loadu_ps(hi.add(p + 4));
                let d0 = _mm_max_ps(_mm_max_ps(_mm_sub_ps(l0, x), _mm_sub_ps(x, h0)), zero);
                let d1 = _mm_max_ps(_mm_max_ps(_mm_sub_ps(l1, x), _mm_sub_ps(x, h1)), zero);
                a0 = _mm_add_ps(a0, _mm_mul_ps(d0, d0));
                a1 = _mm_add_ps(a1, _mm_mul_ps(d1, d1));
                j += 1;
            }
            let g = _mm_and_ps(_mm_cmpgt_ps(a0, missv), _mm_cmpgt_ps(a1, missv));
            if _mm_movemask_ps(g) == 0xF {
                return Some(0);
            }
        }
        let hitv = _mm_set1_ps(band.hit);
        let hit = _mm_movemask_ps(_mm_cmple_ps(a0, hitv)) as u32
            | (_mm_movemask_ps(_mm_cmple_ps(a1, hitv)) as u32) << 4;
        let miss = _mm_movemask_ps(_mm_cmpgt_ps(a0, missv)) as u32
            | (_mm_movemask_ps(_mm_cmpgt_ps(a1, missv)) as u32) << 4;
        (lane_mask & !(hit | miss) == 0).then_some(hit & lane_mask)
    }

    /// One 16-leaf group's hit mask: the `f32` filter where `band` lets it
    /// decide every lane, the exact [`group16_avx2`] otherwise.
    ///
    /// # Safety
    ///
    /// As [`group16_avx2`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn hits16_avx2(
        lo: *const f32,
        hi: *const f32,
        stride: usize,
        base: usize,
        center: &[f32],
        r2: f64,
        band: Option<FilterBand>,
        lane_mask: u32,
    ) -> u32 {
        if let Some(band) = band {
            if let Some(mask) = filter16_avx2(lo, hi, stride, base, center, band, lane_mask) {
                return mask;
            }
        }
        let mut d2 = [0.0f64; 16];
        group16_avx2(lo, hi, stride, base, center, r2, lane_mask, &mut d2)
    }

    /// One 8-leaf group's hit mask on SSE2, as [`hits16_avx2`].
    ///
    /// # Safety
    ///
    /// As [`group8_sse2`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "sse2")]
    #[inline]
    unsafe fn hits8_sse2(
        lo: *const f32,
        hi: *const f32,
        stride: usize,
        base: usize,
        center: &[f32],
        r2: f64,
        band: Option<FilterBand>,
        lane_mask: u32,
    ) -> u32 {
        if let Some(band) = band {
            if let Some(mask) = filter8_sse2(lo, hi, stride, base, center, band, lane_mask) {
                return mask;
            }
        }
        let mut d2 = [0.0f64; 8];
        group8_sse2(lo, hi, stride, base, center, r2, lane_mask, &mut d2)
    }

    /// Every 16-lane group's hit mask, in stripe order, through
    /// [`hits16_avx2`].
    ///
    /// # Safety
    ///
    /// As [`group_masks_avx2`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn hit_masks_avx2(
        lo: &[f32],
        hi: &[f32],
        stride: usize,
        valid: usize,
        center: &[f32],
        r2: f64,
        band: Option<FilterBand>,
        mut sink: impl FnMut(usize, u32),
    ) {
        let mut i = 0usize;
        while i < valid {
            let mask = mask16(valid - i);
            sink(
                i,
                hits16_avx2(lo.as_ptr(), hi.as_ptr(), stride, i, center, r2, band, mask),
            );
            i += 16;
        }
    }

    /// Every 8-lane group's hit mask, in stripe order, through
    /// [`hits8_sse2`].
    ///
    /// # Safety
    ///
    /// As [`group_masks_sse2`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "sse2")]
    #[inline]
    pub unsafe fn hit_masks_sse2(
        lo: &[f32],
        hi: &[f32],
        stride: usize,
        valid: usize,
        center: &[f32],
        r2: f64,
        band: Option<FilterBand>,
        mut sink: impl FnMut(usize, u32),
    ) {
        let mut i = 0usize;
        while i < valid {
            let mask = mask8(valid - i);
            sink(
                i,
                hits8_sse2(lo.as_ptr(), hi.as_ptr(), stride, i, center, r2, band, mask),
            );
            i += 8;
        }
    }

    /// Every 16-lane group's mask and MINDIST²s, in stripe order.
    ///
    /// # Safety
    ///
    /// AVX2 detected; stripe geometry as asserted by the dispatcher
    /// (`stride % 16 == 0`, arrays of `dim * stride`, `valid <= stride`).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn group_masks_avx2(
        lo: &[f32],
        hi: &[f32],
        stride: usize,
        valid: usize,
        center: &[f32],
        r2: f64,
        mut sink: impl FnMut(usize, u32, &[f64]),
    ) {
        let mut d2 = [0.0f64; 16];
        let mut i = 0usize;
        while i < valid {
            let lanes = valid - i;
            let mask = group16_avx2(
                lo.as_ptr(),
                hi.as_ptr(),
                stride,
                i,
                center,
                r2,
                mask16(lanes),
                &mut d2,
            );
            sink(i, mask, &d2);
            i += 16;
        }
    }

    /// Every 8-lane group's mask and MINDIST²s, in stripe order.
    ///
    /// # Safety
    ///
    /// Stripe geometry as asserted by the dispatcher (`stride % 8 == 0`
    /// suffices for the 8-lane groups).
    #[target_feature(enable = "sse2")]
    #[inline]
    pub unsafe fn group_masks_sse2(
        lo: &[f32],
        hi: &[f32],
        stride: usize,
        valid: usize,
        center: &[f32],
        r2: f64,
        mut sink: impl FnMut(usize, u32, &[f64]),
    ) {
        let mut d2 = [0.0f64; 8];
        let mut i = 0usize;
        while i < valid {
            let lanes = valid - i;
            let mask = group8_sse2(
                lo.as_ptr(),
                hi.as_ptr(),
                stride,
                i,
                center,
                r2,
                mask8(lanes),
                &mut d2,
            );
            sink(i, mask, &d2);
            i += 8;
        }
    }

    /// Batched counting, leaf-group-major with queries inner so one
    /// group's stripe bytes (2 · dim cache lines) serve the whole query
    /// block from L1 — the large-leaf-count tiling fix.
    ///
    /// # Safety
    ///
    /// As [`group_masks_avx2`]; `counts` and `bands` are as long as
    /// `queries`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_chunk_avx2(
        lo: &[f32],
        hi: &[f32],
        stride: usize,
        valid: usize,
        queries: &[(&[f32], f64)],
        bands: &[Option<FilterBand>],
        counts: &mut [u64],
    ) {
        let mut i = 0usize;
        while i < valid {
            let mask = mask16(valid - i);
            for ((slot, &(center, r2)), &band) in counts.iter_mut().zip(queries).zip(bands) {
                let hits = hits16_avx2(lo.as_ptr(), hi.as_ptr(), stride, i, center, r2, band, mask);
                *slot += u64::from(hits.count_ones());
            }
            i += 16;
        }
    }

    /// # Safety
    ///
    /// As [`group_masks_sse2`]; `counts` and `bands` are as long as
    /// `queries`.
    #[target_feature(enable = "sse2")]
    pub unsafe fn count_chunk_sse2(
        lo: &[f32],
        hi: &[f32],
        stride: usize,
        valid: usize,
        queries: &[(&[f32], f64)],
        bands: &[Option<FilterBand>],
        counts: &mut [u64],
    ) {
        let mut i = 0usize;
        while i < valid {
            let mask = mask8(valid - i);
            for ((slot, &(center, r2)), &band) in counts.iter_mut().zip(queries).zip(bands) {
                let hits = hits8_sse2(lo.as_ptr(), hi.as_ptr(), stride, i, center, r2, band, mask);
                *slot += u64::from(hits.count_ones());
            }
            i += 8;
        }
    }

    /// The moments kernel compiled for AVX2: a 16-dimension tile's
    /// accumulators live in four `ymm` registers across a row block.
    ///
    /// # Safety
    ///
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn moments_avx2(
        flat: &[f32],
        dim: usize,
        ids: &[u32],
        sink: impl FnMut(usize, &[f64], &[f64]),
    ) {
        crate::stats::moments_tiled(flat, dim, ids, sink);
    }

    /// Four candidate points against one query with early abandon.
    ///
    /// # Safety
    ///
    /// AVX2 detected; `rows.len() == 4` and every row is `q.len()` long.
    #[target_feature(enable = "avx2")]
    pub unsafe fn knn4_below_avx2(
        rows: &[&[f32]],
        q: &[f32],
        bound: f64,
        out: &mut [f64; MAX_LANES],
    ) -> u32 {
        let dim = q.len();
        let (r0, r1, r2, r3) = (
            rows[0].as_ptr(),
            rows[1].as_ptr(),
            rows[2].as_ptr(),
            rows[3].as_ptr(),
        );
        let bv = _mm256_set1_pd(bound);
        let mut acc = _mm256_setzero_pd();
        let mut j = 0usize;
        while j < dim {
            let tile_end = (j + DIM_TILE).min(dim);
            while j < tile_end {
                // Lane l owns point l, read in place: the four scalar
                // loads transpose on the fly; each lane's f64 chain is the
                // scalar `dist2_below` chain verbatim.
                let v =
                    _mm256_cvtps_pd(_mm_setr_ps(*r0.add(j), *r1.add(j), *r2.add(j), *r3.add(j)));
                let qv = _mm256_set1_pd(f64::from(*q.get_unchecked(j)));
                let d = _mm256_sub_pd(v, qv);
                acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
                j += 1;
            }
            if _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(acc, bv)) == 0b1111 {
                return 0;
            }
        }
        let mut vals = [0.0f64; MAX_LANES];
        _mm256_storeu_pd(vals.as_mut_ptr(), acc);
        *out = vals;
        // NGE (unordered quiet) is exactly the scalar insertion predicate
        // `!(d2 >= bound)`, NaN lanes included.
        _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_NGE_UQ>(acc, bv)) as u32
    }

    /// Two candidate points against one query with early abandon.
    ///
    /// # Safety
    ///
    /// `rows.len() == 2` and every row is `q.len()` long.
    #[target_feature(enable = "sse2")]
    pub unsafe fn knn2_below_sse2(
        rows: &[&[f32]],
        q: &[f32],
        bound: f64,
        out: &mut [f64; MAX_LANES],
    ) -> u32 {
        let dim = q.len();
        let (r0, r1) = (rows[0].as_ptr(), rows[1].as_ptr());
        let bv = _mm_set1_pd(bound);
        let mut acc = _mm_setzero_pd();
        let mut j = 0usize;
        while j < dim {
            let tile_end = (j + DIM_TILE).min(dim);
            while j < tile_end {
                let v = _mm_setr_pd(f64::from(*r0.add(j)), f64::from(*r1.add(j)));
                let qv = _mm_set1_pd(f64::from(*q.get_unchecked(j)));
                let d = _mm_sub_pd(v, qv);
                acc = _mm_add_pd(acc, _mm_mul_pd(d, d));
                j += 1;
            }
            if _mm_movemask_pd(_mm_cmpge_pd(acc, bv)) == 0b11 {
                return 0;
            }
        }
        let mut vals = [0.0f64; 2];
        _mm_storeu_pd(vals.as_mut_ptr(), acc);
        out[0] = vals[0];
        out[1] = vals[1];
        _mm_movemask_pd(_mm_cmpnge_pd(acc, bv)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_parses_every_spelling_and_rejects_junk() {
        assert_eq!(Choice::parse("auto"), Ok(Choice::Auto));
        assert_eq!(Choice::parse("scalar"), Ok(Choice::Fixed(Isa::Scalar)));
        assert_eq!(Choice::parse("sse2"), Ok(Choice::Fixed(Isa::Sse2)));
        assert_eq!(Choice::parse("avx2"), Ok(Choice::Fixed(Isa::Avx2)));
        let err = Choice::parse("neon").unwrap_err();
        assert!(err.contains("neon") && err.contains("avx2"), "{err}");
    }

    #[test]
    fn detection_is_coherent() {
        // Scalar is always supported and always listed first.
        assert!(Isa::Scalar.is_supported());
        let sup = supported();
        assert_eq!(sup[0], Isa::Scalar);
        // The detected ISA is the best supported one.
        let det = detect();
        assert!(det.is_supported());
        assert_eq!(sup.last().copied(), Some(det));
        // Lane widths are what the kernels assume.
        assert_eq!(
            (Isa::Scalar.lanes(), Isa::Sse2.lanes(), Isa::Avx2.lanes()),
            (1, 2, 4)
        );
        assert!(Isa::ALL.iter().all(|i| i.lanes() <= MAX_LANES));
        #[cfg(target_arch = "x86_64")]
        assert!(Isa::Sse2.is_supported(), "SSE2 is x86_64 baseline");
    }

    #[test]
    fn force_overrides_and_describe_reports_provenance() {
        // Keep every assertion about the process-global override in this
        // one test: tests run concurrently and `force` is global.
        force(Choice::Fixed(Isa::Scalar)).unwrap();
        assert_eq!(active(), Isa::Scalar);
        assert_eq!(describe(), "scalar (forced)");
        force(Choice::Auto).unwrap();
        assert_eq!(active(), detect());
        assert_eq!(describe(), format!("{} (forced)", detect()));
    }

    #[test]
    fn display_matches_cli_spelling() {
        for isa in Isa::ALL {
            assert_eq!(Choice::parse(isa.name()), Ok(Choice::Fixed(isa)));
            assert_eq!(format!("{isa}"), isa.name());
        }
    }
}
