//! Runtime-dispatched SIMD lanes for the hot geometry kernels.
//!
//! The predictors and the serve path spend their CPU time in two inner
//! loops: MINDIST² accumulation over [`crate::LeafSoup`] stripes and the
//! early-abandon point-distance kernel behind [`crate::knn::KBest`].
//! This module gives both explicit `core::arch` lanes (SSE2 and AVX2 on
//! `x86_64`, detected at runtime; a portable scalar fallback everywhere
//! else) with **zero external dependencies**.
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
//!
//! ## Dispatch
//!
//! The active ISA is resolved once and cached, with precedence
//! **explicit force (the CLI's `--simd`) > `HDIDX_SIMD` env
//! (`auto|scalar|sse2|avx2`) > runtime detection** (AVX2 if
//! `is_x86_feature_detected!`, else SSE2 on `x86_64` — it is baseline —
//! else scalar). All `unsafe` is confined to `#[target_feature]` lane
//! primitives in the private `x86` module; the blocked drivers in
//! [`crate::soup`] and [`crate::knn`] are safe and shared by all ISAs.
//! Every kernel also has a `*_with(isa, ..)` variant so tests and benches
//! can pin an ISA without touching the process-global state.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Maximum `f64` lanes any supported ISA processes per group (AVX2).
pub const MAX_LANES: usize = 4;

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

/// Counts stripe lanes `i < valid` whose MINDIST² to `center` is at most
/// `r2`. `lo`/`hi` are the padded column-major stripes of a
/// [`crate::LeafSoup`] (`lo[j * stride + i]`), `stride` a multiple of
/// [`crate::soup::LANE_PAD`]. Lanes `>= valid` (sentinels or
/// beyond-prefix leaves) never contribute to the count: the final group's
/// movemask is masked down to the valid lanes, so even a non-finite `r2`
/// cannot count a sentinel.
///
/// # Panics
///
/// Panics when `isa` is scalar (the scalar path lives in
/// [`crate::LeafSoup`]) or unsupported, or on stripe-geometry mismatch.
pub(crate) fn soup_count_prefix(
    isa: Isa,
    lo: &[f32],
    hi: &[f32],
    stride: usize,
    valid: usize,
    center: &[f32],
    r2: f64,
) -> u64 {
    check_soup_dispatch(isa, lo, hi, stride, valid, center.len());
    #[cfg(target_arch = "x86_64")]
    {
        match isa {
            Isa::Scalar => unreachable!("scalar dispatch handled by LeafSoup"),
            // SAFETY: `is_supported` was asserted above (SSE2 is baseline,
            // AVX2 runtime-detected) and the stripe geometry checks
            // guarantee every `j * stride + i .. + lanes` load is in
            // bounds because `stride % LANE_PAD == 0` and `valid <= stride`.
            Isa::Sse2 => unsafe { x86::count_prefix_sse2(lo, hi, stride, valid, center, r2) },
            Isa::Avx2 => unsafe { x86::count_prefix_avx2(lo, hi, stride, valid, center, r2) },
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        unreachable!("non-scalar ISA {isa} dispatched on a non-x86_64 build")
    }
}

/// Batched variant of [`soup_count_prefix`]: `counts[q] +=` the number of
/// lanes `i < valid` intersecting query `q`'s ball. Queries are given as
/// `(center, r²)` pairs; the group loop is leaf-major with queries inner,
/// so one group's stripe bytes are reused by the whole query block while
/// resident in L1.
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
        match isa {
            Isa::Scalar => unreachable!("scalar dispatch handled by LeafSoup"),
            // SAFETY: as in `soup_count_prefix`.
            Isa::Sse2 => unsafe { x86::count_chunk_sse2(lo, hi, stride, valid, queries, counts) },
            Isa::Avx2 => unsafe { x86::count_chunk_avx2(lo, hi, stride, valid, queries, counts) },
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        unreachable!("non-scalar ISA {isa} dispatched on a non-x86_64 build")
    }
}

/// Early-abandon batched point distance for [`crate::knn::KBest`]:
/// `rows` holds `isa.lanes()` consecutive row-major points, lane `l`
/// owning `rows[l * dim ..][..dim]`. Accumulates every lane's squared
/// distance to `q` in ascending dimension order (the exact
/// `dist2_below` chain) and abandons the whole group once every lane's
/// partial sum satisfies `acc >= bound`.
///
/// Returns a lane bitmask of candidates with `!(d2 >= bound)` — the
/// scalar insertion predicate, including its NaN behavior — and writes
/// the fully accumulated `d2` of every lane into `out`. A zero mask may
/// mean "abandoned early", in which case `out` is not meaningful.
pub(crate) fn knn_group_below(
    isa: Isa,
    rows: &[f32],
    q: &[f32],
    bound: f64,
    out: &mut [f64; MAX_LANES],
) -> u32 {
    assert!(
        isa.is_supported(),
        "ISA {isa} dispatched but not supported by this CPU/build"
    );
    assert_eq!(
        rows.len(),
        isa.lanes() * q.len(),
        "rows must hold exactly isa.lanes() points"
    );
    #[cfg(target_arch = "x86_64")]
    {
        match isa {
            Isa::Scalar => unreachable!("scalar dispatch handled by KBest"),
            // SAFETY: support asserted above; the length check bounds
            // every `l * dim + j` load.
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
    use super::MAX_LANES;
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
    /// ascending, early exit via movemask every [`DIM_TILE`] dims.
    ///
    /// # Safety
    ///
    /// AVX2 must be available and `lo`/`hi` must be readable at
    /// `j * stride + base + 0..16` for every `j < center.len()`.
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
        ((m0 | (m1 << 4) | (m2 << 8) | (m3 << 12)) & lane_mask).count_ones()
    }

    /// One 8-leaf group against one ball on SSE2: four 2-lane chains.
    ///
    /// # Safety
    ///
    /// `lo`/`hi` must be readable at `j * stride + base + 0..8` for every
    /// `j < center.len()` (SSE2 itself is `x86_64` baseline).
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
        ((m0 | (m1 << 2) | (m2 << 4) | (m3 << 6)) & lane_mask).count_ones()
    }

    /// # Safety
    ///
    /// AVX2 detected; stripe geometry as asserted by the dispatcher
    /// (`stride % 16 == 0`, arrays of `dim * stride`, `valid <= stride`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_prefix_avx2(
        lo: &[f32],
        hi: &[f32],
        stride: usize,
        valid: usize,
        center: &[f32],
        r2: f64,
    ) -> u64 {
        let mut total = 0u64;
        let mut i = 0usize;
        while i < valid {
            let lanes = valid - i;
            total += u64::from(group16_avx2(
                lo.as_ptr(),
                hi.as_ptr(),
                stride,
                i,
                center,
                r2,
                mask16(lanes),
            ));
            i += 16;
        }
        total
    }

    /// # Safety
    ///
    /// Stripe geometry as asserted by the dispatcher (`stride % 8 == 0`
    /// suffices for the 8-lane groups).
    #[target_feature(enable = "sse2")]
    pub unsafe fn count_prefix_sse2(
        lo: &[f32],
        hi: &[f32],
        stride: usize,
        valid: usize,
        center: &[f32],
        r2: f64,
    ) -> u64 {
        let mut total = 0u64;
        let mut i = 0usize;
        while i < valid {
            let lanes = valid - i;
            total += u64::from(group8_sse2(
                lo.as_ptr(),
                hi.as_ptr(),
                stride,
                i,
                center,
                r2,
                mask8(lanes),
            ));
            i += 8;
        }
        total
    }

    /// Batched counting, leaf-group-major with queries inner so one
    /// group's stripe bytes (2 · dim cache lines) serve the whole query
    /// block from L1 — the large-leaf-count tiling fix.
    ///
    /// # Safety
    ///
    /// As [`count_prefix_avx2`]; `counts.len() == queries.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_chunk_avx2(
        lo: &[f32],
        hi: &[f32],
        stride: usize,
        valid: usize,
        queries: &[(&[f32], f64)],
        counts: &mut [u64],
    ) {
        let mut i = 0usize;
        while i < valid {
            let mask = mask16(valid - i);
            for (slot, &(center, r2)) in counts.iter_mut().zip(queries) {
                *slot += u64::from(group16_avx2(
                    lo.as_ptr(),
                    hi.as_ptr(),
                    stride,
                    i,
                    center,
                    r2,
                    mask,
                ));
            }
            i += 16;
        }
    }

    /// # Safety
    ///
    /// As [`count_prefix_sse2`]; `counts.len() == queries.len()`.
    #[target_feature(enable = "sse2")]
    pub unsafe fn count_chunk_sse2(
        lo: &[f32],
        hi: &[f32],
        stride: usize,
        valid: usize,
        queries: &[(&[f32], f64)],
        counts: &mut [u64],
    ) {
        let mut i = 0usize;
        while i < valid {
            let mask = mask8(valid - i);
            for (slot, &(center, r2)) in counts.iter_mut().zip(queries) {
                *slot += u64::from(group8_sse2(
                    lo.as_ptr(),
                    hi.as_ptr(),
                    stride,
                    i,
                    center,
                    r2,
                    mask,
                ));
            }
            i += 8;
        }
    }

    /// Four candidate points against one query with early abandon.
    ///
    /// # Safety
    ///
    /// AVX2 detected; `rows.len() == 4 * q.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn knn4_below_avx2(
        rows: &[f32],
        q: &[f32],
        bound: f64,
        out: &mut [f64; MAX_LANES],
    ) -> u32 {
        let dim = q.len();
        let r = rows.as_ptr();
        let bv = _mm256_set1_pd(bound);
        let mut acc = _mm256_setzero_pd();
        let mut j = 0usize;
        while j < dim {
            let tile_end = (j + DIM_TILE).min(dim);
            while j < tile_end {
                // Lane l owns point l: the strided f32 loads transpose on
                // the fly; each lane's f64 chain is the scalar
                // `dist2_below` chain verbatim.
                let v = _mm256_cvtps_pd(_mm_setr_ps(
                    *r.add(j),
                    *r.add(dim + j),
                    *r.add(2 * dim + j),
                    *r.add(3 * dim + j),
                ));
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
    /// `rows.len() == 2 * q.len()`.
    #[target_feature(enable = "sse2")]
    pub unsafe fn knn2_below_sse2(
        rows: &[f32],
        q: &[f32],
        bound: f64,
        out: &mut [f64; MAX_LANES],
    ) -> u32 {
        let dim = q.len();
        let r = rows.as_ptr();
        let bv = _mm_set1_pd(bound);
        let mut acc = _mm_setzero_pd();
        let mut j = 0usize;
        while j < dim {
            let tile_end = (j + DIM_TILE).min(dim);
            while j < tile_end {
                let v = _mm_setr_pd(f64::from(*r.add(j)), f64::from(*r.add(dim + j)));
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
