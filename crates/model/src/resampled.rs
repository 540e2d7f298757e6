//! The §4.4 **resampled index tree**: the paper's flagship predictor.
//!
//! After the upper phase, a second Bernoulli sample at rate
//! `σ_lower = min(k·M/N, 1)` is drawn during one more scan. Every resampled
//! point is assigned to the grown upper-tree leaf box that contains it — or
//! to the nearest box by Euclidean MINDIST, growing that box to cover the
//! point (the paper's Figure 6). Points are spooled to `k` consecutive disk
//! areas (one per box) through an `M`-point memory window (Figure 8's
//! chunked pattern). Each area is then read back and its lower tree is
//! bulk-loaded entirely in memory at the `k`-fold increased sampling rate;
//! the lower-tree data pages are grown by `δ(C_eff,data, σ_lower)` and the
//! query spheres are counted against them.
//!
//! The I/O is measured by running the actual access pattern through the
//! simulated disk — the paper's Eq. (5) closed form for the same quantity
//! lives in [`crate::cost`] and the two are compared in tests.

use crate::compensation::growth_factor;
use crate::cutoff::synthesize_pages;
use crate::hupper::sigma_lower;
use crate::predictor::Predictor;
use crate::upper::build_upper_phase;
use crate::{DegradedReport, Prediction, QueryBall};
use hdidx_core::{Dataset, HyperRect, LeafSoup, Result};
use hdidx_diskio::{Disk, DiskOptions, IoStats};
use hdidx_faults::{FaultConfig, FaultEvent, FaultPhase};
use hdidx_pool::Pool;
use hdidx_rand::{bernoulli_sample, seeded};
use hdidx_vamsplit::bulkload::bulk_load_subtree;
use hdidx_vamsplit::topology::Topology;

/// Parameters of the resampled predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResampledParams {
    /// Memory budget in points (the paper's `M`).
    pub m: usize,
    /// Height of the upper tree.
    pub h_upper: usize,
    /// RNG seed (upper sample and resampling derive from it).
    pub seed: u64,
}

/// Outputs of the resampled predictor.
#[derive(Debug, Clone)]
pub struct ResampledPrediction {
    /// The prediction (per-query counts, I/O, page count).
    pub prediction: Prediction,
    /// Upper-tree sampling rate `σ_upper`.
    pub sigma_upper: f64,
    /// Lower-tree sampling rate `σ_lower`.
    pub sigma_lower: f64,
    /// Number of upper-tree leaf pages `k`.
    pub k: usize,
    /// Faults injected during the prediction, in decision order (empty
    /// without a fault configuration).
    pub fault_trace: Vec<FaultEvent>,
}

/// The §4.4 resampled predictor as a reusable [`Predictor`].
#[derive(Debug, Clone, Copy)]
pub struct Resampled {
    params: ResampledParams,
    faults: Option<FaultConfig>,
}

impl Resampled {
    /// Wraps the parameters into a predictor instance (no fault
    /// injection).
    pub fn new(params: ResampledParams) -> Resampled {
        Resampled {
            params,
            faults: None,
        }
    }

    /// Attaches (or clears) a fault-injection configuration: the
    /// prediction's simulated I/O then runs through a seeded fault plan
    /// with bounded retry, and upper leaves whose second-sample I/O
    /// ultimately fails degrade to cutoff extrapolation (reported in
    /// [`Prediction::degraded`]).
    #[must_use]
    pub fn with_faults(mut self, faults: Option<FaultConfig>) -> Resampled {
        self.faults = faults;
        self
    }

    /// The wrapped parameters.
    pub fn params(&self) -> &ResampledParams {
        &self.params
    }

    /// Runs the predictor, returning the resampled-specific outputs
    /// (`sigma_upper`, `sigma_lower`, `k`) alongside the generic
    /// [`Prediction`].
    ///
    /// # Errors
    ///
    /// Propagates upper-phase errors and the §4.5 feasibility violations
    /// (e.g. `σ_lower · C_eff,data ≤ 1`, which surfaces as a compensation
    /// domain error advising a taller upper tree).
    pub fn run(
        &self,
        data: &Dataset,
        topo: &Topology,
        queries: &[QueryBall],
    ) -> Result<ResampledPrediction> {
        predict_resampled_impl(data, topo, queries, &self.params, self.faults)
    }
}

impl Predictor for Resampled {
    fn name(&self) -> &str {
        "resampled"
    }

    fn predict(
        &self,
        data: &Dataset,
        topo: &Topology,
        queries: &[QueryBall],
    ) -> Result<Prediction> {
        Ok(self.run(data, topo, queries)?.prediction)
    }
}

use crate::access_lost;

fn predict_resampled_impl(
    data: &Dataset,
    topo: &Topology,
    queries: &[QueryBall],
    params: &ResampledParams,
    faults: Option<FaultConfig>,
) -> Result<ResampledPrediction> {
    crate::validate_balls(queries, topo.dim())?;
    let up = build_upper_phase(data, topo, params.m, params.h_upper, params.seed)?;
    let k = up.k();
    let n = data.len();
    let b = topo.cap_data() as u64; // points per data-file page
    let s_lower = sigma_lower(topo, params.m, params.h_upper);

    // Growth factor for the lower-tree data pages; validates the domain
    // (sigma_lower must exceed 1/C) even when it ends up being 1.
    let leaf_factor = if s_lower >= 1.0 {
        1.0
    } else {
        growth_factor(topo.cap_data() as f64, s_lower)?
    };

    // ---- I/O accounting disk -------------------------------------------
    let mut disk = Disk::with_options(
        &DiskOptions::new()
            .fault_plan(faults)
            .phase(FaultPhase::Predict),
    );
    let data_pages = (n as u64).div_ceil(b);
    let file = disk.alloc(data_pages)?;
    let area_pages = (params.m as u64).div_ceil(b).max(1);
    let areas = disk.alloc((k as u64) * area_pages)?;

    // Step 2 (Eq. 2): read the q query points randomly.
    disk.charge(IoStats::random(queries.len() as u64));
    // Step 3 (Eq. 3): scan the dataset (query spheres + upper sample).
    // This scan is load-bearing for the whole prediction — an exhausted
    // retry budget here is a hard failure, not a degradation.
    disk.access(&file, 0, data_pages)?;

    // ---- Step 6: resampling scan + distribution ------------------------
    // Degradation contract: a lost access never changes *which* accesses
    // follow — points are still distributed (so the box evolution, area
    // cursors and every later page address stay identical at any fault
    // rate) and only the receiving areas are marked degraded. This keeps
    // the fault decisions pointwise comparable across rates, which is what
    // makes degradation monotone in the fault rate.
    let mut degraded: Vec<bool> = vec![false; k];
    let mut rng = seeded(params.seed.wrapping_add(0x5EED));
    let resample = bernoulli_sample(&mut rng, n, s_lower);
    // Boxes mutate as points are adopted (Figure 6 b).
    let mut boxes: Vec<HyperRect> = up.grown_leaves.clone();
    let mut assigned: Vec<Vec<u32>> = vec![Vec::new(); k];
    // Chunked processing: read spans containing M sample points, then
    // flush each box's chunk-batch to its area (Figure 8).
    let mut chunk_batches: Vec<Vec<u32>> = vec![Vec::new(); k];
    let mut area_cursor: Vec<u64> = vec![0; k];
    let mut span_start = 0u64;
    let mut idx = 0usize;
    while idx < resample.len() {
        let chunk_end_idx = (idx + params.m).min(resample.len());
        // The span of file records this chunk's sample points live in.
        let span_end = if chunk_end_idx == resample.len() {
            n as u64
        } else {
            resample[chunk_end_idx] as u64
        };
        let chunk_lost =
            access_lost(disk.access_records(&file, span_start, span_end - span_start, b))?;
        span_start = span_end;
        for &pid in &resample[idx..chunk_end_idx] {
            let p = data.point(pid as usize);
            let target = assign_to_box(&mut boxes, p);
            chunk_batches[target].push(pid);
            if chunk_lost {
                // The points of this span never made it to memory: every
                // area that would have received one degrades.
                degraded[target] = true;
            }
        }
        idx = chunk_end_idx;
        // Flush this chunk's batches: one run per receiving area.
        for (bi, batch) in chunk_batches.iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            // Capacity: an area holds at most M points; excess is
            // discarded (paper footnote 5).
            let room = params.m.saturating_sub(assigned[bi].len());
            let take = batch.len().min(room);
            if take > 0 {
                let first_rec = area_cursor[bi];
                let first_page = (bi as u64) * area_pages + first_rec / b;
                let last_page = (bi as u64) * area_pages + (first_rec + take as u64 - 1) / b;
                if access_lost(disk.access(&areas, first_page, last_page - first_page + 1))? {
                    degraded[bi] = true;
                }
                // The cursor advances even on a lost flush so later page
                // addresses are identical at any fault rate.
                area_cursor[bi] += take as u64;
                assigned[bi].extend_from_slice(&batch[..take]);
            }
            batch.clear();
        }
    }

    // ---- Steps 8–11: build each lower tree in memory -------------------
    // Each area is read back (one sequential run) and its lower tree built
    // in area order. Degraded areas fall back to the cutoff extrapolation
    // of their (evolved) leaf box instead of a lower-tree build.
    let mut pages: Vec<HyperRect> = Vec::new();
    let mut leaves_degraded = 0usize;
    let mut covered_points = 0usize;
    let mut total_points = 0usize;
    for (bi, ids) in assigned.into_iter().enumerate() {
        total_points += ids.len();
        if ids.is_empty() {
            continue;
        }
        let used_pages = (ids.len() as u64).div_ceil(b);
        if access_lost(disk.access(&areas, (bi as u64) * area_pages, used_pages))? {
            degraded[bi] = true;
        }
        if degraded[bi] {
            // Cutoff fallback: replay the splits geometrically inside
            // the evolved leaf box, sized by the upper-phase estimate
            // of the full-scale point count below this leaf.
            leaves_degraded += 1;
            let n_full = (up.leaf_samples[bi].len() as f64 / up.sigma_upper).max(2.0);
            synthesize_pages(&boxes[bi], up.leaf_level, n_full, topo, &mut pages);
            continue;
        }
        covered_points += ids.len();
        // Unbiased estimate of the full-scale point count below this upper
        // leaf: the area's sample count scaled back by sigma_lower (exact
        // when sigma_lower = 1).
        let n_full = (ids.len() as f64 / s_lower).max(2.0);
        let lower = bulk_load_subtree(data, ids, topo, n_full, up.leaf_level)?;
        for leaf in lower.leaves() {
            pages.push(leaf.rect.scaled_about_center(leaf_factor)?);
        }
    }
    let coverage_fraction = if total_points == 0 {
        1.0
    } else {
        covered_points as f64 / total_points as f64
    };

    // All pages — lower-tree builds and degraded cutoff fallbacks alike —
    // are flattened into one SoA soup and counted through the blocked
    // batch kernel (byte-identical to the scalar per-rect path).
    let soup = LeafSoup::from_rects(topo.dim(), &pages)?;
    let per_query = soup.count_batch(&Pool::serial(), queries, |q| {
        (q.center.as_slice(), q.radius)
    });
    let fault_trace = disk.fault_trace().to_vec();
    Ok(ResampledPrediction {
        prediction: Prediction {
            per_query,
            io: disk.stats(),
            predicted_leaf_pages: pages.len(),
            degraded: DegradedReport {
                leaves_degraded,
                coverage_fraction,
            },
        },
        sigma_upper: up.sigma_upper,
        sigma_lower: s_lower,
        k,
        fault_trace,
    })
}

/// Figure 6: route a point to the box containing it, or to the nearest box
/// by MINDIST, growing that box to cover the point.
///
/// Containment is tested first, box by box: a box contains `p` when no
/// dimension has `x < lo` or `x > hi`, which is exactly `mindist2 == 0`
/// (a NaN coordinate compares neither way, so it counts as inside). Only
/// an uncontained point sums ordered MINDISTs, skipping every box whose
/// partial sum already exceeds the best so far; the first index wins
/// ties, as in a plain argmin.
fn assign_to_box(boxes: &mut [HyperRect], p: &[f32]) -> usize {
    if let Some(i) = boxes.iter().position(|b| covers(b, p)) {
        return i; // containing box: no adjustment needed
    }
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (i, b) in boxes.iter().enumerate() {
        if b.mindist2_exceeds(p, best_d) {
            continue;
        }
        let d = b.mindist2(p);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    boxes[best].expand_to_point(p);
    best
}

/// Whether no coordinate of `p` lies below or above `b`: a non-short-
/// circuit fold, so the per-dimension tests vectorize.
#[inline]
fn covers(b: &HyperRect, p: &[f32]) -> bool {
    let outside = b
        .lo()
        .iter()
        .zip(b.hi())
        .zip(p)
        .fold(false, |out, ((&lo, &hi), &x)| out | (x < lo) | (x > hi));
    !outside
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_rand::seeded as seed_rng;
    use hdidx_rand::Rng;
    use hdidx_vamsplit::bulkload::bulk_load;
    use hdidx_vamsplit::query::knn;

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = seed_rng(seed);
        Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
    }

    fn ground_truth(data: &Dataset, topo: &Topology, q: usize, k: usize) -> (Vec<QueryBall>, f64) {
        let tree = bulk_load(data, topo).unwrap();
        let mut balls = Vec::new();
        let mut total = 0u64;
        for i in 0..q {
            let center = data.point((i * 13) % data.len()).to_vec();
            let res = knn(&tree, data, &center, k).unwrap();
            total += res.stats.leaf_accesses;
            balls.push(QueryBall::new(center, res.radius()));
        }
        (balls, total as f64 / q as f64)
    }

    /// The `assign_to_box` that summed an ordered MINDIST for every box
    /// until one came out zero: the oracle the containment-first form is
    /// pinned against.
    fn assign_to_box_reference(boxes: &mut [HyperRect], p: &[f32]) -> usize {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, b) in boxes.iter().enumerate() {
            let d = b.mindist2(p);
            if d == 0.0 {
                return i;
            }
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        boxes[best].expand_to_point(p);
        best
    }

    fn rect_bits(boxes: &[HyperRect]) -> Vec<u32> {
        boxes
            .iter()
            .flat_map(|b| b.lo().iter().chain(b.hi()).map(|x| x.to_bits()))
            .collect()
    }

    /// A coordinate on a small integer grid (so boxes share faces and
    /// MINDISTs tie exactly), or one of NaN, ±0.0 and ±∞.
    fn grid_coord(rng: &mut impl Rng) -> f32 {
        match rng.gen_range(0..16u32) {
            0 => f32::NAN,
            1 => -0.0,
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            4..=9 => rng.gen_range(-3..=3i32) as f32,
            _ => rng.gen_range(-3.0..3.0f32),
        }
    }

    #[test]
    fn containment_first_assignment_matches_reference_bitwise() {
        use hdidx_check::{check, prop_assert_eq, prop_assume, Config, Verdict};
        // Input: (k, dim, seed). Boxes: random, degenerate (one point) and
        // grown from two grid points, so faces coincide and MINDISTs tie.
        // Points: grid points, box-face points and random points.
        check(
            "containment_first_assignment_matches_reference_bitwise",
            &Config::with_cases(192),
            |rng| {
                (
                    rng.gen_range(1..7usize),
                    rng.gen_range(1..9usize),
                    rng.gen::<u64>(),
                )
            },
            |&(k, dim, seed)| {
                prop_assume!(k >= 1 && dim >= 1);
                let mut rng = seed_rng(seed);
                let mut boxes: Vec<HyperRect> = (0..k)
                    .map(|_| {
                        let a: Vec<f32> = (0..dim).map(|_| grid_coord(&mut rng)).collect();
                        let mut b = HyperRect::point(&a);
                        if rng.gen_bool(0.7) {
                            let c: Vec<f32> = (0..dim).map(|_| grid_coord(&mut rng)).collect();
                            b.expand_to_point(&c);
                        }
                        b
                    })
                    .collect();
                let mut reference = boxes.clone();
                for step in 0..40 {
                    let p: Vec<f32> = if rng.gen_bool(0.25) {
                        // A point on a face of some box.
                        let b = &boxes[rng.gen_range(0..k)];
                        (0..dim)
                            .map(|j| match rng.gen_range(0..3u32) {
                                0 => b.lo()[j],
                                1 => b.hi()[j],
                                _ => grid_coord(&mut rng),
                            })
                            .collect()
                    } else {
                        (0..dim).map(|_| grid_coord(&mut rng)).collect()
                    };
                    let got = assign_to_box(&mut boxes, &p);
                    let want = assign_to_box_reference(&mut reference, &p);
                    prop_assert_eq!((step, got), (step, want));
                    prop_assert_eq!(rect_bits(&boxes), rect_bits(&reference));
                }
                Verdict::Pass
            },
        );
    }

    #[test]
    fn assign_breaks_exact_mindist_ties_to_the_first_box() {
        let mut boxes = vec![
            HyperRect::new(vec![0.0], vec![1.0]).unwrap(),
            HyperRect::new(vec![3.0], vec![4.0]).unwrap(),
            HyperRect::new(vec![2.0], vec![2.0]).unwrap(),
        ];
        // 1.5 from box 0 and box 2 alike (MINDIST 0.25): box 0 wins.
        assert_eq!(assign_to_box(&mut boxes, &[1.5]), 0);
        assert_eq!(boxes[0].hi()[0], 1.5);
        // NaN lies in every box under `mindist2 == 0`: the first one.
        assert_eq!(assign_to_box(&mut boxes, &[f32::NAN]), 0);
        // +inf: every MINDIST is inf, none beats the initial best.
        assert_eq!(assign_to_box(&mut boxes, &[f32::INFINITY]), 0);
        assert_eq!(boxes[0].hi()[0], f32::INFINITY);
        // Single box: always box 0.
        let mut one = vec![HyperRect::point(&[0.0, 0.0])];
        assert_eq!(assign_to_box(&mut one, &[-1.0, 5.0]), 0);
        assert_eq!(
            (one[0].lo(), one[0].hi()),
            (&[-1.0f32, 0.0][..], &[0.0f32, 5.0][..])
        );
    }

    #[test]
    fn assign_prefers_containing_box() {
        let mut boxes = vec![
            HyperRect::new(vec![0.0], vec![1.0]).unwrap(),
            HyperRect::new(vec![2.0], vec![3.0]).unwrap(),
        ];
        assert_eq!(assign_to_box(&mut boxes, &[2.5]), 1);
        // Outside both: nearest box (1) adopts the point and grows.
        assert_eq!(assign_to_box(&mut boxes, &[3.4]), 1);
        assert!(boxes[1].contains_point(&[3.4]));
        assert!((boxes[1].hi()[0] - 3.4).abs() < 1e-6);
    }

    #[test]
    fn prediction_close_on_uniform_data() {
        // Height-4 tree over uniform data: sigma_lower = 1 at the
        // recommended h, so the predicted layout is near-exact and the
        // error should be small (paper §5.2 reports -0.5 % .. -3 %).
        let data = random_dataset(20_000, 6, 91);
        let topo = Topology::from_capacities(6, 20_000, 20, 10).unwrap();
        assert_eq!(topo.height(), 4);
        let (balls, measured) = ground_truth(&data, &topo, 40, 11);
        let p = Resampled::new(ResampledParams {
            m: 2_000,
            h_upper: 2,
            seed: 5,
        })
        .run(&data, &topo, &balls)
        .unwrap();
        let err = p.prediction.relative_error(measured);
        assert!(
            err.abs() < 0.20,
            "relative error {err:+.3} (measured {measured}, predicted {})",
            p.prediction.avg_leaf_accesses()
        );
    }

    #[test]
    fn sigma_values_follow_topology() {
        let data = random_dataset(20_000, 6, 92);
        let topo = Topology::from_capacities(6, 20_000, 20, 10).unwrap();
        let p = Resampled::new(ResampledParams {
            m: 2_000,
            h_upper: 2,
            seed: 6,
        })
        .run(&data, &topo, &[])
        .unwrap();
        assert!((p.sigma_upper - 0.1).abs() < 1e-12);
        assert_eq!(p.k, topo.upper_leaf_count(2) as usize);
        let expect = (p.k as f64 * 2_000.0 / 20_000.0).min(1.0);
        assert!((p.sigma_lower - expect).abs() < 1e-12);
    }

    #[test]
    fn io_grows_with_h_upper() {
        // Paper §4.5.3: larger upper trees mean more areas and higher
        // sigma_lower, so the resampling I/O increases with h_upper.
        let data = random_dataset(30_000, 4, 93);
        let topo = Topology::from_capacities(4, 30_000, 10, 5).unwrap();
        assert!(topo.height() >= 4);
        let io_of = |h: usize| {
            Resampled::new(ResampledParams {
                m: 1_500,
                h_upper: h,
                seed: 7,
            })
            .run(&data, &topo, &[])
            .unwrap()
            .prediction
            .io
        };
        let a = io_of(2);
        let b = io_of(3);
        assert!(
            b.seeks > a.seeks && b.transfers >= a.transfers,
            "h=2 {a:?} vs h=3 {b:?}"
        );
    }

    #[test]
    fn predicted_page_count_tracks_topology_at_sigma_one() {
        let data = random_dataset(20_000, 6, 94);
        let topo = Topology::from_capacities(6, 20_000, 20, 10).unwrap();
        let p = Resampled::new(ResampledParams {
            m: 2_000,
            h_upper: 2,
            seed: 8,
        })
        .run(&data, &topo, &[])
        .unwrap();
        assert_eq!(p.sigma_lower, 1.0);
        let expect = topo.leaf_pages() as f64;
        let got = p.prediction.predicted_leaf_pages as f64;
        assert!(
            (got - expect).abs() / expect < 0.05,
            "{got} pages vs {expect}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let data = random_dataset(8_000, 4, 95);
        let topo = Topology::from_capacities(4, 8_000, 10, 5).unwrap();
        let balls = vec![QueryBall::new(data.point(3).to_vec(), 0.2)];
        let run = |seed| {
            Resampled::new(ResampledParams {
                m: 800,
                h_upper: 2,
                seed,
            })
            .run(&data, &topo, &balls)
            .unwrap()
            .prediction
            .per_query
        };
        assert_eq!(run(9), run(9));
    }
}
