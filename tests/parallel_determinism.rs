//! The parallel layer's central contract: **byte-identical results for
//! any thread count**. Grown upper-leaf boxes and per-query predictions
//! must not depend on the configured thread count, and `par_map` must not
//! depend on how work was scheduled.
//!
//! Tests that vary the *global* thread configuration are confined to a
//! single `#[test]` (the global setting is process-wide); everything
//! else injects explicit `Pool`s.

use hdidx_check::{check, prop_assert_eq, Config, Verdict};
use hdidx_rand::{seeded, Rng};
use hdidx_repro::core::Dataset;
use hdidx_repro::model::upper::build_upper_phase;
use hdidx_repro::model::{Cutoff, CutoffParams, QueryBall, Resampled, ResampledParams};
use hdidx_repro::pool::Pool;
use hdidx_repro::vamsplit::topology::{PageConfig, Topology};

const THREAD_COUNTS: &[usize] = &[1, 2, 8];

fn clustered_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let data: Vec<f32> = (0..n * dim)
        .map(|i| {
            let cluster = ((i / dim) % 7) as f32 * 0.13;
            cluster + 0.1 * rng.gen::<f32>()
        })
        .collect();
    Dataset::from_flat(dim, data).unwrap()
}

/// The full prediction pipeline — upper phase (grown leaf MBRs), cutoff
/// and resampled per-query counts — is identical under every global
/// thread configuration, exactly like the CLI's `--threads` flag.
#[test]
fn predictions_are_identical_for_any_thread_count() {
    let n = 9_000;
    let data = clustered_dataset(n, 6, 17);
    let topo = Topology::new(6, n, &PageConfig::DEFAULT).unwrap();
    let queries: Vec<QueryBall> = (0..40)
        .map(|i| QueryBall::new(data.point(i * 211).to_vec(), 0.05 + 0.01 * i as f64))
        .collect();
    let m = 1_200;
    let cutoff = Cutoff::new(CutoffParams {
        m,
        h_upper: 2,
        seed: 5,
    });
    let resampled = Resampled::new(ResampledParams {
        m,
        h_upper: 2,
        seed: 5,
    });

    hdidx_pool::set_threads(1);
    let upper_ref = build_upper_phase(&data, &topo, m, 2, 5).unwrap();
    let cutoff_ref = cutoff.run(&data, &topo, &queries).unwrap();
    let resampled_ref = resampled.run(&data, &topo, &queries).unwrap();

    for &t in THREAD_COUNTS {
        hdidx_pool::set_threads(t);
        let upper = build_upper_phase(&data, &topo, m, 2, 5).unwrap();
        assert_eq!(upper_ref.tree, upper.tree, "upper tree differs at t={t}");
        assert_eq!(
            upper_ref.grown_leaves, upper.grown_leaves,
            "grown leaf MBRs differ at t={t}"
        );
        let c = cutoff.run(&data, &topo, &queries).unwrap();
        assert_eq!(
            cutoff_ref.prediction.per_query, c.prediction.per_query,
            "cutoff per-query counts differ at t={t}"
        );
        let r = resampled.run(&data, &topo, &queries).unwrap();
        assert_eq!(
            resampled_ref.prediction.per_query, r.prediction.per_query,
            "resampled per-query counts differ at t={t}"
        );
        assert_eq!(resampled_ref.prediction.io, r.prediction.io);
    }
    hdidx_pool::set_threads(1);
}

/// `par_map` is an order-preserving map for arbitrary inputs and thread
/// counts (property test over random workloads).
#[test]
fn par_map_preserves_order() {
    check(
        "par_map_preserves_order",
        &Config::with_cases(48),
        |rng| {
            (
                rng.gen_range(0..500usize),
                rng.gen_range(1..=9usize),
                rng.next_u64(),
            )
        },
        |&(n, threads, seed)| {
            let mut rng = seeded(seed);
            let items: Vec<u64> = (0..n as u64).map(|i| i ^ rng.next_u64()).collect();
            let expected: Vec<u64> = items
                .iter()
                .map(|x| x.wrapping_mul(0x9e37).rotate_left(7))
                .collect();
            let got = Pool::new(threads).par_map(&items, |x| x.wrapping_mul(0x9e37).rotate_left(7));
            prop_assert_eq!(expected, got);
            Verdict::Pass
        },
    );
}

/// A panic in a worker propagates to the caller instead of being lost.
#[test]
fn par_map_propagates_worker_panics() {
    let items: Vec<u32> = (0..10_000).collect();
    let result = std::panic::catch_unwind(|| {
        Pool::new(4).par_map(&items, |&x| {
            assert!(x != 7_777, "worker panic marker");
            x
        })
    });
    assert!(result.is_err(), "panic must cross the pool boundary");
}

/// The pool's dependency-free seed derivation is bit-identical to
/// `hdidx_rand::splitmix::derive_seed` — parallel code may derive
/// per-item streams with either and get the same answer.
#[test]
fn pool_derive_seed_matches_hdidx_rand() {
    check(
        "pool_derive_seed_matches_hdidx_rand",
        &Config::with_cases(256),
        |rng| (rng.next_u64(), rng.next_u64()),
        |&(base, index)| {
            prop_assert_eq!(
                hdidx_pool::derive_seed(base, index),
                hdidx_rand::splitmix::derive_seed(base, index)
            );
            Verdict::Pass
        },
    );
}
