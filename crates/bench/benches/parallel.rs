//! Scaling suite for the two call sites that still use `hdidx-pool`:
//! the k-NN radius set-up (`knn_radii`: one serial bulk load, then a tree
//! search per query id) and serve's execution pass
//! (`Server::run`), each timed at 1, 2 and 4 worker threads.
//!
//! Results go to `BENCH_parallel.json`; the speedup at `tN` is the `t1`
//! median divided by the `tN` median of the same group, and every row
//! records the machine's `nproc`. A call site keeps its threads only
//! while its row shows a real gain at `t = nproc` (DESIGN §5b). Before
//! timing, the suite asserts that every thread count produces
//! byte-identical results, so a speedup is never bought with a different
//! answer.

use hdidx_check::bench::{black_box, BenchSuite};
use hdidx_core::Dataset;
use hdidx_datagen::workload::knn_radii;
use hdidx_model::QueryBall;
use hdidx_pool::Pool;
use hdidx_rand::{seeded, Rng};
use hdidx_serve::{ArrivalModel, LoadGen, MixSpec, ServeConfig, Server};
use hdidx_vamsplit::topology::{PageConfig, Topology};

const THREAD_COUNTS: &[usize] = &[1, 2, 4];

/// Neighbors per k-NN radius (the workloads' default `k`).
const K: usize = 21;

fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    Dataset::from_flat(dim, (0..n * dim).map(|_| rng.gen::<f32>()).collect()).unwrap()
}

/// The exact k-NN radius of every query id: the whole set-up, bulk load
/// included, as every workload runs it.
fn bench_knn_radii(suite: &mut BenchSuite, data: &Dataset, ids: &[u32]) -> Vec<f64> {
    let serial = knn_radii(data, ids, K, &Pool::serial()).unwrap();
    let bits = |radii: &[f64]| radii.iter().map(|r| r.to_bits()).collect::<Vec<u64>>();
    for &t in THREAD_COUNTS {
        let pool = Pool::new(t);
        assert_eq!(
            bits(&serial),
            bits(&knn_radii(data, ids, K, &pool).unwrap()),
            "k-NN radii must be bit-identical at t={t}"
        );
        suite.bench(
            &format!(
                "knn_radii/{}x{}/{}q/t{t}",
                data.len(),
                data.dim(),
                ids.len()
            ),
            || knn_radii(black_box(data), ids, K, &pool).unwrap(),
        );
    }
    serial
}

/// One request stream (the default range / k-NN / predict mix) served
/// end to end; the pool runs each admitted batch's requests.
fn bench_serve_run(suite: &mut BenchSuite, data: &Dataset, topo: &Topology, balls: &[QueryBall]) {
    let server = Server::build(data, topo, 2_000, 9, None).unwrap();
    let gen = LoadGen {
        rate_per_s: 512.0,
        duration_s: 0.5,
        model: ArrivalModel::Fixed,
        seed: 11,
    };
    let requests = gen.requests(balls, &MixSpec::default(), K).unwrap();
    let cfg = ServeConfig {
        batch: 16,
        ..ServeConfig::new()
    };
    let serial = server.run(&requests, &cfg, &Pool::serial()).unwrap();
    assert_eq!(serial.failed, 0);
    for &t in THREAD_COUNTS {
        let pool = Pool::new(t);
        assert_eq!(
            serial,
            server.run(&requests, &cfg, &pool).unwrap(),
            "serve report must be identical at t={t}"
        );
        suite.bench(
            &format!(
                "serve_run/{}x{}/{}req/t{t}",
                data.len(),
                data.dim(),
                requests.len()
            ),
            || server.run(black_box(&requests), &cfg, &pool).unwrap(),
        );
    }
}

fn main() {
    let mut suite = BenchSuite::new("parallel");
    suite.set_isa(&hdidx_core::simd::describe());
    let data = random_dataset(30_000, 16, 2);
    let topo = Topology::new(16, data.len(), &PageConfig::DEFAULT).unwrap();
    let ids: Vec<u32> = (0..96).map(|i| i * 101).collect();
    let radii = bench_knn_radii(&mut suite, &data, &ids);
    let balls: Vec<QueryBall> = ids
        .iter()
        .zip(radii)
        .map(|(&id, r)| QueryBall::new(data.point(id as usize).to_vec(), r))
        .collect();
    bench_serve_run(&mut suite, &data, &topo, &balls);
    suite.finish();
}
