//! Serving-subsystem contract: a fixed request stream produces
//! **byte-identical** latency samples, summaries and I/O totals at every
//! thread count — with and without fault injection — because arrivals,
//! fault plans and simulated time are pure functions of the request
//! stream, never of scheduling.

use hdidx_rand::{seeded, Rng};
use hdidx_repro::core::Dataset;
use hdidx_repro::diskio::BreakerConfig;
use hdidx_repro::faults::{FaultConfig, FaultPhase, RetryPolicy};
use hdidx_repro::model::QueryBall;
use hdidx_repro::pool::Pool;
use hdidx_repro::serve::{
    ArrivalModel, LanePolicy, LoadGen, MixSpec, OverloadPolicy, ServeConfig, ServeReport, Server,
};
use hdidx_repro::vamsplit::topology::Topology;

const THREAD_COUNTS: &[usize] = &[1, 2, 8];

fn clustered_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = seeded(seed);
    let data: Vec<f32> = (0..n * dim)
        .map(|i| {
            let cluster = ((i / dim) % 5) as f32 * 0.17;
            cluster + 0.1 * rng.gen::<f32>()
        })
        .collect();
    Dataset::from_flat(dim, data).unwrap()
}

fn candidates(data: &Dataset, count: usize) -> Vec<QueryBall> {
    (0..count)
        .map(|i| QueryBall::new(data.point(i * 97).to_vec(), 0.2 + 0.01 * i as f64))
        .collect()
}

fn assert_reports_identical(a: &ServeReport, b: &ServeReport, label: &str) {
    let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&a.samples), bits(&b.samples), "{label}: samples");
    assert_eq!(a.digest, b.digest, "{label}: digest");
    assert_eq!(a.summary, b.summary, "{label}: summary");
    assert_eq!(a.io, b.io, "{label}: io");
    assert_eq!(
        (a.total, a.executed, a.shed, a.failed),
        (b.total, b.executed, b.shed, b.failed),
        "{label}: counts"
    );
    assert_eq!(
        a.backoff_s.to_bits(),
        b.backoff_s.to_bits(),
        "{label}: backoff"
    );
    assert_eq!(
        a.makespan_s.to_bits(),
        b.makespan_s.to_bits(),
        "{label}: makespan"
    );
    // Overload-layer observables: per-class stats and the breaker
    // trajectory must replay too.
    assert_eq!(a.by_class, b.by_class, "{label}: by_class");
    assert_eq!(a.breaker, b.breaker, "{label}: breaker summary");
    assert_eq!(a, b, "{label}: full report");
}

/// Clean serving (both arrival models) is bitwise thread-invariant.
#[test]
fn clean_serving_is_byte_identical_for_any_thread_count() {
    let data = clustered_dataset(3_000, 4, 61);
    let topo = Topology::from_capacities(4, 3_000, 10, 5).unwrap();
    let balls = candidates(&data, 20);
    let server = Server::build(&data, &topo, 500, 7, None).unwrap();
    let cfg = ServeConfig {
        concurrency: 3,
        batch: 4,
        ..ServeConfig::new()
    };
    for model in [ArrivalModel::Fixed, ArrivalModel::Bursty] {
        let gen = LoadGen {
            rate_per_s: 300.0,
            duration_s: 0.4,
            model,
            seed: 11,
        };
        let requests = gen.requests(&balls, &MixSpec::default(), 5).unwrap();
        assert!(!requests.is_empty());
        let reference = server.run(&requests, &cfg, &Pool::serial()).unwrap();
        assert_eq!(reference.executed, reference.total);
        assert_eq!(reference.samples.len(), reference.executed as usize);
        for &t in THREAD_COUNTS {
            let report = server.run(&requests, &cfg, &Pool::new(t)).unwrap();
            assert_reports_identical(&reference, &report, &format!("{} t={t}", model.as_str()));
        }
    }
}

/// Faulted serving with an exponential-backoff retry policy and one tight
/// lane budget for every class sheds load (charged backoff inflates the
/// shadow-priced queue delays) — and still reproduces bitwise at every
/// thread count, because per-request fault plans derive from request ids.
#[test]
fn faulted_serving_is_byte_identical_and_sheds() {
    let data = clustered_dataset(3_000, 4, 62);
    let topo = Topology::from_capacities(4, 3_000, 10, 5).unwrap();
    let balls = candidates(&data, 20);
    let fcfg = FaultConfig::disabled(9)
        .with_rate_ppm(300_000)
        .unwrap()
        .with_retry(RetryPolicy::Exponential)
        .with_phase_scale(FaultPhase::Build, 0);
    let server = Server::build(&data, &topo, 500, 7, Some(fcfg)).unwrap();
    let gen = LoadGen {
        rate_per_s: 400.0,
        duration_s: 0.5,
        model: ArrivalModel::Bursty,
        seed: 13,
    };
    let requests = gen.requests(&balls, &MixSpec::default(), 5).unwrap();
    let mut overload = OverloadPolicy::none();
    overload.lanes = Some(LanePolicy::parse("2").unwrap());
    let cfg = ServeConfig {
        concurrency: 2,
        batch: 4,
        overload,
        ..ServeConfig::new()
    };
    let reference = server.run(&requests, &cfg, &Pool::serial()).unwrap();
    assert!(reference.shed > 0, "a 2 s lane budget must shed load");
    assert!(reference.io.retries > 0, "faults must force retries");
    assert!(
        reference.backoff_s > 0.0,
        "exponential retry charges backoff"
    );
    assert_eq!(reference.executed + reference.shed, reference.total);
    assert_eq!(reference.samples.len(), reference.executed as usize);
    for &t in THREAD_COUNTS {
        let report = server.run(&requests, &cfg, &Pool::new(t)).unwrap();
        assert_reports_identical(&reference, &report, &format!("faulted t={t}"));
    }
}

/// The zero-overload path is frozen: a server run under the identity
/// [`OverloadPolicy`] reproduces the serving digests from before the
/// overload-control layer existed, bit for bit. The constants below were
/// captured on the pre-overload tree over these exact fixtures — if this
/// test fails, the refactor changed behaviour the policy was supposed to
/// leave untouched.
#[test]
fn zero_overload_serving_reproduces_the_pre_overload_digests() {
    let data = clustered_dataset(3_000, 4, 61);
    let topo = Topology::from_capacities(4, 3_000, 10, 5).unwrap();
    let balls = candidates(&data, 20);
    let server = Server::build(&data, &topo, 500, 7, None).unwrap();
    let cfg = ServeConfig {
        concurrency: 3,
        batch: 4,
        ..ServeConfig::new()
    };
    assert_eq!(
        cfg.overload,
        OverloadPolicy::none(),
        "ServeConfig::new defaults to no policy"
    );
    // (model, pinned digest, pinned makespan bit pattern, sample count).
    let pinned = [
        (
            ArrivalModel::Fixed,
            0xe1f73c496c9f5f6du64,
            0x403535d4afc62ce3u64,
            118usize,
        ),
        (
            ArrivalModel::Bursty,
            0x985218e865670c16,
            0x4032c3a912aaf9c5,
            105,
        ),
    ];
    for (model, digest, makespan_bits, n) in pinned {
        let gen = LoadGen {
            rate_per_s: 300.0,
            duration_s: 0.4,
            model,
            seed: 11,
        };
        let requests = gen.requests(&balls, &MixSpec::default(), 5).unwrap();
        let report = server.run(&requests, &cfg, &Pool::serial()).unwrap();
        let label = model.as_str();
        assert_eq!(report.digest, digest, "{label}: pinned digest");
        assert_eq!(
            report.makespan_s.to_bits(),
            makespan_bits,
            "{label}: pinned makespan"
        );
        assert_eq!(report.samples.len(), n, "{label}: pinned sample count");
    }

    // The faulted fixture with no policy: charged backoff and the retry
    // failures are pinned too, and nothing sheds.
    let fdata = clustered_dataset(3_000, 4, 62);
    let fballs = candidates(&fdata, 20);
    let fcfg = FaultConfig::disabled(9)
        .with_rate_ppm(300_000)
        .unwrap()
        .with_retry(RetryPolicy::Exponential)
        .with_phase_scale(FaultPhase::Build, 0);
    let fserver = Server::build(&fdata, &topo, 500, 7, Some(fcfg)).unwrap();
    let gen = LoadGen {
        rate_per_s: 400.0,
        duration_s: 0.5,
        model: ArrivalModel::Bursty,
        seed: 13,
    };
    let requests = gen.requests(&fballs, &MixSpec::default(), 5).unwrap();
    let cfg = ServeConfig {
        concurrency: 2,
        batch: 4,
        ..ServeConfig::new()
    };
    let report = fserver.run(&requests, &cfg, &Pool::serial()).unwrap();
    assert_eq!(report.digest, 0x228ce84d6843212a, "faulted: pinned digest");
    assert_eq!(report.shed, 0, "faulted: pinned shed count");
    assert_eq!(report.executed, 199, "faulted: pinned executed count");
    assert_eq!(report.failed, 118, "faulted: pinned failed count");
    assert_eq!(
        report.backoff_s.to_bits(),
        0x40441d70a3d70a3e,
        "faulted: pinned backoff"
    );
}

/// Both overload knobs engaged at once — lanes and the breaker over a
/// faulted server — still replay bitwise at every thread count, including
/// the per-class stats and the breaker transition digest.
#[test]
fn overload_policy_decisions_are_byte_identical_for_any_thread_count() {
    let data = clustered_dataset(3_000, 4, 62);
    let topo = Topology::from_capacities(4, 3_000, 10, 5).unwrap();
    let balls = candidates(&data, 20);
    let fcfg = FaultConfig::disabled(9)
        .with_rate_ppm(500_000)
        .unwrap()
        .with_retry(RetryPolicy::Exponential)
        .with_phase_scale(FaultPhase::Build, 0);
    let server = Server::build(&data, &topo, 500, 7, Some(fcfg)).unwrap();
    let gen = LoadGen {
        rate_per_s: 400.0,
        duration_s: 0.5,
        model: ArrivalModel::Bursty,
        seed: 13,
    };
    let requests = gen.requests(&balls, &MixSpec::default(), 5).unwrap();
    let overload = OverloadPolicy {
        lanes: Some(LanePolicy {
            budget_s: [f64::INFINITY, 0.2, 0.1],
            window: 16,
        }),
        breaker: Some(BreakerConfig {
            failure_threshold: 2,
            window_s: 5.0,
            open_s: 0.2,
            probes: 1,
        }),
    };
    overload.validate().unwrap();
    let cfg = ServeConfig {
        concurrency: 2,
        batch: 4,
        overload,
        ..ServeConfig::new()
    };
    let reference = server.run(&requests, &cfg, &Pool::serial()).unwrap();
    // The policy must actually bite on this stream, or the identity
    // assertions below prove nothing.
    assert!(reference.shed > 0, "lanes must shed load");
    let brk = reference.breaker.expect("breaker summary present");
    assert!(brk.trips >= 1, "the fault storm must trip the breaker");
    for &t in THREAD_COUNTS {
        let report = server.run(&requests, &cfg, &Pool::new(t)).unwrap();
        assert_reports_identical(&reference, &report, &format!("overload t={t}"));
    }
}

/// A zero-rate fault plan is the clean server: every replayed access
/// costs one seek and one transfer and never fails, so the one fork left
/// in the disk-backed request path (closed form vs per-request replay)
/// must serve the same report — samples, digest, I/O, per-class stats and
/// breaker trajectory — bare and with lanes and the breaker engaged.
#[test]
fn zero_rate_fault_plan_serves_the_clean_report() {
    let data = clustered_dataset(3_000, 4, 61);
    let topo = Topology::from_capacities(4, 3_000, 10, 5).unwrap();
    let balls = candidates(&data, 20);
    let clean = Server::build(&data, &topo, 500, 7, None).unwrap();
    let zero = Server::build(&data, &topo, 500, 7, Some(FaultConfig::disabled(9))).unwrap();
    let gen = LoadGen {
        rate_per_s: 400.0,
        duration_s: 0.5,
        model: ArrivalModel::Bursty,
        seed: 13,
    };
    let requests = gen.requests(&balls, &MixSpec::default(), 5).unwrap();
    let bare = ServeConfig {
        concurrency: 2,
        batch: 4,
        ..ServeConfig::new()
    };
    let gated = ServeConfig {
        overload: OverloadPolicy {
            lanes: Some(LanePolicy {
                budget_s: [f64::INFINITY, 0.2, 0.1],
                window: 16,
            }),
            breaker: Some(BreakerConfig {
                failure_threshold: 2,
                window_s: 5.0,
                open_s: 0.2,
                probes: 1,
            }),
        },
        ..bare
    };
    for (label, cfg) in [("bare", bare), ("lanes+breaker", gated)] {
        let reference = clean.run(&requests, &cfg, &Pool::serial()).unwrap();
        assert!(reference.io.seeks > 0, "{label}: disk-backed queries ran");
        let report = zero.run(&requests, &cfg, &Pool::serial()).unwrap();
        assert_eq!(report.io.retries, 0, "{label}: a zero rate never retries");
        assert_reports_identical(&reference, &report, &format!("zero-rate {label}"));
    }
}

/// Lane shedding over a bursty stream is a pure function of the offered
/// stream: identical at every thread count, and **monotone in the
/// budget** — tightening the per-class queue-delay budget never un-sheds
/// a request.
#[test]
fn bursty_lane_shedding_is_thread_invariant_and_monotone_in_budget() {
    let data = clustered_dataset(3_000, 4, 61);
    let topo = Topology::from_capacities(4, 3_000, 10, 5).unwrap();
    let balls = candidates(&data, 20);
    let server = Server::build(&data, &topo, 500, 7, None).unwrap();
    let gen = LoadGen {
        rate_per_s: 400.0,
        duration_s: 0.5,
        model: ArrivalModel::Bursty,
        seed: 13,
    };
    let requests = gen.requests(&balls, &MixSpec::default(), 5).unwrap();
    let budgets = [f64::INFINITY, 0.5, 0.2, 0.05, 0.0];
    let mut previous_shed = None;
    for budget in budgets {
        let mut overload = OverloadPolicy::none();
        overload.lanes = Some(LanePolicy {
            budget_s: [budget; 3],
            window: 16,
        });
        let cfg = ServeConfig {
            concurrency: 2,
            batch: 4,
            overload,
            ..ServeConfig::new()
        };
        let reference = server.run(&requests, &cfg, &Pool::serial()).unwrap();
        for &t in THREAD_COUNTS {
            let report = server.run(&requests, &cfg, &Pool::new(t)).unwrap();
            assert_reports_identical(&reference, &report, &format!("budget {budget} t={t}"));
        }
        if let Some(previous) = previous_shed {
            assert!(
                reference.shed >= previous,
                "tightening the budget to {budget} un-shed load: {} < {previous}",
                reference.shed
            );
        }
        previous_shed = Some(reference.shed);
    }
    // The endpoints are exact: infinite budget sheds nothing, zero budget
    // sheds everything.
    assert_eq!(previous_shed, Some(requests.len() as u64));
}
