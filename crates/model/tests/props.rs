//! Property tests for the prediction model's parameter logic: h_upper
//! bounds/recommendation and the analytic cost formulas. Runs on the
//! workspace's own `hdidx-check` harness.

use hdidx_check::{check, prop_assert, prop_assert_eq, prop_assume, Config, Verdict};
use hdidx_model::cost::CostInputs;
use hdidx_model::hupper::{h_upper_bounds, recommended_h_upper, sigma_lower, sigma_upper};
use hdidx_rand::Rng;
use hdidx_vamsplit::topology::Topology;

#[test]
fn recommendation_respects_bounds() {
    check(
        "recommendation_respects_bounds",
        &Config::with_cases(96),
        |rng| {
            (
                rng.gen_range(5_000..2_000_000usize),
                rng.gen_range(4..128usize),
                rng.gen_range(4..48usize),
                rng.gen_range(0.001..0.5f64),
            )
        },
        |&(n, cap_data, cap_dir, m_frac)| {
            prop_assume!(n >= 5_000 && cap_data >= 4 && cap_dir >= 4 && m_frac > 0.0);
            let topo = Topology::from_capacities(16, n, cap_data, cap_dir).unwrap();
            prop_assume!(topo.height() >= 3);
            let m = ((n as f64 * m_frac) as usize).max(cap_data);
            match h_upper_bounds(&topo, m) {
                Ok(b) => {
                    prop_assert!(2 <= b.min && b.min <= b.max && b.max < topo.height());
                    let h = recommended_h_upper(&topo, m).unwrap();
                    prop_assert!((b.min..=b.max).contains(&h));
                    // Feasibility at the recommendation: lower leaves hold >= 2
                    // expected points, upper leaves > 1.
                    prop_assert!(sigma_lower(&topo, m, h) * cap_data as f64 >= 2.0);
                    prop_assert!(sigma_upper(&topo, m) * topo.pts(topo.upper_leaf_level(h)) > 1.0);
                }
                Err(_) => {
                    // Infeasible => the recommendation must also fail.
                    prop_assert!(recommended_h_upper(&topo, m).is_err());
                }
            }
            Verdict::Pass
        },
    );
}

#[test]
fn sigma_lower_is_monotone_in_h_and_m() {
    check(
        "sigma_lower_is_monotone_in_h_and_m",
        &Config::with_cases(96),
        |rng| {
            (
                rng.gen_range(50_000..1_000_000usize),
                rng.gen_range(500..20_000usize),
            )
        },
        |&(n, m)| {
            prop_assume!(n >= 50_000 && m >= 500);
            let topo = Topology::from_capacities(60, n, 33, 16).unwrap();
            prop_assume!(topo.height() >= 3);
            for h in 2..topo.height() - 1 {
                prop_assert!(sigma_lower(&topo, m, h) <= sigma_lower(&topo, m, h + 1) + 1e-12);
            }
            let h = 2;
            prop_assert!(sigma_lower(&topo, m, h) <= sigma_lower(&topo, 2 * m, h) + 1e-12);
            prop_assert!(sigma_lower(&topo, m, h) <= 1.0);
            Verdict::Pass
        },
    );
}

#[test]
fn analytic_costs_are_positive_and_ordered() {
    check(
        "analytic_costs_are_positive_and_ordered",
        &Config::with_cases(96),
        |rng| {
            (
                rng.gen_range(50_000..2_000_000usize),
                rng.gen_range(1_000..50_000usize),
                rng.gen_range(0..1_000usize),
            )
        },
        |&(n, m, q)| {
            prop_assume!(n >= 50_000 && m >= 1_000);
            let topo = Topology::from_capacities(60, n, 33, 16).unwrap();
            prop_assume!(topo.height() >= 3);
            let c = CostInputs::new(topo, m, q);
            let cutoff = c.cutoff();
            prop_assert!(cutoff.transfers > 0);
            // Cutoff <= resampled at every feasible h (Eq 3 is a strict subset
            // of Eq 5's terms).
            if let Ok((h, res)) = c.resampled_recommended() {
                prop_assert!(cutoff.transfers <= res.transfers, "h = {h}");
                prop_assert!(cutoff.seeks <= res.seeks);
                prop_assert!(c.seconds(res) > 0.0);
            }
            prop_assert!(c.seconds(c.on_disk_build()) > 0.0);
            Verdict::Pass
        },
    );
}

#[test]
fn resampling_cost_components_add_up() {
    check(
        "resampling_cost_components_add_up",
        &Config::with_cases(96),
        |rng| {
            (
                rng.gen_range(100_000..1_000_000usize),
                rng.gen_range(2_000..30_000usize),
            )
        },
        |&(n, m)| {
            prop_assume!(n >= 100_000 && m >= 2_000);
            let topo = Topology::from_capacities(60, n, 33, 16).unwrap();
            prop_assume!(topo.height() >= 4);
            let c = CostInputs::new(topo, m, 100);
            for h in 2..=3usize {
                let total = c.resampled(h);
                let parts = c.read_query_points()
                    + c.scan_dataset()
                    + c.resampling(h)
                    + c.build_lower_subtrees(h);
                prop_assert_eq!(total, parts);
            }
            Verdict::Pass
        },
    );
}
