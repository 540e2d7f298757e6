//! The paper's experiments (see `DESIGN.md` §4 for the index), one module
//! each. An experiment takes its prepared datasets from a shared
//! [`Suite`] and prints its report; [`EXPERIMENTS`] lists them in the
//! order the `all_experiments` binary runs them.

use crate::args::{Cli, ExpArgs};
use crate::context::Suite;
use hdidx_core::Result;

pub mod ablation_compensation;
pub mod ablation_query_distribution;
pub mod ablation_structures;
pub mod fig02_sample_size;
pub mod fig09_cost_vs_memory;
pub mod fig10_cost_vs_dim;
pub mod fig11_12_correlation;
pub mod fig13_page_size;
pub mod fig14_dimensionality;
pub mod range_queries;
pub mod resampled_all_datasets;
pub mod table3_texture60;
pub mod table4_model_comparison;
pub mod uniform8d_sanity;
pub mod vafile_contrast;

/// An experiment body: prints the report for `args`.
pub type Run = fn(&Suite, &ExpArgs) -> Result<()>;

/// One entry of the registry.
#[derive(Debug)]
pub struct Experiment {
    /// The name that selects it on the command line.
    pub name: &'static str,
    /// Default dataset scale.
    pub scale: f64,
    /// Default query count.
    pub queries: usize,
    /// Ignores `--scale` and `--full`: the §5.2 uniform check needs the
    /// paper's 100,000 points (its error bound is an absolute claim), and
    /// the analytic figures take no data at all.
    pub unscaled: bool,
    /// The body.
    pub run: Run,
}

const fn scaled(name: &'static str, scale: f64, queries: usize, run: Run) -> Experiment {
    Experiment {
        name,
        scale,
        queries,
        unscaled: false,
        run,
    }
}

const fn unscaled(name: &'static str, queries: usize, run: Run) -> Experiment {
    Experiment {
        name,
        scale: 1.0,
        queries,
        unscaled: true,
        run,
    }
}

/// Every experiment, in run order.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    scaled("fig02_sample_size", 0.25, 500, fig02_sample_size::run),
    unscaled("fig09_cost_vs_memory", 500, fig09_cost_vs_memory::run),
    unscaled("fig10_cost_vs_dim", 500, fig10_cost_vs_dim::run),
    scaled("table3_texture60", 0.25, 500, table3_texture60::run),
    scaled("fig11_12_correlation", 0.25, 500, fig11_12_correlation::run),
    unscaled("uniform8d_sanity", 500, uniform8d_sanity::run),
    scaled("table4_model_comparison", 0.25, 500, table4_model_comparison::run),
    scaled("fig13_page_size", 0.25, 500, fig13_page_size::run),
    scaled("fig14_dimensionality", 0.25, 500, fig14_dimensionality::run),
    scaled("range_queries", 0.25, 200, range_queries::run),
    scaled("ablation_compensation", 0.1, 100, ablation_compensation::run),
    scaled("ablation_structures", 0.1, 100, ablation_structures::run),
    scaled("ablation_query_distribution", 0.25, 100, ablation_query_distribution::run),
    scaled("vafile_contrast", 0.25, 100, vafile_contrast::run),
    scaled("resampled_all_datasets", 0.25, 200, resampled_all_datasets::run),
];

impl Experiment {
    /// The options this experiment runs under: the command line's over
    /// its defaults.
    pub fn args(&self, cli: &Cli) -> ExpArgs {
        let mut args = cli.args(self.scale, self.queries);
        if self.unscaled {
            args.scale = self.scale;
        }
        args
    }

    /// Prints this experiment's section of a suite run: a separator that
    /// names it, then its report.
    ///
    /// # Errors
    ///
    /// The experiment's first error; what it printed before stays printed.
    pub fn run_section(&self, suite: &Suite, cli: &Cli) -> Result<()> {
        outln!("\n################ {} ################\n", self.name);
        (self.run)(suite, &self.args(cli))
    }
}

/// The experiments `names` selects, in run order; every experiment when
/// `names` is empty. Returns `Err` with the first name no experiment has.
pub fn select(names: &[String]) -> std::result::Result<Vec<&'static Experiment>, String> {
    if let Some(unknown) = names
        .iter()
        .find(|n| EXPERIMENTS.iter().all(|e| e.name != *n))
    {
        return Err(format!("unknown experiment `{unknown}`"));
    }
    Ok(EXPERIMENTS
        .iter()
        .filter(|e| names.is_empty() || names.iter().any(|n| n == e.name))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;

    fn cli(argv: &[&str]) -> Cli {
        Cli::parse(argv.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn names_are_unique_and_in_the_fixed_order() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "fig02_sample_size",
                "fig09_cost_vs_memory",
                "fig10_cost_vs_dim",
                "table3_texture60",
                "fig11_12_correlation",
                "uniform8d_sanity",
                "table4_model_comparison",
                "fig13_page_size",
                "fig14_dimensionality",
                "range_queries",
                "ablation_compensation",
                "ablation_structures",
                "ablation_query_distribution",
                "vafile_contrast",
                "resampled_all_datasets",
            ]
        );
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn names_select_in_run_order_and_unknown_names_are_errors() {
        assert_eq!(select(&[]).unwrap().len(), EXPERIMENTS.len());
        let picked = select(&cli(&["vafile_contrast", "fig02_sample_size"]).names).unwrap();
        let picked: Vec<&str> = picked.iter().map(|e| e.name).collect();
        assert_eq!(picked, ["fig02_sample_size", "vafile_contrast"]);
        let err = select(&cli(&["fig02_sample_size", "table5"]).names).unwrap_err();
        assert_eq!(err, "unknown experiment `table5`");
        assert!(select(&cli(&["--verbose"]).names).is_err());
    }

    #[test]
    fn unscaled_experiments_keep_scale_one() {
        let unscaled: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.unscaled)
            .map(|e| e.name)
            .collect();
        assert_eq!(
            unscaled,
            [
                "fig09_cost_vs_memory",
                "fig10_cost_vs_dim",
                "uniform8d_sanity"
            ]
        );
        for (argv, given) in [
            (&["--full"][..], Some(1.0)),
            (&["--scale", "0.25"], Some(0.25)),
            (&[], None),
        ] {
            let cli = cli(argv);
            for e in EXPERIMENTS {
                let args = e.args(&cli);
                if e.unscaled {
                    let ((), out) = report::capture(|| args.banner("t"));
                    assert!(out.ends_with(b"\n[scale=1 queries=500 k=21 seed=20010521]\n"));
                } else {
                    assert_eq!(args.scale, given.unwrap_or(e.scale), "{}", e.name);
                }
            }
        }
    }

    /// The report of `names` run in order over one suite, split into the
    /// experiments' sections, and the number of contexts prepared.
    fn run(names: &[&str], argv: &[&str]) -> (Vec<Vec<u8>>, usize) {
        let suite = Suite::default();
        let cli = cli(argv);
        let sections = names
            .iter()
            .map(|name| {
                let exp = EXPERIMENTS.iter().find(|e| e.name == *name).unwrap();
                let (ran, out) = report::capture(|| exp.run_section(&suite, &cli));
                ran.unwrap();
                out
            })
            .collect();
        (sections, suite.prepared())
    }

    #[test]
    fn a_shared_context_prints_the_same_bytes_as_a_fresh_one() {
        // With one query count both experiments read the one COLOR64
        // context; with their default counts (100 and 500) they must not.
        for (argv, shared) in [
            (&["--scale", "0.02", "--queries", "10"][..], true),
            (&["--scale", "0.02"], false),
        ] {
            let (alone, prepared) = run(&["fig02_sample_size"], argv);
            assert_eq!(prepared, 1);
            let (after, prepared) =
                run(&["ablation_query_distribution", "fig02_sample_size"], argv);
            assert_eq!(prepared, if shared { 1 } else { 2 }, "{argv:?}");
            assert_eq!(
                String::from_utf8(after[1].clone()).unwrap(),
                String::from_utf8(alone[0].clone()).unwrap()
            );
            assert!(
                alone[0].starts_with(b"\n################ fig02_sample_size ################\n\n")
            );
        }
    }
}
