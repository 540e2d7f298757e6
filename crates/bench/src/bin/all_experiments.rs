//! Runs the paper's experiments (every table and figure) in one process,
//! so experiments that share a dataset share its preparation. Intended
//! entry point for regenerating `EXPERIMENTS.md` numbers:
//!
//! ```text
//! cargo run --release -p hdidx-bench --bin all_experiments                   # default scales
//! cargo run --release -p hdidx-bench --bin all_experiments -- --full         # paper scale
//! cargo run --release -p hdidx-bench --bin all_experiments -- table3_texture60
//! ```
//!
//! Positional arguments name the experiments to run (all of them by
//! default); each prints exactly its section of a full run. A failing
//! experiment is reported on stderr, the rest still run, and the exit
//! code is 1.

use hdidx_bench::experiments::select;
use hdidx_bench::{Cli, Suite};

fn main() {
    let usage = |e: String| -> ! {
        eprintln!("error: {e}");
        std::process::exit(2)
    };
    let cli = Cli::parse(std::env::args().skip(1)).unwrap_or_else(|e| usage(e));
    let suite = Suite::default();
    let mut failures = Vec::new();
    for exp in select(&cli.names).unwrap_or_else(|e| usage(e)) {
        if let Err(e) = exp.run_section(&suite, &cli) {
            eprintln!("{} failed: {e}", exp.name);
            failures.push(exp.name);
        }
    }
    if failures.is_empty() {
        println!("\nall experiments completed");
    } else {
        eprintln!("\nFAILED experiments: {failures:?}");
        std::process::exit(1);
    }
}
