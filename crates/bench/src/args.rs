//! Minimal command-line handling shared by the experiment runner and the
//! BENCH-writing binaries.

/// The base RNG seed (SIGMOD 2001, May 21).
const SEED: u64 = 20010521;

/// Common experiment options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpArgs {
    /// Dataset cardinality scale in `(0, 1]`; 1.0 = the paper's sizes.
    pub scale: f64,
    /// Number of queries (paper: 500).
    pub queries: usize,
    /// Neighbor count (paper: 21).
    pub k: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Reduced sweep for CI smoke runs (`--smoke`).
    pub smoke: bool,
}

impl ExpArgs {
    /// Parses the process arguments (see [`Cli::parse`]) over the given
    /// defaults. Positional arguments are ignored with a warning. A bad
    /// flag value prints `error: ...` and exits with status 2.
    pub fn parse(default_scale: f64, default_queries: usize) -> ExpArgs {
        let cli = Cli::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        });
        for other in &cli.names {
            eprintln!("warning: ignoring unknown argument `{other}`");
        }
        cli.args(default_scale, default_queries)
    }

    /// Prints the standard experiment header: the title and the options in
    /// effect.
    pub fn banner(&self, title: &str) {
        outln!(
            "=== {title} ===\n[scale={} queries={} k={} seed={}]",
            self.scale,
            self.queries,
            self.k,
            self.seed
        );
    }
}

/// The options as given on the command line, before an experiment's
/// defaults fill in what was not given.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cli {
    /// Positional arguments, in order.
    pub names: Vec<String>,
    scale: Option<f64>,
    queries: Option<usize>,
    k: Option<usize>,
    seed: Option<u64>,
    smoke: bool,
}

impl Cli {
    /// Parses `--scale F`, `--full` (scale 1), `--queries N`, `--k N`,
    /// `--seed N` and `--smoke`; a later flag overrides an earlier one.
    /// Any other argument is positional.
    ///
    /// # Errors
    ///
    /// A flag without a value, a `--scale` that is not a number in
    /// `(0, 1]`, or a `--queries`, `--k` or `--seed` that is not a
    /// non-negative integer; the message names the flag.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut out = Cli::default();
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            match arg.as_str() {
                "--full" => out.scale = Some(1.0),
                "--scale" => out.scale = Some(value(&arg, argv.next(), "a number")?),
                "--queries" => out.queries = Some(value(&arg, argv.next(), INTEGER)?),
                "--k" => out.k = Some(value(&arg, argv.next(), INTEGER)?),
                "--seed" => out.seed = Some(value(&arg, argv.next(), INTEGER)?),
                "--smoke" => out.smoke = true,
                _ => out.names.push(arg),
            }
        }
        if out.scale.is_some_and(|s| !(s > 0.0 && s <= 1.0)) {
            return Err("--scale must lie in (0, 1]".into());
        }
        Ok(out)
    }

    /// The options in effect for an experiment with these defaults.
    pub fn args(&self, default_scale: f64, default_queries: usize) -> ExpArgs {
        ExpArgs {
            scale: self.scale.unwrap_or(default_scale),
            queries: self.queries.unwrap_or(default_queries),
            k: self.k.unwrap_or(21),
            seed: self.seed.unwrap_or(SEED),
            smoke: self.smoke,
        }
    }
}

const INTEGER: &str = "a non-negative integer";

/// Parses `flag`'s value `raw` as a `T`, which the error message names as
/// `what`.
fn value<T: std::str::FromStr>(flag: &str, raw: Option<String>, what: &str) -> Result<T, String> {
    match raw {
        None => Err(format!("{flag} requires {what}")),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("{flag} requires {what}, got {raw:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(argv: &[&str]) -> Result<Cli, String> {
        Cli::parse(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_apply() {
        let a = cli(&[]).unwrap().args(0.25, 100);
        assert_eq!(a.scale, 0.25);
        assert_eq!(a.queries, 100);
        assert_eq!(a.k, 21);
        assert_eq!(a.seed, SEED);
    }

    #[test]
    fn flags_override_and_names_stay_positional() {
        let c = cli(&[
            "table3",
            "--full",
            "--queries",
            "50",
            "fig02",
            "--scale",
            "0.5",
        ])
        .unwrap();
        assert_eq!(c.names, ["table3", "fig02"]);
        let a = c.args(0.25, 100);
        assert_eq!((a.scale, a.queries, a.smoke), (0.5, 50, false));
        let ((), out) = crate::report::capture(|| a.banner("T"));
        assert_eq!(
            out,
            b"=== T ===\n[scale=0.5 queries=50 k=21 seed=20010521]\n"
        );
    }

    #[test]
    fn bad_values_are_errors() {
        assert!(cli(&["--scale", "0"]).is_err());
        assert!(cli(&["--scale", "1.5"]).is_err());
        assert!(cli(&["--queries"]).is_err());
        assert!(cli(&["--seed", "x"]).is_err());
        // Integer flags take integers: no silent truncation or wrapping.
        for (flag, bad) in [
            ("--queries", "2.5"),
            ("--seed", "-7"),
            ("--k", "-3"),
            ("--seed", "1e30"),
        ] {
            let err = cli(&[flag, bad]).unwrap_err();
            assert!(err.contains(flag) && err.contains(bad), "{err}");
        }
        assert!(cli(&["--scale", "x"]).unwrap_err().contains("--scale"));
    }
}
