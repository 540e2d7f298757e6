//! The `hdidx` binary resolves its kernel ISA before it runs a command: a
//! value of `HDIDX_SIMD` or `--simd` that names no supported ISA is a
//! startup error (exit 1, `error: ...` on stderr naming where the value
//! came from), never a panic at the first kernel call, and a good value
//! keeps its provenance on the report's `simd:` line.

use std::process::{Command, Output};
use std::sync::OnceLock;

/// Runs `hdidx <args>` with `HDIDX_SIMD` set to `env`, or removed.
fn hdidx(env: Option<&str>, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hdidx"));
    cmd.args(args);
    match env {
        Some(v) => cmd.env("HDIDX_SIMD", v),
        None => cmd.env_remove("HDIDX_SIMD"),
    };
    cmd.output().unwrap()
}

/// `hdidx measure` over a small TEXTURE48 CSV (generated once per test
/// process), plus `extra` flags.
fn measure(env: Option<&str>, extra: &[&str]) -> Output {
    static CSV: OnceLock<String> = OnceLock::new();
    let csv = CSV.get_or_init(|| {
        let csv = format!("{}/simd_env_t48.csv", env!("CARGO_TARGET_TMPDIR"));
        let out = hdidx(
            None,
            &[
                "generate",
                "--dataset",
                "texture48",
                "--scale",
                "0.05",
                "--out",
                &csv,
            ],
        );
        assert!(out.status.success(), "generate failed: {out:?}");
        csv
    });
    let mut args = vec![
        "measure",
        "--data",
        csv,
        "--m",
        "200",
        "--queries",
        "5",
        "--k",
        "3",
    ];
    args.extend(extra);
    hdidx(env, &args)
}

fn assert_rejected(out: &Output, names: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "a rejected run prints no report");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(names),
        "stderr must name {names}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn bad_hdidx_simd_values_exit_1_naming_the_variable() {
    for bad in ["sse2", "avx512", "junk", ""] {
        let out = measure(Some(bad), &[]);
        assert_rejected(&out, "HDIDX_SIMD");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{bad:?}")), "{stderr}");
    }
}

#[test]
fn bad_simd_flag_exits_1_naming_the_flag() {
    assert_rejected(&measure(None, &["--simd", "sse2"]), "--simd");
}

#[test]
fn report_keeps_the_provenance_of_the_isa() {
    let simd_line = |env: Option<&str>, extra: &[&str]| {
        let out = measure(env, extra);
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        stdout
            .lines()
            .find_map(|l| l.strip_prefix("simd: ").map(str::to_string))
            .unwrap_or_else(|| panic!("no simd: line in {stdout}"))
    };
    assert_eq!(simd_line(Some("scalar"), &[]), "scalar (env)");
    assert_eq!(simd_line(Some(" scalar "), &[]), "scalar (env)");
    assert!(simd_line(None, &[]).ends_with(" (detected)"));
    // The flag outranks the variable and is reported as forced.
    assert_eq!(
        simd_line(Some("auto"), &["--simd", "scalar"]),
        "scalar (forced)"
    );
}
