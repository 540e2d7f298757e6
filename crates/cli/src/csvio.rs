//! CSV dataset I/O: one point per line, comma-separated coordinates.
//! Blank lines and `#` comment lines are skipped. A header line is
//! detected (first line whose first field does not parse as a number) and
//! ignored.
//!
//! Every malformed input — ragged rows, non-numeric or non-finite fields,
//! empty files, header-only files — is reported as a line-numbered
//! [`Error::InvalidParameter`] (parameter `csv`), never a panic.

use hdidx_core::{Dataset, Error, Result};
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

/// Reads a dataset from a CSV file.
///
/// # Errors
///
/// [`Error::InvalidParameter`] for I/O failures, ragged rows, non-numeric
/// or non-finite fields, or a file with no data rows.
pub fn read_csv(path: &Path) -> Result<Dataset> {
    let file = std::fs::File::open(path)
        .map_err(|e| Error::invalid("csv", format!("cannot open {path:?}: {e}")))?;
    let reader = std::io::BufReader::new(file);
    parse_csv(reader)
}

/// Parses CSV content from any reader (unit-test seam).
///
/// # Errors
///
/// Same conditions as [`read_csv`].
pub fn parse_csv<R: BufRead>(reader: R) -> Result<Dataset> {
    let mut dim = 0usize;
    let mut data: Vec<f32> = Vec::new();
    let mut row = 0usize;
    let mut header_allowed = true;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| {
            Error::invalid("csv", format!("read error at line {}: {e}", lineno + 1))
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        if header_allowed && fields[0].parse::<f32>().is_err() {
            // Header line: skip once.
            header_allowed = false;
            continue;
        }
        header_allowed = false;
        if fields.iter().any(|f| f.is_empty()) {
            return Err(Error::invalid(
                "csv",
                format!("line {}: empty field", lineno + 1),
            ));
        }
        if dim == 0 {
            dim = fields.len();
        } else if fields.len() != dim {
            return Err(Error::invalid(
                "csv",
                format!(
                    "line {}: expected {dim} fields, found {}",
                    lineno + 1,
                    fields.len()
                ),
            ));
        }
        for f in &fields {
            let v: f32 = f.parse().map_err(|_| {
                Error::invalid(
                    "csv",
                    format!("line {}: cannot parse `{f}` as a number", lineno + 1),
                )
            })?;
            if !v.is_finite() {
                return Err(Error::invalid(
                    "csv",
                    format!("line {}: non-finite value `{f}`", lineno + 1),
                ));
            }
            data.push(v);
        }
        row += 1;
    }
    if row == 0 {
        return Err(Error::invalid("csv", "no data rows found"));
    }
    Dataset::from_flat(dim, data)
}

/// Writes a dataset as CSV.
///
/// # Errors
///
/// [`Error::InvalidParameter`] on I/O failure.
pub fn write_csv(path: &Path, data: &Dataset) -> Result<()> {
    let file = std::fs::File::create(path)
        .map_err(|e| Error::invalid("csv", format!("cannot create {path:?}: {e}")))?;
    let mut w = BufWriter::new(file);
    let mut line = String::new();
    for i in 0..data.len() {
        line.clear();
        for (j, x) in data.point(i).iter().enumerate() {
            if j > 0 {
                line.push(',');
            }
            line.push_str(&format!("{x}"));
        }
        line.push('\n');
        w.write_all(line.as_bytes())
            .map_err(|e| Error::invalid("csv", format!("write error: {e}")))?;
    }
    w.flush()
        .map_err(|e| Error::invalid("csv", format!("write error: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_check::{check, prop_assert, prop_assert_eq, Config, Verdict};
    use hdidx_rand::{seeded, Rng, Xoshiro256pp};

    fn parse(s: &str) -> Result<Dataset> {
        parse_csv(std::io::Cursor::new(s.to_string()))
    }

    /// The malformed-input contract: an `InvalidParameter` on the `csv`
    /// parameter whose message contains `needle`.
    fn assert_csv_err(input: &str, needle: &str) {
        match parse(input) {
            Err(Error::InvalidParameter { name, message }) => {
                assert_eq!(name, "csv", "{input:?}");
                assert!(message.contains(needle), "{input:?}: {message}");
            }
            other => panic!("{input:?}: expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn parses_plain_csv() {
        let d = parse("1.0,2.0\n3.5,-4.25\n").unwrap();
        assert_eq!(d.dim(), 2);
        assert_eq!(d.len(), 2);
        assert_eq!(d.point(1), &[3.5, -4.25]);
    }

    #[test]
    fn skips_header_comments_and_blanks() {
        let d = parse("# comment\nx,y\n\n1,2\n# another\n3,4\n").unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.point(0), &[1.0, 2.0]);
    }

    #[test]
    fn ragged_rows_are_line_numbered_errors() {
        assert_csv_err("1,2\n3\n", "line 2: expected 2 fields, found 1");
        assert_csv_err("1,2\n3,4,5\n", "line 2: expected 2 fields, found 3");
        // Line numbers count raw lines, including skipped ones.
        assert_csv_err("# c\nx,y\n1,2\n\n3\n", "line 5: expected 2 fields");
    }

    #[test]
    fn bad_fields_are_line_numbered_errors() {
        assert_csv_err("1,abc\n", "line 1: cannot parse `abc`");
        assert_csv_err("1,2\n3,nan\n", "line 2: non-finite value `nan`");
        assert_csv_err("1,inf\n", "line 1: non-finite value `inf`");
        assert_csv_err("1,-inf\n", "non-finite value `-inf`");
        assert_csv_err("1,,3\n", "line 1: empty field");
        // Two consecutive non-numeric lines: only one header allowed.
        assert_csv_err("x,y\na,b\n1,2\n", "line 2: cannot parse `a`");
    }

    #[test]
    fn empty_inputs_are_errors_not_panics() {
        assert_csv_err("", "no data rows");
        assert_csv_err("# only comments\n", "no data rows");
        assert_csv_err("\n\n\n", "no data rows");
        // A header with no data below it (zero-dimension dataset).
        assert_csv_err("x,y,z\n", "no data rows");
        assert_csv_err("x,y\n# trailing comment\n\n", "no data rows");
    }

    #[test]
    fn roundtrip_through_file() {
        let data = Dataset::from_flat(3, vec![1.0, 2.5, -3.0, 0.125, 4.0, 5.5]).unwrap();
        let dir = std::env::temp_dir().join("hdidx_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.csv");
        write_csv(&path, &data).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back, data);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_reported() {
        let err = read_csv(Path::new("/nonexistent/nope.csv")).unwrap_err();
        assert!(err.to_string().contains("cannot open"), "{err}");
        assert!(matches!(err, Error::InvalidParameter { name: "csv", .. }));
    }

    /// Kinds of CSV input the parser property mixes.
    const VALID: u8 = 0;
    const ARBITRARY: u8 = 1;
    const TRUNCATED: u8 = 2;
    const FLIPPED: u8 = 3;
    const CSV_KINDS: u8 = 5;

    fn byte(rng: &mut Xoshiro256pp) -> u8 {
        rng.gen_range(0..=255u32) as u8
    }

    /// A well-formed CSV text drawn from `rng` (optional header, comment
    /// and blank lines around 1–6 rows of 1–5 fields) and its dataset.
    fn valid_csv(rng: &mut Xoshiro256pp) -> (String, Dataset) {
        let dim = rng.gen_range(1..=5usize);
        let values: Vec<f32> = (0..dim * rng.gen_range(1..=6usize))
            .map(|_| (rng.gen::<f32>() - 0.5) * [1.0, 1e3, 1e-3][rng.gen_range(0..3usize)])
            .collect();
        let mut text = String::new();
        if rng.gen_bool(0.3) {
            text.push_str("x,y\n");
        }
        for row in values.chunks(dim) {
            if rng.gen_bool(0.2) {
                text.push_str(["\n", "# note\n", "  \n"][rng.gen_range(0..3usize)]);
            }
            let fields: Vec<String> = row.iter().map(|x| format!("{x}")).collect();
            text.push_str(&fields.join(","));
            text.push('\n');
        }
        (text, Dataset::from_flat(dim, values).unwrap())
    }

    /// Input bytes of kind `kind % CSV_KINDS` drawn from `seed`: a valid
    /// CSV text, arbitrary bytes, or a valid text cut short, with bits
    /// flipped, or with bytes inserted or deleted. Also returns the
    /// dataset a `VALID` text must parse to.
    fn csv_of_kind(seed: u64, kind: u8) -> (Vec<u8>, Dataset) {
        let mut rng = seeded(seed);
        let (text, data) = valid_csv(&mut rng);
        let mut bytes = text.into_bytes();
        match kind % CSV_KINDS {
            VALID => {}
            ARBITRARY => {
                let len = rng.gen_range(0..=64usize);
                bytes = (0..len).map(|_| byte(&mut rng)).collect();
            }
            TRUNCATED => bytes.truncate(rng.gen_range(0..bytes.len())),
            FLIPPED => {
                for _ in 0..rng.gen_range(1..=4) {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] ^= 1 << rng.gen_range(0..8u32);
                }
            }
            _ => {
                // Resized: bytes inserted or deleted.
                let at = rng.gen_range(0..bytes.len());
                let n = rng.gen_range(1..=8usize);
                if rng.gen_bool(0.5) {
                    bytes.drain(at..(at + n).min(bytes.len()));
                } else {
                    let ins: Vec<u8> = (0..n).map(|_| byte(&mut rng)).collect();
                    bytes.splice(at..at, ins);
                }
            }
        }
        (bytes, data)
    }

    #[test]
    fn parser_returns_a_dataset_or_a_csv_error_on_any_bytes() {
        check(
            "CSV parser",
            &Config::with_cases(2048),
            |rng| (rng.gen::<u64>(), rng.gen_range(0..CSV_KINDS)),
            |&(seed, kind)| {
                let (bytes, data) = csv_of_kind(seed, kind);
                match parse_csv(std::io::Cursor::new(&bytes)) {
                    Ok(d) if kind % CSV_KINDS == VALID => prop_assert_eq!(d, data),
                    Ok(d) => prop_assert!(
                        !d.is_empty() && d.as_flat().iter().all(|v| v.is_finite()),
                        "{d:?}"
                    ),
                    Err(Error::InvalidParameter { name: "csv", .. }) => {
                        prop_assert!(kind % CSV_KINDS != VALID, "valid text rejected");
                    }
                    Err(e) => {
                        return Verdict::Fail(format!("error outside the csv contract: {e:?}"))
                    }
                }
                Verdict::Pass
            },
        );
    }
}
