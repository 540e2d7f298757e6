//! Plain-text table formatting for the experiment binaries (aligned
//! columns, same rows as the paper's tables).

/// A simple left-aligned text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("| ");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{c:<w$} | ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let sep: String = widths
            .iter()
            .map(|w| format!("|{}", "-".repeat(w + 2)))
            .collect::<String>()
            + "|";
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table.
    pub fn print(&self) {
        crate::report::print(format_args!("{}", self.render()));
    }
}

/// Formats a signed relative error as the paper does (`-32%`, `+3%`).
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", 100.0 * x)
}

/// Formats seconds with millisecond resolution.
pub fn secs(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["Method", "Err"]);
        t.row(vec!["On-disk".into(), "0%".into()]);
        t.row(vec!["X".into(), "+3%".into()]);
        let r = t.render();
        assert!(r.contains("| Method  | Err |"));
        assert!(r.lines().count() == 4);
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(pct(-0.32), "-32.0%");
        assert_eq!(pct(0.031), "+3.1%");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }
}
