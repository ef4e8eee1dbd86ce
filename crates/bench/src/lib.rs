//! Shared helpers for the figure/table regeneration binaries.
//!
//! Every `fig*`/`table*` binary prints a small preamble plus one or more
//! TSV blocks so outputs are both human-readable and trivially plottable
//! (`cut`/gnuplot/pandas all read them directly).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt::Display;

/// Prints the standard experiment header.
pub fn header(id: &str, title: &str, paper_anchor: &str) {
    println!("# {id}: {title}");
    println!("# paper anchor: {paper_anchor}");
    println!("#");
}

/// A TSV block writer: column names first, then rows.
#[derive(Debug)]
pub struct Table {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with column names.
    pub fn new<S: Into<String>>(columns: Vec<S>) -> Self {
        Table {
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row (must match the column count).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count.
    pub fn row<D: Display>(&mut self, cells: Vec<D>) -> &mut Self {
        assert_eq!(cells.len(), self.columns.len(), "column count mismatch");
        self.rows
            .push(cells.into_iter().map(|c| c.to_string()).collect());
        self
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Prints the block to stdout.
    pub fn print(&self) {
        println!("{}", self.columns.join("\t"));
        for row in &self.rows {
            println!("{}", row.join("\t"));
        }
        println!();
    }
}

/// Formats a ratio like "7.1x".
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "inf".into()
    } else {
        format!("{:.1}x", a / b)
    }
}

/// The unsigned value following `flag` in `args`, or `default` when the
/// flag is absent. A present flag whose value is missing or not an
/// unsigned integer prints a message naming the flag and exits with
/// status 2, instead of silently running the default.
pub fn parse_flag(args: &[String], flag: &str, default: u64) -> u64 {
    try_parse_flag(args, flag, default).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(2)
    })
}

fn try_parse_flag(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(default);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: '{value}' is not an unsigned integer"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec![1, 2]).row(vec![3, 4]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn table_validates_width() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec![1]);
    }

    #[test]
    fn flags_parse_or_fail_loudly() {
        let args: Vec<String> = ["bin", "--requests", "2000", "--seed", "2k", "--threads"]
            .map(String::from)
            .into();
        assert_eq!(try_parse_flag(&args, "--requests", 6000), Ok(2000));
        assert_eq!(try_parse_flag(&args, "--replicates", 1), Ok(1));
        assert_eq!(
            try_parse_flag(&args, "--seed", 42),
            Err("--seed: '2k' is not an unsigned integer".to_string())
        );
        assert_eq!(
            try_parse_flag(&args, "--threads", 2),
            Err("--threads needs a value".to_string())
        );
    }

    #[test]
    fn ratio_format() {
        assert_eq!(ratio(7.1, 1.0), "7.1x");
        assert_eq!(ratio(1.0, 0.0), "inf");
    }
}
