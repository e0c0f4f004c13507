//! CSV/markdown export of experiment results.
//!
//! Every `paper` command prints human-readable tables; [`CsvTable`] writes
//! the same data as CSV (or markdown) under `results/` so plots can be
//! regenerated with any external tool (`cargo run -p isosceles-bench
//! --bin paper -- export`). [`Report`] wraps a finished suite run and
//! renders the standard tables from it in one pass, including the
//! per-layer traffic split behind the paper's Fig. 14-style analyses.
//! Both share one cell writer, which quotes or escapes only the cells
//! that need it.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::suite::SuiteRow;

/// A CSV table in memory.
#[derive(Clone, Debug, Default)]
pub struct CsvTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Convenience: appends a row of displayable cells.
    pub fn push<D: std::fmt::Display>(&mut self, cells: &[D]) {
        self.push_row(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders RFC-4180-ish CSV (quotes cells containing separators).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for row in std::iter::once(&self.headers).chain(&self.rows) {
            csv_line(&mut out, row.iter().map(String::as_str));
        }
        out
    }

    /// Writes the table to `dir/name.csv`, creating `dir` if needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }

    /// Renders a GitHub-flavored markdown table (pipes in cells are
    /// escaped so column boundaries survive).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        markdown_line(&mut out, self.headers.iter().map(String::as_str));
        markdown_separator(&mut out, self.headers.len());
        for row in &self.rows {
            markdown_line(&mut out, row.iter().map(String::as_str));
        }
        out
    }
}

/// Appends one CSV cell, quoted only if it holds a separator, a quote
/// or a newline.
fn csv_cell(out: &mut String, cell: &str) {
    if !cell.bytes().any(|b| matches!(b, b',' | b'"' | b'\n')) {
        out.push_str(cell);
        return;
    }
    out.push('"');
    for (i, part) in cell.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

/// Appends one markdown cell: pipes escaped, newlines flattened to
/// spaces.
fn markdown_cell(out: &mut String, cell: &str) {
    if !cell.bytes().any(|b| matches!(b, b'|' | b'\n')) {
        out.push_str(cell);
        return;
    }
    for c in cell.chars() {
        match c {
            '|' => out.push_str("\\|"),
            '\n' => out.push(' '),
            c => out.push(c),
        }
    }
}

/// Appends one CSV line.
fn csv_line<'a>(out: &mut String, cells: impl IntoIterator<Item = &'a str>) {
    for (i, cell) in cells.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        csv_cell(out, cell);
    }
    out.push('\n');
}

/// Appends markdown cells, each followed by its closing `|`.
fn markdown_cells<'a>(out: &mut String, cells: impl IntoIterator<Item = &'a str>) {
    for cell in cells {
        out.push(' ');
        markdown_cell(out, cell);
        out.push_str(" |");
    }
}

/// Appends one markdown table line.
fn markdown_line<'a>(out: &mut String, cells: impl IntoIterator<Item = &'a str>) {
    out.push('|');
    markdown_cells(out, cells);
    out.push('\n');
}

/// Appends the line that separates a markdown table's header from its
/// rows.
fn markdown_separator(out: &mut String, columns: usize) {
    out.push('|');
    for _ in 0..columns {
        out.push_str(" --- |");
    }
    out.push('\n');
}

/// Columns of `suite_summary.csv`.
const SUMMARY_HEADERS: [&str; 4] = [
    "net",
    "isosceles_speedup_vs_sparten",
    "isosceles_speedup_vs_fused",
    "sparten_traffic_ratio",
];

/// Columns of `layer_traffic.csv` and `layer_traffic.md`.
const LAYER_HEADERS: [&str; 7] = [
    "net",
    "accel",
    "layer",
    "cycles",
    "weight_bytes",
    "act_bytes",
    "traffic_share",
];

/// A finished suite run plus the standard derived tables.
///
/// The whole-network summary repeats what the figure binaries print;
/// the per-layer table has one row per `(workload, accelerator, layer)`
/// with the layer's cycle and traffic split, exported as both CSV and
/// markdown. [`Report::write_all`] renders all three files.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// One row per suite workload, in paper figure order.
    pub rows: Vec<SuiteRow>,
}

impl Report {
    /// Wraps finished suite rows.
    pub fn new(rows: Vec<SuiteRow>) -> Self {
        Self { rows }
    }

    /// Writes `suite_summary.csv` (speedups and traffic ratios per
    /// workload), and the per-layer traffic split (the Fig. 14c
    /// decomposition at layer granularity: cycles, weight/activation
    /// bytes, and each layer's share of its network's total traffic) as
    /// `layer_traffic.csv` and `layer_traffic.md`. Returns the written
    /// paths.
    ///
    /// All three render in one pass over the rows, straight into their
    /// output buffers: each number is formatted once, into the CSV line,
    /// and the markdown line copies it from there.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_all(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        let mut summary = String::new();
        let mut csv = String::new();
        let mut md = String::new();
        // The cells every line of one model's layers opens with.
        let (mut csv_head, mut md_head) = (String::new(), String::new());
        csv_line(&mut summary, SUMMARY_HEADERS);
        csv_line(&mut csv, LAYER_HEADERS);
        markdown_line(&mut md, LAYER_HEADERS);
        markdown_separator(&mut md, LAYER_HEADERS.len());
        for r in &self.rows {
            let id = r.id.as_str();
            csv_cell(&mut summary, id);
            let _ = writeln!(
                summary,
                ",{:.3},{:.3},{:.3}",
                r.speedup_vs_sparten(),
                r.speedup_vs_fused(),
                r.sparten_traffic_ratio()
            );
            for (accel, metrics) in r.models() {
                let net_total = metrics.total.total_traffic().max(f64::MIN_POSITIVE);
                csv_head.clear();
                for cell in [id, accel] {
                    csv_cell(&mut csv_head, cell);
                    csv_head.push(',');
                }
                md_head.clear();
                md_head.push('|');
                markdown_cells(&mut md_head, [id, accel]);
                for (layer, m) in &metrics.layers {
                    csv.push_str(&csv_head);
                    csv_cell(&mut csv, layer);
                    let numbers = csv.len() + 1;
                    let _ = writeln!(
                        csv,
                        ",{},{:.1},{:.1},{:.5}",
                        m.cycles,
                        m.weight_traffic,
                        m.act_traffic,
                        m.total_traffic() / net_total
                    );
                    // The numbers never need quoting or escaping: the
                    // markdown line copies them from the CSV line.
                    let numbers = csv[numbers..csv.len() - 1].split(',');
                    md.push_str(&md_head);
                    markdown_cells(&mut md, std::iter::once(layer.as_str()).chain(numbers));
                    md.push('\n');
                }
            }
        }
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::with_capacity(3);
        for (name, text) in [
            ("suite_summary.csv", summary),
            ("layer_traffic.csv", csv),
            ("layer_traffic.md", md),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, text)?;
            paths.push(path);
        }
        Ok(paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_headers_and_rows() {
        let mut t = CsvTable::new(&["net", "speedup"]);
        t.push(&["R96".to_string(), "4.9".to_string()]);
        assert_eq!(t.to_csv(), "net,speedup\nR96,4.9\n");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn quotes_cells_with_separators() {
        let mut t = CsvTable::new(&["a"]);
        t.push_row(vec!["x,y \"z\"".into()]);
        assert_eq!(t.to_csv(), "a\n\"x,y \"\"z\"\"\"\n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = CsvTable::new(&["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn markdown_renders_header_separator_and_escapes_pipes() {
        let mut t = CsvTable::new(&["net", "speedup"]);
        t.push(&["R96", "4.9"]);
        t.push_row(vec!["a|b".into(), "multi\nline".into()]);
        assert_eq!(
            t.to_markdown(),
            "| net | speedup |\n\
             | --- | --- |\n\
             | R96 | 4.9 |\n\
             | a\\|b | multi line |\n"
        );
    }

    #[test]
    fn special_cells_render_in_csv_and_markdown() {
        let mut t = CsvTable::new(&["h,1", "h|2"]);
        t.push(&["a,b", "say \"hi\""]);
        t.push(&["x|y", "two\nlines"]);
        t.push(&["all ,\"|\n", ""]);
        assert_eq!(
            t.to_csv(),
            "\"h,1\",h|2\n\
             \"a,b\",\"say \"\"hi\"\"\"\n\
             x|y,\"two\nlines\"\n\
             \"all ,\"\"|\n\",\n"
        );
        assert_eq!(
            t.to_markdown(),
            "| h,1 | h\\|2 |\n\
             | --- | --- |\n\
             | a,b | say \"hi\" |\n\
             | x\\|y | two lines |\n\
             | all ,\"\\|  |  |\n"
        );
    }

    #[test]
    fn writes_to_disk() {
        let dir = std::env::temp_dir().join("isos-report-test");
        let mut t = CsvTable::new(&["x"]);
        t.push(&[1]);
        let path = t.write(&dir, "t").unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "x\n1\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn report_exports_per_layer_rows_for_every_model() {
        use crate::engine::WorkloadId;
        use crate::suite::SEED;
        use isos_baselines::{FusedLayerConfig, IsoscelesSingleConfig, SpartenConfig};
        use isosceles::accel::Accelerator;
        use isosceles::IsoscelesConfig;

        let w = isos_nn::models::suite_workload("G58", SEED);
        let row = SuiteRow {
            id: WorkloadId::new(w.id),
            isosceles: IsoscelesConfig::default().simulate(&w.network, SEED),
            single: IsoscelesSingleConfig::default().simulate(&w.network, SEED),
            sparten: SpartenConfig::default().simulate(&w.network, SEED),
            fused: FusedLayerConfig::default().simulate(&w.network, SEED),
        };
        let report = Report::new(vec![row]);

        let dir = std::env::temp_dir().join("isos-report-perlayer-test");
        let _ = std::fs::remove_dir_all(&dir);
        let paths = report.write_all(&dir).unwrap();
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
        let (summary, csv, md) = (
            read("suite_summary.csv"),
            read("layer_traffic.csv"),
            read("layer_traffic.md"),
        );
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(paths.len(), 3);
        assert_eq!(summary.lines().count(), 2, "header plus one workload");

        let expected: usize = report.rows[0]
            .models()
            .iter()
            .map(|(_, m)| m.layers.len())
            .sum();
        assert_eq!(csv.lines().count(), 1 + expected);
        assert_eq!(md.lines().count(), 2 + expected);
        assert!(expected >= 4, "each model contributes layer rows");

        // Per model, the traffic shares sum to ~1.
        for accel in ["isosceles", "sparten", "fused-layer"] {
            let share: f64 = csv
                .lines()
                .filter(|l| l.contains(&format!(",{accel},")))
                .map(|l| l.rsplit(',').next().unwrap().parse::<f64>().unwrap())
                .sum();
            assert!((share - 1.0).abs() < 1e-2, "{accel} shares sum to {share}");
        }
    }
}
