//! CSV/markdown export of experiment results.
//!
//! Every `paper` command prints human-readable tables; [`CsvTable`] writes
//! the same data as CSV (or markdown) under `results/` so plots can be
//! regenerated with any external tool (`cargo run -p isosceles-bench
//! --bin paper -- export`). [`Report`] wraps a finished suite run and
//! derives the standard tables from it, including the per-layer traffic
//! split behind the paper's Fig. 14-style analyses.

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
        let write_row = |out: &mut String, cells: &[String]| {
            let line = cells
                .iter()
                .map(|c| {
                    if c.contains([',', '"', '\n']) {
                        format!("\"{}\"", c.replace('"', "\"\""))
                    } else {
                        c.clone()
                    }
                })
                .collect::<Vec<_>>()
                .join(",");
            let _ = writeln!(out, "{line}");
        };
        write_row(&mut out, &self.headers);
        for row in &self.rows {
            write_row(&mut out, row);
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
        let escape = |c: &String| c.replace('|', "\\|").replace('\n', " ");
        let mut out = String::new();
        let _ = writeln!(
            out,
            "| {} |",
            self.headers
                .iter()
                .map(&escape)
                .collect::<Vec<_>>()
                .join(" | ")
        );
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| " --- ")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "| {} |",
                row.iter().map(&escape).collect::<Vec<_>>().join(" | ")
            );
        }
        out
    }

    /// Writes the table to `dir/name.md`, creating `dir` if needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_markdown(&self, dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.md"));
        std::fs::write(&path, self.to_markdown())?;
        Ok(path)
    }
}

/// A finished suite run plus the standard derived tables.
///
/// The whole-network tables repeat what the figure binaries print; the
/// per-layer table is new with the shared metrics layer: one row per
/// `(workload, accelerator, layer)` with the layer's cycle and traffic
/// split, exported as both CSV and markdown by [`Report::write_all`].
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

    /// Whole-network summary: speedups and traffic ratios per workload.
    pub fn summary_table(&self) -> CsvTable {
        let mut t = CsvTable::new(&[
            "net",
            "isosceles_speedup_vs_sparten",
            "isosceles_speedup_vs_fused",
            "sparten_traffic_ratio",
        ]);
        for r in &self.rows {
            t.push_row(vec![
                r.id.to_string(),
                format!("{:.3}", r.speedup_vs_sparten()),
                format!("{:.3}", r.speedup_vs_fused()),
                format!("{:.3}", r.sparten_traffic_ratio()),
            ]);
        }
        t
    }

    /// Per-layer traffic split (the Fig. 14c decomposition at layer
    /// granularity): one row per `(workload, accelerator, layer)` with
    /// cycles, weight/activation bytes, and each layer's share of its
    /// network's total traffic.
    pub fn layer_traffic_table(&self) -> CsvTable {
        let mut t = CsvTable::new(&[
            "net",
            "accel",
            "layer",
            "cycles",
            "weight_bytes",
            "act_bytes",
            "traffic_share",
        ]);
        for r in &self.rows {
            for (accel, metrics) in r.models() {
                let net_total = metrics.total.total_traffic().max(f64::MIN_POSITIVE);
                for (layer, m) in &metrics.layers {
                    t.push_row(vec![
                        r.id.to_string(),
                        accel.to_string(),
                        layer.clone(),
                        m.cycles.to_string(),
                        format!("{:.1}", m.weight_traffic),
                        format!("{:.1}", m.act_traffic),
                        format!("{:.5}", m.total_traffic() / net_total),
                    ]);
                }
            }
        }
        t
    }

    /// Writes every derived table to `dir` as CSV, plus the per-layer
    /// traffic table as markdown; returns the written paths.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_all(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        let layers = self.layer_traffic_table();
        Ok(vec![
            self.summary_table().write(dir, "suite_summary")?,
            layers.write(dir, "layer_traffic")?,
            layers.write_markdown(dir, "layer_traffic")?,
        ])
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
    fn writes_markdown_to_disk() {
        let dir = std::env::temp_dir().join("isos-report-md-test");
        let mut t = CsvTable::new(&["x"]);
        t.push(&[1]);
        let path = t.write_markdown(&dir, "t").unwrap();
        assert!(path.ends_with("t.md"));
        assert_eq!(
            std::fs::read_to_string(path).unwrap(),
            "| x |\n| --- |\n| 1 |\n"
        );
        let _ = std::fs::remove_dir_all(dir);
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

        assert_eq!(report.summary_table().len(), 1);
        let layers = report.layer_traffic_table();
        let expected: usize = report.rows[0]
            .models()
            .iter()
            .map(|(_, m)| m.layers.len())
            .sum();
        assert_eq!(layers.len(), expected);
        assert!(expected >= 4, "each model contributes layer rows");

        // Per model, the traffic shares sum to ~1.
        let csv = layers.to_csv();
        for accel in ["isosceles", "sparten", "fused-layer"] {
            let share: f64 = csv
                .lines()
                .filter(|l| l.contains(&format!(",{accel},")))
                .map(|l| l.rsplit(',').next().unwrap().parse::<f64>().unwrap())
                .sum();
            assert!((share - 1.0).abs() < 1e-2, "{accel} shares sum to {share}");
        }

        let dir = std::env::temp_dir().join("isos-report-perlayer-test");
        let _ = std::fs::remove_dir_all(&dir);
        let paths = report.write_all(&dir).unwrap();
        assert_eq!(paths.len(), 3);
        assert!(paths.iter().all(|p| p.exists()));
        let _ = std::fs::remove_dir_all(dir);
    }
}
