//! The published headline numbers, recomputed.
//!
//! README.md's "Headline results" table and EXPERIMENTS.md's "Headline
//! claims" and Fig. 14a tables quote the suite's speedups and traffic
//! reductions. The goldens pin the simulators, but nothing tied those
//! docs to them, so the docs drifted while every golden held. These
//! tests run the uncached suite once at the default seed and compare
//! each quoted number at the precision the doc prints it.

use std::path::Path;
use std::sync::OnceLock;

use isos_sim::stats::geometric_mean;
use isosceles_bench::engine::{EngineOptions, SuiteEngine};
use isosceles_bench::suite::{SuiteRow, SEED};

/// The gmean and max of one per-workload ratio over the suite.
struct Ratio {
    gmean: f64,
    max: f64,
}

impl Ratio {
    fn of(rows: &[SuiteRow], f: impl Fn(&SuiteRow) -> f64) -> Self {
        let values: Vec<f64> = rows.iter().map(f).collect();
        Ratio {
            gmean: geometric_mean(&values),
            max: values.iter().copied().fold(f64::MIN, f64::max),
        }
    }
}

/// The uncached suite at the default seed, run once for every test.
fn suite_rows() -> &'static [SuiteRow] {
    static ROWS: OnceLock<Vec<SuiteRow>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let engine = SuiteEngine::new(EngineOptions {
            threads: 2,
            use_cache: false,
            quiet: true,
            ..EngineOptions::default()
        });
        let rows = engine.run_suite(SEED).rows;
        assert_eq!(rows.len(), 11);
        rows
    })
}

/// The `(label, ratio)` rows both docs quote, by the label README uses.
fn measured() -> Vec<(&'static str, Ratio)> {
    let rows = suite_rows();
    vec![
        (
            "gmean speedup vs SparTen",
            Ratio::of(rows, SuiteRow::speedup_vs_sparten),
        ),
        (
            "gmean speedup vs Fused-Layer",
            Ratio::of(rows, SuiteRow::speedup_vs_fused),
        ),
        (
            "gmean traffic reduction vs SparTen",
            Ratio::of(rows, SuiteRow::sparten_traffic_ratio),
        ),
        (
            "gmean traffic reduction vs Fused-Layer",
            Ratio::of(rows, |r| 1.0 / r.traffic_vs_fused()),
        ),
    ]
}

fn read_doc(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The part of `doc` under the heading that starts with `heading`, up to
/// the next heading of the same level.
fn section<'a>(doc: &'a str, heading: &str) -> &'a str {
    let start = doc
        .find(&format!("\n{heading}"))
        .unwrap_or_else(|| panic!("no section {heading:?}"))
        + 1;
    let level = heading.split(' ').next().expect("a heading");
    let rest = &doc[start + heading.len()..];
    let end = rest
        .find(&format!("\n{level} "))
        .map_or(doc.len(), |i| start + heading.len() + i);
    &doc[start..end]
}

/// The cells of the markdown table row whose first cell is `label`.
fn table_row<'a>(doc: &'a str, label: &str) -> Vec<&'a str> {
    doc.lines()
        .map(|line| {
            line.trim()
                .trim_matches('|')
                .split('|')
                .map(str::trim)
                .collect::<Vec<_>>()
        })
        .find(|cells| cells[0] == label)
        .unwrap_or_else(|| panic!("no table row labelled {label:?}"))
}

/// Asserts that `quoted` (a number like `3.51x` or `6.4`) equals `value`
/// rounded to as many decimals as `quoted` prints.
fn assert_quoted(doc: &str, label: &str, quoted: &str, value: f64) {
    let quoted = quoted.trim_end_matches('x');
    let decimals = quoted.split_once('.').map_or(0, |(_, frac)| frac.len());
    let rounded = format!("{value:.decimals$}");
    assert_eq!(
        quoted, rounded,
        "{doc} {label:?} quotes {quoted}, the suite measures {value:.4}"
    );
}

/// README's first three headline rows: `<gmean>x (max <max>x)`.
#[test]
fn readme_headline_table_matches_the_suite() {
    let readme = read_doc("README.md");
    for (label, ratio) in measured().iter().take(3) {
        let cells = table_row(&readme, label);
        let cell = cells[2];
        let (gmean, rest) = cell
            .split_once(" (max ")
            .unwrap_or_else(|| panic!("README {label:?}: cell {cell:?}"));
        let max = rest.trim_end_matches(')');
        assert_quoted("README.md", label, gmean, ratio.gmean);
        assert_quoted("README.md", label, max, ratio.max);
    }
}

/// EXPERIMENTS.md's four gmean headline rows, Measured column.
#[test]
fn experiments_headline_gmeans_match_the_suite() {
    let experiments = read_doc("EXPERIMENTS.md");
    for (label, ratio) in measured() {
        // EXPERIMENTS.md names the SparTen baseline with its GoSPA filter.
        let doc_label = if label == "gmean speedup vs SparTen" {
            "gmean speedup vs SparTen(+GoSPA)"
        } else {
            label
        };
        let cells = table_row(&experiments, doc_label);
        assert_quoted("EXPERIMENTS.md", doc_label, cells[2], ratio.gmean);
    }
}

/// EXPERIMENTS.md's Fig. 14a table: SparTen's and ISOSceles' speedups
/// over Fused-Layer on all 11 workloads, as `paper fig14` prints them.
#[test]
fn experiments_fig14a_table_matches_the_suite() {
    let experiments = read_doc("EXPERIMENTS.md");
    let table = section(&experiments, "## Figure 14a");
    for row in suite_rows() {
        let net = row.id.to_string();
        let cells = table_row(table, &net);
        for (model, quoted, value) in [
            ("SparTen", cells[1], row.sparten_speedup_vs_fused()),
            ("ISOSceles", cells[2], row.speedup_vs_fused()),
        ] {
            let label = format!("Fig. 14a {net} {model}");
            assert_quoted("EXPERIMENTS.md", &label, quoted, value);
        }
    }
}
