//! Byte locks on what the suite writes and reads back.
//!
//! `Report::write_all` renders `suite_summary.csv`, `layer_traffic.csv`
//! and `layer_traffic.md` from the suite rows. Each file's FNV-1a digest
//! for the uncached seed-1 suite is pinned here, so a change to how the
//! report is rendered cannot move a byte unnoticed. The simulators are
//! pinned separately (the goldens), so a digest that moves with them
//! needs its reason in the same commit.
//!
//! The cache stores each row's `NetworkMetrics` as JSON; every one of
//! the suite's 44 must decode back bit for bit, straight from the text
//! and through a tree alike.

use isos_sim::metrics::NetworkMetrics;
use isosceles::accel::{fnv1a, FNV_OFFSET};
use isosceles_bench::engine::{EngineOptions, SuiteEngine};
use isosceles_bench::report::Report;
use isosceles_bench::suite::SuiteRow;
use serde::Deserialize;

const PINNED: [(&str, u64); 3] = [
    ("suite_summary.csv", 0x0816_536f_f932_9d1a),
    ("layer_traffic.csv", 0x76d4_8bc7_2475_01c6),
    ("layer_traffic.md", 0xf418_ccbb_a1b0_c947),
];

/// The uncached seed-1 suite.
fn suite_rows() -> Vec<SuiteRow> {
    let engine = SuiteEngine::new(EngineOptions {
        threads: 2,
        use_cache: false,
        quiet: true,
        ..EngineOptions::default()
    });
    engine.run_suite(1).rows
}

#[test]
fn write_all_bytes_are_pinned() {
    let report = Report::new(suite_rows());
    let dir = std::env::temp_dir().join(format!("isos-report-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let paths = report.write_all(&dir).expect("write report");
    let names: Vec<_> = paths
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, PINNED.map(|(name, _)| name));

    let digests: Vec<(&str, u64)> = PINNED
        .iter()
        .map(|&(name, _)| {
            let bytes = std::fs::read(dir.join(name)).expect("read report file");
            (name, fnv1a(FNV_OFFSET, &bytes))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        digests,
        PINNED,
        "report digests moved; got {:#018x?}",
        digests.iter().map(|&(_, d)| d).collect::<Vec<_>>()
    );
}

#[test]
fn suite_metrics_round_trip_bit_for_bit() {
    let rows = suite_rows();
    let mut decoded = 0;
    for row in &rows {
        for (accel, metrics) in row.models() {
            let text = serde::json::to_string(metrics);
            let direct: NetworkMetrics = serde::json::from_str(&text).unwrap();
            let tree = serde::json::parse(&text).unwrap();
            let via_tree = NetworkMetrics::from_value(&tree).unwrap();
            // `Debug` spells every float exactly, so equal text is equal bits.
            let want = format!("{metrics:?}");
            assert_eq!(format!("{direct:?}"), want, "{}/{accel}", row.id);
            assert_eq!(format!("{via_tree:?}"), want, "{}/{accel}", row.id);
            assert_eq!(serde::json::to_string(&direct), text);
            decoded += 1;
        }
    }
    assert_eq!(decoded, 44);
}
