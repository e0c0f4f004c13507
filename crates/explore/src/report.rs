//! Exporting search results: JSON for tooling, markdown + CSV tables for
//! humans, via the bench crate's [`CsvTable`]. Every per-image search
//! ([`ArchSearchResult`]) writes `dse-<workload>.*`, every streaming
//! search ([`StreamSearchResult`]) `dse-stream-<workload>.*`.

use crate::search::{ArchSearchResult, StreamSearchResult};
use isosceles_bench::report::CsvTable;
use std::path::{Path, PathBuf};

/// Builds the per-point results table (one row per simulated
/// description, dataflow family and frontier membership marked).
pub fn result_table(result: &ArchSearchResult) -> CsvTable {
    let mut t = CsvTable::new(&[
        "label",
        "dataflow",
        "cycles",
        "speedup_vs_default",
        "area_mm2",
        "energy_mj",
        "est_cycles",
        "model_error",
        "pareto",
    ]);
    for (i, e) in result.evaluated.iter().enumerate() {
        t.push_row(vec![
            e.label.clone(),
            e.desc.dataflow.style.label().to_string(),
            e.cycles.to_string(),
            format!("{:.3}", e.speedup_vs_default),
            format!("{:.3}", e.area_mm2),
            format!("{:.4}", e.energy_mj),
            format!("{:.0}", e.est_cycles),
            format!("{:.1}%", e.model_error() * 100.0),
            if result.frontier.contains(&i) {
                "*"
            } else {
                ""
            }
            .to_string(),
        ]);
    }
    t
}

/// Renders the full markdown report: summary paragraph plus the table.
pub fn to_markdown(result: &ArchSearchResult) -> String {
    format!(
        "# Architecture-space exploration: {}\n\n\
         Screened {} described points analytically ({} over the area \
         budget), simulated {} through the engine; {} on the (cycles, \
         mm\u{b2}, mJ) Pareto frontier. Screening: {:.0} ms; simulation \
         batch: {:.0} ms, cache {}.\n\n{}",
        result.workload,
        result.screened,
        result.over_budget,
        result.evaluated.len(),
        result.frontier.len(),
        result.screen_wall_millis,
        result.sim_wall_millis,
        result.cache,
        result_table(result).to_markdown()
    )
}

/// Writes `dse-<workload>.{json,csv,md}` under `dir`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_all(result: &ArchSearchResult, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let stem = format!("dse-{}", result.workload);
    let json = dir.join(format!("{stem}.json"));
    std::fs::write(&json, serde::json::to_string(result))?;
    let csv = result_table(result).write(dir, &stem)?;
    let md = dir.join(format!("{stem}.md"));
    std::fs::write(&md, to_markdown(result))?;
    Ok(vec![json, csv, md])
}

/// Builds the per-scenario table of a streaming search (one row per
/// `(point, batch)` pair, frontier membership marked).
pub fn stream_result_table(result: &StreamSearchResult) -> CsvTable {
    let mut t = CsvTable::new(&[
        "label",
        "batch",
        "cycles",
        "imgs_per_sec",
        "p50_cycles",
        "p95_cycles",
        "p99_cycles",
        "area_mm2",
        "energy_mj",
        "pareto",
    ]);
    for (i, e) in result.evaluated.iter().enumerate() {
        t.push_row(vec![
            e.label.clone(),
            e.batch.to_string(),
            e.cycles.to_string(),
            format!("{:.1}", e.throughput_imgs_per_sec),
            e.p50_cycles.to_string(),
            e.p95_cycles.to_string(),
            e.p99_cycles.to_string(),
            format!("{:.3}", e.area_mm2),
            format!("{:.4}", e.energy_mj),
            if result.frontier.contains(&i) {
                "*"
            } else {
                ""
            }
            .to_string(),
        ]);
    }
    t
}

/// Renders the streaming-search markdown report.
pub fn stream_to_markdown(result: &StreamSearchResult) -> String {
    format!(
        "# Streaming design-space exploration: {}\n\n\
         Screened {} points analytically ({} over the area budget), then \
         streamed {} requests per scenario across batch sizes {:?}; {} \
         scenarios simulated, {} on the (p99, cycles/img, mm\u{b2}) Pareto \
         frontier.\n\n{}",
        result.workload,
        result.screened,
        result.over_budget,
        result.requests,
        result.batches,
        result.evaluated.len(),
        result.frontier.len(),
        stream_result_table(result).to_markdown()
    )
}

/// Writes `dse-stream-<workload>.{json,csv,md}` under `dir`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_all_stream(result: &StreamSearchResult, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let stem = format!("dse-stream-{}", result.workload);
    let json = dir.join(format!("{stem}.json"));
    std::fs::write(&json, serde::json::to_string(result))?;
    let csv = stream_result_table(result).write(dir, &stem)?;
    let md = dir.join(format!("{stem}.md"));
    std::fs::write(&md, stream_to_markdown(result))?;
    Ok(vec![json, csv, md])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{ArchEvaluatedPoint, StreamEvaluatedPoint};
    use isosceles_bench::engine::CacheStats;

    fn tiny_result() -> ArchSearchResult {
        let mk = |label: &str, cycles: u64, area: f64| ArchEvaluatedPoint {
            label: label.into(),
            desc: crate::arch::reference::sparten(),
            cycles,
            est_cycles: cycles as f64 * 1.1,
            area_mm2: area,
            energy_mj: 0.5,
            speedup_vs_default: 100.0 / cycles as f64,
        };
        ArchSearchResult {
            workload: "G58".into(),
            screened: 12,
            over_budget: 2,
            evaluated: vec![mk("os-fast", 100, 20.0), mk("os-small", 150, 12.0)],
            frontier: vec![0, 1],
            cache: CacheStats { hits: 1, misses: 1 },
            screen_wall_millis: 40.0,
            sim_wall_millis: 3.0,
        }
    }

    #[test]
    fn table_marks_dataflow_and_frontier_rows() {
        let csv = result_table(&tiny_result()).to_csv();
        assert!(csv.starts_with("label,dataflow,cycles,"));
        assert!(csv.contains("os-fast,output-stationary,100,1.000,20.000,0.5000,110,10.0%,*"));
    }

    #[test]
    fn markdown_summarizes_counts() {
        let md = to_markdown(&tiny_result());
        assert!(md.contains("Screened 12 described points"));
        assert!(md.contains("2 over the area budget"));
        assert!(md.contains("| label |"));
        assert!(md.contains("1 hits / 1 misses"));
        assert!(md.contains("Screening: 40 ms; simulation batch: 3 ms"));
    }

    #[test]
    fn write_all_emits_three_files_that_round_trip() {
        let dir = std::env::temp_dir().join(format!("isos-dse-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let paths = write_all(&tiny_result(), &dir).unwrap();
        let names: Vec<_> = paths.iter().map(|p| p.file_name().unwrap()).collect();
        assert_eq!(names, ["dse-G58.json", "dse-G58.csv", "dse-G58.md"]);
        for p in &paths {
            assert!(p.exists(), "{p:?} missing");
        }
        let text = std::fs::read_to_string(&paths[0]).unwrap();
        let back: ArchSearchResult = serde::json::from_str(&text).unwrap();
        assert_eq!(back, tiny_result());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn tiny_stream_result() -> StreamSearchResult {
        let mk = |label: &str, batch: u64, cycles: u64, p99: u64| StreamEvaluatedPoint {
            label: label.into(),
            desc: crate::arch::reference::isosceles(),
            batch,
            cycles,
            p50_cycles: p99 / 2,
            p95_cycles: p99 - 10,
            p99_cycles: p99,
            throughput_imgs_per_sec: 8.0 * 1e9 / cycles as f64,
            area_mm2: 20.0,
            energy_mj: 0.6,
        };
        StreamSearchResult {
            workload: "G58".into(),
            requests: 8,
            batches: vec![1, 2],
            screened: 4,
            over_budget: 0,
            evaluated: vec![mk("fast", 1, 900, 120), mk("fast", 2, 800, 200)],
            frontier: vec![0, 1],
        }
    }

    #[test]
    fn stream_table_and_markdown_cover_the_batch_axis() {
        let t = stream_result_table(&tiny_stream_result());
        let csv = t.to_csv();
        assert!(csv.starts_with("label,batch,cycles,imgs_per_sec,"));
        assert!(csv.contains("fast,1,900,"));
        assert!(csv.contains("fast,2,800,"));
        let md = stream_to_markdown(&tiny_stream_result());
        assert!(md.contains("streamed 8 requests"));
        assert!(md.contains("batch sizes [1, 2]"));
        assert!(md.contains("p99"));
    }

    #[test]
    fn stream_files_round_trip() {
        let dir =
            std::env::temp_dir().join(format!("isos-dse-stream-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let paths = write_all_stream(&tiny_stream_result(), &dir).unwrap();
        let names: Vec<_> = paths.iter().map(|p| p.file_name().unwrap()).collect();
        assert_eq!(
            names,
            [
                "dse-stream-G58.json",
                "dse-stream-G58.csv",
                "dse-stream-G58.md"
            ]
        );
        let text = std::fs::read_to_string(&paths[0]).unwrap();
        let back: StreamSearchResult = serde::json::from_str(&text).unwrap();
        assert_eq!(back, tiny_stream_result());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
