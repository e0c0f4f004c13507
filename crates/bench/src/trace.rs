//! Tracing entry points for the bench binaries.
//!
//! Wraps `isos-trace` for suite use: resolve a model by name, run any
//! suite workload on it with an [`EventBuffer`] attached, and export the
//! recorded timeline as Perfetto JSON (`*.trace.json`), occupancy CSV
//! (`*.timeline.csv`), and a markdown stall summary (`*.stalls.md`)
//! under `results/traces/`. Tracing is opt-in: nothing here runs unless
//! a binary is asked for it (`trace_run`, or `paper summary --trace`),
//! and traced metrics are bit-identical to untraced ones.

use std::io;
use std::path::{Path, PathBuf};

use isos_baselines::{FusedLayerConfig, IsoscelesSingleConfig, SpartenConfig};
use isos_nn::models::Workload;
use isos_sim::metrics::NetworkMetrics;
use isos_trace::export::{perfetto_json, stall_summary_md, timeline_csv};
use isos_trace::EventBuffer;
use isosceles::accel::Accelerator;
use isosceles::IsoscelesConfig;

/// Default output directory for exported traces.
pub const TRACE_DIR: &str = "results/traces";

/// The four default-configured suite models by name. Accepts the short
/// aliases `single` and `fused` alongside the canonical
/// [`Accelerator::name`]s.
pub fn accel_by_name(name: &str) -> Option<Box<dyn Accelerator>> {
    match name {
        "isosceles" => Some(Box::new(IsoscelesConfig::default())),
        "isosceles-single" | "single" => Some(Box::new(IsoscelesSingleConfig::default())),
        "sparten" => Some(Box::new(SpartenConfig::default())),
        "fused-layer" | "fused" => Some(Box::new(FusedLayerConfig::default())),
        _ => None,
    }
}

/// Canonical model names, in suite order.
pub const MODEL_NAMES: [&str; 4] = ["isosceles", "isosceles-single", "sparten", "fused-layer"];

/// Runs `workload` on `accel` with tracing enabled; returns the metrics
/// together with the recorded event buffer.
pub fn trace_workload(workload: &Workload, accel: &dyn Accelerator, seed: u64) -> TraceRun {
    let mut buf = EventBuffer::new();
    let metrics = accel.simulate_traced(&workload.network, seed, &mut buf);
    TraceRun {
        workload: workload.id.to_string(),
        model: accel.name().to_string(),
        metrics,
        buffer: buf,
    }
}

/// One traced simulation: the usual metrics plus the event stream behind
/// them.
pub struct TraceRun {
    /// Suite workload id (`"R81"`, ...).
    pub workload: String,
    /// Model name (`"isosceles"`, ...).
    pub model: String,
    /// The run's metrics — bit-identical to an untraced simulation.
    pub metrics: NetworkMetrics,
    /// Everything the model emitted.
    pub buffer: EventBuffer,
}

impl TraceRun {
    /// `<workload>-<model>` — the file stem the exporters use.
    pub fn stem(&self) -> String {
        format!("{}-{}", self.workload, self.model)
    }

    /// Display title (`"isosceles on R81"`).
    pub fn title(&self) -> String {
        format!("{} on {}", self.model, self.workload)
    }

    /// Writes all three exports under `dir` (created if missing) and
    /// returns the written paths: `<stem>.trace.json`,
    /// `<stem>.timeline.csv`, `<stem>.stalls.md`.
    pub fn export_all(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let stem = self.stem();
        let title = self.title();
        let outputs = [
            (
                format!("{stem}.trace.json"),
                perfetto_json(&self.buffer, &title),
            ),
            (format!("{stem}.timeline.csv"), timeline_csv(&self.buffer)),
            (
                format!("{stem}.stalls.md"),
                stall_summary_md(&self.buffer, &title),
            ),
        ];
        let mut paths = Vec::with_capacity(outputs.len());
        for (name, text) in outputs {
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
    use crate::suite::SEED;
    use isos_nn::models::suite_workload;

    #[test]
    fn accel_by_name_resolves_all_models_and_aliases() {
        for name in MODEL_NAMES {
            let a = accel_by_name(name).expect(name);
            assert_eq!(a.name(), name);
        }
        assert_eq!(accel_by_name("single").unwrap().name(), "isosceles-single");
        assert_eq!(accel_by_name("fused").unwrap().name(), "fused-layer");
        assert!(accel_by_name("eyeriss").is_none());
    }

    #[test]
    fn traced_run_matches_untraced_metrics_and_exports() {
        let w = suite_workload("G58", SEED);
        let accel = accel_by_name("sparten").unwrap();
        let run = trace_workload(&w, accel.as_ref(), SEED);
        assert_eq!(run.metrics, accel.simulate(&w.network, SEED));
        assert!(!run.buffer.is_empty());
        assert_eq!(run.stem(), "G58-sparten");

        let dir = std::env::temp_dir().join(format!("isos-trace-export-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let paths = run.export_all(&dir).expect("export");
        assert_eq!(paths.len(), 3);
        for p in &paths {
            let text = std::fs::read_to_string(p).unwrap();
            assert!(!text.trim().is_empty(), "{} is empty", p.display());
        }
        assert!(paths[0]
            .to_string_lossy()
            .ends_with("G58-sparten.trace.json"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
