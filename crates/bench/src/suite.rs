//! Shared experiment data model: the paper's 11-CNN suite results on all
//! four accelerator models, as produced by the
//! [`engine`](crate::engine)'s parallel, cached driver.

use isos_sim::metrics::NetworkMetrics;
use serde::{Deserialize, Serialize};

use crate::engine::WorkloadId;

/// Default RNG seed for all synthetic sparsity profiles.
pub const SEED: u64 = 20230225; // HPCA 2023 conference date

/// One workload's results on every accelerator.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SuiteRow {
    /// Workload id (`R96`, `M75`, ...).
    pub id: WorkloadId,
    /// Full ISOSceles (inter-layer pipelining).
    pub isosceles: NetworkMetrics,
    /// ISOSceles-single (Fig. 18 ablation).
    pub single: NetworkMetrics,
    /// SparTen + GoSPA filtering.
    pub sparten: NetworkMetrics,
    /// Fused-Layer (dense).
    pub fused: NetworkMetrics,
}

impl SuiteRow {
    /// Speedup of ISOSceles over Fused-Layer (Fig. 14a, right bars).
    pub fn speedup_vs_fused(&self) -> f64 {
        self.fused.total.cycles as f64 / self.isosceles.total.cycles as f64
    }

    /// Speedup of SparTen over Fused-Layer (Fig. 14a, left bars).
    pub fn sparten_speedup_vs_fused(&self) -> f64 {
        self.fused.total.cycles as f64 / self.sparten.total.cycles as f64
    }

    /// Speedup of ISOSceles over SparTen (the headline gmean 4.3x).
    pub fn speedup_vs_sparten(&self) -> f64 {
        self.sparten.total.cycles as f64 / self.isosceles.total.cycles as f64
    }

    /// Traffic of ISOSceles normalized to Fused-Layer (Fig. 14c).
    pub fn traffic_vs_fused(&self) -> f64 {
        self.isosceles.total.total_traffic() / self.fused.total.total_traffic()
    }

    /// Traffic of SparTen normalized to ISOSceles (the headline 4.7x).
    pub fn sparten_traffic_ratio(&self) -> f64 {
        self.sparten.total.total_traffic() / self.isosceles.total.total_traffic()
    }

    /// The four `(accelerator name, metrics)` pairs of this row, in the
    /// standard figure order (for exporters that iterate models).
    pub fn models(&self) -> [(&'static str, &NetworkMetrics); 4] {
        [
            ("isosceles", &self.isosceles),
            ("isosceles-single", &self.single),
            ("sparten", &self.sparten),
            ("fused-layer", &self.fused),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isos_baselines::{FusedLayerConfig, IsoscelesSingleConfig, SpartenConfig};
    use isos_nn::models::suite_workload;
    use isosceles::accel::Accelerator;
    use isosceles::IsoscelesConfig;

    /// One workload run directly through the `Accelerator` trait (the
    /// engine does the same per job, minus caching/threads).
    fn trait_row(id: &str) -> SuiteRow {
        let w = suite_workload(id, SEED);
        SuiteRow {
            id: WorkloadId::new(w.id),
            isosceles: IsoscelesConfig::default().simulate(&w.network, SEED),
            single: IsoscelesSingleConfig::default().simulate(&w.network, SEED),
            sparten: SpartenConfig::default().simulate(&w.network, SEED),
            fused: FusedLayerConfig::default().simulate(&w.network, SEED),
        }
    }

    #[test]
    fn workload_row_has_consistent_relations() {
        let row = trait_row("G58");
        // Cross-metric identities.
        assert!(
            (row.speedup_vs_fused() / row.sparten_speedup_vs_fused() - row.speedup_vs_sparten())
                .abs()
                < 1e-9
        );
        assert!(row.isosceles.total.cycles > 0);
        assert!(row.single.total.cycles >= row.isosceles.total.cycles);
    }

    #[test]
    fn models_iterates_figure_order() {
        let row = trait_row("G58");
        let names: Vec<&str> = row.models().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["isosceles", "isosceles-single", "sparten", "fused-layer"]
        );
        assert_eq!(row.models()[0].1.total, row.isosceles.total);
        // Every model populated the per-layer breakdown.
        for (name, m) in row.models() {
            assert!(!m.layers.is_empty(), "{name} has no layer breakdown");
        }
    }

    #[test]
    fn suite_row_roundtrips_through_json() {
        let row = trait_row("G58");
        let text = serde::json::to_string(&row);
        let back: SuiteRow = serde::json::from_str(&text).expect("parse");
        assert_eq!(text, serde::json::to_string(&back));
    }
}
