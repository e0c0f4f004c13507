//! Lowering: from a declarative [`ArchDesc`] to the shared simulation
//! substrate.
//!
//! The interpreter does not invent new cost models. It maps each
//! dataflow family onto the exact closed form the hand-written models
//! use — [`DataflowStyle::IsOs`] onto the cycle-level
//! `isosceles::arch` engine, [`DataflowStyle::OutputStationary`] onto
//! `isos_baselines::sparten_layer_metrics`, and
//! [`DataflowStyle::FusedTile`] onto
//! `isos_baselines::fused_group_metrics` — so a description whose
//! parameters match a hand-written model reproduces it *bit for bit*,
//! and any other point in the family inherits the same accounting.
//!
//! [`ArchAccel`] wraps the lowered form as an
//! [`Accelerator`], so described machines run through the bench suite
//! engine (and its cache: the cache key hashes the description itself)
//! exactly like the built-in models. [`ArchAccel::estimate`] produces a
//! [`NetworkEstimate`] compatible with `explore::model`, and
//! `ArchScreen` produces its totals alone, which is what lets the DSE
//! screen thousands of described points analytically.

use std::collections::HashMap;

use super::schema::{ArchDesc, ArchError, DataflowStyle, PipelinePolicy, TensorKind};
use crate::model::{
    estimate_mapping, EstimateTotals, GroupEstimate, IsOsScreen, LayerEstimate, NetworkEstimate,
};
use isos_baselines::{
    fused_group_facts, fused_group_metrics, fused_groups, sparten_layer_metrics, FusedGroupFacts,
    FusedLayerConfig, FusedScratch, OsKey, SpartenConfig,
};
use isos_nn::graph::Network;
use isos_sim::area::{area_of, AreaConfig, AreaParams};
use isos_sim::metrics::{NetworkMetrics, RunMetrics};
use isos_trace::TraceSink;
use isosceles::accel::{stable_key, Accelerator};
use isosceles::arch::run_network_traced;
use isosceles::mapping::{map_network, ExecMode};
use isosceles::IsoscelesConfig;

/// A description lowered onto one of the substrate's cost models.
#[derive(Clone, Debug, PartialEq)]
pub enum Lowered {
    /// The two-phase IS-OS dataflow on the cycle-level engine.
    IsOs {
        /// The hardware configuration the engine runs.
        cfg: IsoscelesConfig,
        /// Pipelined or layer-by-layer, from the description's
        /// `dataflow.pipeline`.
        mode: ExecMode,
    },
    /// Output-stationary bitmask intersection (SparTen's closed form).
    OutputStationary(SpartenConfig),
    /// Dense fused-tile pipelining (Fused-Layer's closed form).
    FusedTile(FusedLayerConfig),
}

/// Lowers a validated description onto the substrate.
///
/// # Errors
///
/// Returns the description's validation error if it is not
/// well-formed; a valid description always lowers.
pub fn lower(desc: &ArchDesc) -> Result<Lowered, ArchError> {
    desc.validate()?;
    let weights = desc
        .shared_level_for(TensorKind::Weights)
        .expect("validate requires a shared weights level");
    let filter_buffer_bytes = weights.bytes;
    let total_macs = desc.compute.lanes * desc.compute.macs_per_lane;
    Ok(match desc.dataflow.style {
        DataflowStyle::IsOs => {
            let contexts = desc
                .per_lane_level_for(TensorKind::Outputs)
                .expect("validate requires a per-lane outputs level");
            let queues = desc
                .per_lane_level_for(TensorKind::Inputs)
                .expect("validate requires a per-lane inputs level");
            Lowered::IsOs {
                cfg: IsoscelesConfig {
                    lanes: desc.compute.lanes,
                    macs_per_lane: desc.compute.macs_per_lane,
                    filter_buffer_bytes,
                    context_bytes_per_lane: contexts.bytes,
                    queue_bytes_per_lane: queues.bytes,
                    mergers_per_lane: desc.compute.mergers_per_lane,
                    merger_radix: desc.compute.merger_radix,
                    dram_bytes_per_cycle: desc.memory.dram_bytes_per_cycle,
                    max_contexts: desc.compute.contexts,
                    pe_efficiency: desc.compute.efficiency,
                    filter_buffer_alloc_overhead: weights.alloc_overhead,
                    // Datapath constants the schema does not (yet)
                    // parameterize: 8-bit multipliers into 16-bit
                    // accumulators at 1 GHz, 100-cycle scheduling.
                    ..IsoscelesConfig::default()
                },
                mode: match desc.dataflow.pipeline {
                    PipelinePolicy::InterLayer => ExecMode::Pipelined,
                    PipelinePolicy::None => ExecMode::SingleLayer,
                },
            }
        }
        DataflowStyle::OutputStationary => Lowered::OutputStationary(SpartenConfig {
            clusters: desc.compute.lanes,
            macs_per_cluster: desc.compute.macs_per_lane,
            cluster_buffer_bytes: desc
                .levels
                .iter()
                .find(|l| l.per_lane)
                .map_or(0, |l| l.bytes),
            filter_buffer_bytes,
            dram_bytes_per_cycle: desc.memory.dram_bytes_per_cycle,
            k_per_pass: desc
                .dataflow
                .tile_of("K")
                .expect("validate requires a K tile for output-stationary")
                as usize,
            compute_efficiency: desc.compute.efficiency,
            gospa_filtering: desc.gospa_gating(),
        }),
        DataflowStyle::FusedTile => Lowered::FusedTile(FusedLayerConfig {
            total_macs,
            filter_buffer_bytes,
            dram_bytes_per_cycle: desc.memory.dram_bytes_per_cycle,
            tile: desc
                .dataflow
                .tile_of("P")
                .expect("validate requires matching P/Q tiles for fused-tile")
                as usize,
            compute_efficiency: desc.compute.efficiency,
        }),
    })
}

/// A described architecture, ready to run: the description plus its
/// lowered form, wrapped as an [`Accelerator`].
///
/// The model name is `arch:<description name>` and the cache key hashes
/// the description itself, so described points flow through the bench
/// engine's on-disk cache and the serve layer's single-flight dedup
/// with no engine changes.
#[derive(Clone, Debug)]
pub struct ArchAccel {
    desc: ArchDesc,
    lowered: Lowered,
    label: String,
}

impl ArchAccel {
    /// Validates and lowers `desc`.
    ///
    /// # Errors
    ///
    /// Returns the description's validation error.
    pub fn new(desc: ArchDesc) -> Result<Self, ArchError> {
        let lowered = lower(&desc)?;
        let label = format!("arch:{}", desc.name);
        Ok(Self {
            desc,
            lowered,
            label,
        })
    }

    /// The description this accelerator was built from.
    pub fn desc(&self) -> &ArchDesc {
        &self.desc
    }

    /// The lowered substrate form.
    pub fn lowered(&self) -> &Lowered {
        &self.lowered
    }

    /// The [`IsoscelesConfig`] used for energy conversion: the lowered
    /// hardware for IS-OS machines, the default datapath constants
    /// (16-bit accumulators, matching the baselines' 4 local bytes per
    /// MAC) otherwise.
    fn energy_cfg(&self) -> IsoscelesConfig {
        match &self.lowered {
            Lowered::IsOs { cfg, .. } => *cfg,
            _ => IsoscelesConfig::default(),
        }
    }

    /// Analytical estimate of `net` on this description, in the same
    /// [`NetworkEstimate`] form the hand-written analytic model
    /// produces — the screening currency of the DSE.
    ///
    /// IS-OS machines go through `explore::model`'s group estimator on
    /// the lowered mapping; the closed-form families *are* analytical,
    /// so their estimates restate the exact model outputs.
    pub fn estimate(&self, net: &Network) -> NetworkEstimate {
        match &self.lowered {
            Lowered::IsOs { cfg, mode } => {
                let mapping = map_network(net, cfg, *mode);
                estimate_mapping(net, cfg, &mapping)
            }
            Lowered::OutputStationary(cfg) => {
                let mut out = NetworkEstimate::default();
                for node in net.nodes() {
                    let m = sparten_layer_metrics(&node.layer, cfg);
                    push_metrics_group(&mut out, node.layer.name.clone(), &m, Vec::new());
                }
                out
            }
            Lowered::FusedTile(cfg) => {
                let mut out = NetworkEstimate::default();
                for group in fused_groups(net, cfg) {
                    let run = fused_group_metrics(net, &group, cfg);
                    let name = net.layer(group[0]).name.clone();
                    let layers = run
                        .layers
                        .iter()
                        .map(|(lname, lm)| layer_estimate_of(lname.clone(), lm))
                        .collect();
                    push_metrics_group(&mut out, name, &run.metrics, layers);
                }
                out
            }
        }
    }

    /// Estimated silicon area in mm² at 45 nm, from the description's
    /// compute array and buffer capacities through `isos-sim`'s Table II
    /// constants (merger cost scaled linearly in radix from the
    /// radix-256 anchor, as in [`crate::model::area_mm2`]).
    pub fn area_mm2(&self) -> f64 {
        desc_area_mm2(&self.desc)
    }

    /// Estimated energy per inference in millijoules, from
    /// [`estimate`](Self::estimate)'s activity mirror.
    pub fn energy_mj(&self, net: &Network) -> f64 {
        self.estimate(net).energy_mj(&self.energy_cfg())
    }
}

/// [`ArchAccel::area_mm2`] of a description, without lowering it.
pub(crate) fn desc_area_mm2(desc: &ArchDesc) -> f64 {
    let per_lane_bytes: u64 = desc
        .levels
        .iter()
        .filter(|l| l.per_lane)
        .map(|l| l.bytes)
        .sum();
    let shared_bytes: u64 = desc
        .levels
        .iter()
        .filter(|l| !l.per_lane)
        .map(|l| l.bytes)
        .sum();
    let area_cfg = AreaConfig {
        lanes: desc.compute.lanes as u32,
        macs_per_lane: desc.compute.macs_per_lane as u32,
        mergers_per_lane: desc.compute.mergers_per_lane as u32,
        lane_sram_kb: (per_lane_bytes / 1024) as u32,
        filter_buffer_kb: (shared_bytes / 1024) as u32,
    };
    let mut params = AreaParams::default();
    params.merger_mm2 *= desc.compute.merger_radix as f64 / 256.0;
    area_of(&area_cfg, &params).total_mm2()
}

/// Screens descriptions against one network, keeping totals only.
///
/// Work that depends only on the workload is done once per screen, and
/// each point costs a closed form over it:
/// - IS-OS points go through [`IsOsScreen`]: one mapping per distinct
///   [`MapKey`](isosceles::mapping::MapKey), its group work summed once,
///   then `group_cycles` per group;
/// - output-stationary points sum `sparten_layer_metrics` over the
///   layers once per distinct [`OsKey`] (the fields the closed form
///   reads; the buffer sizes are not among them) and reuse the totals;
/// - fused-tile points reuse the [`FusedGroupFacts`] of every group per
///   filter-buffer size (the only field fusion reads; the facts read no
///   field at all) and sum [`FusedGroupFacts::totals`].
///
/// Every family accumulates the same per-group functions
/// [`ArchAccel::estimate`] runs through [`EstimateTotals::add_group`], so
/// [`totals`](Self::totals) equals `estimate(net).totals()` bit for bit.
#[derive(Debug)]
pub(crate) struct ArchScreen<'a> {
    net: &'a Network,
    is_os: IsOsScreen<'a>,
    os: HashMap<OsKey, EstimateTotals>,
    fused: HashMap<u64, Vec<FusedGroupFacts>>,
    scratch: FusedScratch,
}

impl<'a> ArchScreen<'a> {
    /// An empty screen over `net`.
    pub(crate) fn new(net: &'a Network) -> Self {
        Self {
            net,
            is_os: IsOsScreen::new(net),
            os: HashMap::new(),
            fused: HashMap::new(),
            scratch: FusedScratch::default(),
        }
    }

    /// Validates and lowers `desc`, then estimates its totals on the
    /// screen's network.
    ///
    /// # Errors
    ///
    /// Returns the description's validation error.
    pub(crate) fn totals(&mut self, desc: &ArchDesc) -> Result<EstimateTotals, ArchError> {
        let net = self.net;
        Ok(match lower(desc)? {
            Lowered::IsOs { cfg, mode } => self.is_os.totals(&cfg, mode),
            Lowered::OutputStationary(cfg) => {
                *self.os.entry(OsKey::of(&cfg)).or_insert_with(|| {
                    let mut out = EstimateTotals::default();
                    for node in net.nodes() {
                        add_metrics(&mut out, &sparten_layer_metrics(&node.layer, &cfg));
                    }
                    out
                })
            }
            Lowered::FusedTile(cfg) => {
                let facts = self
                    .fused
                    .entry(cfg.filter_buffer_bytes)
                    .or_insert_with(|| {
                        fused_groups(net, &cfg)
                            .iter()
                            .map(|group| fused_group_facts(net, group))
                            .collect()
                    });
                let mut out = EstimateTotals::default();
                for f in facts.iter() {
                    add_metrics(&mut out, &f.totals(&cfg, &mut self.scratch));
                }
                out
            }
        })
    }
}

/// Adds one `RunMetrics` group to screening totals, as
/// [`push_metrics_group`] adds it to a [`NetworkEstimate`].
fn add_metrics(out: &mut EstimateTotals, m: &RunMetrics) {
    out.add_group(
        m.cycles as f64,
        m.weight_traffic,
        m.act_traffic,
        m.effectual_macs,
    );
}

/// Folds one `RunMetrics` group into a [`NetworkEstimate`]. If `layers`
/// is empty the group becomes its own single-layer breakdown, matching
/// how the layer-by-layer models report.
fn push_metrics_group(
    out: &mut NetworkEstimate,
    name: String,
    m: &RunMetrics,
    layers: Vec<LayerEstimate>,
) {
    let layers = if layers.is_empty() {
        vec![layer_estimate_of(name.clone(), m)]
    } else {
        layers
    };
    out.push(GroupEstimate {
        name,
        cycles: m.cycles as f64,
        weight_bytes: m.weight_traffic,
        act_bytes: m.act_traffic,
        macs: m.effectual_macs,
        layers,
    });
}

fn layer_estimate_of(name: String, m: &RunMetrics) -> LayerEstimate {
    LayerEstimate {
        name,
        cycles: m.cycles as f64,
        weight_bytes: m.weight_traffic,
        act_bytes: m.act_traffic,
        macs: m.effectual_macs,
    }
}

impl Accelerator for ArchAccel {
    fn name(&self) -> &str {
        &self.label
    }

    fn cache_key(&self) -> u64 {
        stable_key(&self.label, &self.desc)
    }

    fn simulate_traced(
        &self,
        net: &Network,
        seed: u64,
        sink: &mut dyn TraceSink,
    ) -> NetworkMetrics {
        match &self.lowered {
            Lowered::IsOs { cfg, mode } => run_network_traced(net, cfg, *mode, seed, sink),
            Lowered::OutputStationary(cfg) => cfg.simulate_traced(net, seed, sink),
            Lowered::FusedTile(cfg) => cfg.simulate_traced(net, seed, sink),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::reference;
    use isos_baselines::IsoscelesSingleConfig;
    use isos_nn::models::suite_workload;

    #[test]
    fn references_lower_to_the_hand_written_configs() {
        match lower(&reference::isosceles_single()).unwrap() {
            Lowered::IsOs { cfg, mode } => {
                assert_eq!(cfg, IsoscelesConfig::default());
                assert_eq!(mode, ExecMode::SingleLayer);
            }
            other => panic!("wrong lowering: {other:?}"),
        }
        match lower(&reference::isosceles()).unwrap() {
            Lowered::IsOs { cfg, mode } => {
                assert_eq!(cfg, IsoscelesConfig::default());
                assert_eq!(mode, ExecMode::Pipelined);
            }
            other => panic!("wrong lowering: {other:?}"),
        }
        match lower(&reference::sparten()).unwrap() {
            Lowered::OutputStationary(cfg) => assert_eq!(cfg, SpartenConfig::default()),
            other => panic!("wrong lowering: {other:?}"),
        }
        match lower(&reference::fused_layer()).unwrap() {
            Lowered::FusedTile(cfg) => assert_eq!(cfg, FusedLayerConfig::default()),
            other => panic!("wrong lowering: {other:?}"),
        }
    }

    #[test]
    fn described_single_simulates_bit_identical_to_hand_written() {
        let net = suite_workload("G58", 1).network;
        let accel = ArchAccel::new(reference::isosceles_single()).unwrap();
        let described = accel.simulate(&net, 7);
        let hand = IsoscelesSingleConfig::default().simulate(&net, 7);
        assert_eq!(described, hand);
    }

    #[test]
    fn cache_keys_are_stable_and_track_the_description() {
        let a = ArchAccel::new(reference::sparten()).unwrap();
        let b = ArchAccel::new(reference::sparten()).unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        let mut changed = reference::sparten();
        changed.compute.lanes = 32;
        let c = ArchAccel::new(changed).unwrap();
        assert_ne!(a.cache_key(), c.cache_key());
        // Distinct from the hand-written model's key: different namespace.
        assert_ne!(
            a.cache_key(),
            Accelerator::cache_key(&SpartenConfig::default())
        );
    }

    #[test]
    fn described_isosceles_area_matches_the_model_formula() {
        let accel = ArchAccel::new(reference::isosceles()).unwrap();
        assert!(
            (accel.area_mm2() - crate::model::area_mm2(&IsoscelesConfig::default())).abs() < 1e-9
        );
    }

    #[test]
    fn estimates_are_positive_and_energy_converts() {
        let net = suite_workload("M75", 1).network;
        for desc in reference::all() {
            let accel = ArchAccel::new(desc).unwrap();
            let est = accel.estimate(&net);
            assert!(est.cycles > 0.0, "{}", accel.name());
            assert!(est.dram_bytes > 0.0, "{}", accel.name());
            assert!(accel.energy_mj(&net) > 0.0, "{}", accel.name());
            assert!(accel.area_mm2() > 0.0, "{}", accel.name());
        }
    }
}
