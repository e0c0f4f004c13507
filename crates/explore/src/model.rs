//! The analytical cost model: closed-form estimates of cycles, DRAM
//! traffic, energy, and area for any [`IsoscelesConfig`] and workload,
//! with no simulation.
//!
//! The model mirrors the structure of the cycle-level simulator
//! (`isosceles::arch::pipeline`) at group granularity. For each pipeline
//! group it accounts:
//!
//! - **Weight time** `T_w`: all member layers' compressed weights stream
//!   from DRAM before their compute can start, so the group pays
//!   `weight_bytes / bw` up front (weight streams saturate the DRAM
//!   interface while any are pending).
//! - **Steady state**: once weights land, compute
//!   (`macs / (total_macs × pe_efficiency)`) overlaps activation traffic
//!   (`act_bytes / bw`); the slower of the two governs. Total memory time
//!   (`(weights + activations) / bw`) is a floor on the whole group.
//! - **Fill/drain**: the wavefront must propagate through the group and
//!   the proportional scheduler follows demand with a one-interval lag,
//!   so each group pays a per-layer start-up of a few
//!   [`scheduler_interval`](IsoscelesConfig::scheduler_interval)s.
//!
//! Activation traffic reproduces the simulator's stream accounting:
//! inputs crossing the group boundary are charged once per external
//! producer at `k_tiles × (1 + halo)` (K-tile re-reads, P-tile halos),
//! outputs crossing the boundary are written back once.
//!
//! Area reuses `isos-sim`'s Table II constants, with the merger cost
//! scaled linearly in radix from the paper's radix-256 anchor. Energy
//! converts the same activity mirror the simulator reports (DRAM bytes,
//! one filter-buffer byte per MAC, a 2-byte read-modify-write per MAC in
//! the context arrays) through `isos-sim`'s per-operation constants.
//!
//! Accuracy against the cycle-level model is asserted by
//! `tests/validation.rs`: within 25% total cycles on at least 9 of the 11
//! suite workloads at the default configuration (measured error is a few
//! percent on most; see DESIGN.md).

use std::collections::HashMap;

use isos_nn::graph::{Network, NodeId};
use isos_sim::area::{area_of, AreaConfig, AreaParams};
use isos_sim::energy::{energy_of, Activity, EnergyBreakdown, EnergyParams};
use isosceles::mapping::{map_network, ExecMode, MapKey, Mapping, PipelineGroup};
use isosceles::IsoscelesConfig;
use serde::{Deserialize, Serialize};

/// Analytical estimate for one layer of a pipeline group.
///
/// Mirrors the simulator's per-layer breakdown
/// (`NetworkMetrics::layers`): weights and boundary-crossing activations
/// are attributed to the layer that streams them, and the group's cycles
/// are split in proportion to each layer's effectual MACs.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LayerEstimate {
    /// Layer name (matches the simulated breakdown's key).
    pub name: String,
    /// Estimated cycles attributed to this layer.
    pub cycles: f64,
    /// Off-chip weight traffic in bytes (exact: weights stream once).
    pub weight_bytes: f64,
    /// Off-chip activation traffic crossing the group boundary at this
    /// layer (its external inputs plus its group-leaving outputs).
    pub act_bytes: f64,
    /// Effectual MACs.
    pub macs: f64,
}

impl LayerEstimate {
    /// Total off-chip traffic in bytes.
    pub fn total_bytes(&self) -> f64 {
        self.weight_bytes + self.act_bytes
    }
}

/// Analytical estimate for one pipeline group.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct GroupEstimate {
    /// Group name (the first conv layer, as in Table IV).
    pub name: String,
    /// Estimated execution cycles.
    pub cycles: f64,
    /// Off-chip weight traffic in bytes (exact: weights stream once).
    pub weight_bytes: f64,
    /// Off-chip activation traffic in bytes (inputs + outputs + halos).
    pub act_bytes: f64,
    /// Effectual MACs (exact: the dataflow executes all of them).
    pub macs: f64,
    /// Per-member-layer estimates, in group order; their components sum
    /// back to the group totals.
    pub layers: Vec<LayerEstimate>,
}

impl GroupEstimate {
    /// Total off-chip traffic in bytes.
    pub fn total_bytes(&self) -> f64 {
        self.weight_bytes + self.act_bytes
    }
}

/// The whole-network totals of an analytical estimate: what screening
/// ranks and keeps per point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EstimateTotals {
    /// Total estimated cycles.
    pub cycles: f64,
    /// Total off-chip traffic in bytes.
    pub dram_bytes: f64,
    /// Total effectual MACs.
    pub macs: f64,
}

impl EstimateTotals {
    /// Adds one group's cycles and work. Every estimator accumulates
    /// through here, so totals built with or without a breakdown are
    /// bit-identical.
    pub(crate) fn add_group(&mut self, cycles: f64, weight_bytes: f64, act_bytes: f64, macs: f64) {
        self.cycles += cycles;
        self.dram_bytes += weight_bytes + act_bytes;
        self.macs += macs;
    }

    /// Activity mirror matching what the simulator reports: DRAM traffic,
    /// one shared-SRAM (filter buffer) byte per MAC, and a read-modify-
    /// write of a 2-byte partial in lane-local SRAM per MAC.
    pub fn activity(&self, cfg: &IsoscelesConfig) -> Activity {
        Activity {
            dram_bytes: self.dram_bytes,
            shared_sram_bytes: self.macs,
            local_sram_bytes: self.macs * 2.0 * cfg.accumulator_bytes() as f64,
            macs: self.macs,
        }
    }

    /// Estimated energy per inference in millijoules, default constants.
    pub fn energy_mj(&self, cfg: &IsoscelesConfig) -> f64 {
        energy_of(&self.activity(cfg), &EnergyParams::default()).total_mj()
    }
}

/// Analytical estimate for a whole network under one mapping.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NetworkEstimate {
    /// Per-group estimates, in execution order.
    pub groups: Vec<GroupEstimate>,
    /// Total estimated cycles.
    pub cycles: f64,
    /// Total off-chip traffic in bytes.
    pub dram_bytes: f64,
    /// Total effectual MACs.
    pub macs: f64,
}

impl NetworkEstimate {
    /// The whole-network totals, without the breakdown.
    pub fn totals(&self) -> EstimateTotals {
        EstimateTotals {
            cycles: self.cycles,
            dram_bytes: self.dram_bytes,
            macs: self.macs,
        }
    }

    /// Appends one group, adding it to the totals.
    pub(crate) fn push(&mut self, g: GroupEstimate) {
        let mut t = self.totals();
        t.add_group(g.cycles, g.weight_bytes, g.act_bytes, g.macs);
        (self.cycles, self.dram_bytes, self.macs) = (t.cycles, t.dram_bytes, t.macs);
        self.groups.push(g);
    }

    /// Activity mirror matching what the simulator reports (see
    /// [`EstimateTotals::activity`]).
    pub fn activity(&self, cfg: &IsoscelesConfig) -> Activity {
        self.totals().activity(cfg)
    }

    /// Estimated energy per inference.
    pub fn energy(&self, cfg: &IsoscelesConfig, params: &EnergyParams) -> EnergyBreakdown {
        energy_of(&self.activity(cfg), params)
    }

    /// Estimated energy per inference in millijoules, default constants.
    pub fn energy_mj(&self, cfg: &IsoscelesConfig) -> f64 {
        self.totals().energy_mj(cfg)
    }

    /// Flattened per-layer estimates across all groups, in execution
    /// order (the analytical mirror of `NetworkMetrics::layers`).
    pub fn layers(&self) -> impl Iterator<Item = &LayerEstimate> {
        self.groups.iter().flat_map(|g| g.layers.iter())
    }
}

/// The per-layer workload facts the group estimator reads, gathered once
/// per network: screening a sweep reads them for every distinct mapping
/// instead of re-deriving them from the layers (and re-scanning the graph
/// for consumers) at every point.
#[derive(Clone, Debug)]
pub(crate) struct NetFacts {
    layers: Vec<LayerFacts>,
    /// Consumers of each node, in node order.
    consumers: Vec<Vec<NodeId>>,
}

/// One layer's entry in [`NetFacts`].
#[derive(Clone, Debug)]
struct LayerFacts {
    weight_bytes: f64,
    macs: f64,
    in_act_bytes: f64,
    out_act_bytes: f64,
    r_kernel: usize,
    in_h: usize,
    producers: Vec<NodeId>,
}

impl NetFacts {
    /// Gathers the facts of every layer of `net`.
    pub(crate) fn new(net: &Network) -> Self {
        let mut consumers = vec![Vec::new(); net.len()];
        let layers = net
            .nodes()
            .iter()
            .enumerate()
            .map(|(id, node)| {
                for &p in &node.inputs {
                    if !consumers[p].contains(&id) {
                        consumers[p].push(id);
                    }
                }
                let layer = &node.layer;
                LayerFacts {
                    weight_bytes: layer.weight_csf_bytes(),
                    macs: layer.effectual_macs(),
                    in_act_bytes: layer.in_act_csf_bytes(),
                    out_act_bytes: layer.out_act_csf_bytes(),
                    r_kernel: layer.kind.kernel().0,
                    in_h: layer.input.h,
                    producers: node.inputs.clone(),
                }
            })
            .collect();
        Self { layers, consumers }
    }
}

/// One group's off-chip work: what [`group_work`] sums and
/// [`group_cycles`] prices. It depends only on the group (its layers and
/// tiling), not on bandwidth or compute rate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct GroupWork {
    /// Compressed weight bytes of the member layers.
    pub weight_bytes: f64,
    /// Activation bytes crossing the group boundary (inputs + outputs +
    /// halos).
    pub act_bytes: f64,
    /// Effectual MACs.
    pub macs: f64,
    /// Member layers.
    pub layers: usize,
}

/// One member layer's share of a [`GroupWork`], as [`group_work`] reports
/// it to its caller.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct LayerWork {
    /// The layer.
    pub id: NodeId,
    /// Its compressed weight bytes.
    pub weight_bytes: f64,
    /// Its external inputs plus its group-leaving outputs.
    pub act_bytes: f64,
    /// Its effectual MACs.
    pub macs: f64,
}

/// Sums one pipeline group's weight, MAC and activation work, calling
/// `each_layer` with every member's share in group order.
///
/// Activation traffic follows the simulator's stream accounting: external
/// input streams are deduplicated per producer exactly as the simulator's
/// `ext_index` does (network inputs get a synthetic key so two root
/// layers don't share a stream) and charged at `k_tiles × (1 + halo)`;
/// outputs leaving the group write back to DRAM once.
pub(crate) fn group_work(
    facts: &NetFacts,
    group: &PipelineGroup,
    mut each_layer: impl FnMut(LayerWork),
) -> GroupWork {
    let mut weight_bytes = 0.0;
    let mut macs = 0.0;
    let mut in_bytes = 0.0;
    let mut out_bytes = 0.0;
    let mut seen_ext: Vec<usize> = Vec::new();

    for &id in &group.layers {
        let layer = &facts.layers[id];
        weight_bytes += layer.weight_bytes;
        macs += layer.macs;

        let halo_frac = if group.p_tiles > 1 && layer.in_h > 0 {
            ((group.p_tiles - 1) * layer.r_kernel.saturating_sub(1)) as f64 / layer.in_h as f64
        } else {
            0.0
        };
        let scale = group.k_tiles as f64 * (1.0 + halo_frac);
        let mut layer_act = 0.0;
        if layer.producers.is_empty() && !seen_ext.contains(&(id + 1_000_000)) {
            seen_ext.push(id + 1_000_000);
            layer_act += layer.in_act_bytes * scale;
        }
        for &p in &layer.producers {
            if !group.layers.contains(&p) && !seen_ext.contains(&p) {
                seen_ext.push(p);
                layer_act += layer.in_act_bytes * scale;
            }
        }
        in_bytes += layer_act;

        let consumers = &facts.consumers[id];
        if consumers.is_empty() || consumers.iter().any(|c| !group.layers.contains(c)) {
            let leaving = layer.out_act_bytes;
            out_bytes += leaving;
            layer_act += leaving;
        }
        each_layer(LayerWork {
            id,
            weight_bytes: layer.weight_bytes,
            act_bytes: layer_act,
            macs: layer.macs,
        });
    }

    GroupWork {
        weight_bytes,
        act_bytes: in_bytes + out_bytes,
        macs,
        layers: group.layers.len(),
    }
}

/// Prices one group's work on `cfg`: the closed form in DRAM bandwidth,
/// peak effectual MAC rate and scheduler interval.
///
/// Weights serialize ahead of compute; then compute overlaps the
/// activation streams, with total memory time as a floor. Fill/drain
/// charges the scheduler's one-interval demand lag per member layer plus
/// a constant start/finish quantization.
pub(crate) fn group_cycles(work: &GroupWork, cfg: &IsoscelesConfig) -> f64 {
    let bw = cfg.dram_bytes_per_cycle.max(1e-9);
    let peak = (cfg.total_macs() as f64 * cfg.pe_efficiency).max(1e-9);
    let interval = cfg.scheduler_interval as f64;

    let t_weights = work.weight_bytes / bw;
    let t_compute = work.macs / peak;
    let t_act = work.act_bytes / bw;
    let t_mem_total = (work.weight_bytes + work.act_bytes) / bw;

    let steady = (t_weights + t_compute.max(t_act)).max(t_mem_total);
    let fill = interval * (FILL_BASE_INTERVALS + FILL_PER_LAYER_INTERVALS * work.layers as f64);
    steady + fill
}

/// Estimates one pipeline group analytically: [`group_work`] priced by
/// [`group_cycles`], with the cycles attributed to the member layers by
/// MAC share (mirroring the simulator's apportionment of its
/// interval-loop cycles).
pub(crate) fn estimate_group(
    net: &Network,
    facts: &NetFacts,
    cfg: &IsoscelesConfig,
    group: &PipelineGroup,
) -> GroupEstimate {
    let mut layer_ests: Vec<LayerEstimate> = Vec::with_capacity(group.layers.len());
    let work = group_work(facts, group, |l| {
        layer_ests.push(LayerEstimate {
            name: net.layer(l.id).name.clone(),
            cycles: 0.0,
            weight_bytes: l.weight_bytes,
            act_bytes: l.act_bytes,
            macs: l.macs,
        })
    });
    let cycles = group_cycles(&work, cfg);

    let n = layer_ests.len().max(1) as f64;
    for l in &mut layer_ests {
        l.cycles = if work.macs > 0.0 {
            cycles * (l.macs / work.macs)
        } else {
            cycles / n
        };
    }

    GroupEstimate {
        name: group.name.clone(),
        cycles,
        weight_bytes: work.weight_bytes,
        act_bytes: work.act_bytes,
        macs: work.macs,
        layers: layer_ests,
    }
}

/// Scheduler-start/finish quantization charged once per group, in
/// intervals. Calibrated against the cycle-level model on the 11-workload
/// suite (tests/validation.rs).
const FILL_BASE_INTERVALS: f64 = 2.0;
/// Wavefront fill + one-interval demand lag per member layer, in
/// intervals. Calibrated likewise.
const FILL_PER_LAYER_INTERVALS: f64 = 1.5;

/// Estimates a whole network under an explicit mapping.
pub fn estimate_mapping(
    net: &Network,
    cfg: &IsoscelesConfig,
    mapping: &Mapping,
) -> NetworkEstimate {
    let facts = NetFacts::new(net);
    let mut out = NetworkEstimate::default();
    for group in &mapping.groups {
        out.push(estimate_group(net, &facts, cfg, group));
    }
    out
}

/// Memoized IS-OS screening of one network: the workload facts, gathered
/// once, and the group work of every distinct mapping, keyed by the
/// [`MapKey`] that fixes it. A point then costs one hash lookup plus
/// [`group_cycles`] per group — the same functions [`estimate_mapping`]
/// runs, so the totals are bit-identical to it.
#[derive(Debug)]
pub(crate) struct IsOsScreen<'a> {
    net: &'a Network,
    facts: NetFacts,
    plans: HashMap<MapKey, Vec<GroupWork>>,
}

impl<'a> IsOsScreen<'a> {
    /// An empty memo over `net`.
    pub(crate) fn new(net: &'a Network) -> Self {
        Self {
            net,
            facts: NetFacts::new(net),
            plans: HashMap::new(),
        }
    }

    /// The whole-network totals of [`estimate_mapping`] on the mapper's
    /// plan for `cfg` in `mode`.
    pub(crate) fn totals(&mut self, cfg: &IsoscelesConfig, mode: ExecMode) -> EstimateTotals {
        let (net, facts) = (self.net, &self.facts);
        let works = self.plans.entry(MapKey::of(cfg, mode)).or_insert_with(|| {
            map_network(net, cfg, mode)
                .groups
                .iter()
                .map(|g| group_work(facts, g, |_| {}))
                .collect()
        });
        let mut out = EstimateTotals::default();
        for w in works.iter() {
            out.add_group(group_cycles(w, cfg), w.weight_bytes, w.act_bytes, w.macs);
        }
        out
    }
}

/// Estimates a whole network under the greedy mapper's plan (what the
/// cycle-level [`Accelerator`](isosceles::accel::Accelerator) impl runs).
pub fn estimate_network(net: &Network, cfg: &IsoscelesConfig) -> NetworkEstimate {
    let mapping = map_network(net, cfg, ExecMode::Pipelined);
    estimate_mapping(net, cfg, &mapping)
}

/// Derives the area-model configuration for an accelerator config.
pub fn area_config_of(cfg: &IsoscelesConfig) -> AreaConfig {
    AreaConfig {
        lanes: cfg.lanes as u32,
        macs_per_lane: cfg.macs_per_lane as u32,
        mergers_per_lane: cfg.mergers_per_lane as u32,
        lane_sram_kb: ((cfg.context_bytes_per_lane + cfg.queue_bytes_per_lane) / 1024) as u32,
        filter_buffer_kb: (cfg.filter_buffer_bytes / 1024) as u32,
    }
}

/// Total area in mm² at 45 nm for an accelerator config.
///
/// Table II's merger constant is anchored at the paper's radix-256
/// design; a merger's comparator tree grows linearly in radix, so the
/// per-merger cost is scaled by `merger_radix / 256`.
pub fn area_mm2(cfg: &IsoscelesConfig) -> f64 {
    let mut params = AreaParams::default();
    params.merger_mm2 *= cfg.merger_radix as f64 / 256.0;
    area_of(&area_config_of(cfg), &params).total_mm2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use isos_nn::models::suite_workload;

    #[test]
    fn estimate_traffic_components_are_positive_and_consistent() {
        let net = suite_workload("G58", 1).network;
        let cfg = IsoscelesConfig::default();
        let est = estimate_network(&net, &cfg);
        assert!(est.cycles > 0.0);
        assert!(est.macs > 0.0);
        let group_bytes: f64 = est.groups.iter().map(GroupEstimate::total_bytes).sum();
        assert!((est.dram_bytes - group_bytes).abs() < 1e-6);
        let group_cycles: f64 = est.groups.iter().map(|g| g.cycles).sum();
        assert!((est.cycles - group_cycles).abs() < 1e-6);
    }

    #[test]
    fn layer_estimates_sum_to_group_totals() {
        let net = suite_workload("R96", 1).network;
        let cfg = IsoscelesConfig::default();
        let est = estimate_network(&net, &cfg);
        for g in &est.groups {
            assert!(!g.layers.is_empty(), "group {} has layers", g.name);
            let cycles: f64 = g.layers.iter().map(|l| l.cycles).sum();
            let weight: f64 = g.layers.iter().map(|l| l.weight_bytes).sum();
            let act: f64 = g.layers.iter().map(|l| l.act_bytes).sum();
            let macs: f64 = g.layers.iter().map(|l| l.macs).sum();
            assert!((cycles - g.cycles).abs() / g.cycles.max(1.0) < 1e-9);
            assert!((weight - g.weight_bytes).abs() / g.weight_bytes.max(1.0) < 1e-9);
            assert!((act - g.act_bytes).abs() / g.act_bytes.max(1.0) < 1e-9);
            assert!((macs - g.macs).abs() / g.macs.max(1.0) < 1e-9);
        }
        let flat: usize = est.layers().count();
        let per_group: usize = est.groups.iter().map(|g| g.layers.len()).sum();
        assert_eq!(flat, per_group);
    }

    #[test]
    fn estimated_macs_are_exact() {
        let net = suite_workload("R96", 1).network;
        let cfg = IsoscelesConfig::default();
        let est = estimate_network(&net, &cfg);
        let expected = net.total_effectual_macs();
        assert!((est.macs - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn default_area_matches_table2() {
        let a = area_mm2(&IsoscelesConfig::default());
        assert!((a - 25.932).abs() < 1e-9, "area {a}");
    }

    #[test]
    fn merger_radix_scales_area() {
        let base = IsoscelesConfig::default();
        let mut small = base;
        small.merger_radix = 64;
        // Radix-64 mergers cost a quarter: total drops by 3/4 of the
        // merger budget (64 lanes × 16 × 0.00375 = 3.84 mm²).
        let delta = area_mm2(&base) - area_mm2(&small);
        assert!((delta - 3.84 * 0.75).abs() < 1e-9, "delta {delta}");
    }

    #[test]
    fn bigger_machine_estimates_fewer_cycles_more_area() {
        let net = suite_workload("V68", 1).network;
        let base = IsoscelesConfig::default();
        let mut big = base;
        big.lanes = 128;
        let eb = estimate_network(&net, &base);
        let eg = estimate_network(&net, &big);
        assert!(eg.cycles < eb.cycles);
        assert!(area_mm2(&big) > area_mm2(&base));
    }

    #[test]
    fn energy_mirrors_activity() {
        let net = suite_workload("M75", 1).network;
        let cfg = IsoscelesConfig::default();
        let est = estimate_network(&net, &cfg);
        let act = est.activity(&cfg);
        assert_eq!(act.dram_bytes, est.dram_bytes);
        assert_eq!(act.macs, est.macs);
        assert_eq!(act.local_sram_bytes, est.macs * 4.0);
        assert!(est.energy_mj(&cfg) > 0.0);
    }
}
