//! Fused-Layer baseline model [Alwani et al., MICRO 2016].
//!
//! Fused-Layer is a *dense* CNN accelerator that pipelines multiple layers
//! with a tiled output-stationary dataflow (paper Fig. 2): output tiles of
//! the last fused layer are produced from progressively larger input tiles
//! of earlier layers, with the overlapping *input halos* recomputed at tile
//! boundaries and growing with pipeline depth. It runs uncompressed data,
//! so it performs all dense MACs and moves dense weights — which is what
//! makes it compute-bound (paper Fig. 15/16: ~100% MAC utilization, <50%
//! bandwidth utilization). Configured per Sec. V: same MACs and bandwidth
//! as ISOSceles, 2.5 MB filter buffer.

use isos_nn::graph::{Network, NodeId};

use isos_sim::harness::{DramTags, MemHarness};
use isos_sim::metrics::{apportion_capped, apportion_cycles, NetworkMetrics, RunMetrics};
use isos_trace::{NullSink, StallKind, TraceEvent, TraceSink, UnitId, UnitKind};
use isosceles::accel::{stable_key, Accelerator};
use serde::{Deserialize, Serialize};

/// Fused-Layer system configuration (paper Sec. V).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FusedLayerConfig {
    /// Total MAC units.
    pub total_macs: usize,
    /// Filter buffer bytes (holds the dense weights of all fused layers).
    pub filter_buffer_bytes: u64,
    /// DRAM bandwidth in bytes/cycle.
    pub dram_bytes_per_cycle: f64,
    /// Output tile edge length in the 2-D tiled dataflow.
    pub tile: usize,
    /// Sustained fraction of peak MAC throughput (dense dataflows come
    /// close to 1.0).
    pub compute_efficiency: f64,
}

impl Default for FusedLayerConfig {
    fn default() -> Self {
        Self {
            total_macs: 4096,
            filter_buffer_bytes: 5 << 19, // 2.5 MB
            dram_bytes_per_cycle: 128.0,
            tile: 32,
            compute_efficiency: 0.95,
        }
    }
}

/// Greedy fusion: consecutive conv layers are fused while their *dense*
/// weights fit the filter buffer; pools/FC are boundaries (the original
/// paper fuses only convolutional stages). The buffer size is the only
/// configuration it reads, so sweeps memoize the groups on it.
fn fuse_groups(net: &Network, filter_buffer_bytes: u64) -> Vec<Vec<NodeId>> {
    let mut groups: Vec<Vec<NodeId>> = Vec::new();
    let mut current: Vec<NodeId> = Vec::new();
    let mut current_bytes = 0.0f64;
    for id in 0..net.len() {
        let layer = net.layer(id);
        let fusable = layer.kind.is_pipelineable();
        let w = layer.weight_dense_bytes();
        if !fusable {
            if !current.is_empty() {
                groups.push(std::mem::take(&mut current));
                current_bytes = 0.0;
            }
            groups.push(vec![id]);
            continue;
        }
        if !current.is_empty() && current_bytes + w > filter_buffer_bytes as f64 {
            groups.push(std::mem::take(&mut current));
            current_bytes = 0.0;
        }
        current.push(id);
        current_bytes += w;
    }
    if !current.is_empty() {
        groups.push(current);
    }
    groups
}

/// One fused group's totals plus its per-layer breakdown.
#[derive(Debug)]
pub struct FusedGroupRun {
    /// Group totals.
    pub metrics: RunMetrics,
    /// Per-member-layer breakdown, in group order; sums to `metrics`.
    pub layers: Vec<(String, RunMetrics)>,
}

/// Simulates one fused group.
///
/// Public as the description-referenceable form of the model: the
/// declarative-architecture interpreter lowers fused-tile descriptions
/// onto exactly this closed form.
pub fn group_metrics(net: &Network, group: &[NodeId], cfg: &FusedLayerConfig) -> FusedGroupRun {
    simulate_group_traced(net, group, cfg, 0, &mut NullSink)
}

/// The totals of [`group_metrics`] without its per-layer breakdown:
/// [`FusedGroupFacts::totals`] on the group's facts, the arithmetic
/// `group_metrics` runs, so the result equals `group_metrics(..).metrics`
/// bit for bit.
pub fn group_totals(net: &Network, group: &[NodeId], cfg: &FusedLayerConfig) -> RunMetrics {
    group_facts(net, group).totals(cfg, &mut FusedScratch::default())
}

/// What a fused group moves and computes before the machine is chosen:
/// its dense input, output and weight bytes, each layer's dense MACs, and
/// the halo ring each layer must recompute for the layers after it. They
/// depend on the network and the group alone, so sweeps memoize them per
/// filter-buffer size (which fixes the groups) and pay only
/// [`totals`](Self::totals) per point. The tile edge enters there,
/// through the halo factors.
#[derive(Debug)]
pub struct FusedGroupFacts {
    /// The group input, dense, before its halo.
    input_bytes: f64,
    /// The input halo ring: `R - 1` summed over the group's layers.
    ext: usize,
    /// The group output.
    output_bytes: f64,
    /// The fused layers' dense weight bytes, summed.
    weight_bytes: f64,
    /// Per fused layer, in group order.
    layers: Vec<LayerFacts>,
}

/// One fused layer's part of its [`FusedGroupFacts`].
#[derive(Debug)]
struct LayerFacts {
    weight_bytes: f64,
    dense_macs: f64,
    /// The halo ring the layers after it need: their `R - 1`, summed.
    ext: usize,
}

/// The memory-step buffer [`FusedGroupFacts::totals`] recycles (the
/// per-layer weight demand, granted in place), so a caller that keeps
/// one across groups and points never allocates.
#[derive(Debug, Default)]
pub struct FusedScratch {
    weight_reads: Vec<f64>,
}

/// The [`FusedGroupFacts`] of `group`.
pub fn group_facts(net: &Network, group: &[NodeId]) -> FusedGroupFacts {
    let ring = |ids: &[NodeId]| -> usize {
        ids.iter()
            .map(|&j| net.layer(j).kind.kernel().0.saturating_sub(1))
            .sum()
    };
    let layers: Vec<LayerFacts> = group
        .iter()
        .enumerate()
        .map(|(pos, &id)| LayerFacts {
            weight_bytes: net.layer(id).weight_dense_bytes(),
            dense_macs: net.layer(id).dense_macs(),
            ext: ring(&group[pos + 1..]),
        })
        .collect();
    FusedGroupFacts {
        input_bytes: net.layer(group[0]).in_act_dense_bytes(),
        ext: ring(group),
        output_bytes: net.layer(*group.last().unwrap()).out_act_dense_bytes(),
        weight_bytes: layers.iter().map(|l| l.weight_bytes).sum(),
        layers,
    }
}

/// How much a halo ring of `ext` inflates a `tile` × `tile` output tile's
/// area.
fn halo_factor(tile: usize, ext: usize) -> f64 {
    let tile = tile as f64;
    ((tile + ext as f64) / tile).powi(2)
}

impl FusedGroupFacts {
    /// The group input at tile edge `tile`: each tile re-fetches its input
    /// halo ring, which grows with fusion depth (the central cost of
    /// Fig. 2).
    fn input_bytes(&self, tile: usize) -> f64 {
        self.input_bytes * halo_factor(tile, self.ext)
    }

    /// Each fused layer's MACs at tile edge `tile`, in group order: a
    /// layer at depth d recomputes the halo ring needed by the layers
    /// after it, which grows by (R-1) per remaining downstream layer
    /// (paper Fig. 2).
    fn layer_macs(&self, tile: usize) -> impl Iterator<Item = f64> + '_ {
        self.layers
            .iter()
            .map(move |l| l.dense_macs * halo_factor(tile, l.ext))
    }

    /// The group totals on `cfg`: cycles, MAC utilization, the memory
    /// step and its accounting, and the compute activity. Reads
    /// `total_macs`, `dram_bytes_per_cycle`, `tile` and
    /// `compute_efficiency` only; `scratch` holds the memory-step buffers
    /// between calls.
    pub fn totals(&self, cfg: &FusedLayerConfig, scratch: &mut FusedScratch) -> RunMetrics {
        self.totals_traced(cfg, &[], 0, &mut NullSink, scratch).0
    }

    /// [`totals`](Self::totals), posting the memory streams under `units`
    /// (one per fused layer; empty when not tracing) at start cycle `t0`.
    /// Also returns the group's compute time, which the trace is built
    /// from.
    fn totals_traced(
        &self,
        cfg: &FusedLayerConfig,
        units: &[UnitId],
        t0: u64,
        sink: &mut dyn TraceSink,
        scratch: &mut FusedScratch,
    ) -> (RunMetrics, f64) {
        let mut m = RunMetrics::default();
        let mut mem = MemHarness::new(cfg.dram_bytes_per_cycle);
        // Dense traffic: group input once per tile with its halo, group
        // output once, dense weights of every fused layer once. Dense
        // compute with halo recomputation.
        let input_bytes = self.input_bytes(cfg.tile);
        let mut macs = 0.0;
        for layer_macs in self.layer_macs(cfg.tile) {
            macs += layer_macs;
        }
        m.effectual_macs = macs;

        let compute_cycles = macs / (cfg.total_macs as f64 * cfg.compute_efficiency);
        let memory_cycles =
            (self.weight_bytes + (input_bytes + self.output_bytes)) / cfg.dram_bytes_per_cycle;
        m.cycles = compute_cycles.max(memory_cycles).ceil().max(1.0) as u64;
        m.mac_util.add(
            (macs / cfg.total_macs as f64).min(m.cycles as f64),
            m.cycles,
        );
        // One weight stream per fused layer (each layer's filters are its
        // own), the group input entering at the first layer, the group
        // output leaving at the last. `cycles` covers the memory time, so
        // every stream is granted in full and the totals match the posted
        // bytes — splitting the weight stream only refines trace
        // attribution.
        let weight_reads = &mut scratch.weight_reads;
        weight_reads.clear();
        weight_reads.extend(self.layers.iter().map(|l| l.weight_bytes));
        let tags = DramTags {
            t: t0,
            weights: units,
            acts: &units[..units.len().min(1)],
            writes: &units[units.len().saturating_sub(1)..],
        };
        mem.step(
            weight_reads,
            &mut [input_bytes],
            &mut [self.output_bytes],
            m.cycles,
            sink.enabled().then_some((tags, sink)),
        );
        mem.finish(&mut m);
        // 4 local bytes per MAC: a 16-bit partial read-modify-write.
        m.charge_compute_activity(macs, 4.0);
        (m, compute_cycles)
    }
}

/// [`group_metrics`] with trace emission, built on the group's facts and
/// totals. Every fused layer is one unit spanning the whole group run (the
/// layers execute concurrently in the tile pipeline): its busy time is its
/// ideal MAC share, the dense-array efficiency loss lands on
/// `MergeBound`, waiting for the *other* fused layers' tile wavefronts on
/// `InputStarved`, and whatever the memory bound stretches the group
/// beyond its compute time on `DramThrottled`.
fn simulate_group_traced(
    net: &Network,
    group: &[NodeId],
    cfg: &FusedLayerConfig,
    t0: u64,
    sink: &mut dyn TraceSink,
) -> FusedGroupRun {
    let unit_ids: Vec<UnitId> = group
        .iter()
        .map(|&id| sink.unit(&net.layer(id).name, UnitKind::Layer))
        .collect();
    let facts = group_facts(net, group);
    let (m, compute_cycles) =
        facts.totals_traced(cfg, &unit_ids, t0, sink, &mut FusedScratch::default());
    let input_bytes = facts.input_bytes(cfg.tile);
    let output_bytes = facts.output_bytes;
    let macs_per_layer: Vec<f64> = facts.layer_macs(cfg.tile).collect();

    if sink.enabled() {
        let t_f = m.cycles as f64;
        for (&unit, &layer_macs) in unit_ids.iter().zip(&macs_per_layer) {
            // This layer's ideal busy time and its share of the group's
            // compute time (efficiency loss included).
            let busy = layer_macs / cfg.total_macs as f64;
            let compute_j = layer_macs / (cfg.total_macs as f64 * cfg.compute_efficiency);
            let mut stalls = [0.0; 4];
            stalls[StallKind::MergeBound.index()] = compute_j - busy;
            stalls[StallKind::InputStarved.index()] = compute_cycles - compute_j;
            stalls[StallKind::DramThrottled.index()] = t_f - compute_cycles;
            sink.emit(TraceEvent::Compute {
                unit,
                t: t0,
                cycles: m.cycles,
                busy,
                stalls,
            });
        }
    }

    // Per-layer breakdown: each fused layer moves its own dense weights;
    // the group's input (with its halo) enters at the first layer, the
    // group's output leaves at the last; cycles — a group-shared resource
    // — are apportioned by each layer's (halo-inflated) MACs, and the
    // group's busy MAC/DRAM time by MAC/traffic share, water-filled
    // against the layer's own cycles so the breakdown sums to the group
    // totals.
    let layer_cycles = apportion_cycles(m.cycles, &macs_per_layer);
    let caps: Vec<f64> = layer_cycles.iter().map(|&c| c as f64).collect();
    let traffic_per_layer: Vec<f64> = facts
        .layers
        .iter()
        .enumerate()
        .map(|(pos, l)| {
            let mut t = l.weight_bytes;
            if pos == 0 {
                t += input_bytes;
            }
            if pos == group.len() - 1 {
                t += output_bytes;
            }
            t
        })
        .collect();
    let mac_busy = apportion_capped(m.mac_util.busy(), &macs_per_layer, &caps);
    let bw_busy = apportion_capped(m.bw_util.busy(), &traffic_per_layer, &caps);
    let layers = group
        .iter()
        .zip(&macs_per_layer)
        .zip(&layer_cycles)
        .enumerate()
        .map(|(pos, ((&id, &layer_macs), &cycles))| {
            let layer = net.layer(id);
            let mut lm = RunMetrics {
                cycles,
                weight_traffic: facts.layers[pos].weight_bytes,
                act_traffic: 0.0,
                effectual_macs: layer_macs,
                ..Default::default()
            };
            if pos == 0 {
                lm.act_traffic += input_bytes;
            }
            if pos == group.len() - 1 {
                lm.act_traffic += output_bytes;
            }
            lm.mac_util.add(mac_busy[pos], cycles);
            lm.bw_util.add(bw_busy[pos], cycles);
            lm.activity.dram_bytes = lm.total_traffic();
            lm.charge_compute_activity(layer_macs, 4.0);
            (layer.name.clone(), lm)
        })
        .collect();
    FusedGroupRun { metrics: m, layers }
}

impl Accelerator for FusedLayerConfig {
    fn name(&self) -> &str {
        "fused-layer"
    }

    fn cache_key(&self) -> u64 {
        stable_key(Accelerator::name(self), self)
    }

    /// Simulates a whole network under Fused-Layer. The model is analytic,
    /// so the seed does not enter. Fused groups run one after another, so
    /// each group's events start where the previous group's cycles ended.
    fn simulate_traced(
        &self,
        net: &Network,
        _seed: u64,
        sink: &mut dyn TraceSink,
    ) -> NetworkMetrics {
        let mut out = NetworkMetrics::default();
        let mut t0 = 0u64;
        for group in fuse_groups(net, self.filter_buffer_bytes) {
            let run = simulate_group_traced(net, &group, self, t0, sink);
            t0 += run.metrics.cycles;
            let name = net.layer(group[0]).name.clone();
            out.push_group(name, run.metrics, run.layers);
        }
        out
    }
}

/// Layer ids per fused group, exposed for per-pipeline comparisons
/// (Fig. 18 aggregates baselines over ISOSceles's pipeline extents).
/// Depends on `cfg.filter_buffer_bytes` alone.
pub fn fused_groups(net: &Network, cfg: &FusedLayerConfig) -> Vec<Vec<NodeId>> {
    fuse_groups(net, cfg.filter_buffer_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use isos_nn::models::{resnet50, suite_workload, vgg16, SUITE_IDS};

    #[test]
    fn fused_layer_is_compute_bound_on_dense_nets() {
        let net = resnet50(0.96, 1); // sparsity ignored: dense execution
        let r = FusedLayerConfig::default().simulate(&net, 0);
        // Paper Fig. 16: ~100% MAC utilization; Fig. 15: ~47% BW.
        assert!(
            r.total.mac_util.ratio() > 0.8,
            "mac {}",
            r.total.mac_util.ratio()
        );
        assert!(
            r.total.bw_util.ratio() < 0.8,
            "bw {}",
            r.total.bw_util.ratio()
        );
    }

    #[test]
    fn weight_traffic_dominates_activations() {
        // Paper Fig. 14c: Fused-Layer is dominated by (dense) weights.
        let net = resnet50(0.9, 1);
        let r = FusedLayerConfig::default().simulate(&net, 0);
        assert!(r.total.weight_traffic > r.total.act_traffic);
    }

    #[test]
    fn dense_macs_are_performed_regardless_of_sparsity() {
        let sparse = resnet50(0.99, 1);
        let r = FusedLayerConfig::default().simulate(&sparse, 0);
        // Halo recomputation makes MACs >= the dense count.
        assert!(r.total.effectual_macs >= sparse.total_dense_macs());
    }

    #[test]
    fn groups_partition_the_network() {
        let net = vgg16(0.68, 1);
        let groups = fused_groups(&net, &FusedLayerConfig::default());
        let covered: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(covered, net.len());
        // VGG's big conv layers exceed 2.5 MB quickly: several groups.
        assert!(groups.len() > 5);
    }

    #[test]
    fn deeper_fusion_costs_more_halo_macs() {
        let net = resnet50(0.9, 1);
        let cfg = FusedLayerConfig::default();
        let deep = group_metrics(&net, &[2, 3, 4], &cfg);
        let shallow: f64 = [2usize, 3, 4]
            .iter()
            .map(|&id| group_metrics(&net, &[id], &cfg).metrics.effectual_macs)
            .sum();
        assert!(deep.metrics.effectual_macs > shallow);
    }

    #[test]
    fn group_totals_equal_the_full_group_run() {
        let net = resnet50(0.9, 1);
        for (fb, tile) in [(256 << 10, 8), (5 << 19, 32), (8 << 20, 128)] {
            let cfg = FusedLayerConfig {
                filter_buffer_bytes: fb,
                tile,
                ..FusedLayerConfig::default()
            };
            for group in fused_groups(&net, &cfg) {
                assert_eq!(
                    group_totals(&net, &group, &cfg),
                    group_metrics(&net, &group, &cfg).metrics,
                    "group at layer {}",
                    group[0]
                );
            }
        }
    }

    #[test]
    fn fused_group_layer_breakdown_conserves_totals() {
        let net = resnet50(0.9, 1);
        let cfg = FusedLayerConfig::default();
        let run = group_metrics(&net, &[2, 3, 4], &cfg);
        assert_eq!(run.layers.len(), 3);
        let mut sum = RunMetrics::default();
        for (_, m) in &run.layers {
            sum.accumulate(m);
        }
        assert_eq!(sum.cycles, run.metrics.cycles);
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1.0);
        assert!(rel(sum.weight_traffic, run.metrics.weight_traffic) < 1e-6);
        assert!(rel(sum.act_traffic, run.metrics.act_traffic) < 1e-6);
        assert!(rel(sum.effectual_macs, run.metrics.effectual_macs) < 1e-6);
    }

    /// The facts hold everything but `total_macs`, the bandwidth, the tile
    /// and the efficiency, so totals from memoized facts must equal both
    /// public paths on every group of the suite: at each filter-buffer
    /// size and tile of the design-space default
    /// (`isos_explore::ArchSpace`), at 64 and 512 B/cycle, with 8 and 256
    /// lanes of 64 MACs.
    #[test]
    fn totals_from_facts_equal_both_group_paths() {
        let mut scratch = FusedScratch::default();
        for id in SUITE_IDS {
            let net = suite_workload(id, 1).network;
            for kb in [128u64, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096] {
                for group in &fuse_groups(&net, kb * 1024) {
                    let facts = group_facts(&net, group);
                    for tile in [8, 16, 32, 64, 128, 256] {
                        for bw in [64.0, 512.0] {
                            for lanes in [8, 256] {
                                let cfg = FusedLayerConfig {
                                    total_macs: lanes * 64,
                                    filter_buffer_bytes: kb * 1024,
                                    dram_bytes_per_cycle: bw,
                                    tile,
                                    ..FusedLayerConfig::default()
                                };
                                let totals = facts.totals(&cfg, &mut scratch);
                                let at = || format!("{id} group at {}: {cfg:?}", group[0]);
                                assert_eq!(totals, group_totals(&net, group, &cfg), "{}", at());
                                assert_eq!(
                                    totals,
                                    group_metrics(&net, group, &cfg).metrics,
                                    "{}",
                                    at()
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
