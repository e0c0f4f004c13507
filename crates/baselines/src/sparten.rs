//! SparTen baseline model [Gondimalla et al., MICRO 2019], enhanced with
//! GoSPA's activation filtering [Deng et al., ISCA 2021] as in the paper's
//! methodology (Sec. V).
//!
//! SparTen is a state-of-the-art *single-layer* sparse CNN accelerator: an
//! output-stationary dataflow over bitmask-compressed weights and
//! activations, executed layer by layer. Every layer therefore spills its
//! output activations to DRAM and re-fetches them as the next layer's
//! input; on top of that, the OS dataflow re-reads inputs once per group of
//! output channels that fits the clusters (paper Sec. VI-C: "SparTen's OS
//! dataflow has poor reuse of input activations and may read them multiple
//! times"). Sized per Table III to match ISOSceles's MACs and bandwidth
//! with 5 MB of on-chip storage.

use isos_nn::graph::Network;
use isos_nn::layer::{Layer, LayerKind};
use isos_sim::harness::MemHarness;
use isos_sim::metrics::{NetworkMetrics, RunMetrics};
use isos_trace::{NullSink, StallKind, TraceEvent, TraceSink, UnitKind};
use isosceles::accel::{stable_key, Accelerator};
use serde::{Deserialize, Serialize};

/// SparTen system configuration (paper Table III).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpartenConfig {
    /// Compute clusters.
    pub clusters: usize,
    /// MAC units per cluster.
    pub macs_per_cluster: usize,
    /// Per-cluster buffer bytes.
    pub cluster_buffer_bytes: u64,
    /// Shared filter buffer bytes.
    pub filter_buffer_bytes: u64,
    /// DRAM bandwidth in bytes/cycle.
    pub dram_bytes_per_cycle: f64,
    /// Output channels processed per input pass (the OS-dataflow tiling
    /// width; inputs are re-read once per pass).
    pub k_per_pass: usize,
    /// Fraction of peak MAC throughput sustained on effectual work
    /// (intersection and load-balance overheads).
    pub compute_efficiency: f64,
    /// Whether GoSPA's implicit activation filtering is enabled.
    pub gospa_filtering: bool,
}

impl Default for SpartenConfig {
    fn default() -> Self {
        Self {
            clusters: 64,
            macs_per_cluster: 64,
            cluster_buffer_bytes: 64 << 10,
            filter_buffer_bytes: 1 << 20,
            dram_bytes_per_cycle: 128.0,
            k_per_pass: 64,
            compute_efficiency: 0.35,
            gospa_filtering: true,
        }
    }
}

impl SpartenConfig {
    /// Total MAC units (Table III: 4096).
    pub fn total_macs(&self) -> usize {
        self.clusters * self.macs_per_cluster
    }

    /// Total on-chip storage (Table III: 5 MB).
    pub fn total_sram_bytes(&self) -> u64 {
        self.filter_buffer_bytes + self.clusters as u64 * self.cluster_buffer_bytes
    }
}

/// Every [`SpartenConfig`] field [`layer_metrics`] reads: the cluster
/// array, the bandwidth, the pass width, the efficiency and GoSPA
/// filtering. The two buffer sizes are left out because the closed form
/// never reads them, so two configurations with equal keys give
/// bit-identical metrics on every layer. Design-space sweeps memoize a
/// network's totals on this key, as they memoize IS-OS mappings on
/// `isosceles::mapping::MapKey`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OsKey {
    clusters: usize,
    macs_per_cluster: usize,
    /// By bit pattern, so `Eq` is reflexive.
    dram_bytes_per_cycle: u64,
    k_per_pass: usize,
    /// By bit pattern, likewise.
    compute_efficiency: u64,
    gospa_filtering: bool,
}

impl OsKey {
    /// The key of `cfg`.
    pub fn of(cfg: &SpartenConfig) -> Self {
        Self {
            clusters: cfg.clusters,
            macs_per_cluster: cfg.macs_per_cluster,
            dram_bytes_per_cycle: cfg.dram_bytes_per_cycle.to_bits(),
            k_per_pass: cfg.k_per_pass,
            compute_efficiency: cfg.compute_efficiency.to_bits(),
            gospa_filtering: cfg.gospa_filtering,
        }
    }
}

/// Bytes of a bitmask-compressed activation tensor: one mask bit per
/// element plus one byte per nonzero (SparTen's format).
///
/// Public so declarative architecture descriptions (`isos-explore`'s
/// `arch` module) reference the exact format constant this model uses.
pub fn bitmask_act_bytes(elements: f64, density: f64) -> f64 {
    elements / 8.0 + elements * density
}

/// Bytes of bitmask-compressed weights (same format as
/// [`bitmask_act_bytes`], over the dense weight volume).
pub fn bitmask_weight_bytes(layer: &Layer) -> f64 {
    let dense = layer.dense_weights() as f64;
    dense / 8.0 + dense * layer.weight_density
}

/// Per-layer traffic and cycles under the SparTen model.
///
/// The closed-form byte totals are pushed through the shared
/// [`MemHarness`] over the layer's modeled cycle count, so the traffic
/// split, bandwidth utilization, and DRAM energy activity are accounted
/// exactly as in the cycle-level models.
///
/// Public as the description-referenceable form of the model: the
/// declarative-architecture interpreter lowers output-stationary
/// descriptions onto exactly this closed form.
pub fn layer_metrics(layer: &Layer, cfg: &SpartenConfig) -> RunMetrics {
    simulate_layer_traced(layer, cfg, 0, &mut NullSink)
}

/// [`layer_metrics`] with trace emission: the layer becomes one unit
/// whose single compute event spans its whole modeled run starting at
/// `t0`. Busy is the effectual-MAC share of the span; intersection /
/// load-balance inefficiency (`1 - compute_efficiency`) lands on
/// `MergeBound`; whatever the memory bound adds on top (all of it, for
/// the streaming Add/pool passes) is `DramThrottled`.
fn simulate_layer_traced(
    layer: &Layer,
    cfg: &SpartenConfig,
    t0: u64,
    sink: &mut dyn TraceSink,
) -> RunMetrics {
    let unit = sink.unit(&layer.name, UnitKind::Layer);
    let mut m = RunMetrics::default();
    let mut mem = MemHarness::new(cfg.dram_bytes_per_cycle);
    let in_elems = layer.input.volume() as f64;
    let out_elems = layer.output.volume() as f64;

    let emit_compute = |sink: &mut dyn TraceSink, m: &RunMetrics, busy: f64, stalls: [f64; 4]| {
        if sink.enabled() {
            sink.emit(TraceEvent::Compute {
                unit,
                t: t0,
                cycles: m.cycles,
                busy,
                stalls,
            });
        }
    };

    match layer.kind {
        LayerKind::Add => {
            // The paper fuses the skip connection into the preceding conv:
            // the skip operand is fetched once more from DRAM, the sum is
            // written as that conv's output (already counted there).
            let read = bitmask_act_bytes(in_elems, layer.in_act_density);
            m.cycles = (read / cfg.dram_bytes_per_cycle).ceil() as u64;
            mem.transfer(0.0, read, 0.0, m.cycles.max(1), t0, unit, sink);
            mem.finish(&mut m);
            let mut stalls = [0.0; 4];
            stalls[StallKind::DramThrottled.index()] = m.cycles as f64;
            emit_compute(sink, &m, 0.0, stalls);
            return m;
        }
        LayerKind::MaxPool { .. } | LayerKind::GlobalAvgPool => {
            // Streaming pass: read input, write output.
            let read = bitmask_act_bytes(in_elems, layer.in_act_density);
            let write = bitmask_act_bytes(out_elems, layer.out_act_density);
            m.cycles = ((read + write) / cfg.dram_bytes_per_cycle).ceil() as u64;
            mem.transfer(0.0, read, write, m.cycles.max(1), t0, unit, sink);
            mem.finish(&mut m);
            let mut stalls = [0.0; 4];
            stalls[StallKind::DramThrottled.index()] = m.cycles as f64;
            emit_compute(sink, &m, 0.0, stalls);
            return m;
        }
        _ => {}
    }

    // Weighted layers (conv / dw-conv / FC).
    let k = layer.output.c.max(1);
    let input_passes = match layer.kind {
        // FC weights stream once; the (tiny) input vector stays on chip.
        LayerKind::FullyConnected => 1.0,
        _ => (k as f64 / cfg.k_per_pass as f64).ceil().max(1.0),
    };
    // GoSPA's implicit intersection skips fetching input activations whose
    // positions can never meet a nonzero weight. An input element is
    // useful only if any of the R*S*k_pass weight positions it touches is
    // nonzero.
    let gospa_factor = if cfg.gospa_filtering {
        let (r, s) = layer.kind.kernel();
        let positions = (r * s * k.min(cfg.k_per_pass)) as f64;
        (1.0 - (1.0 - layer.weight_density).powf(positions)).clamp(0.05, 1.0)
    } else {
        1.0
    };

    let input_read =
        bitmask_act_bytes(in_elems, layer.in_act_density) * input_passes * gospa_factor;
    let output_write = bitmask_act_bytes(out_elems, layer.out_act_density);
    let weight_read = bitmask_weight_bytes(layer);

    m.effectual_macs = layer.effectual_macs();

    let compute_cycles = m.effectual_macs / (cfg.total_macs() as f64 * cfg.compute_efficiency);
    let memory_cycles = (weight_read + (input_read + output_write)) / cfg.dram_bytes_per_cycle;
    let cycles = compute_cycles.max(memory_cycles).ceil().max(1.0);
    m.cycles = cycles as u64;
    m.mac_util
        .add(m.effectual_macs / cfg.total_macs() as f64, m.cycles);
    mem.transfer(
        weight_read,
        input_read,
        output_write,
        m.cycles,
        t0,
        unit,
        sink,
    );
    mem.finish(&mut m);
    // 4 local bytes per MAC: a 16-bit partial read-modify-write in the
    // cluster buffer.
    m.charge_compute_activity(m.effectual_macs, 4.0);
    if sink.enabled() {
        // Cycles an ideal 100%-efficient array would need: the busy time.
        let ideal = m.effectual_macs / cfg.total_macs() as f64;
        let mut stalls = [0.0; 4];
        stalls[StallKind::MergeBound.index()] = compute_cycles - ideal;
        stalls[StallKind::DramThrottled.index()] = m.cycles as f64 - compute_cycles;
        emit_compute(sink, &m, ideal, stalls);
    }
    m
}

impl Accelerator for SpartenConfig {
    fn name(&self) -> &str {
        "sparten"
    }

    fn cache_key(&self) -> u64 {
        stable_key(Accelerator::name(self), self)
    }

    /// Simulates a whole network layer by layer under SparTen. The model
    /// is analytic, so the seed does not enter. Each layer is its own
    /// "group", so the group and layer breakdowns coincide. Layers
    /// execute strictly one after another, so each layer's single compute
    /// event starts where the previous layer's cycles ended.
    fn simulate_traced(
        &self,
        net: &Network,
        _seed: u64,
        sink: &mut dyn TraceSink,
    ) -> NetworkMetrics {
        let mut out = NetworkMetrics::default();
        let mut t0 = 0u64;
        for node in net.nodes() {
            let m = simulate_layer_traced(&node.layer, self, t0, sink);
            t0 += m.cycles;
            out.push_group(node.layer.name.clone(), m, Vec::new());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isos_nn::layer::ActShape;
    use isos_nn::models::{resnet50, suite_workload, SUITE_IDS};

    #[test]
    fn table3_summary() {
        let cfg = SpartenConfig::default();
        assert_eq!(cfg.total_macs(), 4096);
        assert_eq!(cfg.total_sram_bytes(), 5 * 1024 * 1024);
    }

    #[test]
    fn wide_layers_reread_inputs() {
        let mk = |k: usize| {
            Layer::new(
                "c",
                LayerKind::Conv {
                    r: 3,
                    s: 3,
                    stride: 1,
                    pad: 1,
                },
                ActShape::new(14, 14, 256),
                k,
            )
            .with_weight_density(0.04)
            .with_act_density(0.5, 0.5)
        };
        let cfg = SpartenConfig::default();
        let narrow = layer_metrics(&mk(128), &cfg);
        let wide = layer_metrics(&mk(512), &cfg);
        // 4 passes vs 1: the input-read share of traffic scales.
        assert!(wide.act_traffic > 2.0 * narrow.act_traffic);
    }

    #[test]
    fn gospa_filtering_cuts_input_traffic_for_very_sparse_weights() {
        let mk = |gospa: bool| {
            let layer = Layer::new(
                "c",
                LayerKind::Conv {
                    r: 1,
                    s: 1,
                    stride: 1,
                    pad: 0,
                },
                ActShape::new(14, 14, 256),
                8,
            )
            .with_weight_density(0.01)
            .with_act_density(0.5, 0.5);
            let cfg = SpartenConfig {
                gospa_filtering: gospa,
                ..Default::default()
            };
            layer_metrics(&layer, &cfg)
        };
        let with = mk(true);
        let without = mk(false);
        assert!(with.act_traffic < without.act_traffic);
    }

    #[test]
    fn resnet_is_memory_bound() {
        let net = resnet50(0.96, 1);
        let r = SpartenConfig::default().simulate(&net, 0);
        // Paper Fig. 15: SparTen always saturates memory bandwidth.
        assert!(
            r.total.bw_util.ratio() > 0.8,
            "bw {}",
            r.total.bw_util.ratio()
        );
        // Paper Fig. 14c: activation traffic dominates weight traffic.
        assert!(r.total.act_traffic > r.total.weight_traffic);
    }

    #[test]
    fn per_layer_results_cover_network() {
        let net = resnet50(0.9, 1);
        let r = SpartenConfig::default().simulate(&net, 0);
        assert_eq!(r.groups.len(), net.len());
        // Layer-by-layer accelerator: layers and groups coincide.
        assert_eq!(r.layers.len(), net.len());
        let sum: u64 = r.groups.iter().map(|(_, m)| m.cycles).sum();
        assert_eq!(sum, r.total.cycles);
        assert_eq!(r.layer_sum().cycles, r.total.cycles);
    }

    /// [`OsKey`] leaves the two buffer sizes out; that is only sound while
    /// the closed form never reads them. A change to either one alone
    /// must leave every layer of the suite bit-identical.
    #[test]
    fn buffer_sizes_never_change_layer_metrics() {
        let bases = [
            SpartenConfig::default(),
            SpartenConfig {
                clusters: 8,
                dram_bytes_per_cycle: 64.0,
                k_per_pass: 16,
                gospa_filtering: false,
                ..SpartenConfig::default()
            },
        ];
        for id in SUITE_IDS {
            let net = suite_workload(id, 1).network;
            for base in &bases {
                let variants = [0, 1 << 10, 1 << 30].into_iter().flat_map(|bytes| {
                    [
                        SpartenConfig {
                            filter_buffer_bytes: bytes,
                            ..*base
                        },
                        SpartenConfig {
                            cluster_buffer_bytes: bytes,
                            ..*base
                        },
                    ]
                });
                for cfg in variants {
                    assert_eq!(OsKey::of(&cfg), OsKey::of(base));
                    for node in net.nodes() {
                        assert_eq!(
                            layer_metrics(&node.layer, &cfg),
                            layer_metrics(&node.layer, base),
                            "{id} {}: {cfg:?}",
                            node.layer.name
                        );
                    }
                }
            }
        }
    }
}
