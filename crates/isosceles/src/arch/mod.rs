//! The ISOSceles architecture performance model (paper Sec. IV).
//!
//! [`pipeline`] drives the interval-based cycle simulation of each
//! pipeline group over the time-multiplexed IS-OS block; [`scheduler`]
//! implements the 100-cycle dynamic PE reallocation.

pub mod fetcher;
pub mod filter_buffer;
pub mod microsim;
pub mod pe;
pub mod pipeline;
pub mod scheduler;

pub use microsim::{build_chain, simulate_micro, MicroLayer, MicroResult};
pub use pipeline::{
    run_network, run_network_traced, simulate_group, simulate_mapping, simulate_mapping_traced,
    GroupRun,
};
pub use scheduler::DynamicScheduler;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IsoscelesConfig;
    use crate::mapping::{map_network, ExecMode};
    use isos_nn::graph::Network;
    use isos_nn::layer::{ActShape, Layer, LayerKind};
    use isos_nn::models;
    use isos_nn::sparsity::{apply_activation_profile, apply_weight_profile, WeightProfile};

    fn small_chain(n: usize, density: f64) -> Network {
        let mut net = Network::new("chain");
        let mut prev: Option<usize> = None;
        for i in 0..n {
            let l = Layer::new(
                &format!("c{i}"),
                LayerKind::Conv {
                    r: 3,
                    s: 3,
                    stride: 1,
                    pad: 1,
                },
                ActShape::new(32, 32, 32),
                32,
            );
            let inputs: Vec<usize> = prev.into_iter().collect();
            prev = Some(net.add(l, &inputs));
        }
        apply_weight_profile(
            &mut net,
            WeightProfile::Uniform {
                sparsity: 1.0 - density,
            },
        );
        apply_activation_profile(&mut net, 3);
        net
    }

    #[test]
    fn simulation_terminates_and_counts_work() {
        let net = small_chain(4, 0.2);
        let cfg = IsoscelesConfig::default();
        let result = run_network(&net, &cfg, ExecMode::Pipelined, 1);
        assert!(result.total.cycles > 0);
        // All effectual MACs were executed (within wobble rounding).
        let expected = net.total_effectual_macs();
        assert!(
            (result.total.effectual_macs - expected).abs() / expected < 0.01,
            "executed {} vs expected {expected}",
            result.total.effectual_macs
        );
    }

    #[test]
    fn pipelined_traffic_is_lower_than_single_layer() {
        let net = small_chain(6, 0.2);
        let cfg = IsoscelesConfig::default();
        let pipe = run_network(&net, &cfg, ExecMode::Pipelined, 1);
        let single = run_network(&net, &cfg, ExecMode::SingleLayer, 1);
        // Pipelining keeps intermediate activations on-chip.
        assert!(
            pipe.total.act_traffic < 0.7 * single.total.act_traffic,
            "pipe {} vs single {}",
            pipe.total.act_traffic,
            single.total.act_traffic
        );
        // Weight traffic is identical (weights stream once either way).
        let w_ratio = pipe.total.weight_traffic / single.total.weight_traffic;
        assert!((w_ratio - 1.0).abs() < 0.05, "weight ratio {w_ratio}");
        // And pipelined should not be slower.
        assert!(pipe.total.cycles <= single.total.cycles);
    }

    #[test]
    fn memory_bound_network_saturates_bandwidth() {
        // Very sparse weights + activations: tiny compute, big streams ->
        // memory-bound single-layer run.
        let net = small_chain(2, 0.02);
        let cfg = IsoscelesConfig::default();
        let single = run_network(&net, &cfg, ExecMode::SingleLayer, 1);
        assert!(
            single.total.bw_util.ratio() > 0.5,
            "bw util {}",
            single.total.bw_util.ratio()
        );
    }

    #[test]
    fn denser_network_needs_more_cycles() {
        let cfg = IsoscelesConfig::default();
        let sparse = run_network(&small_chain(3, 0.1), &cfg, ExecMode::Pipelined, 1);
        let dense = run_network(&small_chain(3, 0.8), &cfg, ExecMode::Pipelined, 1);
        assert!(dense.total.cycles > sparse.total.cycles);
    }

    #[test]
    fn resnet_r96_end_to_end_simulates() {
        let net = models::resnet50(0.96, 1);
        let cfg = IsoscelesConfig::default();
        let result = run_network(&net, &cfg, ExecMode::Pipelined, 1);
        assert!(result.total.cycles > 10_000);
        assert!(result.total.total_traffic() > 1e6, "R96 should move MBs");
        // Groups cover the whole network.
        let mapping = map_network(&net, &cfg, ExecMode::Pipelined);
        assert_eq!(result.groups.len(), mapping.groups.len());
    }

    #[test]
    fn skip_connection_groups_simulate_without_deadlock() {
        // One ResNet block with its add in a single pipeline.
        let net = models::resnet50(0.96, 1);
        let cfg = IsoscelesConfig::default();
        let mapping = map_network(&net, &cfg, ExecMode::Pipelined);
        let block_group = mapping
            .groups
            .iter()
            .find(|g| g.layers.len() > 3)
            .expect("some pipelined block");
        let run = simulate_group(&net, &cfg, block_group, 1);
        assert!(run.metrics.cycles > 0);
    }

    #[test]
    fn group_layer_breakdown_conserves_totals() {
        let net = models::resnet50(0.96, 1);
        let cfg = IsoscelesConfig::default();
        let mapping = map_network(&net, &cfg, ExecMode::Pipelined);
        let group = mapping
            .groups
            .iter()
            .find(|g| g.layers.len() > 3)
            .expect("some pipelined block");
        let run = simulate_group(&net, &cfg, group, 1);
        assert_eq!(run.layers.len(), group.layers.len());
        let mut sum = isos_sim::metrics::RunMetrics::default();
        for (_, m) in &run.layers {
            sum.accumulate(m);
        }
        assert_eq!(sum.cycles, run.metrics.cycles);
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1.0);
        assert!(rel(sum.weight_traffic, run.metrics.weight_traffic) < 1e-6);
        assert!(rel(sum.act_traffic, run.metrics.act_traffic) < 1e-6);
        assert!(rel(sum.effectual_macs, run.metrics.effectual_macs) < 1e-6);
        assert!(rel(sum.activity.dram_bytes, run.metrics.activity.dram_bytes) < 1e-6);
    }

    #[test]
    fn mac_utilization_is_bounded() {
        let net = small_chain(4, 0.3);
        let cfg = IsoscelesConfig::default();
        let r = run_network(&net, &cfg, ExecMode::Pipelined, 1);
        let u = r.total.mac_util.ratio();
        assert!(u > 0.0 && u <= 1.0, "util {u}");
    }
}

#[cfg(test)]
mod tiling_tests {
    use crate::config::IsoscelesConfig;
    use crate::mapping::PipelineGroup;
    use isos_nn::graph::Network;
    use isos_nn::layer::{ActShape, Layer, LayerKind};

    fn one_layer_net(h: usize, k: usize) -> Network {
        let mut net = Network::new("t");
        let l = Layer::new(
            "conv",
            LayerKind::Conv {
                r: 3,
                s: 3,
                stride: 1,
                pad: 1,
            },
            ActShape::new(h, 32, 16),
            k,
        )
        .with_weight_density(0.2)
        .with_act_density(0.5, 0.5);
        net.add(l, &[]);
        net
    }

    fn group(p_tiles: usize, k_tiles: usize) -> PipelineGroup {
        PipelineGroup {
            name: "conv".into(),
            layers: vec![0],
            p_tiles,
            k_tiles,
        }
    }

    #[test]
    fn k_tiling_multiplies_input_traffic_not_weights() {
        let net = one_layer_net(32, 64);
        let cfg = IsoscelesConfig::default();
        let base = super::simulate_group(&net, &cfg, &group(1, 1), 1).metrics;
        let tiled = super::simulate_group(&net, &cfg, &group(1, 4), 1).metrics;
        // Inputs re-read once per K tile; outputs and weights unchanged.
        let input_bytes = net.layer(0).in_act_csf_bytes();
        let expected = base.act_traffic + 3.0 * input_bytes;
        assert!(
            (tiled.act_traffic - expected).abs() / expected < 0.02,
            "tiled {} vs expected {expected}",
            tiled.act_traffic
        );
        assert!((tiled.weight_traffic - base.weight_traffic).abs() < 1.0);
        assert!(tiled.cycles >= base.cycles);
    }

    #[test]
    fn p_tiling_adds_halo_traffic_only() {
        let net = one_layer_net(128, 16);
        let cfg = IsoscelesConfig::default();
        let base = super::simulate_group(&net, &cfg, &group(1, 1), 1).metrics;
        let tiled = super::simulate_group(&net, &cfg, &group(2, 1), 1).metrics;
        // One tile boundary re-fetches (R-1)=2 of 128 input rows: ~1.6%.
        let ratio = tiled.act_traffic / base.act_traffic;
        assert!(ratio > 1.0 && ratio < 1.05, "halo overhead ratio {ratio}");
    }

    #[test]
    fn tiling_preserves_mac_work() {
        let net = one_layer_net(64, 32);
        let cfg = IsoscelesConfig::default();
        let base = super::simulate_group(&net, &cfg, &group(1, 1), 1).metrics;
        let tiled = super::simulate_group(&net, &cfg, &group(2, 2), 1).metrics;
        assert!((base.effectual_macs - tiled.effectual_macs).abs() / base.effectual_macs < 1e-9);
    }
}
