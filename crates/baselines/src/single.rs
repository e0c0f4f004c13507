//! ISOSceles-single: the IS-OS dataflow without inter-layer pipelining.
//!
//! The Fig. 18 ablation: same hardware, same dataflow, but every layer runs
//! as its own "pipeline" of one, spilling activations between layers. The
//! gap between this and SparTen isolates the IS-OS dataflow's benefit; the
//! gap between this and full ISOSceles isolates inter-layer pipelining's.

use isos_nn::graph::Network;
use isos_sim::metrics::NetworkMetrics;
use isos_trace::TraceSink;
use isosceles::accel::{stable_key, Accelerator};
use isosceles::arch::{run_network, run_network_traced};
use isosceles::mapping::ExecMode;
use isosceles::IsoscelesConfig;
use serde::{Deserialize, Serialize};

/// ISOSceles hardware constrained to layer-by-layer execution.
///
/// A newtype over [`IsoscelesConfig`]: identical Table I hardware, but the
/// mapper is forced into [`ExecMode::SingleLayer`]. Kept distinct from the
/// pipelined model so the two register as different accelerators (with
/// different cache keys) in the suite engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct IsoscelesSingleConfig(pub IsoscelesConfig);

impl Accelerator for IsoscelesSingleConfig {
    fn name(&self) -> &str {
        "isosceles-single"
    }

    fn cache_key(&self) -> u64 {
        stable_key(Accelerator::name(self), self)
    }

    fn simulate(&self, net: &Network, seed: u64) -> NetworkMetrics {
        run_network(net, &self.0, ExecMode::SingleLayer, seed)
    }

    fn simulate_traced(
        &self,
        net: &Network,
        seed: u64,
        sink: &mut dyn TraceSink,
    ) -> NetworkMetrics {
        run_network_traced(net, &self.0, ExecMode::SingleLayer, seed, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isos_nn::models::resnet50;
    use isosceles::mapping::ExecMode;

    #[test]
    fn single_mode_has_one_weighted_layer_per_group() {
        let net = resnet50(0.96, 1);
        let r = IsoscelesSingleConfig::default().simulate(&net, 1);
        // Adds fuse into the conv feeding them, so groups number fewer
        // than layers but at least one per conv/pool/FC.
        let adds = net
            .nodes()
            .iter()
            .filter(|n| matches!(n.layer.kind, isos_nn::layer::LayerKind::Add))
            .count();
        assert_eq!(r.groups.len(), net.len() - adds);
    }

    #[test]
    fn pipelining_beats_single_on_r96() {
        // The headline Fig. 18 relationship, at network scale.
        let net = resnet50(0.96, 1);
        let cfg = IsoscelesConfig::default();
        let single = IsoscelesSingleConfig(cfg).simulate(&net, 1);
        let full = run_network(&net, &cfg, ExecMode::Pipelined, 1);
        assert!(
            full.total.cycles < single.total.cycles,
            "full {} vs single {}",
            full.total.cycles,
            single.total.cycles
        );
        assert!(full.total.total_traffic() < single.total.total_traffic());
    }

    #[test]
    fn trait_impl_is_single_layer_run_network() {
        // The trait impl must be exactly `run_network` in SingleLayer mode
        // on the wrapped hardware config (formerly asserted by the
        // deprecated free-function compat test).
        let net = resnet50(0.9, 1);
        let cfg = IsoscelesConfig::default();
        let via_trait = IsoscelesSingleConfig(cfg).simulate(&net, 7);
        let direct = run_network(&net, &cfg, ExecMode::SingleLayer, 7);
        assert_eq!(via_trait, direct);
    }

    #[test]
    fn single_config_key_differs_from_pipelined() {
        // Same underlying hardware struct, different model identity.
        let cfg = IsoscelesConfig::default();
        assert_ne!(
            IsoscelesSingleConfig(cfg).cache_key(),
            Accelerator::cache_key(&cfg)
        );
    }
}
