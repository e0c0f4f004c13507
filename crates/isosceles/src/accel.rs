//! The unified accelerator-model interface.
//!
//! Every performance model the suite compares — ISOSceles itself plus the
//! baselines in `isos-baselines` — is a config struct implementing
//! [`Accelerator`]. The bench suite engine drives them uniformly through
//! `&dyn Accelerator`, and keys its on-disk result cache by
//! [`Accelerator::cache_key`], a stable content hash of the model's name
//! and configuration.
//!
//! # Examples
//!
//! ```
//! use isosceles::accel::Accelerator;
//! use isosceles::IsoscelesConfig;
//! let net = isos_nn::models::googlenet_inception3a(0.58, 1);
//! let cfg = IsoscelesConfig::default();
//! let metrics = cfg.simulate(&net, 1);
//! assert!(metrics.total.cycles > 0);
//! assert_eq!(cfg.name(), "isosceles");
//! ```

use crate::mapping::ExecMode;
use crate::IsoscelesConfig;
use isos_nn::graph::Network;
use isos_sim::metrics::NetworkMetrics;
use isos_trace::TraceSink;

/// A cycle-level accelerator performance model.
///
/// Implementors are configuration structs; simulating the same network
/// with the same seed on the same configuration must be deterministic,
/// since [`cache_key`](Accelerator::cache_key) (plus workload id and seed)
/// is what the suite engine's result cache is addressed by.
///
/// The `Sync` supertrait lets `&dyn Accelerator` cross scoped-thread
/// boundaries in the parallel suite engine.
pub trait Accelerator: Sync {
    /// Stable, human-readable model name (e.g. `"isosceles"`,
    /// `"sparten"`). Used in reports and as part of the cache key.
    fn name(&self) -> &str;

    /// Stable content hash of this configuration.
    ///
    /// Two configurations with equal field values must return equal keys
    /// across runs, platforms, and processes; any field change must change
    /// the key. Implementors normally delegate to [`stable_key`].
    fn cache_key(&self) -> u64;

    /// Simulates `net` end to end and returns its metrics.
    fn simulate(&self, net: &Network, seed: u64) -> NetworkMetrics;

    /// Simulates `net` while emitting trace events to `sink`.
    ///
    /// With a disabled sink this must return metrics bit-identical to
    /// [`simulate`](Accelerator::simulate) — and instrumented models
    /// keep that guarantee with an *enabled* sink too, since tracing
    /// only observes the simulation. The default implementation ignores
    /// the sink; every model in this workspace overrides it.
    fn simulate_traced(
        &self,
        net: &Network,
        seed: u64,
        sink: &mut dyn TraceSink,
    ) -> NetworkMetrics {
        let _ = sink;
        self.simulate(net, seed)
    }
}

/// FNV-1a offset basis: the state every content hash starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a state. Every content-addressed key in
/// the workspace ([`stable_key`], the suite engine's job and stream
/// keys) is built from this one fold, so a change here invalidates
/// every cache.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Stable content hash of an accelerator name plus its serialized
/// configuration.
///
/// The configuration is rendered to canonical JSON (fields in declaration
/// order, shortest-round-trip floats) and FNV-1a hashed together with the
/// name, so the key depends only on values — not on process layout or
/// `Hash` implementations, which Rust does not guarantee stable.
pub fn stable_key<C: serde::Serialize + ?Sized>(name: &str, cfg: &C) -> u64 {
    let state = fnv1a(FNV_OFFSET, name.as_bytes());
    // 0xFF never appears in UTF-8, so it unambiguously separates the name
    // from the JSON payload.
    let state = fnv1a(state, &[0xFF]);
    fnv1a(state, serde::json::to_string(cfg).as_bytes())
}

impl Accelerator for IsoscelesConfig {
    fn name(&self) -> &str {
        "isosceles"
    }

    fn cache_key(&self) -> u64 {
        stable_key(Accelerator::name(self), self)
    }

    fn simulate(&self, net: &Network, seed: u64) -> NetworkMetrics {
        crate::arch::run_network(net, self, ExecMode::Pipelined, seed)
    }

    fn simulate_traced(
        &self,
        net: &Network,
        seed: u64,
        sink: &mut dyn TraceSink,
    ) -> NetworkMetrics {
        crate::arch::run_network_traced(net, self, ExecMode::Pipelined, seed, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_key_is_stable_across_calls() {
        let cfg = IsoscelesConfig::default();
        assert_eq!(cfg.cache_key(), cfg.cache_key());
        assert_eq!(cfg.cache_key(), IsoscelesConfig::default().cache_key());
    }

    #[test]
    fn cache_key_tracks_config_changes() {
        let base = IsoscelesConfig::default();
        let mut wide = base;
        wide.lanes *= 2;
        assert_ne!(base.cache_key(), wide.cache_key());
        let mut slow = base;
        slow.dram_bytes_per_cycle /= 2.0;
        assert_ne!(base.cache_key(), slow.cache_key());
    }

    #[test]
    fn stable_key_separates_name_from_payload() {
        // Same JSON under different names, and different JSON under the
        // same name, must all produce distinct keys.
        let a = stable_key("isosceles", &42u64);
        let b = stable_key("sparten", &42u64);
        let c = stable_key("isosceles", &43u64);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn trait_object_simulation_matches_direct_call() {
        let net = isos_nn::models::googlenet_inception3a(0.58, 1);
        let cfg = IsoscelesConfig::default();
        let direct = crate::arch::run_network(&net, &cfg, ExecMode::Pipelined, 7);
        let dynamic: &dyn Accelerator = &cfg;
        let via_trait = dynamic.simulate(&net, 7);
        assert_eq!(via_trait.total.cycles, direct.total.cycles);
        assert_eq!(via_trait.groups.len(), direct.groups.len());
    }
}
